//! CPU and GPU baseline models.
//!
//! Both execute the real kernels on the host (results are exact) and
//! charge a roofline time model calibrated to the paper's evaluation
//! parts: an Intel i7 3.70 GHz host CPU and an NVIDIA GeForce
//! GTX 1080 (§IV-A). The two are one type, [`HostModel`]: a host-class
//! platform is a [`RooflineParams`] and how many lanes of a batch one
//! kernel launch carries. The CPU launches a kernel per lane, the GPU
//! one grid per batch, and that is all that differs. The kernel bodies
//! are the built-in platforms' one implementation
//! (`platform.rs`); this module states only the charges.
//!
//! Kernels take `&self` — the only mutable state is the [`Clock`]
//! ledger — so a single model can be shared across worker threads as
//! `Arc<dyn Accelerator>`.
//!
//! Sustained-throughput calibration: the models use *sustained* rather
//! than peak figures, since the pipeline's kernels are small and
//! latency/occupancy-bound on real hardware.

use crate::clock::Clock;
use crate::platform::charge_staged_chain;
use crate::roofline::{cost, RooflineParams};
use crate::stats::KernelStats;
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Matrix, Result};
use xai_tpu::KernelJob;

/// A host-class platform: real kernels on the host, a roofline charge
/// per kernel launch. [`CpuModel`] and [`GpuModel`] name its two
/// calibrations.
///
/// Cloning snapshots the clock into an independent model; share one
/// clock by sharing the model itself (e.g. `Arc<CpuModel>`).
#[derive(Debug, Clone)]
pub struct HostModel {
    name: String,
    params: RooflineParams,
    /// How many of a batch's `n` lanes one kernel launch carries.
    lanes_per_launch: fn(usize) -> usize,
    clock: Clock,
}

/// The paper's baseline: "ordinary execution with CPU" on the
/// Intel i7 3.70 GHz host (§IV-A), with the same data
/// decomposition applied across its SMT threads. A batched kernel is a
/// kernel per lane.
pub type CpuModel = HostModel;

/// The paper's state-of-practice baseline: model training and
/// outcome interpretation on the external NVIDIA GeForce GTX 1080
/// (§IV-A).
///
/// Batched kernels pay the launch overhead **once** per batch (one
/// fused grid instead of many small kernels) — this is how the
/// paper's §III-D multi-input parallelism manifests on a GPU.
pub type GpuModel = HostModel;

impl HostModel {
    /// Sustained model of the paper's Intel i7 3.70 GHz host:
    /// ~30 GFLOP/s sustained across 8 threads, ~20 GB/s memory
    /// bandwidth, negligible dispatch cost.
    pub fn i7_3700() -> Self {
        Self::with_params(
            "CPU (Intel i7 3.70 GHz, 8 threads)",
            RooflineParams {
                flops_per_sec: 3.0e10,
                bytes_per_sec: 2.0e10,
                launch_overhead_s: 2.0e-7,
            },
        )
    }

    /// Sustained model of the paper's NVIDIA GTX 1080: 8.9 TFLOP/s
    /// peak derated to ~800 GFLOP/s sustained on this pipeline's
    /// small, launch-bound kernels; 320 GB/s HBM derated to
    /// ~200 GB/s; ~3 µs per kernel dispatch (stream-amortised — the
    /// pipeline batches kernels per §III-D, so raw launch latency is
    /// partially hidden).
    pub fn gtx1080() -> Self {
        HostModel {
            lanes_per_launch: |n| n,
            ..Self::with_params(
                "GPU (NVIDIA GTX 1080)",
                RooflineParams {
                    flops_per_sec: 8.0e11,
                    bytes_per_sec: 2.0e11,
                    launch_overhead_s: 3.0e-6,
                },
            )
        }
    }

    /// A custom CPU: a kernel per lane, charged by `params`.
    pub fn with_params(name: impl Into<String>, params: RooflineParams) -> Self {
        HostModel {
            name: name.into(),
            params,
            lanes_per_launch: |_| 1,
            clock: Clock::new(),
        }
    }

    fn charge(&self, flops: f64, bytes: f64) {
        let t = self.params.kernel_seconds(flops, bytes);
        self.clock.record(t, flops, bytes);
    }
}

impl crate::platform::Platform for HostModel {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        ops::matmul_blocked_parallel(a, b, ops::DEFAULT_BLOCK)
    }
    fn lanes_per_launch(&self, n: usize) -> usize {
        (self.lanes_per_launch)(n)
    }
    /// One roofline charge of `lanes` lanes' flops and bytes (scaling by
    /// one lane is exact); a request's score lanes pay the staged chain.
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()> {
        let (flops, bytes) = match job {
            KernelJob::Transform { rows, cols } => {
                let (row_ops, col_ops) = global_plan_cache().plan_2d(rows, cols).op_counts();
                (
                    cost::fft2d_flops(rows, cols, row_ops, col_ops),
                    cost::fft2d_bytes(rows, cols),
                )
            }
            KernelJob::Hadamard { elems } => (
                cost::elementwise_flops(elems, 6.0),
                cost::elementwise_bytes(elems),
            ),
            KernelJob::PointwiseDiv { elems } => (
                cost::elementwise_flops(elems, 10.0),
                cost::elementwise_bytes(elems),
            ),
            KernelJob::Sub { elems } => (elems as f64, 24.0 * elems as f64),
            KernelJob::Matmul { m, k, n } => {
                (cost::matmul_flops(m, k, n), cost::matmul_bytes(m, k, n))
            }
            KernelJob::Score { rows, cols } => return charge_staged_chain(self, rows, cols, lanes),
        };
        let b = lanes as f64;
        self.charge(flops * b, bytes * b);
        Ok(())
    }
    fn charge_workload(&self, flops: f64, bytes: f64) {
        self.charge(flops, bytes);
    }
    fn elapsed_seconds(&self) -> f64 {
        self.clock.seconds()
    }
    fn stats(&self) -> KernelStats {
        self.clock.stats()
    }
    fn reset(&self) {
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accelerator;
    use xai_tensor::ops::DivPolicy;
    use xai_tensor::Complex64;

    #[test]
    fn cpu_and_gpu_compute_identical_results() {
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let a = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c * 3) % 7) as f64 - 3.0).unwrap();
        let b = Matrix::from_fn(8, 8, |r, c| ((r + c * 2) % 5) as f64).unwrap();
        let ca = cpu.matmul(&a, &b).unwrap();
        let ga = gpu.matmul(&a, &b).unwrap();
        assert_eq!(ca, ga);
        let cf = cpu.fft2d(&a.to_complex()).unwrap();
        let gf = gpu.fft2d(&a.to_complex()).unwrap();
        assert!(cf.max_abs_diff(&gf).unwrap() < 1e-12);
    }

    #[test]
    fn gpu_is_faster_on_large_compute_bound_work() {
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let a = Matrix::filled(96, 96, 0.5).unwrap();
        cpu.matmul(&a, &a).unwrap();
        gpu.matmul(&a, &a).unwrap();
        assert!(gpu.elapsed_seconds() < cpu.elapsed_seconds());
    }

    #[test]
    fn gpu_launch_overhead_dominates_tiny_kernels() {
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let a = Matrix::filled(2, 2, 1.0).unwrap();
        cpu.sub(&a, &a).unwrap();
        gpu.sub(&a, &a).unwrap();
        // 4-element kernel: the GPU pays 3 µs launch, the CPU ~0.2 µs.
        assert!(gpu.elapsed_seconds() > cpu.elapsed_seconds());
    }

    #[test]
    fn fft_roundtrip_through_accelerator() {
        let cpu = CpuModel::i7_3700();
        let x = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64)
            .unwrap()
            .to_complex();
        let spec = cpu.fft2d(&x).unwrap();
        let back = cpu.ifft2d(&spec).unwrap();
        assert!(x.max_abs_diff(&back).unwrap() < 1e-9);
        assert_eq!(cpu.stats().kernels, 2);
    }

    #[test]
    fn reset_zeroes_clock() {
        let cpu = CpuModel::i7_3700();
        let a = Matrix::filled(4, 4, 1.0).unwrap();
        cpu.matmul(&a, &a).unwrap();
        assert!(cpu.elapsed_seconds() > 0.0);
        cpu.reset();
        assert_eq!(cpu.elapsed_seconds(), 0.0);
        assert_eq!(cpu.stats().kernels, 0);
    }

    #[test]
    fn charge_workload_advances_clock() {
        let gpu = GpuModel::gtx1080();
        gpu.charge_workload(8.0e11, 0.0);
        // 8e11 flops at 8e11 aggregate flops/s ⇒ 1 s + launch
        assert!((gpu.elapsed_seconds() - 1.0 - 3e-6).abs() < 1e-6);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(CpuModel::i7_3700().name(), GpuModel::gtx1080().name());
    }

    #[test]
    fn division_policy_propagates() {
        let cpu = CpuModel::i7_3700();
        let a = Matrix::filled(2, 2, Complex64::ONE).unwrap();
        let z = Matrix::filled(2, 2, Complex64::ZERO).unwrap();
        assert!(cpu
            .pointwise_div(&a, &z, DivPolicy::Strict { tol: 0.0 })
            .is_err());
        assert!(cpu
            .pointwise_div(&a, &z, DivPolicy::ZeroFill { tol: 1e-9 })
            .is_ok());
    }

    #[test]
    fn clone_snapshots_rather_than_shares_the_clock() {
        let cpu = CpuModel::i7_3700();
        let a = Matrix::filled(4, 4, 1.0).unwrap();
        cpu.matmul(&a, &a).unwrap();
        let snap = cpu.clone();
        cpu.matmul(&a, &a).unwrap();
        assert_eq!(snap.stats().kernels, 1);
        assert_eq!(cpu.stats().kernels, 2);
    }

    #[test]
    fn shared_model_accumulates_across_threads() {
        use std::sync::Arc;
        let gpu = Arc::new(GpuModel::gtx1080());
        let a = Matrix::filled(8, 8, 1.0).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let gpu = Arc::clone(&gpu);
                let a = a.clone();
                scope.spawn(move || gpu.matmul(&a, &a).unwrap());
            }
        });
        assert_eq!(gpu.stats().kernels, 4);
    }
}
