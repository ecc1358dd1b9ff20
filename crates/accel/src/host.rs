//! CPU and GPU baseline models.
//!
//! Both execute the real kernels on the host (results are exact) and
//! charge a roofline time model calibrated to the paper's evaluation
//! parts: an Intel i7 3.70 GHz host CPU and an NVIDIA GeForce
//! GTX 1080 (§IV-A). The two are one type, [`HostModel`], and one
//! `Accelerator` implementation: a host-class platform is a
//! [`RooflineParams`] and a launch grid — how many kernels a batch of
//! `n` lanes costs. The CPU launches a kernel per lane, the GPU one
//! grid per batch, and that is all that differs.
//!
//! Kernels take `&self` — the only mutable state is the [`Clock`]
//! ledger — so a single model can be shared across worker threads as
//! `Arc<dyn Accelerator>`. Transform plans come from the process-wide
//! [`xai_fourier::global_plan_cache`], so plan construction amortises
//! across threads and models alike.
//!
//! The numeric kernels themselves run on the shared
//! [`xai_parallel`] work-stealing pool (blocked matmul panels, 2-D
//! transform row blocks, large elementwise chunks), so the host
//! baselines use every core `XAI_THREADS` grants while staying
//! bit-identical to serial execution; the simulated charges are
//! functions of the workload shape and never of the worker count.
//! Contribution scores shard whole score lanes, not transform row
//! blocks ([`crate::filter_diff`]), and replay the staged filter-diff
//! chain's charges afterwards.
//!
//! Sustained-throughput calibration: the models use *sustained* rather
//! than peak figures, since the pipeline's kernels are small and
//! latency/occupancy-bound on real hardware.

use crate::clock::Clock;
use crate::filter_diff::{self, PreparedKernel};
use crate::roofline::{cost, RooflineParams};
use crate::stats::KernelStats;
use crate::traits::{check_request, Accelerator, Rect};
use xai_fourier::{global_plan_cache, Fft2d};
use xai_tensor::ops::{self, DivPolicy};
use xai_tensor::{Complex64, Matrix, Result};

/// `lanes → (kernels per stage, lanes per kernel)` of a host model's
/// batched launches.
type Grid = fn(usize) -> (usize, usize);

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
    grid: Grid,
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
            grid: |n| (1, n),
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
            grid: |n| (n, 1),
            clock: Clock::new(),
        }
    }

    fn charge(&self, flops: f64, bytes: f64) {
        let t = self.params.kernel_seconds(flops, bytes);
        self.clock.record(t, flops, bytes);
    }

    /// One kernel launch transforming `lanes` matrices of `plan`'s
    /// shape. Scaling by one lane is exact, so the single-matrix
    /// kernels and the GPU's batch grids share these three charges.
    fn charge_fft2d(&self, plan: &Fft2d, lanes: usize) {
        let (m, n) = plan.shape();
        let (row_ops, col_ops) = plan.op_counts();
        let b = lanes as f64;
        self.charge(
            cost::fft2d_flops(m, n, row_ops, col_ops) * b,
            cost::fft2d_bytes(m, n) * b,
        );
    }

    /// One launch of `lanes` Hadamard products of `elems` elements.
    fn charge_hadamard(&self, elems: usize, lanes: usize) {
        let b = lanes as f64;
        self.charge(
            cost::elementwise_flops(elems, 6.0) * b,
            cost::elementwise_bytes(elems) * b,
        );
    }

    /// One launch of `lanes` real differences of `elems` elements.
    fn charge_sub(&self, elems: usize, lanes: usize) {
        let b = lanes as f64;
        self.charge(elems as f64 * b, 24.0 * elems as f64 * b);
    }

    /// The staged filter-diff chain's charges for `n` lanes of `shape`,
    /// stage-major (the order is part of the clock's bits), at this
    /// platform's grid.
    fn charge_filter_diff(&self, (rows, cols): (usize, usize), n: usize) {
        let (launches, lanes) = (self.grid)(n);
        let plan = global_plan_cache().plan_2d(rows, cols);
        (0..launches).for_each(|_| self.charge_fft2d(&plan, lanes));
        (0..launches).for_each(|_| self.charge_hadamard(rows * cols, lanes));
        (0..launches).for_each(|_| self.charge_fft2d(&plan, lanes));
        (0..launches).for_each(|_| self.charge_sub(rows * cols, lanes));
    }

    /// A batched kernel as this platform's launches over `lanes`:
    /// `launch` runs the numerics of one launch's lanes and then charges
    /// that launch. So the CPU charges lane by lane and a malformed
    /// batch keeps the charges of the lanes before the odd one; the GPU
    /// charges one grid or nothing; an empty batch launches nothing.
    fn launches<T, R>(
        &self,
        lanes: &[T],
        launch: impl Fn(&[T]) -> Result<Vec<R>>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(lanes.len());
        if !lanes.is_empty() {
            let (_, per_launch) = (self.grid)(lanes.len());
            for group in lanes.chunks(per_launch) {
                out.extend(launch(group)?);
            }
        }
        Ok(out)
    }

    /// One launch transforming `xs` (non-empty) on the plan of its
    /// first lane's shape: a single lane in row blocks over the host
    /// pool, several as whole matrices — bit-identical either way. A
    /// failed launch charges nothing, like every other kernel here.
    fn transform(&self, xs: &[Matrix<Complex64>], forward: bool) -> Result<Vec<Matrix<Complex64>>> {
        let (m, n) = xs[0].shape();
        let workers = xai_parallel::global().num_threads();
        let plan = global_plan_cache().plan_2d(m, n);
        let out = match (xs, forward) {
            ([x], true) => vec![plan.forward_parallel(x, workers)?],
            ([x], false) => vec![plan.inverse_parallel(x, workers)?],
            (_, true) => plan.forward_batch_parallel(xs, workers)?,
            (_, false) => plan.inverse_batch_parallel(xs, workers)?,
        };
        self.charge_fft2d(&plan, xs.len());
        Ok(out)
    }
}

impl Accelerator for HostModel {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn matmul(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        let out = ops::matmul_blocked_parallel(a, b, ops::DEFAULT_BLOCK)?;
        let (m, k) = a.shape();
        let n = b.cols();
        self.charge(cost::matmul_flops(m, k, n), cost::matmul_bytes(m, k, n));
        Ok(out)
    }
    fn fft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        Ok(self.transform(std::slice::from_ref(x), true)?.remove(0))
    }
    fn ifft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        Ok(self.transform(std::slice::from_ref(x), false)?.remove(0))
    }
    fn hadamard(&self, a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        let out = ops::hadamard(a, b)?;
        self.charge_hadamard(a.len(), 1);
        Ok(out)
    }
    fn pointwise_div(
        &self,
        a: &Matrix<Complex64>,
        b: &Matrix<Complex64>,
        policy: DivPolicy,
    ) -> Result<Matrix<Complex64>> {
        let out = ops::pointwise_div(a, b, policy)?;
        self.charge(
            cost::elementwise_flops(a.len(), 10.0),
            cost::elementwise_bytes(a.len()),
        );
        Ok(out)
    }
    fn sub(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        let out = ops::sub(a, b)?;
        self.charge_sub(a.len(), 1);
        Ok(out)
    }
    fn fft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        self.launches(xs, |group| self.transform(group, true))
    }
    fn ifft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        self.launches(xs, |group| self.transform(group, false))
    }
    fn hadamard_batch(
        &self,
        xs: &[Matrix<Complex64>],
        k: &Matrix<Complex64>,
    ) -> Result<Vec<Matrix<Complex64>>> {
        self.launches(xs, |group| {
            let out: Vec<_> = group
                .iter()
                .map(|x| ops::hadamard(x, k))
                .collect::<Result<_>>()?;
            self.charge_hadamard(group[0].len(), group.len());
            Ok(out)
        })
    }
    fn sub_batch(&self, y: &Matrix<f64>, preds: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        self.launches(preds, |group| {
            let out: Vec<_> = group
                .iter()
                .map(|p| ops::sub(y, p))
                .collect::<Result<_>>()?;
            self.charge_sub(y.len(), group.len());
            Ok(out)
        })
    }
    fn contribution_scores(
        &self,
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        rects: &[Rect],
        kernel: &PreparedKernel,
    ) -> Result<Vec<f64>> {
        if rects.is_empty() {
            return Ok(Vec::new());
        }
        check_request(x, y, rects, kernel)?;
        let out = filter_diff::scores(&filter_diff::operands(x, y, rects, kernel), rects)?;
        self.charge_filter_diff(x.shape(), out.len());
        Ok(out)
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
        // 4-element kernel: the GPU pays 10 µs launch, the CPU ~0.2 µs.
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
