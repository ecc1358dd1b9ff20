//! Extending the workspace with your own hardware model: implement
//! [`Platform`] — a cost model — for a hypothetical low-power edge NPU
//! and race it against the paper's three platforms on the
//! interpretation pipeline.
//!
//! A platform states only what each kernel costs; the kernels
//! themselves are the workspace's one implementation, so the NPU
//! computes the built-in platforms' bits. Its mutable state (the
//! simulated clock) lives behind interior mutability, here the
//! ready-made [`Clock`] ledger, so the finished model is `Send + Sync`
//! and can be shared across worker threads as `Arc<dyn Accelerator>`
//! with no further work, as the final section demonstrates.
//!
//! Run: `cargo run --release --example custom_accelerator`

use std::sync::Arc;
use tpu_xai::accel::{
    charge_staged_chain, Accelerator, Clock, CpuModel, GpuModel, KernelStats, Platform, TpuAccel,
};
use tpu_xai::core::{explain_batch_parallel_on, interpret_on, SolveStrategy};
use tpu_xai::tensor::{conv::conv2d_circular, ops, Matrix, Result};
use tpu_xai::tpu::KernelJob;

/// A hypothetical 2 W edge NPU: modest compute (250 GFLOP/s int8
/// class), modest bandwidth (25 GB/s LPDDR), no launch overhead
/// (tightly-coupled command queue), one kernel per lane.
#[derive(Debug, Clone, Default)]
struct EdgeNpu {
    clock: Clock,
}

impl EdgeNpu {
    const FLOPS: f64 = 2.5e11;
    const BYTES: f64 = 2.5e10;

    fn charge(&self, flops: f64, bytes: f64) {
        let dt = (flops / Self::FLOPS).max(bytes / Self::BYTES);
        self.clock.record(dt, flops, bytes);
    }
}

impl Platform for EdgeNpu {
    fn name(&self) -> String {
        "EdgeNPU (hypothetical 2 W part)".to_string()
    }

    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        ops::matmul_blocked(a, b, ops::DEFAULT_BLOCK)
    }

    fn lanes_per_launch(&self, _: usize) -> usize {
        1
    }

    /// Flops and bytes of one lane of `job`, times `lanes`; a request's
    /// score lanes pay the staged transform, product, transform and
    /// difference.
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()> {
        let (flops, bytes) = match job {
            KernelJob::Matmul { m, k, n } => (
                2.0 * (m * k * n) as f64,
                8.0 * (m * k + k * n + m * n) as f64,
            ),
            KernelJob::Transform { rows, cols } => (
                6.0 * (rows * cols) as f64 * ((rows * cols) as f64).log2(),
                64.0 * (rows * cols) as f64,
            ),
            KernelJob::Hadamard { elems } => (6.0 * elems as f64, 48.0 * elems as f64),
            KernelJob::PointwiseDiv { elems } => (10.0 * elems as f64, 48.0 * elems as f64),
            KernelJob::Sub { elems } => (elems as f64, 24.0 * elems as f64),
            KernelJob::Score { rows, cols } => return charge_staged_chain(self, rows, cols, lanes),
        };
        let lanes = lanes as f64;
        self.charge(flops * lanes, bytes * lanes);
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

fn main() -> Result<()> {
    // The interpretation workload of Table II on 64×64 pairs.
    let k = Matrix::from_fn(64, 64, |r, c| ((r + c * 2) % 5) as f64 * 0.2)?;
    let pairs: Vec<_> = (0..6)
        .map(|s| {
            let x = Matrix::from_fn(64, 64, |r, c| (((r * 13 + c * 7 + s) % 23) as f64) / 23.0)
                .expect("valid dims");
            let y = conv2d_circular(&x, &k).expect("same shape");
            (x, y)
        })
        .collect();

    let platforms: Vec<Box<dyn Accelerator>> = vec![
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
        Box::new(EdgeNpu::default()),
    ];
    println!("interpretation of 6 pairs (64x64, 4x4 blocks):\n");
    for p in &platforms {
        let (model, report) = interpret_on(p.as_ref(), &pairs, 4, SolveStrategy::default())?;
        println!(
            "{:38} {:10.1} µs   (fidelity err {:.1e})",
            p.name(),
            report.total_s() * 1e6,
            model.fidelity_error(&pairs)?
        );
    }

    // Because a platform is `&self` + `Send + Sync`, the custom model
    // is immediately shareable: four host threads explain the batch
    // through ONE EdgeNpu, and the results match serial execution.
    let model = tpu_xai::core::DistilledModel::fit(&pairs, SolveStrategy::default())?;
    let shared: Arc<dyn Accelerator> = Arc::new(EdgeNpu::default());
    let maps = explain_batch_parallel_on(&*shared, &model, &pairs, 4, 4)?;
    println!(
        "\n4 threads sharing one EdgeNpu explained {} inputs \
         ({} kernels, {:.1} µs simulated)",
        maps.len(),
        shared.stats().kernels,
        shared.elapsed_seconds() * 1e6
    );

    println!("\nAny platform that can run matmul/FFT/elementwise kernels plugs into");
    println!("the same pipeline — implement the Accelerator trait and race it.");
    Ok(())
}
