//! The one kernel body of the built-in platforms.
//!
//! The paper's evaluation (§IV-A) runs one algorithm on three
//! platforms, and "timing is simulated, compute is real": the platforms
//! differ only in what they charge. So every [`Accelerator`] kernel of
//! [`HostModel`](crate::HostModel) and [`TpuAccel`](crate::TpuAccel) is
//! written once here, generically over [`Platform`] — the few things a
//! built-in platform decides: its matmul arithmetic, how many lanes of
//! a batch one launch carries, and the charge of one kernel and of one
//! launch, as shapes ([`KernelJob`]).
//!
//! Each kernel runs its numerics on the calling thread (the transforms
//! and contribution scores over the host pool, bit-identical to serial
//! execution), then charges; a kernel whose numerics fail charges
//! nothing. A batch does so once per launch: the CPU keeps the charges
//! of the lanes before a malformed one, the GPU and the TPU charge one
//! launch or nothing.

use crate::distill::{self, SolveStrategy};
use crate::filter_diff::{self, PreparedKernel};
use crate::stats::KernelStats;
use crate::traits::{check_request, Accelerator, Rect};
use xai_fourier::global_plan_cache;
use xai_tensor::ops::{self, DivPolicy};
use xai_tensor::{Complex64, Matrix, Result};
use xai_tpu::KernelJob;

/// What a built-in platform decides; [`Accelerator`] follows from it.
/// The methods without a comment are [`Accelerator`]'s own.
pub(crate) trait Platform: Send + Sync {
    fn name(&self) -> String;

    /// The arithmetic of [`Accelerator::matmul`].
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>>;

    /// How many of a batch's `n` lanes one launch carries.
    fn lanes_per_launch(&self, n: usize) -> usize;

    /// Charges one single kernel.
    fn charge_kernel(&self, job: KernelJob) -> Result<()> {
        self.charge_launch(job, 1)
    }

    /// Charges one batched launch of `lanes` lanes of `job`; for
    /// [`KernelJob::Score`], the lanes of one request.
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()>;

    /// `true` when a request's score lanes run one after another on the
    /// calling thread instead of over the host pool.
    fn scores_on_caller(&self) -> bool {
        false
    }

    fn charge_workload(&self, flops: f64, bytes: f64);

    fn queue_depth(&self) -> usize {
        0
    }

    fn healthy_fraction(&self) -> f64 {
        1.0
    }

    fn elapsed_seconds(&self) -> f64;

    fn stats(&self) -> KernelStats;

    fn reset(&self);
}

/// The staged filter-diff chain's charges for `lanes` lanes of
/// `rows × cols` — forward transform, Hadamard, inverse transform,
/// difference — stage-major at `p`'s launches (the order is part of the
/// clock's bits): what an unqueued request's score lanes pay.
pub(crate) fn charge_staged_chain(
    p: &impl Platform,
    rows: usize,
    cols: usize,
    lanes: usize,
) -> Result<()> {
    let per_launch = p.lanes_per_launch(lanes);
    let elems = rows * cols;
    let transform = KernelJob::Transform { rows, cols };
    for job in [
        transform,
        KernelJob::Hadamard { elems },
        transform,
        KernelJob::Sub { elems },
    ] {
        for start in (0..lanes).step_by(per_launch) {
            p.charge_launch(job, per_launch.min(lanes - start))?;
        }
    }
    Ok(())
}

/// A batched kernel as `p`'s launches over `lanes`: each launch runs its
/// lanes' `numerics`, then charges `job` of its first lane for all of
/// them. An empty batch launches nothing.
fn launches<T, R>(
    p: &impl Platform,
    lanes: &[T],
    job: impl Fn(&T) -> KernelJob,
    numerics: impl Fn(&[T]) -> Result<Vec<R>>,
) -> Result<Vec<R>> {
    let mut out = Vec::with_capacity(lanes.len());
    for group in lanes.chunks(p.lanes_per_launch(lanes.len()).max(1)) {
        out.extend(numerics(group)?);
        p.charge_launch(job(&group[0]), group.len())?;
    }
    Ok(out)
}

/// Transforms `xs` (non-empty) on the plan of its first lane's shape: a
/// single lane in row blocks over the host pool, several as whole
/// matrices — bit-identical either way.
fn transform(xs: &[Matrix<Complex64>], forward: bool) -> Result<Vec<Matrix<Complex64>>> {
    let (rows, cols) = xs[0].shape();
    let workers = xai_parallel::global().num_threads();
    let plan = global_plan_cache().plan_2d(rows, cols);
    match (xs, forward) {
        ([x], true) => Ok(vec![plan.forward_parallel(x, workers)?]),
        ([x], false) => Ok(vec![plan.inverse_parallel(x, workers)?]),
        (_, true) => plan.forward_batch_parallel(xs, workers),
        (_, false) => plan.inverse_batch_parallel(xs, workers),
    }
}

fn transform_job(x: &Matrix<Complex64>) -> KernelJob {
    let (rows, cols) = x.shape();
    KernelJob::Transform { rows, cols }
}

/// One transform kernel: numerics, then its charge.
fn single_transform(
    p: &impl Platform,
    x: &Matrix<Complex64>,
    forward: bool,
) -> Result<Matrix<Complex64>> {
    let out = transform(std::slice::from_ref(x), forward)?.remove(0);
    p.charge_kernel(transform_job(x))?;
    Ok(out)
}

impl<P: Platform> Accelerator for P {
    fn name(&self) -> String {
        Platform::name(self)
    }
    fn matmul(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        let out = self.product(a, b)?;
        let ((m, k), n) = (a.shape(), b.cols());
        self.charge_kernel(KernelJob::Matmul { m, k, n })?;
        Ok(out)
    }
    fn fft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        single_transform(self, x, true)
    }
    fn ifft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        single_transform(self, x, false)
    }
    fn hadamard(&self, a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        let out = ops::hadamard(a, b)?;
        self.charge_kernel(KernelJob::Hadamard { elems: a.len() })?;
        Ok(out)
    }
    fn pointwise_div(
        &self,
        a: &Matrix<Complex64>,
        b: &Matrix<Complex64>,
        policy: DivPolicy,
    ) -> Result<Matrix<Complex64>> {
        let out = ops::pointwise_div(a, b, policy)?;
        self.charge_kernel(KernelJob::PointwiseDiv { elems: a.len() })?;
        Ok(out)
    }
    fn sub(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        let out = ops::sub(a, b)?;
        self.charge_kernel(KernelJob::Sub { elems: a.len() })?;
        Ok(out)
    }
    fn fft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        launches(self, xs, transform_job, |group| transform(group, true))
    }
    fn ifft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        launches(self, xs, transform_job, |group| transform(group, false))
    }
    fn hadamard_batch(
        &self,
        xs: &[Matrix<Complex64>],
        k: &Matrix<Complex64>,
    ) -> Result<Vec<Matrix<Complex64>>> {
        let job = |x: &Matrix<Complex64>| KernelJob::Hadamard { elems: x.len() };
        launches(self, xs, job, |group| {
            group.iter().map(|x| ops::hadamard(x, k)).collect()
        })
    }
    fn sub_batch(&self, y: &Matrix<f64>, preds: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        let job = |p: &Matrix<f64>| KernelJob::Sub { elems: p.len() };
        launches(self, preds, job, |group| {
            group.iter().map(|p| ops::sub(y, p)).collect()
        })
    }
    /// One score lane per rectangle over the request's borrowed operands
    /// (`filter_diff::operands`): over the host pool, or one after
    /// another on this thread where the platform scores on the caller;
    /// then one charge of [`KernelJob::Score`] lanes.
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
        let request = filter_diff::operands(x, y, rects, kernel);
        let scores = if self.scores_on_caller() {
            let ws = &mut Vec::new();
            let lanes = rects.iter().map(|rect| request.score(rect, ws));
            lanes.collect::<Result<_>>()?
        } else {
            filter_diff::scores(&request, rects)?
        };
        let (rows, cols) = x.shape();
        self.charge_launch(KernelJob::Score { rows, cols }, rects.len())?;
        Ok(scores)
    }
    /// Solved once on the calling thread and the host pool
    /// ([`distill::distill_spectrum`]), then charged as the staged body's
    /// kernels, one by one in its order.
    fn distill_spectrum(
        &self,
        pairs: &[(Matrix<f64>, Matrix<f64>)],
        strategy: SolveStrategy,
    ) -> Result<Matrix<Complex64>> {
        let spectrum = distill::distill_spectrum(pairs, strategy)?;
        for job in distill::staged_jobs(spectrum.shape(), pairs.len(), strategy) {
            self.charge_kernel(job)?;
        }
        Ok(spectrum)
    }
    fn charge_workload(&self, flops: f64, bytes: f64) {
        Platform::charge_workload(self, flops, bytes);
    }
    fn queue_depth(&self) -> usize {
        Platform::queue_depth(self)
    }
    fn healthy_fraction(&self) -> f64 {
        Platform::healthy_fraction(self)
    }
    fn elapsed_seconds(&self) -> f64 {
        Platform::elapsed_seconds(self)
    }
    fn stats(&self) -> KernelStats {
        Platform::stats(self)
    }
    fn reset(&self) {
        Platform::reset(self);
    }
}
