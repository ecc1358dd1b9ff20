//! [`Platform`], the seam a piece of hardware plugs into, and the one
//! kernel body every platform gets.
//!
//! The paper's evaluation (§IV-A) runs one algorithm on three
//! platforms, and "timing is simulated, compute is real": the platforms
//! differ only in what they charge. So every [`Accelerator`] kernel is
//! written once here, generically over [`Platform`] — the few things a
//! platform decides: its matmul arithmetic, how many lanes of a batch
//! one launch carries, and the charge of one kernel and of one launch,
//! as shapes ([`KernelJob`]). [`HostModel`](crate::HostModel) and
//! [`TpuAccel`](crate::TpuAccel) are platforms, and so is any type of
//! another crate that implements the trait: it states a cost model, and
//! it gets the built-ins' bits.
//!
//! Each kernel runs its numerics on the calling thread (the transforms
//! and contribution scores over the host pool, bit-identical to serial
//! execution), then charges; a kernel whose numerics fail charges
//! nothing. A batch does so once per launch: the CPU keeps the charges
//! of the lanes before a malformed one, the GPU and the TPU charge one
//! launch or nothing.

use crate::distill::{self, Interpretation, SolveStrategy};
use crate::filter_diff::{self, Operands, PreparedKernel};
use crate::stats::KernelStats;
use crate::traits::{check_request, fit_rect, Accelerator, Rect};
use xai_fourier::global_plan_cache;
use xai_tensor::ops::{self, DivPolicy};
use xai_tensor::{Complex64, Matrix, Result};
use xai_tpu::KernelJob;

/// A piece of hardware as its cost model: what it charges for each
/// kernel, and nothing of the kernel's numerics. Every `Platform` is an
/// [`Accelerator`] — one kernel body for all of them — so a new
/// platform computes the built-ins' bits and differs from them only in
/// its simulated clock and ledger.
///
/// The methods without a default are the name, the matmul arithmetic,
/// the launch width, the charge of one launch and the ledger
/// (`charge_workload`, `elapsed_seconds`, `stats`, `reset`). A method
/// that shares its name with an [`Accelerator`] method is what that
/// method returns; so in a module that has both traits in scope, call
/// it through `dyn Accelerator` or as `Accelerator::stats(&p)`, since
/// `p.stats()` on a concrete platform is ambiguous (E0034).
///
/// # Examples
///
/// A 1 TFLOP/s, 100 GB/s part that launches a kernel per lane and
/// charges a request's score lanes as the staged chain:
///
/// ```
/// use xai_accel::{charge_staged_chain, Accelerator, Clock, CpuModel, KernelStats, Platform};
/// use xai_tensor::{ops, Matrix, Result};
/// use xai_tpu::KernelJob;
///
/// #[derive(Default)]
/// struct Part {
///     clock: Clock,
/// }
///
/// impl Part {
///     fn charge(&self, flops: f64, bytes: f64) {
///         self.clock.record((flops / 1e12).max(bytes / 1e11), flops, bytes);
///     }
/// }
///
/// impl Platform for Part {
///     fn name(&self) -> String {
///         "part".to_string()
///     }
///     fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
///         ops::matmul_blocked(a, b, ops::DEFAULT_BLOCK)
///     }
///     fn lanes_per_launch(&self, _: usize) -> usize {
///         1
///     }
///     fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()> {
///         let elems = match job {
///             KernelJob::Score { rows, cols } => return charge_staged_chain(self, rows, cols, lanes),
///             KernelJob::Transform { rows, cols } => rows * cols,
///             KernelJob::Hadamard { elems }
///             | KernelJob::PointwiseDiv { elems }
///             | KernelJob::Sub { elems } => elems,
///             KernelJob::Matmul { m, k, n } => m * k * n,
///         };
///         let elems = (elems * lanes) as f64;
///         self.charge(8.0 * elems, 16.0 * elems);
///         Ok(())
///     }
///     fn charge_workload(&self, flops: f64, bytes: f64) {
///         self.charge(flops, bytes);
///     }
///     fn elapsed_seconds(&self) -> f64 {
///         self.clock.seconds()
///     }
///     fn stats(&self) -> KernelStats {
///         self.clock.stats()
///     }
///     fn reset(&self) {
///         self.clock.reset();
///     }
/// }
///
/// # fn main() -> Result<()> {
/// let x = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64)?.to_complex();
/// let part: Box<dyn Accelerator> = Box::new(Part::default());
/// assert_eq!(part.fft2d(&x)?, CpuModel::i7_3700().fft2d(&x)?);
/// assert_eq!(part.stats().kernels, 1);
/// # Ok(())
/// # }
/// ```
pub trait Platform: Send + Sync {
    /// Human-readable platform name ([`Accelerator::name`]).
    fn name(&self) -> String;

    /// The arithmetic of [`Accelerator::matmul`]: the platform's
    /// precision hook (the TPU's is int8, as §II-A prescribes).
    ///
    /// # Errors
    ///
    /// Shape mismatch of the inner dimensions.
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>>;

    /// How many of a batch's `n` lanes one launch carries: `1` launches
    /// a kernel per lane, `n` one launch per batch. `0` is read as `1`.
    fn lanes_per_launch(&self, n: usize) -> usize;

    /// Charges one single kernel; by default, a launch of one lane.
    ///
    /// # Errors
    ///
    /// A charge the platform cannot pay (the TPU's: a fault budget
    /// exhausted, a failed flight); the kernel's result is then lost.
    fn charge_kernel(&self, job: KernelJob) -> Result<()> {
        self.charge_launch(job, 1)
    }

    /// Charges one batched launch of `lanes` lanes of `job`; for
    /// [`KernelJob::Score`], the lanes of one request — which unqueued
    /// platforms charge as the staged chain ([`charge_staged_chain`]).
    ///
    /// # Errors
    ///
    /// As [`Platform::charge_kernel`].
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()>;

    /// `true` when a request's score lanes run one after another on the
    /// calling thread instead of over the host pool.
    fn scores_on_caller(&self) -> bool {
        false
    }

    /// [`Accelerator::charge_workload`].
    fn charge_workload(&self, flops: f64, bytes: f64);

    /// [`Accelerator::queue_depth`]; `0` for a platform without a
    /// coalescing queue.
    fn queue_depth(&self) -> usize {
        0
    }

    /// [`Accelerator::healthy_fraction`]; `1.0` for a platform without
    /// fault domains.
    fn healthy_fraction(&self) -> f64 {
        1.0
    }

    /// [`Accelerator::elapsed_seconds`].
    fn elapsed_seconds(&self) -> f64;

    /// [`Accelerator::stats`].
    fn stats(&self) -> KernelStats;

    /// [`Accelerator::reset`].
    fn reset(&self);
}

/// How many of `n` lanes one of `p`'s launches carries: at least one.
fn launch_width(p: &impl Platform, n: usize) -> usize {
    p.lanes_per_launch(n).max(1)
}

/// The staged filter-diff chain's charges for `lanes` lanes of
/// `rows × cols` — forward transform, Hadamard, inverse transform,
/// difference — stage-major at `p`'s launches (the order is part of the
/// clock's bits): what an unqueued request's score lanes pay, and what a
/// platform's [`Platform::charge_launch`] of [`KernelJob::Score`] lanes
/// calls to charge them so.
///
/// # Errors
///
/// The first launch that `p` cannot charge; the launches before it stay
/// charged.
pub fn charge_staged_chain(
    p: &impl Platform,
    rows: usize,
    cols: usize,
    lanes: usize,
) -> Result<()> {
    let per_launch = launch_width(p, lanes);
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
    for group in lanes.chunks(launch_width(p, lanes.len())) {
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

/// The scores of a request's lanes: one after another on the calling
/// thread where `p` scores on the caller, else over the host pool
/// ([`filter_diff::pooled`]).
fn score_lanes(p: &impl Platform, request: &Operands<'_>, rects: &[Rect]) -> Result<Vec<f64>> {
    if !p.scores_on_caller() {
        return filter_diff::pooled(request, rects);
    }
    let ws = &mut Vec::new();
    rects.iter().map(|rect| request.score(rect, ws)).collect()
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
    /// The four batched kernels, staged.
    fn filter_diff_batch(
        &self,
        xs: &[Matrix<Complex64>],
        filter: &Matrix<Complex64>,
        y: &Matrix<f64>,
    ) -> Result<Vec<Matrix<f64>>> {
        let spectra = self.fft2d_batch(xs)?;
        let filtered = self.hadamard_batch(&spectra, filter)?;
        let preds: Vec<Matrix<f64>> = self
            .ifft2d_batch(&filtered)?
            .into_iter()
            .map(|p| p.to_real())
            .collect();
        self.sub_batch(y, &preds)
    }
    /// The host entry ([`scores`](crate::scores)), or on a platform that
    /// scores on the caller one lane after another over the request's
    /// borrowed operands (`filter_diff::operands`, `score_lanes`); then
    /// one charge of [`KernelJob::Score`] lanes.
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
        let scores = if self.scores_on_caller() {
            check_request(x, y, rects, kernel)?;
            let request = filter_diff::operands(x, y, rects, kernel, None);
            score_lanes(self, &request, rects)?
        } else {
            filter_diff::scores(x, y, rects, kernel)?
        };
        let (rows, cols) = x.shape();
        self.charge_launch(KernelJob::Score { rows, cols }, rects.len())?;
        Ok(scores)
    }
    /// Fitted once on the calling thread and the host pool
    /// (`distill::fit`), keeping each pair's half spectra when there
    /// are rectangles to score; each pair's request is then scored as
    /// [`Accelerator::contribution_scores`] scores it, from those spectra.
    /// Only then is anything charged: the staged body's kernels one by
    /// one in its order and the kernel's inverse transform, and — once a
    /// rectangle outside `x` has been refused — each pair's
    /// [`KernelJob::Score`] lanes.
    fn interpret(
        &self,
        pairs: &[(Matrix<f64>, Matrix<f64>)],
        strategy: SolveStrategy,
        rects: &[Rect],
    ) -> Result<Interpretation> {
        let shape = pairs.first().map(|(x, _)| x.shape());
        let outside = |rect| fit_rect(shape?, rect, "occluded rectangle").err();
        let refused = rects.iter().find_map(outside);
        let scored = if refused.is_none() { rects } else { &[] };
        let fit = distill::fit(pairs, strategy, !scored.is_empty())?;
        // Every pair's residual at once, so that only one of the `X̂`
        // buffers outlives it, as the working space each request's `c`
        // is formed in.
        let (mut residuals, mut work) = (Vec::with_capacity(fit.spectra.len()), None);
        for pair in fit.spectra {
            let (r, spare) = filter_diff::residual(&fit.prepared, pair);
            work.get_or_insert(spare);
            residuals.push(r);
        }
        let mut residuals = residuals.into_iter();
        let scores = pairs.iter().map(|(x, y)| {
            if scored.is_empty() {
                return Ok(Vec::new());
            }
            let residual = residuals.next().zip(work.as_mut());
            let request = filter_diff::operands(x, y, scored, &fit.prepared, residual);
            score_lanes(self, &request, scored)
        });
        let scores = scores.collect::<Result<Vec<_>>>()?;
        let (rows, cols) = fit.kernel.shape();
        let inverse = KernelJob::Transform { rows, cols };
        for job in distill::staged_jobs((rows, cols), pairs.len(), strategy) {
            self.charge_kernel(job)?;
        }
        self.charge_kernel(inverse)?;
        let fitted_at = Platform::elapsed_seconds(self);
        if let Some(error) = refused {
            return Err(error);
        }
        if !scored.is_empty() {
            for _ in pairs {
                self.charge_launch(KernelJob::Score { rows, cols }, scored.len())?;
            }
        }
        Ok(Interpretation {
            kernel: fit.kernel,
            prepared: fit.prepared,
            scores,
            fitted_at,
        })
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
