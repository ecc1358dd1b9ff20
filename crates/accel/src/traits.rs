//! The [`Accelerator`] abstraction: one trait, three hardware models.
//!
//! The paper's evaluation (§IV-A) runs the identical algorithm —
//! data decomposition plus parallel computation — on three hardware
//! configurations (CPU baseline, GPU state-of-practice, TPU
//! proposed). This trait is that experiment harness: the explanation
//! pipeline in `xai-core` is written once against `dyn Accelerator`
//! and timed on each implementation.
//!
//! Kernel methods take `&self` and the trait requires `Send + Sync`:
//! an accelerator is a *device handle*, shareable across worker
//! threads as `Arc<dyn Accelerator>`. Simulated-time accounting lives
//! behind interior mutability (see [`crate::Clock`]); numeric results
//! are pure functions of the inputs, so concurrent and serial
//! execution produce bit-identical values.

use crate::filter_diff::PreparedKernel;
use crate::stats::KernelStats;
use xai_tensor::ops::DivPolicy;
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::Rect;

/// A hardware platform that executes the pipeline's kernels and
/// accounts simulated time for them.
///
/// Implementations compute *real* numeric results (tests compare them
/// across platforms) while advancing an internal simulated clock
/// according to their hardware cost model. All methods take `&self`:
/// implementations keep their clocks behind interior mutability so a
/// single device can serve many threads concurrently.
///
/// # Examples
///
/// One shared device handle, driven from several worker threads —
/// numeric results are bit-identical to serial execution while the
/// clock accumulates every worker's kernels:
///
/// ```
/// use std::sync::Arc;
/// use xai_accel::{Accelerator, TpuAccel};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let acc: Arc<dyn Accelerator> = Arc::new(TpuAccel::with_cores(4));
/// let x = Matrix::from_fn(8, 8, |r, c| (r + c) as f64)?.to_complex();
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let acc = Arc::clone(&acc);
///         let x = x.clone();
///         scope.spawn(move || acc.fft2d(&x).unwrap());
///     }
/// });
/// assert_eq!(acc.stats().kernels, 4);
/// assert!(acc.elapsed_seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
pub trait Accelerator: Send + Sync {
    /// Human-readable platform name (e.g. `"TPU (simulated v2)"`).
    fn name(&self) -> String;

    /// Real matrix product.
    ///
    /// # Errors
    ///
    /// Shape mismatch of the inner dimensions.
    fn matmul(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>>;

    /// Forward 2-D DFT (backward normalisation).
    ///
    /// # Errors
    ///
    /// Construction errors only; the input is any non-empty matrix.
    fn fft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>>;

    /// Inverse 2-D DFT (backward normalisation: scales by `1/(MN)`).
    ///
    /// # Errors
    ///
    /// Construction errors only.
    fn ifft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>>;

    /// Elementwise complex product (Equation 3 of the paper).
    ///
    /// # Errors
    ///
    /// Shape mismatch.
    fn hadamard(&self, a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> Result<Matrix<Complex64>>;

    /// Elementwise complex division (Equation 4).
    ///
    /// # Errors
    ///
    /// Shape mismatch; division by zero under [`DivPolicy::Strict`].
    fn pointwise_div(
        &self,
        a: &Matrix<Complex64>,
        b: &Matrix<Complex64>,
        policy: DivPolicy,
    ) -> Result<Matrix<Complex64>>;

    /// Elementwise real subtraction (the contribution-factor
    /// difference of Equation 5).
    ///
    /// # Errors
    ///
    /// Shape mismatch.
    fn sub(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>>;

    /// Batched forward 2-D DFTs — the paper's §III-D multi-input
    /// parallelism. The default implementation loops; platform models
    /// override it to amortise dispatch (GPU) or to spread inputs
    /// across cores (TPU).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::fft2d`].
    fn fft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        xs.iter().map(|x| self.fft2d(x)).collect()
    }

    /// Batched inverse 2-D DFTs (see [`Accelerator::fft2d_batch`]).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::ifft2d`].
    fn ifft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        xs.iter().map(|x| self.ifft2d(x)).collect()
    }

    /// Batched Hadamard products of many spectra with one shared
    /// kernel spectrum (the distilled `F(K)`).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::hadamard`].
    fn hadamard_batch(
        &self,
        xs: &[Matrix<Complex64>],
        k: &Matrix<Complex64>,
    ) -> Result<Vec<Matrix<Complex64>>> {
        xs.iter().map(|x| self.hadamard(x, k)).collect()
    }

    /// Batched differences `y - predᵢ` (Equation 5's perturbation
    /// deltas for a whole region batch).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::sub`].
    fn sub_batch(&self, y: &Matrix<f64>, preds: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        preds.iter().map(|p| self.sub(y, p)).collect()
    }

    /// The fused serving chain of §III-D: for every occluded input
    /// `xᵢ`, computes `y − re(ifft2(fft2(xᵢ) ∘ filter))` — forward
    /// transform, spectral filter, inverse transform and the
    /// Equation-5 difference — as one batched submission.
    ///
    /// The default implementation stages the four batched kernels and
    /// is the reference. An override may compute the stages any way it
    /// likes (the built-in platforms fuse them per lane) but keeps the
    /// staged chain's result bits, leaves the clock and
    /// [`Accelerator::stats`] where the staged kernels' charge
    /// sequence would, and fails a malformed batch with the staged
    /// chain's error and partial charges. A coalescing queue (the
    /// TPU's fused flight: one submission, one result gather) keeps
    /// the bits and states its own schedule and per-lane errors.
    ///
    /// One stated exception to "keeps the bits": on a *real* lane
    /// (every imaginary part `== 0.0`, an even row count) the built-in
    /// platforms run a real-input transform and may differ from this
    /// staged default within
    /// `2 · ε · log₂(2mn) · (‖filter‖_max ‖x‖_F + ‖y‖_F)` (Frobenius) —
    /// identically on every platform and route; see ARCHITECTURE.md,
    /// "Interpretation-phase numerics".
    ///
    /// # Errors
    ///
    /// As the staged kernels: shape mismatch between `xs`, `filter`
    /// and `y`.
    fn filter_diff_batch(
        &self,
        xs: &[Matrix<Complex64>],
        filter: &Matrix<Complex64>,
        y: &Matrix<f64>,
    ) -> Result<Vec<Matrix<f64>>> {
        staged_filter_diff(self, xs, filter, y)
    }

    /// [`Accelerator::filter_diff_batch`] for *real* inputs — every
    /// occluded image or trace — lent by value: the results, errors and
    /// charges of lifting each `xᵢ` to complex and calling that method,
    /// which is what the default does. On the built-in platforms the two
    /// entries are one routine and this one makes no copy: a lane's own
    /// buffer comes back as its result (ARCHITECTURE.md, "Ownership").
    ///
    /// # Errors
    ///
    /// As [`Accelerator::filter_diff_batch`].
    fn filter_diff_real_batch(
        &self,
        xs: Vec<Matrix<f64>>,
        filter: &Matrix<Complex64>,
        y: &Matrix<f64>,
    ) -> Result<Vec<Matrix<f64>>> {
        let lifted: Vec<_> = xs.iter().map(Matrix::to_complex).collect();
        self.filter_diff_batch(&lifted, filter, y)
    }

    /// Contribution scores (Equation 5): for every rectangle `r` of
    /// `rects`, `‖y − x′ᵣ ∗ k‖_F`, where `x′ᵣ` is `x` with `r` zeroed and
    /// `kernel` is `k` prepared from its spectrum — what the
    /// interpretation phase keeps of a filter-diff batch.
    ///
    /// The default is the reference: occlude `x` once per rectangle,
    /// lend the copies to [`Accelerator::filter_diff_real_batch`] with
    /// [`PreparedKernel::spectrum`], take each difference's Frobenius
    /// norm. An override may compute the scores any other way but keeps,
    /// on the same operands, the default's charges (clock and
    /// [`Accelerator::stats`]), its error for every batch it rejects —
    /// before anything is submitted or charged when a rectangle leaves
    /// `x` — and every score within
    /// `2 · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)` of the default's.
    /// The built-in platforms take the norm in the spectrum (no occluded
    /// image, no inverse transform, no difference) whenever `x` has an
    /// even row count, `y` and the kernel its shape, and no NaN or ±inf
    /// element — one an occlusion could have *removed* — and run this
    /// default otherwise. In the spectrum a rectangle is scored on a
    /// torus of its own — per side the power of two at least twice its
    /// extent — when that has fewer cells than `x` (a 32 × 32 block of a
    /// 128 × 128 image: 64 × 64), unless a cancellation guard sends it to
    /// the full-size transform; see ARCHITECTURE.md, "Interpretation-phase
    /// numerics". What that reads of the kernel alone is built once per
    /// [`PreparedKernel`] and shared by every request scored with it
    /// (and its clones), with the bits of a kernel prepared per request.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when a rectangle does not lie
    /// inside `x`; otherwise as [`Accelerator::filter_diff_real_batch`].
    fn contribution_scores(
        &self,
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        rects: &[Rect],
        kernel: &PreparedKernel,
    ) -> Result<Vec<f64>> {
        lane_scores(self, x, y, rects, kernel.spectrum())
    }

    /// Advances the clock for an externally-described workload of
    /// `flops` arithmetic and `bytes` traffic (roofline charge). Used
    /// by the NN substrate to time training/inference of networks
    /// whose layers run outside this trait.
    fn charge_workload(&self, flops: f64, bytes: f64);

    /// Lanes currently enqueued but not yet dispatched on this
    /// accelerator's coalescing queue, if it has one.
    ///
    /// A serving layer reads this as its backpressure signal: a deep
    /// queue means admitted work is still waiting for a flight, so new
    /// arrivals should be shed early rather than queued behind it.
    /// Accelerators without a batching queue report `0` (nothing ever
    /// waits).
    fn queue_depth(&self) -> usize {
        0
    }

    /// Fraction of this accelerator's execution capacity currently
    /// healthy, in `(0, 1]`.
    ///
    /// A multi-chip backend with quarantined or fail-stopped chips
    /// reports the surviving share; the serving layer multiplies its
    /// admission capacity by this so it sheds proactively against the
    /// shrunken pool instead of queueing work the fleet can no longer
    /// absorb. Accelerators without fault domains are always whole.
    fn healthy_fraction(&self) -> f64 {
        1.0
    }

    /// Simulated seconds elapsed since construction or reset.
    ///
    /// When the accelerator is shared across threads this is the
    /// device-wide total — every thread's kernels advance it.
    fn elapsed_seconds(&self) -> f64;

    /// Accumulated statistics.
    fn stats(&self) -> KernelStats;

    /// Zeroes the clock and statistics.
    fn reset(&self);
}

/// The default [`Accelerator::filter_diff_batch`]: a free function so
/// that an override can hand it the batches it does not fuse.
pub(crate) fn staged_filter_diff<A: Accelerator + ?Sized>(
    acc: &A,
    xs: &[Matrix<Complex64>],
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Vec<Matrix<f64>>> {
    let spectra = acc.fft2d_batch(xs)?;
    let filtered = acc.hadamard_batch(&spectra, filter)?;
    let preds: Vec<Matrix<f64>> = acc
        .ifft2d_batch(&filtered)?
        .into_iter()
        .map(|p| p.to_real())
        .collect();
    acc.sub_batch(y, &preds)
}

/// Whether `rect` lies inside a `rows × cols` matrix.
pub(crate) fn rect_fits((rows, cols): (usize, usize), rect: &Rect) -> bool {
    let fits = |r: &std::ops::Range<usize>, len| r.start <= r.end && r.end <= len;
    fits(&rect.0, rows) && fits(&rect.1, cols)
}

/// `x` with the rectangle `rect` zeroed — the `X′` of Equation 5, and
/// the lane the default [`Accelerator::contribution_scores`] builds
/// per rectangle.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] when `rect` does not lie inside `x`.
pub fn occluded(x: &Matrix<f64>, rect: &Rect) -> Result<Matrix<f64>> {
    if !rect_fits(x.shape(), rect) {
        return Err(TensorError::ShapeMismatch {
            left: (rect.0.end, rect.1.end),
            right: x.shape(),
            op: "occluded rectangle",
        });
    }
    let mut out = x.clone();
    for r in rect.0.clone() {
        out.row_mut(r)[rect.1.clone()].fill(0.0);
    }
    Ok(out)
}

/// The default [`Accelerator::contribution_scores`]: a free function so
/// that an override can hand it the requests it does not take in the
/// spectrum.
pub(crate) fn lane_scores<A: Accelerator + ?Sized>(
    acc: &A,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    filter: &Matrix<Complex64>,
) -> Result<Vec<f64>> {
    let lanes: Vec<_> = rects
        .iter()
        .map(|r| occluded(x, r))
        .collect::<Result<_>>()?;
    let diffs = acc.filter_diff_real_batch(lanes, filter, y)?;
    Ok(diffs.iter().map(Matrix::frobenius_norm).collect())
}

/// Times a closure on an accelerator, returning `(result, seconds)` —
/// the elapsed *simulated* time of exactly that region.
///
/// On a device shared across threads, the measured window also
/// includes any time other threads charge concurrently; time regions
/// meant to isolate one workload should run on an exclusively-held
/// device.
///
/// # Errors
///
/// Propagates the closure's error.
///
/// # Examples
///
/// ```
/// use xai_accel::{time_region, Accelerator, CpuModel};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let cpu = CpuModel::i7_3700();
/// let a = Matrix::filled(32, 32, 1.0)?;
/// let (product, seconds) = time_region(&cpu, |acc| acc.matmul(&a, &a))?;
/// assert_eq!(product[(0, 0)], 32.0);
/// assert!(seconds > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn time_region<A: Accelerator + ?Sized, R>(
    acc: &A,
    f: impl FnOnce(&A) -> Result<R>,
) -> Result<(R, f64)> {
    let before = acc.elapsed_seconds();
    let value = f(acc)?;
    Ok((value, acc.elapsed_seconds() - before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CpuModel;
    use crate::tpu_accel::TpuAccel;
    use std::sync::Arc;

    #[test]
    fn trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Accelerator>();
        assert_send_sync::<CpuModel>();
        assert_send_sync::<TpuAccel>();
    }

    #[test]
    fn arc_dyn_accelerator_usable_from_threads() {
        let acc: Arc<dyn Accelerator> = Arc::new(CpuModel::i7_3700());
        let a = Matrix::filled(8, 8, 1.0).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let acc = Arc::clone(&acc);
                let a = a.clone();
                scope.spawn(move || {
                    let out = acc.matmul(&a, &a).unwrap();
                    assert_eq!(out[(0, 0)], 8.0);
                });
            }
        });
        assert_eq!(acc.stats().kernels, 4);
    }
}
