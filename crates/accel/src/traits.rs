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

use crate::distill::{self, SolveStrategy};
use crate::filter_diff::PreparedKernel;
use crate::stats::KernelStats;
use std::ops::Range;
use xai_tensor::ops::DivPolicy;
use xai_tensor::{Complex64, Matrix, Result, TensorError};

/// A rectangle of matrix elements, `(rows, cols)`: what one occlusion
/// zeroes.
pub type Rect = (Range<usize>, Range<usize>);

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

    /// The serving chain of §III-D: for every occluded input `xᵢ`,
    /// computes `y − re(ifft2(fft2(xᵢ) ∘ filter))` — forward transform,
    /// spectral filter, inverse transform and the Equation-5 difference
    /// — as the four batched kernels, staged. This is the reference the
    /// interpretation phase's scores are held to
    /// ([`Accelerator::contribution_scores`]); it keeps each stage's
    /// charges, and a malformed batch fails with the first stage's
    /// error after the charges of the stages before it.
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
        let spectra = self.fft2d_batch(xs)?;
        let filtered = self.hadamard_batch(&spectra, filter)?;
        let preds: Vec<Matrix<f64>> = self
            .ifft2d_batch(&filtered)?
            .into_iter()
            .map(|p| p.to_real())
            .collect();
        self.sub_batch(y, &preds)
    }

    /// Contribution scores (Equation 5): for every rectangle `r` of
    /// `rects`, `‖y − x′ᵣ ∗ k‖_F`, where `x′ᵣ` is `x` with `r` zeroed and
    /// `kernel` is `k` prepared from its spectrum — what the
    /// interpretation phase keeps of a filter-diff batch.
    ///
    /// The default is the reference: occlude `x` once per rectangle,
    /// lift the copies to complex, run [`Accelerator::filter_diff_batch`]
    /// with [`PreparedKernel::spectrum`] and take each difference's
    /// Frobenius norm. An override may compute the scores any other way
    /// but keeps, on the same operands, the default's charges (clock and
    /// [`Accelerator::stats`]) or states its own schedule, refuses what
    /// the default refuses before anything is charged, and keeps every
    /// score within `2 · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)` of the
    /// default's. The built-in platforms run one score lane per
    /// rectangle over the request's borrowed operands: in the spectrum (no
    /// occluded image, no inverse transform, no difference) when `x` has
    /// an even row count and no NaN or ±inf element — one an occlusion
    /// could have *removed* — and otherwise the default's complex
    /// sequence on the occlusion, bit for bit. In the spectrum a
    /// rectangle is scored on a torus of its own — per side the power of
    /// two at least twice its extent — when that has fewer cells than
    /// `x` (a 32 × 32 block of a 128 × 128 image: 64 × 64), unless a
    /// cancellation guard sends it to the full-size transform; see
    /// ARCHITECTURE.md, "Interpretation-phase numerics". What that reads
    /// of the kernel alone is built once per [`PreparedKernel`] and
    /// shared by every request scored with it (and its clones), with the
    /// bits of a kernel prepared per request.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] when a rectangle does not lie
    /// inside `x`, or when `y` or the kernel does not have `x`'s shape;
    /// an empty `rects` is `Ok(vec![])` whatever the operands.
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
        let lanes: Vec<_> = rects
            .iter()
            .map(|r| occluded(x, r).map(|lane| lane.to_complex()))
            .collect::<Result<_>>()?;
        let diffs = self.filter_diff_batch(&lanes, kernel.spectrum(), y)?;
        Ok(diffs.iter().map(Matrix::frobenius_norm).collect())
    }

    /// The distilled kernel's spectrum `F(K)` (Equation 4) solved by
    /// `strategy` from `(X, Y)` pairs — the interpretation phase's fit.
    ///
    /// The default is the staged body: per pair, two
    /// [`Accelerator::fft2d`], then an [`Accelerator::pointwise_div`]
    /// (naive) or two [`Accelerator::hadamard`] (Wiener), and the Wiener
    /// division last. An override keeps the default's bits and charges on
    /// a fit that succeeds. The built-in platforms solve once on the host
    /// ([`distill_spectrum`](crate::distill_spectrum)), then charge the
    /// default's kernels in its order, so a fit that fails charges
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`distill_spectrum`](crate::distill_spectrum).
    fn distill_spectrum(
        &self,
        pairs: &[(Matrix<f64>, Matrix<f64>)],
        strategy: SolveStrategy,
    ) -> Result<Matrix<Complex64>> {
        distill::staged(self, pairs, strategy)
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

/// `Ok` when `rect` lies inside a `rows × cols` matrix, else the
/// [`TensorError::ShapeMismatch`] that names it `op`.
pub(crate) fn fit_rect((rows, cols): (usize, usize), rect: &Rect, op: &'static str) -> Result<()> {
    let fits = |r: &Range<usize>, len| r.start <= r.end && r.end <= len;
    if fits(&rect.0, rows) && fits(&rect.1, cols) {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch {
        left: (rect.0.end, rect.1.end),
        right: (rows, cols),
        op,
    })
}

/// What every [`Accelerator::contribution_scores`] refuses before
/// anything is charged: a rectangle that does not lie inside `x`, and a
/// `y` or kernel not of `x`'s shape.
pub(crate) fn check_request(
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &PreparedKernel,
) -> Result<()> {
    let shape = x.shape();
    for rect in rects {
        fit_rect(shape, rect, "occluded rectangle")?;
    }
    for (operand, op) in [
        (y.shape(), "observed output"),
        (kernel.spectrum().shape(), "kernel"),
    ] {
        if operand != shape {
            return Err(TensorError::ShapeMismatch {
                left: operand,
                right: shape,
                op,
            });
        }
    }
    Ok(())
}

/// `x` with the rectangle `rect` zeroed — the `X′` of Equation 5, and
/// the lane the default [`Accelerator::contribution_scores`] builds
/// per rectangle.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] when `rect` does not lie inside `x`.
pub fn occluded(x: &Matrix<f64>, rect: &Rect) -> Result<Matrix<f64>> {
    fit_rect(x.shape(), rect, "occluded rectangle")?;
    let mut out = x.clone();
    for r in rect.0.clone() {
        out.row_mut(r)[rect.1.clone()].fill(0.0);
    }
    Ok(out)
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
