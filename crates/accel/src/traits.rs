//! The [`Accelerator`] abstraction: one trait, three hardware models.
//!
//! The paper's evaluation (§IV-A) runs the identical algorithm —
//! data decomposition plus parallel computation — on three hardware
//! configurations (CPU baseline, GPU state-of-practice, TPU
//! proposed). This trait is that experiment harness: the explanation
//! pipeline in `xai-core` is written once against `dyn Accelerator`
//! and timed on each implementation.
//!
//! "Timing is simulated, compute is real", so the platforms differ
//! only in what they charge. The trait is sealed: its one
//! implementation is the kernel body every [`Platform`] gets, and a
//! new piece of hardware is added by implementing [`Platform`] — its
//! charges — never by writing numerics.
//!
//! Kernel methods take `&self` and the trait requires `Send + Sync`:
//! an accelerator is a *device handle*, shareable across worker
//! threads as `Arc<dyn Accelerator>`. Simulated-time accounting lives
//! behind interior mutability (see [`crate::Clock`]); numeric results
//! are pure functions of the inputs, so concurrent and serial
//! execution produce bit-identical values.

use crate::distill::{Interpretation, SolveStrategy};
use crate::filter_diff::PreparedKernel;
use crate::platform::Platform;
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
/// Every accelerator runs the same kernel bodies for *real* on the
/// host — only the matmul arithmetic is its platform's
/// ([`Platform::product`]) — while advancing its simulated clock by its
/// platform's cost model: the trait is implemented once, for every
/// [`Platform`], and sealed. All methods take `&self`: a platform keeps its clock behind
/// interior mutability so a single device can serve many threads
/// concurrently.
///
/// A type of another crate becomes an accelerator by implementing
/// [`Platform`]; implementing `Accelerator` itself is refused:
///
/// ```compile_fail
/// use xai_accel::{Accelerator, Interpretation, KernelStats, PreparedKernel, Rect, SolveStrategy};
/// use xai_tensor::ops::DivPolicy;
/// use xai_tensor::{Complex64, Matrix, Result};
///
/// struct Npu;
///
/// impl Accelerator for Npu {
/// #   fn name(&self) -> String { unimplemented!() }
/// #   fn matmul(&self, _: &Matrix<f64>, _: &Matrix<f64>) -> Result<Matrix<f64>> { unimplemented!() }
/// #   fn fft2d(&self, _: &Matrix<Complex64>) -> Result<Matrix<Complex64>> { unimplemented!() }
/// #   fn ifft2d(&self, _: &Matrix<Complex64>) -> Result<Matrix<Complex64>> { unimplemented!() }
/// #   fn hadamard(&self, _: &Matrix<Complex64>, _: &Matrix<Complex64>) -> Result<Matrix<Complex64>> { unimplemented!() }
/// #   fn pointwise_div(&self, _: &Matrix<Complex64>, _: &Matrix<Complex64>, _: DivPolicy) -> Result<Matrix<Complex64>> { unimplemented!() }
/// #   fn sub(&self, _: &Matrix<f64>, _: &Matrix<f64>) -> Result<Matrix<f64>> { unimplemented!() }
/// #   fn fft2d_batch(&self, _: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> { unimplemented!() }
/// #   fn ifft2d_batch(&self, _: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> { unimplemented!() }
/// #   fn hadamard_batch(&self, _: &[Matrix<Complex64>], _: &Matrix<Complex64>) -> Result<Vec<Matrix<Complex64>>> { unimplemented!() }
/// #   fn sub_batch(&self, _: &Matrix<f64>, _: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> { unimplemented!() }
/// #   fn filter_diff_batch(&self, _: &[Matrix<Complex64>], _: &Matrix<Complex64>, _: &Matrix<f64>) -> Result<Vec<Matrix<f64>>> { unimplemented!() }
/// #   fn contribution_scores(&self, _: &Matrix<f64>, _: &Matrix<f64>, _: &[Rect], _: &PreparedKernel) -> Result<Vec<f64>> { unimplemented!() }
/// #   fn interpret(&self, _: &[(Matrix<f64>, Matrix<f64>)], _: SolveStrategy, _: &[Rect]) -> Result<Interpretation> { unimplemented!() }
/// #   fn charge_workload(&self, _: f64, _: f64) {}
/// #   fn queue_depth(&self) -> usize { 0 }
/// #   fn healthy_fraction(&self) -> f64 { 1.0 }
/// #   fn elapsed_seconds(&self) -> f64 { 0.0 }
/// #   fn stats(&self) -> KernelStats { KernelStats::default() }
/// #   fn reset(&self) {}
///     // … every kernel written by hand …
/// }
/// ```
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
pub trait Accelerator: sealed::Sealed + Send + Sync {
    /// Human-readable platform name (e.g. `"TPU (simulated v2)"`).
    fn name(&self) -> String;

    /// Real matrix product, in the platform's arithmetic
    /// ([`Platform::product`]).
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
    /// parallelism: the bits of [`Accelerator::fft2d`] per input, charged
    /// as the platform's launches ([`Platform::lanes_per_launch`]), so a
    /// GPU amortises dispatch and a TPU spreads the inputs across cores.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::fft2d`].
    fn fft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>>;

    /// Batched inverse 2-D DFTs (see [`Accelerator::fft2d_batch`]).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::ifft2d`].
    fn ifft2d_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>>;

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
    ) -> Result<Vec<Matrix<Complex64>>>;

    /// Batched differences `y - predᵢ` (Equation 5's perturbation
    /// deltas for a whole region batch).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::sub`].
    fn sub_batch(&self, y: &Matrix<f64>, preds: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>>;

    /// The serving chain of §III-D: for every occluded input `xᵢ`,
    /// computes `y − re(ifft2(fft2(xᵢ) ∘ filter))` — forward transform,
    /// spectral filter, inverse transform and the Equation-5 difference
    /// — as the four batched kernels, staged. This is the chain the
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
    ) -> Result<Vec<Matrix<f64>>>;

    /// Contribution scores (Equation 5): for every rectangle `r` of
    /// `rects`, `‖y − x′ᵣ ∗ k‖_F`, where `x′ᵣ` is `x` with `r` zeroed and
    /// `kernel` is `k` prepared from its spectrum — what the
    /// interpretation phase keeps of a filter-diff batch.
    ///
    /// The reference is the lane route, a composition of public calls:
    /// [`occluded`] once per rectangle, lifted to complex, through
    /// [`Accelerator::filter_diff_batch`] with
    /// [`PreparedKernel::spectrum`], and each difference's Frobenius
    /// norm. The scores run one score lane per rectangle over the
    /// request's borrowed operands: in the spectrum (no occluded image,
    /// no inverse transform, no difference) when `x` has an even row
    /// count and no NaN or ±inf element — one an occlusion could have
    /// *removed* — within `2 · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)`
    /// of the reference, and otherwise the reference's complex sequence
    /// on the occlusion, bit for bit. In the spectrum a rectangle is
    /// scored on a torus of its own — per side the power of two at least
    /// twice its extent — when that has fewer cells than `x` (a 32 × 32
    /// block of a 128 × 128 image: 64 × 64), unless a cancellation guard
    /// sends it to the full-size transform; see ARCHITECTURE.md,
    /// "Interpretation-phase numerics". What that reads of the kernel
    /// alone is built once per [`PreparedKernel`] and shared by every
    /// request scored with it (and its clones), with the bits of a
    /// kernel prepared per request. A request is refused before anything
    /// is charged, and otherwise charged as [`KernelJob::Score`](xai_tpu::KernelJob::Score) lanes —
    /// unqueued, the reference's staged chain
    /// ([`charge_staged_chain`](crate::charge_staged_chain)). The host
    /// entry [`scores`](crate::scores) returns the same bits with no
    /// clock.
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
    ) -> Result<Vec<f64>>;

    /// The interpretation phase on `pairs`: the distilled kernel `K`
    /// (Equation 4) solved by `strategy` and, for every pair, the
    /// contribution scores (Equation 5) of `rects` under it — with no
    /// rectangles, the fit alone.
    ///
    /// The reference is the composition of the staged fit and
    /// [`Accelerator::contribution_scores`] per pair. The staged fit is,
    /// per pair, two [`Accelerator::fft2d`], then an
    /// [`Accelerator::pointwise_div`] (naive) or two
    /// [`Accelerator::hadamard`] (Wiener), the Wiener division last, and
    /// one [`Accelerator::ifft2d`] for the kernel. The fit solves once on
    /// the host ([`distill`](crate::distill), the same bits), within a
    /// stated bound of the staged fit's (module `distill`'s numerics
    /// contract), and each pair's scores are that kernel's
    /// [`Accelerator::contribution_scores`], bit for bit, taken from the
    /// half spectra the fit already holds. Then it charges the staged
    /// fit's kernels in their order, reads the clock into
    /// [`Interpretation::fitted_at`], and charges each pair's score
    /// lanes: the composition's clock and ledger, bit for bit. A fit that
    /// fails charges nothing; a rectangle outside the pairs' shape is
    /// refused after the fit is charged, as the composition refuses it.
    ///
    /// # Errors
    ///
    /// As [`distill`](crate::distill), then
    /// [`TensorError::ShapeMismatch`] for a rectangle outside the pairs'
    /// shape.
    fn interpret(
        &self,
        pairs: &[(Matrix<f64>, Matrix<f64>)],
        strategy: SolveStrategy,
        rects: &[Rect],
    ) -> Result<Interpretation>;

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
    fn queue_depth(&self) -> usize;

    /// Fraction of this accelerator's execution capacity currently
    /// healthy, in `(0, 1]`.
    ///
    /// A multi-chip backend with quarantined or fail-stopped chips
    /// reports the surviving share; the serving layer multiplies its
    /// admission capacity by this so it sheds proactively against the
    /// shrunken pool instead of queueing work the fleet can no longer
    /// absorb. Accelerators without fault domains are always whole.
    fn healthy_fraction(&self) -> f64;

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

/// Seals [`Accelerator`]: its one implementation is the kernel body of
/// every [`Platform`].
mod sealed {
    /// Implemented for every [`Platform`](super::Platform) and nothing else.
    pub trait Sealed {}

    impl<P: super::Platform> Sealed for P {}
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
/// the lane the reference of [`Accelerator::contribution_scores`]
/// builds per rectangle.
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
