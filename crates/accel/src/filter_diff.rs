//! The fused filter-diff lane, `y − re(ifft2(fft2(x) ∘ filter))` — the
//! only place that sequence is written — and the score lane, its
//! Frobenius norm for an occluded `x`, taken in the spectrum. A queued
//! flight runs [`lane`] or a score lane (a [`Spectra`]'s
//! [`ScoreOperands::score`]) on each job; the built-in
//! platforms' unqueued batches run them over the host pool ([`fused`],
//! [`scores`]) and replay the staged chain's charges. Both filter-diff
//! entries of a built-in platform — real lanes by value, borrowed
//! complex ones ([`narrow`]) — and its contribution scores end here.
//!
//! A lane owns its input from submission to result ([`LaneInput`]) and
//! nothing copies it on the way. A real lane's `m × n` buffer is read
//! by the forward transform, overwritten by the inverse — `y − re`
//! taken row by row as it unpacks — and handed back: lane in, result
//! out. The half spectrum and scratch row it needs besides are one
//! `Vec` lent from lane to lane, per flight or per pool group of an
//! unqueued batch. A complex lane allocates its real result.
//!
//! A score lane owns nothing but its rectangle. What it reads is built
//! at three lifetimes:
//!
//! - **Per model** ([`PreparedKernel`], one handle the model owns): the
//!   filter spectrum, `K_h` (its Hermitian part on the kept columns),
//!   the kernel mean's share `μ = |K_h(0)|² / mn` and `‖filter‖_max` —
//!   O(mn), no transform, when the model is built — and, by the first
//!   request with a box smaller than the image (on its submitting
//!   thread, before its lanes run), the mean-free
//!   autocorrelation `ã` (one dense inverse) and then one `Â_L` per box
//!   shape (a window of `ã` and one box-sized forward), each in a cell
//!   of its own, kept for the model's lifetime.
//! - **Per request** ([`Spectra`], before anything is submitted): `x`,
//!   the residual half spectrum `R̂ = Ŷ − X̂ ∘ K_h` (two dense
//!   real-input forwards) and, when some box is smaller than the image,
//!   `‖r‖²`, the guard's scale `S` and `c = r ⋆ k_h` (one dense inverse).
//! - **Per lane** (the lent workspace): the rectangle's transform. A
//!   rectangle whose box — per side the power of two at least twice its
//!   extent ([`local_box`]) — has fewer cells than `x` is scored on that
//!   box alone ([`local_score`]): the block, copied to the box's origin,
//!   is transformed on the box and summed against the box's `Â_L`
//!   ([`Fft2d::weighted_energy`](xai_fourier::Fft2d::weighted_energy)),
//!   plus `‖r‖²` and a dot with `c` over the block. Any other rectangle,
//!   and one the cancellation guard (point 3) sends on, takes the
//!   full-size lane: `x` restricted to the rectangle is transformed into
//!   the workspace
//!   ([`Fft2d::forward_real_block`](xai_fourier::Fft2d::forward_real_block))
//!   and the lane returns `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`
//!   ([`Fft2d::residual_energy`](xai_fourier::Fft2d::residual_energy)).
//!
//! Neither builds an occluded image, an inverse transform per region or
//! a difference matrix. Every value built once per model is the same
//! arithmetic on the same operands as if it were built per request, so
//! where it was built cannot reach a score's bits.
//!
//! # Numerics contract
//!
//! A lane is *real* when every imaginary part of `x` is `== 0.0`, its
//! row count is even and `x`, `filter` and `y` share one shape — what
//! every occluded image or trace is. A real lane takes the real-input
//! transform pair ([`Fft2d::forward_real`](xai_fourier::Fft2d::forward_real):
//! half the butterflies) around the filter's Hermitian part
//! ([`Fft2d::hadamard_real`](xai_fourier::Fft2d::hadamard_real), an
//! identity for any filter); any other lane takes the complex sequence.
//! A *score* ([`Accelerator::contribution_scores`]) is taken in the
//! spectrum when its request could be sixteen real lanes — an even row
//! count, `y` and `filter` of `x`'s shape — and every element of `x` is
//! finite; any other request is scored lane by lane (occlude, the lanes
//! above, `frobenius_norm`: the trait default). Every choice is read
//! off the operands, never configured, and:
//!
//! 1. A lane's result is a pure function of `(x, filter, y)`, a score
//!    of `(x, y, filter, rectangle)`: bit-identical across direct /
//!    queued / pooled execution, flight composition, chip count,
//!    `XAI_THREADS`, retries, and whether the prepared kernel is fresh
//!    or shared with earlier requests. Within a request scored in the
//!    spectrum the route of a rectangle is a function of its extent and
//!    `x`'s shape alone: its box has fewer cells than `x` — block-local
//!    (then the guard of point 3 decides, on the same operands) — or not
//!    — the full-size lane; so the grid-4 blocks of a 128² or 16² image
//!    take 64² or 8² boxes, and a grid-2 block, or any block of an 8²
//!    image, the full-size lane.
//! 2. A lane that is not real (any non-zero or NaN imaginary part, an
//!    odd row count, a mismatched operand) runs the complex sequence:
//!    the staged `fft2d → hadamard → ifft2d → to_real → sub` chain's
//!    bits, error value and precedence. A request not scored in the
//!    spectrum keeps the lane route's bits, errors and partial charges.
//! 3. A real `m × n` lane is within
//!    `C · ε · log₂(2mn) · (‖filter‖_max ‖x‖_F + ‖y‖_F)` in Frobenius
//!    norm of the complex sequence on the same operands, with `C = 2`
//!    and `ε = f64::EPSILON`, and both are within that bound of the
//!    O(N²) definition (observed: ≤ 0.55 of it between the two
//!    sequences, 0.14 on radix-2 shapes; `tests/real_lane.rs`). A
//!    spectral score `s` is within the same bound of the lane route's
//!    `s_ref` on the same operands, `|s − s_ref| ≤` it, and both of the
//!    definition (`tests/spectral_score.rs`; observed ≤ 0.37 of it, at
//!    128², ≤ 0.06 below 64 elements a side). Most of that is the
//!    *reference*: `s_ref` ends in a serial sum of `mn` squares, which
//!    on an image periodic enough for its squares to round alike drifts
//!    past the budget on its own (70 ε·s at 128² on a period-23 table);
//!    against the exactly summed norm of the lane route's difference the
//!    spectral score holds the bound on that data too. Neither route is
//!    the closer to the definition where the fit is good: one subtracts
//!    two nearly equal images per region, the other two nearly equal
//!    spectra per request.
//!
//!    A block-local score is
//!    `s̃² = ‖r‖² + 2⟨c, x_b⟩ + μ (Σ x_b)² + Σ w |B̂_L|² Â_L / (l_r l_c)`:
//!    `r = y − x ∗ k_h`, `c = r ⋆ k_h`, `μ = |K_h(0)|² / mn` the kernel
//!    mean's share of `‖x_b ∗ k_h‖²` (taken exactly: a box-cut constant
//!    rings), `Â_L` the box's transform of the mean-free autocorrelation
//!    of `k_h` cut to `|d| < l/2` per side, `B̂_L` the block alone on the
//!    box — exact for any box of at least `2·extent − 1` per side. Every
//!    term is a transform or sum of at most `log₂(2mn)` rounding stages,
//!    so to first order `|s̃² − s²| ≤ ε · log₂(2mn) · M`, `M` the same
//!    sum taken term by term in magnitude (`2|⟨c, x_b⟩|`, `|Â_L|`), and
//!    `|s̃ − s| = |s̃² − s²| / (s̃ + s) ≤ ε · log₂(2mn) · M / s̃`. The lane
//!    keeps `s̃` only when `M ≤ S · s̃`, `S = ‖filter‖_max ‖x‖_F + ‖y‖_F`
//!    — that is, when its own first-order error is at most half the
//!    bound above, the other half left to the reference — and otherwise
//!    takes the full-size lane. Written as a ratio the guard is
//!    `s̃² ≥ τ · M` with `τ = M / S²`: no fixed `τ` holds an absolute
//!    bound, and a fixed `τ = 1/4` would send back about a quarter of
//!    the regions of a well-fitted `serve-large` request, nearly all
//!    without the mean split (there `M / s̃²` is 1.2–15, and the guard's
//!    margin `S · s̃ / M` 105–235). What the guard is for is
//!    cancellation: `y = x′_b ∗ k` for one block leaves
//!    `s_b² ≈ 2 q_b − 2 q_b ≈ 0`, and that block, unguarded, scores NaN
//!    or ≈ 10⁵ times the bound (`tests/spectral_score.rs`). Observed,
//!    kept block-local scores are within 0.051 of the bound of the
//!    full-size lane on the test shapes and 5.6e-4 of it (≤ 1.2e-12) on
//!    `serve-large`'s requests.
//! 4. A NaN or ±inf anywhere in a real lane leaves no finite element
//!    in its result, as on the complex sequence: the pack, unpack and
//!    filter steps are full complex arithmetic, never a skipped zero.
//!    A NaN or ±inf in `x` is a pixel an occlusion may *remove*, which
//!    `X − B_r` cannot: such a request takes the lane route and keeps
//!    its per-region poison pattern. One in `y` or `filter` leaves no
//!    finite score on either route.
//! 5. Simulated time never sees which transform ran, nor whether one
//!    did: the *modelled* device runs the paper's complex matrix-form
//!    transform (Eq. 10–13) and Eq. 5 literally — every charge is that
//!    of the staged chain, a score lane's that of its filter-diff lane.

use crate::traits::{lane_scores, rect_fits, staged_filter_diff, Accelerator};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::{LaneInput, Rect, ScoreOperands};

/// How a borrowed complex lane enters: as its real parts when it can
/// take the real-input pair (an even row count, every imaginary part
/// `== 0.0` — a scan, then a copy of half the bytes), else as a clone.
pub(crate) fn narrow(x: &Matrix<Complex64>) -> LaneInput {
    if x.rows().is_multiple_of(2) && x.iter().all(|z| z.im == 0.0) {
        LaneInput::Real(x.to_real())
    } else {
        LaneInput::Complex(x.clone())
    }
}

/// One lane, by value: forward → Hadamard → inverse → `y − re`. A real
/// lane (see the module header) takes the real-input transform pair
/// through `ws` — half spectrum, then a scratch row; resized only when
/// the shape changes — and comes back in its own buffer. Any other, and
/// every malformed lane, runs the complex sequence in its own (for a
/// real image, lifted) buffer — per element exactly the staged
/// `fft2d → hadamard → ifft2d → to_real → sub` arithmetic, bit for bit.
pub(crate) fn lane(
    x: LaneInput,
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
    ws: &mut Vec<Complex64>,
) -> Result<Matrix<f64>> {
    let shape @ (m, n) = x.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let real = m.is_multiple_of(2) && filter.shape() == shape && y.shape() == shape;
    let mut buf = match x {
        LaneInput::Real(mut x) if real => {
            ws.resize(m * plan.half_cols() + n, Complex64::ZERO);
            let (half, scratch) = ws.split_at_mut(m * plan.half_cols());
            plan.forward_real(x.as_slice(), half, scratch);
            plan.hadamard_real(half, filter);
            plan.inverse_real(half, x.as_mut_slice(), scratch, |r, row| {
                row.iter_mut().zip(y.row(r)).for_each(|(v, y)| *v = y - *v);
            });
            return Ok(x);
        }
        x => x.into_complex(),
    };
    plan.forward_in_place(&mut buf)?;
    ops::hadamard_assign(&mut buf, filter)?;
    plan.inverse_in_place(&mut buf)?;
    ops::sub_re(y, &buf)
}

/// One lane of an unqueued batch: its input, then in place its result.
enum Slot {
    Lane(LaneInput),
    Done(Result<Matrix<f64>>),
}

/// The owned-lane path the built-in platforms' entries share. A
/// well-formed batch (non-empty, every lane, the filter and `y` of one
/// shape) runs every lane through [`lane`] — whole lanes sharded over
/// the host pool in `num_threads` contiguous groups (one fork-join per
/// batch), each group lending lane after lane one workspace; a lane is
/// a pure function of its own operands, so the grouping cannot reach
/// the results — and then pays `charge(lanes)`, the platform's staged
/// charges. Any other batch goes to the staged chain (its lanes lifted:
/// a cold path), which owns its error value and partial charges.
pub(crate) fn fused<A: Accelerator>(
    acc: &A,
    xs: impl Iterator<Item = LaneInput>,
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
    charge: impl FnOnce(usize) -> Result<()>,
) -> Result<Vec<Matrix<f64>>> {
    let mut slots: Vec<_> = xs.map(Slot::Lane).collect();
    let shape = filter.shape();
    let fits = |s: &Slot| matches!(s, Slot::Lane(x) if x.shape() == shape);
    if slots.is_empty() || y.shape() != shape || !slots.iter().all(fits) {
        let lifted = slots.into_iter().filter_map(|slot| match slot {
            Slot::Lane(x) => Some(x.into_complex()),
            Slot::Done(_) => None,
        });
        return staged_filter_diff(acc, &lifted.collect::<Vec<_>>(), filter, y);
    }
    let pool = xai_parallel::global();
    let group = slots.len().div_ceil(pool.num_threads()).max(1);
    pool.par_chunks_mut(&mut slots, group, |_, slots| {
        let mut ws = Vec::new();
        for slot in slots {
            let taken = std::mem::replace(slot, Slot::Done(Err(TensorError::EmptyDimension)));
            if let Slot::Lane(x) = taken {
                *slot = Slot::Done(lane(x, filter, y, &mut ws));
            }
        }
    });
    let done = slots.into_iter().filter_map(|slot| match slot {
        Slot::Lane(_) => None,
        Slot::Done(out) => Some(out),
    });
    let out: Vec<_> = done.collect::<Result<_>>()?;
    charge(out.len())?;
    Ok(out)
}

/// A distilled kernel prepared for contribution scores: a cheap handle
/// (clones share one allocation) over everything a score reads that
/// depends on the kernel alone.
///
/// Built from the kernel's spectrum `K` in O(mn), with no transform:
/// the spectrum itself (what a request not scored in the spectrum — the
/// lane route — applies), `K_h`, `K`'s Hermitian part on the
/// `m × (n/2 + 1)` columns a real-input transform keeps, the kernel
/// mean's share `|K_h(0)|² / mn`, and `‖K‖_max`. What only a rectangle
/// scored on its own box reads — the mean-free autocorrelation of the
/// kernel and its transform cut to each box shape — is built by the
/// first request that needs it and kept: one cell per power-of-two box
/// shape, so at most `(⌈log₂ 2m⌉ + 1)(⌈log₂ 2n⌉ + 1)` of them. A value is
/// the same whichever request builds it and however many share the
/// handle, so sharing one kernel across requests and threads leaves
/// every score's bits where a kernel prepared per request would.
///
/// # Examples
///
/// ```
/// use xai_accel::{Accelerator, CpuModel, PreparedKernel};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let x = Matrix::from_fn(16, 16, |r, c| ((r * 7 + c * 3) % 11) as f64)?;
/// let y = Matrix::from_fn(16, 16, |r, c| ((r + 2 * c) % 5) as f64)?;
/// let kernel = PreparedKernel::new(Matrix::from_fn(16, 16, |r, c| {
///     xai_tensor::Complex64::from_real(1.0 / (1 + r + c) as f64)
/// })?);
/// let blocks = [(0..4, 0..4), (4..8, 12..16)];
/// let cpu = CpuModel::i7_3700();
/// let first = cpu.contribution_scores(&x, &y, &blocks, &kernel)?;
/// // A second request reuses what the first one prepared.
/// assert_eq!(cpu.contribution_scores(&x, &y, &blocks, &kernel.clone())?, first);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedKernel(Arc<Prepared>);

#[derive(Debug)]
struct Prepared {
    spectrum: Matrix<Complex64>,
    /// `K_h`, row-major `m × (n/2 + 1)`.
    hermitian: Vec<Complex64>,
    /// `|K_h(0)|² / mn`.
    mean: f64,
    /// `‖K‖_max`.
    max_abs: f64,
    /// `ã`, the inverse of `|K_h|²` without its mean bin, row-major
    /// `m × n`.
    autocorrelation: OnceLock<Vec<f64>>,
    /// `Â_L` of the box `2^i × 2^j` at `i · box_cols + j`, row-major
    /// `l_r × (l_c/2 + 1)`.
    windows: Box<[OnceLock<Vec<f64>>]>,
    box_cols: usize,
}

impl PreparedKernel {
    /// Prepares the kernel whose spectrum is `spectrum`.
    pub fn new(spectrum: Matrix<Complex64>) -> Self {
        let (m, n) = spectrum.shape();
        let plan = global_plan_cache().plan_2d(m, n);
        let mut hermitian = vec![Complex64::ZERO; m * plan.half_cols()];
        plan.hermitian_part(&mut hermitian, &spectrum);
        let mean = hermitian[0].norm_sqr() / (m * n) as f64;
        let max_sqr = fold4(spectrum.as_slice(), |s, k| s.max(k.norm_sqr()));
        let max_abs = max_sqr.into_iter().fold(0.0, f64::max).sqrt();
        // Per side, one cell per power of two a box can be: 2 up to the
        // box of a rectangle spanning the whole side.
        let sides = |len: usize| (2 * len).next_power_of_two().trailing_zeros() as usize + 1;
        let windows = (0..sides(m) * sides(n)).map(|_| OnceLock::new()).collect();
        PreparedKernel(Arc::new(Prepared {
            spectrum,
            hermitian,
            mean,
            max_abs,
            autocorrelation: OnceLock::new(),
            windows,
            box_cols: sides(n),
        }))
    }

    /// The kernel's spectrum `K`, as given to [`PreparedKernel::new`].
    pub fn spectrum(&self) -> &Matrix<Complex64> {
        &self.0.spectrum
    }

    /// `ã`, built on first use (one dense inverse). Only a request
    /// scored in the spectrum reaches it, so the row count is even.
    fn autocorrelation(&self) -> &[f64] {
        self.0.autocorrelation.get_or_init(|| {
            let (m, n) = self.0.spectrum.shape();
            let plan = global_plan_cache().plan_2d(m, n);
            let power = self.0.hermitian.iter();
            let mut power: Vec<_> = power.map(|k| Complex64::from_real(k.norm_sqr())).collect();
            power[0] = Complex64::ZERO;
            let mut a = vec![0.0; m * n];
            let scratch = &mut vec![Complex64::ZERO; n];
            plan.inverse_real(&mut power, &mut a, scratch, |_, _| {});
            a
        })
    }

    /// `Â_L` of the power-of-two box `l_r × l_c`, built on first use
    /// ([`window`]).
    fn window(&self, (l_r, l_c): (usize, usize)) -> &[f64] {
        let at = l_r.trailing_zeros() as usize * self.0.box_cols + l_c.trailing_zeros() as usize;
        self.0.windows[at]
            .get_or_init(|| window(self.autocorrelation(), self.0.spectrum.shape(), (l_r, l_c)))
    }
}

/// Two handles are equal when their spectra are: everything else a
/// handle holds is a function of the spectrum.
impl PartialEq for PreparedKernel {
    fn eq(&self, other: &Self) -> bool {
        self.spectrum() == other.spectrum()
    }
}

/// Four partial folds of `values`, value `i` into fold `i % 4`: a scale
/// needs no particular rounding, and one serial chain would be bound by
/// the latency of its additions.
fn fold4<T>(values: &[T], f: impl Fn(f64, &T) -> f64) -> [f64; 4] {
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    let mut acc = chunks.fold([0.0; 4], |[a, b, c, d], v| {
        [f(a, &v[0]), f(b, &v[1]), f(c, &v[2]), f(d, &v[3])]
    });
    for (a, v) in acc.iter_mut().zip(rest) {
        *a = f(*a, v);
    }
    acc
}

/// `‖v‖_F` by [`fold4`].
fn norm(v: &Matrix<f64>) -> f64 {
    fold4(v.as_slice(), |s, v| s + v * v)
        .iter()
        .sum::<f64>()
        .sqrt()
}

/// What the score lanes of one request share: `x` (borrowed by an
/// unqueued request, owned by a queued one), the half spectrum of the
/// unoccluded residual, `R̂ = Ŷ − X̂ ∘ K_h` (`m × (n/2 + 1)`), the
/// model's [`PreparedKernel`] and, when some rectangle's [`local_box`]
/// has fewer cells than `x`, what its block-local score reads of the
/// request ([`Local`]).
#[derive(Debug)]
pub(crate) struct Spectra<X> {
    x: X,
    residual: Vec<Complex64>,
    kernel: PreparedKernel,
    local: Option<Local>,
}

/// The per-request operands of a block-local score: `‖r‖_F²`, the
/// contract's scale `S = ‖filter‖_max ‖x‖_F + ‖y‖_F` and `c = r ⋆ k_h`
/// (row-major `m × n`).
#[derive(Debug)]
struct Local {
    energy: f64,
    scale: f64,
    c: Vec<f64>,
}

/// The torus a rectangle is scored on by itself: per side, the power of
/// two at least twice the rectangle's extent (and at least 2, one row
/// pair) — wide enough that no lag between two of its cells wraps.
fn local_box((rows, cols): &Rect) -> (usize, usize) {
    let side = |r: &Range<usize>| (2 * r.len()).next_power_of_two().max(2);
    (side(rows), side(cols))
}

/// The request's [`Spectra`] — two dense real-input forwards, and one
/// dense inverse when some rectangle is scored block-locally — when it
/// is scored in the spectrum: an even row count, `y` and the kernel of
/// `x`'s shape, every rectangle inside it and every element of `x`
/// finite (a NaN or ±inf pixel is one an occlusion may *remove*, which
/// `X′ = X − B_r` cannot). `None` hands the request to [`lane_scores`].
pub(crate) fn spectra<X: Borrow<Matrix<f64>>>(
    x: X,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &PreparedKernel,
) -> Option<Spectra<X>> {
    let image = x.borrow();
    let shape @ (m, n) = image.shape();
    let spectral = !rects.is_empty()
        && m.is_multiple_of(2)
        && y.shape() == shape
        && kernel.spectrum().shape() == shape
        && rects.iter().all(|rect| rect_fits(shape, rect))
        && image.iter().all(|v| v.is_finite());
    if !spectral {
        return None;
    }
    let plan = global_plan_cache().plan_2d(m, n);
    let h = plan.half_cols();
    let hermitian = &kernel.0.hermitian;
    let mut residual = vec![Complex64::ZERO; m * h];
    // `spectrum` holds X̂, then what `c` is the inverse of.
    let mut spectrum = vec![Complex64::ZERO; m * h];
    let scratch = &mut vec![Complex64::ZERO; n];
    plan.forward_real(y.as_slice(), &mut residual, scratch);
    plan.forward_real(image.as_slice(), &mut spectrum, scratch);
    for ((r, x), k) in residual.iter_mut().zip(&spectrum).zip(hermitian) {
        *r -= *x * *k;
    }
    let smaller = |&(l_r, l_c): &(usize, usize)| l_r.saturating_mul(l_c) < m * n;
    let mut boxes = rects.iter().map(local_box).filter(smaller).peekable();
    let local = boxes.peek().is_some().then(|| {
        let energy = plan.weighted_energy(&residual, None).0 / (m * n) as f64;
        for ((z, r), k) in spectrum.iter_mut().zip(&residual).zip(hermitian) {
            *z = *r * k.conj();
        }
        let mut c = vec![0.0; m * n];
        plan.inverse_real(&mut spectrum, &mut c, scratch, |_, _| {});
        let scale = kernel.0.max_abs * norm(image) + norm(y);
        Local { energy, scale, c }
    });
    // The kernel's windows are built here, on the submitting thread,
    // the first time a request needs them — not by a lane that the
    // lanes of its flight then wait for.
    for b in boxes {
        kernel.window(b);
    }
    Some(Spectra {
        x,
        residual,
        kernel: kernel.clone(),
        local,
    })
}

/// `Â_L` of one box `l_r × l_c`: the real half spectrum (`l_r × (l_c/2 +
/// 1)`) of the `m × n` autocorrelation `ã` cut to the lags the box holds
/// without wrapping, `|d_r| < l_r/2` and `|d_c| < l_c/2` (a lag read off
/// `ã` modulo its shape), zero elsewhere. `ã` is real and even, so
/// `Â_L` is real.
fn window(a: &[f64], (m, n): (usize, usize), (l_r, l_c): (usize, usize)) -> Vec<f64> {
    // Per side, the element of `a` position `i` of the box reads: the
    // lag `i` or `i − l`, modulo the image's side; the lag `l/2` is its
    // own mirror and is cut.
    let lags = |l: usize, len: usize| -> Vec<Option<usize>> {
        let lag = |i: usize| match i.cmp(&(l / 2)) {
            Ordering::Less => Some(i % len),
            Ordering::Equal => None,
            Ordering::Greater => Some((len - (l - i) % len) % len),
        };
        (0..l).map(lag).collect()
    };
    let (rows, cols) = (lags(l_r, m), lags(l_c, n));
    let mut cut = vec![0.0; l_r * l_c];
    for (at, p) in cut.chunks_exact_mut(l_c).zip(&rows) {
        let Some(p) = p else { continue };
        for (v, q) in at.iter_mut().zip(&cols) {
            *v = q.map_or(0.0, |q| a[p * n + q]);
        }
    }
    let plan = global_plan_cache().plan_2d(l_r, l_c);
    let mut half = vec![Complex64::ZERO; l_r * plan.half_cols()];
    plan.forward_real(&cut, &mut half, &mut vec![Complex64::ZERO; l_c]);
    half.iter().map(|z| z.re).collect()
}

/// One score lane: `‖y − x′ ∗ k‖_F` for `x′ = x` with `rect` zeroed.
/// When the request has block-local operands and `rect`'s box has fewer
/// cells than `x`, it is taken on that box ([`local_score`]) unless the
/// cancellation guard sends it on. Otherwise, and then, it is the
/// full-size lane `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`, `B̂` the block-pruned
/// forward of `x` restricted to `rect`. Transforms run through `ws` as in
/// [`lane`].
impl<X: Borrow<Matrix<f64>> + Debug + Send + Sync> ScoreOperands for Spectra<X> {
    fn shape(&self) -> (usize, usize) {
        self.x.borrow().shape()
    }

    fn score(&self, rect: &Rect, ws: &mut Vec<Complex64>) -> Result<f64> {
        let x = self.x.borrow();
        let shape @ (m, n) = x.shape();
        if !rect_fits(shape, rect) {
            return Err(TensorError::ShapeMismatch {
                left: (rect.0.end, rect.1.end),
                right: shape,
                op: "score lane",
            });
        }
        let (l_r, l_c) = local_box(rect);
        let local = self
            .local
            .as_ref()
            .filter(|_| l_r.saturating_mul(l_c) < m * n);
        if let Some(s) = local.and_then(|local| local_score(x, local, &self.kernel, rect, ws)) {
            return Ok(s);
        }
        let plan = global_plan_cache().plan_2d(m, n);
        let h = plan.half_cols();
        ws.resize(m * h + n, Complex64::ZERO);
        let (block, scratch) = ws.split_at_mut(m * h);
        let (rows, cols) = rect.clone();
        plan.forward_real_block(x.as_slice(), rows, cols, block, scratch);
        let energy = plan.residual_energy(&self.residual, block, &self.kernel.0.hermitian);
        Ok((energy / (m * n) as f64).sqrt())
    }
}

/// The block-local score of a score lane:
/// `s² = ‖r‖² + 2⟨c, x_b⟩ + μ · (Σ x_b)² + Σ w |B̂_L|² Â_L / (l_r l_c)`,
/// `B̂_L` the block-pruned forward of the block alone at the box's
/// origin and `μ = |K_h(0)|² / mn` the kernel mean's share of
/// `‖x_b ∗ k_h‖²`. `None` — the full-size lane — unless `M ≤ S · s`,
/// `M` the same sum taken term by term in magnitude (the cancellation
/// guard of contract point 3).
fn local_score(
    x: &Matrix<f64>,
    Local { energy, scale, c }: &Local,
    kernel: &PreparedKernel,
    rect: &Rect,
    ws: &mut Vec<Complex64>,
) -> Option<f64> {
    let (rows, cols) = rect.clone();
    let (l_r, l_c) = local_box(rect);
    let plan = global_plan_cache().plan_2d(l_r, l_c);
    let h = plan.half_cols();
    let mut block = vec![0.0; l_r * l_c];
    for (at, r) in block.chunks_exact_mut(l_c).zip(rows.clone()) {
        at[..cols.len()].copy_from_slice(&x.row(r)[cols.clone()]);
    }
    ws.resize(l_r * h + l_c, Complex64::ZERO);
    let (half, scratch) = ws.split_at_mut(l_r * h);
    plan.forward_real_block(&block, 0..rows.len(), 0..cols.len(), half, scratch);
    let (q, q_magnitude) = plan.weighted_energy(half, Some(kernel.window((l_r, l_c))));
    let n = x.cols();
    let (cross, sum) = rows.fold((0.0, 0.0), |(cross, sum), r| {
        let (x, c) = (
            &x.row(r)[cols.clone()],
            &c[r * n..(r + 1) * n][cols.clone()],
        );
        let row = x
            .iter()
            .zip(c)
            .fold((0.0, 0.0), |(d, s), (x, c)| (d + x * c, s + x));
        (cross + row.0, sum + row.1)
    });
    let (cells, mean) = ((l_r * l_c) as f64, kernel.0.mean);
    let s = (energy + 2.0 * cross + mean * sum * sum + q / cells).sqrt();
    let magnitude = energy + 2.0 * cross.abs() + mean * sum * sum + q_magnitude / cells;
    (magnitude <= scale * s).then_some(s)
}

/// [`Accelerator::contribution_scores`] of a built-in platform's
/// unqueued route: a request [`spectra`] takes runs its score lanes
/// over the host pool, grouped as [`fused`] groups filter-diff lanes,
/// and then pays `charge(lanes)` — the platform's staged charges for as
/// many filter-diff lanes; any other goes to [`lane_scores`].
pub(crate) fn scores<A: Accelerator>(
    acc: &A,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &PreparedKernel,
    charge: impl FnOnce(usize) -> Result<()>,
) -> Result<Vec<f64>> {
    let Some(spectra) = spectra(x, y, rects, kernel) else {
        return lane_scores(acc, x, y, rects, kernel.spectrum());
    };
    let mut slots: Vec<_> = rects.iter().map(|rect| (rect, Ok(0.0))).collect();
    let pool = xai_parallel::global();
    let group = slots.len().div_ceil(pool.num_threads()).max(1);
    pool.par_chunks_mut(&mut slots, group, |_, slots| {
        let mut ws = Vec::new();
        for (rect, score) in slots {
            *score = spectra.score(rect, &mut ws);
        }
    });
    let out: Vec<f64> = slots.into_iter().map(|(_, s)| s).collect::<Result<_>>()?;
    charge(out.len())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::occluded;
    use xai_fourier::{convolve2d_fft, fft2d};

    /// A seeded image in `[-0.5, 0.5)` (SplitMix64 draws).
    fn seeded(seed: u64, (m, n): (usize, usize)) -> Matrix<f64> {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .unwrap()
    }

    fn prepared(k: &Matrix<f64>) -> PreparedKernel {
        PreparedKernel::new(fft2d(&k.to_complex()).unwrap())
    }

    /// The box cells `kernel` has built so far.
    fn built(kernel: &PreparedKernel) -> usize {
        kernel
            .0
            .windows
            .iter()
            .filter(|w| w.get().is_some())
            .count()
    }

    /// A sweep of every rectangle extent through one kernel builds one
    /// cell per box shape smaller than the image, and never more than
    /// the table's `(⌈log₂ 2m⌉ + 1)(⌈log₂ 2n⌉ + 1)`; building none until a
    /// request needs one, and nothing for a request whose boxes are all
    /// as large as the image.
    #[test]
    fn the_box_memo_holds_one_cell_per_box_shape() {
        for shape @ (m, n) in [(16, 16), (6, 10), (8, 2)] {
            let (x, k, y) = (seeded(1, shape), seeded(2, shape), seeded(3, shape));
            let kernel = prepared(&k);
            let bound = |len: usize| (2 * len).next_power_of_two().ilog2() as usize + 1;
            assert_eq!(kernel.0.windows.len(), bound(m) * bound(n), "{shape:?}");
            let whole = [(0..m, 0..n)];
            let request = spectra(&x, &y, &whole, &kernel).expect("spectral");
            request.score(&whole[0], &mut Vec::new()).unwrap();
            assert!(request.local.is_none() && kernel.0.autocorrelation.get().is_none());
            assert_eq!(built(&kernel), 0, "{shape:?}: the whole image needs no box");
            let rects: Vec<Rect> = (1..=m)
                .flat_map(|h| (1..=n).map(move |w| (m - h..m, 0..w)))
                .collect();
            let request = spectra(&x, &y, &rects, &kernel).expect("spectral");
            let ws = &mut Vec::new();
            for rect in &rects {
                request.score(rect, ws).unwrap();
            }
            let mut boxes: Vec<_> = rects.iter().map(local_box).collect();
            boxes.retain(|&(l_r, l_c)| l_r * l_c < m * n);
            boxes.sort_unstable();
            boxes.dedup();
            assert_eq!(built(&kernel), boxes.len(), "{shape:?}");
            assert!(built(&kernel) <= bound(m) * bound(n), "{shape:?}");
        }
    }

    /// How many of `rects` the cancellation guard sends to the full-size
    /// lane.
    fn fallbacks(
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        rects: &[Rect],
        kernel: &PreparedKernel,
    ) -> usize {
        let request = spectra(x, y, rects, kernel).expect("spectral");
        let local = request
            .local
            .as_ref()
            .expect("every box is smaller than the image");
        let ws = &mut Vec::new();
        let sent = |rect: &&Rect| local_score(x, local, kernel, rect, ws).is_none();
        rects.iter().filter(sent).count()
    }

    /// The guard's fallbacks, pinned on `serve-large`'s operands — the
    /// kernel `((r + 3c) % 5) / 4`, four seeded 128² inputs, `y = x ∗ k`,
    /// grid 4 — at none; and at exactly one where one block's occlusion
    /// explains `y`. A tightened guard moves the first number.
    #[test]
    fn the_guard_sends_back_no_serve_large_block_and_the_cancelled_one() {
        let shape = (128, 128);
        let k = Matrix::from_fn(128, 128, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
        let kernel = prepared(&k);
        let rects: Vec<Rect> = (0..16)
            .map(|b| (b / 4 * 32..b / 4 * 32 + 32, b % 4 * 32..b % 4 * 32 + 32))
            .collect();
        for seed in 0..4 {
            let x = seeded(42 + seed, shape);
            let y = convolve2d_fft(&x, &k).unwrap();
            assert_eq!(fallbacks(&x, &y, &rects, &kernel), 0, "input {seed}");
        }
        let x = seeded(42, shape);
        let y = convolve2d_fft(&occluded(&x, &rects[2]).unwrap(), &k).unwrap();
        assert_eq!(fallbacks(&x, &y, &rects, &kernel), 1);
    }
}
