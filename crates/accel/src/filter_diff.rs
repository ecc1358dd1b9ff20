//! The fused filter-diff lane, `y − re(ifft2(fft2(x) ∘ filter))` — the
//! only place that sequence is written — and the score lane, its
//! Frobenius norm for an occluded `x`, taken in the spectrum. A queued
//! flight runs [`lane`] or [`score_lane`] on each job; the built-in
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
//! A score lane owns nothing but its rectangle. `x`, the residual half
//! spectrum `R̂ = Ŷ − X̂ ∘ K_h` and `K_h` ([`Spectra`]: two dense
//! real-input forwards per request, before anything is submitted) are
//! shared by every lane of the request. A rectangle whose box — per side
//! the power of two at least twice its extent ([`local_box`]) — has
//! fewer cells than `x` is scored on that box alone ([`local_score`]):
//! the block, copied to the box's origin, is transformed on the box and
//! summed against the box's `Â_L`, the kernel's autocorrelation cut to
//! the lags the box holds
//! ([`Fft2d::weighted_energy`](xai_fourier::Fft2d::weighted_energy)),
//! plus `‖r‖²` and a dot with `c = r ⋆ k_h` over the block — per request
//! two more dense inverses (`c` and the autocorrelation) and one
//! box-sized forward per box. Any other rectangle, and one the
//! cancellation guard (point 3) sends on, takes the full-size lane: `x`
//! restricted to the rectangle is transformed into the lent workspace
//! ([`Fft2d::forward_real_block`](xai_fourier::Fft2d::forward_real_block))
//! and the lane returns `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`
//! ([`Fft2d::residual_energy`](xai_fourier::Fft2d::residual_energy)).
//! Neither builds an occluded image, an inverse transform per region or
//! a difference matrix.
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
//!    `XAI_THREADS` and retries. Within a request scored in the
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
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::{LaneInput, Rect};

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

/// The block-local operands of one score lane, `(‖r‖_F², S, c, Â_L)`:
/// see [`Spectra`].
pub(crate) type Local = (f64, f64, Arc<Matrix<f64>>, Arc<Matrix<f64>>);

/// What the score lanes of one request share: the half spectrum of
/// the unoccluded residual, `R̂ = Ŷ − X̂ ∘ K_h`, and `K_h`, the filter's
/// Hermitian part on the same kept columns — both `m × (n/2 + 1)` — and,
/// when some rectangle's [`local_box`] has fewer cells than `x`, what
/// its block-local score reads: `‖r‖_F²`, the contract's scale
/// `S = ‖filter‖_max ‖x‖_F + ‖y‖_F`, `c = r ⋆ k_h` (`m × n`), and one
/// `Â_L` per such box ([`window`]).
pub(crate) struct Spectra {
    pub(crate) residual: Arc<Matrix<Complex64>>,
    pub(crate) hermitian: Arc<Matrix<Complex64>>,
    request: Option<(f64, f64, Arc<Matrix<f64>>)>,
    windows: Vec<Arc<Matrix<f64>>>,
}

impl Spectra {
    /// `rect`'s block-local operands, `None` when its box is not
    /// smaller than the image.
    pub(crate) fn local(&self, rect: &Rect) -> Option<Local> {
        let (energy, scale, c) = self.request.as_ref()?;
        let (l_r, l_c) = local_box(rect);
        let window = self
            .windows
            .iter()
            .find(|a| a.shape() == (l_r, l_c / 2 + 1))?;
        Some((*energy, *scale, Arc::clone(c), Arc::clone(window)))
    }
}

/// The torus a rectangle is scored on by itself: per side, the power of
/// two at least twice the rectangle's extent (and at least 2, one row
/// pair) — wide enough that no lag between two of its cells wraps.
fn local_box((rows, cols): &Rect) -> (usize, usize) {
    let side = |r: &Range<usize>| (2 * r.len()).next_power_of_two().max(2);
    (side(rows), side(cols))
}

/// The request's [`Spectra`] — two dense real-input forwards, and two
/// dense inverses and a box-sized forward per box when some rectangle
/// is scored block-locally — when it is scored in the spectrum: an even
/// row count, `y` and `filter` of `x`'s shape, every rectangle inside it
/// and every element of `x` finite (a NaN or ±inf pixel is one an
/// occlusion may *remove*, which `X′ = X − B_r` cannot). `None` hands
/// the request to [`lane_scores`].
pub(crate) fn spectra(
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    filter: &Matrix<Complex64>,
) -> Option<Spectra> {
    let shape @ (m, n) = x.shape();
    let spectral = !rects.is_empty()
        && m.is_multiple_of(2)
        && y.shape() == shape
        && filter.shape() == shape
        && rects.iter().all(|rect| rect_fits(shape, rect))
        && x.iter().all(|v| v.is_finite());
    if !spectral {
        return None;
    }
    let plan = global_plan_cache().plan_2d(m, n);
    let h = plan.half_cols();
    let (mut residual, mut hermitian) = (Matrix::zeros(m, h).ok()?, Matrix::zeros(m, h).ok()?);
    // `spectrum` holds X̂, then what `c` and `ã` are the inverses of.
    let mut spectrum = vec![Complex64::ZERO; m * h];
    let scratch = &mut vec![Complex64::ZERO; n];
    plan.forward_real(y.as_slice(), residual.as_mut_slice(), scratch);
    plan.forward_real(x.as_slice(), &mut spectrum, scratch);
    plan.hermitian_part(hermitian.as_mut_slice(), filter);
    let r = residual.as_mut_slice().iter_mut().zip(&spectrum);
    for ((r, x), k) in r.zip(hermitian.iter()) {
        *r -= *x * *k;
    }
    let smaller = |&(l_r, l_c): &(usize, usize)| l_r.saturating_mul(l_c) < m * n;
    let mut boxes: Vec<_> = rects.iter().map(local_box).filter(smaller).collect();
    boxes.sort_unstable();
    boxes.dedup();
    let (request, windows) = if boxes.is_empty() {
        (None, Vec::new())
    } else {
        let energy = plan.weighted_energy(residual.as_slice(), None).0 / (m * n) as f64;
        // `c`, the inverse of R̂ ∘ conj K_h; then `ã`, the inverse of
        // |K_h|² without its mean bin.
        let r = spectrum.iter_mut().zip(residual.iter());
        for ((z, r), k) in r.zip(hermitian.iter()) {
            *z = *r * k.conj();
        }
        let mut c = Matrix::zeros(m, n).ok()?;
        plan.inverse_real(&mut spectrum, c.as_mut_slice(), scratch, |_, _| {});
        for (z, k) in spectrum.iter_mut().zip(hermitian.iter()) {
            *z = Complex64::from_real(k.norm_sqr());
        }
        spectrum[0] = Complex64::ZERO;
        let mut a = Matrix::zeros(m, n).ok()?;
        plan.inverse_real(&mut spectrum, a.as_mut_slice(), scratch, |_, _| {});
        let windows = boxes.into_iter().map(|b| window(&a, b).map(Arc::new));
        let windows = windows.collect::<Option<_>>()?;
        let scale = guard_scale(x, y, filter);
        (Some((energy, scale, Arc::new(c))), windows)
    };
    Some(Spectra {
        residual: Arc::new(residual),
        hermitian: Arc::new(hermitian),
        request,
        windows,
    })
}

/// `Â_L` of one box `l_r × l_c`: the real half spectrum (`l_r × (l_c/2 +
/// 1)`) of the `m × n` autocorrelation `ã` cut to the lags the box holds
/// without wrapping, `|d_r| < l_r/2` and `|d_c| < l_c/2` (a lag read off
/// `ã` modulo its shape), zero elsewhere. `ã` is real and even, so
/// `Â_L` is real.
fn window(a: &Matrix<f64>, (l_r, l_c): (usize, usize)) -> Option<Matrix<f64>> {
    let (m, n) = a.shape();
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
            *v = q.map_or(0.0, |q| a[(*p, q)]);
        }
    }
    let plan = global_plan_cache().plan_2d(l_r, l_c);
    let mut half = vec![Complex64::ZERO; l_r * plan.half_cols()];
    plan.forward_real(&cut, &mut half, &mut vec![Complex64::ZERO; l_c]);
    Matrix::from_vec(l_r, plan.half_cols(), half.iter().map(|z| z.re).collect()).ok()
}

/// `S = ‖filter‖_max ‖x‖_F + ‖y‖_F`, the scale of contract point 3's
/// bound and of the cancellation guard. Each fold keeps four partial
/// results: a scale needs no particular rounding, and one serial chain
/// would be bound by the latency of its additions.
fn guard_scale(x: &Matrix<f64>, y: &Matrix<f64>, filter: &Matrix<Complex64>) -> f64 {
    fn fold4<T>(values: &[T], f: impl Fn(f64, &T) -> f64) -> [f64; 4] {
        values.chunks(4).fold([0.0; 4], |mut acc, chunk| {
            for (a, v) in acc.iter_mut().zip(chunk) {
                *a = f(*a, v);
            }
            acc
        })
    }
    let norm = |v: &Matrix<f64>| {
        fold4(v.as_slice(), |s, v| s + v * v)
            .iter()
            .sum::<f64>()
            .sqrt()
    };
    let k_max = fold4(filter.as_slice(), |s, k| s.max(k.norm_sqr()));
    k_max.into_iter().fold(0.0, f64::max).sqrt() * norm(x) + norm(y)
}

/// One score lane: `‖y − x′ ∗ k‖_F` for `x′ = x` with `rect` zeroed. With
/// `local` operands ([`Spectra::local`]) it is taken on the rectangle's
/// own box ([`local_score`]) unless the cancellation guard sends it on.
/// Otherwise, and then, it is the full-size lane
/// `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`, `B̂` the block-pruned forward of `x`
/// restricted to `rect`. Transforms run through `ws` as in [`lane`]. A
/// pure function of its operands.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] for a lane [`spectra`] would not have
/// built: an odd row count, spectra of another shape, a stray rectangle,
/// local operands of another shape or box.
pub(crate) fn score_lane(
    x: &Matrix<f64>,
    residual: &Matrix<Complex64>,
    hermitian: &Matrix<Complex64>,
    local: Option<&Local>,
    rect: &Rect,
    ws: &mut Vec<Complex64>,
) -> Result<f64> {
    let shape @ (m, n) = x.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let half = (m, plan.half_cols());
    let boxed = |(_, _, c, a): &Local| {
        let (l_r, l_c) = local_box(rect);
        c.shape() == shape && a.shape() == (l_r, l_c / 2 + 1)
    };
    let built = m.is_multiple_of(2)
        && residual.shape() == half
        && hermitian.shape() == half
        && rect_fits(shape, rect)
        && local.is_none_or(boxed);
    if !built {
        return Err(TensorError::ShapeMismatch {
            left: shape,
            right: residual.shape(),
            op: "score lane",
        });
    }
    let mean = || hermitian.as_slice()[0].norm_sqr() / (m * n) as f64;
    if let Some(s) = local.and_then(|local| local_score(x, local, mean(), rect, ws)) {
        return Ok(s);
    }
    ws.resize(m * half.1 + n, Complex64::ZERO);
    let (block, scratch) = ws.split_at_mut(m * half.1);
    let (rows, cols) = rect.clone();
    plan.forward_real_block(x.as_slice(), rows, cols, block, scratch);
    let energy = plan.residual_energy(residual.as_slice(), block, hermitian.as_slice());
    Ok((energy / (m * n) as f64).sqrt())
}

/// The block-local score of [`score_lane`]:
/// `s² = ‖r‖² + 2⟨c, x_b⟩ + mean · (Σ x_b)² + Σ w |B̂_L|² Â_L / (l_r l_c)`,
/// `B̂_L` the block-pruned forward of the block alone at the box's
/// origin and `mean = |K_h(0)|² / mn` the kernel mean's share of
/// `‖x_b ∗ k_h‖²`. `None` — the full-size lane — unless `M ≤ S · s`,
/// `M` the same sum taken term by term in magnitude (the cancellation
/// guard of contract point 3).
fn local_score(
    x: &Matrix<f64>,
    (energy, scale, c, a): &Local,
    mean: f64,
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
    let (q, q_magnitude) = plan.weighted_energy(half, Some(a.as_slice()));
    let (cross, sum) = rows.fold((0.0, 0.0), |(cross, sum), r| {
        let (x, c) = (&x.row(r)[cols.clone()], &c.row(r)[cols.clone()]);
        let row = x
            .iter()
            .zip(c)
            .fold((0.0, 0.0), |(d, s), (x, c)| (d + x * c, s + x));
        (cross + row.0, sum + row.1)
    });
    let cells = (l_r * l_c) as f64;
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
    filter: &Matrix<Complex64>,
    charge: impl FnOnce(usize) -> Result<()>,
) -> Result<Vec<f64>> {
    let Some(spectra) = spectra(x, y, rects, filter) else {
        return lane_scores(acc, x, y, rects, filter);
    };
    let (residual, hermitian) = (&spectra.residual, &spectra.hermitian);
    let mut slots: Vec<_> = rects.iter().map(|rect| (rect, Ok(0.0))).collect();
    let pool = xai_parallel::global();
    let group = slots.len().div_ceil(pool.num_threads()).max(1);
    pool.par_chunks_mut(&mut slots, group, |_, slots| {
        let mut ws = Vec::new();
        for (rect, score) in slots {
            let local = spectra.local(rect);
            *score = score_lane(x, residual, hermitian, local.as_ref(), rect, &mut ws);
        }
    });
    let out: Vec<f64> = slots.into_iter().map(|(_, s)| s).collect::<Result<_>>()?;
    charge(out.len())?;
    Ok(out)
}
