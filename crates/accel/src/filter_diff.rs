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
//! shared by every lane of the request; the lane transforms `x`
//! restricted to its rectangle into that same lent workspace
//! ([`Fft2d::forward_real_block`](xai_fourier::Fft2d::forward_real_block))
//! and returns `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`
//! ([`Fft2d::residual_energy`](xai_fourier::Fft2d::residual_energy)) —
//! no occluded image, no inverse transform, no difference matrix.
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
//! above, `frobenius_norm`: the trait default). Both choices are read
//! off the operands, never configured, and:
//!
//! 1. A lane's result is a pure function of `(x, filter, y)`, a score
//!    of `(x, y, filter, rectangle)`: bit-identical across direct /
//!    queued / pooled execution, flight composition, chip count,
//!    `XAI_THREADS` and retries.
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

/// What the score lanes of one request share: the half spectrum of
/// the unoccluded residual, `R̂ = Ŷ − X̂ ∘ K_h`, and `K_h`, the filter's
/// Hermitian part on the same kept columns — both `m × (n/2 + 1)`.
pub(crate) type Spectra = (Arc<Matrix<Complex64>>, Arc<Matrix<Complex64>>);

/// The request's [`Spectra`] — two dense real-input forwards — when it
/// is scored in the spectrum: an even row count, `y` and `filter` of
/// `x`'s shape, every rectangle inside it and every element of `x`
/// finite (a NaN or ±inf pixel is one an occlusion may *remove*, which
/// `X′ = X − B_r` cannot). `None` hands the request to [`lane_scores`].
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
    // `hermitian` first holds X̂ ∘ K_h, then K_h itself.
    let scratch = &mut vec![Complex64::ZERO; n];
    plan.forward_real(y.as_slice(), residual.as_mut_slice(), scratch);
    plan.forward_real(x.as_slice(), hermitian.as_mut_slice(), scratch);
    plan.hadamard_real(hermitian.as_mut_slice(), filter);
    for (r, xk) in residual.as_mut_slice().iter_mut().zip(hermitian.iter()) {
        *r -= *xk;
    }
    plan.hermitian_part(hermitian.as_mut_slice(), filter);
    Some((Arc::new(residual), Arc::new(hermitian)))
}

/// One score lane: `‖y − x′ ∗ k‖_F` for `x′ = x` with `rect` zeroed, as
/// `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)` — `B̂` the block-pruned forward of
/// `x` restricted to `rect`, through `ws` as in [`lane`] — given the
/// request's [`Spectra`]. A pure function of its operands.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] for a lane [`spectra`] would not have
/// built: an odd row count, spectra of another shape, a stray rectangle.
pub(crate) fn score_lane(
    x: &Matrix<f64>,
    residual: &Matrix<Complex64>,
    hermitian: &Matrix<Complex64>,
    rect: &Rect,
    ws: &mut Vec<Complex64>,
) -> Result<f64> {
    let shape @ (m, n) = x.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let half = (m, plan.half_cols());
    let built = m.is_multiple_of(2)
        && residual.shape() == half
        && hermitian.shape() == half
        && rect_fits(shape, rect);
    if !built {
        return Err(TensorError::ShapeMismatch {
            left: shape,
            right: residual.shape(),
            op: "score lane",
        });
    }
    ws.resize(m * half.1 + n, Complex64::ZERO);
    let (block, scratch) = ws.split_at_mut(m * half.1);
    let (rows, cols) = rect.clone();
    plan.forward_real_block(x.as_slice(), rows, cols, block, scratch);
    let energy = plan.residual_energy(residual.as_slice(), block, hermitian.as_slice());
    Ok((energy / (m * n) as f64).sqrt())
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
    let Some((residual, hermitian)) = spectra(x, y, rects, filter) else {
        return lane_scores(acc, x, y, rects, filter);
    };
    let mut slots: Vec<_> = rects.iter().map(|rect| (rect, Ok(0.0))).collect();
    let pool = xai_parallel::global();
    let group = slots.len().div_ceil(pool.num_threads()).max(1);
    pool.par_chunks_mut(&mut slots, group, |_, slots| {
        let mut ws = Vec::new();
        for (rect, score) in slots {
            *score = score_lane(x, &residual, &hermitian, rect, &mut ws);
        }
    });
    let out: Vec<f64> = slots.into_iter().map(|(_, s)| s).collect::<Result<_>>()?;
    charge(out.len())?;
    Ok(out)
}
