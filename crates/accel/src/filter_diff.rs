//! The fused filter-diff lane, `y − re(ifft2(fft2(x) ∘ filter))` — the
//! only place that sequence is written. A queued flight runs [`lane`]
//! on each job's input; the built-in platforms' unqueued batches run it
//! over the host pool ([`fused`]) and replay the staged chain's
//! charges. Both filter-diff entries of a built-in platform — real
//! lanes by value, borrowed complex ones ([`narrow`]) — end here.
//!
//! A lane owns its input from submission to result ([`LaneInput`]) and
//! nothing copies it on the way. A real lane's `m × n` buffer is read
//! by the forward transform, overwritten by the inverse — `y − re`
//! taken row by row as it unpacks — and handed back: lane in, result
//! out. The half spectrum and scratch row it needs besides are one
//! `Vec` lent from lane to lane, per flight or per pool group of an
//! unqueued batch. A complex lane allocates its real result.
//!
//! # Numerics contract
//!
//! A lane is *real* when every imaginary part of `x` is `== 0.0`, its
//! row count is even and `x`, `filter` and `y` share one shape — what
//! every occluded image or trace is. A real lane takes the real-input
//! transform pair ([`Fft2d::forward_real`](xai_fourier::Fft2d::forward_real):
//! half the butterflies) around the filter's Hermitian part
//! ([`Fft2d::hadamard_real`](xai_fourier::Fft2d::hadamard_real), an
//! identity for any filter); any other lane takes the complex sequence. The choice is read off the lane,
//! never configured, and:
//!
//! 1. A lane's result is a pure function of `(x, filter, y)`:
//!    bit-identical across direct / queued / pooled execution, flight
//!    composition, chip count, `XAI_THREADS` and retries.
//! 2. A lane that is not real (any non-zero or NaN imaginary part, an
//!    odd row count, a mismatched operand) runs the complex sequence:
//!    the staged `fft2d → hadamard → ifft2d → to_real → sub` chain's
//!    bits, error value and precedence.
//! 3. A real `m × n` lane is within
//!    `C · ε · log₂(2mn) · (‖filter‖_max ‖x‖_F + ‖y‖_F)` in Frobenius
//!    norm of the complex sequence on the same operands, with `C = 2`
//!    and `ε = f64::EPSILON`, and both are within that bound of the
//!    O(N²) definition (observed: ≤ 0.55 of it between the two
//!    sequences, 0.14 on radix-2 shapes; `tests/real_lane.rs`).
//! 4. A NaN or ±inf anywhere in a real lane leaves no finite element
//!    in its result, as on the complex sequence: the pack, unpack and
//!    filter steps are full complex arithmetic, never a skipped zero.
//! 5. Simulated time never sees which transform ran: the *modelled*
//!    device runs the paper's complex matrix-form transform
//!    (Eq. 10–13) and every charge is that of the staged chain.

use crate::traits::{staged_filter_diff, Accelerator};
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::LaneInput;

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
