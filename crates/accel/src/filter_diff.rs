//! The fused filter-diff lane, `y − re(ifft2(fft2(x) ∘ filter))` in
//! one working buffer — the only place that sequence is written. A
//! queued flight runs [`lane`] in each job's own buffer; the built-in
//! platforms' unqueued [`Accelerator::filter_diff_batch`] runs it over
//! the host pool ([`fused`]) and replays the staged chain's charges.
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

/// One lane, in place in `buf`: forward → Hadamard → inverse → `y − re`
/// straight into the result. A real lane (see the module header) takes
/// the real-input transform pair; any other lane, and every malformed
/// one, runs the complex sequence — per element exactly the staged
/// `fft2d → hadamard → ifft2d → to_real → sub` arithmetic, bit for bit.
pub(crate) fn lane(
    buf: &mut Matrix<Complex64>,
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Matrix<f64>> {
    let (m, n) = buf.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let real = m.is_multiple_of(2)
        && filter.shape() == (m, n)
        && y.shape() == (m, n)
        && buf.iter().all(|z| z.im == 0.0);
    if real {
        let mut scratch = vec![Complex64::ZERO; n];
        plan.forward_real(buf.as_mut_slice(), &mut scratch);
        plan.hadamard_real(buf.as_mut_slice(), filter);
        plan.inverse_real(buf.as_mut_slice(), &mut scratch);
    } else {
        plan.forward_in_place(buf)?;
        ops::hadamard_assign(buf, filter)?;
        plan.inverse_in_place(buf)?;
    }
    ops::sub_re(y, buf)
}

/// Every lane of `xs` through [`lane`], whole lanes sharded over the
/// host pool in `num_threads` contiguous groups (one fork-join per
/// batch), each group copying lane after lane into one reused working
/// buffer. A lane is a pure function of its own operands, so the
/// grouping cannot reach the results.
fn lanes(
    xs: &[Matrix<Complex64>],
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Vec<Matrix<f64>>> {
    let pool = xai_parallel::global();
    let group = xs.len().div_ceil(pool.num_threads()).max(1);
    // Placeholders: every slot is overwritten by its lane's result.
    let mut out: Vec<_> = xs
        .iter()
        .map(|_| Err(TensorError::EmptyDimension))
        .collect();
    pool.par_chunks_mut(&mut out, group, |g, slots| {
        let mut buf: Option<Matrix<Complex64>> = None;
        for (slot, x) in slots.iter_mut().zip(&xs[g * group..]) {
            let buf = match &mut buf {
                Some(b) if b.shape() == x.shape() => {
                    b.as_mut_slice().copy_from_slice(x.as_slice());
                    b
                }
                _ => buf.insert(x.clone()),
            };
            *slot = lane(buf, filter, y);
        }
    });
    out.into_iter().collect()
}

/// The override the built-in platforms share: a well-formed batch
/// (non-empty, every lane, the filter and `y` of one shape) runs fused
/// and then pays `charge`, the platform's staged charge sequence. Any
/// other batch goes to the staged chain untouched, which owns the
/// error value and the partial charges of a malformed one.
pub(crate) fn fused<A: Accelerator>(
    acc: &A,
    xs: &[Matrix<Complex64>],
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
    charge: impl FnOnce() -> Result<()>,
) -> Result<Vec<Matrix<f64>>> {
    let shape = filter.shape();
    if xs.is_empty() || y.shape() != shape || xs.iter().any(|x| x.shape() != shape) {
        return staged_filter_diff(acc, xs, filter, y);
    }
    let out = lanes(xs, filter, y)?;
    charge()?;
    Ok(out)
}
