//! The fused filter-diff lane, `y − re(ifft2(fft2(x) ∘ filter))` in
//! one working buffer — the only place that sequence is written. A
//! queued flight runs [`lane`] in each job's own buffer; the built-in
//! platforms' unqueued [`Accelerator::filter_diff_batch`] runs it over
//! the host pool ([`fused`]) and replays the staged chain's charges.

use crate::traits::{staged_filter_diff, Accelerator};
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result, TensorError};

/// One lane, in place in `buf`: forward → Hadamard → inverse → `y − re`
/// straight into the result. Per element this is exactly the staged
/// `fft2d → hadamard → ifft2d → to_real → sub` arithmetic, bit for bit.
pub(crate) fn lane(
    buf: &mut Matrix<Complex64>,
    filter: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Matrix<f64>> {
    let plan = global_plan_cache().plan_2d(buf.rows(), buf.cols());
    plan.forward_in_place(buf)?;
    ops::hadamard_assign(buf, filter)?;
    plan.inverse_in_place(buf)?;
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
