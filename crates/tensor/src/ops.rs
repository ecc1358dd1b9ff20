//! Matrix arithmetic: general matrix multiplication (naive and
//! cache-blocked), Hadamard product, and pointwise division.
//!
//! These are exactly the three operation families the paper's task
//! transformation reduces model distillation to (§III-B): "matrix
//! convolution, point-wise division and Fourier transform only".

use crate::complex::Complex64;
use crate::error::{Result, TensorError};
use crate::matrix::{Matrix, Scalar};
use xai_parallel::global;

/// Default cache-blocking tile edge for [`matmul_blocked`].
///
/// 64×64 `f64` tiles are 32 KiB — a comfortable L1 fit on commodity
/// hardware, and the same granularity the TPU simulator uses when it
/// partitions block matrix multiplications across cores (§III-D).
pub const DEFAULT_BLOCK: usize = 64;

/// Elementwise chunk granularity for the parallel path: big enough
/// that a chunk amortises one queue round-trip many times over, small
/// enough that a 512² spectrum still splits eight ways. Fixed (never
/// derived from the worker count) so split points — and therefore
/// results and error indices — are identical on every machine.
const ELEMENTWISE_CHUNK: usize = 1 << 15;

/// Dense matrix product `A · B` using the straightforward
/// triple loop (i-k-j order so the inner loop streams rows).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless
/// `a.cols() == b.rows()`.
///
/// # Examples
///
/// ```
/// use xai_tensor::{Matrix, ops::matmul};
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let id = Matrix::identity(2)?;
/// assert_eq!(matmul(&a, &id)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul",
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n)?;
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            let b_row = b.row(p);
            for j in 0..n {
                out_row[j] += a_ip * b_row[j];
            }
        }
    }
    Ok(out)
}

/// Cache-blocked matrix product `A · B` with tile edge `block`.
///
/// Produces bit-identical results to [`matmul`] for integer scalars and
/// results equal up to floating-point reassociation for reals. This is
/// the host-side mirror of the block matrix multiplication the paper
/// partitions across TPU cores.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`,
/// and [`TensorError::EmptyDimension`] if `block == 0`.
pub fn matmul_blocked<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, block: usize) -> Result<Matrix<T>> {
    check_blocked_args(a, b, block, "matmul_blocked")?;
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n)?;
    for (bi, panel) in out.as_mut_slice().chunks_mut(block * n).enumerate() {
        matmul_panel(a, b, panel, bi * block, block);
    }
    Ok(out)
}

/// Cache-blocked matrix product with the row panels fanned out over
/// the shared [`xai_parallel`] work-stealing pool.
///
/// Bit-identical to [`matmul_blocked`] with the same `block`: the
/// split points are the `block`-row panels the serial loop already
/// iterates (never a function of the worker count), and every output
/// element accumulates its `k` products in exactly the serial order.
/// Idle pool workers steal whole panels, so ragged panel counts
/// balance. With `XAI_THREADS=1` this *is* the serial loop.
///
/// # Errors
///
/// As [`matmul_blocked`].
pub fn matmul_blocked_parallel<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    block: usize,
) -> Result<Matrix<T>> {
    check_blocked_args(a, b, block, "matmul_blocked_parallel")?;
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n)?;
    global().par_chunks_mut(out.as_mut_slice(), block * n, |bi, panel| {
        matmul_panel(a, b, panel, bi * block, block)
    });
    Ok(out)
}

/// Runs `f` on every item over the shared [`xai_parallel`] pool, one
/// task per item, and returns the results in item order.
///
/// Each item is one task running the caller's sequential code, so the
/// results do not depend on the worker count: with `XAI_THREADS=1`
/// (or one item) this is `items.into_iter().map(f).collect()`. Items
/// that own `&mut` borrows of disjoint buffers let the tasks write
/// without locks.
///
/// ```
/// let squares = xai_tensor::ops::par_map((1..=4).collect(), |v: u64| v * v);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Re-raises the first panic from `f` after every task finished.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let pool = global();
    if pool.num_threads() <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    pool.scope(|s| {
        let f = &f;
        for (item, slot) in items.into_iter().zip(&mut slots) {
            s.spawn(move || *slot = Some(f(item)));
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("the scope joined every task"))
        .collect()
}

/// Shared argument validation of the blocked matmul family; `op`
/// labels the caller in the error.
fn check_blocked_args<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    block: usize,
    op: &'static str,
) -> Result<()> {
    if block == 0 {
        return Err(TensorError::EmptyDimension);
    }
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op,
        });
    }
    Ok(())
}

/// One `block`-row output panel of a blocked matmul: `panel` holds
/// rows `row0 ..` of the product. The `pp → jj → i → p → j` loop
/// order accumulates each output element in the same sequence as the
/// historical `ii → pp → jj → i → p → j` nest (the `ii` level is the
/// panel itself), which is what keeps serial and parallel results
/// bit-identical.
fn matmul_panel<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    panel: &mut [T],
    row0: usize,
    block: usize,
) {
    let (k, n) = (a.cols(), b.cols());
    for pp in (0..k).step_by(block) {
        let p_end = (pp + block).min(k);
        for jj in (0..n).step_by(block) {
            let j_end = (jj + block).min(n);
            for (li, out_row) in panel.chunks_exact_mut(n).enumerate() {
                let a_row = a.row(row0 + li);
                for (p, &a_ip) in a_row.iter().enumerate().take(p_end).skip(pp) {
                    let b_row = b.row(p);
                    for j in jj..j_end {
                        out_row[j] += a_ip * b_row[j];
                    }
                }
            }
        }
    }
}

/// Shared skeleton of the elementwise ops: slice-iterator form (no
/// index arithmetic, so release builds elide every bounds check) with
/// large inputs fanned out in fixed [`ELEMENTWISE_CHUNK`] blocks over
/// the shared pool. Chunk boundaries never depend on the worker
/// count and `f` is pure, so serial and parallel results are
/// bit-identical.
fn zip_elementwise<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    op: &'static str,
    f: impl Fn(T, T) -> T + Sync,
) -> Result<Matrix<T>> {
    a.check_same_shape(b, op)?;
    let (xs, ys) = (a.as_slice(), b.as_slice());
    let data = if xs.len() <= ELEMENTWISE_CHUNK || global().num_threads() <= 1 {
        xs.iter().zip(ys).map(|(&x, &y)| f(x, y)).collect()
    } else {
        let mut out = vec![T::ZERO; xs.len()];
        global().par_chunks_mut(&mut out, ELEMENTWISE_CHUNK, |ci, chunk| {
            let base = ci * ELEMENTWISE_CHUNK;
            let xs = &xs[base..base + chunk.len()];
            let ys = &ys[base..base + chunk.len()];
            for ((o, &x), &y) in chunk.iter_mut().zip(xs).zip(ys) {
                *o = f(x, y);
            }
        });
        out
    };
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Elementwise (Hadamard) product `A ◦ B`.
///
/// This is the frequency-domain image of convolution
/// (`F(X∗K) = F(X) ◦ F(K)`, Equation 3 of the paper).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for differing shapes.
pub fn hadamard<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    zip_elementwise(a, b, "hadamard", |x, y| x * y)
}

/// [`hadamard`] into the left operand: `a ← a ◦ b`, no allocation.
/// Bit-identical to `hadamard(a, b)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] (op `"hadamard"`, `a`
/// untouched) for differing shapes.
pub fn hadamard_assign<T: Scalar>(a: &mut Matrix<T>, b: &Matrix<T>) -> Result<()> {
    a.check_same_shape(b, "hadamard")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x = *x * y;
    }
    Ok(())
}

/// Policy for handling zero (or numerically tiny) denominators in
/// [`pointwise_div`].
///
/// The paper's closed-form solution `K = F⁻¹(F(Y)/F(X))` (Equation 4)
/// silently assumes `F(X)` has no spectral nulls. Real data violates
/// this; the policy makes the failure mode explicit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivPolicy {
    /// Return [`TensorError::DivisionByZero`] on any `|denominator| <= tol`.
    Strict {
        /// Magnitude threshold below which a denominator counts as zero.
        tol: f64,
    },
    /// Replace the offending quotient with zero (drop the frequency bin).
    ZeroFill {
        /// Magnitude threshold below which a denominator counts as zero.
        tol: f64,
    },
    /// Clamp the denominator magnitude up to `floor` preserving phase
    /// (Tikhonov-flavoured guard; the default in the distillation
    /// solver's "naive" mode).
    Clamp {
        /// Minimum allowed denominator magnitude.
        floor: f64,
    },
}

impl Default for DivPolicy {
    fn default() -> Self {
        DivPolicy::Clamp { floor: 1e-12 }
    }
}

/// Elementwise complex division `A ⊘ B` under a [`DivPolicy`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for differing shapes and
/// [`TensorError::DivisionByZero`] under [`DivPolicy::Strict`] when a
/// denominator is (near-)zero.
pub fn pointwise_div(
    a: &Matrix<Complex64>,
    b: &Matrix<Complex64>,
    policy: DivPolicy,
) -> Result<Matrix<Complex64>> {
    a.check_same_shape(b, "pointwise_div")?;
    let (xs, ys) = (a.as_slice(), b.as_slice());
    if xs.len() <= ELEMENTWISE_CHUNK || global().num_threads() <= 1 {
        // Only Strict can fail; keeping the infallible policies out of
        // the Result-collecting iterator saves ~30% wall-clock on the
        // serial path (the error branch defeats the tight zip loop).
        let data = if matches!(policy, DivPolicy::Strict { .. }) {
            xs.iter()
                .zip(ys)
                .enumerate()
                .map(|(idx, (&num, &den))| div_one(num, den, policy, idx))
                .collect::<Result<Vec<_>>>()?
        } else {
            xs.iter()
                .zip(ys)
                .map(|(&num, &den)| {
                    div_one(num, den, policy, 0).expect("non-strict division is infallible")
                })
                .collect()
        };
        return Matrix::from_vec(a.rows(), a.cols(), data);
    }
    // Parallel path: fixed chunks, one error slot per chunk. The
    // first error in chunk order is the first error in index order,
    // so Strict mode reports the same index the serial scan would:
    // a chunk that fails stops dividing and raises the shared abort
    // flag; chunks observing the flag skip their divisions but still
    // record their own first (near-)zero denominator, if any, via a
    // cheap magnitude scan — index determinism without the wasted
    // full-matrix division pass.
    let failed = std::sync::atomic::AtomicBool::new(false);
    let mut out = vec![Complex64::ZERO; xs.len()];
    let mut errors: Vec<Option<TensorError>> = vec![None; xs.len().div_ceil(ELEMENTWISE_CHUNK)];
    global().scope(|s| {
        for ((ci, chunk), error) in out
            .chunks_mut(ELEMENTWISE_CHUNK)
            .enumerate()
            .zip(errors.iter_mut())
        {
            let (xs, ys, failed) = (&xs, &ys, &failed);
            s.spawn(move || {
                let base = ci * ELEMENTWISE_CHUNK;
                if failed.load(std::sync::atomic::Ordering::Relaxed) {
                    // An error already surfaced somewhere; the output
                    // is discarded, so only find this chunk's own
                    // first failing index (sharing div_one's exact
                    // predicate via strict_zero).
                    if let DivPolicy::Strict { tol } = policy {
                        for (off, &den) in ys[base..base + chunk.len()].iter().enumerate() {
                            if strict_zero(den.abs(), tol) {
                                *error = Some(TensorError::DivisionByZero { index: base + off });
                                break;
                            }
                        }
                    }
                    return;
                }
                for (off, o) in chunk.iter_mut().enumerate() {
                    match div_one(xs[base + off], ys[base + off], policy, base + off) {
                        Ok(q) => *o = q,
                        Err(e) => {
                            failed.store(true, std::sync::atomic::Ordering::Relaxed);
                            *error = Some(e);
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_iter().flatten().next() {
        return Err(e);
    }
    Matrix::from_vec(a.rows(), a.cols(), out)
}

/// [`DivPolicy::Strict`]'s failure predicate over a precomputed
/// denominator magnitude — the ONE definition of "this denominator
/// counts as zero", shared by [`div_one`] and the parallel path's
/// post-abort rescan so the reported error index can never depend on
/// chunk scheduling order.
#[inline]
fn strict_zero(mag: f64, tol: f64) -> bool {
    mag <= tol
}

/// One quotient under a [`DivPolicy`]; `idx` only labels the error.
#[inline]
fn div_one(num: Complex64, den: Complex64, policy: DivPolicy, idx: usize) -> Result<Complex64> {
    let mag = den.abs();
    match policy {
        DivPolicy::Strict { tol } => {
            if strict_zero(mag, tol) {
                return Err(TensorError::DivisionByZero { index: idx });
            }
            Ok(num / den)
        }
        DivPolicy::ZeroFill { tol } => {
            if mag <= tol {
                Ok(Complex64::ZERO)
            } else {
                Ok(num / den)
            }
        }
        DivPolicy::Clamp { floor } => {
            if mag < floor {
                // Preserve phase when possible; a true zero has no
                // phase, so fall back to a real floor.
                let den2 = if mag == 0.0 {
                    Complex64::from_real(floor)
                } else {
                    den.scale(floor / mag)
                };
                Ok(num / den2)
            } else {
                Ok(num / den)
            }
        }
    }
}

/// Elementwise sum `A + B`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for differing shapes.
pub fn add<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    zip_elementwise(a, b, "add", |x, y| x + y)
}

/// Elementwise difference `A - B`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for differing shapes.
pub fn sub<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    zip_elementwise(a, b, "sub", |x, y| x - y)
}

/// `y − re(p)`: the Equation-5 difference against the real part of a
/// complex prediction, without materialising `p.to_real()`.
/// Bit-identical to `sub(y, &p.to_real())`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] (op `"sub"`) for differing
/// shapes.
pub fn sub_re(y: &Matrix<f64>, p: &Matrix<Complex64>) -> Result<Matrix<f64>> {
    if y.shape() != p.shape() {
        return Err(TensorError::ShapeMismatch {
            left: y.shape(),
            right: p.shape(),
            op: "sub",
        });
    }
    let data = y.iter().zip(p.iter()).map(|(&a, z)| a - z.re).collect();
    Matrix::from_vec(y.rows(), y.cols(), data)
}

/// Scales every element by `k`.
pub fn scale<T: Scalar>(a: &Matrix<T>, k: T) -> Matrix<T> {
    a.map(|v| v * k)
}

/// Matrix–vector product `A · x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == x.len()`.
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Result<Vec<T>> {
    if a.cols() != x.len() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape(),
            right: (x.len(), 1),
            op: "matvec",
        });
    }
    Ok(a.iter_rows()
        .map(|row| {
            let mut acc = T::ZERO;
            for (&a_ij, &x_j) in row.iter().zip(x) {
                acc += a_ij * x_j;
            }
            acc
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix<f64> {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn par_map_keeps_item_order_and_writes_disjoint_borrows() {
        let mut data = vec![0u64; 40];
        let items: Vec<(usize, &mut [u64])> = data.chunks_mut(3).enumerate().collect();
        let lens = par_map(items, |(i, chunk)| {
            chunk.fill(i as u64);
            chunk.len()
        });
        assert_eq!(lens.len(), 14);
        assert_eq!(lens[13], 1);
        assert!(lens[..13].iter().all(|&n| n == 3));
        assert!(data.iter().enumerate().all(|(k, &v)| v == (k / 3) as u64));
        assert!(par_map(Vec::<u8>::new(), |v| v).is_empty());
    }

    #[test]
    fn matmul_known_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c, mat(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3).unwrap();
        assert_eq!(matmul(&a, &id).unwrap(), a);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::from_fn(2, 5, |r, c| (r + c) as f64).unwrap();
        let b = Matrix::from_fn(5, 3, |r, c| (r * c) as f64).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        // Hand-check c[1][2]: Σ_p a[1][p] * b[p][2] = Σ_p (1+p)(2p)
        let expect: f64 = (0..5).map(|p| (1 + p) as f64 * (2 * p) as f64).sum();
        assert_eq!(c[(1, 2)], expect);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::<f64>::zeros(2, 3).unwrap();
        let b = Matrix::<f64>::zeros(2, 3).unwrap();
        assert!(matches!(
            matmul(&a, &b).unwrap_err(),
            TensorError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::from_fn(17, 23, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0).unwrap();
        let b = Matrix::from_fn(23, 19, |r, c| ((r * 5 + c * 11) % 17) as f64 - 8.0).unwrap();
        let naive = matmul(&a, &b).unwrap();
        for block in [1, 2, 3, 8, 64, 100] {
            let blocked = matmul_blocked(&a, &b, block).unwrap();
            assert!(
                naive.max_abs_diff(&blocked).unwrap() < 1e-9,
                "block={block}"
            );
        }
    }

    #[test]
    fn blocked_rejects_zero_block() {
        let a = Matrix::<f64>::identity(2).unwrap();
        assert_eq!(
            matmul_blocked(&a, &a, 0).unwrap_err(),
            TensorError::EmptyDimension
        );
    }

    #[test]
    fn hadamard_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[2.0, 0.5], &[1.0, -1.0]]);
        assert_eq!(hadamard(&a, &b).unwrap(), mat(&[&[2.0, 1.0], &[3.0, -4.0]]));
    }

    #[test]
    fn in_place_twins_equal_their_allocating_ops_bit_for_bit() {
        let a = Matrix::from_fn(3, 4, |r, c| {
            Complex64::new(r as f64 - 1.0, if c == 2 { -0.0 } else { c as f64 * 0.3 })
        })
        .unwrap();
        let b = Matrix::from_fn(3, 4, |r, c| Complex64::new(c as f64 - 1.5, r as f64)).unwrap();
        let bits = |m: &Matrix<Complex64>| -> Vec<(u64, u64)> {
            m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let mut assigned = a.clone();
        hadamard_assign(&mut assigned, &b).unwrap();
        assert_eq!(bits(&assigned), bits(&hadamard(&a, &b).unwrap()));

        let y = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.25 - 1.0).unwrap();
        let fused: Vec<u64> = sub_re(&y, &a)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let staged: Vec<u64> = sub(&y, &a.to_real())
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(fused, staged);

        // Same typed errors as the allocating twins; `a` untouched.
        let wide = Matrix::filled(3, 5, Complex64::ONE).unwrap();
        assert_eq!(
            hadamard_assign(&mut assigned, &wide).unwrap_err(),
            hadamard(&a, &wide).unwrap_err()
        );
        assert_eq!(bits(&assigned), bits(&hadamard(&a, &b).unwrap()));
        assert_eq!(
            sub_re(&y, &wide).unwrap_err(),
            sub(&y, &wide.to_real()).unwrap_err()
        );
    }

    #[test]
    fn pointwise_div_strict_errors_on_zero() {
        let a = Matrix::filled(1, 2, Complex64::ONE).unwrap();
        let mut b = Matrix::filled(1, 2, Complex64::ONE).unwrap();
        b[(0, 1)] = Complex64::ZERO;
        let err = pointwise_div(&a, &b, DivPolicy::Strict { tol: 0.0 }).unwrap_err();
        assert_eq!(err, TensorError::DivisionByZero { index: 1 });
    }

    #[test]
    fn pointwise_div_zero_fill() {
        let a = Matrix::filled(1, 2, Complex64::new(2.0, 0.0)).unwrap();
        let mut b = Matrix::filled(1, 2, Complex64::ONE).unwrap();
        b[(0, 1)] = Complex64::ZERO;
        let q = pointwise_div(&a, &b, DivPolicy::ZeroFill { tol: 1e-12 }).unwrap();
        assert_eq!(q[(0, 0)], Complex64::new(2.0, 0.0));
        assert_eq!(q[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn pointwise_div_clamp_preserves_phase() {
        let a = Matrix::filled(1, 1, Complex64::ONE).unwrap();
        let b = Matrix::filled(1, 1, Complex64::new(0.0, 1e-20)).unwrap();
        let q = pointwise_div(&a, &b, DivPolicy::Clamp { floor: 1e-6 }).unwrap();
        // denominator clamped to 1e-6·i, so quotient is -1e6·i
        assert!((q[(0, 0)].im + 1e6).abs() < 1.0);
        assert!(q[(0, 0)].is_finite());
    }

    #[test]
    fn pointwise_div_clamp_handles_exact_zero() {
        let a = Matrix::filled(1, 1, Complex64::ONE).unwrap();
        let b = Matrix::filled(1, 1, Complex64::ZERO).unwrap();
        let q = pointwise_div(&a, &b, DivPolicy::default()).unwrap();
        assert!(q[(0, 0)].is_finite());
    }

    #[test]
    fn pointwise_div_exact() {
        let a = Matrix::filled(2, 2, Complex64::new(6.0, 2.0)).unwrap();
        let b = Matrix::filled(2, 2, Complex64::new(2.0, 0.0)).unwrap();
        let q = pointwise_div(&a, &b, DivPolicy::Strict { tol: 1e-12 }).unwrap();
        assert_eq!(q[(1, 1)], Complex64::new(3.0, 1.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = mat(&[&[1.0, 2.0]]);
        let b = mat(&[&[3.0, 5.0]]);
        assert_eq!(add(&a, &b).unwrap(), mat(&[&[4.0, 7.0]]));
        assert_eq!(sub(&b, &a).unwrap(), mat(&[&[2.0, 3.0]]));
        assert_eq!(scale(&a, 3.0), mat(&[&[3.0, 6.0]]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = vec![5.0, 6.0];
        assert_eq!(matvec(&a, &x).unwrap(), vec![17.0, 39.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn complex_matmul_works() {
        // (I·i) · (I·i) = -I
        let i2 = Matrix::<Complex64>::identity(2).unwrap();
        let ii = i2.map(|z| z * Complex64::I);
        let prod = matmul(&ii, &ii).unwrap();
        assert!((prod[(0, 0)] + Complex64::ONE).abs() < 1e-12);
        assert!(prod[(0, 1)].abs() < 1e-12);
    }
}
