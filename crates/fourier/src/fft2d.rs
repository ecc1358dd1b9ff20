//! 2-D DFT via row–column decomposition — the data-decomposition
//! heart of the paper (§III-C, Algorithm 1).
//!
//! `X = F₂(x)` factors as: 1-D transforms of every row, then 1-D
//! transforms of every column of the intermediate. Both passes run
//! **in place on one row-major buffer**: the row pass transforms each
//! contiguous row, and the column pass butterflies whole rows against
//! each other ([`FftPlan::forward_columns`]) — a column butterfly
//! between rows `r`, `r + l`, `r + 2l` and `r + 3l` is the same
//! arithmetic on every column, so walking it across the rows is
//! unit-stride in memory and needs no re-laid-out copy. Both passes
//! run the one kernel of [`crate::fft`], so a column's bits are its
//! 1-D transform's. [`Fft2d::forward`] is a clone plus
//! the in-place transform; a batch is that, matrix by matrix.
//!
//! Rows (and then columns) are fully independent, so they shard across
//! `p` workers with zero communication — the property Algorithm 1
//! exploits on TPU cores and [`Fft2d::forward_parallel`] exploits on
//! the host via the shared [`xai_parallel`] work-stealing pool:
//! `workers` fixes the split points, every element sees the same
//! butterflies in the same order under any split (so results are
//! bit-identical for any `workers` and any pool size), and idle pool
//! workers steal whole blocks to balance ragged splits.

use crate::norm::Norm;
use crate::plan::FftPlan;
use xai_tensor::{Complex64, Matrix, Result, TensorError};

/// A reusable 2-D DFT plan for fixed `rows × cols` shape.
#[derive(Debug, Clone)]
pub struct Fft2d {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_plan: FftPlan,
    pub(crate) col_plan: FftPlan,
}

impl Fft2d {
    /// Complex-MAC counts of one length-`cols` row transform and one
    /// length-`rows` column transform ([`FftPlan::op_count`]: the
    /// modelled radix-2 algorithm's, not the host kernel's) — the cost
    /// figures accelerator models charge, exposed here so they need not
    /// build duplicate 1-D plans just to read them.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.row_plan.op_count(), self.col_plan.op_count())
    }

    /// Builds a plan for `rows × cols` matrices.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Fft2d {
            rows,
            cols,
            row_plan: FftPlan::new(cols),
            col_plan: FftPlan::new(rows),
        }
    }

    /// Planned shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Forward 2-D transform.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x` does not match
    /// the planned shape.
    pub fn forward(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        self.transformed(x, true, 1)
    }

    /// Inverse 2-D transform.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x` does not match
    /// the planned shape.
    pub fn inverse(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        self.transformed(x, false, 1)
    }

    /// Forward 2-D transform of `x` where it lies: no allocation, no
    /// copy. Bit-identical to [`Fft2d::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] (leaving `x` untouched)
    /// when `x` does not match the planned shape.
    pub fn forward_in_place(&self, x: &mut Matrix<Complex64>) -> Result<()> {
        self.check(x, "fft2d")?;
        self.run(x, true, 1);
        Ok(())
    }

    /// Inverse 2-D transform of `x` where it lies (see
    /// [`Fft2d::forward_in_place`]).
    ///
    /// # Errors
    ///
    /// As [`Fft2d::forward_in_place`].
    pub fn inverse_in_place(&self, x: &mut Matrix<Complex64>) -> Result<()> {
        self.check(x, "fft2d")?;
        self.run(x, false, 1);
        Ok(())
    }

    /// Forward transform sharded across `workers` host threads —
    /// the software analogue of Algorithm 1's per-core row/column
    /// assignment.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a shape mismatch and
    /// [`TensorError::EmptyDimension`] if `workers == 0`.
    pub fn forward_parallel(
        &self,
        x: &Matrix<Complex64>,
        workers: usize,
    ) -> Result<Matrix<Complex64>> {
        if workers == 0 {
            return Err(TensorError::EmptyDimension);
        }
        self.transformed(x, true, workers)
    }

    /// Inverse transform sharded across `workers` host threads.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a shape mismatch and
    /// [`TensorError::EmptyDimension`] if `workers == 0`.
    pub fn inverse_parallel(
        &self,
        x: &Matrix<Complex64>,
        workers: usize,
    ) -> Result<Matrix<Complex64>> {
        if workers == 0 {
            return Err(TensorError::EmptyDimension);
        }
        self.transformed(x, false, workers)
    }

    /// Batched forward transform — the §III-D multi-input parallelism
    /// at the transform level: every matrix is an independent lane
    /// through this one plan. Results are bit-identical to calling
    /// [`Fft2d::forward`] on each matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any matrix does not
    /// match the planned shape. An empty batch yields an empty vector.
    pub fn forward_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        self.transform_batch(xs, true, 1)
    }

    /// Batched inverse transform (see [`Fft2d::forward_batch`]).
    ///
    /// # Errors
    ///
    /// As [`Fft2d::forward_batch`].
    pub fn inverse_batch(&self, xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
        self.transform_batch(xs, false, 1)
    }

    /// Batched forward transform with the matrices sharded across the
    /// host pool in `workers` contiguous groups.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if `workers == 0` and
    /// [`TensorError::ShapeMismatch`] for any shape mismatch.
    pub fn forward_batch_parallel(
        &self,
        xs: &[Matrix<Complex64>],
        workers: usize,
    ) -> Result<Vec<Matrix<Complex64>>> {
        if workers == 0 {
            return Err(TensorError::EmptyDimension);
        }
        self.transform_batch(xs, true, workers)
    }

    /// Batched inverse transform sharded across `workers` host threads.
    ///
    /// # Errors
    ///
    /// As [`Fft2d::forward_batch_parallel`].
    pub fn inverse_batch_parallel(
        &self,
        xs: &[Matrix<Complex64>],
        workers: usize,
    ) -> Result<Vec<Matrix<Complex64>>> {
        if workers == 0 {
            return Err(TensorError::EmptyDimension);
        }
        self.transform_batch(xs, false, workers)
    }

    fn check(&self, x: &Matrix<Complex64>, op: &'static str) -> Result<()> {
        if x.shape() != (self.rows, self.cols) {
            return Err(TensorError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: x.shape(),
                op,
            });
        }
        Ok(())
    }

    fn transformed(
        &self,
        x: &Matrix<Complex64>,
        fwd: bool,
        workers: usize,
    ) -> Result<Matrix<Complex64>> {
        self.check(x, "fft2d")?;
        let mut out = x.clone();
        self.run(&mut out, fwd, workers);
        Ok(out)
    }

    fn transform_batch(
        &self,
        xs: &[Matrix<Complex64>],
        fwd: bool,
        workers: usize,
    ) -> Result<Vec<Matrix<Complex64>>> {
        for x in xs {
            self.check(x, "fft2d_batch")?;
        }
        if workers <= 1 || xs.len() <= 1 {
            // Clone one, transform it while it is still in cache.
            return xs.iter().map(|x| self.transformed(x, fwd, 1)).collect();
        }
        let mut out = xs.to_vec();
        let group = xs.len().div_ceil(workers);
        xai_parallel::global().par_chunks_mut(&mut out, group, |_, lanes| {
            for x in lanes {
                self.run(x, fwd, 1);
            }
        });
        Ok(out)
    }

    /// Row pass then column pass over `x`'s own buffer. `x` has the
    /// planned shape.
    fn run(&self, x: &mut Matrix<Complex64>, fwd: bool, workers: usize) {
        let (rows, cols) = (self.rows, self.cols);
        let transform_rows = |block: &mut [Complex64]| {
            for row in block.chunks_exact_mut(cols) {
                if fwd {
                    self.row_plan.forward(row, Norm::Backward);
                } else {
                    self.row_plan.inverse(row, Norm::Backward);
                }
            }
        };
        let workers = workers.min(rows);
        if workers <= 1 {
            transform_rows(x.as_mut_slice());
        } else {
            // Fixed split points (`workers` row blocks regardless of
            // pool size — the determinism contract), balanced by idle
            // pool workers stealing whole blocks.
            let block = rows.div_ceil(workers) * cols;
            xai_parallel::global()
                .par_chunks_mut(x.as_mut_slice(), block, |_, b| transform_rows(b));
        }
        self.col_plan
            .columns(x.as_mut_slice(), cols, fwd, Norm::Backward, workers);
    }
}

/// One-shot forward 2-D DFT of a complex matrix (backward norm).
///
/// # Errors
///
/// Infallible for non-empty matrices; propagates construction errors.
pub fn fft2d(x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
    Fft2d::new(x.rows(), x.cols()).forward(x)
}

/// One-shot inverse 2-D DFT (backward norm: scales by `1/(M·N)`).
///
/// # Errors
///
/// Infallible for non-empty matrices; propagates construction errors.
pub fn ifft2d(x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
    Fft2d::new(x.rows(), x.cols()).inverse(x)
}

/// One-shot batched forward 2-D DFTs: every matrix must share one
/// shape; one plan is built and both fused passes run over the whole
/// batch (see [`Fft2d::forward_batch`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the batch mixes
/// shapes. An empty batch yields an empty vector.
pub fn fft2d_batch(xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
    match xs.first() {
        None => Ok(Vec::new()),
        Some(first) => Fft2d::new(first.rows(), first.cols()).forward_batch(xs),
    }
}

/// One-shot batched inverse 2-D DFTs (backward norm; see
/// [`fft2d_batch`]).
///
/// # Errors
///
/// As [`fft2d_batch`].
pub fn ifft2d_batch(xs: &[Matrix<Complex64>]) -> Result<Vec<Matrix<Complex64>>> {
    match xs.first() {
        None => Ok(Vec::new()),
        Some(first) => Fft2d::new(first.rows(), first.cols()).inverse_batch(xs),
    }
}

/// Circular 2-D convolution via the convolution theorem:
/// `x ∗ k = F⁻¹(F(x) ◦ F(k))`.
///
/// O((MN)·log(MN)) — the fast path for what
/// [`xai_tensor::conv::conv2d_circular`] computes directly in O(M²N²).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn convolve2d_fft(x: &Matrix<f64>, k: &Matrix<f64>) -> Result<Matrix<f64>> {
    if x.shape() != k.shape() {
        return Err(TensorError::ShapeMismatch {
            left: x.shape(),
            right: k.shape(),
            op: "convolve2d_fft",
        });
    }
    let plan = Fft2d::new(x.rows(), x.cols());
    let fx = plan.forward(&x.to_complex())?;
    let fk = plan.forward(&k.to_complex())?;
    let prod = xai_tensor::ops::hadamard(&fx, &fk)?;
    Ok(plan.inverse(&prod)?.to_real())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_tensor::conv::conv2d_circular;

    fn test_matrix(rows: usize, cols: usize) -> Matrix<Complex64> {
        Matrix::from_fn(rows, cols, |r, c| {
            Complex64::new(
                ((r * 7 + c * 3) % 11) as f64 - 5.0,
                ((r * 2 + c * 5) % 7) as f64 * 0.3,
            )
        })
        .unwrap()
    }

    /// Reference 2-D DFT straight from the definition (Equation 6 of
    /// the paper, backward norm).
    fn dft2d_reference(x: &Matrix<Complex64>) -> Matrix<Complex64> {
        let (m, n) = x.shape();
        Matrix::from_fn(m, n, |k, l| {
            let mut acc = Complex64::ZERO;
            for r in 0..m {
                for c in 0..n {
                    let w = Complex64::twiddle((r * k) as i64, m)
                        * Complex64::twiddle((c * l) as i64, n);
                    acc += x[(r, c)] * w;
                }
            }
            acc
        })
        .unwrap()
    }

    #[test]
    fn matches_definition_for_mixed_sizes() {
        for (m, n) in [(4, 4), (8, 4), (3, 5), (6, 8), (7, 7)] {
            let x = test_matrix(m, n);
            let expect = dft2d_reference(&x);
            let got = fft2d(&x).unwrap();
            assert!(expect.max_abs_diff(&got).unwrap() < 1e-8, "{m}x{n}");
        }
    }

    #[test]
    fn roundtrip() {
        let x = test_matrix(8, 12);
        let back = ifft2d(&fft2d(&x).unwrap()).unwrap();
        assert!(x.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn parallel_matches_serial() {
        let x = test_matrix(16, 16);
        let plan = Fft2d::new(16, 16);
        let serial = plan.forward(&x).unwrap();
        for workers in [1, 2, 3, 4, 16, 64] {
            let par = plan.forward_parallel(&x, workers).unwrap();
            assert!(
                serial.max_abs_diff(&par).unwrap() < 1e-10,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_inverse_roundtrip() {
        let x = test_matrix(8, 8);
        let plan = Fft2d::new(8, 8);
        let spec = plan.forward_parallel(&x, 4).unwrap();
        let back = plan.inverse_parallel(&spec, 4).unwrap();
        assert!(x.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn zero_workers_rejected() {
        let x = test_matrix(4, 4);
        let plan = Fft2d::new(4, 4);
        assert!(matches!(
            plan.forward_parallel(&x, 0).unwrap_err(),
            TensorError::EmptyDimension
        ));
        assert!(matches!(
            plan.inverse_parallel(&x, 0).unwrap_err(),
            TensorError::EmptyDimension
        ));
        assert!(matches!(
            plan.forward_batch_parallel(std::slice::from_ref(&x), 0)
                .unwrap_err(),
            TensorError::EmptyDimension
        ));
        assert!(matches!(
            plan.inverse_batch_parallel(&[x], 0).unwrap_err(),
            TensorError::EmptyDimension
        ));
    }

    #[test]
    fn oversubscribed_workers_match_serial() {
        // workers ≫ rows must clamp, not spawn empty-chunk threads.
        let x = test_matrix(3, 8);
        let plan = Fft2d::new(3, 8);
        let serial = plan.forward(&x).unwrap();
        let over = plan.forward_parallel(&x, 64).unwrap();
        assert_eq!(serial.as_slice(), over.as_slice());
    }

    #[test]
    fn batch_is_bit_identical_to_per_matrix() {
        let plan = Fft2d::new(6, 10);
        let xs: Vec<_> = (0..4)
            .map(|s| {
                Matrix::from_fn(6, 10, |r, c| {
                    Complex64::new(((r * 3 + c + s) % 7) as f64 - 2.0, (c % 3) as f64 * 0.4)
                })
                .unwrap()
            })
            .collect();
        let per: Vec<_> = xs.iter().map(|x| plan.forward(x).unwrap()).collect();
        let batch = plan.forward_batch(&xs).unwrap();
        for (a, b) in per.iter().zip(&batch) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let per_inv: Vec<_> = per.iter().map(|x| plan.inverse(x).unwrap()).collect();
        let batch_inv = plan.inverse_batch(&batch).unwrap();
        for (a, b) in per_inv.iter().zip(&batch_inv) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn batch_edge_cases() {
        let plan = Fft2d::new(4, 4);
        assert!(plan.forward_batch(&[]).unwrap().is_empty());
        let x = test_matrix(4, 4);
        let one = plan.forward_batch(std::slice::from_ref(&x)).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].as_slice(), plan.forward(&x).unwrap().as_slice());
        // A mismatched member anywhere in the batch is rejected.
        let bad = vec![x.clone(), test_matrix(4, 5)];
        assert!(matches!(
            plan.forward_batch(&bad).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn free_batch_functions_roundtrip() {
        let xs: Vec<_> = (0..3)
            .map(|s| test_matrix(5, 7).map(|z| z * Complex64::from_real(1.0 + s as f64)))
            .collect();
        let spectra = fft2d_batch(&xs).unwrap();
        let back = ifft2d_batch(&spectra).unwrap();
        for (x, b) in xs.iter().zip(&back) {
            assert!(x.max_abs_diff(b).unwrap() < 1e-9);
        }
        assert!(fft2d_batch(&[]).unwrap().is_empty());
        assert!(ifft2d_batch(&[]).unwrap().is_empty());
        let mixed = vec![test_matrix(4, 4), test_matrix(5, 4)];
        assert!(fft2d_batch(&mixed).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let plan = Fft2d::new(4, 4);
        let x = test_matrix(4, 5);
        assert!(matches!(
            plan.forward(&x).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn convolution_theorem_exact() {
        // F⁻¹(F(x)◦F(k)) must equal direct circular convolution.
        let x = Matrix::from_fn(6, 6, |r, c| ((r * 5 + c) % 7) as f64 - 3.0).unwrap();
        let k = Matrix::from_fn(6, 6, |r, c| ((r + c * 3) % 5) as f64 * 0.5).unwrap();
        let fast = convolve2d_fft(&x, &k).unwrap();
        let direct = conv2d_circular(&x, &k).unwrap();
        assert!(fast.max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn convolve_shape_mismatch() {
        let x = Matrix::<f64>::zeros(4, 4).unwrap();
        let k = Matrix::<f64>::zeros(4, 5).unwrap();
        assert!(convolve2d_fft(&x, &k).is_err());
    }

    #[test]
    fn real_input_spectrum_is_hermitian_2d() {
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 3 + c * 2) % 9) as f64).unwrap();
        let spec = fft2d(&x.to_complex()).unwrap();
        let (m, n) = spec.shape();
        for r in 0..m {
            for c in 0..n {
                let mirror = spec[((m - r) % m, (n - c) % n)].conj();
                assert!((spec[(r, c)] - mirror).abs() < 1e-9, "({r},{c})");
            }
        }
    }

    #[test]
    fn row_then_col_equals_col_then_row() {
        // Separability: the 2-D transform must not depend on axis order.
        let x = test_matrix(4, 8);
        let (m, n) = x.shape();
        // rows first (library order)
        let lib = fft2d(&x).unwrap();
        // columns first, manually
        let mut cols_first = x.transpose();
        let col_plan = FftPlan::new(m);
        for r in 0..n {
            col_plan.forward(cols_first.row_mut(r), Norm::Backward);
        }
        let mut back = cols_first.transpose();
        let row_plan = FftPlan::new(n);
        for r in 0..m {
            row_plan.forward(back.row_mut(r), Norm::Backward);
        }
        assert!(lib.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn dc_bin_is_total_sum() {
        let x = test_matrix(5, 5);
        let spec = fft2d(&x).unwrap();
        let total: Complex64 = x.iter().copied().sum();
        assert!((spec[(0, 0)] - total).abs() < 1e-9);
    }
}
