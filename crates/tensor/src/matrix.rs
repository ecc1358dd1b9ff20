//! Dense row-major matrix storage.
//!
//! [`Matrix<T>`] is the workhorse container of the workspace: real
//! (`f64`) matrices carry model activations and images, complex
//! ([`Complex64`]) matrices carry spectra, and `i8`/`i32` matrices flow
//! through the quantised TPU pipeline.

use crate::complex::Complex64;
use crate::error::{Result, TensorError};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// Element types storable in a [`Matrix`].
///
/// This is a minimal numeric closure: additive/multiplicative identity
/// plus ring operations. It is sealed by convention — the workspace
/// implements it for `f32`, `f64`, `i8`, `i16`, `i32`, `i64` and
/// [`Complex64`]; downstream users can add their own types since the
/// trait is public and object-unsafe methods are avoided.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
}

macro_rules! impl_scalar {
    ($($t:ty => ($z:expr, $o:expr)),* $(,)?) => {
        $(impl Scalar for $t {
            const ZERO: Self = $z;
            const ONE: Self = $o;
        })*
    };
}

impl_scalar! {
    f32 => (0.0, 1.0),
    f64 => (0.0, 1.0),
    i8  => (0, 1),
    i16 => (0, 1),
    i32 => (0, 1),
    i64 => (0, 1),
}

impl Scalar for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    const ONE: Self = Complex64::ONE;
}

/// A dense, row-major matrix.
///
/// # Examples
///
/// ```
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// The element count of a `rows × cols` matrix, refusing an empty or
/// overflowing shape.
fn element_count(rows: usize, cols: usize) -> Result<usize> {
    if rows == 0 || cols == 0 {
        return Err(TensorError::EmptyDimension);
    }
    rows.checked_mul(cols).ok_or(TensorError::ShapeOverflow {
        dims: vec![rows, cols],
    })
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if either dimension is 0
    /// and [`TensorError::ShapeOverflow`] if `rows · cols` overflows.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        let len = element_count(rows, cols)?;
        Ok(Matrix {
            rows,
            cols,
            data: vec![T::ZERO; len],
        })
    }

    /// Creates a matrix filled with a constant value.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if either dimension is 0
    /// and [`TensorError::ShapeOverflow`] if `rows · cols` overflows.
    pub fn filled(rows: usize, cols: usize, value: T) -> Result<Self> {
        let len = element_count(rows, cols)?;
        Ok(Matrix {
            rows,
            cols,
            data: vec![value; len],
        })
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        let mut m = Self::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        Ok(m)
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when `data.len() != rows*cols`,
    /// [`TensorError::EmptyDimension`] for zero dimensions and
    /// [`TensorError::ShapeOverflow`] if `rows · cols` overflows.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        let len = element_count(rows, cols)?;
        if data.len() != len {
            return Err(TensorError::DataLength {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty row set and
    /// [`TensorError::DataLength`] for ragged rows.
    pub fn from_rows(rows: &[Vec<T>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TensorError::EmptyDimension);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::DataLength {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if either dimension is 0
    /// and [`TensorError::ShapeOverflow`] if `rows · cols` overflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use xai_tensor::Matrix;
    /// # fn main() -> Result<(), xai_tensor::TensorError> {
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64)?;
    /// assert_eq!(m[(1, 1)], 11.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Result<Self> {
        let mut data = Vec::with_capacity(element_count(rows, cols)?);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: construction forbids empty dimensions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Checked element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<&T> {
        if r < self.rows && c < self.cols {
            Some(&self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Checked mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> Option<&mut T> {
        if r < self.rows && c < self.cols {
            Some(&mut self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols)
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Vec::with_capacity(self.data.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                out.push(self.data[r * self.cols + c]);
            }
        }
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data: out,
        }
    }

    /// Applies a function to every element, producing a new matrix.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two equally-shaped matrices elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for differing shapes.
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(T, T) -> T) -> Result<Self> {
        self.check_same_shape(other, "zip_with")?;
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Extracts the sub-matrix at `(r0, c0)` of size `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the window exceeds the
    /// matrix bounds, and [`TensorError::EmptyDimension`] for an empty
    /// window.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Result<Self> {
        if h == 0 || w == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if r0 + h > self.rows || c0 + w > self.cols {
            return Err(TensorError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (r0 + h, c0 + w),
                op: "submatrix",
            });
        }
        let mut data = Vec::with_capacity(h * w);
        for r in r0..r0 + h {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + w]);
        }
        Ok(Matrix {
            rows: h,
            cols: w,
            data,
        })
    }

    /// Stacks matrices vertically (row-wise concatenation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty input and
    /// [`TensorError::ShapeMismatch`] when column counts differ.
    pub fn vstack(parts: &[Self]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::EmptyDimension)?;
        let cols = first.cols;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    left: (first.rows, cols),
                    right: (p.rows, p.cols),
                    op: "vstack",
                });
            }
        }
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    pub(crate) fn check_same_shape(&self, other: &Self, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        Ok(())
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.iter_rows().enumerate().take(max_rows) {
            writeln!(f, "  {row:?}")?;
            if i + 1 == max_rows && self.rows > max_rows {
                writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
            }
        }
        write!(f, "]")
    }
}

// --- Real-matrix specific helpers -------------------------------------

impl Matrix<f64> {
    /// Lifts a real matrix into the complex plane (zero imaginary part).
    pub fn to_complex(&self) -> Matrix<Complex64> {
        self.map(Complex64::from_real)
    }

    /// Frobenius norm `√Σ xᵢⱼ²`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Maximum absolute elementwise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for differing shapes.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        self.check_same_shape(other, "max_abs_diff")?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs())))
    }
}

impl Matrix<Complex64> {
    /// Drops imaginary parts, returning the real component matrix.
    ///
    /// Useful after an inverse FFT of data known to be real; the
    /// imaginary residue is numerical noise.
    pub fn to_real(&self) -> Matrix<f64> {
        self.map(|z| z.re)
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Self {
        self.map(Complex64::conj)
    }

    /// Maximum elementwise magnitude difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for differing shapes.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        self.check_same_shape(other, "max_abs_diff")?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((*a - *b).abs())))
    }

    /// Sum of squared magnitudes (the "energy" of a spectrum); used by
    /// Parseval-theorem property tests.
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(2, 3).unwrap();
        assert_eq!(z.shape(), (2, 3));
        assert!(z.iter().all(|&v| v == 0.0));
        let id = Matrix::<f64>::identity(3).unwrap();
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
        assert_eq!(id[(2, 2)], 1.0);
    }

    #[test]
    fn empty_dimensions_rejected() {
        assert_eq!(
            Matrix::<f64>::zeros(0, 3).unwrap_err(),
            TensorError::EmptyDimension
        );
        assert_eq!(
            Matrix::<f64>::zeros(3, 0).unwrap_err(),
            TensorError::EmptyDimension
        );
    }

    #[test]
    fn overflowing_shapes_are_refused() {
        // 2^33 × 2^31 on a 64-bit target: the product wraps to 0.
        let (rows, cols) = (
            1usize << (usize::BITS / 2 + 1),
            1usize << (usize::BITS / 2 - 1),
        );
        let overflow = TensorError::ShapeOverflow {
            dims: vec![rows, cols],
        };
        assert_eq!(
            Matrix::<f64>::from_vec(rows, cols, vec![]).unwrap_err(),
            overflow
        );
        assert_eq!(Matrix::<f64>::zeros(rows, cols).unwrap_err(), overflow);
        assert_eq!(Matrix::filled(rows, cols, 1.0).unwrap_err(), overflow);
        let m = Matrix::from_fn(rows, cols, |_, _| -> f64 {
            unreachable!("no element is built")
        });
        assert_eq!(m.unwrap_err(), overflow);
        // The largest shapes that do fit are still only a length check.
        let err = Matrix::<f64>::from_vec(usize::MAX, 1, vec![]).unwrap_err();
        assert!(matches!(err, TensorError::DataLength { actual: 0, .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert_eq!(
            Matrix::from_vec(2, 2, vec![1.0; 5]).unwrap_err(),
            TensorError::DataLength {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::DataLength { .. }));
    }

    #[test]
    fn indexing_and_rows() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64).unwrap();
        assert_eq!(m[(2, 3)], 11.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(m.col(2), vec![2.0, 6.0, 10.0]);
        assert_eq!(m.get(3, 0), None);
        assert_eq!(m.get(0, 4), None);
        assert_eq!(m.get(2, 3), Some(&11.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = Matrix::<f64>::zeros(2, 2).unwrap();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f64).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (5, 3));
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f64).unwrap();
        let doubled = a.map(|v| v * 2.0);
        assert_eq!(doubled[(1, 1)], 4.0);
        let sum = a.zip_with(&doubled, |x, y| x + y).unwrap();
        assert_eq!(sum[(1, 1)], 6.0);
    }

    #[test]
    fn zip_shape_mismatch() {
        let a = Matrix::<f64>::zeros(2, 2).unwrap();
        let b = Matrix::<f64>::zeros(2, 3).unwrap();
        assert!(matches!(
            a.zip_with(&b, |x, _| x).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64).unwrap();
        let sub = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(sub.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        assert_eq!(m.submatrix(0, 0, 4, 4).unwrap(), m);
    }

    #[test]
    fn submatrix_out_of_bounds() {
        let m = Matrix::<f64>::zeros(3, 3).unwrap();
        assert!(m.submatrix(2, 2, 2, 2).is_err());
        assert!(m.submatrix(0, 0, 0, 1).is_err());
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let v = Matrix::vstack(&[a, b]).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v[(1, 0)], 3.0);
    }

    #[test]
    fn stack_mismatches() {
        let a = Matrix::<f64>::zeros(1, 2).unwrap();
        let b = Matrix::<f64>::zeros(1, 3).unwrap();
        assert!(Matrix::vstack(&[a, b]).is_err());
        assert!(Matrix::<f64>::vstack(&[]).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.sum(), 7.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn complex_real_roundtrip() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f64).unwrap();
        assert_eq!(m.to_complex().to_real(), m);
    }

    #[test]
    fn complex_conj_energy() {
        let m = Matrix::from_fn(2, 2, |r, c| Complex64::new(r as f64, c as f64)).unwrap();
        assert_eq!(m.conj()[(1, 1)], Complex64::new(1.0, -1.0));
        // energy = Σ r² + c² over all (r,c)
        assert!((m.energy() - (0.0 + 1.0 + 1.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn iter_rows_chunks() {
        let m = Matrix::from_fn(3, 2, |r, _| r as f64).unwrap();
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let m = Matrix::<f64>::zeros(2, 2).unwrap();
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn integer_matrices_work() {
        let m = Matrix::<i8>::filled(2, 2, 7).unwrap();
        assert_eq!(m[(0, 1)], 7);
        let id = Matrix::<i32>::identity(2).unwrap();
        assert_eq!(id[(0, 0)], 1);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix<f64>>();
        assert_send_sync::<Matrix<Complex64>>();
    }
}
