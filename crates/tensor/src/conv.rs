//! 2-D convolution.
//!
//! The distilled model of the paper is the single convolution
//! `X ∗ K = Y` (Equation 2). For the closed-form frequency-domain
//! solution (Equation 4) to be exact the convolution must be
//! *circular*; this module provides the circular form, the reference
//! semantics of the workspace.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// Circular (cyclic) 2-D convolution of equally-shaped matrices.
///
/// `out[i,j] = Σ_{p,q} x[(i-p) mod M, (j-q) mod N] · k[p,q]`
///
/// This is the exact spatial-domain counterpart of
/// `F⁻¹(F(x) ◦ F(k))` for the DFT — the identity the whole paper
/// rests on. O(M²N²); use the FFT path in `xai-fourier` for large
/// shapes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
///
/// # Examples
///
/// ```
/// use xai_tensor::{Matrix, conv::conv2d_circular};
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// // Convolving with a delta at the origin is the identity.
/// let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64)?;
/// let mut delta = Matrix::zeros(3, 3)?;
/// delta[(0, 0)] = 1.0;
/// assert_eq!(conv2d_circular(&x, &delta)?, x);
/// # Ok(())
/// # }
/// ```
pub fn conv2d_circular(x: &Matrix<f64>, k: &Matrix<f64>) -> Result<Matrix<f64>> {
    if x.shape() != k.shape() {
        return Err(TensorError::ShapeMismatch {
            left: x.shape(),
            right: k.shape(),
            op: "conv2d_circular",
        });
    }
    let (m, n) = x.shape();
    let mut out = Matrix::zeros(m, n)?;
    // Output rows are independent, so they fan out over the shared
    // pool in fixed row blocks (a function of the shape only — the
    // determinism contract) sized so one block is ≥ ~64k MACs: one
    // output row costs m·n·n multiply-adds. Small signals stay one
    // block, i.e. serial.
    let block_rows = (1usize << 16).div_ceil(m * n * n).max(1);
    xai_parallel::global().par_chunks_mut(out.as_mut_slice(), block_rows * n, |bi, chunk| {
        let i0 = bi * block_rows;
        for (li, out_row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = i0 + li;
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..m {
                    let xi = (i + m - p) % m;
                    for q in 0..n {
                        let xj = (j + n - q) % n;
                        acc += x[(xi, xj)] * k[(p, q)];
                    }
                }
                *o = acc;
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_identity_with_delta() {
        let x = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f64).unwrap();
        let mut delta = Matrix::zeros(4, 5).unwrap();
        delta[(0, 0)] = 1.0;
        assert_eq!(conv2d_circular(&x, &delta).unwrap(), x);
    }

    #[test]
    fn circular_shift_with_displaced_delta() {
        // delta at (1,0) shifts rows down by one (cyclically)
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut delta = Matrix::zeros(2, 2).unwrap();
        delta[(1, 0)] = 1.0;
        let y = conv2d_circular(&x, &delta).unwrap();
        assert_eq!(
            y,
            Matrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 2.0]]).unwrap()
        );
    }

    #[test]
    fn circular_is_commutative() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 - 4.0).unwrap();
        let b = Matrix::from_fn(3, 3, |r, c| ((r + 2 * c) % 5) as f64).unwrap();
        let ab = conv2d_circular(&a, &b).unwrap();
        let ba = conv2d_circular(&b, &a).unwrap();
        assert!(ab.max_abs_diff(&ba).unwrap() < 1e-12);
    }

    #[test]
    fn circular_is_linear_in_kernel() {
        let x = Matrix::from_fn(3, 3, |r, c| (r + c) as f64).unwrap();
        let k1 = Matrix::from_fn(3, 3, |r, c| (r * c) as f64).unwrap();
        let k2 = Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f64).unwrap();
        let sum_k = k1.zip_with(&k2, |a, b| a + b).unwrap();
        let lhs = conv2d_circular(&x, &sum_k).unwrap();
        let rhs = conv2d_circular(&x, &k1)
            .unwrap()
            .zip_with(&conv2d_circular(&x, &k2).unwrap(), |a, b| a + b)
            .unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-12);
    }

    #[test]
    fn circular_shape_mismatch() {
        let x = Matrix::<f64>::zeros(3, 3).unwrap();
        let k = Matrix::<f64>::zeros(2, 3).unwrap();
        assert!(conv2d_circular(&x, &k).is_err());
    }
}
