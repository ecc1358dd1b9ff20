//! DFT as matrix multiplication — the representation the paper maps
//! onto the TPU's systolic array.
//!
//! Equation 10 of the paper writes the 1-D transform as `X' = W_M·x`,
//! and Equation 13 assembles the 2-D transform as
//! `X = (W_M · x) · W_N`. A systolic matrix engine evaluates both
//! products natively; this module provides the host-side reference of
//! that formulation, whose two products' shapes are what the `xai-tpu`
//! simulator is charged for (`xai-accel`'s `TpuAccel`, Algorithm 1).
//!
//! Kept because: no served request runs it (numerics run on the host
//! FFT), but the matrix form is what the *modelled* device is charged
//! for, and it is the oracle of `tests/paper_equations.rs` (Equations
//! 10–13).

use crate::norm::Norm;
use xai_tensor::ops::matmul;
use xai_tensor::{Complex64, Matrix, Result};

/// Builds the `n × n` DFT matrix `W[j,k] = s·e^{-2πi·jk/n}` where `s`
/// is the norm's forward scale.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use xai_fourier::{dft_matrix, Norm};
///
/// let w = dft_matrix(2, Norm::Backward);
/// // W₂ = [[1, 1], [1, -1]]
/// assert!((w[(1, 1)].re + 1.0).abs() < 1e-12);
/// ```
pub fn dft_matrix(n: usize, norm: Norm) -> Matrix<Complex64> {
    assert!(n > 0, "DFT matrix size must be non-zero");
    let s = norm.forward_scale(n);
    Matrix::from_fn(n, n, |j, k| {
        let jk = ((j as u128 * k as u128) % n as u128) as i64;
        Complex64::twiddle(jk, n).scale(s)
    })
    .expect("n > 0")
}

/// Builds the inverse DFT matrix with the norm's inverse scale.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn idft_matrix(n: usize, norm: Norm) -> Matrix<Complex64> {
    assert!(n > 0, "DFT matrix size must be non-zero");
    let s = norm.inverse_scale(n);
    Matrix::from_fn(n, n, |j, k| {
        let jk = ((j as u128 * k as u128) % n as u128) as i64;
        Complex64::twiddle(-jk, n).scale(s)
    })
    .expect("n > 0")
}

/// 2-D DFT via two matrix products: `X = (W_M · x) · W_N`
/// (Equation 13) — the exact computation the paper schedules onto the
/// TPU's MXU.
///
/// # Errors
///
/// Propagates matmul shape errors (cannot occur for a well-formed
/// matrix).
pub fn fft2d_via_matmul(x: &Matrix<Complex64>, norm: Norm) -> Result<Matrix<Complex64>> {
    let (m, n) = x.shape();
    let wm = dft_matrix(m, norm);
    let wn = dft_matrix(n, norm);
    // Column transforms: W_M · x ; row transforms: (·) · W_N.
    matmul(&matmul(&wm, x)?, &wn)
}

/// Inverse 2-D DFT via `x = (W_M⁻¹ · X) · W_N⁻¹`.
///
/// # Errors
///
/// Propagates matmul shape errors (cannot occur for a well-formed
/// matrix).
pub fn ifft2d_via_matmul(x: &Matrix<Complex64>, norm: Norm) -> Result<Matrix<Complex64>> {
    let (m, n) = x.shape();
    let wm = idft_matrix(m, norm);
    let wn = idft_matrix(n, norm);
    matmul(&matmul(&wm, x)?, &wn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft2d::fft2d;

    fn test_matrix(rows: usize, cols: usize) -> Matrix<Complex64> {
        Matrix::from_fn(rows, cols, |r, c| {
            Complex64::new(((r * 3 + c) % 5) as f64, ((r + c * 2) % 3) as f64)
        })
        .unwrap()
    }

    #[test]
    fn w2_is_hadamard_like() {
        let w = dft_matrix(2, Norm::Backward);
        assert!((w[(0, 0)] - Complex64::ONE).abs() < 1e-12);
        assert!((w[(0, 1)] - Complex64::ONE).abs() < 1e-12);
        assert!((w[(1, 0)] - Complex64::ONE).abs() < 1e-12);
        assert!((w[(1, 1)] + Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn dft_matrix_is_symmetric() {
        let w = dft_matrix(7, Norm::Backward);
        assert!(w.max_abs_diff(&w.transpose()).unwrap() < 1e-12);
    }

    #[test]
    fn forward_inverse_matrices_compose_to_identity() {
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let n = 6;
            let prod = matmul(&dft_matrix(n, norm), &idft_matrix(n, norm)).unwrap();
            let id = Matrix::<Complex64>::identity(n).unwrap();
            assert!(prod.max_abs_diff(&id).unwrap() < 1e-10, "{norm:?}");
        }
    }

    #[test]
    fn ortho_dft_matrix_is_unitary() {
        let n = 5;
        let w = dft_matrix(n, Norm::Ortho);
        let wh = w.conj().transpose();
        let prod = matmul(&w, &wh).unwrap();
        let id = Matrix::<Complex64>::identity(n).unwrap();
        assert!(prod.max_abs_diff(&id).unwrap() < 1e-10);
    }

    #[test]
    fn equation13_matches_fft2d() {
        for (m, n) in [(4, 4), (3, 5), (8, 6)] {
            let x = test_matrix(m, n);
            let via_matmul = fft2d_via_matmul(&x, Norm::Backward).unwrap();
            let via_fft = fft2d(&x).unwrap();
            assert!(via_matmul.max_abs_diff(&via_fft).unwrap() < 1e-9, "{m}x{n}");
        }
    }

    #[test]
    fn equation13_roundtrip() {
        let x = test_matrix(6, 4);
        for norm in [Norm::Backward, Norm::Ortho] {
            let spec = fft2d_via_matmul(&x, norm).unwrap();
            let back = ifft2d_via_matmul(&spec, norm).unwrap();
            assert!(x.max_abs_diff(&back).unwrap() < 1e-9, "{norm:?}");
        }
    }
}
