//! 8-bit integer quantisation, and bfloat16 rounding.
//!
//! The paper names quantisation as one of the two pillars of TPU
//! efficiency (§II-A): "uses 8-bit integers to approximate 16-bit or
//! 32-bit floating-point numbers". This module implements the
//! symmetric linear quantisation the TPU platform applies to both
//! operands of a matmul, and [`bf16_round`], what its operands become
//! on a bf16 MXU datapath instead.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// Parameters of a linear quantisation `q = round(x/scale) + zero_point`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value step represented by one integer step.
    pub scale: f64,
    /// Integer value representing real 0.0.
    pub zero_point: i32,
}

impl QuantParams {
    /// Symmetric parameters covering `[-max_abs, max_abs]` in int8.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantRange`] for non-finite or
    /// negative `max_abs`.
    pub fn symmetric(max_abs: f64) -> Result<Self> {
        if !max_abs.is_finite() || max_abs < 0.0 {
            return Err(TensorError::InvalidQuantRange {
                min: -max_abs,
                max: max_abs,
            });
        }
        // Degenerate all-zero tensors quantise with unit scale.
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        Ok(QuantParams {
            scale,
            zero_point: 0,
        })
    }

    /// Quantises one value to int8 with saturation.
    #[inline]
    pub fn quantize(&self, x: f64) -> i8 {
        let q = (x / self.scale).round() + self.zero_point as f64;
        q.clamp(-128.0, 127.0) as i8
    }

    /// Dequantises one int8 value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f64 {
        (q as i32 - self.zero_point) as f64 * self.scale
    }
}

/// An int8 matrix together with its quantisation parameters.
///
/// # Examples
///
/// ```
/// use xai_tensor::{Matrix, quant::QuantizedMatrix};
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let m = Matrix::from_rows(&[vec![-1.0, 0.5], vec![0.0, 1.0]])?;
/// let q = QuantizedMatrix::quantize_symmetric(&m)?;
/// let back = q.dequantize();
/// assert!(m.max_abs_diff(&back)? < 0.01); // ≤ scale/2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    values: Matrix<i8>,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Quantises with symmetric (zero-point-free) int8 parameters
    /// derived from the matrix's own dynamic range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantRange`] for non-finite data.
    pub fn quantize_symmetric(m: &Matrix<f64>) -> Result<Self> {
        // `max_abs` folds with `f64::max`, which drops a NaN: int8 has no
        // code for one, so it is refused here.
        let max_abs = if m.iter().any(|v| v.is_nan()) {
            f64::NAN
        } else {
            m.max_abs()
        };
        let params = QuantParams::symmetric(max_abs)?;
        Ok(Self::quantize_with(m, params))
    }

    /// Quantises with explicit parameters.
    pub fn quantize_with(m: &Matrix<f64>, params: QuantParams) -> Self {
        QuantizedMatrix {
            values: m.map(|x| params.quantize(x)),
            params,
        }
    }

    /// The quantised int8 values.
    pub fn values(&self) -> &Matrix<i8> {
        &self.values
    }

    /// The quantisation parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// `(rows, cols)` of the underlying matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.values.shape()
    }

    /// Reconstructs the real-valued matrix.
    pub fn dequantize(&self) -> Matrix<f64> {
        self.values.map(|q| self.params.dequantize(q))
    }

    /// Int8 matrix product with int32 accumulation, dequantised to
    /// `f64` — the arithmetic the TPU's MXU performs.
    ///
    /// Requires both operands to be symmetric (`zero_point == 0`);
    /// affine matmul needs correction terms that the MXU pipeline
    /// applies separately.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for incompatible inner
    /// dimensions and [`TensorError::InvalidQuantRange`] when either
    /// operand has a non-zero zero-point.
    pub fn matmul_dequant(&self, rhs: &QuantizedMatrix) -> Result<Matrix<f64>> {
        if self.params.zero_point != 0 || rhs.params.zero_point != 0 {
            return Err(TensorError::InvalidQuantRange {
                min: self.params.zero_point as f64,
                max: rhs.params.zero_point as f64,
            });
        }
        if self.values.cols() != rhs.values.rows() {
            return Err(TensorError::ShapeMismatch {
                left: self.values.shape(),
                right: rhs.values.shape(),
                op: "matmul_dequant",
            });
        }
        let (m, k, n) = (self.values.rows(), self.values.cols(), rhs.values.cols());
        let combined_scale = self.params.scale * rhs.params.scale;
        let mut out = Matrix::zeros(m, n)?;
        for i in 0..m {
            for j in 0..n {
                let mut acc: i32 = 0;
                for p in 0..k {
                    acc += self.values[(i, p)] as i32 * rhs.values[(p, j)] as i32;
                }
                out[(i, j)] = acc as f64 * combined_scale;
            }
        }
        Ok(out)
    }
}

/// Truncates an `f64` to bfloat16 precision (8-bit exponent, 7-bit
/// mantissa) and back — the numeric behaviour of a bf16 MXU datapath.
pub fn bf16_round(x: f64) -> f64 {
    let bits = (x as f32).to_bits();
    // Round-to-nearest-even on the dropped 16 bits.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    f32::from_bits(rounded & 0xFFFF_0000) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_behaviour() {
        // bf16 has ~3 significant decimal digits.
        assert_eq!(bf16_round(1.0), 1.0);
        assert_eq!(bf16_round(0.0), 0.0);
        let x = 1.2345678;
        let r = bf16_round(x);
        assert!((r - x).abs() < 0.01);
        assert!(r != x); // precision actually dropped
    }

    #[test]
    fn symmetric_roundtrip_error_bounded_by_half_step() {
        let m = Matrix::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 32) as f64 / 4.0 - 3.5).unwrap();
        let q = QuantizedMatrix::quantize_symmetric(&m).unwrap();
        let back = q.dequantize();
        let half_step = q.params().scale / 2.0 + 1e-12;
        assert!(m.max_abs_diff(&back).unwrap() <= half_step);
    }

    #[test]
    fn symmetric_params_map_extremes() {
        let p = QuantParams::symmetric(127.0).unwrap();
        assert_eq!(p.quantize(127.0), 127);
        assert_eq!(p.quantize(-127.0), -127);
        assert_eq!(p.quantize(0.0), 0);
        // saturation
        assert_eq!(p.quantize(1e9), 127);
        assert_eq!(p.quantize(-1e9), -128);
    }

    #[test]
    fn zero_matrix_quantises_cleanly() {
        let m = Matrix::<f64>::zeros(3, 3).unwrap();
        let q = QuantizedMatrix::quantize_symmetric(&m).unwrap();
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn invalid_range_rejected() {
        assert!(QuantParams::symmetric(f64::NAN).is_err());
        assert!(QuantParams::symmetric(f64::INFINITY).is_err());
        assert!(QuantParams::symmetric(-1.0).is_err());
        // One non-finite element, NaN included, refuses the matrix.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = Matrix::filled(4, 4, 0.5).unwrap();
            m[(1, 2)] = bad;
            let err = QuantizedMatrix::quantize_symmetric(&m).unwrap_err();
            assert!(
                matches!(err, TensorError::InvalidQuantRange { .. }),
                "{bad}"
            );
        }
    }

    #[test]
    fn quant_matmul_approximates_real_matmul() {
        use crate::ops::matmul;
        let a = Matrix::from_fn(6, 6, |r, c| ((r * 31 + c * 17) % 19) as f64 / 19.0 - 0.5).unwrap();
        let b = Matrix::from_fn(6, 6, |r, c| ((r * 7 + c * 3) % 23) as f64 / 23.0 - 0.5).unwrap();
        let qa = QuantizedMatrix::quantize_symmetric(&a).unwrap();
        let qb = QuantizedMatrix::quantize_symmetric(&b).unwrap();
        let approx = qa.matmul_dequant(&qb).unwrap();
        let exact = matmul(&a, &b).unwrap();
        // int8 matmul of 6-element dot products: error ≈ k·(scale_a+scale_b)/2
        assert!(exact.max_abs_diff(&approx).unwrap() < 0.05);
    }

    #[test]
    fn quant_matmul_rejects_affine_operands() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64).unwrap();
        let affine = QuantParams {
            scale: 0.1,
            zero_point: -128,
        };
        let qa = QuantizedMatrix::quantize_with(&m, affine);
        let qs = QuantizedMatrix::quantize_symmetric(&m).unwrap();
        assert!(qa.matmul_dequant(&qs).is_err());
        assert!(qs.matmul_dequant(&qa).is_err());
    }

    #[test]
    fn quant_matmul_shape_mismatch() {
        let a = Matrix::<f64>::zeros(2, 3).unwrap();
        let b = Matrix::<f64>::zeros(2, 3).unwrap();
        let qa = QuantizedMatrix::quantize_symmetric(&a).unwrap();
        let qb = QuantizedMatrix::quantize_symmetric(&b).unwrap();
        assert!(matches!(
            qa.matmul_dequant(&qb).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }
}
