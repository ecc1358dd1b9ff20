//! im2col: convolution as matrix multiplication.
//!
//! The reason "a large portion of ML models … are mainly composed of
//! convolution layers" (paper §III-B) runs fast on a TPU is that
//! convolutions lower to matrix products: every receptive-field patch
//! becomes a matrix row, the kernels become columns, and one matmul
//! computes all output positions for all output channels. This module
//! implements that lowering and verifies it against the direct layer.
//!
//! It is the paper's lowering kept as a test-only cross-reference
//! (`#[cfg(test)]`: not in the public API, not in a release build) —
//! an independent, matmul-regrouped check of `Conv2d` — and not the
//! product path: a matmul regroups each output's sum (and multiplies
//! padded taps by zero where [`Conv2d`](crate::layers::Conv2d) skips
//! them), so the two agree to a tolerance, not to the bit, and every
//! trained weight in the tree is pinned to `Conv2d`'s accumulation
//! order.

use crate::tensor3::Tensor3;
use xai_tensor::{Matrix, Result, TensorError};

/// Lowers a padded input volume into the im2col patch matrix:
/// one row per output position, one column per
/// `(in_channel, ky, kx)` weight.
///
/// Output shape: `(out_h · out_w) × (channels · kernel²)`.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for a zero `stride` or
/// `kernel`, and [`TensorError::ShapeMismatch`] when the kernel does
/// not fit the padded input.
pub fn im2col(
    input: &Tensor3,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Matrix<f64>> {
    if kernel == 0 || stride == 0 {
        return Err(TensorError::EmptyDimension);
    }
    let (c, h, w) = input.shape();
    if h + 2 * padding < kernel || w + 2 * padding < kernel {
        return Err(TensorError::ShapeMismatch {
            left: (h + 2 * padding, w + 2 * padding),
            right: (kernel, kernel),
            op: "im2col kernel larger than padded input",
        });
    }
    let oh = (h + 2 * padding - kernel) / stride + 1;
    let ow = (w + 2 * padding - kernel) / stride + 1;
    let mut out = Matrix::zeros(oh * ow, c * kernel * kernel)?;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            for ch in 0..c {
                for ky in 0..kernel {
                    let sy = (oy * stride + ky) as isize - padding as isize;
                    for kx in 0..kernel {
                        let sx = (ox * stride + kx) as isize - padding as isize;
                        let col = (ch * kernel + ky) * kernel + kx;
                        if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                            out[(row, col)] = input.get(ch, sy as usize, sx as usize);
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Convolution by lowering: `im2col(x) · Wᵀ` where `W` is the
/// `out_channels × (in_channels · kernel²)` weight matrix — the exact
/// computation a systolic MXU performs for a conv layer.
///
/// Returns the `out_channels × out_h × out_w` volume.
///
/// # Errors
///
/// Propagates [`im2col`] errors and shape mismatches between the
/// patch matrix and the weights.
pub fn conv_via_matmul(
    input: &Tensor3,
    weights: &Matrix<f64>,
    bias: &[f64],
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor3> {
    let (_, h, w) = input.shape();
    let oh = (h + 2 * padding - kernel) / stride + 1;
    let ow = (w + 2 * padding - kernel) / stride + 1;
    let out_channels = weights.rows();
    if bias.len() != out_channels {
        return Err(TensorError::ShapeMismatch {
            left: (bias.len(), 1),
            right: (out_channels, 1),
            op: "conv bias length",
        });
    }
    let patches = im2col(input, kernel, stride, padding)?;
    // (oh·ow × ckk) · (ckk × out_c)
    let product = xai_tensor::ops::matmul(&patches, &weights.transpose())?;
    let mut out = Tensor3::zeros(out_channels, oh, ow)?;
    for oc in 0..out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                out.set(oc, oy, ox, product[(oy * ow + ox, oc)] + bias[oc]);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::Conv2d;

    #[test]
    fn patch_matrix_shape_and_content() {
        // 1 channel, 3×3 input, 2×2 kernel, no padding → 4 patches.
        let x = Tensor3::from_fn(1, 3, 3, |_, y, c| (y * 3 + c) as f64).unwrap();
        let p = im2col(&x, 2, 1, 0).unwrap();
        assert_eq!(p.shape(), (4, 4));
        // First patch is the top-left 2×2 window.
        assert_eq!(p.row(0), &[0.0, 1.0, 3.0, 4.0]);
        // Last patch is the bottom-right window.
        assert_eq!(p.row(3), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn padding_zero_fills() {
        let x = Tensor3::from_fn(1, 2, 2, |_, y, c| (y * 2 + c + 1) as f64).unwrap();
        let p = im2col(&x, 3, 1, 1).unwrap();
        assert_eq!(p.shape(), (4, 9));
        // Patch (0,0) has zeros along its top and left borders.
        assert_eq!(p[(0, 0)], 0.0);
        assert_eq!(p[(0, 4)], 1.0); // centre = input (0,0)
    }

    #[test]
    fn lowered_conv_matches_direct_layer() {
        // Run the same weights through Conv2d's loops and the matmul
        // lowering; results must agree to machine precision.
        let layer = Conv2d::new(2, 3, 3, 1, 1, 5, 5, 17).unwrap();
        let x = Tensor3::from_fn(2, 5, 5, |c, y, xx| {
            ((c * 11 + y * 3 + xx * 7) % 13) as f64 * 0.2 - 1.0
        })
        .unwrap();
        let direct = layer.forward(&x, None).unwrap();
        // Rebuild the weight matrix in im2col layout.
        let w = Matrix::from_vec(3, 2 * 9, layer.weights().to_vec()).unwrap();
        let lowered = conv_via_matmul(&x, &w, &[0.0; 3], 3, 1, 1).unwrap();
        assert_eq!(direct.shape(), lowered.shape());
        let max_err = direct
            .as_slice()
            .iter()
            .zip(lowered.as_slice())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(max_err < 1e-12, "max err {max_err}");
    }

    #[test]
    fn strided_lowering_matches_direct_layer() {
        let layer = Conv2d::new(1, 2, 2, 2, 0, 6, 6, 3).unwrap();
        let x = Tensor3::from_fn(1, 6, 6, |_, y, xx| ((y * 5 + xx) % 7) as f64 * 0.3).unwrap();
        let direct = layer.forward(&x, None).unwrap();
        let w = Matrix::from_vec(2, 4, layer.weights().to_vec()).unwrap();
        let lowered = conv_via_matmul(&x, &w, &[0.0; 2], 2, 2, 0).unwrap();
        let max_err = direct
            .as_slice()
            .iter()
            .zip(lowered.as_slice())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(max_err < 1e-12);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor3::zeros(1, 3, 3).unwrap();
        let w = Matrix::zeros(2, 9).unwrap();
        let out = conv_via_matmul(&x, &w, &[1.5, -2.0], 3, 1, 1).unwrap();
        assert_eq!(out.get(0, 1, 1), 1.5);
        assert_eq!(out.get(1, 0, 0), -2.0);
    }

    #[test]
    fn validation() {
        let x = Tensor3::zeros(1, 3, 3).unwrap();
        assert!(im2col(&x, 0, 1, 0).is_err());
        assert!(im2col(&x, 2, 0, 0).is_err());
        assert!(im2col(&x, 5, 1, 0).is_err());
        let w = Matrix::zeros(2, 9).unwrap();
        assert!(conv_via_matmul(&x, &w, &[0.0], 3, 1, 1).is_err()); // bias len
    }
}
