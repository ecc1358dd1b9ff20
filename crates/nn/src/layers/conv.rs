//! 2-D convolution layer (cross-correlation convention, square
//! kernel, configurable stride and zero padding).
//!
//! Both passes work a row at a time on the flat `as_slice()` views:
//! one tap `(ky, kx)` of one channel pair meets one output row as a
//! contiguous run of `acc += a * b`, which the compiler vectorises at
//! stride 1. What the rows may *not* change is the order in which any
//! one accumulator receives its terms: every trained weight,
//! `EpochReport` and localisation figure downstream is pinned to the
//! bit. The numerics contract is three orders, each a plain sequence
//! of `acc += a * b` (no FMA, no partial sums, no im2col regrouping —
//! `crate::im2col` is a test-only cross-reference, 1e-12 not bits):
//!
//! 1. **Output** `(oc, oy, ox)`: starts at `bias[oc]`, then takes its
//!    taps in `ic`, `ky`, `kx` ascending order.
//! 2. **`grad_bias[oc]`, `grad_weights[oc, ic, ky, kx]`**: continue
//!    from the value accumulated so far and take their terms in `oy`,
//!    `ox` ascending (row-major) order.
//! 3. **Input gradient** `(ic, sy, sx)`: starts at zero and takes its
//!    terms in `oc`, `oy`, `ox` ascending order — for a fixed `oc`
//!    that is `ky` descending, then `kx` descending.
//!
//! A tap that falls in the zero padding is *skipped*, never multiplied
//! by a padded zero: `acc + 0.0 * w` turns an accumulated `-0.0` into
//! `+0.0` and `0.0 * inf` into NaN, so the two are different functions.

use crate::layer::Layer;
use crate::tensor3::Tensor3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use xai_tensor::{Result, TensorError};

/// A multi-channel 2-D convolution layer.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_shape: (usize, usize, usize),
    /// Weights, flat `[oc][ic][ky][kx]`.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_weights: Vec<f64>,
    grad_bias: Vec<f64>,
    vel_weights: Vec<f64>,
    vel_bias: Vec<f64>,
    cached_input: Option<Tensor3>,
}

impl Conv2d {
    /// Creates a conv layer for inputs of shape
    /// `(in_channels, in_h, in_w)` with He-initialised weights drawn
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if any structural
    /// parameter is zero or the kernel doesn't fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
        seed: u64,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if in_h + 2 * padding < kernel || in_w + 2 * padding < kernel {
            return Err(TensorError::ShapeMismatch {
                left: (in_h + 2 * padding, in_w + 2 * padding),
                right: (kernel, kernel),
                op: "conv kernel larger than padded input",
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let n_weights = out_channels * in_channels * kernel * kernel;
        let weights = (0..n_weights)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_shape: (in_channels, in_h, in_w),
            weights,
            bias: vec![0.0; out_channels],
            grad_weights: vec![0.0; n_weights],
            grad_bias: vec![0.0; out_channels],
            vel_weights: vec![0.0; n_weights],
            vel_bias: vec![0.0; out_channels],
            cached_input: None,
        })
    }

    #[inline]
    fn w_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel + ky) * self.kernel + kx
    }

    fn out_hw(&self) -> (usize, usize) {
        let (_, h, w) = self.in_shape;
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }

    /// The input row that tap `ky` of output row `oy` reads, unless it
    /// lies in the padding.
    #[inline]
    fn tap_row(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy * self.stride + ky)
            .checked_sub(self.padding)
            .filter(|&sy| sy < self.in_shape.1)
    }

    /// Per `kx`: the output columns whose tap lands inside the input
    /// row (`0 <= ox·stride + kx − padding < width`), and the input
    /// column the first of them reads. A tap that only ever lands in
    /// the padding gets an empty span.
    fn tap_cols(&self) -> Vec<(Range<usize>, usize)> {
        let (iw, ow) = (self.in_shape.2, self.out_hw().1);
        (0..self.kernel)
            .map(|kx| {
                // First output column whose tap is at or past input column `x`.
                let reach = |x: usize| (x + self.padding).saturating_sub(kx).div_ceil(self.stride);
                let (lo, hi) = (reach(0), reach(iw).min(ow));
                if lo < hi {
                    (lo..hi, lo * self.stride + kx - self.padding)
                } else {
                    (0..0, 0)
                }
            })
            .collect()
    }

    /// Read-only weight view (used by explanation tooling).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// `dst[i·dst_step] += src[i·src_step] · w` for every `i` both sides
/// have. One of the steps is the layer's stride, the other 1; at
/// stride 1 this is the contiguous zip the compiler vectorises.
#[inline]
fn axpy(dst: &mut [f64], dst_step: usize, src: &[f64], src_step: usize, w: f64) {
    if dst_step == 1 && src_step == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s * w;
        }
    } else {
        let src = src.iter().step_by(src_step);
        for (d, s) in dst.iter_mut().step_by(dst_step).zip(src) {
            *d += s * w;
        }
    }
}

/// `acc + Σᵢ g[i] · src[i·stride]`, one term after the other.
#[inline]
fn dot(acc: f64, g: &[f64], src: &[f64], stride: usize) -> f64 {
    if stride == 1 {
        g.iter().zip(src).fold(acc, |acc, (g, s)| acc + g * s)
    } else {
        let src = src.iter().step_by(stride);
        g.iter().zip(src).fold(acc, |acc, (g, s)| acc + g * s)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv {}→{} {}x{} s{} p{}",
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding
        )
    }

    fn forward(&mut self, input: &Tensor3) -> Result<Tensor3> {
        if input.shape() != self.in_shape {
            return Err(TensorError::ShapeMismatch {
                left: (input.channels(), input.height() * input.width()),
                right: (self.in_shape.0, self.in_shape.1 * self.in_shape.2),
                op: "conv forward input",
            });
        }
        let (oh, ow) = self.out_hw();
        let (_, ih, iw) = self.in_shape;
        let cols = self.tap_cols();
        let x = input.as_slice();
        let mut out = Tensor3::zeros(self.out_channels, oh, ow)?;
        for (oc, plane) in out.as_mut_slice().chunks_exact_mut(oh * ow).enumerate() {
            plane.fill(self.bias[oc]);
            for ic in 0..self.in_channels {
                for ky in 0..self.kernel {
                    for (kx, (span, sx)) in cols.iter().enumerate() {
                        let w = self.weights[self.w_index(oc, ic, ky, kx)];
                        for (oy, out_row) in plane.chunks_exact_mut(ow).enumerate() {
                            let Some(sy) = self.tap_row(oy, ky) else {
                                continue;
                            };
                            let taps = &x[(ic * ih + sy) * iw..][..iw][*sx..];
                            axpy(&mut out_row[span.clone()], 1, taps, self.stride, w);
                        }
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor3) -> Result<Tensor3> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::EmptyDimension)?;
        let (oh, ow) = self.out_hw();
        if grad.shape() != (self.out_channels, oh, ow) {
            return Err(TensorError::ShapeMismatch {
                left: (grad.channels(), grad.height() * grad.width()),
                right: (self.out_channels, oh * ow),
                op: "conv backward grad",
            });
        }
        let (_, ih, iw) = self.in_shape;
        let cols = self.tap_cols();
        let x = input.as_slice();
        let mut grad_in = Tensor3::zeros(self.in_channels, ih, iw)?;
        let gin = grad_in.as_mut_slice();
        // Walking `oy` upwards outside the taps gives every weight its
        // terms row-major and every input-gradient element its terms
        // in `oy`-ascending order (one `ky` per `oy` reaches it); `kx`
        // runs downwards because that is `ox` upwards for a fixed
        // input column. Consecutive taps feed different weights, so
        // their serial sums overlap in the pipeline.
        for (oc, g_oc) in grad.as_slice().chunks_exact(oh * ow).enumerate() {
            self.grad_bias[oc] = g_oc.iter().fold(self.grad_bias[oc], |acc, g| acc + g);
            for ic in 0..self.in_channels {
                for (oy, g_row) in g_oc.chunks_exact(ow).enumerate() {
                    for ky in 0..self.kernel {
                        let Some(sy) = self.tap_row(oy, ky) else {
                            continue;
                        };
                        let row = (ic * ih + sy) * iw..(ic * ih + sy + 1) * iw;
                        let (in_row, gin_row) = (&x[row.clone()], &mut gin[row]);
                        for (kx, (span, sx)) in cols.iter().enumerate().rev() {
                            let wi = self.w_index(oc, ic, ky, kx);
                            let g = &g_row[span.clone()];
                            self.grad_weights[wi] =
                                dot(self.grad_weights[wi], g, &in_row[*sx..], self.stride);
                            axpy(&mut gin_row[*sx..], self.stride, g, 1, self.weights[wi]);
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn apply_gradients(&mut self, lr: f64, momentum: f64, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        for i in 0..self.weights.len() {
            self.vel_weights[i] =
                momentum * self.vel_weights[i] - lr * self.grad_weights[i] * scale;
            self.weights[i] += self.vel_weights[i];
            self.grad_weights[i] = 0.0;
        }
        for i in 0..self.bias.len() {
            self.vel_bias[i] = momentum * self.vel_bias[i] - lr * self.grad_bias[i] * scale;
            self.bias[i] += self.vel_bias[i];
            self.grad_bias[i] = 0.0;
        }
    }

    fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn flops_per_sample(&self) -> u64 {
        let (oh, ow) = self.out_hw();
        2 * (self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel) as u64
    }

    fn bytes_per_sample(&self) -> u64 {
        let (oh, ow) = self.out_hw();
        let (_, ih, iw) = self.in_shape;
        8 * (self.in_channels * ih * iw + self.weights.len() + self.out_channels * oh * ow) as u64
    }

    fn output_shape(&self) -> (usize, usize, usize) {
        let (oh, ow) = self.out_hw();
        (self.out_channels, oh, ow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_difference_check;

    /// The seven-loop nests this layer ran before it became row
    /// kernels, kept verbatim as the reference the differential below
    /// compares against.
    impl Conv2d {
        fn reference_forward(&mut self, input: &Tensor3) -> Result<Tensor3> {
            if input.shape() != self.in_shape {
                return Err(TensorError::ShapeMismatch {
                    left: (input.channels(), input.height() * input.width()),
                    right: (self.in_shape.0, self.in_shape.1 * self.in_shape.2),
                    op: "conv forward input",
                });
            }
            let (oh, ow) = self.out_hw();
            let (_, ih, iw) = self.in_shape;
            let mut out = Tensor3::zeros(self.out_channels, oh, ow)?;
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel {
                                let sy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if sy < 0 || sy as usize >= ih {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if sx < 0 || sx as usize >= iw {
                                        continue;
                                    }
                                    acc += input.get(ic, sy as usize, sx as usize)
                                        * self.weights[self.w_index(oc, ic, ky, kx)];
                                }
                            }
                        }
                        out.set(oc, oy, ox, acc);
                    }
                }
            }
            self.cached_input = Some(input.clone());
            Ok(out)
        }

        fn reference_backward(&mut self, grad: &Tensor3) -> Result<Tensor3> {
            let input = self
                .cached_input
                .as_ref()
                .ok_or(TensorError::EmptyDimension)?
                .clone();
            let (oh, ow) = self.out_hw();
            if grad.shape() != (self.out_channels, oh, ow) {
                return Err(TensorError::ShapeMismatch {
                    left: (grad.channels(), grad.height() * grad.width()),
                    right: (self.out_channels, oh * ow),
                    op: "conv backward grad",
                });
            }
            let (_, ih, iw) = self.in_shape;
            let mut grad_in = Tensor3::zeros(self.in_channels, ih, iw)?;
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad.get(oc, oy, ox);
                        self.grad_bias[oc] += g;
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel {
                                let sy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if sy < 0 || sy as usize >= ih {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if sx < 0 || sx as usize >= iw {
                                        continue;
                                    }
                                    let wi = self.w_index(oc, ic, ky, kx);
                                    self.grad_weights[wi] +=
                                        g * input.get(ic, sy as usize, sx as usize);
                                    grad_in.add_at(
                                        ic,
                                        sy as usize,
                                        sx as usize,
                                        g * self.weights[wi],
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Ok(grad_in)
        }
    }

    /// What the differential fills tensors with.
    #[derive(Debug, Clone, Copy)]
    enum Values {
        /// Uniform in `[-1, 1)`.
        Finite,
        /// Three in four are `-0.0`: a skipped tap keeps an
        /// accumulated `-0.0`, a tap multiplied by a padded zero
        /// does not.
        NegativeZeros,
        /// One in four is NaN, `+inf` or `-inf`: `0.0 * inf` is NaN.
        NonFinite,
    }

    fn fill(values: Values, rng: &mut StdRng, data: &mut [f64]) {
        for v in data {
            let finite = rng.random::<f64>() * 2.0 - 1.0;
            let dice = rng.random_range(0..12u32);
            *v = match (values, dice) {
                (Values::NegativeZeros, 0..=8) => -0.0,
                (Values::NonFinite, 0) => f64::NAN,
                (Values::NonFinite, 1) => f64::INFINITY,
                (Values::NonFinite, 2) => f64::NEG_INFINITY,
                _ => finite,
            };
        }
    }

    /// Bit equality, except that any NaN equals any NaN: which
    /// operand's sign and payload a NaN result inherits is not
    /// specified by the language and moves with instruction selection.
    fn assert_same_bits(what: &str, case: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what} length, {case}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{i}] = {g:e} ({:#x}), reference {w:e} ({:#x}), {case}",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn row_kernels_match_the_seven_loop_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cases = 0;
        for values in [Values::Finite, Values::NegativeZeros, Values::NonFinite] {
            for (kernel, stride, padding) in (1..=4usize)
                .flat_map(|k| (1..=3usize).map(move |s| (k, s)))
                .flat_map(|(k, s)| (0..=2usize).map(move |p| (k, s, p)))
            {
                for (ic, oc) in [(1, 1), (2, 3), (3, 2)] {
                    for (h, w) in [(1, 1), (3, 5), (6, 4), (7, 7), (8, 8)] {
                        let Ok(mut conv) = Conv2d::new(ic, oc, kernel, stride, padding, h, w, 5)
                        else {
                            continue; // kernel larger than the padded input
                        };
                        let case =
                            format!("{values:?} k{kernel} s{stride} p{padding} {ic}→{oc} {h}×{w}");
                        fill(values, &mut rng, &mut conv.weights);
                        fill(values, &mut rng, &mut conv.bias);
                        let mut reference = conv.clone();
                        let mut x = Tensor3::zeros(ic, h, w).unwrap();
                        fill(values, &mut rng, x.as_mut_slice());
                        let out = conv.forward(&x).unwrap();
                        let want = reference.reference_forward(&x).unwrap();
                        assert_eq!(out.shape(), want.shape(), "{case}");
                        assert_same_bits("output", &case, out.as_slice(), want.as_slice());
                        // Two backward passes per forward: the second
                        // accumulates onto the first, as a batch does.
                        for _ in 0..2 {
                            let mut grad = out.clone();
                            fill(values, &mut rng, grad.as_mut_slice());
                            let gin = conv.backward(&grad).unwrap();
                            let want = reference.reference_backward(&grad).unwrap();
                            assert_eq!(gin.shape(), want.shape(), "{case}");
                            assert_same_bits("grad_in", &case, gin.as_slice(), want.as_slice());
                        }
                        assert_same_bits(
                            "grad_weights",
                            &case,
                            &conv.grad_weights,
                            &reference.grad_weights,
                        );
                        assert_same_bits("grad_bias", &case, &conv.grad_bias, &reference.grad_bias);
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 1485);
    }

    #[test]
    fn identity_kernel_passes_signal_through() {
        // 1→1 channels, 1×1 kernel manually set to weight 1.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 3, 3, 0).unwrap();
        conv.weights[0] = 1.0;
        conv.bias[0] = 0.0;
        let x = Tensor3::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f64).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn output_shape_arithmetic() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 8, 8, 0).unwrap(); // same padding
        assert_eq!(conv.output_shape(), (8, 8, 8));
        let strided = Conv2d::new(3, 8, 3, 2, 1, 8, 8, 0).unwrap();
        assert_eq!(strided.output_shape(), (8, 4, 4));
        let valid = Conv2d::new(1, 1, 3, 1, 0, 8, 8, 0).unwrap();
        assert_eq!(valid.output_shape(), (1, 6, 6));
    }

    #[test]
    fn known_convolution_value() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 2, 2, 0).unwrap();
        // kernel = [[1, 2], [3, 4]], bias = 10
        conv.weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        conv.bias[0] = 10.0;
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.get(0, 0, 0), 20.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 4, 4, 42).unwrap();
        let x = Tensor3::from_fn(2, 4, 4, |c, y, x| {
            ((c * 13 + y * 5 + x * 3) % 7) as f64 / 7.0 - 0.4
        })
        .unwrap();
        let err = finite_difference_check(&mut conv, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn strided_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, 4, 4, 7).unwrap();
        let x = Tensor3::from_fn(1, 4, 4, |_, y, x| ((y * 4 + x) % 5) as f64 * 0.2).unwrap();
        let err = finite_difference_check(&mut conv, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn weight_gradient_direction_reduces_loss() {
        // One SGD step on loss = Σ out² must reduce the loss.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 4, 4, 3).unwrap();
        let x = Tensor3::from_fn(1, 4, 4, |_, y, x| ((y + x) % 3) as f64 - 1.0).unwrap();
        let loss = |c: &mut Conv2d, x: &Tensor3| -> f64 {
            let o = c.forward(x).unwrap();
            o.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let before = loss(&mut conv, &x);
        let out = conv.forward(&x).unwrap();
        let grad = out.map(|v| 2.0 * v);
        conv.backward(&grad).unwrap();
        conv.apply_gradients(0.01, 0.0, 1);
        let after = loss(&mut conv, &x);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 2, 2, 0).unwrap();
        let g = Tensor3::zeros(1, 2, 2).unwrap();
        assert!(conv.backward(&g).is_err());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 4, 4, 0).unwrap();
        let x = Tensor3::zeros(2, 4, 4).unwrap();
        assert!(conv.forward(&x).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(Conv2d::new(0, 1, 3, 1, 1, 4, 4, 0).is_err());
        assert!(Conv2d::new(1, 1, 5, 1, 0, 4, 4, 0).is_err()); // kernel > input
        assert!(Conv2d::new(1, 1, 3, 0, 1, 4, 4, 0).is_err()); // zero stride
    }

    #[test]
    fn flops_and_params_counting() {
        let conv = Conv2d::new(3, 16, 3, 1, 1, 32, 32, 0).unwrap();
        assert_eq!(conv.parameter_count(), 16 * 3 * 9 + 16);
        // 2 · 16·32·32·3·9
        assert_eq!(conv.flops_per_sample(), 2 * 16 * 32 * 32 * 3 * 9);
        assert!(conv.bytes_per_sample() > 0);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1, 1, 0).unwrap();
        conv.weights[0] = 1.0;
        let x = Tensor3::from_vec(1, 1, 1, vec![1.0]).unwrap();
        // Two identical steps with momentum: second step moves farther.
        conv.forward(&x).unwrap();
        conv.backward(&Tensor3::from_vec(1, 1, 1, vec![1.0]).unwrap())
            .unwrap();
        let w0 = conv.weights[0];
        conv.apply_gradients(0.1, 0.9, 1);
        let d1 = (conv.weights[0] - w0).abs();
        conv.forward(&x).unwrap();
        conv.backward(&Tensor3::from_vec(1, 1, 1, vec![1.0]).unwrap())
            .unwrap();
        let w1 = conv.weights[0];
        conv.apply_gradients(0.1, 0.9, 1);
        let d2 = (conv.weights[0] - w1).abs();
        assert!(d2 > d1);
    }
}
