//! Parameter-free layers: ReLU and 2×2 max pooling.

use crate::layer::{Layer, Record, Tape};
use crate::tensor3::Tensor3;
use xai_tensor::{Result, TensorError};

/// Rectified linear unit, elementwise `max(0, x)`.
#[derive(Debug, Clone)]
pub struct Relu {
    shape: (usize, usize, usize),
}

impl Relu {
    /// Creates a ReLU for inputs of the given shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Relu {
            shape: (channels, height, width),
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_string()
    }

    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
        if input.shape() != self.shape {
            return Err(TensorError::ShapeMismatch {
                left: (input.channels(), input.height() * input.width()),
                right: (self.shape.0, self.shape.1 * self.shape.2),
                op: "relu forward input",
            });
        }
        if let Some(tape) = tape {
            tape.push(Record::Mask(
                input.as_slice().iter().map(|&v| v > 0.0).collect(),
            ));
        }
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>> {
        let Record::Mask(mask) = tape.pop()? else {
            return Err(TensorError::EmptyDimension);
        };
        if grad.len() != mask.len() {
            return Err(TensorError::ShapeMismatch {
                left: (grad.len(), 1),
                right: (mask.len(), 1),
                op: "relu backward grad",
            });
        }
        if !input_grad {
            return Ok(None);
        }
        let mut out = grad.clone();
        for (v, m) in out.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        Ok(Some(out))
    }

    fn output_shape(&self) -> (usize, usize, usize) {
        self.shape
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone)]
pub struct MaxPool2 {
    in_shape: (usize, usize, usize),
}

impl MaxPool2 {
    /// Creates a pooling layer for inputs of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for odd spatial
    /// dimensions (the layer requires exact 2×2 tiling).
    pub fn new(channels: usize, height: usize, width: usize) -> Result<Self> {
        if !height.is_multiple_of(2) || !width.is_multiple_of(2) || height == 0 || width == 0 {
            return Err(TensorError::ShapeMismatch {
                left: (height, width),
                right: (2, 2),
                op: "maxpool requires even spatial dims",
            });
        }
        Ok(MaxPool2 {
            in_shape: (channels, height, width),
        })
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> String {
        "maxpool 2x2".to_string()
    }

    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
        if input.shape() != self.in_shape {
            return Err(TensorError::ShapeMismatch {
                left: (input.channels(), input.height() * input.width()),
                right: (self.in_shape.0, self.in_shape.1 * self.in_shape.2),
                op: "maxpool forward input",
            });
        }
        let (c, h, w) = self.in_shape;
        let mut out = Tensor3::zeros(c, h / 2, w / 2)?;
        // Flat index (into the input) of each output's winning element.
        let mut argmax = Vec::with_capacity(c * (h / 2) * (w / 2));
        for ch in 0..c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    // Start from the window's own first element, so a
                    // window in which nothing compares greater (all
                    // `-inf`, all NaN) still routes its gradient to
                    // itself and not to element 0 of the tensor.
                    let mut best = input.get(ch, oy * 2, ox * 2);
                    let mut best_idx = (ch * h + oy * 2) * w + ox * 2;
                    for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                        let (y, x) = (oy * 2 + dy, ox * 2 + dx);
                        let v = input.get(ch, y, x);
                        if v > best {
                            best = v;
                            best_idx = (ch * h + y) * w + x;
                        }
                    }
                    out.set(ch, oy, ox, best);
                    argmax.push(best_idx);
                }
            }
        }
        if let Some(tape) = tape {
            tape.push(Record::Argmax(argmax));
        }
        Ok(out)
    }

    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>> {
        let Record::Argmax(argmax) = tape.pop()? else {
            return Err(TensorError::EmptyDimension);
        };
        if grad.len() != argmax.len() {
            return Err(TensorError::ShapeMismatch {
                left: (grad.len(), 1),
                right: (argmax.len(), 1),
                op: "maxpool backward grad",
            });
        }
        if !input_grad {
            return Ok(None);
        }
        let (c, h, w) = self.in_shape;
        let mut out = Tensor3::zeros(c, h, w)?;
        for (idx, &g) in argmax.into_iter().zip(grad.as_slice()) {
            out.as_mut_slice()[idx] += g;
        }
        Ok(Some(out))
    }

    fn output_shape(&self) -> (usize, usize, usize) {
        (self.in_shape.0, self.in_shape.1 / 2, self.in_shape.2 / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_difference_check;

    /// Forward with a fresh tape, then backward through it.
    fn round_trip(layer: &dyn Layer, x: &Tensor3, grad: &Tensor3) -> (Tensor3, Tensor3) {
        let mut tape = Tape::default();
        let y = layer.forward(x, Some(&mut tape)).unwrap();
        let gi = layer.backward(grad, &mut tape, true).unwrap().unwrap();
        (y, gi)
    }

    #[test]
    fn relu_clamps_negatives() {
        let relu = Relu::new(1, 2, 2);
        let x = Tensor3::from_vec(1, 2, 2, vec![-1.0, 2.0, 0.0, -0.5]).unwrap();
        let y = relu.forward(&x, None).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn relu_gradient_is_masked() {
        let relu = Relu::new(1, 2, 2);
        let x = Tensor3::from_vec(1, 2, 2, vec![-1.0, 2.0, 3.0, -0.5]).unwrap();
        let g = Tensor3::from_vec(1, 2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let (_, gi) = round_trip(&relu, &x, &g);
        assert_eq!(gi.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_fd_check_away_from_kink() {
        let relu = Relu::new(1, 3, 3);
        // Keep values away from 0 so finite differences are valid.
        let x =
            Tensor3::from_fn(1, 3, 3, |_, y, x| if (y + x) % 2 == 0 { 1.5 } else { -1.5 }).unwrap();
        let err = finite_difference_check(&relu, &x, 1e-5).unwrap();
        assert!(err < 1e-7);
    }

    #[test]
    fn maxpool_takes_maximum() {
        let pool = MaxPool2::new(1, 2, 2).unwrap();
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let y = pool.forward(&x, None).unwrap();
        assert_eq!(y.shape(), (1, 1, 1));
        assert_eq!(y.get(0, 0, 0), 5.0);
    }

    #[test]
    fn maxpool_routes_gradient_to_winner() {
        let pool = MaxPool2::new(1, 2, 2).unwrap();
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let g = Tensor3::from_vec(1, 1, 1, vec![7.0]).unwrap();
        let (_, gi) = round_trip(&pool, &x, &g);
        assert_eq!(gi.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_keeps_the_gradient_of_a_non_finite_window_in_that_window() {
        // Channel 1 is an all-`-inf` window beside an all-NaN one.
        let pool = MaxPool2::new(2, 2, 4).unwrap();
        let x = Tensor3::from_fn(2, 2, 4, |c, y, x| match (c, x < 2) {
            (0, _) => (y * 4 + x) as f64,
            (_, true) => f64::NEG_INFINITY,
            (_, false) => f64::NAN,
        })
        .unwrap();
        let grad = Tensor3::from_vec(2, 1, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (y, gi) = round_trip(&pool, &x, &grad);
        assert_eq!(y.get(1, 0, 0), f64::NEG_INFINITY);
        assert!(y.get(1, 0, 1).is_nan());
        // Channel 0: each window's gradient at its maximum, nothing else.
        assert_eq!(
            &gi.as_slice()[..8],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0]
        );
        // Channel 1: each window's gradient at its own first element.
        assert_eq!(
            &gi.as_slice()[8..],
            &[3.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn maxpool_rejects_odd_dims() {
        assert!(MaxPool2::new(1, 3, 4).is_err());
        assert!(MaxPool2::new(1, 4, 3).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let g = Tensor3::zeros(1, 1, 1).unwrap();
        let relu = Relu::new(1, 1, 1);
        assert!(relu.backward(&g, &mut Tape::default(), true).is_err());
        let pool = MaxPool2::new(1, 2, 2).unwrap();
        assert!(pool.backward(&g, &mut Tape::default(), true).is_err());
        // Each pops only its own kind of record.
        let mut tape = Tape::default();
        relu.forward(&g, Some(&mut tape)).unwrap();
        assert!(pool.backward(&g, &mut tape, true).is_err());
    }

    #[test]
    fn output_shapes() {
        assert_eq!(Relu::new(4, 8, 8).output_shape(), (4, 8, 8));
        assert_eq!(MaxPool2::new(4, 8, 8).unwrap().output_shape(), (4, 4, 4));
        assert_eq!(Relu::new(1, 1, 1).parameter_count(), 0);
    }
}
