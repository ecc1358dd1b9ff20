//! Residual block: `out = inner(x) + x` — the skip connection that
//! makes the ResNet-style benchmark model (paper §IV-A benchmark 2) a
//! genuine ResNet and not a plain stack.

use crate::layer::{accumulate_stack, backward_stack, forward_stack, Layer, Tape};
use crate::tensor3::Tensor3;
use xai_tensor::{Result, TensorError};

/// A residual block wrapping an inner layer stack with an identity
/// skip connection. The inner path must preserve the input shape.
pub struct Residual {
    path: Vec<Box<dyn Layer>>,
    in_shape: (usize, usize, usize),
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("in_shape", &self.in_shape)
            .field("path_len", &self.path.len())
            .finish()
    }
}

impl Residual {
    /// Creates a residual block.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner path does
    /// not preserve the shape (the identity skip could not be added),
    /// and [`TensorError::EmptyDimension`] for an empty path.
    pub fn new(path: Vec<Box<dyn Layer>>, in_shape: (usize, usize, usize)) -> Result<Self> {
        let last = path.last().ok_or(TensorError::EmptyDimension)?;
        if last.output_shape() != in_shape {
            return Err(TensorError::ShapeMismatch {
                left: (in_shape.0, in_shape.1 * in_shape.2),
                right: (
                    last.output_shape().0,
                    last.output_shape().1 * last.output_shape().2,
                ),
                op: "residual path must preserve shape",
            });
        }
        Ok(Residual { path, in_shape })
    }
}

impl Layer for Residual {
    fn name(&self) -> String {
        format!("residual[{} layers]", self.path.len())
    }

    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
        forward_stack(&self.path, input, tape)?.zip_with(input, |a, b| a + b)
    }

    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>> {
        let Some(g) = backward_stack(&self.path, grad, tape, input_grad)? else {
            return Ok(None);
        };
        // Skip connection adds the output gradient directly.
        g.zip_with(grad, |a, b| a + b).map(Some)
    }

    fn tape_len(&self) -> usize {
        self.path.iter().map(|l| l.tape_len()).sum()
    }

    fn accumulate(&mut self, tapes: &mut [Tape]) -> Result<()> {
        accumulate_stack(&mut self.path, tapes)
    }

    fn apply_gradients(&mut self, lr: f64, momentum: f64, batch: usize) {
        for layer in &mut self.path {
            layer.apply_gradients(lr, momentum, batch);
        }
    }

    fn parameter_count(&self) -> usize {
        self.path.iter().map(|l| l.parameter_count()).sum()
    }

    fn output_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_difference_check;
    use crate::layers::activation::Relu;
    use crate::layers::conv::Conv2d;

    fn block() -> Residual {
        let conv1 = Conv2d::new(2, 2, 3, 1, 1, 4, 4, 11).unwrap();
        let relu = Relu::new(2, 4, 4);
        let conv2 = Conv2d::new(2, 2, 3, 1, 1, 4, 4, 12).unwrap();
        Residual::new(
            vec![Box::new(conv1), Box::new(relu), Box::new(conv2)],
            (2, 4, 4),
        )
        .unwrap()
    }

    #[test]
    fn identity_path_doubles_input() {
        // The block's output is its path's output plus the skip.
        let res_conv = Conv2d::new(1, 1, 1, 1, 0, 2, 2, 0).unwrap();
        let block = Residual::new(vec![Box::new(res_conv.clone())], (1, 2, 2)).unwrap();
        let probe = Tensor3::from_vec(1, 2, 2, vec![3.0, 0.0, 0.0, 0.0]).unwrap();
        let y = block.forward(&probe, None).unwrap();
        let inner = res_conv.forward(&probe, None).unwrap();
        let expect = inner.zip_with(&probe, |a, b| a + b).unwrap();
        assert_eq!(y, expect);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let b = block();
        let x = Tensor3::from_fn(2, 4, 4, |c, y, x| {
            ((c * 3 + y * 7 + x) % 5) as f64 * 0.3 - 0.6
        })
        .unwrap();
        let err = finite_difference_check(&b, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn rejects_shape_changing_path() {
        let conv = Conv2d::new(2, 4, 3, 1, 1, 4, 4, 0).unwrap(); // 2→4 channels
        assert!(Residual::new(vec![Box::new(conv)], (2, 4, 4)).is_err());
        assert!(Residual::new(vec![], (2, 4, 4)).is_err());
    }

    #[test]
    fn counters_include_skip_add() {
        let b = block();
        assert!(b.parameter_count() > 0);
        assert_eq!(b.output_shape(), (2, 4, 4));
        assert!(b.name().contains("residual"));
    }
}
