//! Fully-connected layer over the flattened input volume.

use crate::layer::{Layer, Tape};
use crate::tensor3::Tensor3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_tensor::ops::par_map;
use xai_tensor::{Result, TensorError};

/// Rows of the weight gradient per parameter-gradient task.
const ROWS_PER_TASK: usize = 8;

/// A dense (fully-connected) layer `out = W·flat(in) + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    /// Row-major `out_features × in_features`.
    weights: Vec<f64>,
    bias: Vec<f64>,
    grad_weights: Vec<f64>,
    grad_bias: Vec<f64>,
    vel_weights: Vec<f64>,
    vel_bias: Vec<f64>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for zero feature counts
    /// and [`TensorError::ShapeOverflow`] if `in_features ·
    /// out_features` overflows.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(TensorError::EmptyDimension);
        }
        let n_weights =
            in_features
                .checked_mul(out_features)
                .ok_or(TensorError::ShapeOverflow {
                    dims: vec![out_features, in_features],
                })?;
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / in_features as f64).sqrt();
        let weights = (0..n_weights)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Ok(Dense {
            in_features,
            out_features,
            weights,
            bias: vec![0.0; out_features],
            grad_weights: vec![0.0; n_weights],
            grad_bias: vec![0.0; out_features],
            vel_weights: vec![0.0; n_weights],
            vel_bias: vec![0.0; out_features],
        })
    }

    /// Input feature count (flattened volume length).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense {}→{}", self.in_features, self.out_features)
    }

    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
        if input.len() != self.in_features {
            return Err(TensorError::ShapeMismatch {
                left: (input.len(), 1),
                right: (self.in_features, 1),
                op: "dense forward input",
            });
        }
        let x = input.as_slice();
        let mut out = Vec::with_capacity(self.out_features);
        for o in 0..self.out_features {
            let row = &self.weights[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = self.bias[o];
            for (w, v) in row.iter().zip(x) {
                acc += w * v;
            }
            out.push(acc);
        }
        if let Some(tape) = tape {
            tape.push_input(input);
        }
        Tensor3::from_features(out)
    }

    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>> {
        let (input, (c, h, w)) = tape.pop_input()?;
        if grad.len() != self.out_features {
            return Err(TensorError::ShapeMismatch {
                left: (grad.len(), 1),
                right: (self.out_features, 1),
                op: "dense backward grad",
            });
        }
        let g = grad.as_slice();
        let grad_in = if input_grad {
            let mut grad_in = vec![0.0; self.in_features];
            for (row, &go) in self.weights.chunks_exact(self.in_features).zip(g) {
                for (gi, w) in grad_in.iter_mut().zip(row) {
                    *gi += go * w;
                }
            }
            Some(Tensor3::from_vec(c, h, w, grad_in)?)
        } else {
            None
        };
        let grad = tape.store(g.len(), |buf| buf.copy_from_slice(g));
        tape.push_grads(input, grad);
        Ok(grad_in)
    }

    fn tape_len(&self) -> usize {
        self.in_features + self.out_features
    }

    /// One task per block of `ROWS_PER_TASK` rows; each weight and
    /// bias takes its samples' terms in tape order.
    fn accumulate(&mut self, tapes: &mut [Tape]) -> Result<()> {
        let records = tapes
            .iter_mut()
            .map(Tape::pop_grads)
            .collect::<Result<Vec<_>>>()?;
        let n = self.in_features;
        let units: Vec<_> = self
            .grad_weights
            .chunks_mut(ROWS_PER_TASK * n)
            .zip(self.grad_bias.chunks_mut(ROWS_PER_TASK))
            .enumerate()
            .collect();
        par_map(units, |(u, (grad_rows, grad_bias))| {
            for (x, g) in &records {
                let g = &g[u * ROWS_PER_TASK..];
                for ((grow, gb), &go) in grad_rows.chunks_exact_mut(n).zip(&mut *grad_bias).zip(g) {
                    *gb += go;
                    for (gw, v) in grow.iter_mut().zip(*x) {
                        *gw += go * v;
                    }
                }
            }
        });
        Ok(())
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

    fn output_shape(&self) -> (usize, usize, usize) {
        (self.out_features, 1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_difference_check;

    #[test]
    fn forward_is_affine_map() {
        let mut d = Dense::new(2, 2, 0).unwrap();
        d.weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.bias.copy_from_slice(&[10.0, 20.0]);
        let x = Tensor3::from_features(vec![1.0, 1.0]).unwrap();
        let y = d.forward(&x, None).unwrap();
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn accepts_volume_input_flattened() {
        let d = Dense::new(8, 3, 1).unwrap();
        let x = Tensor3::zeros(2, 2, 2).unwrap();
        let y = d.forward(&x, None).unwrap();
        assert_eq!(y.shape(), (3, 1, 1));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = Dense::new(6, 4, 9).unwrap();
        let x = Tensor3::from_features((0..6).map(|i| i as f64 * 0.3 - 0.8).collect()).unwrap();
        let err = finite_difference_check(&d, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn backward_restores_input_volume_shape() {
        let d = Dense::new(8, 3, 1).unwrap();
        let x = Tensor3::zeros(2, 2, 2).unwrap();
        let mut tape = Tape::default();
        d.forward(&x, Some(&mut tape)).unwrap();
        let g = Tensor3::from_features(vec![1.0, 0.0, 0.0]).unwrap();
        let gin = d.backward(&g, &mut tape, true).unwrap().unwrap();
        assert_eq!(gin.shape(), (2, 2, 2));
    }

    #[test]
    fn shape_validation() {
        assert!(Dense::new(0, 3, 0).is_err());
        let d = Dense::new(4, 2, 0).unwrap();
        assert!(d.forward(&Tensor3::zeros(1, 1, 3).unwrap(), None).is_err());
        let mut tape = Tape::default();
        d.forward(&Tensor3::zeros(1, 2, 2).unwrap(), Some(&mut tape))
            .unwrap();
        let g = Tensor3::zeros(1, 1, 3).unwrap();
        assert!(d.backward(&g, &mut tape, true).is_err());
        assert!(d.backward(&g, &mut Tape::default(), true).is_err());
    }

    #[test]
    fn overflowing_weight_counts_are_refused() {
        // (2^32, 2^32) on a 64-bit target: the product wraps to 0.
        let half = 1usize << (usize::BITS / 2);
        assert_eq!(
            Dense::new(half, half, 0).unwrap_err(),
            TensorError::ShapeOverflow {
                dims: vec![half, half]
            }
        );
    }

    /// The parameter gradients of a batch, with more rows than one
    /// task holds: each weight takes its samples' terms in sample
    /// order, as one sample after another on one thread would add them.
    #[test]
    fn batch_gradients_match_sample_by_sample_accumulation() {
        let mut batched = Dense::new(5, 19, 3).unwrap();
        let mut serial = batched.clone();
        let samples: Vec<(Tensor3, Tensor3)> = (0..5)
            .map(|s| {
                let x = Tensor3::from_fn(5, 1, 1, |c, _, _| (c * 7 + s) as f64 * 0.1 - 1.3);
                let g = Tensor3::from_fn(19, 1, 1, |c, _, _| ((c * 3 + s) % 5) as f64 - 2.1);
                (x.unwrap(), g.unwrap())
            })
            .collect();
        let mut tapes: Vec<Tape> = samples
            .iter()
            .map(|(x, g)| {
                let mut tape = Tape::default();
                batched.forward(x, Some(&mut tape)).unwrap();
                batched.backward(g, &mut tape, false).unwrap();
                tape
            })
            .collect();
        batched.accumulate(&mut tapes).unwrap();
        for (x, g) in &samples {
            for o in 0..19 {
                let go = g.as_slice()[o];
                serial.grad_bias[o] += go;
                for i in 0..5 {
                    serial.grad_weights[o * 5 + i] += go * x.as_slice()[i];
                }
            }
        }
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched.grad_weights), bits(&serial.grad_weights));
        assert_eq!(bits(&batched.grad_bias), bits(&serial.grad_bias));
    }

    #[test]
    fn sgd_step_reduces_quadratic_loss() {
        let mut d = Dense::new(3, 2, 5).unwrap();
        let x = Tensor3::from_features(vec![0.5, -1.0, 2.0]).unwrap();
        let loss = |d: &Dense| {
            let o = d.forward(&x, None).unwrap();
            o.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let before = loss(&d);
        let mut tape = Tape::default();
        let o = d.forward(&x, Some(&mut tape)).unwrap();
        d.backward(&o.map(|v| 2.0 * v), &mut tape, true).unwrap();
        d.accumulate(std::slice::from_mut(&mut tape)).unwrap();
        d.apply_gradients(0.05, 0.0, 1);
        assert!(loss(&d) < before);
    }

    #[test]
    fn counters() {
        let d = Dense::new(10, 4, 0).unwrap();
        assert_eq!(d.parameter_count(), 44);
        assert_eq!(d.output_shape(), (4, 1, 1));
        assert_eq!(d.in_features(), 10);
        assert_eq!(d.out_features(), 4);
    }
}
