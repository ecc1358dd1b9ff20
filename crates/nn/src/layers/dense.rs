//! Fully-connected layer over the flattened input volume.

use crate::layer::Layer;
use crate::tensor3::Tensor3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_tensor::{Result, TensorError};

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
    cached_input: Option<Tensor3>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for zero feature counts.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(TensorError::EmptyDimension);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / in_features as f64).sqrt();
        let weights = (0..in_features * out_features)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Ok(Dense {
            in_features,
            out_features,
            weights,
            bias: vec![0.0; out_features],
            grad_weights: vec![0.0; in_features * out_features],
            grad_bias: vec![0.0; out_features],
            vel_weights: vec![0.0; in_features * out_features],
            vel_bias: vec![0.0; out_features],
            cached_input: None,
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

    fn forward(&mut self, input: &Tensor3) -> Result<Tensor3> {
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
        self.cached_input = Some(input.clone());
        Tensor3::from_features(out)
    }

    fn backward(&mut self, grad: &Tensor3) -> Result<Tensor3> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::EmptyDimension)?;
        if grad.len() != self.out_features {
            return Err(TensorError::ShapeMismatch {
                left: (grad.len(), 1),
                right: (self.out_features, 1),
                op: "dense backward grad",
            });
        }
        let g = grad.as_slice();
        let x = input.as_slice();
        let mut grad_in = vec![0.0; self.in_features];
        for (o, &go) in g.iter().enumerate().take(self.out_features) {
            self.grad_bias[o] += go;
            let row = &self.weights[o * self.in_features..(o + 1) * self.in_features];
            let grow = &mut self.grad_weights[o * self.in_features..(o + 1) * self.in_features];
            for i in 0..self.in_features {
                grow[i] += go * x[i];
                grad_in[i] += go * row[i];
            }
        }
        let (c, h, w) = input.shape();
        Tensor3::from_vec(c, h, w, grad_in)
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
        2 * (self.in_features * self.out_features) as u64
    }

    fn bytes_per_sample(&self) -> u64 {
        8 * (self.in_features + self.weights.len() + self.out_features) as u64
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
        let y = d.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn accepts_volume_input_flattened() {
        let mut d = Dense::new(8, 3, 1).unwrap();
        let x = Tensor3::zeros(2, 2, 2).unwrap();
        let y = d.forward(&x).unwrap();
        assert_eq!(y.shape(), (3, 1, 1));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut d = Dense::new(6, 4, 9).unwrap();
        let x = Tensor3::from_features((0..6).map(|i| i as f64 * 0.3 - 0.8).collect()).unwrap();
        let err = finite_difference_check(&mut d, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn backward_restores_input_volume_shape() {
        let mut d = Dense::new(8, 3, 1).unwrap();
        let x = Tensor3::zeros(2, 2, 2).unwrap();
        d.forward(&x).unwrap();
        let gin = d
            .backward(&Tensor3::from_features(vec![1.0, 0.0, 0.0]).unwrap())
            .unwrap();
        assert_eq!(gin.shape(), (2, 2, 2));
    }

    #[test]
    fn shape_validation() {
        assert!(Dense::new(0, 3, 0).is_err());
        let mut d = Dense::new(4, 2, 0).unwrap();
        assert!(d.forward(&Tensor3::zeros(1, 1, 3).unwrap()).is_err());
        d.forward(&Tensor3::zeros(1, 2, 2).unwrap()).unwrap();
        assert!(d.backward(&Tensor3::zeros(1, 1, 3).unwrap()).is_err());
    }

    #[test]
    fn sgd_step_reduces_quadratic_loss() {
        let mut d = Dense::new(3, 2, 5).unwrap();
        let x = Tensor3::from_features(vec![0.5, -1.0, 2.0]).unwrap();
        let loss = |d: &mut Dense| {
            let o = d.forward(&x).unwrap();
            o.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let before = loss(&mut d);
        let o = d.forward(&x).unwrap();
        d.backward(&o.map(|v| 2.0 * v)).unwrap();
        d.apply_gradients(0.05, 0.0, 1);
        assert!(loss(&mut d) < before);
    }

    #[test]
    fn counters() {
        let d = Dense::new(10, 4, 0).unwrap();
        assert_eq!(d.parameter_count(), 44);
        assert_eq!(d.flops_per_sample(), 80);
        assert_eq!(d.output_shape(), (4, 1, 1));
        assert_eq!(d.in_features(), 10);
        assert_eq!(d.out_features(), 4);
    }
}
