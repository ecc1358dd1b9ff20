//! Sequential network container with softmax-cross-entropy training.

use crate::layer::{accumulate_stack, backward_stack, forward_stack, Layer, Tape};
use crate::tensor3::Tensor3;
use xai_tensor::ops::par_map;
use xai_tensor::{Result, TensorError};

/// Numerically-stable softmax of a logit slice.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Cross-entropy loss of softmax probabilities against a class label.
pub fn cross_entropy(probs: &[f64], label: usize) -> f64 {
    -(probs[label].max(1e-12)).ln()
}

/// A feed-forward network: an ordered stack of [`Layer`]s ending in a
/// logit vector.
///
/// # Examples
///
/// ```
/// use xai_nn::{Network, Tensor3};
/// use xai_nn::layers::Dense;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let mut net = Network::new();
/// net.push(Box::new(Dense::new(4, 3, 0)?));
/// let x = Tensor3::from_features(vec![1.0, 0.0, -1.0, 0.5])?;
/// let logits = net.forward(&x)?;
/// assert_eq!(logits.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network[{}]", self.summary())
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when no layers have been added.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// One-line architecture summary.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Forward pass to logits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty network or
    /// shape errors from the layers.
    pub fn forward(&self, input: &Tensor3) -> Result<Tensor3> {
        forward_stack(&self.layers, input, None)
    }

    /// Predicted class (argmax of logits).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict(&self, input: &Tensor3) -> Result<usize> {
        Ok(self.forward(input)?.argmax())
    }

    /// Runs one forward+backward pass for `(input, label)` and
    /// accumulates gradients: a batch of one. Returns the sample's
    /// cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; label out of range is a shape error.
    pub fn accumulate_gradients(&mut self, input: &Tensor3, label: usize) -> Result<f64> {
        Ok(self.accumulate_batch(&[(input, label)])?[0])
    }

    /// One mini-batch's gradients, accumulated onto the layers in
    /// sample order; returns each sample's loss, in order.
    ///
    /// Two phases over the host pool. First one task per sample runs
    /// its forward pass, loss and input-gradient backward pass on a
    /// tape of its own: the weights do not change until
    /// [`Network::apply_gradients`], so the samples are independent.
    /// Only when every sample has passed does each layer add the
    /// tapes' parameter gradients, each accumulator taking its
    /// samples' terms in sample order — the bits of one sample after
    /// another on one thread. The first error in sample order is
    /// returned before any accumulator is touched.
    pub(crate) fn accumulate_batch(&mut self, batch: &[(&Tensor3, usize)]) -> Result<Vec<f64>> {
        // The tapes are sized here, so their buffers are not the pool
        // workers' allocations.
        let tape_len = self.layers.iter().map(|l| l.tape_len()).sum();
        let items = batch
            .iter()
            .map(|&sample| (sample, Tape::with_capacity(tape_len)))
            .collect();
        let passes = par_map(items, |((x, label), tape)| {
            self.backward_pass(x, label, tape)
        });
        let (losses, mut tapes): (Vec<f64>, Vec<Tape>) = passes
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        accumulate_stack(&mut self.layers, &mut tapes)?;
        Ok(losses)
    }

    /// One sample's forward and backward pass: its loss and its tape.
    /// The first layer's input gradient is never computed.
    fn backward_pass(&self, input: &Tensor3, label: usize, mut tape: Tape) -> Result<(f64, Tape)> {
        let logits = forward_stack(&self.layers, input, Some(&mut tape))?;
        if label >= logits.len() {
            return Err(TensorError::ShapeMismatch {
                left: (label, 1),
                right: (logits.len(), 1),
                op: "class label out of range",
            });
        }
        let probs = softmax(logits.as_slice());
        let loss = cross_entropy(&probs, label);
        // ∂CE∘softmax/∂logit = p - 1{label}
        let mut grad = probs;
        grad[label] -= 1.0;
        let grad = Tensor3::from_features(grad)?;
        backward_stack(&self.layers, &grad, &mut tape, false)?;
        Ok((loss, tape))
    }

    /// Applies accumulated gradients (SGD + momentum, batch-averaged).
    pub fn apply_gradients(&mut self, lr: f64, momentum: f64, batch: usize) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr, momentum, batch);
        }
    }

    /// Classification accuracy over a labelled set, one pool task per
    /// sample.
    ///
    /// # Errors
    ///
    /// Propagates forward errors (the first in sample order).
    pub fn accuracy(&self, samples: &[(Tensor3, usize)]) -> Result<f64> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let hits = par_map(samples.iter().collect(), |(x, label)| {
            Ok(self.predict(x)? == *label)
        });
        let correct = hits.into_iter().collect::<Result<Vec<bool>>>()?;
        Ok(correct.iter().filter(|&&hit| hit).count() as f64 / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn tiny_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Box::new(Dense::new(4, 8, seed).unwrap()));
        net.push(Box::new(Relu::new(8, 1, 1)));
        net.push(Box::new(Dense::new(8, 2, seed + 1).unwrap()));
        net
    }

    fn xor_ish_dataset() -> Vec<(Tensor3, usize)> {
        // Linearly separable 4-feature task.
        let mk = |v: Vec<f64>, l: usize| (Tensor3::from_features(v).unwrap(), l);
        vec![
            mk(vec![1.0, 0.9, 0.0, 0.1], 0),
            mk(vec![0.8, 1.0, 0.1, 0.0], 0),
            mk(vec![0.9, 0.8, 0.2, 0.1], 0),
            mk(vec![0.0, 0.1, 1.0, 0.9], 1),
            mk(vec![0.1, 0.0, 0.9, 1.0], 1),
            mk(vec![0.2, 0.1, 0.8, 0.9], 1),
        ]
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[1001.0, 1002.0]);
        assert!((a[0] - b[0]).abs() < 1e-12);
        let huge = softmax(&[1e8, -1e8]);
        assert!(huge[0].is_finite());
    }

    #[test]
    fn cross_entropy_penalises_wrong_confidence() {
        let confident_right = cross_entropy(&[0.99, 0.01], 0);
        let confident_wrong = cross_entropy(&[0.99, 0.01], 1);
        assert!(confident_right < 0.05);
        assert!(confident_wrong > 3.0);
    }

    #[test]
    fn empty_network_errors() {
        let net = Network::new();
        assert!(net.forward(&Tensor3::zeros(1, 1, 1).unwrap()).is_err());
        assert!(net.is_empty());
    }

    #[test]
    fn training_reduces_loss_and_fits_toy_data() {
        let mut net = tiny_net(7);
        let data = xor_ish_dataset();
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..200 {
            let mut total = 0.0;
            for (x, y) in &data {
                total += net.accumulate_gradients(x, *y).unwrap();
            }
            net.apply_gradients(0.5, 0.9, data.len());
            if epoch == 0 {
                first_loss = total;
            }
            last_loss = total;
        }
        assert!(last_loss < first_loss * 0.2, "{last_loss} vs {first_loss}");
        assert_eq!(net.accuracy(&data).unwrap(), 1.0);
    }

    /// A dense layer whose input-gradient pass panics.
    struct NoInputGradient(Dense);

    impl Layer for NoInputGradient {
        fn name(&self) -> String {
            self.0.name()
        }

        fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
            self.0.forward(input, tape)
        }

        fn backward(
            &self,
            grad: &Tensor3,
            tape: &mut Tape,
            input_grad: bool,
        ) -> Result<Option<Tensor3>> {
            assert!(
                !input_grad,
                "nothing reads the first layer's input gradient"
            );
            self.0.backward(grad, tape, input_grad)
        }

        fn accumulate(&mut self, tapes: &mut [Tape]) -> Result<()> {
            self.0.accumulate(tapes)
        }

        fn apply_gradients(&mut self, lr: f64, momentum: f64, batch: usize) {
            self.0.apply_gradients(lr, momentum, batch);
        }

        fn output_shape(&self) -> (usize, usize, usize) {
            self.0.output_shape()
        }
    }

    #[test]
    fn the_first_layers_input_gradient_is_never_computed() {
        let mut net = Network::new();
        net.push(Box::new(NoInputGradient(Dense::new(4, 8, 7).unwrap())));
        net.push(Box::new(Relu::new(8, 1, 1)));
        net.push(Box::new(Dense::new(8, 2, 8).unwrap()));
        let data = xor_ish_dataset();
        let reports = crate::Trainer::new(0.5, 0.9, 3, 0)
            .fit(&mut net, &data, 40)
            .unwrap();
        assert!(reports[39].mean_loss < reports[0].mean_loss);
        assert_eq!(net.accuracy(&data).unwrap(), 1.0);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let mut net = tiny_net(0);
        let x = Tensor3::from_features(vec![0.0; 4]).unwrap();
        assert!(net.accumulate_gradients(&x, 5).is_err());
    }

    #[test]
    fn summary_and_counters() {
        let net = tiny_net(0);
        assert!(net.summary().contains("dense 4→8"));
        assert_eq!(net.len(), 3);
        assert_eq!(net.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let net = tiny_net(0);
        assert_eq!(net.accuracy(&[]).unwrap(), 0.0);
    }
}
