//! The [`Layer`] abstraction: explicit forward/backward passes whose
//! per-sample state lives on a [`Tape`] the caller owns — no autograd,
//! every gradient is written out by hand and unit-tested against
//! finite differences.

use crate::tensor3::Tensor3;
use std::ops::Range;
use xai_tensor::{Result, TensorError};

/// One layer's forward record on a [`Tape`].
#[derive(Debug, Clone)]
pub(crate) enum Record {
    /// The input of a layer with parameters: where its values sit in
    /// the tape's buffer, and its shape.
    Input(Range<usize>, (usize, usize, usize)),
    /// Which inputs a ReLU passed.
    Mask(Vec<bool>),
    /// Flat input index of each pooled output's winner.
    Argmax(Vec<usize>),
}

/// What one sample's pass through a layer stack leaves behind, owned by
/// the batch step rather than by any layer, so that the samples of a
/// batch can run side by side through shared (`&self`) layers.
///
/// A forward pass pushes each layer's record; the backward pass pops
/// them in reverse order and leaves each parameter layer's gradient
/// operands (its input and its output gradient), which
/// [`Layer::accumulate`] then takes in forward order. Those operands
/// live in one buffer that a batch step sizes with [`Layer::tape_len`]
/// on its own thread, so a pool worker that runs the pass writes into
/// it and does not grow its own heap by them.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    values: Vec<f64>,
    saved: Vec<Record>,
    grads: Vec<(Range<usize>, Range<usize>)>,
}

impl Tape {
    /// A tape whose buffer holds `values` values without growing.
    pub(crate) fn with_capacity(values: usize) -> Tape {
        Tape {
            values: Vec::with_capacity(values),
            ..Tape::default()
        }
    }

    pub(crate) fn push(&mut self, record: Record) {
        self.saved.push(record);
    }

    /// The most recent forward record; an error when there is none
    /// (backward without a recorded forward).
    pub(crate) fn pop(&mut self) -> Result<Record> {
        self.saved.pop().ok_or(TensorError::EmptyDimension)
    }

    /// Records a layer's input.
    pub(crate) fn push_input(&mut self, input: &Tensor3) {
        let range = self.store(input.as_slice().len(), |buf| {
            buf.copy_from_slice(input.as_slice());
        });
        self.push(Record::Input(range, input.shape()));
    }

    /// The most recent forward record, which must be an input.
    pub(crate) fn pop_input(&mut self) -> Result<(Range<usize>, (usize, usize, usize))> {
        match self.pop()? {
            Record::Input(range, shape) => Ok((range, shape)),
            _ => Err(TensorError::EmptyDimension),
        }
    }

    /// Appends `len` values to the buffer, written by `fill`.
    pub(crate) fn store(&mut self, len: usize, fill: impl FnOnce(&mut [f64])) -> Range<usize> {
        let start = self.values.len();
        self.values.resize(start + len, 0.0);
        fill(&mut self.values[start..]);
        start..start + len
    }

    /// Leaves a parameter layer's gradient operands: its input and its
    /// output gradient, both in the buffer.
    pub(crate) fn push_grads(&mut self, input: Range<usize>, grad: Range<usize>) {
        self.grads.push((input, grad));
    }

    /// The gradient operands of the first parameter layer not yet
    /// accumulated: `(input, output gradient)`.
    pub(crate) fn pop_grads(&mut self) -> Result<(&[f64], &[f64])> {
        let (input, grad) = self.grads.pop().ok_or(TensorError::EmptyDimension)?;
        Ok((&self.values[input], &self.values[grad]))
    }
}

/// One differentiable network layer.
///
/// The contract: `forward` and `backward` read the layer and write
/// only the sample's [`Tape`], so any number of samples may run them
/// at once. `backward` pops the records of that sample's forward pass,
/// returns the gradient with respect to its input and leaves the
/// parameter-gradient operands on the tape; `accumulate` adds those of
/// a whole batch onto the layer's gradients, in sample order;
/// `apply_gradients` consumes the accumulated gradients (SGD with
/// momentum) and clears them.
pub trait Layer: Send + Sync {
    /// Layer name for summaries (e.g. `"conv 3->16 3x3"`).
    fn name(&self) -> String;

    /// Computes the layer output, recording on `tape` (when given)
    /// what the backward pass needs.
    ///
    /// # Errors
    ///
    /// Shape mismatch between the input and the layer's expectation.
    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3>;

    /// Backpropagates `grad` (∂loss/∂output) through the forward pass
    /// recorded last on `tape`, leaving the parameter-gradient
    /// operands there. Returns ∂loss/∂input, or `None` without
    /// computing it when `input_grad` is `false` (nothing reads the
    /// input gradient of a network's first layer).
    ///
    /// # Errors
    ///
    /// Shape mismatch, or a tape without this layer's forward record.
    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>>;

    /// How many values one sample's pass leaves in its tape's buffer
    /// (a parameter layer's input and output gradient). Layers without
    /// parameters leave none.
    fn tape_len(&self) -> usize {
        0
    }

    /// Accumulates the parameter gradients left on `tapes`, one tape
    /// per sample, in tape order. Layers without parameters do
    /// nothing.
    ///
    /// # Errors
    ///
    /// A tape without this layer's backward record.
    fn accumulate(&mut self, _tapes: &mut [Tape]) -> Result<()> {
        Ok(())
    }

    /// Applies accumulated gradients with learning rate `lr` and
    /// momentum `momentum` (averaged over `batch` samples), then
    /// clears them. Layers without parameters do nothing.
    fn apply_gradients(&mut self, _lr: f64, _momentum: f64, _batch: usize) {}

    /// Number of trainable parameters.
    fn parameter_count(&self) -> usize {
        0
    }

    /// Output shape for the configured input shape.
    fn output_shape(&self) -> (usize, usize, usize);
}

/// A stack's forward pass, layer by layer.
pub(crate) fn forward_stack(
    layers: &[Box<dyn Layer>],
    input: &Tensor3,
    mut tape: Option<&mut Tape>,
) -> Result<Tensor3> {
    let (first, rest) = layers.split_first().ok_or(TensorError::EmptyDimension)?;
    let mut h = first.forward(input, tape.as_deref_mut())?;
    for layer in rest {
        h = layer.forward(&h, tape.as_deref_mut())?;
    }
    Ok(h)
}

/// A stack's backward pass, last layer first; `input_grad` is passed
/// on to the first layer only.
pub(crate) fn backward_stack(
    layers: &[Box<dyn Layer>],
    grad: &Tensor3,
    tape: &mut Tape,
    input_grad: bool,
) -> Result<Option<Tensor3>> {
    let (first, rest) = layers.split_first().ok_or(TensorError::EmptyDimension)?;
    let mut g = grad.clone();
    for layer in rest.iter().rev() {
        g = layer
            .backward(&g, tape, true)?
            .ok_or(TensorError::EmptyDimension)?;
    }
    first.backward(&g, tape, input_grad)
}

/// A stack's parameter-gradient pass, first layer first (the order in
/// which [`backward_stack`] left the operands on each tape).
pub(crate) fn accumulate_stack(layers: &mut [Box<dyn Layer>], tapes: &mut [Tape]) -> Result<()> {
    layers
        .iter_mut()
        .try_for_each(|layer| layer.accumulate(tapes))
}

/// Numerically checks `∂loss/∂input` of a layer against central finite
/// differences, with `loss = Σ output ⊙ probe`. Returns the maximum
/// absolute deviation. Test helper shared by all layer test modules.
///
/// # Errors
///
/// Propagates layer errors.
pub fn finite_difference_check(layer: &dyn Layer, input: &Tensor3, eps: f64) -> Result<f64> {
    // Probe vector fixed to pseudo-random ±1 pattern.
    let mut tape = Tape::default();
    let out = layer.forward(input, Some(&mut tape))?;
    let probe = Tensor3::from_fn(out.channels(), out.height(), out.width(), |c, y, x| {
        if (c + y * 3 + x * 7) % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    })?;
    // Analytic gradient.
    let analytic = layer
        .backward(&probe, &mut tape, true)?
        .ok_or(TensorError::EmptyDimension)?;

    let loss = |t: &Tensor3| -> Result<f64> {
        let o = layer.forward(t, None)?;
        Ok(o.zip_with(&probe, |a, b| a * b)?.sum())
    };
    let mut max_err = 0.0f64;
    let (ci, hi, wi) = input.shape();
    for c in 0..ci {
        for y in 0..hi {
            for x in 0..wi {
                let mut plus = input.clone();
                plus.set(c, y, x, input.get(c, y, x) + eps);
                let mut minus = input.clone();
                minus.set(c, y, x, input.get(c, y, x) - eps);
                let numeric = (loss(&plus)? - loss(&minus)?) / (2.0 * eps);
                max_err = max_err.max((numeric - analytic.get(c, y, x)).abs());
            }
        }
    }
    Ok(max_err)
}
