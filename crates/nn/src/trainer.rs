//! Mini-batch SGD training loop.

use crate::network::Network;
use crate::tensor3::Tensor3;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xai_tensor::Result;

/// Hyper-parameters and bookkeeping for SGD training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size (the paper trains with 128).
    pub batch_size: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer {
            lr: 0.1,
            momentum: 0.9,
            batch_size: 16,
            seed: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean cross-entropy loss over the epoch.
    pub mean_loss: f64,
    /// Training-set accuracy measured after the epoch.
    pub accuracy: f64,
}

impl Trainer {
    /// Creates a trainer with explicit hyper-parameters.
    pub fn new(lr: f64, momentum: f64, batch_size: usize, seed: u64) -> Self {
        Trainer {
            lr,
            momentum,
            batch_size: batch_size.max(1),
            seed,
        }
    }

    /// Trains `net` for `epochs` epochs over `data`, returning one
    /// report per epoch. A `batch_size` of 0 trains as 1, as
    /// [`Trainer::new`] clamps it. Each mini-batch runs its samples
    /// over the host pool, with the bits of a serial pass (see
    /// [`Network::accumulate_gradients`]).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors, the first in sample order of the
    /// failing batch; that batch leaves no gradient behind.
    pub fn fit(
        &self,
        net: &mut Network,
        data: &[(Tensor3, usize)],
        epochs: usize,
    ) -> Result<Vec<EpochReport>> {
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut reports = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            order.shuffle(&mut rng);
            let mut total_loss = 0.0;
            for chunk in order.chunks(self.batch_size.max(1)) {
                let batch: Vec<(&Tensor3, usize)> =
                    chunk.iter().map(|&i| (&data[i].0, data[i].1)).collect();
                for loss in net.accumulate_batch(&batch)? {
                    total_loss += loss;
                }
                net.apply_gradients(self.lr, self.momentum, chunk.len());
            }
            let accuracy = net.accuracy(data)?;
            reports.push(EpochReport {
                epoch,
                mean_loss: total_loss / data.len().max(1) as f64,
                accuracy,
            });
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::vgg_small;

    /// Two visually distinct synthetic classes: bright top-left block
    /// versus bright bottom-right block.
    fn two_class_images(n_per_class: usize) -> Vec<(Tensor3, usize)> {
        let mut data = Vec::new();
        for i in 0..n_per_class {
            let jitter = (i % 5) as f64 * 0.02;
            let a = Tensor3::from_fn(3, 8, 8, |_, y, x| {
                if y < 4 && x < 4 {
                    0.9 - jitter
                } else {
                    0.1 + jitter
                }
            })
            .unwrap();
            let b = Tensor3::from_fn(3, 8, 8, |_, y, x| {
                if y >= 4 && x >= 4 {
                    0.9 - jitter
                } else {
                    0.1 + jitter
                }
            })
            .unwrap();
            data.push((a, 0));
            data.push((b, 1));
        }
        data
    }

    #[test]
    fn cnn_learns_separable_classes() {
        let mut net = vgg_small(3, 8, 2, 13).unwrap();
        let data = two_class_images(4);
        let trainer = Trainer::new(0.05, 0.9, 4, 0);
        let reports = trainer.fit(&mut net, &data, 12).unwrap();
        let last = reports.last().unwrap();
        assert!(
            last.accuracy >= 0.9,
            "accuracy {} after {} epochs",
            last.accuracy,
            reports.len()
        );
        assert!(last.mean_loss < reports[0].mean_loss);
    }

    #[test]
    fn reports_are_per_epoch() {
        let mut net = vgg_small(3, 8, 2, 1).unwrap();
        let data = two_class_images(1);
        let reports = Trainer::default().fit(&mut net, &data, 3).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].epoch, 2);
    }

    /// A batch that fails at its fourth sample (an out-of-range label)
    /// returns the error and leaves no gradient of the three samples
    /// before it: a step afterwards moves no weight.
    #[test]
    fn a_failing_sample_leaves_no_partial_gradient() {
        let mut data = two_class_images(4);
        data[3].1 = 2;
        let mut net = vgg_small(3, 8, 2, 3).unwrap();
        let probe = &data[0].0;
        let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = bits(&net.forward(probe).unwrap());
        let err = Trainer::new(0.05, 0.9, 8, 0).fit(&mut net, &data, 1);
        assert!(err.is_err(), "{err:?}");
        net.apply_gradients(0.05, 0.9, 8);
        assert_eq!(bits(&net.forward(probe).unwrap()), before);
    }

    #[test]
    fn zero_batch_size_clamped() {
        let t = Trainer::new(0.1, 0.9, 0, 0);
        assert_eq!(t.batch_size, 1);
    }

    #[test]
    fn zero_batch_size_in_a_literal_trains_as_one() {
        let data = two_class_images(2);
        let probe = &data[1].0;
        let run = |batch_size: usize| {
            let mut net = vgg_small(3, 8, 2, 5).unwrap();
            let trainer = Trainer {
                batch_size,
                ..Trainer::default()
            };
            let reports = trainer.fit(&mut net, &data, 2).unwrap();
            (reports, net.forward(probe).unwrap())
        };
        let (zero_reports, zero_out) = run(0);
        let (one_reports, one_out) = run(1);
        assert_eq!(zero_reports.len(), 2);
        for (z, o) in zero_reports.iter().zip(&one_reports) {
            assert_eq!(z.mean_loss.to_bits(), o.mean_loss.to_bits());
            assert_eq!(z.accuracy.to_bits(), o.accuracy.to_bits());
        }
        let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&zero_out), bits(&one_out));
    }
}
