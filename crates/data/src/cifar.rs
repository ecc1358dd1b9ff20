//! Synthetic CIFAR-like image dataset with *ground-truth saliency*.
//!
//! The paper's Figure 5 explains a CIFAR-100 "cat" image and argues
//! the highlighted blocks (face, ear) are the right ones — by eye.
//! A synthetic dataset lets us do better: each class is defined by a
//! bright class-specific pattern placed in a known block of the
//! image, so an explanation method can be *scored* on whether it
//! attributes the prediction to that block.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_nn::Tensor3;
use xai_tensor::{Result, TensorError};

/// Configuration of the synthetic image generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageConfig {
    /// Number of classes (each gets a distinct salient block).
    pub classes: usize,
    /// Square image edge, pixels.
    pub size: usize,
    /// Colour channels.
    pub channels: usize,
    /// Edge of the block grid (e.g. 3 ⇒ 3×3 blocks as in Figure 5).
    pub grid: usize,
    /// Standard deviation of additive background noise.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImageConfig {
    fn default() -> Self {
        ImageConfig {
            classes: 4,
            size: 12,
            channels: 3,
            grid: 3,
            noise: 0.1,
            seed: 0,
        }
    }
}

/// One generated image with its label and ground-truth salient block.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledImage {
    /// The image volume (`channels × size × size`), values in ~[0, 1].
    pub image: Tensor3,
    /// Class label in `0..classes`.
    pub label: usize,
    /// `(block_row, block_col)` of the class-defining pattern in the
    /// `grid × grid` block decomposition — the explanation target.
    pub salient_block: (usize, usize),
}

/// Synthetic image dataset generator.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    config: ImageConfig,
}

impl ImageDataset {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for zero classes,
    /// size, channels or grid; [`TensorError::ShapeMismatch`] when
    /// `grid` does not divide `size` or there are more classes than
    /// grid cells.
    pub fn new(config: ImageConfig) -> Result<Self> {
        if config.classes == 0 || config.size == 0 || config.channels == 0 || config.grid == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if !config.size.is_multiple_of(config.grid) {
            return Err(TensorError::ShapeMismatch {
                left: (config.size, config.size),
                right: (config.grid, config.grid),
                op: "grid must divide image size",
            });
        }
        if config.classes > config.grid * config.grid {
            return Err(TensorError::ShapeMismatch {
                left: (config.classes, 1),
                right: (config.grid * config.grid, 1),
                op: "more classes than grid cells",
            });
        }
        Ok(ImageDataset { config })
    }

    /// The generator's configuration.
    pub fn config(&self) -> ImageConfig {
        self.config
    }

    /// The block assigned to a class.
    ///
    /// # Panics
    ///
    /// Panics if `label >= classes`.
    pub fn class_block(&self, label: usize) -> (usize, usize) {
        assert!(label < self.config.classes, "label out of range");
        // Spread classes over the grid deterministically, skipping in a
        // stride pattern so adjacent classes are not adjacent blocks. A
        // stride coprime with the cell count visits every cell once
        // before repeating; 7 unless it divides the count.
        let cells = self.config.grid * self.config.grid;
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut stride = 7;
        while gcd(stride, cells) != 1 {
            stride += 1;
        }
        let idx = (label * stride + 1) % cells;
        (idx / self.config.grid, idx % self.config.grid)
    }

    /// Generates `n` labelled images, classes round-robin.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction errors (cannot occur for a
    /// validated config).
    pub fn generate(&self, n: usize) -> Result<Vec<LabelledImage>> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let block = self.config.size / self.config.grid;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % self.config.classes;
            let (by, bx) = self.class_block(label);
            let (y0, x0) = (by * block, bx * block);
            let noise = self.config.noise;
            let mut image = Tensor3::from_fn(
                self.config.channels,
                self.config.size,
                self.config.size,
                |_, _, _| 0.2 + noise * (rng.random::<f64>() - 0.5),
            )?;
            // Class-defining bright pattern: a filled block with a
            // channel-dependent chequer so channels differ.
            for c in 0..self.config.channels {
                for dy in 0..block {
                    for dx in 0..block {
                        let chequer = if (dy + dx + c) % 2 == 0 { 0.9 } else { 0.7 };
                        image.set(
                            c,
                            y0 + dy,
                            x0 + dx,
                            chequer + noise * (rng.random::<f64>() - 0.5),
                        );
                    }
                }
            }
            out.push(LabelledImage {
                image,
                label,
                salient_block: (by, bx),
            });
        }
        Ok(out)
    }

    /// Generates a `(train, test)` split with disjoint RNG streams.
    ///
    /// # Errors
    ///
    /// Propagates generation errors.
    pub fn generate_split(
        &self,
        train: usize,
        test: usize,
    ) -> Result<(Vec<LabelledImage>, Vec<LabelledImage>)> {
        let train_set = self.generate(train)?;
        let mut test_cfg = self.config;
        test_cfg.seed = self.config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let test_set = ImageDataset::new(test_cfg)?.generate(test)?;
        Ok((train_set, test_set))
    }
}

/// Converts labelled images into the `(Tensor3, usize)` pairs the
/// trainer consumes.
pub fn as_training_pairs(images: &[LabelledImage]) -> Vec<(Tensor3, usize)> {
    images
        .iter()
        .map(|li| (li.image.clone(), li.label))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> ImageDataset {
        ImageDataset::new(ImageConfig::default()).unwrap()
    }

    #[test]
    fn validation_rejects_bad_configs() {
        // grid 3 does not divide 10
        let c = ImageConfig {
            size: 10,
            ..ImageConfig::default()
        };
        assert!(ImageDataset::new(c).is_err());
        // more classes than the 9 grid cells
        let c = ImageConfig {
            classes: 100,
            ..ImageConfig::default()
        };
        assert!(ImageDataset::new(c).is_err());
        let c = ImageConfig {
            channels: 0,
            ..ImageConfig::default()
        };
        assert!(ImageDataset::new(c).is_err());
    }

    #[test]
    fn labels_round_robin_and_blocks_distinct() {
        let ds = dataset();
        let images = ds.generate(8).unwrap();
        assert_eq!(images[0].label, 0);
        assert_eq!(images[5].label, 1);
        // all 4 classes get distinct blocks
        let blocks: std::collections::HashSet<_> = (0..4).map(|l| ds.class_block(l)).collect();
        assert_eq!(blocks.len(), 4);
    }

    #[test]
    fn every_class_gets_its_own_block_on_every_grid() {
        for grid in 1..=14 {
            for classes in 1..=grid * grid {
                let ds = ImageDataset::new(ImageConfig {
                    classes,
                    size: grid,
                    grid,
                    ..ImageConfig::default()
                })
                .unwrap();
                let blocks: std::collections::HashSet<_> =
                    (0..classes).map(|l| ds.class_block(l)).collect();
                assert_eq!(blocks.len(), classes, "grid {grid}, {classes} classes");
            }
        }
        // Where 7 is coprime with the cell count, the mapping is the
        // one every config in the tree was generated with.
        let ds = ImageDataset::new(ImageConfig {
            classes: 16,
            size: 16,
            grid: 4,
            ..ImageConfig::default()
        })
        .unwrap();
        let blocks: Vec<_> = (0..16).map(|l| ds.class_block(l)).collect();
        let want: Vec<_> = (0..16)
            .map(|l| ((l * 7 + 1) % 16 / 4, (l * 7 + 1) % 4))
            .collect();
        assert_eq!(blocks, want);
    }

    #[test]
    fn salient_block_is_brightest() {
        let ds = dataset();
        for li in ds.generate(8).unwrap() {
            let block = ds.config().size / ds.config().grid;
            let mut best = (0usize, 0usize);
            let mut best_mean = f64::NEG_INFINITY;
            for by in 0..ds.config().grid {
                for bx in 0..ds.config().grid {
                    let mut sum = 0.0;
                    for c in 0..ds.config().channels {
                        for dy in 0..block {
                            for dx in 0..block {
                                sum += li.image.get(c, by * block + dy, bx * block + dx);
                            }
                        }
                    }
                    if sum > best_mean {
                        best_mean = sum;
                        best = (by, bx);
                    }
                }
            }
            assert_eq!(best, li.salient_block, "label {}", li.label);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset().generate(4).unwrap();
        let b = dataset().generate(4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn split_uses_disjoint_streams() {
        let (train, test) = dataset().generate_split(4, 4).unwrap();
        assert_eq!(train.len(), 4);
        assert_eq!(test.len(), 4);
        // Same labels, different noise realisations.
        assert_eq!(train[0].label, test[0].label);
        assert_ne!(train[0].image, test[0].image);
    }

    #[test]
    fn training_pairs_preserve_labels() {
        let images = dataset().generate(6).unwrap();
        let pairs = as_training_pairs(&images);
        assert_eq!(pairs.len(), 6);
        for (p, li) in pairs.iter().zip(&images) {
            assert_eq!(p.1, li.label);
            assert_eq!(p.0, li.image);
        }
    }

    #[test]
    fn values_are_in_sane_range() {
        for li in dataset().generate(4).unwrap() {
            for &v in li.image.as_slice() {
                assert!((-0.5..=1.5).contains(&v), "value {v}");
            }
        }
    }
}
