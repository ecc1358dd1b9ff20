//! # xai-nn
//!
//! A from-scratch neural-network substrate: the "well-trained model"
//! side of the paper's pipeline (Figure 2: *"we apply traditional
//! training scheme to construct a well-trained model and
//! corresponding input-output dataset"*).
//!
//! Gradients are hand-derived per layer and verified against finite
//! differences in every layer's test module — there is no autograd.
//! [`models`] provides scaled VGG-style and ResNet-style networks
//! mirroring the paper's two benchmarks; [`opcount`] carries the
//! FLOP/byte workloads of the *full-size* VGG19 and ResNet50 so the
//! hardware models in `xai-accel` can time the paper's exact
//! workloads (Table I).
//!
//! ```
//! use xai_nn::{models, Tensor3, Trainer};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let mut net = models::vgg_small(3, 8, 2, 42)?;
//! let sample = Tensor3::from_fn(3, 8, 8, |_, y, x| (y + x) as f64 / 16.0)?;
//! let class = net.predict(&sample)?;
//! assert!(class < 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
mod im2col;
mod layer;
pub mod layers;
pub mod models;
mod network;
pub mod opcount;
mod tensor3;
mod trainer;

pub use layer::{finite_difference_check, Layer, Tape};
pub use network::{cross_entropy, softmax, Network};
pub use opcount::NetworkWorkload;
pub use tensor3::Tensor3;
pub use trainer::{EpochReport, Trainer};
