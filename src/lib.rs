//! # tpu-xai
//!
//! A Rust reproduction of **"Hardware Acceleration of Explainable
//! Machine Learning using Tensor Processing Units"** (Zhixin Pan and
//! Prabhat Mishra, DATE 2022, arXiv:2103.11927).
//!
//! The paper turns model-distillation-based explanation into pure
//! matrix computation — `K = F⁻¹(F(Y)/F(X))` plus occlusion
//! differences — and maps it onto a TPU's systolic matrix engine via
//! the DFT-matrix factorisation `X = (W_M·x)·W_N`, sharded across
//! cores (Algorithm 1) and across inputs (§III-D).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`tensor`] | matrices, complex numbers, convolution, int8 quantisation |
//! | [`fourier`] | naive DFT, radix-4, Bluestein, DFT-matrix form, 2-D row–column |
//! | [`tpu`] | cycle-level systolic-array / multi-core TPU simulator |
//! | [`accel`] | `Accelerator` trait + CPU/GPU/TPU hardware cost models |
//! | [`nn`] | from-scratch CNN substrate (VGG-style, ResNet-style) |
//! | [`data`] | synthetic CIFAR-like images & MIRAI-like malware traces |
//! | [`core`] | the paper: distillation, contribution factors, explainers |
//! | [`serve`] | serving front door: admission control, deadlines, load shedding |
//! | [`parallel`] | hand-rolled work-stealing host runtime behind every parallel path |
//!
//! ## Quickstart
//!
//! ```
//! use tpu_xai::core::{DistilledModel, SolveStrategy};
//! use tpu_xai::tensor::{conv::conv2d_circular, Matrix};
//!
//! # fn main() -> Result<(), tpu_xai::tensor::TensorError> {
//! // A black-box that is secretly a convolution...
//! let k_true = Matrix::from_fn(8, 8, |r, c| ((r + c * 3) % 5) as f64 * 0.2)?;
//! let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 7) as f64 - 3.0)?;
//! let y = conv2d_circular(&x, &k_true)?;
//!
//! // ...recovered in closed form: one Fourier round trip.
//! let model = DistilledModel::fit(&[(x, y)], SolveStrategy::default())?;
//! assert!(model.kernel().max_abs_diff(&k_true)? < 1e-6);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for the paper's two case studies
//! (image classification, malware detection) and the scalability
//! sweep, and `crates/bench` for the binaries regenerating every
//! table and figure of the paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use xai_accel as accel;
pub use xai_core as core;
pub use xai_data as data;
pub use xai_fourier as fourier;
pub use xai_nn as nn;
pub use xai_parallel as parallel;
pub use xai_serve as serve;
pub use xai_tensor as tensor;
pub use xai_tpu as tpu;
