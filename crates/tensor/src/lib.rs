//! # xai-tensor
//!
//! Dense matrix and complex-number substrate for the `tpu-xai`
//! workspace — the Rust reproduction of *"Hardware Acceleration of
//! Explainable Machine Learning using Tensor Processing Units"*
//! (Pan & Mishra, DATE 2022).
//!
//! The paper reduces model distillation to three operation families
//! (§III-B): matrix convolution, point-wise division, and Fourier
//! transforms. This crate supplies the first two (plus the storage,
//! blocked matmul and int8 quantisation everything else builds on);
//! `xai-fourier` supplies the third.
//!
//! ## Quick tour
//!
//! ```
//! use xai_tensor::{Matrix, Complex64, ops, conv};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! // Real matrices
//! let x = Matrix::from_fn(4, 4, |r, c| (r + c) as f64)?;
//! let y = ops::matmul(&x, &Matrix::identity(4)?)?;
//! assert_eq!(x, y);
//!
//! // Circular convolution — the distilled model's operator
//! let mut delta = Matrix::zeros(4, 4)?;
//! delta[(0, 0)] = 1.0;
//! assert_eq!(conv::conv2d_circular(&x, &delta)?, x);
//!
//! // Complex spectra
//! let spec = x.to_complex();
//! assert_eq!(spec[(1, 1)], Complex64::new(2.0, 0.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod complex;
mod error;
mod matrix;

pub mod conv;
pub mod linalg;
pub mod ops;
pub mod quant;

pub use complex::Complex64;
pub use error::{Result, TensorError};
pub use matrix::{Matrix, Scalar};
