//! # xai-data
//!
//! Synthetic datasets standing in for the paper's two benchmarks
//! (CIFAR-100 and MIRAI register traces — the build is offline and
//! ships neither; [`io`] parses the real files' formats):
//!
//! * [`cifar`] — CIFAR-like images whose classes are defined by a
//!   bright pattern in a *known* block, so Figure-5-style block
//!   saliency can be scored against ground truth;
//! * [`mirai`] — MIRAI-like register×clock-cycle trace tables with an
//!   implanted `ATTACK_VECTOR` assignment at a *known* cycle, so
//!   Figure-6-style cycle attribution can be scored against ground
//!   truth.
//!
//! ```
//! use xai_data::cifar::{ImageConfig, ImageDataset};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let ds = ImageDataset::new(ImageConfig::default())?;
//! let images = ds.generate(8)?;
//! assert_eq!(images.len(), 8);
//! // Every image knows which block explains its class.
//! let (by, bx) = images[0].salient_block;
//! assert!(by < 3 && bx < 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cifar;
pub mod io;
pub mod mirai;

pub use cifar::{as_training_pairs, ImageConfig, ImageDataset, LabelledImage};
pub use io::{parse_cifar, parse_trace_table, CifarFormat, CifarRecord};
pub use mirai::{
    RegisterTrace, TraceConfig, TraceDataset, TraceLabel, ATTACK_REGISTER, ATTACK_SIGNATURE,
};
