//! # xai-accel
//!
//! Hardware platform models for the `tpu-xai` workspace: one
//! [`Accelerator`] trait and the paper's three evaluation
//! configurations (§IV-A):
//!
//! 1. [`CpuModel`] — "ordinary execution with CPU … the baseline
//!    method" (Intel i7 3.70 GHz);
//! 2. [`GpuModel`] — "state-of-the-art ML acceleration technique"
//!    (NVIDIA GeForce GTX 1080);
//! 3. [`TpuAccel`] — "our proposed approach" (simulated TPUv2,
//!    128 cores).
//!
//! Every model executes kernels for real on the host (so numeric
//! results can be compared across platforms) while advancing a
//! simulated clock from its hardware cost model — "timing is
//! simulated, compute is real", the first invariant of ARCHITECTURE.md.
//! So the three share one implementation of every kernel, and each
//! states only its matmul arithmetic, its launches and its charges: a
//! [`Platform`]. That is also how another crate adds hardware —
//! [`Accelerator`] is sealed, implemented once for every [`Platform`].
//!
//! ```
//! use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
//! use xai_tensor::Matrix;
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let x = Matrix::from_fn(64, 64, |r, c| ((r + c) % 9) as f64)?.to_complex();
//! let platforms: Vec<Box<dyn Accelerator>> = vec![
//!     Box::new(CpuModel::i7_3700()),
//!     Box::new(GpuModel::gtx1080()),
//!     Box::new(TpuAccel::tpu_v2()),
//! ];
//! for p in &platforms {
//!     p.fft2d(&x)?;
//!     println!("{}: {:.3} µs", p.name(), p.elapsed_seconds() * 1e6);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod distill;
mod filter_diff;
mod host;
mod platform;
mod roofline;
mod stats;
mod tpu_accel;
mod traits;

pub use clock::Clock;
pub use distill::{distill, Interpretation, SolveStrategy};
pub use filter_diff::{scores, PreparedKernel};
pub use host::{CpuModel, GpuModel, HostModel};
pub use platform::{charge_staged_chain, Platform};
pub use roofline::RooflineParams;
pub use stats::KernelStats;
pub use tpu_accel::TpuAccel;
pub use traits::{occluded, time_region, Accelerator, Rect};
