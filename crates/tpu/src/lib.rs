//! # xai-tpu
//!
//! A cycle-level simulator of a TPU-class accelerator, built to
//! reproduce the hardware side of *"Hardware Acceleration of
//! Explainable Machine Learning using Tensor Processing Units"*
//! (Pan & Mishra, DATE 2022).
//!
//! The paper runs its closed-form explanation pipeline on a Google
//! Cloud TPUv2; this crate substitutes a simulator with the same cost
//! structure (ARCHITECTURE.md, "Where the cost model charges time"):
//!
//! * [`systolic`] — a weight-stationary 256×256 systolic array,
//!   simulated cycle by cycle at small scale (behavioural ground
//!   truth) and analytically at full scale;
//! * [`TpuCore`] — MXU + vector unit; every op computes its real
//!   numeric result (with real int8/bf16 error) while charging cycles
//!   and picojoules;
//! * [`TpuDevice`] — 128 cores with `cross_replica_sum` collectives
//!   costed at `α + β·bytes` (§III-D of the paper);
//! * [`SharedDevice`] / [`BatchQueue`] / [`DevicePool`] — the serving
//!   stack: a thread-safe device handle, a cross-request coalescing
//!   queue, and a multi-chip pool that shards coalesced flights
//!   across simulated devices and merges their clocks into one
//!   timeline.
//!
//! A charge moves only what the paper reports — a core's cycles and
//! energy, a device's wall and comm seconds and its collective count.
//! HBM traffic enters the cycle and energy charges as a term, not as a
//! counter of its own.
//!
//! ## Example
//!
//! ```
//! use xai_tpu::{TpuConfig, TpuDevice};
//! use xai_tensor::Matrix;
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let mut device = TpuDevice::new(TpuConfig::small_test());
//! let shards: Vec<Matrix<f64>> = (0..4)
//!     .map(|i| Matrix::filled(8, 8, 0.1 * (i + 1) as f64))
//!     .collect::<Result<_, _>>()?;
//! // Data decomposition: shards run concurrently across cores.
//! let squares = device.run_phase(shards, |core, s| core.matmul(&s, &s))?;
//! // Reassembly: cross-replica summation of the partial results.
//! let total = device.cross_replica_sum(&squares)?;
//! assert_eq!(total.shape(), (8, 8));
//! println!("simulated wall time: {:.3} µs", device.wall_seconds() * 1e6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
mod config;
mod core;
mod device;
pub mod fault;
pub mod pool;
mod shared;
pub mod systolic;
pub mod topology;

pub use batch::{BatchQueue, KernelJob, ManualTime, QueueTime, WallTime};
pub use config::{Precision, TpuConfig};
pub use core::{bf16_round, TpuCore};
pub use device::TpuDevice;
pub use fault::{FailStop, FaultPlan, FaultStats};
pub use pool::{DevicePool, LaneCost, ShardOutcome, ShardPlan, ShardStrategy, ShardedRun};
pub use shared::{LaneLease, SharedDevice};
pub use systolic::{tile_stream_cycles, SystolicArray, TileResult};
pub use topology::Topology;
