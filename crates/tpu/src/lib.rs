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
//! * [`TpuCore`] — MXU + vector unit, charged cycles and picojoules
//!   by the shape of the work; it computes nothing (the numerics, with
//!   their int8 or bf16 error, are `xai-accel`'s platforms');
//! * [`TpuDevice`] — 128 cores charged phase by phase, with
//!   `cross_replica_sum` collectives costed at `α + β·bytes` (§III-D
//!   of the paper);
//! * [`SharedDevice`] / [`BatchQueue`] / [`DevicePool`] — the serving
//!   stack: a thread-safe device handle, a cross-request coalescing
//!   queue, and a multi-chip pool that shards coalesced flights
//!   across simulated devices and merges their clocks into one
//!   timeline.
//!
//! The simulator charges shapes and computes nothing. A charge moves
//! only what the paper reports — a core's cycles and
//! energy, a device's wall and comm seconds and its collective count.
//! HBM traffic enters the cycle and energy charges as a term, not as a
//! counter of its own.
//!
//! ## Example
//!
//! ```
//! use xai_tpu::{TpuConfig, TpuDevice};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let mut device = TpuDevice::new(TpuConfig::small_test());
//! // Data decomposition: four 8×8 · 8×8 shards run concurrently
//! // across the cores.
//! device.run_phase(vec![8; 4], |core, n| core.charge_matmul_work(n, n, n, 1))?;
//! // Reassembly: one cross-replica summation of an 8×8 f64 partial.
//! device.charge_collective(8 * 8 * 8);
//! assert_eq!(device.collectives(), 1);
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
pub use core::TpuCore;
pub use device::TpuDevice;
pub use fault::{FailStop, FaultPlan, FaultStats};
pub use pool::{DevicePool, LaneCost, ShardPlan, ShardStrategy, ShardedRun};
pub use shared::{LaneLease, SharedDevice};
pub use systolic::{tile_stream_cycles, SystolicArray, TileResult};
pub use topology::Topology;
