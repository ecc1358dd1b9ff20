//! The proposed platform: TPU-accelerated execution (the paper's
//! contribution), adapting the `xai-tpu` device simulator to the
//! [`Accelerator`](crate::Accelerator) trait.
//!
//! Scheduling follows the paper exactly:
//!
//! * 2-D Fourier transforms run as the two-stage matrix product
//!   `X = (W_M · x) · W_N` (Equation 13) on the systolic MXU, with
//!   rows/columns sharded across cores per Algorithm 1;
//! * each stage's reassembly issues one `cross_replica_sum`
//!   collective over the per-core partial (§III-D);
//! * elementwise work (Hadamard, point-wise division, the Equation-5
//!   difference) runs on the vector units, embarrassingly parallel.
//!
//! Numeric results use the exact host path for spectral work (real
//! TPUs do this class of work in bf16 — the paper's reference [3]),
//! and the configured MXU precision for real matmuls — *quantised
//! int8* by default, or bf16-rounded operands — so quantisation error
//! is physically present where the paper's §II-A says it is.
//!
//! The kernel bodies are the built-in platforms' one implementation
//! (`platform.rs`), the host models' numerics on the calling thread;
//! this module states only what the TPU charges for them — directly on
//! its chip, or as lanes of coalesced flights when batching.
//!
//! The simulated device lives behind a [`SharedDevice`] handle and
//! every kernel takes `&self`: one `TpuAccel` (or one device shared
//! by several) can serve many worker threads, with each kernel's
//! charging serialised atomically on the device lock while the
//! numeric work runs outside it.

use crate::clock::Clock;
use crate::platform::charge_staged_chain;
use crate::roofline::cost;
use crate::stats::KernelStats;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use xai_sync::{LockClass, OrderedMutex};
use xai_tensor::ops;
use xai_tensor::quant::{bf16_round, QuantizedMatrix};
use xai_tensor::{Matrix, Result};
use xai_tpu::{
    BatchQueue, DevicePool, KernelJob, LaneCost, Precision, ShardPlan, ShardStrategy, SharedDevice,
    TpuConfig, TpuDevice,
};

/// The fan-out decision memo is a leaf of the workspace lock
/// hierarchy, like the clock ledger beside it: a lookup or an insert
/// holds it for one map operation and acquires nothing underneath.
static ACCEL_PROBE: LockClass = LockClass::new("accel::probe", 51);

/// Distinct flight shapes the decision memo holds before it is
/// cleared. A serving fleet sees a handful of flight shapes; a sweep
/// over many refills it from the dry run.
const DECISION_MEMO_CAPACITY: usize = 1024;

/// One fan-out decision ([`TpuAccel::fanout_plan`]): the plan and the
/// gather payload of a flight that shards across the pool, `None` for
/// one that stays on the primary chip.
type Decision = Option<Arc<(ShardPlan, usize)>>;

/// Memoised fan-out decisions: `(the flight's lanes in lane order, the
/// pool's healthy chip indices)` → [`Decision`].
type DecisionMemo = HashMap<(Vec<KernelJob>, Vec<usize>), Decision>;

fn empty_decision_memo() -> OrderedMutex<DecisionMemo> {
    OrderedMutex::new(&ACCEL_PROBE, DecisionMemo::new())
}

/// TPU-based accelerator (the "Proposed Approach" column of the
/// paper's tables).
///
/// Cloning deep-copies the simulated device (an independent clock);
/// to drive **one** device from many threads, share the `TpuAccel`
/// itself (e.g. `Arc<TpuAccel>` / `Arc<dyn Accelerator>`) or
/// construct several with [`TpuAccel::over_device`] on one
/// [`SharedDevice`]. [`TpuAccel::with_batching`] coalesces kernels of
/// every kind from concurrent threads into shared (possibly
/// mixed-kind) device flights, and [`TpuAccel::with_pool`]
/// additionally shards those flights across a pool of simulated chips
/// ([`xai_tpu::DevicePool`]).
///
/// # Examples
///
/// ```
/// use xai_accel::{Accelerator, TpuAccel};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let tpu = TpuAccel::tpu_v2();
/// let x = Matrix::from_fn(16, 16, |r, c| (r + c) as f64 / 32.0)?;
/// let spec = tpu.fft2d(&x.to_complex())?;
/// let back = tpu.ifft2d(&spec)?;
/// assert!(x.to_complex().max_abs_diff(&back)? < 1e-9);
/// assert!(tpu.elapsed_seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TpuAccel {
    device: SharedDevice,
    stats: Clock,
    /// When present, *every* kernel from every thread — transforms,
    /// elementwise work and matmuls alike — is funnelled through this
    /// cross-request queue and dispatched as coalesced, possibly
    /// mixed-kind device flights (see [`TpuAccel::with_batching`]).
    queue: Option<BatchQueue<KernelJob, ()>>,
    /// When present, coalesced flights additionally shard across this
    /// pool of simulated chips (see [`TpuAccel::with_pool`]);
    /// `device` aliases the pool's primary device and carries
    /// single-lane flights, while the pool's merged timeline is the
    /// accelerator's clock. Invariant: `pool.is_some()` implies
    /// `queue.is_some()` — a pool is only ever installed together with
    /// a queue ([`TpuAccel::over_pool`]) and a queue is never removed.
    pool: Option<DevicePool>,
    /// [`TpuAccel::fanout_plan`]'s decisions, memoised. A decision is
    /// a pure function of the flight's lanes and the pool's healthy
    /// chips: a pool's chips, fabric and strategy are fixed when it is
    /// built. The memo belongs to this accelerator, so no other one
    /// (built later at the same address, say) ever reads it.
    decisions: OrderedMutex<DecisionMemo>,
    /// The MXU datapath's operand precision, read from the device's
    /// configuration at construction (a device's configuration never
    /// changes): [`Platform::product`](crate::Platform::product)'s
    /// arithmetic.
    precision: Precision,
}

impl Clone for TpuAccel {
    /// Deep copy: the clone gets an independent device — or, when
    /// pooled, an independent pool of devices — with the same
    /// configuration and current counters (and, when batching is
    /// enabled, its own queue over the cloned primary device). The
    /// decision memo describes this accelerator's pool, so the clone
    /// starts an empty one.
    fn clone(&self) -> Self {
        let pool = self.pool.as_ref().map(DevicePool::deep_clone);
        let device = match &pool {
            Some(p) => p.primary().clone(),
            None => SharedDevice::from_device(self.device.with(|d| d.clone())),
        };
        TpuAccel {
            queue: self
                .queue
                .as_ref()
                .map(|q| BatchQueue::new(device.clone(), q.window(), q.max_lanes())),
            device,
            stats: self.stats.clone(),
            pool,
            decisions: empty_decision_memo(),
            precision: self.precision,
        }
    }
}

impl TpuAccel {
    /// A TPU accelerator over the paper's TPUv2 configuration
    /// (128 cores, 256×256 MXU, 700 MHz).
    pub fn tpu_v2() -> Self {
        Self::with_config(TpuConfig::tpu_v2())
    }

    /// A TPU accelerator over a custom device configuration.
    pub fn with_config(cfg: TpuConfig) -> Self {
        Self::over_device(SharedDevice::new(cfg))
    }

    /// A TPU accelerator with an overridden core count (ablation A2).
    pub fn with_cores(cores: usize) -> Self {
        Self::over_device(SharedDevice::from_device(TpuDevice::with_cores(
            TpuConfig::tpu_v2(),
            cores,
        )))
    }

    /// An accelerator front-end over an existing (possibly shared)
    /// device: several `TpuAccel`s built on one [`SharedDevice`]
    /// behave like several host threads queueing work on one chip.
    pub fn over_device(device: SharedDevice) -> Self {
        TpuAccel {
            precision: device.with(|d| d.config().precision),
            device,
            stats: Clock::new(),
            queue: None,
            pool: None,
            decisions: empty_decision_memo(),
        }
    }

    /// An accelerator over a pool of `n_devices` simulated TPUv2
    /// chips with cross-request batching enabled: kernels of *every*
    /// kind from concurrent workers coalesce into flights (see
    /// [`TpuAccel::with_batching`] for `window`/`max_lanes`), and
    /// every multi-lane flight — transforms, elementwise work and
    /// matmuls, mixed freely — is sharded across the chips by the
    /// pool's placement strategy, executed chip by chip on the
    /// flight leader's thread (the chips are concurrent in simulated
    /// time only), and merged with one inter-chip gather per flight
    /// ([`xai_tpu::DevicePool::run_planned`]).
    ///
    /// Results stay bit-identical to single-device execution; only
    /// the simulated schedule (and therefore the clock) changes.
    /// Single-lane flights run on the pool's primary chip and are
    /// merged into the same timeline, so
    /// [`Accelerator::elapsed_seconds`](crate::Accelerator::elapsed_seconds)
    /// remains one coherent clock.
    pub fn with_pool(n_devices: usize, window: Duration, max_lanes: usize) -> Self {
        Self::over_pool(
            DevicePool::new(TpuConfig::tpu_v2(), n_devices),
            window,
            max_lanes,
        )
    }

    /// An accelerator over an existing [`DevicePool`] (custom chip
    /// configurations, core counts or placement strategy), with
    /// cross-request batching enabled as in [`TpuAccel::with_pool`].
    pub fn over_pool(pool: DevicePool, window: Duration, max_lanes: usize) -> Self {
        let device = pool.primary().clone();
        TpuAccel {
            queue: Some(BatchQueue::new(device.clone(), window, max_lanes)),
            precision: device.with(|d| d.config().precision),
            device,
            stats: Clock::new(),
            pool: Some(pool),
            decisions: empty_decision_memo(),
        }
    }

    /// The device pool, when sharding is enabled.
    pub fn pool(&self) -> Option<&DevicePool> {
        self.pool.as_ref()
    }

    /// Enables cross-request batching: kernels submitted by
    /// concurrent worker threads within `window` coalesce into one
    /// device flight (dispatched early once `max_lanes` lanes are
    /// pending — size it to the core count to fill one phase). One
    /// flight may mix kernel kinds: its transform lanes issue one
    /// `run_phase` over per-core lanes and one `cross_replica_sum`
    /// per transform stage for the whole flight, its elementwise
    /// lanes split their elements across the vector units, and its
    /// matmul lanes run the row-sharded MXU schedule — instead of a
    /// phase and collectives per request.
    ///
    /// Numeric results are bit-identical to the unbatched path; only
    /// the simulated schedule (and therefore the clock) changes, so
    /// enable this for serving-throughput scenarios rather than for
    /// the paper's single-stream latency tables.
    ///
    /// **Window sizing**: a flight leader waits out `window` in *real
    /// time* whenever fewer than `max_lanes` lanes arrive — and every
    /// kernel rides the queue, so a lone `matmul` on an otherwise
    /// idle accelerator stalls for the whole window. Use
    /// milliseconds-scale windows for live serving; the benches' long
    /// windows are straggler guards behind fleets sized to always hit
    /// `max_lanes`, and `Duration::ZERO` keeps the code path with no
    /// cross-thread coalescing (and no waiting).
    ///
    /// **Errors**: a kernel runs its numerics on the calling thread
    /// before it queues anything, and a flight carries only shapes. So a
    /// kernel whose numerics fail (a shape mismatch, a
    /// [`DivPolicy::Strict`](xai_tensor::ops::DivPolicy) division by
    /// zero) is refused on its own thread and charges nothing, as an
    /// unqueued one is; a panic in one request's numerics unwinds on
    /// that request's thread alone. Flight-wide failures (a panicking
    /// dispatch, an exhausted fault budget) surface to every
    /// participant, matching [`xai_tpu::BatchQueue`]'s documented
    /// `WorkerPanicked` semantics.
    pub fn with_batching(mut self, window: Duration, max_lanes: usize) -> Self {
        self.queue = Some(BatchQueue::new(self.device.clone(), window, max_lanes));
        self
    }

    /// A handle to the underlying simulated device (shares the
    /// clock with this accelerator).
    pub fn device(&self) -> SharedDevice {
        self.device.clone()
    }

    /// The device configuration (snapshot).
    pub fn config(&self) -> TpuConfig {
        self.device.config()
    }

    /// Total simulated energy, picojoules (summed over every chip
    /// when pooled).
    pub fn energy_pj(&self) -> f64 {
        match &self.pool {
            Some(pool) => pool.energy_pj(),
            None => self.device.energy_pj(),
        }
    }
}

/// Charges a column-sharded complex matmul `l×l · l×w` (three MXU
/// passes per Karatsuba) across the device's cores and one
/// reassembly collective.
fn charge_sharded_complex_matmul(d: &mut TpuDevice, l: usize, w: usize) -> Result<()> {
    let p = d.num_cores().min(w.max(1));
    let per_core_cols = w.div_ceil(p);
    // Core i takes columns from i·per_core_cols on: every core up to
    // the last one a column reaches (none when w = 0).
    let shards = w.div_ceil(per_core_cols.max(1));
    d.run_phase(0..shards, |core, i| {
        let cols = per_core_cols.min(w - i * per_core_cols);
        core.charge_matmul_work(l, l, cols, 3)
    })?;
    // Reassembly: each core contributes its 16-byte-per-element shard.
    d.charge_collective(16 * l * per_core_cols);
    Ok(())
}

fn charge_fft2d(d: &mut TpuDevice, m: usize, n: usize) -> Result<()> {
    // Stage 1: W_M(m×m) · x(m×n), sharded over x's columns.
    charge_sharded_complex_matmul(d, m, n)?;
    // Stage 2: X'(m×n) · W_N(n×n), sharded over X''s rows — same
    // cost structure with roles swapped.
    charge_sharded_complex_matmul(d, n, m)
}

/// The per-device charge of one transform flight: one phase with
/// every `(m, n)` lane a whole two-stage transform on its own core,
/// plus one reassembly collective per transform stage. Used verbatim
/// by the single-device flight path and by each chip of a pooled
/// flight, so the two cost models can never drift apart.
fn charge_transform_shard(
    d: &mut TpuDevice,
    shapes: impl Iterator<Item = (usize, usize)> + Clone,
) -> Result<()> {
    d.run_phase(shapes.clone(), |core, (m, n)| {
        core.charge_matmul_work(m, m, n, 3);
        core.charge_matmul_work(m, n, n, 3);
    })?;
    let shard_bytes = shapes.map(|(m, n)| 16 * m * n).max().unwrap_or(0);
    d.charge_collective(shard_bytes);
    d.charge_collective(shard_bytes);
    Ok(())
}

/// The kernel-statistics ledger entry of one whole 2-D transform
/// over an `m × n` input: complex flops of the two-stage matrix form
/// and bytes moved.
fn transform_ops_bytes(m: usize, n: usize) -> (f64, f64) {
    (
        6.0 * 2.0 * (m * m * n + m * n * n) as f64,
        32.0 * (m * n) as f64,
    )
}

/// Ledger (flops, bytes) of one kernel lane — what the direct (unqueued)
/// paths record, and the single source of per-lane flops for the shard
/// planner, so the statistics ledger and the placement/fan-out
/// decisions can never drift apart.
fn kernel_ops_bytes(job: &KernelJob) -> (f64, f64) {
    let per_elem =
        |(ops, bytes): (f64, f64), elems: usize| (ops * elems as f64, bytes * elems as f64);
    match *job {
        KernelJob::Transform { rows, cols } => transform_ops_bytes(rows, cols),
        KernelJob::Hadamard { elems } => per_elem(HADAMARD_PER_ELEM, elems),
        KernelJob::PointwiseDiv { elems } => per_elem(DIV_PER_ELEM, elems),
        KernelJob::Sub { elems } => per_elem(SUB_PER_ELEM, elems),
        KernelJob::Matmul { m, k, n } => (cost::matmul_flops(m, k, n), cost::matmul_bytes(m, k, n)),
        // A score lane's ledger entry is the fused chain's: exactly the
        // sum of its four staged entries, fft + hadamard + ifft + sub.
        KernelJob::Score { rows, cols } => {
            let (t_ops, t_bytes) = transform_ops_bytes(rows, cols);
            let len = (rows * cols) as f64;
            (
                2.0 * t_ops + 6.0 * len + len,
                2.0 * t_bytes + 48.0 * len + 24.0 * len,
            )
        }
    }
}

/// Total (flops, bytes) of one kernel-generic flight, for the
/// kernel-statistics ledger.
fn flight_stats(jobs: &[KernelJob]) -> (f64, f64) {
    jobs.iter().fold((0.0, 0.0), |(ops_acc, bytes_acc), job| {
        let (o, b) = kernel_ops_bytes(job);
        (ops_acc + o, bytes_acc + b)
    })
}

/// The shard planner's view of one lane: relative compute in flops
/// ([`kernel_ops_bytes`] — consistent across kernel kinds, so the LPT
/// planner can balance a mixed flight) and the bytes its *result*
/// ships over the inter-chip gather (16 per complex element, 8 per
/// real — a different quantity than the ledger's traffic estimate).
fn kernel_lane_cost(job: &KernelJob) -> LaneCost {
    let gather_bytes = match *job {
        KernelJob::Transform { rows, cols } => 16 * rows * cols,
        KernelJob::Hadamard { elems } | KernelJob::PointwiseDiv { elems } => 16 * elems,
        KernelJob::Sub { elems } => 8 * elems,
        KernelJob::Matmul { m, n, .. } => 8 * m * n,
        // The one-gather win of the fused chain: only the final real
        // difference ships, not the three complex intermediates.
        KernelJob::Score { rows, cols } => 8 * rows * cols,
    };
    LaneCost {
        compute: kernel_ops_bytes(job).0,
        gather_bytes,
    }
}

/// Ledger `(flops, bytes)` per element of the elementwise kernels.
const HADAMARD_PER_ELEM: (f64, f64) = (6.0, 48.0);
const DIV_PER_ELEM: (f64, f64) = (10.0, 48.0);
const SUB_PER_ELEM: (f64, f64) = (1.0, 24.0);

/// Charges one elementwise kernel of `elems` elements split evenly
/// across the device's vector units.
fn charge_sharded_elementwise(d: &mut TpuDevice, elems: usize) -> Result<()> {
    let p = d.num_cores().min(elems.max(1));
    charge_per_lane_elementwise(d, elems.div_ceil(p), p)
}

/// Charges one phase of `count` elementwise lanes of `elems` elements
/// each, one whole lane per core (round-robin past the core count).
fn charge_per_lane_elementwise(d: &mut TpuDevice, elems: usize, count: usize) -> Result<()> {
    d.run_phase(0..count, |core, _| {
        core.charge_elementwise_work(elems as u64)
    })
}

/// Charges one row-sharded real matmul `m×k · k×n` across the
/// device's cores plus the row-gather collective — the direct-path
/// matmul cost model, reused verbatim by each chip of a flight so the
/// two can never drift apart.
fn charge_rowsharded_matmul(d: &mut TpuDevice, m: usize, k: usize, n: usize) -> Result<()> {
    let p = d.num_cores().min(m.max(1));
    let per_rows = m.div_ceil(p);
    let shards = m.div_ceil(per_rows.max(1));
    d.run_phase(0..shards, |core, i| {
        core.charge_matmul_work(per_rows.min(m - i * per_rows), k, n, 1)
    })?;
    d.charge_collective(4 * per_rows * n);
    Ok(())
}

/// The per-device charge of one kernel-generic flight shard, straight
/// from its lanes: the shard's transform lanes pay
/// [`charge_transform_shard`] (one phase, a whole transform per core
/// lane, one collective per stage), its elementwise lanes pay
/// [`charge_sharded_elementwise`] once per kernel kind (the kind's
/// elements summed, split across the vector units), each matmul lane
/// pays the row-sharded MXU schedule ([`charge_rowsharded_matmul`]),
/// and the score lanes pay the fused chain. The charges run in that
/// order — transforms in lane order, the elementwise kinds in
/// first-seen order, then matmuls, then score lanes — and every
/// sub-charge is the same cost function the direct (unqueued) kernel
/// path uses.
fn charge_kernel_shard(d: &mut TpuDevice, jobs: &[KernelJob]) -> Result<()> {
    let transforms = jobs.iter().filter_map(|job| match *job {
        KernelJob::Transform { rows, cols } => Some((rows, cols)),
        _ => None,
    });
    if transforms.clone().next().is_some() {
        charge_transform_shard(d, transforms)?;
    }
    // Each elementwise kind is its own phase: a stack slot per kind,
    // in the order the kinds first appear.
    let mut elementwise = [None::<(std::mem::Discriminant<KernelJob>, usize)>; 3];
    for job in jobs {
        if let KernelJob::Hadamard { elems }
        | KernelJob::PointwiseDiv { elems }
        | KernelJob::Sub { elems } = *job
        {
            let kind = std::mem::discriminant(job);
            let slot = elementwise
                .iter_mut()
                .find(|slot| slot.is_none_or(|(seen, _)| seen == kind))
                .expect("one slot per elementwise kind");
            slot.get_or_insert((kind, 0)).1 += elems;
        }
    }
    for (_, elems) in elementwise.into_iter().flatten() {
        charge_sharded_elementwise(d, elems)?;
    }
    for job in jobs {
        if let KernelJob::Matmul { m, k, n } = *job {
            charge_rowsharded_matmul(d, m, k, n)?;
        }
    }
    let fused = jobs.iter().filter_map(|job| match *job {
        KernelJob::Score { rows, cols } => Some((rows, cols)),
        _ => None,
    });
    if fused.clone().next().is_some() {
        // The fused chain pays its four stages exactly as the staged
        // chain would — a transform flight per transform stage (one
        // collective pair each) and the two elementwise stages — but
        // in ONE flight, so only the final real difference ships over
        // the inter-chip gather instead of all four stage results.
        let elems: usize = fused.clone().map(|(m, n)| m * n).sum();
        charge_transform_shard(d, fused.clone())?;
        charge_sharded_elementwise(d, elems)?;
        charge_transform_shard(d, fused)?;
        charge_sharded_elementwise(d, elems)?;
    }
    Ok(())
}

/// One dry-run probe, the fan-out decision's unit: replays `jobs`
/// through the exact charge function the real dispatch uses, on a
/// scratch simulator mirroring `device`'s configuration and core
/// count, and reads the wall seconds off it. `None` when the shard is
/// unchargeable (an empty phase). Touches no real chip's clock.
fn scratch_probe(device: &SharedDevice, jobs: &[KernelJob]) -> Option<f64> {
    let mut scratch = TpuDevice::with_cores(device.config(), device.num_cores());
    charge_kernel_shard(&mut scratch, jobs).ok()?;
    Some(scratch.wall_seconds())
}

impl TpuAccel {
    /// Charges one flight through a per-core lane lease: up to `want`
    /// lanes are leased (clamped to the chip's cores), the charge is
    /// measured under the device lock exactly as
    /// [`SharedDevice::timed`] would — the ledger arithmetic is
    /// identical, so totals stay bit-identical — and the lane
    /// timeline records the flight's span so concurrent flights on
    /// disjoint cores register as overlap. The pool timeline advances
    /// by the same delta when pooled.
    fn charge_flight_region(
        &self,
        want: usize,
        charge: impl FnOnce(&mut TpuDevice) -> Result<()>,
    ) -> Result<f64> {
        let lease = self.device.lease(want);
        let ((), dt) = lease.timed(charge)?;
        drop(lease);
        if let Some(pool) = &self.pool {
            pool.advance_external(dt);
        }
        Ok(dt)
    }

    /// Charges one flight, possibly mixing kernel kinds — shapes only,
    /// its numerics ran on each submitter's thread. On a single device:
    /// one atomic charge region applying each kind's direct-path cost
    /// model ([`charge_kernel_shard`]). Over a pool with more than one
    /// chip, the flight's lanes are sharded across the chips instead
    /// when that wins (see [`TpuAccel::fanout_decision`]); a pool
    /// with a fault plan runs every multi-lane flight through its
    /// faulted dispatch, one chip or many. A single-lane flight never
    /// reaches the pool's dispatch: it charges chip 0 directly, plan or
    /// no plan, even after chip 0 has fail-stopped. Routing it through
    /// the plan would consume draws and so move every seeded schedule.
    fn dispatch_flight(&self, mut flight: Vec<KernelJob>) -> Result<Vec<()>> {
        if let Some(pool) = &self.pool {
            if flight.len() > 1 {
                let mut healthy = pool.healthy_device_indices();
                if pool.num_devices() > 1 {
                    let decision;
                    (flight, healthy, decision) = self.fanout_decision(pool, flight, healthy);
                    if let Some(decision) = decision {
                        let (plan, gather_bytes) = &*decision;
                        return self.dispatch_pooled_flight(pool, flight, plan, *gather_bytes);
                    }
                }
                if pool.has_fault_plan() {
                    // Fault injection must see every multi-lane
                    // flight: when a plan is installed, the
                    // single-chip fallback also runs through the
                    // pool's faulted dispatch — all lanes on the
                    // first healthy chip, retries and quarantine
                    // included. Without a plan this branch is never
                    // taken and the fallback below stays bit-identical.
                    let lanes: Vec<LaneCost> = flight.iter().map(kernel_lane_cost).collect();
                    let plan =
                        ShardPlan::plan_width(&lanes, 1, 1).project(&healthy, pool.num_devices());
                    let gather_bytes = plan.gather_shard_bytes(&lanes);
                    return self.dispatch_pooled_flight(pool, flight, &plan, gather_bytes);
                }
            }
        }
        let (ops, bytes) = flight_stats(&flight);
        let dt = self.charge_flight_region(flight.len(), |d| charge_kernel_shard(d, &flight))?;
        self.stats.record(dt, ops, bytes);
        Ok(vec![(); flight.len()])
    }

    /// The fan-out decision for `flight` over `pool`'s `healthy` chips:
    /// [`TpuAccel::fanout_plan`]'s answer, run once per distinct
    /// `(flight, healthy)` pair and answered from a bounded memo
    /// afterwards. The answer is a pure function of that pair, since a
    /// pool's chips, fabric and strategy never change once it is built.
    /// A hit copies nothing: the two vectors move into the lookup key
    /// and back out to the caller. The dry run happens outside the
    /// memo's lock; two threads missing on one key both run it and
    /// insert the same answer.
    fn fanout_decision(
        &self,
        pool: &DevicePool,
        flight: Vec<KernelJob>,
        healthy: Vec<usize>,
    ) -> (Vec<KernelJob>, Vec<usize>, Decision) {
        let key = (flight, healthy);
        let hit = self.decisions.lock_recover().get(&key).cloned();
        let decision = match hit {
            Some(decision) => decision,
            None => {
                let decision = self.fanout_plan(pool, &key.0, &key.1).map(Arc::new);
                let mut memo = self.decisions.lock_recover();
                if memo.len() >= DECISION_MEMO_CAPACITY {
                    memo.clear();
                }
                memo.insert(key.clone(), decision.clone());
                decision
            }
        };
        let (flight, healthy) = key;
        (flight, healthy, decision)
    }

    /// Decides whether fanning a flight out across the pool's `healthy`
    /// chips beats keeping it on the primary device, by *dry-running*
    /// the cost model: the flight's lanes are replayed on scratch
    /// simulators — once as if the whole flight ran on the primary
    /// chip, once per planned shard, each scratch chip mirroring the
    /// real chip's configuration and core count (pools may be
    /// heterogeneous) — and the sharded makespan plus the inter-chip
    /// gather is compared against the single-chip wall time. Because
    /// the dry run calls the exact charge function the real dispatch
    /// uses ([`scratch_probe`]), the decision can never drift from the
    /// cost model it optimises; it touches no real chip's clock. A
    /// probe that recurs within one decision (the same shard on the
    /// same chip under two candidate widths) runs once. On a win the
    /// plan and gather payload are returned so the pooled dispatch
    /// reuses them instead of planning again. Dispatch reaches this
    /// through the memo of [`TpuAccel::fanout_decision`].
    ///
    /// Transform-heavy flights fan out (MXU work dwarfs the gather);
    /// small elementwise flights stay on the primary chip, where the
    /// vector units finish them faster than the inter-chip link could
    /// even start the reassembly. Heavily oversubscribed elementwise
    /// flights cross the threshold and shard like transforms do.
    ///
    /// The gather is priced on the **pool's** fabric
    /// ([`DevicePool::gather_cost_s`]): hop- and pressure-scaled on a
    /// ring, hierarchical on a torus, and exactly the seed
    /// `cross_replica_cost_s` on the default flat crossbar. Under
    /// [`ShardStrategy::TopologyAware`] the dry run widens into a
    /// width search: every pod-aligned prefix of the pool
    /// ([`xai_tpu::Topology::fanout_widths`]) is probed in real
    /// simulated seconds, so a cheaper few-participant gather trades
    /// directly against the wider plan's shorter makespan; ties keep
    /// the narrowest (most local) width.
    fn fanout_plan(
        &self,
        pool: &DevicePool,
        flight: &[KernelJob],
        healthy: &[usize],
    ) -> Option<(ShardPlan, usize)> {
        let lanes: Vec<LaneCost> = flight.iter().map(kernel_lane_cost).collect();
        let n = pool.num_devices();
        // Plan over the *healthy* chips, then project the subset plan
        // back onto full-pool device indices. With no fault plan
        // installed the healthy set is the identity, so this is
        // bit-identical to planning over the whole pool.
        let h = healthy.len();
        let fabric = pool.topology();
        let candidates: Vec<ShardPlan> = match pool.strategy() {
            ShardStrategy::TopologyAware => fabric
                .fanout_widths(h)
                .into_iter()
                .map(|w| ShardPlan::plan_width(&lanes, h, w).project(healthy, n))
                .collect(),
            strategy => vec![ShardPlan::plan_on(&lanes, h, strategy, fabric).project(healthy, n)],
        };
        let mut probed: Vec<(usize, Vec<KernelJob>, Option<f64>)> = Vec::new();
        let mut probe = |chip: usize, shard: Vec<KernelJob>| {
            let seen = probed.iter().find(|(c, s, _)| *c == chip && *s == shard);
            if let Some(&(_, _, seconds)) = seen {
                return seconds;
            }
            let seconds = scratch_probe(pool.device(chip), &shard);
            probed.push((chip, shard, seconds));
            seconds
        };
        // An unchargeable probe (empty phase) means the real dispatch
        // would fail identically on either path; prefer the simpler
        // primary-chip path. `self.device` is the pool's chip 0.
        let single = probe(0, flight.to_vec())?;
        let mut best: Option<(f64, ShardPlan, usize)> = None;
        for plan in candidates {
            if plan.occupied_devices() < 2 {
                continue;
            }
            let mut slowest = 0.0f64;
            for (d, assigned) in plan.assignments().iter().enumerate() {
                if assigned.is_empty() {
                    continue;
                }
                slowest = slowest.max(probe(d, assigned.iter().map(|&i| flight[i]).collect())?);
            }
            let gather_bytes = plan.gather_shard_bytes(&lanes);
            let gather = pool.gather_cost_s(gather_bytes, plan.occupied_devices());
            let cost = slowest + gather;
            if best.as_ref().is_none_or(|(b, _, _)| cost < *b) {
                best = Some((cost, plan, gather_bytes));
            }
        }
        let (cost, plan, gather_bytes) = best?;
        (cost < single).then_some((plan, gather_bytes))
    }

    /// Charges one coalesced flight sharded across the pool's chips
    /// under the plan [`TpuAccel::fanout_decision`] already reached —
    /// transform, elementwise, matmul and score lanes placed by one
    /// flops-consistent cost. Each chip charges its shard as a full
    /// flight (the same per-device charges as the single-chip path,
    /// self-measured atomically under the chip's lock through a lease on
    /// its own core lanes, so co-scheduled flights on one chip overlap on
    /// the lane timeline), and the pool merges the slowest shard's
    /// charge plus one inter-chip gather into its timeline.
    fn dispatch_pooled_flight(
        &self,
        pool: &DevicePool,
        flight: Vec<KernelJob>,
        plan: &ShardPlan,
        gather_bytes: usize,
    ) -> Result<Vec<()>> {
        let (ops, bytes) = flight_stats(&flight);
        let run = pool.run_planned(plan, gather_bytes, flight, |device, jobs| {
            let lease = device.lease(jobs.len());
            let ((), dt) = lease.timed(|d| charge_kernel_shard(d, &jobs))?;
            Ok((vec![(); jobs.len()], dt))
        })?;
        self.stats.record(run.seconds, ops, bytes);
        Ok(run.results)
    }
}

impl crate::platform::Platform for TpuAccel {
    fn name(&self) -> String {
        match &self.pool {
            Some(pool) => format!(
                "TPU pool (simulated v2, {} x {} cores)",
                pool.num_devices(),
                self.device.num_cores()
            ),
            None => format!("TPU (simulated v2, {} cores)", self.device.num_cores()),
        }
    }

    /// The configured MXU precision: symmetric int8 quantisation, as
    /// §II-A prescribes, or bf16-rounded operands.
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        match self.precision {
            Precision::Int8 => {
                let qa = QuantizedMatrix::quantize_symmetric(a)?;
                let qb = QuantizedMatrix::quantize_symmetric(b)?;
                qa.matmul_dequant(&qb)
            }
            Precision::Bf16 => ops::matmul(&a.map(bf16_round), &b.map(bf16_round)),
        }
    }

    /// Multi-input parallelism (§III-D): a batch is one launch, each
    /// lane on its own core.
    fn lanes_per_launch(&self, n: usize) -> usize {
        n
    }

    /// Queued, one lane. Unqueued, the kind's direct charge on this
    /// accelerator's chip — a transform's two column-sharded stages, an
    /// elementwise kernel split across the vector units, the row-sharded
    /// MXU schedule — and its ledger entry.
    fn charge_kernel(&self, job: KernelJob) -> Result<()> {
        if self.queue.is_some() {
            return self.charge_launch(job, 1);
        }
        let ((), dt) = self.device.timed(|d| match job {
            KernelJob::Transform { rows, cols } => charge_fft2d(d, rows, cols),
            KernelJob::Hadamard { elems }
            | KernelJob::PointwiseDiv { elems }
            | KernelJob::Sub { elems } => charge_sharded_elementwise(d, elems),
            KernelJob::Matmul { m, k, n } => charge_rowsharded_matmul(d, m, k, n),
            // No single score lane arrives; it would pay a flight's charge.
            KernelJob::Score { .. } => charge_kernel_shard(d, &[job]),
        })?;
        let (ops, bytes) = kernel_ops_bytes(&job);
        self.stats.record(dt, ops, bytes);
        Ok(())
    }

    /// Queued, the lanes of one coalesced flight, blocking until it
    /// lands. Unqueued, a transform (or matmul, or division) batch is one
    /// flight on this accelerator's chip, a Hadamard or difference batch
    /// one phase of whole lanes, a core each, and a request's score
    /// lanes pay the staged chain.
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()> {
        let jobs = vec![job; lanes];
        if let Some(queue) = &self.queue {
            return queue
                .submit(jobs, |_, flight| self.dispatch_flight(flight))
                .map(drop);
        }
        match job {
            KernelJob::Hadamard { elems } | KernelJob::Sub { elems } => {
                let ((), dt) = self
                    .device
                    .timed(|d| charge_per_lane_elementwise(d, elems, lanes))?;
                let (ops, bytes) = flight_stats(&jobs);
                self.stats.record(dt, ops, bytes);
                Ok(())
            }
            KernelJob::Score { rows, cols } => charge_staged_chain(self, rows, cols, lanes),
            KernelJob::Transform { .. }
            | KernelJob::Matmul { .. }
            | KernelJob::PointwiseDiv { .. } => self.dispatch_flight(jobs).map(drop),
        }
    }

    /// A queued request's score lanes run one after another on its own
    /// thread: over the host pool a small request pays more in fork-join
    /// hand-offs than the lanes cost.
    fn scores_on_caller(&self) -> bool {
        self.queue.is_some()
    }

    fn charge_workload(&self, flops: f64, bytes: f64) {
        let dt = self.device.with(|d| {
            let cfg = d.config();
            // MACs at the device's aggregate int8 peak across all
            // cores.
            let macs = flops / 2.0;
            let compute = macs / (cfg.peak_macs_per_sec() * cfg.cores as f64);
            let memory = bytes / cfg.hbm_bytes_per_sec;
            let dt = compute.max(memory);
            d.charge_external_seconds(dt);
            self.stats.record(dt, flops, bytes);
            dt
        });
        if let Some(pool) = &self.pool {
            pool.advance_external(dt);
        }
    }

    fn queue_depth(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.pending_lanes())
    }

    fn healthy_fraction(&self) -> f64 {
        match &self.pool {
            Some(pool) => pool.healthy_fraction(),
            None => 1.0,
        }
    }

    fn elapsed_seconds(&self) -> f64 {
        match &self.pool {
            Some(pool) => pool.wall_seconds(),
            None => self.device.wall_seconds(),
        }
    }

    fn stats(&self) -> KernelStats {
        self.stats.stats()
    }

    fn reset(&self) {
        match &self.pool {
            Some(pool) => pool.reset(),
            None => self.device.reset(),
        }
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_diff::PreparedKernel;
    use crate::host::{CpuModel, GpuModel};
    use crate::Accelerator;
    use proptest::prelude::*;
    use std::time::Instant;
    use xai_tensor::ops::{self, DivPolicy};
    use xai_tensor::Complex64;

    /// How long a test whose flights dispatch on `max_lanes` may take:
    /// well under the 60 s straggler window, so a flight that waited the
    /// window out fails instead of passing slowly.
    const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

    #[test]
    fn a_zero_core_config_runs_as_one_core() {
        let run = |cores: usize| {
            let tpu = TpuAccel::with_config(TpuConfig {
                cores,
                ..TpuConfig::tpu_v2()
            });
            let x = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c) % 7) as f64).unwrap();
            let spec = tpu.fft2d(&x.to_complex()).unwrap();
            let prod = tpu.matmul(&x, &x).unwrap();
            let bits: Vec<u64> = spec
                .as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .chain(prod.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            (bits, tpu.elapsed_seconds().to_bits())
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn fft_numerics_are_exact() {
        let tpu = TpuAccel::tpu_v2();
        let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 5) as f64)
            .unwrap()
            .to_complex();
        let spec = tpu.fft2d(&x).unwrap();
        let reference = xai_fourier::fft2d(&x).unwrap();
        assert!(spec.max_abs_diff(&reference).unwrap() < 1e-12);
    }

    /// §II-A's quantisation story: int8 is the fast path, and its
    /// error is real but bounded.
    #[test]
    fn matmul_carries_real_quantisation_error() {
        let tpu = TpuAccel::tpu_v2();
        let a = Matrix::from_fn(8, 8, |r, c| ((r * 7 + c) % 9) as f64 / 9.0 - 0.5).unwrap();
        let exact = ops::matmul(&a, &a).unwrap();
        let got = tpu.matmul(&a, &a).unwrap();
        let err = exact.max_abs_diff(&got).unwrap();
        assert!(err > 0.0, "int8 path must not be bit-exact");
        assert!(err < 0.1, "but must stay close");
    }

    /// At 32² the int8 error stays within 5 % of the product's largest
    /// entry.
    #[test]
    fn quantisation_error_is_bounded_on_tpu_matmul() {
        let tpu = TpuAccel::tpu_v2();
        let a = Matrix::from_fn(32, 32, |r, c| ((r * 7 + c * 3) % 17) as f64 / 17.0 - 0.5).unwrap();
        let exact = ops::matmul(&a, &a).unwrap();
        let got = tpu.matmul(&a, &a).unwrap();
        let rel = exact.max_abs_diff(&got).unwrap() / exact.max_abs().max(1e-12);
        assert!(rel < 0.05, "relative int8 error {rel}");
    }

    /// int8 has no code for a NaN or ±inf: a TPU matmul with one in an
    /// operand is refused, on every placement, and charges nothing,
    /// while a host model keeps IEEE semantics.
    #[test]
    fn a_non_finite_matmul_operand_is_refused_and_free() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64 / 8.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut poisoned = a.clone();
            poisoned[(1, 2)] = bad;
            for acc in [
                TpuAccel::tpu_v2(),
                TpuAccel::tpu_v2().with_batching(Duration::ZERO, 4),
                TpuAccel::with_pool(2, Duration::ZERO, 4),
            ] {
                for (l, r) in [(&poisoned, &a), (&a, &poisoned)] {
                    let err = acc.matmul(l, r).unwrap_err();
                    assert!(
                        matches!(err, xai_tensor::TensorError::InvalidQuantRange { .. }),
                        "{bad}: {err:?}"
                    );
                }
                assert_eq!((acc.elapsed_seconds(), acc.stats().kernels), (0.0, 0));
            }
            let host = CpuModel::i7_3700().matmul(&poisoned, &a).unwrap();
            assert!(host.iter().any(|v| !v.is_finite()), "{bad}");
        }
    }

    #[test]
    fn tpu_beats_gpu_beats_cpu_on_large_transform() {
        let n = 256;
        let x = Matrix::from_fn(n, n, |r, c| ((r + c) % 13) as f64)
            .unwrap()
            .to_complex();
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let tpu = TpuAccel::tpu_v2();
        cpu.fft2d(&x).unwrap();
        gpu.fft2d(&x).unwrap();
        tpu.fft2d(&x).unwrap();
        assert!(
            tpu.elapsed_seconds() < gpu.elapsed_seconds(),
            "tpu {} vs gpu {}",
            tpu.elapsed_seconds(),
            gpu.elapsed_seconds()
        );
        assert!(gpu.elapsed_seconds() < cpu.elapsed_seconds());
    }

    #[test]
    fn more_cores_are_faster() {
        let x = Matrix::from_fn(128, 128, |r, c| (r + c) as f64)
            .unwrap()
            .to_complex();
        let one = TpuAccel::with_cores(1);
        let many = TpuAccel::with_cores(64);
        one.fft2d(&x).unwrap();
        many.fft2d(&x).unwrap();
        assert!(many.elapsed_seconds() < one.elapsed_seconds());
    }

    #[test]
    fn charge_workload_roofline() {
        let tpu = TpuAccel::tpu_v2();
        tpu.charge_workload(1e12, 0.0);
        assert!(tpu.elapsed_seconds() > 0.0);
        let t1 = tpu.elapsed_seconds();
        tpu.charge_workload(0.0, 1e9);
        assert!(tpu.elapsed_seconds() > t1);
    }

    #[test]
    fn reset_clears_device_and_stats() {
        let tpu = TpuAccel::tpu_v2();
        let a = Matrix::filled(8, 8, 0.5).unwrap();
        tpu.matmul(&a, &a).unwrap();
        tpu.reset();
        assert_eq!(tpu.elapsed_seconds(), 0.0);
        assert_eq!(tpu.stats().kernels, 0);
    }

    #[test]
    fn elementwise_is_cheap_relative_to_transforms() {
        let tpu = TpuAccel::tpu_v2();
        let x = Matrix::filled(64, 64, Complex64::ONE).unwrap();
        let (_, t_had) = crate::traits::time_region(&tpu, |a| a.hadamard(&x, &x)).unwrap();
        let (_, t_fft) = crate::traits::time_region(&tpu, |a| a.fft2d(&x)).unwrap();
        assert!(t_had < t_fft);
    }

    #[test]
    fn name_mentions_core_count() {
        assert!(TpuAccel::with_cores(16).name().contains("16"));
    }

    /// A TPUv2 accelerator whose MXU runs at `precision`.
    fn with_precision(precision: Precision) -> TpuAccel {
        TpuAccel::with_config(TpuConfig {
            precision,
            ..TpuConfig::tpu_v2()
        })
    }

    #[test]
    fn bf16_precision_is_slower_but_present() {
        let a = Matrix::from_fn(64, 64, |r, c| ((r + c) % 7) as f64 / 7.0).unwrap();
        let int8 = with_precision(Precision::Int8);
        let bf16 = with_precision(Precision::Bf16);
        int8.matmul(&a, &a).unwrap();
        bf16.matmul(&a, &a).unwrap();
        // Same scheduling, half the MAC throughput ⇒ bf16 takes longer
        // (the systolic cycle model is precision-independent at equal
        // array size, so equality is also acceptable; the devices must
        // at least both run).
        assert!(bf16.elapsed_seconds() >= int8.elapsed_seconds());
        assert_eq!(bf16.config().precision, Precision::Bf16);
    }

    fn unit_matrix(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0 - 0.5).unwrap()
    }

    #[test]
    fn matmul_bf16_is_more_accurate_than_int8() {
        let a = unit_matrix(8);
        let exact = ops::matmul(&a, &a).unwrap();
        let error = |precision| {
            let got = with_precision(precision).matmul(&a, &a).unwrap();
            exact.max_abs_diff(&got).unwrap()
        };
        let (e_int8, e_bf16) = (error(Precision::Int8), error(Precision::Bf16));
        assert!(e_bf16 < e_int8, "bf16 {e_bf16} should beat int8 {e_int8}");
    }

    /// A bf16 chip's product is exactly `ops::matmul` of the
    /// bf16-rounded operands, on every placement.
    #[test]
    fn a_bf16_matmul_is_the_host_product_of_rounded_operands() {
        use xai_tensor::quant::bf16_round;
        let a = unit_matrix(8);
        let b = Matrix::from_fn(8, 5, |r, c| (r * 5 + c) as f64 / 7.0 - 2.0).unwrap();
        let want = ops::matmul(&a.map(bf16_round), &b.map(bf16_round)).unwrap();
        let bf16 = Precision::Bf16;
        let pool = DevicePool::new(with_precision(bf16).config(), 2);
        for acc in [
            with_precision(bf16),
            with_precision(bf16).with_batching(Duration::ZERO, 4),
            TpuAccel::over_pool(pool, Duration::ZERO, 4),
        ] {
            let got = acc.matmul(&a, &b).unwrap();
            let bits = |m: &Matrix<f64>| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", acc.name());
        }
    }

    #[test]
    fn clone_is_an_independent_device() {
        let tpu = TpuAccel::with_cores(4);
        let a = Matrix::filled(8, 8, 0.5).unwrap();
        tpu.matmul(&a, &a).unwrap();
        let copy = tpu.clone();
        assert_eq!(copy.elapsed_seconds(), tpu.elapsed_seconds());
        copy.matmul(&a, &a).unwrap();
        assert!(copy.elapsed_seconds() > tpu.elapsed_seconds());
    }

    #[test]
    fn two_front_ends_share_one_device_clock() {
        let a = TpuAccel::with_cores(4);
        let b = TpuAccel::over_device(a.device());
        let x = Matrix::filled(8, 8, 0.5).unwrap();
        b.matmul(&x, &x).unwrap();
        assert!(a.elapsed_seconds() > 0.0, "b's work advances a's clock");
        assert_eq!(a.elapsed_seconds(), b.elapsed_seconds());
    }

    #[test]
    fn batching_mode_is_bit_identical_to_unbatched() {
        let xs: Vec<Matrix<Complex64>> = (0..5)
            .map(|s| {
                Matrix::from_fn(12, 12, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let plain = TpuAccel::with_cores(4);
        let batching = TpuAccel::with_cores(4).with_batching(Duration::ZERO, 4);
        assert!(batching.queue.is_some() && plain.queue.is_none());
        let a = plain.fft2d_batch(&xs).unwrap();
        let b = batching.fft2d_batch(&xs).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        let one = batching.fft2d(&xs[0]).unwrap();
        assert_eq!(one.as_slice(), plain.fft2d(&xs[0]).unwrap().as_slice());
        let inv = batching.ifft2d_batch(&b).unwrap();
        let inv_plain = plain.ifft2d_batch(&a).unwrap();
        for (x, y) in inv_plain.iter().zip(&inv) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        assert!(batching.elapsed_seconds() > 0.0);
    }

    #[test]
    fn concurrent_requests_coalesce_into_fewer_collectives() {
        let started = Instant::now();
        use std::sync::Arc;
        let threads = 4usize;
        let per_thread = 4usize; // transforms per request
        let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 5) as f64)
            .unwrap()
            .to_complex();
        let reference = xai_fourier::fft2d(&x).unwrap();

        // Per-request dispatch: every request pays 2 collectives.
        let plain = Arc::new(TpuAccel::with_cores(threads * per_thread));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let acc = Arc::clone(&plain);
                let xs = vec![x.clone(); per_thread];
                scope.spawn(move || acc.fft2d_batch(&xs).unwrap());
            }
        });
        assert_eq!(plain.device().collectives(), 2 * threads as u64);

        // Coalesced: max_lanes equals the total, so all requests ride
        // one flight — 2 collectives for everyone, and one phase.
        let batching = Arc::new(
            TpuAccel::with_cores(threads * per_thread)
                .with_batching(Duration::from_secs(60), threads * per_thread),
        );
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let acc = Arc::clone(&batching);
                let xs = vec![x.clone(); per_thread];
                let reference = reference.clone();
                scope.spawn(move || {
                    let out = acc.fft2d_batch(&xs).unwrap();
                    for o in &out {
                        assert_eq!(o.as_slice(), reference.as_slice());
                    }
                });
            }
        });
        assert_eq!(batching.device().collectives(), 2);
        assert!(
            batching.elapsed_seconds() < plain.elapsed_seconds(),
            "coalesced flight must beat per-request dispatch: {} vs {}",
            batching.elapsed_seconds(),
            plain.elapsed_seconds()
        );
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched every flight"
        );
    }

    #[test]
    fn batching_clone_gets_independent_device_and_queue() {
        let a = TpuAccel::with_cores(2).with_batching(Duration::ZERO, 2);
        let b = a.clone();
        assert!(b.queue.is_some());
        assert!(!a.device().same_device(&b.device()));
        let x = Matrix::filled(4, 4, Complex64::ONE).unwrap();
        b.fft2d(&x).unwrap();
        assert!(b.elapsed_seconds() > 0.0);
        assert_eq!(a.elapsed_seconds(), 0.0);
    }

    #[test]
    fn pooled_flights_are_bit_identical_to_single_device() {
        use xai_tpu::DevicePool;
        let xs: Vec<Matrix<Complex64>> = (0..12)
            .map(|s| {
                Matrix::from_fn(10, 10, |r, c| ((r * 7 + c * 3 + s) % 11) as f64 - 5.0)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let plain = TpuAccel::with_cores(4);
        let reference = plain.fft2d_batch(&xs).unwrap();
        for n_devices in [1usize, 2, 4, 16] {
            let pooled = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 4),
                Duration::ZERO,
                4,
            );
            assert_eq!(pooled.pool().map(DevicePool::num_devices), Some(n_devices));
            let out = pooled.fft2d_batch(&xs).unwrap();
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "n_devices={n_devices}");
            }
            let back = pooled.ifft2d_batch(&out).unwrap();
            let back_ref = plain.ifft2d_batch(&reference).unwrap();
            for (a, b) in back_ref.iter().zip(&back) {
                assert_eq!(a.as_slice(), b.as_slice(), "n_devices={n_devices}");
            }
            assert!(pooled.elapsed_seconds() > 0.0);
        }
    }

    #[test]
    fn four_chip_pool_beats_one_oversubscribed_chip() {
        let started = Instant::now();
        use std::sync::Arc;
        use xai_tpu::DevicePool;
        let cores = 4usize;
        let lanes = 4 * cores * 4; // 4 lanes per core on a single chip
        let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 5) as f64)
            .unwrap()
            .to_complex();

        let single =
            Arc::new(TpuAccel::with_cores(cores).with_batching(Duration::from_secs(60), lanes));
        let pooled = Arc::new(TpuAccel::over_pool(
            DevicePool::with_cores(TpuConfig::tpu_v2(), 4, cores),
            Duration::from_secs(60),
            lanes,
        ));
        for acc in [&single, &pooled] {
            let acc = Arc::clone(acc);
            let x = x.clone();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let acc = Arc::clone(&acc);
                    let xs = vec![x.clone(); lanes / 4];
                    scope.spawn(move || acc.fft2d_batch(&xs).unwrap());
                }
            });
        }
        assert!(
            pooled.elapsed_seconds() < single.elapsed_seconds(),
            "4-chip pool {} s must beat one chip {} s",
            pooled.elapsed_seconds(),
            single.elapsed_seconds()
        );
        assert_eq!(pooled.pool().unwrap().sharded_flights(), 1);
        assert!(pooled.pool().unwrap().gather_seconds() > 0.0);
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched every flight"
        );
    }

    #[test]
    fn queued_kernels_are_bit_identical_to_direct_paths() {
        // Every kernel kind — not just transforms — must produce
        // bit-identical results whether it runs direct, through the
        // queue, or sharded over a pool.
        let a = Matrix::from_fn(12, 12, |r, c| ((r * 7 + c) % 9) as f64 / 9.0 - 0.5).unwrap();
        let b = Matrix::from_fn(12, 12, |r, c| ((r + c * 3) % 7) as f64 / 7.0 - 0.5).unwrap();
        let ca = a.to_complex();
        let cb = b.to_complex();
        let plain = TpuAccel::with_cores(4);
        for acc in [
            TpuAccel::with_cores(4).with_batching(Duration::ZERO, 4),
            TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), 2, 4),
                Duration::ZERO,
                4,
            ),
        ] {
            assert_eq!(
                acc.matmul(&a, &b).unwrap().as_slice(),
                plain.matmul(&a, &b).unwrap().as_slice()
            );
            assert_eq!(
                acc.hadamard(&ca, &cb).unwrap().as_slice(),
                plain.hadamard(&ca, &cb).unwrap().as_slice()
            );
            assert_eq!(
                acc.sub(&a, &b).unwrap().as_slice(),
                plain.sub(&a, &b).unwrap().as_slice()
            );
            let policy = DivPolicy::Clamp { floor: 1e-9 };
            assert_eq!(
                acc.pointwise_div(&ca, &cb, policy).unwrap().as_slice(),
                plain.pointwise_div(&ca, &cb, policy).unwrap().as_slice()
            );
            assert!(acc.elapsed_seconds() > 0.0);
        }
    }

    #[test]
    fn pooled_elementwise_and_matmul_batches_are_bit_identical() {
        let xs: Vec<Matrix<Complex64>> = (0..12)
            .map(|s| {
                Matrix::from_fn(10, 10, |r, c| ((r * 5 + c + s) % 11) as f64 - 5.0)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let k = Matrix::from_fn(10, 10, |r, c| ((r + c) % 4) as f64 * 0.5)
            .unwrap()
            .to_complex();
        let y = Matrix::from_fn(10, 10, |r, c| ((r * 3 + c) % 6) as f64).unwrap();
        let preds: Vec<Matrix<f64>> = (0..12)
            .map(|s| Matrix::from_fn(10, 10, |r, c| ((r + c + s) % 5) as f64).unwrap())
            .collect();
        let plain = TpuAccel::with_cores(4);
        let had_ref = plain.hadamard_batch(&xs, &k).unwrap();
        let sub_ref = plain.sub_batch(&y, &preds).unwrap();
        for n_devices in [1usize, 2, 4, 16] {
            let pooled = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 4),
                Duration::ZERO,
                12,
            );
            let had = pooled.hadamard_batch(&xs, &k).unwrap();
            for (r, o) in had_ref.iter().zip(&had) {
                assert_eq!(r.as_slice(), o.as_slice(), "hadamard n_devices={n_devices}");
            }
            let sub = pooled.sub_batch(&y, &preds).unwrap();
            for (r, o) in sub_ref.iter().zip(&sub) {
                assert_eq!(r.as_slice(), o.as_slice(), "sub n_devices={n_devices}");
            }
            assert!(pooled.elapsed_seconds() > 0.0);
        }
    }

    #[test]
    fn heavy_elementwise_flights_fan_out_and_strong_scale() {
        // 2048 Hadamard lanes of 32² on single-core chips: the fleet
        // is so oversubscribed that the fan-out win dwarfs the
        // inter-chip gather, so the cost-model oracle shards the
        // flight — the residual Amdahl term of pinning elementwise
        // work to the primary chip is gone.
        let xs: Vec<Matrix<Complex64>> = (0..2048)
            .map(|_| Matrix::filled(32, 32, Complex64::ONE).unwrap())
            .collect();
        let k = Matrix::filled(32, 32, Complex64::I).unwrap();
        let time = |n_devices: usize| {
            let acc = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 1),
                Duration::ZERO,
                xs.len(),
            );
            acc.hadamard_batch(&xs, &k).unwrap();
            if n_devices > 1 {
                assert_eq!(acc.pool().unwrap().sharded_flights(), 1);
                assert!(acc.pool().unwrap().gather_seconds() > 0.0);
            }
            acc.elapsed_seconds()
        };
        let (t4, t1) = (time(4), time(1));
        assert!(
            t4 < t1,
            "4 chips {t4} s must beat 1 chip {t1} s on a heavy elementwise flight"
        );
    }

    #[test]
    fn pooled_flights_stay_bit_identical_on_ring_and_torus_fabrics() {
        use xai_tpu::Topology;
        // The fabric reshapes charges, never numerics: a 16-chip
        // torus pool and a ring pool both reproduce the single-chip
        // transform bits, while the torus's hierarchical gather
        // undercuts the ring's.
        let xs: Vec<Matrix<Complex64>> = (0..64)
            .map(|s| {
                Matrix::from_fn(16, 16, |r, c| ((r * 7 + c * 3 + s) % 11) as f64 - 5.0)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let plain = TpuAccel::with_cores(4);
        let reference = plain.fft2d_batch(&xs).unwrap();
        let mut gathers = Vec::new();
        for topology in [Topology::ring(), Topology::torus(4)] {
            let pooled = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), 16, 1).with_topology(topology),
                Duration::ZERO,
                xs.len(),
            );
            let out = pooled.fft2d_batch(&xs).unwrap();
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "{}", topology.name());
            }
            assert_eq!(pooled.pool().unwrap().sharded_flights(), 1);
            gathers.push(pooled.pool().unwrap().gather_seconds());
        }
        assert!(
            gathers[1] < gathers[0],
            "hierarchical torus gather {} s must undercut the ring {} s",
            gathers[1],
            gathers[0]
        );
    }

    #[test]
    fn topology_aware_fanout_narrows_the_flight_on_a_torus() {
        use xai_tpu::{ShardStrategy, Topology};
        // 20 equal transform lanes on a 16-chip 4×4 torus of
        // single-core chips: full width leaves four chips running two
        // lanes anyway, so the width search settles on three pods —
        // the same makespan with a cheaper 12-participant gather.
        let xs: Vec<Matrix<Complex64>> = (0..20)
            .map(|s| {
                Matrix::from_fn(16, 16, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let run = |strategy: ShardStrategy| {
            let acc = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), 16, 1)
                    .with_strategy(strategy)
                    .with_topology(Topology::torus(4)),
                Duration::ZERO,
                xs.len(),
            );
            let out = acc.fft2d_batch(&xs).unwrap();
            let occupied = acc
                .pool()
                .unwrap()
                .devices()
                .iter()
                .filter(|d| d.wall_seconds() > 0.0)
                .count();
            (out, occupied, acc.elapsed_seconds())
        };
        let (aware_out, aware_occupied, aware_s) = run(ShardStrategy::TopologyAware);
        let (full_out, full_occupied, full_s) = run(ShardStrategy::CostAware);
        for (a, b) in aware_out.iter().zip(&full_out) {
            assert_eq!(a.as_slice(), b.as_slice(), "placement never changes bits");
        }
        assert!(
            aware_occupied < full_occupied,
            "aware plan must occupy fewer chips ({aware_occupied} vs {full_occupied})"
        );
        assert!(
            aware_s <= full_s,
            "narrower gather must not cost time ({aware_s} s vs {full_s} s)"
        );
    }

    #[test]
    fn light_elementwise_flights_stay_on_the_primary_chip() {
        // A small Hadamard batch costs less on one chip's vector units
        // than the inter-chip gather alone: the cost-model oracle must
        // keep it on the primary chip instead of sharding at a loss.
        let xs: Vec<Matrix<Complex64>> = (0..8)
            .map(|_| Matrix::filled(16, 16, Complex64::ONE).unwrap())
            .collect();
        let k = Matrix::filled(16, 16, Complex64::I).unwrap();
        let acc = TpuAccel::with_pool(4, Duration::ZERO, 8);
        acc.hadamard_batch(&xs, &k).unwrap();
        let pool = acc.pool().unwrap();
        assert_eq!(pool.sharded_flights(), 0);
        assert_eq!(pool.gather_seconds(), 0.0);
        assert!(acc.elapsed_seconds() > 0.0, "still charged on the primary");
    }

    #[test]
    fn concurrent_matmuls_coalesce_and_shard_across_chips() {
        let started = Instant::now();
        use std::sync::Arc;
        let a = Matrix::from_fn(128, 128, |r, c| ((r * 3 + c) % 11) as f64 / 11.0 - 0.5).unwrap();
        let reference = TpuAccel::with_cores(4).matmul(&a, &a).unwrap();
        let acc = Arc::new(TpuAccel::over_pool(
            DevicePool::with_cores(TpuConfig::tpu_v2(), 4, 4),
            Duration::from_secs(60),
            4,
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let acc = Arc::clone(&acc);
                let a = a.clone();
                let reference = reference.clone();
                scope.spawn(move || {
                    let out = acc.matmul(&a, &a).unwrap();
                    assert_eq!(out.as_slice(), reference.as_slice());
                });
            }
        });
        // All four requests rode one flight, sharded one matmul per
        // chip by the cost-model oracle.
        assert_eq!(acc.pool().unwrap().sharded_flights(), 1);
        assert!(acc.pool().unwrap().gather_seconds() > 0.0);
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched every flight"
        );
    }

    #[test]
    fn pooled_non_transform_kernels_share_the_merged_clock() {
        let pooled = TpuAccel::with_pool(2, Duration::ZERO, 4);
        let a = Matrix::filled(8, 8, 0.5).unwrap();
        pooled.matmul(&a, &a).unwrap();
        assert!(
            pooled.elapsed_seconds() > 0.0,
            "primary-chip kernels must advance the pool timeline"
        );
        let t = pooled.elapsed_seconds();
        pooled.charge_workload(1e12, 0.0);
        assert!(pooled.elapsed_seconds() > t);
        pooled.reset();
        assert_eq!(pooled.elapsed_seconds(), 0.0);
        assert_eq!(pooled.stats().kernels, 0);
    }

    #[test]
    fn pooled_clone_is_independent() {
        let a = TpuAccel::with_pool(2, Duration::ZERO, 2);
        let x = Matrix::filled(4, 4, Complex64::ONE).unwrap();
        a.fft2d(&x).unwrap();
        let b = a.clone();
        assert!(b.pool().is_some() && b.queue.is_some());
        assert_eq!(b.elapsed_seconds(), a.elapsed_seconds());
        b.fft2d_batch(&vec![x.clone(); 4]).unwrap();
        assert!(b.elapsed_seconds() > a.elapsed_seconds());
        assert!(!a.device().same_device(&b.device()));
    }

    #[test]
    fn pool_name_mentions_chip_count() {
        let acc = TpuAccel::with_pool(4, Duration::ZERO, 8);
        assert!(acc.name().contains("4 x"), "{}", acc.name());
    }

    #[test]
    fn concurrent_kernels_match_serial_results_and_time() {
        use std::sync::Arc;
        let x = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c) % 5) as f64)
            .unwrap()
            .to_complex();
        let reference = xai_fourier::fft2d(&x).unwrap();

        let shared = Arc::new(TpuAccel::with_cores(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let acc = Arc::clone(&shared);
                let x = x.clone();
                let reference = reference.clone();
                scope.spawn(move || {
                    let spec = acc.fft2d(&x).unwrap();
                    assert!(spec.max_abs_diff(&reference).unwrap() < 1e-12);
                });
            }
        });

        let serial = TpuAccel::with_cores(4);
        for _ in 0..4 {
            serial.fft2d(&x).unwrap();
        }
        assert!((shared.elapsed_seconds() - serial.elapsed_seconds()).abs() < 1e-15);
        assert_eq!(shared.stats().kernels, serial.stats().kernels);
    }

    /// One lane of `kind` (all six [`KernelJob`] kinds) at `m × n`.
    fn memo_test_job(kind: usize, m: usize, n: usize) -> KernelJob {
        match kind % 6 {
            0 => KernelJob::Transform { rows: m, cols: n },
            1 => KernelJob::Hadamard { elems: m * n },
            2 => KernelJob::PointwiseDiv { elems: m * n },
            3 => KernelJob::Sub { elems: m * n },
            4 => KernelJob::Matmul { m, k: n, n: m },
            _ => KernelJob::Score { rows: m, cols: n },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Memo ≡ dry run, differentially: an accelerator that keeps
        /// its decision memo and one whose memo is emptied before
        /// every decision (so each decision is a fresh dry run) make
        /// the same fan-out decisions and leave the same clocks on
        /// every chip, over mixed flights on heterogeneous pools under
        /// every strategy, with a transient fault and a fail-stop
        /// quarantining chips mid-sequence.
        #[test]
        fn memoised_decisions_decide_and_charge_exactly_like_fresh_dry_runs(
            flights in proptest::collection::vec(
                proptest::collection::vec((0usize..6, 1usize..18, 1usize..18), 1usize..13),
                1usize..5,
            ),
            cores in proptest::collection::vec(1usize..9, 2usize..6),
            strategy in 0usize..3,
            faulted_draw in 0u64..8,
        ) {
            let strategy = [
                ShardStrategy::RoundRobin,
                ShardStrategy::CostAware,
                ShardStrategy::TopologyAware,
            ][strategy];
            let accel = || {
                let chips = cores
                    .iter()
                    .map(|&c| SharedDevice::with_cores(TpuConfig::small_test(), c))
                    .collect();
                // Chip 1 fail-stops as soon as the merged clock moves;
                // one forced transient quarantines whichever chip
                // carries that draw.
                let plan = xai_tpu::FaultPlan::seeded(11)
                    .transient_draw(faulted_draw)
                    .fail_stop(1, 1.0e-12);
                let pool = DevicePool::from_devices(chips)
                    .with_strategy(strategy)
                    .with_topology(xai_tpu::Topology::torus(2))
                    .with_fault_plan(plan);
                TpuAccel::over_pool(pool, Duration::ZERO, 64)
            };
            let (warm, fresh) = (accel(), accel());
            let (warm_pool, fresh_pool) = (warm.pool().unwrap(), fresh.pool().unwrap());
            // Every flight twice over: the second pass finds each
            // repeated decision already memoised on the warm side.
            for lanes in flights.iter().chain(&flights) {
                let flight: Vec<KernelJob> =
                    lanes.iter().map(|&(k, m, n)| memo_test_job(k, m, n)).collect();
                fresh.decisions.lock_recover().clear();
                let decide = |acc: &TpuAccel, pool: &DevicePool| {
                    let healthy = pool.healthy_device_indices();
                    acc.fanout_decision(pool, flight.clone(), healthy)
                };
                prop_assert_eq!(decide(&warm, warm_pool), decide(&fresh, fresh_pool));
                fresh.decisions.lock_recover().clear();
                prop_assert_eq!(
                    warm.dispatch_flight(flight.clone()),
                    fresh.dispatch_flight(flight)
                );
            }
            prop_assert_eq!(
                warm_pool.wall_seconds().to_bits(),
                fresh_pool.wall_seconds().to_bits()
            );
            prop_assert_eq!(warm_pool.fault_stats(), fresh_pool.fault_stats());
            for (w, f) in warm_pool.devices().iter().zip(fresh_pool.devices()) {
                prop_assert_eq!(w.wall_seconds().to_bits(), f.wall_seconds().to_bits());
            }
            // And entry by entry: what the memo holds is what a dry
            // run says.
            let memo = warm.decisions.lock_recover().clone();
            prop_assert!(!memo.is_empty());
            for ((flight, healthy), decision) in memo {
                let dry_run = warm.fanout_plan(warm_pool, &flight, &healthy);
                prop_assert_eq!(decision.as_deref(), dry_run.as_ref());
            }
        }
    }

    /// To every cost function a score lane is the fused chain of its
    /// shape — its device time and ledger entry those of the four staged
    /// kernels, its planner cost their flops with one real gather — and a
    /// queued request whose rectangle leaves the input fails alone:
    /// refused, typed, before anything is charged, while a well-formed
    /// request on the same accelerator lands.
    #[test]
    fn a_score_lane_costs_its_filter_diff_lane_and_fails_alone() {
        let (rows, cols) = (6, 10);
        let lane = KernelJob::Score { rows, cols };
        let elems = rows * cols;
        let staged = [
            KernelJob::Transform { rows, cols },
            KernelJob::Hadamard { elems },
            KernelJob::Transform { rows, cols },
            KernelJob::Sub { elems },
        ];
        // The staged kernels one flight each, against the lane alone.
        let charged = |shards: &[KernelJob]| {
            let mut device = TpuDevice::with_cores(TpuConfig::small_test(), 2);
            for job in shards {
                charge_kernel_shard(&mut device, std::slice::from_ref(job)).unwrap();
            }
            device.wall_seconds().to_bits()
        };
        assert_eq!(charged(&[lane]), charged(&staged));
        assert_eq!(kernel_ops_bytes(&lane), flight_stats(&staged));
        let planned = LaneCost {
            compute: flight_stats(&staged).0,
            gather_bytes: 8 * elems,
        };
        assert_eq!(kernel_lane_cost(&lane), planned);

        let x = Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0).unwrap();
        let kernel = PreparedKernel::new(x.map(|v| Complex64::new(0.25 * v, 1.0)));
        let acc = TpuAccel::tpu_v2().with_batching(Duration::ZERO, 8);
        let outside = [(1..4, 2..7), (2..3, 4..cols + 1)];
        let err = acc.contribution_scores(&x, &x, &outside, &kernel);
        assert!(matches!(
            err,
            Err(xai_tensor::TensorError::ShapeMismatch {
                op: "occluded rectangle",
                ..
            })
        ));
        assert_eq!((acc.elapsed_seconds(), acc.stats().kernels), (0.0, 0));
        let inside = [(1..4, 2..7), (2..3, 4..6)];
        let scores = acc.contribution_scores(&x, &x, &inside, &kernel).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(acc.stats().kernels, 1);
    }

    /// A pool of one chip runs its multi-lane flights through the
    /// installed fault plan, as a pool of many does: a dead chip or a
    /// chip that faults every draw exhausts the budget, and counts what
    /// it saw. An empty plan leaves the flight's bits and clock where no
    /// plan leaves them.
    #[test]
    fn a_one_chip_pool_sees_its_fault_plan() {
        let xs: Vec<_> = (0..4)
            .map(|s| {
                Matrix::from_fn(8, 8, |r, c| ((r * 3 + c + s) % 7) as f64)
                    .unwrap()
                    .to_complex()
            })
            .collect();
        let one_chip = |plan: Option<xai_tpu::FaultPlan>| {
            let pool = DevicePool::new(TpuConfig::small_test(), 1);
            if let Some(plan) = plan {
                pool.install_fault_plan(plan);
            }
            TpuAccel::over_pool(pool, Duration::ZERO, 8)
        };
        for plan in [
            xai_tpu::FaultPlan::seeded(1).fail_stop(0, 0.0),
            xai_tpu::FaultPlan::seeded(1).transient(1.0),
        ] {
            let acc = one_chip(Some(plan.clone()));
            let err = acc.fft2d_batch(&xs).unwrap_err();
            assert!(
                matches!(err, xai_tensor::TensorError::FaultBudgetExhausted { .. }),
                "{plan:?}: {err:?}"
            );
            let stats = acc.pool().unwrap().fault_stats();
            assert_eq!(stats.budget_exhausted, 1, "{plan:?}");
            assert!(stats.fail_stops + stats.transient_faults > 0, "{plan:?}");
        }
        let (plain, empty) = (
            one_chip(None),
            one_chip(Some(xai_tpu::FaultPlan::seeded(1))),
        );
        let bits = |acc: &TpuAccel| {
            let out = acc.fft2d_batch(&xs).unwrap();
            let values: Vec<u64> = out
                .iter()
                .flat_map(|m| m.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
                .collect();
            (values, acc.elapsed_seconds().to_bits(), acc.stats())
        };
        assert_eq!(bits(&empty), bits(&plain));
    }

    /// The memo is cleared when full, so a sweep over ten times its
    /// capacity in distinct shapes never holds more than the capacity.
    #[test]
    fn decision_memo_never_exceeds_its_capacity() {
        let acc = TpuAccel::over_pool(
            DevicePool::new(TpuConfig::small_test(), 2),
            Duration::ZERO,
            8,
        );
        let pool = acc.pool().unwrap();
        let mut high_water = 0;
        for elems in 1..=10 * DECISION_MEMO_CAPACITY {
            let flight = vec![
                KernelJob::Sub { elems },
                KernelJob::Transform {
                    rows: 2,
                    cols: elems % 7 + 1,
                },
            ];
            let healthy = vec![0, 1];
            let first = acc.fanout_decision(pool, flight.clone(), healthy.clone());
            assert_eq!(
                first,
                acc.fanout_decision(pool, flight, healthy),
                "hit == miss"
            );
            high_water = high_water.max(acc.decisions.lock_recover().len());
        }
        assert_eq!(high_water, DECISION_MEMO_CAPACITY);
    }

    /// A memoised decision follows the healthy set through a fault
    /// plan's life: a transient fault quarantines a chip, its cooldown
    /// re-admits it, and the plan is cleared — at every step the warm
    /// accelerator decides, charges and counts exactly as one that
    /// decides afresh, and the memo holds one decision per healthy set
    /// it saw.
    #[test]
    fn memoised_decisions_follow_quarantine_readmission_and_a_cleared_plan() {
        let accel = || {
            let plan = xai_tpu::FaultPlan::seeded(5)
                .transient_draw(0)
                .with_cooldown_s(1.0e-6);
            let pool = DevicePool::new(TpuConfig::small_test(), 4).with_fault_plan(plan);
            TpuAccel::over_pool(pool, Duration::ZERO, 16)
        };
        let flight: Vec<KernelJob> = (0..6)
            .map(|_| KernelJob::Transform { rows: 16, cols: 16 })
            .collect();
        let (warm, fresh) = (accel(), accel());
        let (warm_pool, fresh_pool) = (warm.pool().unwrap(), fresh.pool().unwrap());
        let mut healthy_sets = Vec::new();
        let step = |label: &str, healthy_sets: &mut Vec<Vec<usize>>| {
            let healthy = warm_pool.healthy_device_indices();
            assert_eq!(healthy, fresh_pool.healthy_device_indices(), "{label}");
            if !healthy_sets.contains(&healthy) {
                healthy_sets.push(healthy);
            }
            fresh.decisions.lock_recover().clear();
            assert_eq!(
                warm.dispatch_flight(flight.clone()),
                fresh.dispatch_flight(flight.clone()),
                "{label}"
            );
            assert_eq!(
                warm_pool.wall_seconds().to_bits(),
                fresh_pool.wall_seconds().to_bits(),
                "{label}"
            );
            assert_eq!(warm_pool.fault_stats(), fresh_pool.fault_stats(), "{label}");
            for (w, f) in warm_pool.devices().iter().zip(fresh_pool.devices()) {
                assert_eq!(
                    w.wall_seconds().to_bits(),
                    f.wall_seconds().to_bits(),
                    "{label}"
                );
            }
        };
        // Draw 0 faults the first shard: its chip is quarantined.
        step("faulted", &mut healthy_sets);
        assert_eq!(warm_pool.fault_stats().quarantines, 1);
        step("quarantined", &mut healthy_sets);
        // Past the cooldown the next flight's probe re-admits the chip.
        for pool in [warm_pool, fresh_pool] {
            pool.advance_external(1.0);
        }
        step("re-admitted", &mut healthy_sets);
        step("whole again", &mut healthy_sets);
        assert_eq!(warm_pool.fault_stats().readmissions, 1);
        for pool in [warm_pool, fresh_pool] {
            pool.clear_fault_plan();
        }
        step("plan cleared", &mut healthy_sets);
        assert!(healthy_sets.len() >= 2, "{healthy_sets:?}");
        let memo = warm.decisions.lock_recover();
        for healthy in &healthy_sets {
            assert!(
                memo.contains_key(&(flight.clone(), healthy.clone())),
                "{healthy:?}"
            );
        }
    }
}
