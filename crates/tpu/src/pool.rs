//! Multi-device sharding: a pool of simulated chips that splits one
//! batch of work across devices and merges their clocks into a single
//! coherent timeline.
//!
//! The paper's §III-D sizes batches for multi-chip execution and its
//! cost model already prices inter-chip traffic
//! ([`crate::TpuConfig::cross_replica_cost_s`]); this module supplies
//! the missing runtime piece. A [`DevicePool`] owns several
//! [`SharedDevice`]s, plans a [`ShardPlan`] over a flight's lanes
//! (round-robin or cost-aware placement, see [`ShardStrategy`]),
//! executes the shards and charges one inter-chip gather collective
//! for the reassembly stage.
//!
//! Simulated chips are concurrent in simulated time only; one host
//! thread leads one flight. Timing semantics mirror
//! [`crate::TpuDevice::run_phase`] one level up: the modelled chips
//! run concurrently, so a sharded execution advances the pool's
//! merged timeline by the *slowest device's* clock delta plus the
//! gather cost, while each device's own clock only records its
//! shard. On the host the shards run one after another on the
//! calling thread — host parallelism is across flights (server
//! workers, batch submitters), never inside one. Numeric results are
//! pure functions of the inputs, so a sharded execution is
//! bit-identical to running the same lanes on one device.
//!
//! Dispatch is one loop ([`DevicePool::run_planned`]): bin the
//! undelivered lanes, run the shards, keep what arrived, re-plan what
//! an installed [`FaultPlan`] lost. Without a plan nothing is lost,
//! so the healthy path is that loop's single-round, zero-retry case.

use crate::config::TpuConfig;
use crate::device::TpuDevice;
use crate::fault::{FaultPlan, FaultStats, TPU_FAULT};
use crate::shared::SharedDevice;
use crate::topology::Topology;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xai_sync::{LockClass, OrderedMutex};

/// The pool's merged lane timeline. Ranked between the flight queue
/// (whose dispatch shards across the pool) and the per-chip device
/// locks the shards charge.
static TPU_POOL: LockClass = LockClass::new("tpu::pool", 25);
use xai_tensor::{Result, TensorError};

/// One quarantined chip.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QuarantineEntry {
    chip: usize,
    /// Simulated time at which a cooldown probe may re-admit the chip.
    until_s: f64,
    /// Fail-stopped chips never re-admit: probes re-confirm the death.
    permanent: bool,
}

/// The pool's fault domain, behind one lock: the installed plan, its
/// deterministic draw counter, the quarantined chips and the fault
/// counters. One transient-fault draw is consumed per live shard per
/// attempt, in device-index order, so a seeded chaos run replays
/// bit-for-bit in a single-submitter driver. The plan is shared, not
/// copied, with every flight that reads it: it never changes once
/// installed.
#[derive(Debug, Clone, Default)]
struct FaultDomain {
    plan: Option<Arc<FaultPlan>>,
    draws: u64,
    quarantine: Vec<QuarantineEntry>,
    stats: FaultStats,
    /// The pool's chip count.
    chips: usize,
}

/// How a [`ShardPlan`] places lanes onto devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Lane `i` goes to device `i % devices` — oblivious to lane
    /// cost, but preserves locality of consecutive lanes and is the
    /// cheapest plan to compute.
    RoundRobin,
    /// Longest-processing-time-first: lanes are placed heaviest-first
    /// onto the currently least-loaded device, which minimises the
    /// makespan (the slowest chip's busy time — exactly what the
    /// merged timeline charges) for heterogeneous lanes. Ties break
    /// on lane order and device index, so the plan is deterministic.
    #[default]
    CostAware,
    /// LPT balance traded against placement locality on the pool's
    /// [`Topology`]: the plan packs lanes onto the smallest
    /// pod-aligned prefix of devices whose LPT makespan matches the
    /// full-width plan's, so a flight occupies fewer collective
    /// participants (a cheaper ring/torus gather) whenever spreading
    /// wider would not finish compute any sooner. On a flat crossbar
    /// this is exactly [`ShardStrategy::CostAware`]. The pooled
    /// dispatcher additionally dry-runs pod-aligned widths in real
    /// simulated seconds when this strategy is selected (see
    /// `TpuAccel::fanout_plan` in `xai-accel`).
    TopologyAware,
}

/// Per-lane cost description consumed by the shard planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneCost {
    /// Relative compute cost of the lane (any consistent unit; the
    /// planner only compares sums).
    pub compute: f64,
    /// Bytes of this lane's result that the inter-chip gather must
    /// move when the lane lands on a non-primary device.
    pub gather_bytes: usize,
}

/// The placement of a flight's lanes onto a pool's devices.
///
/// # Examples
///
/// ```
/// use xai_tpu::{LaneCost, ShardPlan, ShardStrategy};
///
/// let lanes: Vec<LaneCost> = [4.0, 1.0, 3.0, 2.0]
///     .iter()
///     .map(|&compute| LaneCost { compute, gather_bytes: 64 })
///     .collect();
/// let plan = ShardPlan::plan(&lanes, 2, ShardStrategy::CostAware);
/// // Heaviest-first onto the least-loaded device: {4.0, 1.0} | {3.0, 2.0}.
/// assert_eq!(plan.assignments(), &[vec![0, 1], vec![2, 3]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assignments[d]` lists the lane indices placed on device `d`,
    /// in dispatch order.
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Plans `lanes` onto `devices` chips under `strategy`, assuming
    /// a flat-crossbar fabric (use [`ShardPlan::plan_on`] to let a
    /// ring/torus topology shape the placement). With one device (or
    /// one lane) every lane lands on device 0. `devices == 0` is a
    /// caller bug the planner absorbs rather than trusts: the plan is
    /// computed as if one device existed.
    pub fn plan(lanes: &[LaneCost], devices: usize, strategy: ShardStrategy) -> ShardPlan {
        Self::plan_on(lanes, devices, strategy, &Topology::flat())
    }

    /// Plans `lanes` onto `devices` chips under `strategy` on a
    /// specific fabric. The topology only matters to
    /// [`ShardStrategy::TopologyAware`]: it packs lanes onto the
    /// narrowest [`Topology::fanout_widths`] prefix whose LPT
    /// makespan matches the full-width plan's, so the flight's
    /// gather involves as few collective participants as balance
    /// allows. `devices == 0` plans for one device, as in
    /// [`ShardPlan::plan`].
    pub fn plan_on(
        lanes: &[LaneCost],
        devices: usize,
        strategy: ShardStrategy,
        topology: &Topology,
    ) -> ShardPlan {
        let devices = devices.max(1);
        match strategy {
            ShardStrategy::RoundRobin => {
                let mut assignments: Vec<Vec<usize>> = (0..devices).map(|_| Vec::new()).collect();
                for i in 0..lanes.len() {
                    assignments[i % devices].push(i);
                }
                ShardPlan { assignments }
            }
            ShardStrategy::CostAware => Self::plan_width(lanes, devices, devices),
            ShardStrategy::TopologyAware => {
                let full = Self::plan_width(lanes, devices, devices);
                let target = full.makespan(lanes);
                for &w in &topology.fanout_widths(devices) {
                    if w >= devices {
                        break;
                    }
                    let narrow = Self::plan_width(lanes, devices, w);
                    if narrow.makespan(lanes) <= target {
                        return narrow;
                    }
                }
                full
            }
        }
    }

    /// LPT over a prefix: lanes are placed heaviest-first onto the
    /// least-loaded of the first `width` devices (clamped to
    /// `1..=devices`), while the plan still covers all `devices`
    /// chips so it stays valid for the whole pool. Ties break on lane
    /// order and device index, so the plan is deterministic.
    pub fn plan_width(lanes: &[LaneCost], devices: usize, width: usize) -> ShardPlan {
        let devices = devices.max(1);
        let width = width.clamp(1, devices);
        let mut assignments: Vec<Vec<usize>> = (0..devices).map(|_| Vec::new()).collect();
        // LPT: heaviest lane first (stable on lane index), to
        // whichever device is least loaded (stable on device index).
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.sort_by(|&a, &b| {
            lanes[b]
                .compute
                .partial_cmp(&lanes[a].compute)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; width];
        for i in order {
            let d = load
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(d, _)| d)
                .unwrap_or(0);
            load[d] += lanes[i].compute;
            assignments[d].push(i);
        }
        ShardPlan { assignments }
    }

    /// The heaviest device's summed lane compute under this plan —
    /// what the merged timeline's slowest-shard term scales with.
    pub fn makespan(&self, lanes: &[LaneCost]) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.iter().map(|&i| lanes[i].compute).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Lane indices per device, in dispatch order.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Number of devices that received at least one lane.
    pub fn occupied_devices(&self) -> usize {
        self.assignments.iter().filter(|a| !a.is_empty()).count()
    }

    /// The gather's per-shard payload: the largest single lane's
    /// `gather_bytes`. The inter-chip gather follows the same §III-D
    /// convention as [`crate::TpuDevice::charge_collective`] —
    /// participants ship their shards over parallel links, so the
    /// collective is priced at `α + β·bytes` of **one** shard (the
    /// largest), not the summed traffic.
    pub fn gather_shard_bytes(&self, lanes: &[LaneCost]) -> usize {
        self.assignments
            .iter()
            .flatten()
            .map(|&i| lanes[i].gather_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Re-maps a plan computed over a device *subset* onto the full
    /// pool: `device_map[s]` names the pool device that subset slot
    /// `s` targeted, and the returned plan has `total` device slots —
    /// how a fan-out planned over the healthy survivors becomes a
    /// valid whole-pool plan. Out-of-range map entries fold onto the
    /// primary device rather than panicking.
    pub fn project(&self, device_map: &[usize], total: usize) -> ShardPlan {
        let total = total.max(1);
        let mut assignments: Vec<Vec<usize>> = (0..total).map(|_| Vec::new()).collect();
        for (slot, lanes) in self.assignments.iter().enumerate() {
            if lanes.is_empty() {
                continue;
            }
            let d = device_map.get(slot).copied().unwrap_or(0) % total;
            assignments[d].extend(lanes.iter().copied());
        }
        ShardPlan { assignments }
    }
}

/// The outcome of one [`DevicePool::run_sharded`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRun<R> {
    /// Per-lane results, in the caller's lane order.
    pub results: Vec<R>,
    /// This execution's exact contribution to the merged timeline:
    /// the slowest shard's self-reported charge plus the inter-chip
    /// gather (zero when only one chip was occupied).
    pub seconds: f64,
}

/// The pool's merged simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct PoolTimeline {
    /// Merged wall time, seconds: slowest-chip deltas plus gathers
    /// plus externally-charged kernels.
    wall_s: f64,
    /// Inter-chip gather time, seconds.
    gather_s: f64,
    /// Number of sharded executions that actually fanned out to more
    /// than one chip.
    sharded_flights: u64,
}

/// A pool of simulated TPU chips behind one merged clock.
///
/// The pool is `Send + Sync`: concurrent flights share it, each led
/// by its caller's thread, and all mutable state (the per-device
/// simulators and the merged timeline) lives behind locks that
/// recover from poisoning, so one panicking shard can never wedge
/// the pool — the failing execution surfaces
/// [`TensorError::WorkerPanicked`] and the next one serves normally.
///
/// # Examples
///
/// ```
/// use xai_tpu::{DevicePool, LaneCost, TpuConfig};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let pool = DevicePool::new(TpuConfig::small_test(), 4);
/// // Eight lanes, each an `n×n · n×n` product.
/// let work: Vec<usize> = (1..=8).collect();
/// let run = pool.run_sharded(
///     work,
///     |&n| LaneCost { compute: (n * n) as f64, gather_bytes: 8 * n * n },
///     // Each shard charges its chip and reports the exact delta,
///     // measured atomically under the device lock.
///     |device, shard| {
///         device.timed(|d| {
///             d.run_phase(shard.iter().copied(), |core, n| core.charge_matmul_work(n, n, n, 1))?;
///             Ok(shard)
///         })
///     },
/// )?;
/// assert_eq!(run.results.len(), 8);
/// // Chips ran concurrently: the merged timeline advanced by the
/// // slowest shard plus the inter-chip gather.
/// assert_eq!(pool.wall_seconds(), run.seconds);
/// assert!(pool.gather_seconds() > 0.0); // inter-chip reassembly
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<SharedDevice>,
    strategy: ShardStrategy,
    /// Config snapshot used to price inter-chip gathers.
    cfg: TpuConfig,
    /// The inter-chip fabric pricing this pool's gathers: the flat
    /// crossbar unless [`DevicePool::with_topology`] replaces it.
    topology: Topology,
    /// A monotone ledger: like a device's, taken with `lock_recover`
    /// rather than wedging the pool.
    timeline: OrderedMutex<PoolTimeline>,
    /// Installed fault plan, draw counter, quarantine and counters. No
    /// plan (the default) is the zero-retry case of the one dispatch
    /// loop.
    fault: OrderedMutex<FaultDomain>,
    /// Lock-free fast-path flag mirroring `fault.plan.is_some()`, so
    /// the no-plan hot path never touches the fault lock.
    faults_enabled: AtomicBool,
}

impl DevicePool {
    /// Creates a pool of `n_devices` chips, each configured as `cfg`,
    /// with the default [`ShardStrategy::CostAware`] planner.
    /// `n_devices` is clamped to ≥ 1.
    pub fn new(cfg: TpuConfig, n_devices: usize) -> Self {
        Self::from_devices(
            (0..n_devices.max(1))
                .map(|_| SharedDevice::new(cfg.clone()))
                .collect(),
        )
    }

    /// Creates a pool of `n_devices` chips overriding each chip's core
    /// count — the multi-chip analogue of [`TpuDevice::with_cores`].
    pub fn with_cores(cfg: TpuConfig, n_devices: usize, cores_per_device: usize) -> Self {
        Self::from_devices(
            (0..n_devices.max(1))
                .map(|_| {
                    SharedDevice::from_device(TpuDevice::with_cores(cfg.clone(), cores_per_device))
                })
                .collect(),
        )
    }

    /// Wraps existing device handles into a pool. Device 0 is the
    /// *primary* device: non-sharded kernels run there and its
    /// configuration prices the inter-chip gathers.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty — a pool needs at least one
    /// chip.
    pub fn from_devices(devices: Vec<SharedDevice>) -> Self {
        assert!(
            !devices.is_empty(),
            "a DevicePool needs at least one device"
        );
        let cfg = devices[0].config();
        let fault = FaultDomain {
            chips: devices.len(),
            ..FaultDomain::default()
        };
        DevicePool {
            devices,
            strategy: ShardStrategy::default(),
            cfg,
            topology: Topology::flat(),
            timeline: OrderedMutex::new(&TPU_POOL, PoolTimeline::default()),
            fault: OrderedMutex::new(&TPU_FAULT, fault),
            faults_enabled: AtomicBool::new(false),
        }
    }

    /// Replaces the shard-placement strategy (builder style).
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the inter-chip fabric pricing this pool's gathers
    /// (builder style). A chip's on-chip collectives are unaffected —
    /// this only reshapes the links *between* chips.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Installs a fault plan (builder style). See
    /// [`DevicePool::install_fault_plan`].
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.install_fault_plan(plan);
        self
    }

    /// Installs a seeded [`FaultPlan`]: from the next flight on,
    /// dispatch consults the plan for fail-stops and transient shard
    /// faults, retries lost lanes under the plan's budget, and
    /// quarantines faulted chips. Replacing a plan resets the transient
    /// draw counter (a fresh schedule replays from its start) but keeps
    /// quarantine state and counters.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        {
            let mut f = self.fault.lock_recover();
            f.plan = Some(Arc::new(plan));
            f.draws = 0;
        }
        self.faults_enabled.store(true, Ordering::Release);
    }

    /// Removes the fault plan and releases every quarantined chip:
    /// dispatch injects nothing and retries nothing again (bit-identical
    /// pre-fault timing). Counters are kept — they describe what really
    /// happened — and clear on [`DevicePool::reset`].
    pub fn clear_fault_plan(&self) {
        self.faults_enabled.store(false, Ordering::Release);
        let mut f = self.fault.lock_recover();
        f.plan = None;
        f.draws = 0;
        f.quarantine.clear();
    }

    /// Whether a fault plan is installed: one atomic load, no lock.
    pub fn has_fault_plan(&self) -> bool {
        self.faults_enabled.load(Ordering::Acquire)
    }

    /// The fault layer's counters: faults injected, retries, re-plans,
    /// quarantine traffic. All zero until a plan injects something.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.lock_recover().stats
    }

    /// Number of chips currently able to take shards: not quarantined
    /// and not past a scheduled fail-stop. Equals
    /// [`DevicePool::num_devices`] with no plan installed.
    pub fn healthy_devices(&self) -> usize {
        self.with_plan(|domain, fp, now_s| domain.live(fp, now_s).count())
            .unwrap_or(self.devices.len())
    }

    /// Healthy chips as a fraction of the pool — the serving layer's
    /// capacity multiplier under degradation. 1.0 with no plan.
    pub fn healthy_fraction(&self) -> f64 {
        self.healthy_devices() as f64 / self.devices.len() as f64
    }

    /// Pool indices of the chips shards may target right now, primary
    /// order. Falls back to the primary device when everything is
    /// quarantined or dead (the pool still *tries* — attempts on dead
    /// chips fail and exhaust the retry budget as a typed error).
    pub fn healthy_device_indices(&self) -> Vec<usize> {
        self.with_plan(FaultDomain::retry_targets)
            .unwrap_or_else(|| (0..self.devices.len()).collect())
    }

    /// The shard-placement strategy in use.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The inter-chip fabric pricing this pool's gathers.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Cost in seconds of one inter-chip gather in which each of
    /// `participants` chips contributes `bytes`, priced on this
    /// pool's fabric. On the default flat crossbar this is exactly
    /// [`TpuConfig::cross_replica_cost_s`] for any `participants ≥ 2`.
    pub fn gather_cost_s(&self, bytes: usize, participants: usize) -> f64 {
        self.topology.gather_cost_s(&self.cfg, bytes, participants)
    }

    /// Number of chips in the pool.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// All device handles, primary first.
    pub fn devices(&self) -> &[SharedDevice] {
        &self.devices
    }

    /// The primary device (device 0): non-sharded kernels run here.
    pub fn primary(&self) -> &SharedDevice {
        &self.devices[0]
    }

    /// One device handle.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_devices()`.
    pub fn device(&self, i: usize) -> &SharedDevice {
        &self.devices[i]
    }

    /// The merged simulated wall clock, seconds: every sharded
    /// execution contributes its slowest chip's delta plus the
    /// inter-chip gather, and [`DevicePool::advance_external`]
    /// contributions (non-sharded kernels on the primary device) add
    /// directly.
    pub fn wall_seconds(&self) -> f64 {
        self.timeline.lock_recover().wall_s
    }

    /// Accumulated inter-chip gather time, seconds.
    pub fn gather_seconds(&self) -> f64 {
        self.timeline.lock_recover().gather_s
    }

    /// Number of executions that fanned out to more than one chip.
    pub fn sharded_flights(&self) -> u64 {
        self.timeline.lock_recover().sharded_flights
    }

    /// Total simulated energy across every chip, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.devices.iter().map(SharedDevice::energy_pj).sum()
    }

    /// Zeroes every chip's counters and the merged timeline, empties
    /// the quarantine and the fault counters, and rewinds the fault
    /// plan's transient draw stream (the plan itself stays installed —
    /// a reset replays the same schedule from its start).
    pub fn reset(&self) {
        for d in &self.devices {
            d.reset();
        }
        *self.timeline.lock_recover() = PoolTimeline::default();
        let mut f = self.fault.lock_recover();
        f.draws = 0;
        f.quarantine.clear();
        f.stats = FaultStats::default();
    }

    /// Merges externally-measured simulated seconds into the pool
    /// timeline — used for kernels that run on the primary device
    /// outside [`DevicePool::run_sharded`], so one clock stays
    /// coherent across sharded and non-sharded work.
    pub fn advance_external(&self, seconds: f64) {
        if seconds > 0.0 {
            self.timeline.lock_recover().wall_s += seconds;
        }
    }

    /// Deep copy: every chip is cloned into an independent simulator
    /// and the timeline snapshot is carried over. The clone shares no
    /// state with `self`.
    pub fn deep_clone(&self) -> Self {
        // Snapshot each guarded state in its own statement: a struct
        // literal keeps every temporary guard alive to the end of the
        // expression, which would nest tpu::pool over the lower-ranked
        // fault lock.
        let fault = self.fault.lock_recover().clone();
        let timeline = *self.timeline.lock_recover();
        DevicePool {
            devices: self
                .devices
                .iter()
                .map(|d| SharedDevice::from_device(d.with(|dev| dev.clone())))
                .collect(),
            strategy: self.strategy,
            cfg: self.cfg.clone(),
            topology: self.topology,
            timeline: OrderedMutex::new(&TPU_POOL, timeline),
            fault: OrderedMutex::new(&TPU_FAULT, fault),
            faults_enabled: AtomicBool::new(self.faults_enabled.load(Ordering::Acquire)),
        }
    }

    /// Executes `work` sharded across the pool's chips and returns
    /// the results in lane order, together with the execution's exact
    /// contribution to the merged timeline ([`ShardedRun::seconds`]).
    ///
    /// `lane` describes each item's relative compute cost (consumed
    /// by the planner) and gather payload; `shard` runs one device's
    /// lanes — it receives the device handle and its items, cloned per
    /// attempt, in lane order and must return one result per item
    /// **plus the simulated seconds it charged its chip**, measured
    /// atomically under the device lock (use [`SharedDevice::timed`]). Shards execute in
    /// device order on the calling thread, and every shard runs even
    /// when an earlier one failed.
    ///
    /// Accounting: the merged timeline advances by the slowest
    /// shard's self-reported charge (the modelled chips run
    /// concurrently) plus —
    /// when more than one chip was occupied — one inter-chip gather
    /// priced at [`DevicePool::gather_cost_s`] over the largest
    /// single lane's gather payload and the occupied chip count (the
    /// same per-shard parallel-links convention as
    /// [`crate::TpuDevice::charge_collective`], hierarchical on a
    /// torus fabric). Because every shard
    /// measures its own charge under its device lock, concurrent
    /// flights and concurrent [`DevicePool::advance_external`]
    /// charges never pollute each other's deltas, and the timeline
    /// lock is only held for the final O(1) merge — never across
    /// shard execution.
    ///
    /// With a [`FaultPlan`] installed the same loop runs further
    /// rounds: fail-stops and seeded transient faults lose lanes,
    /// faulted chips are quarantined, and the lost lanes are re-planned
    /// over the survivors under the plan's retry budget with
    /// exponential simulated backoff. The flight then contributes
    /// every round's slowest-shard charge (a faulted shard really ran
    /// before its results were lost), plus the backoffs, plus one
    /// gather over the chips holding final results. Results are pure
    /// functions of the lanes, so a retried flight is bit-identical to
    /// its fault-free run — only the timeline pays.
    ///
    /// # Errors
    ///
    /// With or without a plan: [`TensorError::WorkerPanicked`] when
    /// any shard panicked (the pool recovers: devices are unwedged and
    /// the next execution serves normally), else the first shard error
    /// in device order, else [`TensorError::DataLength`] when a shard
    /// returns the wrong number of results, else
    /// [`TensorError::FaultBudgetExhausted`] when injected faults
    /// outlast the plan's retry budget. A failed flight merges
    /// **nothing** into the pool timeline — the partial charges of
    /// surviving shards remain on their chips' own clocks only, so
    /// the merged serving clock never bills undelivered work.
    pub fn run_sharded<W, R>(
        &self,
        work: Vec<W>,
        lane: impl Fn(&W) -> LaneCost,
        shard: impl Fn(&SharedDevice, Vec<W>) -> Result<(Vec<R>, f64)>,
    ) -> Result<ShardedRun<R>>
    where
        W: Clone,
    {
        let lanes: Vec<LaneCost> = work.iter().map(&lane).collect();
        let plan = ShardPlan::plan_on(&lanes, self.devices.len(), self.strategy, &self.topology);
        let gather_bytes = plan.gather_shard_bytes(&lanes);
        self.run_planned(&plan, gather_bytes, work, shard)
    }

    /// Executes `work` under a [`ShardPlan`] the caller already
    /// computed — e.g. while deciding whether fanning out is worth it
    /// — avoiding a second planning pass. `gather_bytes` prices the
    /// inter-chip gather (normally
    /// [`ShardPlan::gather_shard_bytes`]). Execution, accounting and
    /// error semantics are exactly [`DevicePool::run_sharded`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when the plan does not
    /// cover this pool's devices and every lane of `work` exactly
    /// once, plus every error [`DevicePool::run_sharded`] can return.
    pub fn run_planned<W, R>(
        &self,
        plan: &ShardPlan,
        gather_bytes: usize,
        work: Vec<W>,
        shard: impl Fn(&SharedDevice, Vec<W>) -> Result<(Vec<R>, f64)>,
    ) -> Result<ShardedRun<R>>
    where
        W: Clone,
    {
        if plan.assignments().len() != self.devices.len() {
            return Err(TensorError::DataLength {
                expected: self.devices.len(),
                actual: plan.assignments().len(),
            });
        }
        let mut placed = vec![false; work.len()];
        for &i in plan.assignments().iter().flatten() {
            if i >= work.len() || std::mem::replace(&mut placed[i], true) {
                return Err(TensorError::DataLength {
                    expected: work.len(),
                    actual: i,
                });
            }
        }
        let placements = placed.iter().filter(|&&p| p).count();
        if placements != work.len() {
            return Err(TensorError::DataLength {
                expected: work.len(),
                actual: placements,
            });
        }
        if work.is_empty() {
            return Ok(ShardedRun {
                results: Vec::new(),
                seconds: 0.0,
            });
        }
        // One loop serves both cases. With no plan installed nothing
        // is injected, so round 0 delivers every lane and the flight's
        // contribution is slowest shard + gather, to the bit. Each
        // round's `assignment` holds exactly the undelivered lanes.
        let mut assignment = Cow::Borrowed(plan.assignments());
        // Only a plan schedules anything against the merged clock.
        let mut start_s = 0.0f64;
        let fp = if self.has_fault_plan() {
            start_s = self.wall_seconds();
            let mut domain = self.fault.lock_recover();
            let fp = domain.plan.clone();
            if let Some(fp) = &fp {
                domain.admit(fp, start_s, &mut assignment);
            }
            fp
        } else {
            None
        };
        let fp = fp.as_deref();
        let mut out: Vec<Option<R>> = (0..work.len()).map(|_| None).collect();
        let mut contributed = vec![false; self.devices.len()];
        let mut compute_s = 0.0f64; // Σ per-round slowest-shard charges
        let mut backoff_s = 0.0f64; // Σ simulated retry backoffs

        let mut round = 0usize;
        loop {
            let now = start_s + compute_s + backoff_s;
            let mut draw = fp.map_or(0, |fp| {
                self.fault.lock_recover().draw_round(fp, now, &assignment)
            });

            // The shards run one after another, in device order, on
            // the calling thread; a chip dead by schedule fails its
            // shard with zero charge (it no longer executes). Every
            // shard runs even when an earlier one panicked or returned
            // `Err`: the flight's error precedence needs every outcome,
            // and surviving chips' own clocks must still carry their
            // charges. A shard releases its chip's lane before the next
            // one starts, so the leader never holds two.
            //
            // Only completed flights merge into the serving timeline: a
            // panicked or errored flight returns nothing to its
            // callers, so folding its partial-shard charges (or a
            // gather that never happened) into the merged clock would
            // bill work the flight did not deliver — and bill it
            // *again* when the caller retries. The partial charges
            // stay visible on each chip's own wall clock and energy
            // counters; `reset` clears those too.
            let mut round_slowest = 0.0f64;
            let mut panicked = false;
            let mut shard_err: Option<TensorError> = None;
            let mut arity_err: Option<TensorError> = None;
            let mut faulted: Vec<usize> = Vec::new();
            for (d, assigned) in assignment.iter().enumerate() {
                if assigned.is_empty() || fp.is_some_and(|fp| fp.chip_dead(d, now)) {
                    continue;
                }
                // One transient draw per live shard, device-index order.
                let lost_in_transit = fp.is_some_and(|fp| fp.draw_faults(draw));
                draw += 1;
                let items = assigned.iter().map(|&i| work[i].clone()).collect();
                match catch_unwind(AssertUnwindSafe(|| shard(&self.devices[d], items))) {
                    Err(_) => panicked = true,
                    Ok(Err(e)) => {
                        shard_err.get_or_insert(e);
                    }
                    Ok(Ok((results, _))) if results.len() != assigned.len() => {
                        arity_err.get_or_insert(TensorError::DataLength {
                            expected: assigned.len(),
                            actual: results.len(),
                        });
                    }
                    Ok(Ok((results, seconds))) => {
                        round_slowest = round_slowest.max(seconds);
                        if lost_in_transit {
                            // The chip really ran and charged its own
                            // clock; the answers were lost in transit.
                            faulted.push(d);
                        } else {
                            contributed[d] = true;
                            for (&i, r) in assigned.iter().zip(results) {
                                out[i] = Some(r);
                            }
                        }
                    }
                }
            }

            // After the shards: count and quarantine the faulted chips,
            // then fail, finish or re-plan what was lost.
            let mut domain = fp
                .filter(|_| out.iter().any(Option::is_none))
                .map(|fp| (fp, self.fault.lock_recover()));
            if let Some((fp, domain)) = &mut domain {
                for &d in &faulted {
                    domain.stats.transient_faults += 1;
                    domain.quarantine_chip(d, now + fp.cooldown_s(), false);
                }
            }
            // A real panic is not an injected fault, and neither is a
            // shard's own error: either fails the flight outright.
            if panicked {
                return Err(TensorError::WorkerPanicked {
                    op: "device pool shard",
                });
            }
            if let Some(e) = shard_err.or(arity_err) {
                return Err(e);
            }
            compute_s += round_slowest;

            let Some((fp, domain)) = &mut domain else {
                break;
            };
            if round >= fp.retry_budget() {
                domain.stats.budget_exhausted += 1;
                return Err(TensorError::FaultBudgetExhausted {
                    op: "device pool shard",
                    attempts: round + 1,
                });
            }
            round += 1;
            domain.stats.retries += 1;
            backoff_s += fp.backoff_s() * (1u64 << (round - 1).min(62)) as f64;
            let assignment = assignment.to_mut();
            assignment.iter_mut().for_each(Vec::clear);
            let lost = (0..work.len()).filter(|&i| out[i].is_none());
            domain.replan(fp, start_s + compute_s + backoff_s, lost, assignment);
        }

        // One gather over the chips holding final results: hierarchical
        // on a torus, hop- and pressure-scaled on a ring, exactly the
        // seed `cross_replica_cost_s` on the default flat crossbar.
        let distinct = contributed.iter().filter(|&&c| c).count();
        let gather_s = if distinct > 1 {
            self.gather_cost_s(gather_bytes, distinct)
        } else {
            0.0
        };
        let seconds = compute_s + backoff_s + gather_s;
        {
            let mut timeline = self.timeline.lock_recover();
            timeline.wall_s += seconds;
            timeline.gather_s += gather_s;
            if distinct > 1 {
                timeline.sharded_flights += 1;
            }
        }
        Ok(ShardedRun {
            results: out
                .into_iter()
                .map(|r| r.expect("every lane produced a result"))
                .collect(),
            seconds,
        })
    }

    /// `f` over the fault domain and its installed plan at the merged
    /// clock's present; `None` with no plan installed.
    fn with_plan<T>(&self, f: impl FnOnce(&FaultDomain, &FaultPlan, f64) -> T) -> Option<T> {
        if !self.has_fault_plan() {
            return None;
        }
        let now_s = self.wall_seconds();
        let domain = self.fault.lock_recover();
        domain.plan.as_deref().map(|fp| f(&domain, fp, now_s))
    }
}

impl FaultDomain {
    /// Readies a flight's placement at `now_s`: runs the fault
    /// schedule, then re-plans the lanes the caller placed on
    /// quarantined or dead chips onto the survivors. The caller's plan
    /// is copied only when a lane moves.
    fn admit(&mut self, fp: &FaultPlan, now_s: f64, assignment: &mut Cow<'_, [Vec<usize>]>) {
        self.apply_fault_schedule(fp, now_s);
        let mut displaced = Vec::new();
        for d in 0..assignment.len() {
            if !assignment[d].is_empty() && !self.chip_live(fp, now_s, d) {
                displaced.append(&mut assignment.to_mut()[d]);
            }
        }
        if !displaced.is_empty() {
            self.replan(fp, now_s, displaced, assignment.to_mut());
        }
    }

    /// Probes expired quarantine entries (fail-stopped chips
    /// re-confirm their death and stay; transiently-faulted chips
    /// re-admit) and quarantines chips whose scheduled fail-stop has
    /// come due.
    fn apply_fault_schedule(&mut self, fp: &FaultPlan, now_s: f64) {
        let stats = &mut self.stats;
        self.quarantine.retain_mut(|e| {
            if e.permanent || e.until_s > now_s {
                return true;
            }
            stats.probes += 1;
            e.permanent = fp.chip_dead(e.chip, now_s);
            if !e.permanent {
                stats.readmissions += 1;
            }
            e.permanent
        });
        for fs in fp.fail_stops() {
            if fs.at_s <= now_s {
                self.quarantine_chip(fs.chip, f64::INFINITY, true);
            }
        }
    }

    /// Quarantines `chip` (idempotent). Transient quarantine never
    /// takes the last healthy chip — with everything else gone the
    /// pool keeps trying on it. A fail-stopped chip is recorded dead
    /// regardless: serving then degenerates to typed budget errors.
    fn quarantine_chip(&mut self, chip: usize, until_s: f64, permanent: bool) {
        if chip >= self.chips {
            return;
        }
        if let Some(e) = self.quarantine.iter_mut().find(|e| e.chip == chip) {
            if permanent && !e.permanent {
                e.permanent = true;
                self.stats.fail_stops += 1;
            }
            return;
        }
        if !permanent && self.quarantine.len() + 1 >= self.chips {
            return;
        }
        self.quarantine.push(QuarantineEntry {
            chip,
            until_s,
            permanent,
        });
        self.stats.quarantines += 1;
        if permanent {
            self.stats.fail_stops += 1;
        }
    }

    /// Whether chip `d` can take shards at `now_s`: not quarantined
    /// and not past a scheduled fail-stop.
    fn chip_live(&self, fp: &FaultPlan, now_s: f64, d: usize) -> bool {
        !self.quarantine.iter().any(|e| e.chip == d) && !fp.chip_dead(d, now_s)
    }

    /// The live chips at `now_s`, in index order.
    fn live<'a>(&'a self, fp: &'a FaultPlan, now_s: f64) -> impl Iterator<Item = usize> + 'a {
        (0..self.chips).filter(move |&d| self.chip_live(fp, now_s, d))
    }

    /// Chips a retry may target at `now_s`: the live ones, falling
    /// back to the primary so there is always somewhere to place lanes
    /// (those attempts then fail until the budget types out, never
    /// panicking).
    fn retry_targets(&self, fp: &FaultPlan, now_s: f64) -> Vec<usize> {
        let mut targets: Vec<usize> = self.live(fp, now_s).collect();
        if targets.is_empty() {
            targets.push(0);
        }
        targets
    }

    /// Re-plans `lanes` round-robin over the chips a retry may target
    /// at `now_s` (lane costs are unknown at this level).
    fn replan(
        &mut self,
        fp: &FaultPlan,
        now_s: f64,
        lanes: impl IntoIterator<Item = usize>,
        assignment: &mut [Vec<usize>],
    ) {
        let targets = self.retry_targets(fp, now_s);
        for (j, i) in lanes.into_iter().enumerate() {
            assignment[targets[j % targets.len()]].push(i);
        }
        self.stats.replans += 1;
    }

    /// Bins one round at `now_s`: quarantines the dead chips that hold
    /// lanes of `assignment` and reserves one transient draw per live
    /// one. Returns the first reserved draw index; the `k`-th live
    /// shard in device order takes draw `first + k`.
    fn draw_round(&mut self, fp: &FaultPlan, now_s: f64, assignment: &[Vec<usize>]) -> u64 {
        let first = self.draws;
        for d in (0..assignment.len()).filter(|&d| !assignment[d].is_empty()) {
            if fp.chip_dead(d, now_s) {
                self.quarantine_chip(d, f64::INFINITY, true);
            } else {
                self.draws += 1;
            }
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn lane(compute: f64) -> LaneCost {
        LaneCost {
            compute,
            gather_bytes: 128,
        }
    }

    /// An `n×n · n×n` matmul lane: its compute is its element count.
    fn square_lane(n: &usize) -> LaneCost {
        lane((n * n) as f64)
    }

    /// Charges each lane's `n×n · n×n` product, a core each, and hands
    /// the lanes back.
    fn matmul_shard(device: &SharedDevice, sizes: Vec<usize>) -> Result<(Vec<usize>, f64)> {
        device.timed(|d| {
            d.run_phase(sizes.iter().copied(), |core, n| {
                core.charge_matmul_work(n, n, n, 1)
            })?;
            Ok(sizes)
        })
    }

    /// A shard for pure-data tests: no device work, zero charge.
    fn uncharged<R>(v: Vec<R>) -> Result<(Vec<R>, f64)> {
        Ok((v, 0.0))
    }

    #[test]
    fn round_robin_interleaves() {
        let lanes: Vec<LaneCost> = (0..5).map(|_| lane(1.0)).collect();
        let plan = ShardPlan::plan(&lanes, 2, ShardStrategy::RoundRobin);
        assert_eq!(plan.assignments(), &[vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(plan.occupied_devices(), 2);
    }

    #[test]
    fn cost_aware_balances_heterogeneous_lanes() {
        let lanes: Vec<LaneCost> = [8.0, 1.0, 1.0, 1.0, 1.0, 4.0]
            .iter()
            .map(|&c| lane(c))
            .collect();
        let plan = ShardPlan::plan(&lanes, 2, ShardStrategy::CostAware);
        // LPT: 8 | 4, then the 1s fill the lighter side.
        let load = |d: usize| {
            plan.assignments()[d]
                .iter()
                .map(|&i| lanes[i].compute)
                .sum::<f64>()
        };
        assert_eq!((load(0) - load(1)).abs(), 0.0);
        // Round-robin would be lopsided here: {8,1,1}=10 vs {1,1,4}=6.
        let rr = ShardPlan::plan(&lanes, 2, ShardStrategy::RoundRobin);
        let rr_load = |d: usize| {
            rr.assignments()[d]
                .iter()
                .map(|&i| lanes[i].compute)
                .sum::<f64>()
        };
        assert!((rr_load(0) - rr_load(1)).abs() > (load(0) - load(1)).abs());
    }

    #[test]
    fn plan_is_deterministic_and_exhaustive() {
        let lanes: Vec<LaneCost> = (0..17).map(|i| lane((i % 5) as f64 + 1.0)).collect();
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostAware] {
            let a = ShardPlan::plan(&lanes, 4, strategy);
            let b = ShardPlan::plan(&lanes, 4, strategy);
            assert_eq!(a, b, "{strategy:?} must be deterministic");
            let mut seen: Vec<usize> = a.assignments().iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..17).collect::<Vec<_>>(), "every lane placed once");
        }
    }

    #[test]
    fn gather_shard_bytes_is_largest_single_lane() {
        let lanes = vec![
            LaneCost {
                compute: 1.0,
                gather_bytes: 100,
            },
            LaneCost {
                compute: 1.0,
                gather_bytes: 300,
            },
            LaneCost {
                compute: 1.0,
                gather_bytes: 200,
            },
        ];
        let plan = ShardPlan::plan(&lanes, 2, ShardStrategy::RoundRobin);
        // Per-shard pricing: lanes ship over parallel links, so the
        // collective costs one (largest) shard, as in
        // TpuDevice::charge_collective.
        assert_eq!(plan.gather_shard_bytes(&lanes), 300);
    }

    #[test]
    fn sharded_results_arrive_in_lane_order() {
        let pool = DevicePool::new(TpuConfig::small_test(), 3);
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostAware] {
            let pool = pool.deep_clone().with_strategy(strategy);
            let run = pool
                .run_sharded(
                    (0..7u64).collect(),
                    |_| lane(1.0),
                    |_, items| uncharged(items.into_iter().map(|v| v * 10).collect()),
                )
                .unwrap();
            assert_eq!(run.results, vec![0, 10, 20, 30, 40, 50, 60], "{strategy:?}");
        }
    }

    /// One host thread leads one flight: every shard of a pooled
    /// flight runs on the caller's thread, in device order.
    #[test]
    fn a_pooled_flight_runs_its_shards_on_the_callers_thread() {
        let pool = DevicePool::new(TpuConfig::small_test(), 4);
        let ran = std::cell::RefCell::new(Vec::new());
        pool.run_sharded(
            (0..8u64).collect(),
            |_| lane(1.0),
            |device, items| {
                let chip = pool.devices().iter().position(|d| d.same_device(device));
                ran.borrow_mut().push((chip, std::thread::current().id()));
                uncharged(items)
            },
        )
        .unwrap();
        let me = std::thread::current().id();
        let expect: Vec<_> = (0..4).map(|d| (Some(d), me)).collect();
        assert_eq!(ran.into_inner(), expect);
    }

    #[test]
    fn empty_work_is_a_noop() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        let run = pool
            .run_sharded(vec![], |_: &u64| lane(1.0), |_, v: Vec<u64>| uncharged(v))
            .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.seconds, 0.0);
        assert_eq!(pool.wall_seconds(), 0.0);
    }

    #[test]
    fn pool_of_four_beats_one_device_on_oversubscribed_batch() {
        // 8 equal matmul lanes on 1-core chips: one chip serialises
        // all 8, four chips run 2 each concurrently.
        let work = || vec![4usize; 8];
        let single = DevicePool::with_cores(TpuConfig::small_test(), 1, 1);
        single
            .run_sharded(work(), square_lane, matmul_shard)
            .unwrap();
        let pool = DevicePool::with_cores(TpuConfig::small_test(), 4, 1);
        pool.run_sharded(work(), square_lane, matmul_shard).unwrap();
        assert!(
            pool.wall_seconds() < single.wall_seconds(),
            "4 chips {} s must beat 1 chip {} s",
            pool.wall_seconds(),
            single.wall_seconds()
        );
        assert_eq!(pool.sharded_flights(), 1);
        assert_eq!(single.sharded_flights(), 0, "one chip cannot shard");
        assert!(pool.gather_seconds() > 0.0);
        assert_eq!(single.gather_seconds(), 0.0);
    }

    #[test]
    fn merged_timeline_is_slowest_chip_plus_gather() {
        let pool = DevicePool::with_cores(TpuConfig::small_test(), 2, 1);
        let run = pool
            .run_sharded(vec![4, 4], square_lane, matmul_shard)
            .unwrap();
        // Nothing else charged these fresh chips, so each chip's wall
        // clock equals its shard's self-reported delta.
        let slowest = pool
            .devices()
            .iter()
            .map(SharedDevice::wall_seconds)
            .fold(0.0f64, f64::max);
        let expect = slowest + pool.gather_seconds();
        assert!((pool.wall_seconds() - expect).abs() < 1e-15);
        assert!((run.seconds - expect).abs() < 1e-15);
    }

    #[test]
    fn single_device_pool_charges_no_gather() {
        let pool = DevicePool::new(TpuConfig::small_test(), 1);
        pool.run_sharded(vec![4, 4], square_lane, matmul_shard)
            .unwrap();
        assert!(pool.wall_seconds() > 0.0);
        assert_eq!(pool.gather_seconds(), 0.0);
        assert_eq!(pool.sharded_flights(), 0);
    }

    #[test]
    fn shard_errors_propagate_without_wedging() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        let err = pool
            .run_sharded(
                vec![1u64, 2, 3, 4],
                |_| lane(1.0),
                |_, _| Err::<(Vec<u64>, f64), _>(TensorError::EmptyDimension),
            )
            .unwrap_err();
        assert_eq!(err, TensorError::EmptyDimension);
        // An errored flight merges nothing into the serving timeline.
        assert_eq!(pool.wall_seconds(), 0.0);
        // The pool still serves.
        let run = pool
            .run_sharded(vec![5u64, 6], |_| lane(1.0), |_, v: Vec<u64>| uncharged(v))
            .unwrap();
        assert_eq!(run.results, vec![5, 6]);
    }

    #[test]
    fn panicking_shard_reports_worker_panicked_and_pool_recovers() {
        let pool = DevicePool::new(TpuConfig::small_test(), 4);
        let err = pool
            .run_sharded(
                (0..8u64).collect(),
                |_| lane(1.0),
                |device, items| {
                    // Exactly the shard carrying lane 0 crashes, while
                    // holding the device lock — the worst case.
                    if items.contains(&0) {
                        device.with(|_| panic!("chip firmware crash"));
                    }
                    uncharged(items)
                },
            )
            .unwrap_err();
        assert!(matches!(err, TensorError::WorkerPanicked { .. }));
        // No wedged devices: every chip still serves, including the
        // one whose lock the panicking shard poisoned.
        let run = pool
            .run_sharded(
                (0..8u64).collect(),
                |_| lane(1.0),
                |device, items| {
                    let (_, dt) = matmul_shard(device, vec![4])?;
                    Ok((items, dt))
                },
            )
            .unwrap();
        assert_eq!(run.results, (0..8).collect::<Vec<_>>());
        assert!(run.seconds > 0.0);
    }

    /// A flight that fails with `WorkerPanicked` must leave the pool's
    /// accounting consistent: partial-shard charges stay on the chips'
    /// own clocks (the work physically ran and burned energy) but
    /// never leak into the merged serving timeline, and `reset`
    /// clears every chip — not just the primary.
    #[test]
    fn failed_flight_merges_no_partial_charges_into_the_timeline() {
        let pool = DevicePool::with_cores(TpuConfig::small_test(), 2, 1);
        let err = pool
            .run_sharded(vec![4, 5], square_lane, |device, items| {
                // Both shards charge real work under their chip
                // lock; the shard with the larger product then
                // crashes — after charging, the worst case for a
                // timeline leak.
                let (out, dt) = matmul_shard(device, items)?;
                if out.contains(&5) {
                    device.with(|_| panic!("chip crash after charging its shard"));
                }
                Ok((out, dt))
            })
            .unwrap_err();
        assert!(matches!(err, TensorError::WorkerPanicked { .. }));
        // The chips recorded the partial work they really did...
        assert!(pool.devices().iter().all(|d| d.wall_seconds() > 0.0));
        assert!(pool.energy_pj() > 0.0);
        // ...but none of it leaked into the merged serving timeline.
        assert_eq!(pool.wall_seconds(), 0.0);
        assert_eq!(pool.gather_seconds(), 0.0);
        assert_eq!(pool.sharded_flights(), 0);
        // reset() clears every chip, not just the primary.
        pool.reset();
        assert_eq!(pool.energy_pj(), 0.0);
        for d in pool.devices() {
            assert_eq!(d.wall_seconds(), 0.0);
            assert_eq!(d.energy_pj(), 0.0);
        }
    }

    #[test]
    fn wrong_shard_arity_is_an_error_not_a_hang() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        let err = pool
            .run_sharded(
                vec![1u64, 2, 3],
                |_| lane(1.0),
                // Wrong arity, with a self-reported charge that must
                // be discarded along with the failed flight.
                |_, _| Ok((vec![7u64], 1.5)),
            )
            .unwrap_err();
        assert!(matches!(err, TensorError::DataLength { .. }));
        assert_eq!(pool.wall_seconds(), 0.0);
    }

    /// One error precedence for pooled flights, with or without a
    /// fault plan: a panic anywhere wins, else the first shard error
    /// in device order, else wrong arity — and a failed flight merges
    /// nothing. Lane `i` rides chip `i` (round-robin). A failed shard
    /// never skips its siblings: every `Charge` chip's own clock
    /// carries exactly its shard's charge afterwards.
    #[test]
    fn failed_flights_resolve_one_error_with_or_without_a_plan() {
        #[derive(Clone, Copy, PartialEq)]
        enum Misbehave {
            No,
            Charge,
            Panic,
            Error,
            Arity,
        }
        use Misbehave::*;
        let panicked = TensorError::WorkerPanicked {
            op: "device pool shard",
        };
        let arity = TensorError::DataLength {
            expected: 1,
            actual: 0,
        };
        let rows: [(&[Misbehave], TensorError); 8] = [
            (&[Panic, No], panicked.clone()),
            (&[Error, No], TensorError::EmptyDimension),
            (&[Arity, No], arity),
            (&[Error, Panic], panicked.clone()),
            (&[Arity, Error], TensorError::EmptyDimension),
            (&[Panic, Charge, Charge, Charge], panicked.clone()),
            (&[Error, Charge, Charge, Panic], panicked),
            (&[Error, Charge, Arity, Charge], TensorError::EmptyDimension),
        ];
        for (row, (per_chip, expect)) in rows.into_iter().enumerate() {
            let chips = per_chip.len();
            let plain = DevicePool::new(TpuConfig::small_test(), chips);
            let planned = DevicePool::new(TpuConfig::small_test(), chips)
                .with_fault_plan(FaultPlan::seeded(row as u64));
            for (pool, label) in [(plain, "no plan"), (planned, "empty plan")] {
                let pool = pool.with_strategy(ShardStrategy::RoundRobin);
                let charged = std::cell::RefCell::new(vec![0.0f64; chips]);
                let err = pool
                    .run_sharded(
                        (0..chips).collect(),
                        |_| lane(1.0),
                        |device, items| match per_chip[items[0]] {
                            No => Ok((items, 1.5)),
                            Charge => {
                                let (_, dt) = matmul_shard(device, vec![4])?;
                                charged.borrow_mut()[items[0]] = dt;
                                Ok((items, dt))
                            }
                            Panic => panic!("chip firmware crash"),
                            Error => Err(TensorError::EmptyDimension),
                            Arity => Ok((Vec::new(), 1.5)),
                        },
                    )
                    .unwrap_err();
                assert_eq!(err, expect, "row {row}, {label}");
                assert_eq!(pool.wall_seconds(), 0.0, "row {row}, {label}");
                for (d, dt) in charged.into_inner().into_iter().enumerate() {
                    assert_eq!(
                        per_chip[d] == Charge,
                        dt > 0.0,
                        "row {row}, {label}, chip {d}"
                    );
                    assert_eq!(
                        pool.device(d).wall_seconds().to_bits(),
                        dt.to_bits(),
                        "row {row}, {label}, chip {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_planned_rejects_inconsistent_plans_and_reuses_good_ones() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        let lanes: Vec<LaneCost> = (0..3).map(|_| lane(1.0)).collect();
        // Plan computed for a different pool size.
        let wrong_devices = ShardPlan::plan(&lanes, 3, ShardStrategy::RoundRobin);
        let err = pool
            .run_planned(&wrong_devices, 0, vec![1u64, 2, 3], |_, v: Vec<u64>| {
                uncharged(v)
            })
            .unwrap_err();
        assert!(matches!(err, TensorError::DataLength { .. }));
        // Plan covering fewer lanes than the work carries.
        let fewer: Vec<LaneCost> = (0..2).map(|_| lane(1.0)).collect();
        let wrong_lanes = ShardPlan::plan(&fewer, 2, ShardStrategy::RoundRobin);
        let err = pool
            .run_planned(&wrong_lanes, 0, vec![1u64, 2, 3], |_, v: Vec<u64>| {
                uncharged(v)
            })
            .unwrap_err();
        assert!(matches!(err, TensorError::DataLength { .. }));
        assert_eq!(pool.wall_seconds(), 0.0, "rejected plans charge nothing");
        // A caller-reused matching plan executes identically.
        let plan = ShardPlan::plan(&lanes, 2, ShardStrategy::RoundRobin);
        let run = pool
            .run_planned(
                &plan,
                plan.gather_shard_bytes(&lanes),
                vec![1u64, 2, 3],
                |_, v: Vec<u64>| uncharged(v),
            )
            .unwrap();
        assert_eq!(run.results, vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_external_charges_do_not_double_count() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        let run = pool
            .run_sharded(
                vec![1u64, 2],
                |_| lane(1.0),
                |device, items| {
                    // An unrelated kernel lands on this chip mid-flight
                    // and merges its own time via advance_external (as
                    // TpuAccel's non-transform kernels do). The flight
                    // must not absorb it: shards self-report only what
                    // they charged inside their timed region.
                    device.with(|d| d.charge_external_seconds(5.0));
                    pool.advance_external(5.0);
                    let (_, dt) = matmul_shard(device, vec![4])?;
                    Ok((items, dt))
                },
            )
            .unwrap();
        // Two shards → 10.0 s of external charges, plus exactly the
        // flight's own contribution. Double counting would add the
        // 5.0 s external charges into the flight deltas again.
        let expect = 10.0 + run.seconds;
        assert!(
            (pool.wall_seconds() - expect).abs() < 1e-12,
            "wall {} must equal external 10.0 + flight {}",
            pool.wall_seconds(),
            run.seconds
        );
        assert!(run.seconds > 0.0 && run.seconds < 5.0);
    }

    #[test]
    fn advance_external_merges_into_timeline() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        pool.advance_external(0.25);
        pool.advance_external(-1.0); // ignored
        assert_eq!(pool.wall_seconds(), 0.25);
        pool.reset();
        assert_eq!(pool.wall_seconds(), 0.0);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2);
        pool.advance_external(1.0);
        let copy = pool.deep_clone();
        assert_eq!(copy.wall_seconds(), 1.0);
        copy.run_sharded(vec![4, 4], square_lane, matmul_shard)
            .unwrap();
        assert!(copy.wall_seconds() > 1.0);
        assert_eq!(pool.wall_seconds(), 1.0, "original untouched");
        assert!(!pool.primary().same_device(copy.primary()));
    }

    #[test]
    fn zero_devices_plans_for_one_device() {
        // Regression: `plan` must absorb a `devices == 0` caller bug
        // instead of indexing into an empty assignment table.
        let lanes: Vec<LaneCost> = (0..5).map(|i| lane(i as f64 + 1.0)).collect();
        for strategy in [
            ShardStrategy::RoundRobin,
            ShardStrategy::CostAware,
            ShardStrategy::TopologyAware,
        ] {
            let plan = ShardPlan::plan(&lanes, 0, strategy);
            assert_eq!(plan.assignments().len(), 1, "{strategy:?}");
            assert_eq!(plan.occupied_devices(), 1);
            let mut placed: Vec<usize> = plan.assignments()[0].clone();
            placed.sort_unstable();
            assert_eq!(placed, (0..5).collect::<Vec<_>>());
        }
        assert_eq!(ShardPlan::plan_width(&lanes, 0, 0).assignments().len(), 1);
        assert_eq!(
            ShardPlan::plan(&[], 0, ShardStrategy::CostAware).occupied_devices(),
            0
        );
    }

    #[test]
    fn pool_gather_prices_through_its_topology() {
        let cfg = TpuConfig::small_test();
        let flat = DevicePool::new(cfg.clone(), 4);
        let ring = DevicePool::new(cfg.clone(), 4).with_topology(Topology::ring());
        // Default fabric: exactly the seed charge.
        assert_eq!(
            flat.gather_cost_s(512, 4).to_bits(),
            cfg.cross_replica_cost_s(512).to_bits(),
        );
        assert!(ring.gather_cost_s(512, 4) > flat.gather_cost_s(512, 4));
        // The fabric survives a deep clone and shows in the merged
        // timeline: the same flight pays more reassembly on the ring.
        let work = || vec![4usize; 4];
        let ring = ring.deep_clone();
        for pool in [&flat, &ring] {
            pool.run_sharded(work(), square_lane, matmul_shard).unwrap();
        }
        assert!(ring.gather_seconds() > flat.gather_seconds());
    }

    #[test]
    fn topology_aware_narrows_when_balance_allows() {
        // 20 equal lanes on 16 chips: the full-width LPT leaves four
        // chips with 2 lanes (makespan 2), so packing onto a 12-chip
        // (three-pod) prefix costs no compute time but shrinks the
        // gather's participant count.
        let lanes: Vec<LaneCost> = (0..20).map(|_| lane(1.0)).collect();
        let torus = Topology::torus(4);
        let plan = ShardPlan::plan_on(&lanes, 16, ShardStrategy::TopologyAware, &torus);
        assert_eq!(plan.occupied_devices(), 12);
        assert_eq!(plan.makespan(&lanes), 2.0);
        let full = ShardPlan::plan_on(&lanes, 16, ShardStrategy::CostAware, &torus);
        assert_eq!(full.makespan(&lanes), 2.0, "narrowing sacrificed nothing");
        // When every chip is needed to hold the makespan, the aware
        // plan uses them all.
        let heavy: Vec<LaneCost> = (0..16).map(|_| lane(1.0)).collect();
        let plan = ShardPlan::plan_on(&heavy, 16, ShardStrategy::TopologyAware, &torus);
        assert_eq!(plan.occupied_devices(), 16);
        // On a flat crossbar the strategy is exactly CostAware.
        let flat = Topology::flat();
        assert_eq!(
            ShardPlan::plan_on(&lanes, 16, ShardStrategy::TopologyAware, &flat),
            ShardPlan::plan_on(&lanes, 16, ShardStrategy::CostAware, &flat),
        );
    }

    #[test]
    fn cost_aware_beats_round_robin_on_skewed_lanes_over_a_ring() {
        // Skewed lane sizes laid out so round-robin piles the heavy
        // lanes onto the same chips: on a non-flat fabric both plans
        // pay the same ring gather, so the placement alone decides
        // the merged timeline.
        let skew = |i: usize| if i.is_multiple_of(4) { 16usize } else { 4 };
        let work = || -> Vec<usize> { (0..16).map(skew).collect() };
        let run = |strategy: ShardStrategy| -> f64 {
            let pool = DevicePool::with_cores(TpuConfig::small_test(), 4, 1)
                .with_strategy(strategy)
                .with_topology(Topology::ring());
            pool.run_sharded(work(), square_lane, matmul_shard).unwrap();
            pool.wall_seconds()
        };
        let rr = run(ShardStrategy::RoundRobin);
        let ca = run(ShardStrategy::CostAware);
        assert!(
            ca < rr,
            "cost-aware placement ({ca} s) must beat round-robin ({rr} s)"
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing_but_the_code_path() {
        // A plan with nothing scheduled must reproduce the healthy
        // path's merged timeline bit-for-bit (same makespan, same
        // gather, no backoff), and identical results.
        let work = || vec![4usize; 8];
        let healthy = DevicePool::with_cores(TpuConfig::small_test(), 4, 1);
        let planned = DevicePool::with_cores(TpuConfig::small_test(), 4, 1)
            .with_fault_plan(FaultPlan::seeded(99));
        let a = healthy
            .run_sharded(work(), square_lane, matmul_shard)
            .unwrap();
        let b = planned
            .run_sharded(work(), square_lane, matmul_shard)
            .unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(
            healthy.wall_seconds().to_bits(),
            planned.wall_seconds().to_bits()
        );
        assert_eq!(healthy.gather_seconds(), planned.gather_seconds());
        assert_eq!(planned.fault_stats(), FaultStats::default());
        assert_eq!(planned.healthy_devices(), 4);
        assert_eq!(planned.healthy_fraction(), 1.0);
    }

    #[test]
    fn transient_fault_retries_to_bit_identical_results() {
        let work = || vec![4usize; 4];
        let healthy = DevicePool::with_cores(TpuConfig::small_test(), 2, 1);
        let reference = healthy
            .run_sharded(work(), square_lane, matmul_shard)
            .unwrap();
        // Draw 0 = the first shard of the first flight: device 0
        // faults once, its lanes retry on the survivor.
        let faulted = DevicePool::with_cores(TpuConfig::small_test(), 2, 1)
            .with_fault_plan(FaultPlan::seeded(7).transient_draw(0));
        let run = faulted
            .run_sharded(work(), square_lane, matmul_shard)
            .unwrap();
        assert_eq!(run.results, reference.results, "results bit-identical");
        assert!(
            run.seconds > reference.seconds,
            "only the timeline pays for the retry: {} vs {}",
            run.seconds,
            reference.seconds
        );
        let stats = faulted.fault_stats();
        assert_eq!(stats.transient_faults, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantines, 1);
        assert!(stats.replans >= 1);
        assert_eq!(stats.budget_exhausted, 0);
    }

    #[test]
    fn retried_flight_charges_round_makespans_plus_backoff() {
        // Synthetic charges make the accounting exact: each shard
        // reports dt = lane count. Round 1: both 2-lane shards run
        // (makespan 2.0), device 0's results are lost. Round 2: the
        // two lost lanes rerun on the survivor (dt 2.0) after one
        // backoff step. All results come from device 1, so no gather.
        let pool = DevicePool::new(TpuConfig::small_test(), 2).with_fault_plan(
            FaultPlan::seeded(3)
                .transient_draw(0)
                .with_backoff_s(1.0e-6),
        );
        let run = pool
            .run_sharded(
                vec![10u64, 20, 30, 40],
                |_| lane(1.0),
                |_, items| {
                    let dt = items.len() as f64;
                    Ok((items, dt))
                },
            )
            .unwrap();
        assert_eq!(run.results, vec![10, 20, 30, 40], "lane order preserved");
        let expect: f64 = 2.0 + 2.0 + 1.0e-6;
        assert_eq!(run.seconds.to_bits(), expect.to_bits());
        // The pool-merged invariant holds for retried flights too.
        assert_eq!(pool.wall_seconds().to_bits(), expect.to_bits());
        assert_eq!(pool.gather_seconds(), 0.0, "single contributing chip");
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error_and_merges_nothing() {
        let pool = DevicePool::with_cores(TpuConfig::small_test(), 2, 1)
            .with_fault_plan(FaultPlan::seeded(5).transient(1.0).with_retry_budget(2));
        let err = pool
            .run_sharded(vec![4, 4], square_lane, matmul_shard)
            .unwrap_err();
        assert_eq!(
            err,
            TensorError::FaultBudgetExhausted {
                op: "device pool shard",
                attempts: 3,
            }
        );
        // The chips really ran (their own clocks charged)...
        assert!(pool.devices().iter().any(|d| d.wall_seconds() > 0.0));
        // ...but the failed flight merged nothing.
        assert_eq!(pool.wall_seconds(), 0.0);
        let stats = pool.fault_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.budget_exhausted, 1);
        // Clearing the plan restores healthy, bit-identical serving.
        pool.clear_fault_plan();
        let run = pool
            .run_sharded(vec![1u64, 2], |_| lane(1.0), |_, v: Vec<u64>| uncharged(v))
            .unwrap();
        assert_eq!(run.results, vec![1, 2]);
        assert_eq!(pool.healthy_devices(), 2);
    }

    #[test]
    fn fail_stop_quarantines_forever_and_the_pool_serves_on() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2)
            .with_fault_plan(FaultPlan::seeded(2).fail_stop(1, 0.0));
        let run = pool
            .run_sharded(
                (0..6u64).collect(),
                |_| lane(1.0),
                |_, v: Vec<u64>| uncharged(v),
            )
            .unwrap();
        assert_eq!(run.results, (0..6).collect::<Vec<_>>());
        assert_eq!(pool.healthy_devices(), 1);
        assert_eq!(pool.healthy_fraction(), 0.5);
        assert_eq!(pool.healthy_device_indices(), vec![0]);
        let stats = pool.fault_stats();
        assert_eq!(stats.fail_stops, 1);
        // Cooldowns never resurrect a fail-stopped chip.
        pool.advance_external(10.0);
        pool.run_sharded(
            (0..4u64).collect(),
            |_| lane(1.0),
            |_, v: Vec<u64>| uncharged(v),
        )
        .unwrap();
        assert_eq!(pool.healthy_devices(), 1);
        assert_eq!(pool.fault_stats().readmissions, 0);
    }

    /// Every chip dead: the flight tries the primary until the budget
    /// types out, and merges nothing.
    #[test]
    fn every_chip_dead_exhausts_the_budget_typed() {
        let budget = 2;
        let pool = DevicePool::new(TpuConfig::small_test(), 2).with_fault_plan(
            FaultPlan::seeded(6)
                .fail_stop(0, 0.0)
                .fail_stop(1, 0.0)
                .with_retry_budget(budget),
        );
        pool.advance_external(0.5);
        let err = pool
            .run_sharded(
                (0..4u64).collect(),
                |_| lane(1.0),
                |_, v: Vec<u64>| uncharged(v),
            )
            .unwrap_err();
        assert_eq!(
            err,
            TensorError::FaultBudgetExhausted {
                op: "device pool shard",
                attempts: budget + 1,
            }
        );
        assert_eq!(pool.wall_seconds(), 0.5, "a failed flight merges nothing");
        assert_eq!(pool.healthy_devices(), 0);
        assert_eq!(pool.healthy_device_indices(), vec![0]);
    }

    #[test]
    fn transient_quarantine_readmits_after_cooldown_probe() {
        let pool = DevicePool::new(TpuConfig::small_test(), 2).with_fault_plan(
            FaultPlan::seeded(11)
                .transient_draw(0)
                .with_cooldown_s(1.0e-3),
        );
        pool.run_sharded(
            (0..4u64).collect(),
            |_| lane(1.0),
            |_, v: Vec<u64>| uncharged(v),
        )
        .unwrap();
        assert_eq!(pool.healthy_devices(), 1, "faulted chip sits in quarantine");
        // Before the cooldown expires the chip stays out...
        pool.run_sharded(
            (0..2u64).collect(),
            |_| lane(1.0),
            |_, v: Vec<u64>| uncharged(v),
        )
        .unwrap();
        assert_eq!(pool.fault_stats().readmissions, 0);
        // ...and once simulated time passes it, the next flight's
        // probe re-admits it.
        pool.advance_external(1.0);
        pool.run_sharded(
            (0..2u64).collect(),
            |_| lane(1.0),
            |_, v: Vec<u64>| uncharged(v),
        )
        .unwrap();
        let stats = pool.fault_stats();
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.readmissions, 1);
        assert_eq!(pool.healthy_devices(), 2);
    }

    #[test]
    fn healthy_fraction_tracks_scheduled_deaths_without_dispatch() {
        let pool = DevicePool::new(TpuConfig::small_test(), 4)
            .with_fault_plan(FaultPlan::seeded(0).fail_stop(2, 0.5));
        assert_eq!(pool.healthy_devices(), 4, "nothing due yet");
        pool.advance_external(1.0);
        // The death shows as soon as the merged clock passes it, even
        // before any flight dispatches.
        assert_eq!(pool.healthy_devices(), 3);
        assert_eq!(pool.healthy_fraction(), 0.75);
        assert_eq!(pool.healthy_device_indices(), vec![0, 1, 3]);
    }

    #[test]
    fn project_maps_subset_plans_onto_the_full_pool() {
        let lanes: Vec<LaneCost> = (0..5).map(|_| lane(1.0)).collect();
        let subset = ShardPlan::plan(&lanes, 2, ShardStrategy::RoundRobin);
        let full = subset.project(&[1, 3], 4);
        assert_eq!(full.assignments().len(), 4);
        assert_eq!(full.assignments()[1], vec![0, 2, 4]);
        assert_eq!(full.assignments()[3], vec![1, 3]);
        assert!(full.assignments()[0].is_empty());
        assert_eq!(full.occupied_devices(), 2);
    }

    #[test]
    fn reset_zeroes_every_chip_and_the_timeline() {
        let pool = DevicePool::new(TpuConfig::small_test(), 3);
        pool.run_sharded(vec![4; 6], square_lane, matmul_shard)
            .unwrap();
        assert!(pool.energy_pj() > 0.0);
        pool.reset();
        assert_eq!(pool.wall_seconds(), 0.0);
        assert_eq!(pool.gather_seconds(), 0.0);
        assert_eq!(pool.sharded_flights(), 0);
        assert_eq!(pool.energy_pj(), 0.0);
        for d in pool.devices() {
            assert_eq!(d.wall_seconds(), 0.0);
        }
    }
}
