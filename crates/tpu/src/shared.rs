//! A shareable, thread-safe front-end over [`TpuDevice`].
//!
//! The simulator core mutates per-core cycle counters on every op, so
//! [`TpuDevice`] methods take `&mut self`. Concurrent callers — the
//! worker threads of `explain_batch_parallel_on`, or several pipelines
//! racing one device — instead hold a [`SharedDevice`]: a cheaply
//! cloneable handle (an [`Arc`]`<`[`Mutex`]`<TpuDevice>>`) whose
//! methods take `&self` and serialise access per call. Simulated time
//! accumulates exactly as if the callers had taken turns, which is
//! the device-sharing semantics the paper's multi-input parallelism
//! (§III-D) assumes: one device, many enqueued workloads.

use crate::config::TpuConfig;
use crate::device::TpuDevice;
use std::sync::Arc;
use xai_sync::{LockClass, OrderedCondvar, OrderedMutex, OrderedMutexGuard};

/// The whole-device mutex. Ranked below the queue/pool locks (a
/// flight leader charges the device while coordinating a batch) and
/// above the lane scheduler, the host pool's queues and the leaf
/// ledgers — all of which may be taken while a kernel holds the
/// device.
static TPU_DEVICE: LockClass = LockClass::new("tpu::device", 30);

/// The per-core lane scheduler. Leased and freed while no device
/// lock is needed, but `LaneLease::timed` records its charge right
/// after the device releases — so lanes rank below the device.
static DEVICE_LANES: LockClass = LockClass::new("device::lanes", 34);

/// A cloneable, `Send + Sync` handle to one simulated TPU.
///
/// All clones refer to the *same* device: cycles, collectives and
/// energy accumulate globally across every handle, matching how a
/// physical accelerator is shared between host threads.
///
/// Beyond the whole-device mutex, the handle tracks **per-core
/// lanes**: a flight leases a subset of the chip's cores via
/// [`SharedDevice::lease`] and charges through the lease, so two
/// concurrent flights that fit on disjoint cores *overlap* on the
/// lane timeline instead of convoying. The ledger itself (cycles,
/// bytes, energy, collectives) still accumulates under the single
/// mutex exactly as before — the lane overlay only records how much
/// of the serial charge could have run concurrently, so every
/// numeric result and every `wall_seconds` total stays bit-identical
/// to the pre-lane code.
///
/// # Examples
///
/// ```
/// use xai_tpu::{SharedDevice, TpuConfig};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let dev = SharedDevice::new(TpuConfig::small_test());
/// let handle = dev.clone(); // same device
/// // Two 4×4 · 4×4 products, one per core.
/// handle.with(|d| d.run_phase(vec![4, 4], |core, n| core.charge_matmul_work(n, n, n, 1)))?;
/// assert!(dev.wall_seconds() > 0.0); // visible through every handle
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedDevice {
    inner: Arc<OrderedMutex<TpuDevice>>,
    lanes: Arc<LaneSet>,
}

/// The per-core lane scheduler state shared by every handle clone.
#[derive(Debug)]
struct LaneSet {
    state: OrderedMutex<LaneState>,
    /// Wakes blocked [`SharedDevice::lease`] calls when lanes free up.
    freed: OrderedCondvar,
}

#[derive(Debug)]
struct LaneState {
    /// Whether each core lane is currently leased by a live flight.
    busy: Vec<bool>,
    /// The lane-timeline instant each core becomes idle again.
    busy_until: Vec<f64>,
    /// Sum of every charge routed through a lease — the convoyed
    /// (pre-lane) timeline length.
    serial_s: f64,
}

impl LaneSet {
    fn new(cores: usize) -> Self {
        LaneSet {
            state: OrderedMutex::new(
                &DEVICE_LANES,
                LaneState {
                    busy: vec![false; cores.max(1)],
                    busy_until: vec![0.0; cores.max(1)],
                    serial_s: 0.0,
                },
            ),
            freed: OrderedCondvar::new(),
        }
    }

    fn lock(&self) -> OrderedMutexGuard<'_, LaneState> {
        self.state.lock_recover()
    }
}

/// An exclusive lease on a subset of one device's core lanes,
/// returned by [`SharedDevice::lease`]. Charges routed through
/// [`LaneLease::timed`] advance only the leased lanes on the lane
/// timeline (and the whole-device ledger exactly as an un-leased
/// [`SharedDevice::timed`] would). Dropping the lease frees the
/// lanes and wakes blocked leasers.
#[derive(Debug)]
pub struct LaneLease {
    device: SharedDevice,
    cores: Vec<usize>,
}

impl SharedDevice {
    /// Creates a new device with `cfg.cores` cores.
    pub fn new(cfg: TpuConfig) -> Self {
        Self::from_device(TpuDevice::new(cfg))
    }

    /// Creates a device overriding the configured core count.
    pub fn with_cores(cfg: TpuConfig, cores: usize) -> Self {
        Self::from_device(TpuDevice::with_cores(cfg, cores))
    }

    /// Wraps an existing device.
    pub fn from_device(device: TpuDevice) -> Self {
        let cores = device.num_cores();
        SharedDevice {
            inner: Arc::new(OrderedMutex::new(&TPU_DEVICE, device)),
            lanes: Arc::new(LaneSet::new(cores)),
        }
    }

    /// Leases up to `want` free core lanes, blocking while *no* lane
    /// is free. Returns a [`LaneLease`] holding at least one and at
    /// most `min(want, num_cores)` lanes — a flight that asked for
    /// four cores on a busy chip may receive fewer and simply run
    /// longer on the lane timeline, exactly like a real scheduler
    /// packing co-tenant jobs.
    ///
    /// Free lanes are taken **most-recently-busy first** (largest
    /// `busy_until`): back-to-back flights from one caller chain onto
    /// the same cores and stay serial on the lane timeline, so only
    /// genuinely concurrent leases record overlap.
    pub fn lease(&self, want: usize) -> LaneLease {
        let want = want.max(1);
        let mut st = self.lanes.lock();
        loop {
            let mut free: Vec<usize> = (0..st.busy.len()).filter(|&i| !st.busy[i]).collect();
            if !free.is_empty() {
                free.sort_by(|&a, &b| {
                    st.busy_until[b]
                        .partial_cmp(&st.busy_until[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                free.truncate(want);
                for &i in &free {
                    st.busy[i] = true;
                }
                return LaneLease {
                    device: self.clone(),
                    cores: free,
                };
            }
            st = self.lanes.freed.wait(st);
        }
    }

    /// Total charge routed through lane leases, ignoring overlap —
    /// the length the lane timeline would have if every flight had
    /// convoyed behind the whole-device mutex.
    pub fn lane_serial_seconds(&self) -> f64 {
        self.lanes.lock().serial_s
    }

    /// Seconds of charge that ran concurrently on disjoint core
    /// lanes: `lane_serial_seconds` minus the lane timeline's makespan
    /// (the instant the last core goes idle). Zero when every flight
    /// convoyed; positive when flights overlapped.
    pub fn lane_overlap_seconds(&self) -> f64 {
        let st = self.lanes.lock();
        let makespan = st.busy_until.iter().fold(0.0f64, |m, &t| m.max(t));
        (st.serial_s - makespan).max(0.0)
    }

    /// Runs `f` with exclusive access to the device. The lock is held
    /// for the whole closure, so a multi-step schedule (phase +
    /// collective) is timed atomically even under concurrency.
    ///
    /// A lock poisoned by a panicking worker is recovered: the device
    /// state is a ledger of monotone counters that stays internally
    /// consistent, so one crashed request must not wedge the shared
    /// device for every other thread.
    pub fn with<R>(&self, f: impl FnOnce(&mut TpuDevice) -> R) -> R {
        f(&mut self.lock())
    }

    /// Runs `f` with exclusive access and returns its value together
    /// with the simulated seconds it advanced this device's wall
    /// clock — an atomic charge-and-measure step. Because the lock is
    /// held across both the charge and the measurement, the delta is
    /// exact even when other threads charge this device concurrently.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error.
    pub fn timed<R>(
        &self,
        f: impl FnOnce(&mut TpuDevice) -> xai_tensor::Result<R>,
    ) -> xai_tensor::Result<(R, f64)> {
        self.with(|d| {
            let before = d.wall_seconds();
            let value = f(d)?;
            Ok((value, d.wall_seconds() - before))
        })
    }

    /// Device configuration (cloned snapshot).
    pub fn config(&self) -> TpuConfig {
        self.lock().config().clone()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.lock().num_cores()
    }

    /// Accumulated wall time across all phases, seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.lock().wall_seconds()
    }

    /// Accumulated collective-communication time, seconds.
    pub fn comm_seconds(&self) -> f64 {
        self.lock().comm_seconds()
    }

    /// Number of collectives issued.
    pub fn collectives(&self) -> u64 {
        self.lock().collectives()
    }

    /// Total energy across cores, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.lock().energy_pj()
    }

    /// Zeroes all core counters and device clocks, including the
    /// per-core lane timeline. Lanes leased at reset time stay
    /// leased; only their clocks rewind.
    pub fn reset(&self) {
        self.lock().reset();
        let mut st = self.lanes.lock();
        st.busy_until.iter_mut().for_each(|t| *t = 0.0);
        st.serial_s = 0.0;
    }

    /// `true` when both handles refer to the same device.
    pub fn same_device(&self, other: &SharedDevice) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn lock(&self) -> OrderedMutexGuard<'_, TpuDevice> {
        // lock_recover: cycle/energy/communication counters are
        // monotone sums, so the worst a mid-kernel panic leaves
        // behind is a partially-charged phase — still serviceable,
        // unlike a process-wide wedge.
        self.inner.lock_recover()
    }
}

impl LaneLease {
    /// The core lane indices this lease holds, ascending.
    pub fn cores(&self) -> Vec<usize> {
        let mut c = self.cores.clone();
        c.sort_unstable();
        c
    }

    /// The device this lease's lanes belong to.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// Charge-and-measure exactly like [`SharedDevice::timed`] —
    /// same lock, same ledger arithmetic, same returned delta — then
    /// advance the leased lanes on the lane timeline: the charge
    /// starts when the slowest leased lane last went idle and ends
    /// `dt` later. Disjoint concurrent leases therefore overlap on
    /// the timeline while the ledger still accumulates serially.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error; failed charges advance neither clock.
    pub fn timed<R>(
        &self,
        f: impl FnOnce(&mut TpuDevice) -> xai_tensor::Result<R>,
    ) -> xai_tensor::Result<(R, f64)> {
        let (value, dt) = self.device.timed(f)?;
        let mut st = self.device.lanes.lock();
        let start = self
            .cores
            .iter()
            .fold(0.0f64, |m, &i| m.max(st.busy_until[i]));
        let end = start + dt;
        for &i in &self.cores {
            st.busy_until[i] = end;
        }
        st.serial_s += dt;
        Ok((value, dt))
    }
}

impl Drop for LaneLease {
    fn drop(&mut self) {
        let mut st = self.device.lanes.lock();
        for &i in &self.cores {
            st.busy[i] = false;
        }
        // Freed under the lanes lock, so a leaser about to park has
        // raised the condvar's waiter count and this wake reaches it.
        drop(st);
        self.device.lanes.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One phase of `n×n · n×n` products, one per work item.
    fn squares(d: &mut TpuDevice, work: Vec<usize>) -> xai_tensor::Result<()> {
        d.run_phase(work, |core, n| core.charge_matmul_work(n, n, n, 1))
    }

    #[test]
    fn clones_share_one_clock() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        let other = dev.clone();
        assert!(dev.same_device(&other));
        other.with(|d| squares(d, vec![4])).unwrap();
        assert!(dev.wall_seconds() > 0.0);
        assert_eq!(dev.wall_seconds(), other.wall_seconds());
    }

    #[test]
    fn timed_measures_exactly_its_own_charge() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        let ((), dt) = dev.timed(|d| squares(d, vec![4])).unwrap();
        assert!(dt > 0.0);
        assert_eq!(dev.wall_seconds(), dt);
        // A second timed region measures only its own delta.
        let (_, dt2) = dev.timed(|d| squares(d, vec![4])).unwrap();
        assert!((dev.wall_seconds() - dt - dt2).abs() < 1e-18);
    }

    #[test]
    fn with_gives_atomic_multi_step_access() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        let (comm, dt) = dev
            .with(|d| {
                let before = d.wall_seconds();
                squares(d, vec![4, 4])?;
                d.charge_collective(4 * 4 * 8);
                Ok::<_, xai_tensor::TensorError>((d.comm_seconds(), d.wall_seconds() - before))
            })
            .unwrap();
        assert!(
            dt > comm && comm > 0.0,
            "phase and collective in one region"
        );
        assert_eq!(dev.collectives(), 1);
    }

    #[test]
    fn concurrent_phases_accumulate_deterministically() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = dev.clone();
                scope.spawn(move || {
                    handle.with(|d| squares(d, vec![4])).unwrap();
                });
            }
        });
        // Four identical one-shard phases, serialised by the lock:
        // total wall time is exactly 4x one phase regardless of
        // interleaving.
        let serial = SharedDevice::new(TpuConfig::small_test());
        for _ in 0..4 {
            serial.with(|d| squares(d, vec![4])).unwrap();
        }
        assert!((dev.wall_seconds() - serial.wall_seconds()).abs() < 1e-15);
    }

    #[test]
    fn poisoned_device_recovers_and_keeps_serving() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        dev.with(|d| squares(d, vec![4])).unwrap();
        let before = dev.wall_seconds();
        // A worker panics while holding the device lock (`with` holds
        // it for the whole closure) — the worst case for poisoning.
        let crashing = dev.clone();
        let handle =
            std::thread::spawn(move || crashing.with(|_| panic!("worker crash mid-schedule")));
        assert!(handle.join().is_err(), "worker must have panicked");
        assert!(dev.inner.is_poisoned(), "lock must actually be poisoned");
        // Subsequent requests on every other handle still serve and
        // the ledger keeps accumulating.
        dev.with(|d| squares(d, vec![4])).unwrap();
        assert!(dev.wall_seconds() > before);
    }

    #[test]
    fn lease_routes_charges_onto_disjoint_lanes() {
        let dev = SharedDevice::with_cores(TpuConfig::small_test(), 8);
        // Two flights lease four lanes each: disjoint cores, so their
        // lane-timeline spans overlap fully while the ledger (and
        // serial_s) accumulates both charges.
        let a = dev.lease(4);
        let b = dev.lease(4);
        assert_eq!(a.cores().len(), 4);
        assert_eq!(b.cores().len(), 4);
        assert!(a.cores().iter().all(|c| !b.cores().contains(c)));
        let (_, dta) = a.timed(|d| squares(d, vec![4])).unwrap();
        let (_, dtb) = b.timed(|d| squares(d, vec![4])).unwrap();
        drop(a);
        drop(b);
        assert!(dta > 0.0 && dtb > 0.0);
        // Ledger unchanged by lanes: wall time is still the serial sum.
        assert!((dev.wall_seconds() - (dta + dtb)).abs() < 1e-18);
        assert!((dev.lane_serial_seconds() - (dta + dtb)).abs() < 1e-18);
        // Overlapping disjoint leases: makespan is the slower flight.
        assert!((dev.lane_overlap_seconds() - dta.min(dtb)).abs() < 1e-18);
    }

    #[test]
    fn sequential_leases_chain_without_overlap() {
        let dev = SharedDevice::with_cores(TpuConfig::small_test(), 8);
        for n in [4, 5, 6] {
            let lease = dev.lease(4);
            lease.timed(|d| squares(d, vec![n])).unwrap();
        }
        // Back-to-back flights re-lease the most-recently-busy lanes,
        // so the timeline stays serial: no phantom overlap.
        assert!(dev.lane_serial_seconds() > 0.0);
        assert_eq!(dev.lane_overlap_seconds(), 0.0);
    }

    #[test]
    fn lease_blocks_until_lanes_free_and_clamps_want() {
        let dev = SharedDevice::with_cores(TpuConfig::small_test(), 2);
        // Asking for more lanes than the chip has clamps to the chip.
        let all = dev.lease(16);
        assert_eq!(all.cores(), vec![0, 1]);
        let waited = std::thread::scope(|scope| {
            let handle = dev.clone();
            let t = scope.spawn(move || {
                // Blocks until `all` drops, then gets a lane.
                let lease = handle.lease(1);
                lease.cores().len()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(all);
            t.join().unwrap()
        });
        assert_eq!(waited, 1);
    }

    #[test]
    fn lane_clocks_reset_with_the_device() {
        let dev = SharedDevice::with_cores(TpuConfig::small_test(), 4);
        let lease = dev.lease(2);
        lease.timed(|d| squares(d, vec![4])).unwrap();
        drop(lease);
        assert!(dev.lane_serial_seconds() > 0.0);
        dev.reset();
        assert_eq!(dev.lane_serial_seconds(), 0.0);
        assert_eq!(dev.lane_overlap_seconds(), 0.0);
        assert_eq!(dev.wall_seconds(), 0.0);
    }

    #[test]
    fn reset_visible_through_all_handles() {
        let dev = SharedDevice::with_cores(TpuConfig::small_test(), 4);
        assert_eq!(dev.num_cores(), 4);
        dev.with(|d| squares(d, vec![4])).unwrap();
        let other = dev.clone();
        other.reset();
        assert_eq!(dev.wall_seconds(), 0.0);
        assert_eq!(dev.energy_pj(), 0.0);
    }
}
