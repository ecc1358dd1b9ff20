//! Multi-core TPU device with collective communication.
//!
//! Charges the two acceleration activities of the paper: data
//! decomposition (each core is charged an independent shard,
//! [`TpuDevice::run_phase`]) and multi-input parallelism, with the
//! `cross_replica_sum` reassembly collective of §III-D charged at
//! `α + β·bytes` ([`TpuDevice::charge_collective`]). A device adds
//! three counters to its cores' cycles and energy: wall seconds, comm
//! seconds and the collective count.

use crate::config::TpuConfig;
use crate::core::TpuCore;
use xai_tensor::{Result, TensorError};

/// A simulated multi-core TPU.
///
/// Work charged through [`TpuDevice::run_phase`] is charged core by
/// core on the host but *timed* as if the cores ran concurrently: the
/// phase's wall time is the maximum per-core busy time, plus any
/// collective cost.
///
/// # Examples
///
/// ```
/// use xai_tpu::{TpuConfig, TpuDevice};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let mut dev = TpuDevice::new(TpuConfig::small_test()); // 2 cores
/// // Two 4×4 · 4×4 products, one per core, then their reassembly.
/// dev.run_phase(vec![4, 4], |core, n| core.charge_matmul_work(n, n, n, 1))?;
/// dev.charge_collective(4 * 4 * 8);
/// assert!(dev.wall_seconds() > 0.0);
/// assert_eq!(dev.collectives(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TpuDevice {
    cfg: TpuConfig,
    cores: Vec<TpuCore>,
    wall_seconds: f64,
    comm_seconds: f64,
    collectives: u64,
}

impl TpuDevice {
    /// Creates a device with `cfg.cores` cores (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `cfg.clock_hz`,
    /// `cfg.hbm_bytes_per_sec` and `cfg.link_bytes_per_sec` are finite
    /// and > 0 and `cfg.link_latency_s` is finite and ≥ 0: a zero rate
    /// would wrap the cycle counter or read an infinite clock, and a
    /// negative one would run it backwards.
    pub fn new(mut cfg: TpuConfig) -> Self {
        check_rates(&cfg);
        cfg.cores = cfg.cores.max(1);
        let cores = (0..cfg.cores).map(|_| TpuCore::new(cfg.clone())).collect();
        TpuDevice {
            cfg,
            cores,
            wall_seconds: 0.0,
            comm_seconds: 0.0,
            collectives: 0,
        }
    }

    /// Creates a device overriding the configured core count — used by
    /// the core-count ablation (Figure 4's core table in `report`).
    ///
    /// # Panics
    ///
    /// As [`TpuDevice::new`].
    pub fn with_cores(mut cfg: TpuConfig, cores: usize) -> Self {
        cfg.cores = cores;
        Self::new(cfg)
    }

    /// Device configuration.
    pub fn config(&self) -> &TpuConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable view of the cores.
    pub fn cores(&self) -> &[TpuCore] {
        &self.cores
    }

    /// Accumulated wall time across all phases, seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Accumulated collective-communication time, seconds.
    pub fn comm_seconds(&self) -> f64 {
        self.comm_seconds
    }

    /// Number of collectives issued.
    pub fn collectives(&self) -> u64 {
        self.collectives
    }

    /// Total energy across cores, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.cores.iter().map(TpuCore::energy_pj).sum()
    }

    /// Zeroes all core counters and device clocks.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
        self.wall_seconds = 0.0;
        self.comm_seconds = 0.0;
        self.collectives = 0;
    }

    /// Charges one data-decomposition phase: `f` charges work item
    /// `i` to core `i % cores`. The phase's wall-clock contribution is
    /// the *maximum* per-core busy-time delta (cores run concurrently).
    ///
    /// The phase is charged core by core, each core's items in their
    /// order, over clones of `work`'s iterator — so it keeps no list
    /// of its own, and every core sees the same additions in the same
    /// order as when the items are dealt out one by one. Pass a
    /// borrowing iterator (`shapes.iter().copied()`, a mapped range)
    /// where the phase is hot: a `Vec`'s iterator clones its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty work list,
    /// charging nothing.
    pub fn run_phase<I>(&mut self, work: I, mut f: impl FnMut(&mut TpuCore, I::Item)) -> Result<()>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
    {
        let work = work.into_iter();
        let n_cores = self.cores.len();
        let mut max_delta = 0u64;
        for (c, core) in self.cores.iter_mut().enumerate() {
            let mut items = work.clone().skip(c).step_by(n_cores);
            let Some(first) = items.next() else {
                // Core c has no item, and neither has any later core.
                if c == 0 {
                    return Err(TensorError::EmptyDimension);
                }
                break;
            };
            let before = core.elapsed_cycles();
            f(core, first);
            for w in items {
                f(core, w);
            }
            max_delta = max_delta.max(core.elapsed_cycles() - before);
        }
        self.wall_seconds += self.cfg.cycles_to_seconds(max_delta);
        Ok(())
    }

    /// Charges one `cross_replica_sum` collective whose per-core shard
    /// is `bytes` (§III-D: "required at every iteration of \[the\]
    /// reassembly process to compute the summation of the partial
    /// matrices across the cores").
    ///
    /// The one place a device-level collective charges its clocks:
    /// the device's cores are one link apart, so the collective is a
    /// single [`TpuConfig::cross_replica_cost_s`] step.
    pub fn charge_collective(&mut self, bytes: usize) {
        let cost = self.cfg.cross_replica_cost_s(bytes);
        self.comm_seconds += cost;
        self.wall_seconds += cost;
        self.collectives += 1;
    }

    /// Advances the device wall clock by externally-accounted work
    /// (e.g. a roofline charge for layers running outside the core
    /// model). Negative durations are ignored.
    pub fn charge_external_seconds(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.wall_seconds += seconds;
        }
    }
}

/// The refusal of [`TpuDevice::new`]: every rate a charge divides by
/// finite and positive, the link latency finite and non-negative.
fn check_rates(cfg: &TpuConfig) {
    let rates = [
        ("clock_hz", cfg.clock_hz),
        ("hbm_bytes_per_sec", cfg.hbm_bytes_per_sec),
        ("link_bytes_per_sec", cfg.link_bytes_per_sec),
    ];
    for (field, rate) in rates {
        assert!(
            rate.is_finite() && rate > 0.0,
            "TpuConfig::{field} must be finite and > 0, got {rate}"
        );
    }
    let latency = cfg.link_latency_s;
    assert!(
        latency.is_finite() && latency >= 0.0,
        "TpuConfig::link_latency_s must be finite and >= 0, got {latency}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_config_with_a_zero_negative_or_non_finite_rate_is_refused() {
        type Set = fn(&mut TpuConfig, f64);
        let rate = [0.0, -1.0, f64::NAN, f64::INFINITY];
        let bad: [(&str, Set, &[f64]); 4] = [
            ("clock_hz", |c, v| c.clock_hz = v, &rate),
            ("hbm_bytes_per_sec", |c, v| c.hbm_bytes_per_sec = v, &rate),
            ("link_bytes_per_sec", |c, v| c.link_bytes_per_sec = v, &rate),
            ("link_latency_s", |c, v| c.link_latency_s = v, &rate[1..]),
        ];
        for (field, set, values) in bad {
            for &value in values {
                let mut cfg = TpuConfig::tpu_v2();
                set(&mut cfg, value);
                for build in [TpuDevice::new, |cfg| TpuDevice::with_cores(cfg, 2)] {
                    let refusal = std::panic::catch_unwind(|| build(cfg.clone())).unwrap_err();
                    let message = refusal.downcast_ref::<String>().unwrap();
                    assert!(message.contains(field), "{field} = {value}: {message}");
                }
            }
        }
        let no_latency = TpuConfig {
            link_latency_s: 0.0,
            ..TpuConfig::small_test()
        };
        for cfg in [TpuConfig::tpu_v2(), TpuConfig::small_test(), no_latency] {
            assert!(TpuDevice::new(cfg).num_cores() > 0);
        }
    }

    /// One `n×n · n×n` product per work item.
    fn square(core: &mut TpuCore, n: usize) {
        core.charge_matmul_work(n, n, n, 1);
    }

    #[test]
    fn device_has_configured_cores() {
        let dev = TpuDevice::new(TpuConfig::small_test());
        assert_eq!(dev.num_cores(), 2);
        let dev = TpuDevice::with_cores(TpuConfig::small_test(), 8);
        assert_eq!(dev.num_cores(), 8);
        let dev0 = TpuDevice::with_cores(TpuConfig::small_test(), 0);
        assert_eq!(dev0.num_cores(), 1);
    }

    #[test]
    fn run_phase_distributes_round_robin() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![4; 4], square).unwrap();
        // Both cores must have been used (2 items each).
        assert!(dev.cores()[0].elapsed_cycles() > 0);
        assert_eq!(
            dev.cores()[0].elapsed_cycles(),
            dev.cores()[1].elapsed_cycles()
        );
    }

    #[test]
    fn phase_wall_time_is_max_not_sum() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![4; 2], square).unwrap();
        let per_core = dev.cores()[0].elapsed_seconds();
        // Two equal items on two cores: wall is one item's time, not two.
        assert_eq!(dev.wall_seconds(), per_core);
        let sum: f64 = dev.cores().iter().map(TpuCore::elapsed_seconds).sum();
        assert!(dev.wall_seconds() < sum);
    }

    #[test]
    fn empty_phase_rejected() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        assert!(dev.run_phase(Vec::new(), square).is_err());
        assert_eq!(dev.wall_seconds(), 0.0);
    }

    #[test]
    fn charge_collective_is_one_link_step() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.charge_collective(128);
        let cost = dev.config().cross_replica_cost_s(128);
        assert_eq!(dev.collectives(), 1);
        assert_eq!((dev.comm_seconds(), dev.wall_seconds()), (cost, cost));
        assert!(dev.comm_seconds() >= dev.config().link_latency_s);
        assert_eq!(dev.energy_pj(), 0.0, "a collective moves no core counter");
    }

    #[test]
    fn more_cores_reduce_phase_time() {
        let mut d2 = TpuDevice::with_cores(TpuConfig::small_test(), 2);
        d2.run_phase(vec![4; 8], square).unwrap();
        let mut d8 = TpuDevice::with_cores(TpuConfig::small_test(), 8);
        d8.run_phase(vec![4; 8], square).unwrap();
        assert!(d8.wall_seconds() < d2.wall_seconds());
    }

    #[test]
    fn reset_zeroes_device() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![4], square).unwrap();
        dev.charge_collective(128);
        dev.reset();
        assert_eq!(dev.wall_seconds(), 0.0);
        assert_eq!(dev.collectives(), 0);
        assert_eq!(dev.energy_pj(), 0.0);
    }

    /// The phase body before it charged core by core: items dealt
    /// one by one, `i` to core `i % cores`, against a snapshot of
    /// every core's cycles.
    fn run_phase_dealt<W>(
        dev: &mut TpuDevice,
        work: Vec<W>,
        mut f: impl FnMut(&mut TpuCore, W),
    ) -> Result<()> {
        if work.is_empty() {
            return Err(TensorError::EmptyDimension);
        }
        let n_cores = dev.cores.len();
        let before: Vec<u64> = dev.cores.iter().map(TpuCore::elapsed_cycles).collect();
        for (i, w) in work.into_iter().enumerate() {
            f(&mut dev.cores[i % n_cores], w);
        }
        let max_delta = dev
            .cores
            .iter()
            .zip(&before)
            .map(|(c, &b)| c.elapsed_cycles() - b)
            .max()
            .unwrap_or(0);
        dev.wall_seconds += dev.cfg.cycles_to_seconds(max_delta);
        Ok(())
    }

    /// One work item: a matmul `m×k · k×n` of `passes` passes, or an
    /// elementwise kernel of `m·k·n` elements.
    fn charge_item(core: &mut TpuCore, (kind, m, k, n): (u8, usize, usize, usize)) {
        match kind % 3 {
            0 => core.charge_matmul_work(m, k, n, 1),
            1 => core.charge_matmul_work(m, k, n, 3),
            _ => core.charge_elementwise_work((m * k * n) as u64),
        }
    }

    /// Every counter a phase moves, as bits.
    fn ledger_bits(dev: &TpuDevice) -> (Vec<(u64, u64)>, u64) {
        let cores = dev
            .cores()
            .iter()
            .map(|c| (c.elapsed_cycles(), c.energy_pj().to_bits()))
            .collect();
        (cores, dev.wall_seconds().to_bits())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Charging core by core moves the same bits as dealing the
        /// items out one by one: every core's cycles and energy and
        /// the device's wall, after phases shorter than, as long as
        /// and longer than the core count, and an empty one that
        /// charges nothing.
        #[test]
        fn run_phase_moves_the_bits_of_dealing_items_one_by_one(
            cores in 1usize..9,
            items in proptest::collection::vec(
                (0u8..3, 1usize..40, 1usize..40, 1usize..40),
                27usize..40,
            ),
        ) {
            let mut dealt = TpuDevice::with_cores(TpuConfig::small_test(), cores);
            let mut by_core = dealt.clone();
            for len in [cores - 1, cores, cores + 1, 0, 3 * cores, items.len()] {
                let phase = &items[..len];
                let old = run_phase_dealt(&mut dealt, phase.to_vec(), charge_item);
                let new = by_core.run_phase(phase.iter().copied(), charge_item);
                proptest::prop_assert_eq!(old.is_err(), new.is_err());
                proptest::prop_assert_eq!(new.is_err(), len == 0);
                proptest::prop_assert_eq!(ledger_bits(&dealt), ledger_bits(&by_core));
            }
        }
    }

    #[test]
    fn energy_sums_across_cores() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![4, 8], square).unwrap();
        let total: f64 = dev.cores().iter().map(TpuCore::energy_pj).sum();
        assert_eq!(dev.energy_pj(), total);
        assert!(total > 0.0);
    }
}
