//! Seeded, deterministic fault injection for the device pool.
//!
//! A production fleet is defined by how it behaves when a chip dies
//! mid-load, not by its fault-free throughput. This module supplies
//! the fault-domain half of that story: a [`FaultPlan`] describes a
//! *schedule* of faults — fail-stop chip deaths at virtual times,
//! transient per-shard-attempt kernel faults drawn from a seeded
//! stream — and [`crate::DevicePool`] consults it at flight dispatch.
//! With no plan installed the pool takes exactly its pre-fault code
//! path, so every simulated metric stays bit-identical (a pinned
//! property).
//!
//! Everything is deterministic: transient faults are drawn from a
//! counter-indexed splitmix64 stream (no shared RNG state races), and
//! fail-stops trigger on the pool's own *simulated* timeline — never a
//! wall clock — so a seeded chaos run replays bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use xai_tpu::{DevicePool, FaultPlan, TpuConfig};
//!
//! let plan = FaultPlan::seeded(7)
//!     .transient(0.2)          // 20% of shard attempts fault...
//!     .with_retry_budget(8)    // ...and are retried, bounded
//!     .fail_stop(3, 1.0e-3);   // chip 3 dies at t = 1 ms
//! let pool = DevicePool::new(TpuConfig::small_test(), 4).with_fault_plan(plan);
//! assert_eq!(pool.healthy_devices(), 4); // nothing has happened yet
//! ```

use xai_sync::LockClass;

/// The pool's fault domain: the installed plan, its deterministic
/// draw counter, the quarantined chips and the fault/retry counters.
/// Ranked between the coalescing queue and the pool timeline: a
/// dispatching flight takes it at its start and around each round's
/// shards, never across a shard's charge (a device lock), and releases
/// it before it merges the timeline.
pub static TPU_FAULT: LockClass = LockClass::new("tpu::fault", 22);

/// A scheduled fail-stop: `chip` stops executing shards once the
/// pool's merged timeline reaches `at_s` simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailStop {
    /// Pool device index of the chip that dies.
    pub chip: usize,
    /// Simulated pool time at which it dies, seconds.
    pub at_s: f64,
}

/// A seeded, deterministic schedule of injected faults.
///
/// The plan is immutable once installed; all execution-time state
/// (which chips are quarantined, how many draws were consumed) lives
/// in the pool. Builder-style constructors keep scenario definitions
/// one expression long.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-shard-attempt transient fault probability in `[0, 1]`.
    transient_prob: f64,
    /// Draw indices that fault unconditionally — lets tests schedule
    /// "the second shard of the first flight faults" exactly.
    forced_draws: Vec<u64>,
    fail_stops: Vec<FailStop>,
    retry_budget: usize,
    backoff_s: f64,
    cooldown_s: f64,
}

impl FaultPlan {
    /// An empty plan drawing its transient stream from `seed`. Until
    /// faults are added it injects nothing (but the pool still runs
    /// its fault-aware dispatch path, unlike no plan at all).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_prob: 0.0,
            forced_draws: Vec::new(),
            fail_stops: Vec::new(),
            retry_budget: 3,
            backoff_s: 1.0e-6,
            cooldown_s: 1.0e-3,
        }
    }

    /// Sets the per-shard-attempt transient fault probability
    /// (clamped to `[0, 1]`). A transient fault discards the shard's
    /// results after it charged its chip — the chip really ran, the
    /// answer was lost — and the lanes are retried.
    pub fn transient(mut self, prob: f64) -> Self {
        self.transient_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Forces draw index `draw` of the transient stream to fault,
    /// regardless of probability. Draws are consumed one per occupied
    /// shard per attempt, in device-index order — so tests can target
    /// "shard 2 of flight 1" exactly.
    pub fn transient_draw(mut self, draw: u64) -> Self {
        self.forced_draws.push(draw);
        self
    }

    /// Schedules a fail-stop: `chip` dies once the pool's merged
    /// timeline reaches `at_s`. A dead chip fails its shards without
    /// charging anything (it no longer executes) and never passes a
    /// cooldown probe — it stays quarantined forever.
    pub fn fail_stop(mut self, chip: usize, at_s: f64) -> Self {
        self.fail_stops.push(FailStop { chip, at_s });
        self
    }

    /// Bounds how many retry rounds one flight may spend re-running
    /// faulted lanes before it gives up with
    /// [`xai_tensor::TensorError::FaultBudgetExhausted`].
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Simulated backoff charged before retry round `r` (the charge
    /// is `backoff_s · 2^(r-1)`: exponential, deterministic, virtual).
    pub fn with_backoff_s(mut self, backoff_s: f64) -> Self {
        self.backoff_s = backoff_s.max(0.0);
        self
    }

    /// How long a transiently-faulted chip sits quarantined before a
    /// probe re-admits it, simulated seconds.
    pub fn with_cooldown_s(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s.max(0.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-shard-attempt transient fault probability.
    pub fn transient_prob(&self) -> f64 {
        self.transient_prob
    }

    /// The bounded retry budget (rounds per flight).
    pub fn retry_budget(&self) -> usize {
        self.retry_budget
    }

    /// Base simulated backoff per retry round, seconds.
    pub fn backoff_s(&self) -> f64 {
        self.backoff_s
    }

    /// Quarantine cooldown before a re-admission probe, seconds.
    pub fn cooldown_s(&self) -> f64 {
        self.cooldown_s
    }

    /// Scheduled fail-stops.
    pub fn fail_stops(&self) -> &[FailStop] {
        &self.fail_stops
    }

    /// `true` when `chip` has a fail-stop scheduled at or before
    /// `now_s` — i.e. the chip is (permanently) dead.
    pub fn chip_dead(&self, chip: usize, now_s: f64) -> bool {
        self.fail_stops
            .iter()
            .any(|fs| fs.chip == chip && fs.at_s <= now_s)
    }

    /// Whether transient-stream draw number `draw` faults. One draw
    /// is consumed per occupied shard per attempt, in device-index
    /// order, so the stream is a pure function of (seed, history).
    pub fn draw_faults(&self, draw: u64) -> bool {
        if self.forced_draws.contains(&draw) {
            return true;
        }
        if self.transient_prob <= 0.0 {
            return false;
        }
        unit_from_bits(splitmix64(
            self.seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )) < self.transient_prob
    }
}

/// Counters the pool exposes for observability: everything the fault
/// layer did, monotone since the last [`crate::DevicePool::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient shard faults injected (results discarded).
    pub transient_faults: u64,
    /// Fail-stop chip deaths applied.
    pub fail_stops: u64,
    /// Retry rounds executed (each re-runs a flight's lost lanes).
    pub retries: u64,
    /// Flights whose lanes were re-planned off a quarantined chip.
    pub replans: u64,
    /// Chips placed in quarantine.
    pub quarantines: u64,
    /// Cooldown probes run against quarantined chips.
    pub probes: u64,
    /// Chips re-admitted by a successful cooldown probe.
    pub readmissions: u64,
    /// Flights abandoned with `FaultBudgetExhausted`.
    pub budget_exhausted: u64,
}

/// Fixed-increment splitmix64 — the classic constants, `std`-only.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_stream_is_deterministic_and_tracks_probability() {
        let plan = FaultPlan::seeded(42).transient(0.25);
        let again = FaultPlan::seeded(42).transient(0.25);
        let n = 20_000u64;
        let hits = (0..n).filter(|&d| plan.draw_faults(d)).count();
        let hits2 = (0..n).filter(|&d| again.draw_faults(d)).count();
        assert_eq!(hits, hits2, "same seed, same stream");
        let frac = hits as f64 / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.02,
            "empirical fault rate {frac} should track the probability"
        );
        // A different seed draws a different stream.
        let other = FaultPlan::seeded(43).transient(0.25);
        assert!((0..n).any(|d| plan.draw_faults(d) != other.draw_faults(d)));
    }

    #[test]
    fn zero_probability_never_faults_and_forced_draws_always_do() {
        let plan = FaultPlan::seeded(1).transient_draw(5);
        assert!((0..100).all(|d| plan.draw_faults(d) == (d == 5)));
        let full = FaultPlan::seeded(1).transient(1.0);
        assert!((0..100).all(|d| full.draw_faults(d)));
    }

    #[test]
    fn fail_stops_trigger_at_their_virtual_time() {
        let plan = FaultPlan::seeded(0).fail_stop(3, 2.5);
        assert!(!plan.chip_dead(3, 2.0));
        assert!(plan.chip_dead(3, 2.5));
        assert!(plan.chip_dead(3, 99.0), "fail-stop is permanent");
        assert!(!plan.chip_dead(0, 99.0), "only the scheduled chip dies");
    }

    #[test]
    fn builder_clamps_and_reports_knobs() {
        let plan = FaultPlan::seeded(9)
            .transient(7.0)
            .with_retry_budget(5)
            .with_backoff_s(-1.0)
            .with_cooldown_s(0.5);
        assert_eq!(plan.transient_prob(), 1.0);
        assert_eq!(plan.retry_budget(), 5);
        assert_eq!(plan.backoff_s(), 0.0);
        assert_eq!(plan.cooldown_s(), 0.5);
        assert_eq!(plan.seed(), 9);
    }
}
