//! Time sources for the serving layer.
//!
//! Deadlines, latencies and batching decisions are all measured on a
//! [`TimeSource`] rather than on `Instant` directly, so the load-test
//! suite can pin serving behaviour on a [`SimClock`] that only moves
//! when the test (or the simulated device) says so — no wall-clock
//! flakiness, bit-identical outcomes for a fixed seed.

use std::sync::Arc;
use xai_sync::{LockClass, OrderedMutex};

/// A [`SimClock`]'s reading — a leaf: read/advanced between serving
/// steps, never while another serve lock is wanted.
static SERVE_CLOCK: LockClass = LockClass::new("serve::clock", 54);
use std::time::Instant;

/// The serving layer's notion of time: seconds since an arbitrary
/// epoch, monotonically non-decreasing.
pub trait TimeSource: Send + Sync + std::fmt::Debug {
    /// Seconds elapsed since this source's epoch.
    fn now_s(&self) -> f64;

    /// Accounts one kernel attempt that began at `since_s` on this
    /// clock and charged the accelerator `device_s` simulated seconds;
    /// returns what the attempt cost on this clock. Real time passed by
    /// itself, so the default moves nothing and reads the difference.
    /// A virtual clock overrides this to advance by exactly
    /// `device_s` — the one place the serving core treats the two
    /// kinds of time differently.
    fn charge_attempt(&self, since_s: f64, device_s: f64) -> f64 {
        let _ = device_s;
        self.now_s() - since_s
    }
}

/// The production [`TimeSource`]: real monotonic wall time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock with its epoch at construction.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// A simulated [`TimeSource`]: frozen until [`SimClock::advance`] or
/// [`SimClock::set`] moves it. The deterministic load suite couples
/// one of these to an accelerator's simulated-seconds ledger, so a
/// request's "duration" is exactly the device time it charged.
///
/// Cheap to clone; clones share the same reading.
#[derive(Debug, Clone)]
pub struct SimClock {
    now_s: Arc<OrderedMutex<f64>>,
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock {
            now_s: Arc::new(OrderedMutex::new(&SERVE_CLOCK, 0.0)),
        }
    }
}

impl SimClock {
    /// A simulated clock starting at zero seconds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `dt_s` seconds (negative deltas are
    /// ignored — the clock never runs backwards).
    pub fn advance(&self, dt_s: f64) {
        let mut now = self.now_s.lock_recover();
        *now += dt_s.max(0.0);
    }

    /// Jumps the clock to the absolute reading `t_s`, clamped so it
    /// never moves backwards.
    pub fn set(&self, t_s: f64) {
        let mut now = self.now_s.lock_recover();
        *now = t_s.max(*now);
    }
}

impl TimeSource for SimClock {
    fn now_s(&self) -> f64 {
        *self.now_s.lock_recover()
    }

    fn charge_attempt(&self, _since_s: f64, device_s: f64) -> f64 {
        self.advance(device_s);
        device_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_monotonic_and_shared() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(2.5);
        assert_eq!(b.now_s(), 2.5);
        b.set(1.0); // backwards set is a no-op
        assert_eq!(a.now_s(), 2.5);
        b.set(4.0);
        assert_eq!(a.now_s(), 4.0);
        a.advance(-10.0); // negative advance is a no-op
        assert_eq!(a.now_s(), 4.0);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let w = WallClock::new();
        let t0 = w.now_s();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(w.now_s() > t0);
    }
}
