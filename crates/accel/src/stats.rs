//! Accumulated execution statistics for an accelerator.

use std::fmt;

/// Running totals an accelerator accumulates while executing kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Simulated execution time, seconds.
    pub seconds: f64,
    /// Arithmetic operations (real FLOPs or MAC-equivalents).
    pub ops: f64,
    /// Bytes of memory traffic.
    pub bytes: f64,
    /// Number of kernels launched.
    pub kernels: u64,
}

impl KernelStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one kernel's contribution.
    pub fn record(&mut self, seconds: f64, ops: f64, bytes: f64) {
        self.seconds += seconds;
        self.ops += ops;
        self.bytes += bytes;
        self.kernels += 1;
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.seconds += other.seconds;
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.kernels += other.kernels;
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} s, {:.3e} ops, {:.3e} B, {} kernels",
            self.seconds, self.ops, self.bytes, self.kernels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = KernelStats::new();
        s.record(0.5, 100.0, 10.0);
        s.record(0.25, 50.0, 5.0);
        assert_eq!(s.seconds, 0.75);
        assert_eq!(s.ops, 150.0);
        assert_eq!(s.kernels, 2);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = KernelStats::new();
        a.record(1.0, 1.0, 1.0);
        let mut b = KernelStats::new();
        b.record(2.0, 2.0, 2.0);
        a.merge(&b);
        assert_eq!(a.kernels, 2);
        assert_eq!(a.seconds, 3.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!KernelStats::new().to_string().is_empty());
    }
}
