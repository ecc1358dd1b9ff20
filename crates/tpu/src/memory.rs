//! On-chip and off-chip memory models.
//!
//! The simulator charges every operand movement: HBM ↔ unified buffer
//! transfers cost bandwidth-limited cycles, and the unified buffer
//! itself has finite capacity — working sets that exceed it spill and
//! get double-charged, which is what makes naive large-matrix
//! schedules slow and the paper's data decomposition profitable.

use crate::config::TpuConfig;

/// Byte-transfer accounting for one TPU core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryModel {
    hbm_bytes_read: u64,
    hbm_bytes_written: u64,
    spill_bytes: u64,
}

impl MemoryModel {
    /// Creates an empty accounting record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an HBM → unified-buffer read of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.hbm_bytes_read += bytes;
    }

    /// Records a unified-buffer → HBM write of `bytes`.
    pub fn record_write(&mut self, bytes: u64) {
        self.hbm_bytes_written += bytes;
    }

    /// Records a working set of `bytes` for one operation. If it
    /// exceeds the unified buffer, the overflow is charged again as
    /// spill traffic (read + write back).
    pub fn record_working_set(&mut self, bytes: u64, cfg: &TpuConfig) {
        let cap = cfg.unified_buffer_bytes as u64;
        if bytes > cap {
            let overflow = bytes - cap;
            self.spill_bytes += 2 * overflow;
        }
    }

    /// Total HBM traffic including spills, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.hbm_bytes_read + self.hbm_bytes_written + self.spill_bytes
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &MemoryModel) {
        self.hbm_bytes_read += other.hbm_bytes_read;
        self.hbm_bytes_written += other.hbm_bytes_written;
        self.spill_bytes += other.spill_bytes;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let mut m = MemoryModel::new();
        m.record_read(100);
        m.record_write(50);
        m.record_read(25);
        assert_eq!(m.total_bytes(), 175);
    }

    #[test]
    fn working_set_within_buffer_is_free() {
        let cfg = TpuConfig::small_test(); // 64 KiB UB
        let mut m = MemoryModel::new();
        m.record_working_set(64 * 1024, &cfg);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn working_set_overflow_double_charges() {
        let cfg = TpuConfig::small_test();
        let mut m = MemoryModel::new();
        m.record_working_set(64 * 1024 + 1000, &cfg);
        assert_eq!(m.total_bytes(), 2000);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = MemoryModel::new();
        a.record_read(10);
        let mut b = MemoryModel::new();
        b.record_write(20);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 30);
        a.reset();
        assert_eq!(a.total_bytes(), 0);
    }
}
