//! A single simulated TPU core: systolic MXU + vector unit.
//!
//! A core computes nothing: it is charged the cost of work whose
//! numeric result is computed on the host ("timing is simulated,
//! compute is real", the first invariant of ARCHITECTURE.md; the
//! numerics, int8 or bf16 as configured, live in `xai-accel`'s
//! platforms). A charge moves exactly two counters, cycles and energy;
//! the bytes an op moves are a term of both, not a ledger.

use crate::config::TpuConfig;
use crate::systolic::SystolicArray;

/// One simulated TPU core: a cycle and energy ledger charged by shape.
///
/// # Examples
///
/// ```
/// use xai_tpu::{TpuConfig, TpuCore};
///
/// let mut core = TpuCore::new(TpuConfig::small_test());
/// core.charge_matmul_work(4, 4, 4, 1); // one 4×4 · 4×4 MXU product
/// assert!(core.elapsed_cycles() > 0);
/// assert!(core.energy_pj() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TpuCore {
    cfg: TpuConfig,
    array: SystolicArray,
    cycles: u64,
    energy_pj: f64,
}

impl TpuCore {
    /// Creates a core with the given configuration.
    pub fn new(cfg: TpuConfig) -> Self {
        let array = SystolicArray::from_config(&cfg);
        TpuCore {
            cfg,
            array,
            cycles: 0,
            energy_pj: 0.0,
        }
    }

    /// Hardware configuration.
    pub fn config(&self) -> &TpuConfig {
        &self.cfg
    }

    /// Cycles accumulated since construction or the last reset.
    pub fn elapsed_cycles(&self) -> u64 {
        self.cycles
    }

    /// Seconds equivalent of [`TpuCore::elapsed_cycles`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.cfg.cycles_to_seconds(self.cycles)
    }

    /// Energy consumed so far, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Zeroes the cycle and energy counters.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.energy_pj = 0.0;
    }

    // --- charged operations -------------------------------------------

    /// Charges the cycle and energy cost of an `m×k·k×n` MXU
    /// matmul, `passes` times (a complex product is three real passes,
    /// Karatsuba), at the configured precision's operand width.
    pub fn charge_matmul_work(&mut self, m: usize, k: usize, n: usize, passes: u64) {
        // Weight loads are already folded into matmul_cycles for both
        // buffering modes.
        let stream = self
            .array
            .matmul_cycles(m, k, n, self.cfg.double_buffered_weights);
        let compute_cycles = stream * passes;
        let elem = self.cfg.precision.bytes() as u64;
        let bytes = ((m * k + k * n) as u64) * elem + (m * n) as u64 * 4; // i32/f32 accumulators out
        let mem_cycles = (bytes as f64 / self.cfg.hbm_bytes_per_cycle_per_core()).ceil() as u64;
        let macs = (m * k * n) as u64 * passes;
        // Compute and memory overlap; the core is busy for the max.
        let total = compute_cycles.max(mem_cycles);
        self.cycles += total;
        let energy_factor = (self.cfg.precision.bytes() * self.cfg.precision.bytes()) as f64;
        self.energy_pj += macs as f64 * self.cfg.pj_per_mac * energy_factor
            + bytes as f64 * self.cfg.pj_per_hbm_byte;
    }

    /// Charges the cost of an elementwise vector-unit op over `elems`
    /// elements (six flops each, a complex multiply).
    pub fn charge_elementwise_work(&mut self, elems: u64) {
        const FLOPS_PER_ELEM: u64 = 6;
        // Vector unit processes one lane-width row per cycle.
        let lanes = self.cfg.array_cols as u64;
        let cycles = elems.div_ceil(lanes);
        let bytes = elems * 8;
        self.cycles += cycles;
        self.energy_pj +=
            (elems * FLOPS_PER_ELEM) as f64 * self.cfg.pj_per_mac + bytes as f64 * 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_everything() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        core.charge_matmul_work(4, 4, 4, 1);
        assert!(core.elapsed_cycles() > 0);
        core.reset();
        assert_eq!(core.elapsed_cycles(), 0);
        assert_eq!(core.energy_pj(), 0.0);
    }

    #[test]
    fn bigger_matmul_costs_more() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        core.charge_matmul_work(4, 4, 4, 1);
        let small = core.elapsed_cycles();
        core.reset();
        core.charge_matmul_work(16, 16, 16, 1);
        assert!(core.elapsed_cycles() > small);
    }

    #[test]
    fn elapsed_seconds_scales_with_clock() {
        let mut core = TpuCore::new(TpuConfig::small_test()); // 1 MHz
        let lane_width = core.config().array_cols as u64;
        core.charge_elementwise_work(lane_width); // one cycle
        assert!((core.elapsed_seconds() - 1e-6).abs() < 1e-12);
    }
}
