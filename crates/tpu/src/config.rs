//! Hardware configuration of the simulated TPU.
//!
//! Defaults mirror the platform of the paper's evaluation (§IV-A): a
//! TPUv2 board accessed through Google Colab — 128 cores, 64 GiB of
//! High-Bandwidth Memory — with the 256×256 Matrix Multiply Unit the
//! paper describes in §II-A ("the core of the entire TPU is the
//! Matrix Multiply Unit, which is a 256×256 systolic array").

/// Numeric precision of the MXU datapath.
///
/// The paper's §II-A highlights 8-bit quantisation; real TPUv2 MXUs
/// run bfloat16. Both are simulated; [`Precision::Int8`] runs at twice
/// the MAC throughput of [`Precision::Bf16`] in the cost model,
/// matching the quantisation speedup story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 8-bit integers with 32-bit accumulators (the paper's §II-A).
    #[default]
    Int8,
    /// Brain-float 16 (truncated f32 mantissa), f32 accumulation.
    Bf16,
}

impl Precision {
    /// Bytes per stored element.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Int8 => 1,
            Precision::Bf16 => 2,
        }
    }

    /// Relative MAC throughput versus the int8 peak (int8 = 1.0).
    fn throughput_factor(self) -> f64 {
        match self {
            Precision::Int8 => 1.0,
            Precision::Bf16 => 0.5,
        }
    }
}

/// Static description of one simulated TPU device.
///
/// Every field is a term of some charge, and a charge moves only a
/// core's cycles and energy and a device's wall and comm seconds and
/// collective count: the HBM rate sets a matmul's memory-bound cycles,
/// the picojoule fields its energy, the link fields a collective's
/// seconds.
///
/// # Examples
///
/// ```
/// use xai_tpu::TpuConfig;
///
/// let cfg = TpuConfig::tpu_v2();
/// assert_eq!(cfg.cores, 128);
/// assert_eq!(cfg.array_rows * cfg.array_cols, 65_536); // 65,536 MACs/cycle
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TpuConfig {
    /// Systolic array rows (weight/contraction dimension).
    pub array_rows: usize,
    /// Systolic array columns (output dimension).
    pub array_cols: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Number of independent TPU cores on the device.
    pub cores: usize,
    /// Aggregate HBM bandwidth in bytes/second (whole device).
    pub hbm_bytes_per_sec: f64,
    /// Fixed latency of one inter-core collective step, seconds (the
    /// α term of the `cross_replica_sum` cost `α + β·bytes`).
    pub link_latency_s: f64,
    /// Inter-core link bandwidth in bytes/second (the 1/β term).
    pub link_bytes_per_sec: f64,
    /// Whether weight loading overlaps with the previous tile's
    /// compute (double-buffered weight FIFO).
    pub double_buffered_weights: bool,
    /// MXU datapath precision.
    pub precision: Precision,
    /// Energy per MAC operation, picojoules.
    pub pj_per_mac: f64,
    /// Energy per byte moved from/to HBM, picojoules.
    pub pj_per_hbm_byte: f64,
}

impl TpuConfig {
    /// The paper's evaluation platform: TPUv2, 128 cores, 64 GiB HBM,
    /// 256×256 MXU at 700 MHz.
    pub fn tpu_v2() -> Self {
        TpuConfig {
            array_rows: 256,
            array_cols: 256,
            clock_hz: 700.0e6,
            cores: 128,
            // 128 cores ⇒ 64 TPUv2 chips at ~375 GB/s HBM each:
            // ~24 TB/s aggregate (≈187 GB/s per core).
            hbm_bytes_per_sec: 2.4e13,
            link_latency_s: 1.0e-6,
            link_bytes_per_sec: 70.0e9,
            double_buffered_weights: true,
            precision: Precision::Int8,
            pj_per_mac: 0.2,
            pj_per_hbm_byte: 15.0,
        }
    }

    /// A tiny configuration (4×4 array, 2 cores) that makes the
    /// cycle-accurate systolic simulation cheap enough for exhaustive
    /// unit tests.
    pub fn small_test() -> Self {
        TpuConfig {
            array_rows: 4,
            array_cols: 4,
            clock_hz: 1.0e6,
            cores: 2,
            hbm_bytes_per_sec: 1.0e9,
            link_latency_s: 1.0e-6,
            link_bytes_per_sec: 1.0e9,
            double_buffered_weights: false,
            precision: Precision::Int8,
            pj_per_mac: 0.2,
            pj_per_hbm_byte: 15.0,
        }
    }

    /// Peak MAC operations per cycle (array size × precision factor).
    pub fn macs_per_cycle(&self) -> f64 {
        (self.array_rows * self.array_cols) as f64 * self.precision.throughput_factor()
    }

    /// Peak arithmetic throughput in MAC/s.
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.macs_per_cycle() * self.clock_hz
    }

    /// HBM bytes transferable per core per cycle.
    pub fn hbm_bytes_per_cycle_per_core(&self) -> f64 {
        self.hbm_bytes_per_sec / self.cores as f64 / self.clock_hz
    }

    /// Converts a cycle count into seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Cost in seconds of one `cross_replica_sum` collective moving
    /// `bytes` per core (§III-D of the paper).
    pub fn cross_replica_cost_s(&self, bytes: usize) -> f64 {
        self.link_latency_s + bytes as f64 / self.link_bytes_per_sec
    }
}

impl Default for TpuConfig {
    fn default() -> Self {
        Self::tpu_v2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_v2_matches_paper_figures() {
        let cfg = TpuConfig::tpu_v2();
        // "65,536 8-bit integer multiplications and additions per cycle"
        assert_eq!(cfg.macs_per_cycle(), 65_536.0);
        assert_eq!(cfg.cores, 128);
        // 700 MHz · 65,536 MACs ≈ 45.9 TMAC/s
        assert!((cfg.peak_macs_per_sec() - 4.58752e13).abs() < 1e9);
    }

    #[test]
    fn bf16_halves_throughput_and_doubles_bytes() {
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Bf16.bytes(), 2);
        let mut cfg = TpuConfig::tpu_v2();
        let int8 = cfg.macs_per_cycle();
        cfg.precision = Precision::Bf16;
        assert_eq!(cfg.macs_per_cycle(), int8 / 2.0);
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let cfg = TpuConfig::small_test(); // 1 MHz
        assert!((cfg.cycles_to_seconds(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_replica_cost_has_latency_floor() {
        let cfg = TpuConfig::tpu_v2();
        let zero = cfg.cross_replica_cost_s(0);
        assert!(zero >= cfg.link_latency_s);
        let big = cfg.cross_replica_cost_s(70_000_000_000);
        assert!(big > 0.9); // ~1 s of link time
    }

    #[test]
    fn default_is_tpu_v2() {
        assert_eq!(TpuConfig::default(), TpuConfig::tpu_v2());
    }
}
