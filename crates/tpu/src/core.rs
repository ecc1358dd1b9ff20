//! A single simulated TPU core: systolic MXU + vector unit.
//!
//! Every operation *computes its real numeric result on the host*
//! (through the configured precision's quantisation, so int8 error is
//! real and measurable) and simultaneously charges the core — "timing
//! is simulated, compute is real", the first invariant of
//! ARCHITECTURE.md. A charge moves exactly two counters, cycles and
//! energy; the bytes an op moves are a term of both, not a ledger.

use crate::config::{Precision, TpuConfig};
use crate::systolic::SystolicArray;
use xai_tensor::ops;
use xai_tensor::quant::QuantizedMatrix;
use xai_tensor::{Complex64, Matrix, Result};

/// Truncates an `f64` to bfloat16 precision (8-bit exponent, 7-bit
/// mantissa) and back — the numeric behaviour of a bf16 MXU datapath.
pub fn bf16_round(x: f64) -> f64 {
    let bits = (x as f32).to_bits();
    // Round-to-nearest-even on the dropped 16 bits.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    f32::from_bits(rounded & 0xFFFF_0000) as f64
}

/// One simulated TPU core.
///
/// # Examples
///
/// ```
/// use xai_tpu::{TpuConfig, TpuCore};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let mut core = TpuCore::new(TpuConfig::small_test());
/// let a = Matrix::from_fn(4, 4, |r, c| (r + c) as f64 / 8.0)?;
/// let b = Matrix::identity(4)?;
/// let c = core.matmul(&a, &b)?;
/// assert!(a.max_abs_diff(&c)? < 0.01); // int8 round-trip error only
/// assert!(core.elapsed_cycles() > 0);
/// # Ok(())
/// # }
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

    /// Real matrix product through the MXU datapath.
    ///
    /// Under [`Precision::Int8`] both operands round-trip through
    /// symmetric int8 quantisation (real quantisation error); under
    /// [`Precision::Bf16`] they are truncated to bfloat16.
    ///
    /// # Errors
    ///
    /// Returns a shape error when inner dimensions disagree.
    pub fn matmul(&mut self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        let (m, k) = a.shape();
        let n = b.cols();
        let result = match self.cfg.precision {
            Precision::Int8 => {
                let qa = QuantizedMatrix::quantize_symmetric(a)?;
                let qb = QuantizedMatrix::quantize_symmetric(b)?;
                qa.matmul_dequant(&qb)?
            }
            Precision::Bf16 => {
                let ta = a.map(bf16_round);
                let tb = b.map(bf16_round);
                ops::matmul(&ta, &tb)?
            }
        };
        self.charge_matmul_work(m, k, n, 1);
        Ok(result)
    }

    /// Complex matrix product, evaluated as three real products
    /// (Karatsuba decomposition) on the MXU.
    ///
    /// Spectra are kept at full precision numerically (the DFT-matrix
    /// path is bf16-class work on real TPUs — see Lu et al.,
    /// "Large-scale discrete Fourier transform on TPUs", the paper's
    /// reference \[3\]); the *cost* is charged at the configured
    /// precision.
    ///
    /// # Errors
    ///
    /// Returns a shape error when inner dimensions disagree.
    pub fn matmul_complex(
        &mut self,
        a: &Matrix<Complex64>,
        b: &Matrix<Complex64>,
    ) -> Result<Matrix<Complex64>> {
        let (m, k) = a.shape();
        let n = b.cols();
        let result = ops::matmul(a, b)?;
        // Karatsuba: 3 real m×k·k×n products instead of 4.
        self.charge_matmul_work(m, k, n, 3);
        Ok(result)
    }

    /// Charges the cycle and energy cost of an `m×k·k×n` MXU
    /// matmul (`passes` repetitions) without computing it — used by
    /// schedulers that compute results on a fast host path while
    /// simulating device timing ("timing is simulated, compute is
    /// real"; the *result* comes from elsewhere).
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
    /// elements (six flops each, a complex multiply) without computing
    /// it.
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

    fn unit_matrix(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0 - 0.5).unwrap()
    }

    #[test]
    fn bf16_round_behaviour() {
        // bf16 has ~3 significant decimal digits.
        assert_eq!(bf16_round(1.0), 1.0);
        assert_eq!(bf16_round(0.0), 0.0);
        let x = 1.2345678;
        let r = bf16_round(x);
        assert!((r - x).abs() < 0.01);
        assert!(r != x); // precision actually dropped
    }

    #[test]
    fn matmul_int8_result_is_close_and_charged() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        let a = unit_matrix(6);
        let b = unit_matrix(6);
        let exact = ops::matmul(&a, &b).unwrap();
        let got = core.matmul(&a, &b).unwrap();
        assert!(exact.max_abs_diff(&got).unwrap() < 0.05);
        assert!(core.elapsed_cycles() > 0);
        assert!(core.energy_pj() > 0.0);
    }

    #[test]
    fn matmul_bf16_is_more_accurate_than_int8() {
        let a = unit_matrix(8);
        let b = unit_matrix(8);
        let exact = ops::matmul(&a, &b).unwrap();

        let mut int8_core = TpuCore::new(TpuConfig::small_test());
        let e_int8 = exact
            .max_abs_diff(&int8_core.matmul(&a, &b).unwrap())
            .unwrap();

        let mut cfg = TpuConfig::small_test();
        cfg.precision = Precision::Bf16;
        let mut bf16_core = TpuCore::new(cfg);
        let e_bf16 = exact
            .max_abs_diff(&bf16_core.matmul(&a, &b).unwrap())
            .unwrap();

        assert!(e_bf16 < e_int8, "bf16 {e_bf16} should beat int8 {e_int8}");
    }

    #[test]
    fn complex_matmul_is_exact_and_charges_three_passes() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        let a = Matrix::from_fn(4, 4, |r, c| Complex64::new(r as f64, c as f64)).unwrap();
        let id = Matrix::<Complex64>::identity(4).unwrap();
        let before = core.elapsed_cycles();
        let out = core.matmul_complex(&a, &id).unwrap();
        assert!(out.max_abs_diff(&a).unwrap() < 1e-12);
        let complex_cost = core.elapsed_cycles() - before;

        let mut real_core = TpuCore::new(TpuConfig::small_test());
        let ra = unit_matrix(4);
        real_core.matmul(&ra, &ra).unwrap();
        let real_cost = real_core.elapsed_cycles();
        assert!(complex_cost >= 3 * real_cost.min(complex_cost / 3));
        assert!(complex_cost > real_cost);
    }

    #[test]
    fn reset_clears_everything() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        let a = unit_matrix(4);
        core.matmul(&a, &a).unwrap();
        assert!(core.elapsed_cycles() > 0);
        core.reset();
        assert_eq!(core.elapsed_cycles(), 0);
        assert_eq!(core.energy_pj(), 0.0);
    }

    #[test]
    fn bigger_matmul_costs_more() {
        let mut core = TpuCore::new(TpuConfig::small_test());
        core.matmul(&unit_matrix(4), &unit_matrix(4)).unwrap();
        let small = core.elapsed_cycles();
        core.reset();
        core.matmul(&unit_matrix(16), &unit_matrix(16)).unwrap();
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
