//! Shared roofline cost arithmetic for the CPU and GPU models.
//!
//! A kernel of `f` FLOPs touching `b` bytes on a device with
//! *aggregate* sustained arithmetic throughput `F` and memory
//! bandwidth `B` takes `overhead + max(f/F, b/B)` seconds — the
//! classic roofline bound plus a fixed per-kernel launch cost
//! (significant on GPUs, where small kernels are latency-bound).
//!
//! The paper deploys its data decomposition on every platform
//! (§IV-A), so [`RooflineParams::kernel_seconds`] is the decomposed
//! cost: the whole device works on every kernel.

/// Sustained-performance parameters of a host-class device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineParams {
    /// Aggregate sustained arithmetic throughput, FLOP/s (all
    /// threads / SMs together).
    pub flops_per_sec: f64,
    /// Sustained memory bandwidth, bytes/s.
    pub bytes_per_sec: f64,
    /// Fixed cost per kernel launch, seconds.
    pub launch_overhead_s: f64,
}

impl RooflineParams {
    /// Time for one kernel with the paper's data decomposition
    /// applied: the whole device works on it.
    pub(crate) fn kernel_seconds(&self, flops: f64, bytes: f64) -> f64 {
        let compute = flops / self.flops_per_sec;
        let memory = bytes / self.bytes_per_sec;
        self.launch_overhead_s + compute.max(memory)
    }
}

/// FLOP and byte counts of the standard kernels, shared by all models.
pub(crate) mod cost {
    /// Real matmul `m×k · k×n`: 2 FLOPs per MAC.
    pub(crate) fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
        2.0 * m as f64 * k as f64 * n as f64
    }

    /// Real matmul traffic in bytes (f64 operands + result).
    pub(crate) fn matmul_bytes(m: usize, k: usize, n: usize) -> f64 {
        8.0 * (m * k + k * n + m * n) as f64
    }

    /// Complex 2-D FFT of an `m×n` matrix via row–column
    /// decomposition with per-axis FFT op counts `row_ops`/`col_ops`
    /// (complex MACs per single 1-D transform). One complex MAC is
    /// 6 real FLOPs.
    pub(crate) fn fft2d_flops(m: usize, n: usize, row_ops: u64, col_ops: u64) -> f64 {
        6.0 * (m as f64 * row_ops as f64 + n as f64 * col_ops as f64)
    }

    /// Complex 2-D FFT traffic: the matrix is read and written in each
    /// of the two stages, 16 bytes per complex element.
    pub(crate) fn fft2d_bytes(m: usize, n: usize) -> f64 {
        2.0 * 2.0 * 16.0 * (m * n) as f64
    }

    /// Elementwise complex op over `n` elements with `flops_per_elem`.
    pub(crate) fn elementwise_flops(n: usize, flops_per_elem: f64) -> f64 {
        n as f64 * flops_per_elem
    }

    /// Elementwise complex traffic: two reads + one write of 16 B.
    pub(crate) fn elementwise_bytes(n: usize) -> f64 {
        48.0 * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RooflineParams {
        RooflineParams {
            flops_per_sec: 1e9,
            bytes_per_sec: 1e8,
            launch_overhead_s: 1e-6,
        }
    }

    #[test]
    fn compute_bound_kernel() {
        let p = params();
        // 1e9 FLOPs, tiny bytes → 1 s compute-bound at aggregate F
        let t = p.kernel_seconds(1e9, 1.0);
        assert!((t - 1.0 - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernel() {
        let p = params();
        // 1 FLOP, 1e8 bytes → 1 s memory-bound
        let t = p.kernel_seconds(1.0, 1e8);
        assert!((t - 1.0 - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn cost_formulas_are_positive_and_scale() {
        assert_eq!(cost::matmul_flops(2, 3, 4), 48.0);
        assert!(cost::matmul_bytes(8, 8, 8) > 0.0);
        assert!(cost::fft2d_flops(64, 64, 192, 192) > cost::fft2d_flops(8, 8, 12, 12));
        assert_eq!(cost::elementwise_bytes(10), 480.0);
        assert_eq!(cost::elementwise_flops(10, 6.0), 60.0);
        assert_eq!(cost::fft2d_bytes(4, 4), 1024.0);
    }
}
