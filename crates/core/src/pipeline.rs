//! End-to-end interpretation pipeline with per-platform timing —
//! the machinery behind the paper's Table II ("average time for
//! performing outcome interpretation for every 10 input-output
//! pairs") and Figure 4 (scalability versus matrix size).

use crate::contribution::{block_regions, contributions_batch_on};
use crate::distill::{DistilledModel, SolveStrategy};
use xai_accel::Accelerator;
use xai_tensor::{Matrix, Result};

/// Timing breakdown of one interpretation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpretationReport {
    /// Simulated seconds spent fitting the distilled model.
    pub distill_s: f64,
    /// Simulated seconds spent computing all contribution factors.
    pub contribution_s: f64,
    /// Number of input-output pairs interpreted.
    pub samples: usize,
    /// Number of contribution regions evaluated per sample.
    pub regions_per_sample: usize,
}

impl InterpretationReport {
    /// Total simulated interpretation time.
    pub fn total_s(&self) -> f64 {
        self.distill_s + self.contribution_s
    }

    /// Time per interpreted sample.
    pub fn per_sample_s(&self) -> f64 {
        self.total_s() / self.samples.max(1) as f64
    }
}

/// Runs the complete outcome-interpretation procedure of the paper on
/// one hardware platform: fit the distilled model over the pairs,
/// then compute a `grid × grid` block contribution map for every
/// pair. Returns the model and the timing report.
///
/// # Errors
///
/// Propagates distillation and shape errors, and returns
/// [`xai_tensor::TensorError::ShapeMismatch`] when `grid` is zero or
/// does not divide both input dimensions.
///
/// # Examples
///
/// ```
/// use xai_core::{interpret_on, SolveStrategy};
/// use xai_accel::CpuModel;
/// use xai_tensor::{conv::conv2d_circular, Matrix};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let k = Matrix::from_fn(8, 8, |r, c| ((r + c) % 3) as f64 * 0.3)?;
/// let pairs: Vec<_> = (0..4)
///     .map(|s| {
///         let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c + s) % 7) as f64).unwrap();
///         let y = conv2d_circular(&x, &k).unwrap();
///         (x, y)
///     })
///     .collect();
/// let cpu = CpuModel::i7_3700();
/// let (model, report) = interpret_on(&cpu, &pairs, 4, SolveStrategy::default())?;
/// assert!(report.total_s() > 0.0);
/// assert!(model.fidelity_error(&pairs)? < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn interpret_on(
    acc: &dyn Accelerator,
    pairs: &[(Matrix<f64>, Matrix<f64>)],
    grid: usize,
    strategy: SolveStrategy,
) -> Result<(DistilledModel, InterpretationReport)> {
    let t0 = acc.elapsed_seconds();
    let model = DistilledModel::fit_on(acc, pairs, strategy)?;
    let t1 = acc.elapsed_seconds();

    let mut regions_per_sample = 0;
    for (x, y) in pairs {
        let regions = block_regions(x.shape(), grid)?;
        regions_per_sample = regions.len();
        // All regions of one sample run as one §III-D parallel batch.
        contributions_batch_on(acc, &model, x, y, &regions)?;
    }
    let t2 = acc.elapsed_seconds();

    Ok((
        model,
        InterpretationReport {
            distill_s: t1 - t0,
            contribution_s: t2 - t1,
            samples: pairs.len(),
            regions_per_sample,
        },
    ))
}

/// Times one 2-D transform-and-solve round trip of an `n × n` matrix
/// on a platform — the unit operation swept in Figure 4.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn transform_roundtrip_seconds(acc: &dyn Accelerator, n: usize) -> Result<f64> {
    let x = Matrix::from_fn(n, n, |r, c| (((r * 31 + c * 17) % 97) as f64) / 97.0 - 0.5)?;
    let t0 = acc.elapsed_seconds();
    let spec = acc.fft2d(&x.to_complex())?;
    let spec2 = acc.hadamard(&spec, &spec)?;
    acc.ifft2d(&spec2)?;
    Ok(acc.elapsed_seconds() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_accel::{CpuModel, GpuModel, TpuAccel};
    use xai_tensor::conv::conv2d_circular;

    fn pairs(n: usize, size: usize) -> Vec<(Matrix<f64>, Matrix<f64>)> {
        let k = Matrix::from_fn(size, size, |r, c| ((r * 2 + c) % 5) as f64 * 0.2).unwrap();
        (0..n)
            .map(|s| {
                let x = Matrix::from_fn(size, size, |r, c| ((r * 7 + c * 3 + s) % 11) as f64 - 5.0)
                    .unwrap();
                let y = conv2d_circular(&x, &k).unwrap();
                (x, y)
            })
            .collect()
    }

    #[test]
    fn report_accumulates_both_phases() {
        let cpu = CpuModel::i7_3700();
        let (_, report) = interpret_on(&cpu, &pairs(4, 8), 4, SolveStrategy::default()).unwrap();
        assert!(report.distill_s > 0.0);
        assert!(report.contribution_s > 0.0);
        assert_eq!(report.samples, 4);
        assert_eq!(report.regions_per_sample, 16);
        assert!((report.total_s() - report.distill_s - report.contribution_s).abs() < 1e-15);
        assert!(report.per_sample_s() < report.total_s());
    }

    #[test]
    fn grid_must_divide_the_input_like_the_block_maps() {
        let cpu = CpuModel::i7_3700();
        for grid in [0, 3] {
            let err = interpret_on(&cpu, &pairs(2, 8), grid, SolveStrategy::default()).unwrap_err();
            let expected = xai_tensor::TensorError::ShapeMismatch {
                left: (8, 8),
                right: (grid, grid),
                op: "block grid must divide input",
            };
            assert_eq!(err, expected, "grid {grid}");
        }
    }

    #[test]
    fn tpu_interpretation_is_fastest() {
        let ps = pairs(4, 64);
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let tpu = TpuAccel::tpu_v2();
        let (_, rc) = interpret_on(&cpu, &ps, 4, SolveStrategy::default()).unwrap();
        let (_, rg) = interpret_on(&gpu, &ps, 4, SolveStrategy::default()).unwrap();
        let (_, rt) = interpret_on(&tpu, &ps, 4, SolveStrategy::default()).unwrap();
        assert!(
            rt.total_s() < rg.total_s(),
            "tpu {} gpu {}",
            rt.total_s(),
            rg.total_s()
        );
        assert!(
            rg.total_s() < rc.total_s(),
            "gpu {} cpu {}",
            rg.total_s(),
            rc.total_s()
        );
    }

    #[test]
    fn results_identical_across_platforms() {
        let ps = pairs(3, 8);
        let cpu = CpuModel::i7_3700();
        let tpu = TpuAccel::tpu_v2();
        let (mc, _) = interpret_on(&cpu, &ps, 2, SolveStrategy::default()).unwrap();
        let (mt, _) = interpret_on(&tpu, &ps, 2, SolveStrategy::default()).unwrap();
        assert!(mc.kernel().max_abs_diff(mt.kernel()).unwrap() < 1e-9);
    }

    #[test]
    fn transform_roundtrip_scales_with_size() {
        let cpu = CpuModel::i7_3700();
        let small = transform_roundtrip_seconds(&cpu, 16).unwrap();
        let large = transform_roundtrip_seconds(&cpu, 64).unwrap();
        assert!(large > small);
    }
}
