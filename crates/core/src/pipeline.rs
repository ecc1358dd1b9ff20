//! End-to-end interpretation pipeline with per-platform timing —
//! the machinery behind the paper's Table II ("average time for
//! performing outcome interpretation for every 10 input-output
//! pairs") and Figure 4 (scalability versus matrix size).
//!
//! [`interpret_on`] is one [`Accelerator::interpret`]: the fit (Eq. 4)
//! and every pair's block scores (Eq. 5) from one set of half spectra
//! per pair, with the simulated clock read where the fit's charges end.
//! Its report, its model and its charges are those of
//! [`DistilledModel::fit_on`] followed by one [`contributions_batch_on`]
//! per pair, bit for bit; only the host work is shared.
//!
//! [`contributions_batch_on`]: crate::contributions_batch_on

use crate::contribution::block_rects;
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
    let rects = match pairs.first().map(|(x, _)| block_rects(x.shape(), grid)) {
        Some(Err(error)) => {
            // The model is fitted, and charged, before the grid is read.
            DistilledModel::fit_on(acc, pairs, strategy)?;
            return Err(error);
        }
        rects => rects.transpose()?.unwrap_or_default(),
    };
    // All regions of one sample run as one §III-D parallel batch.
    let fit = acc.interpret(pairs, strategy, &rects)?;
    let t2 = acc.elapsed_seconds();
    Ok((
        DistilledModel::new(fit.kernel, fit.prepared),
        InterpretationReport {
            distill_s: fit.fitted_at - t0,
            contribution_s: t2 - fit.fitted_at,
            samples: pairs.len(),
            regions_per_sample: rects.len(),
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
    }

    /// A grid that does not divide the input is refused after the model
    /// is fitted: the charges are `fit_on`'s alone.
    #[test]
    fn grid_must_divide_the_input_like_the_block_maps() {
        for grid in [0, 3] {
            let (cpu, fitted) = (CpuModel::i7_3700(), CpuModel::i7_3700());
            let err = interpret_on(&cpu, &pairs(2, 8), grid, SolveStrategy::default()).unwrap_err();
            let expected = xai_tensor::TensorError::ShapeMismatch {
                left: (8, 8),
                right: (grid, grid),
                op: "block grid must divide input",
            };
            assert_eq!(err, expected, "grid {grid}");
            DistilledModel::fit_on(&fitted, &pairs(2, 8), SolveStrategy::default()).unwrap();
            let ledger = |acc: &CpuModel| (acc.elapsed_seconds().to_bits(), acc.stats());
            assert_eq!(ledger(&cpu), ledger(&fitted), "grid {grid}");
        }
    }

    /// `interpret_on` is `fit_on` then one `contributions_batch_on` per
    /// pair: the model's bits, the report's and the platform's clock and
    /// ledger, on the CPU, the GPU, a direct and a queued TPU, for a
    /// block-local grid, a full-size one and an odd row count.
    #[test]
    fn interpretation_is_the_fit_then_each_pairs_batch() {
        use crate::contribution::{block_regions, contributions_batch_on};
        use std::time::Duration;
        let platforms: [fn() -> Box<dyn Accelerator>; 4] = [
            || Box::new(CpuModel::i7_3700()),
            || Box::new(GpuModel::gtx1080()),
            || Box::new(TpuAccel::with_cores(4)),
            || Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        ];
        let odd: Vec<_> = pairs(2, 8)
            .into_iter()
            .map(|(x, y)| {
                (
                    x.submatrix(0, 0, 7, 8).unwrap(),
                    y.submatrix(0, 0, 7, 8).unwrap(),
                )
            })
            .collect();
        for (ps, grid) in [(pairs(3, 16), 4), (pairs(2, 8), 2), (odd, 1)] {
            for platform in platforms {
                let (acc, composed) = (platform(), platform());
                let strategy = SolveStrategy::default();
                let (model, report) = interpret_on(acc.as_ref(), &ps, grid, strategy).unwrap();
                let t0 = composed.elapsed_seconds();
                let fitted = DistilledModel::fit_on(composed.as_ref(), &ps, strategy).unwrap();
                let t1 = composed.elapsed_seconds();
                for (x, y) in &ps {
                    let regions = block_regions(x.shape(), grid).unwrap();
                    contributions_batch_on(composed.as_ref(), &fitted, x, y, &regions).unwrap();
                }
                let t2 = composed.elapsed_seconds();
                let case = format!("{:?} grid {grid}, {}", ps[0].0.shape(), acc.name());
                assert_eq!(model, fitted, "{case}");
                let bits =
                    |r: &InterpretationReport| (r.distill_s.to_bits(), r.contribution_s.to_bits());
                let want = InterpretationReport {
                    distill_s: t1 - t0,
                    contribution_s: t2 - t1,
                    samples: ps.len(),
                    regions_per_sample: grid * grid,
                };
                assert_eq!((bits(&report), report), (bits(&want), want), "{case}");
                let ledger = |a: &dyn Accelerator| (a.elapsed_seconds().to_bits(), a.stats());
                assert_eq!(ledger(acc.as_ref()), ledger(composed.as_ref()), "{case}");
            }
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
