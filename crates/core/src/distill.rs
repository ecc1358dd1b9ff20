//! Closed-form model distillation (§III-B of the paper).
//!
//! The distilled model is one circular convolution `X ∗ K = Y`
//! (Equation 2). Applying the discrete convolution theorem turns the
//! optimisation of Equation 1 into pure matrix computation:
//!
//! ```text
//! F(X) ◦ F(K) = F(Y)            (Equation 3)
//! K = F⁻¹( F(Y) / F(X) )        (Equation 4)
//! ```
//!
//! Two solve strategies are provided. [`SolveStrategy::Naive`] is the
//! paper's literal formula (with a guard policy for spectral nulls);
//! [`SolveStrategy::Wiener`] is the least-squares/Tikhonov version
//! `F(K) = Σ F(Yᵢ)·conj(F(Xᵢ)) / (Σ|F(Xᵢ)|² + λ)`, which is what the
//! naive formula degenerates to for one pair and `λ → 0`, and which
//! is well-posed for many pairs and noisy spectra. The solve has one
//! body, [`xai_accel::distill`]: [`DistilledModel::fit`] runs it on the
//! host, [`DistilledModel::fit_on`] as the accelerator entry
//! [`Accelerator::interpret`] with no rectangles to score, so the two
//! give the same bits. The `distill` bench (`cargo bench -p xai-bench
//! --bench distill`) times both strategies and the accelerated fit.

pub use xai_accel::SolveStrategy;
use xai_accel::{distill, Accelerator, PreparedKernel};
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result, TensorError};

/// The distilled model: a single convolution kernel in both domains.
///
/// # Examples
///
/// Recover a known kernel from input/output pairs:
///
/// ```
/// use xai_core::{DistilledModel, SolveStrategy};
/// use xai_tensor::{conv::conv2d_circular, Matrix};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let k_true = Matrix::from_fn(4, 4, |r, c| ((r * 3 + c) % 5) as f64 * 0.2)?;
/// // A delta-dominant input has a null-free spectrum, so the
/// // closed-form solve is exact.
/// let mut x = Matrix::from_fn(4, 4, |r, c| ((r + 2 * c) % 7) as f64 * 0.1)?;
/// x[(0, 0)] += 5.0;
/// let y = conv2d_circular(&x, &k_true)?;
/// let model = DistilledModel::fit(&[(x, y)], SolveStrategy::default())?;
/// assert!(model.kernel().max_abs_diff(&k_true)? < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistilledModel {
    kernel: Matrix<f64>,
    /// `F(K)`, prepared once for every contribution score taken with
    /// this model (and its clones, which share it).
    prepared: PreparedKernel,
}

impl DistilledModel {
    /// Fits the distilled kernel from `(X, Y)` pairs on the host.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty pair list,
    /// [`TensorError::ShapeMismatch`] for inconsistent pair shapes,
    /// and division errors per the naive strategy's policy.
    pub fn fit(pairs: &[(Matrix<f64>, Matrix<f64>)], strategy: SolveStrategy) -> Result<Self> {
        let (kernel, prepared) = distill(pairs, strategy)?;
        Ok(Self::new(kernel, prepared))
    }

    /// Fits the distilled kernel on an [`Accelerator`], charging the
    /// platform's simulated time for every transform, product and
    /// division — the operation the paper's Tables I/II race across
    /// CPU/GPU/TPU. The bits are [`DistilledModel::fit`]'s.
    ///
    /// # Errors
    ///
    /// As [`DistilledModel::fit`].
    pub fn fit_on(
        acc: &dyn Accelerator,
        pairs: &[(Matrix<f64>, Matrix<f64>)],
        strategy: SolveStrategy,
    ) -> Result<Self> {
        let fit = acc.interpret(pairs, strategy, &[])?;
        Ok(Self::new(fit.kernel, fit.prepared))
    }

    /// The model of a fitted kernel and its prepared spectrum.
    pub(crate) fn new(kernel: Matrix<f64>, prepared: PreparedKernel) -> Self {
        DistilledModel { kernel, prepared }
    }

    /// The spatial-domain kernel `K`.
    pub fn kernel(&self) -> &Matrix<f64> {
        &self.kernel
    }

    /// The kernel's spectrum `F(K)` (kept so prediction is one
    /// transform instead of two).
    pub fn kernel_spectrum(&self) -> &Matrix<Complex64> {
        self.prepared.spectrum()
    }

    /// The kernel prepared for contribution scores ([`xai_accel::scores`],
    /// [`Accelerator::contribution_scores`]).
    pub(crate) fn prepared(&self) -> &PreparedKernel {
        &self.prepared
    }

    /// Kernel shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.kernel.shape()
    }

    /// Predicts `Y = X ∗ K` via the frequency domain (host path).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x` differs from
    /// the kernel shape.
    pub fn predict(&self, x: &Matrix<f64>) -> Result<Matrix<f64>> {
        if x.shape() != self.shape() {
            return Err(TensorError::ShapeMismatch {
                left: x.shape(),
                right: self.shape(),
                op: "distilled predict input",
            });
        }
        let plan = global_plan_cache().plan_2d(x.rows(), x.cols());
        let fx = plan.forward(&x.to_complex())?;
        let fy = ops::hadamard(&fx, self.kernel_spectrum())?;
        Ok(plan.inverse(&fy)?.to_real())
    }

    /// Mean relative fidelity error of the distilled model over a
    /// pair set: `mean ‖X∗K − Y‖_F / ‖Y‖_F`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn fidelity_error(&self, pairs: &[(Matrix<f64>, Matrix<f64>)]) -> Result<f64> {
        if pairs.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for (x, y) in pairs {
            let pred = self.predict(x)?;
            let diff = ops::sub(&pred, y)?;
            let denom = y.frobenius_norm().max(1e-12);
            total += diff.frobenius_norm() / denom;
        }
        Ok(total / pairs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_tensor::conv::conv2d_circular;
    use xai_tensor::ops::DivPolicy;

    fn kernel_4x4() -> Matrix<f64> {
        Matrix::from_fn(4, 4, |r, c| ((r * 3 + c * 5) % 7) as f64 * 0.25 - 0.5).unwrap()
    }

    fn input(seed: usize) -> Matrix<f64> {
        Matrix::from_fn(4, 4, |r, c| ((r * 5 + c * 3 + seed) % 11) as f64 - 5.0).unwrap()
    }

    #[test]
    fn recovers_exact_kernel_single_pair_naive() {
        let k = kernel_4x4();
        // A dominant delta guarantees a null-free spectrum, so the
        // strict naive division is well-defined.
        let mut x = input(1).map(|v| v * 0.05);
        x[(0, 0)] += 10.0;
        let y = conv2d_circular(&x, &k).unwrap();
        let model = DistilledModel::fit(
            &[(x, y)],
            SolveStrategy::Naive {
                policy: DivPolicy::Strict { tol: 1e-12 },
            },
        )
        .unwrap();
        assert!(model.kernel().max_abs_diff(&k).unwrap() < 1e-9);
    }

    #[test]
    fn recovers_exact_kernel_multi_pair_wiener() {
        let k = kernel_4x4();
        let pairs: Vec<_> = (0..5)
            .map(|s| {
                let x = input(s);
                let y = conv2d_circular(&x, &k).unwrap();
                (x, y)
            })
            .collect();
        let model = DistilledModel::fit(&pairs, SolveStrategy::Wiener { lambda: 1e-12 }).unwrap();
        assert!(model.kernel().max_abs_diff(&k).unwrap() < 1e-8);
    }

    #[test]
    fn wiener_handles_spectral_nulls_where_naive_fails() {
        // A constant input has zero energy in every non-DC bin.
        let x = Matrix::filled(4, 4, 1.0).unwrap();
        let y = Matrix::filled(4, 4, 2.0).unwrap();
        let naive = DistilledModel::fit(
            &[(x.clone(), y.clone())],
            SolveStrategy::Naive {
                policy: DivPolicy::Strict { tol: 1e-9 },
            },
        );
        assert!(naive.is_err(), "strict naive must fail on nulls");
        let wiener =
            DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
        // Prediction must still map x ↦ y.
        let pred = wiener.predict(&x).unwrap();
        assert!(pred.max_abs_diff(&y).unwrap() < 1e-6);
    }

    #[test]
    fn prediction_matches_direct_convolution() {
        let k = kernel_4x4();
        let x = input(3);
        let y = conv2d_circular(&x, &k).unwrap();
        let model = DistilledModel::fit(&[(x.clone(), y)], SolveStrategy::default()).unwrap();
        let x_new = input(9);
        let pred = model.predict(&x_new).unwrap();
        let direct = conv2d_circular(&x_new, model.kernel()).unwrap();
        assert!(pred.max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn fidelity_error_zero_for_exact_fit() {
        let k = kernel_4x4();
        let pairs: Vec<_> = (0..3)
            .map(|s| {
                let x = input(s);
                let y = conv2d_circular(&x, &k).unwrap();
                (x, y)
            })
            .collect();
        let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
        assert!(model.fidelity_error(&pairs).unwrap() < 1e-8);
        assert_eq!(model.fidelity_error(&[]).unwrap(), 0.0);
    }

    #[test]
    fn fidelity_error_nonzero_for_nonlinear_target() {
        // Y = X² is not a convolution; fidelity error must be visible.
        let pairs: Vec<_> = (0..4)
            .map(|s| {
                let x = input(s);
                let y = x.map(|v| v * v * 0.1);
                (x, y)
            })
            .collect();
        let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
        assert!(model.fidelity_error(&pairs).unwrap() > 1e-3);
    }

    #[test]
    fn empty_pairs_rejected() {
        assert!(DistilledModel::fit(&[], SolveStrategy::default()).is_err());
    }

    /// The error names the operand that does not fit the first pair's
    /// shape — `y` when only `y` is off, else `x` — on both entries and
    /// both strategies.
    #[test]
    fn inconsistent_pair_shapes_rejected() {
        use xai_accel::CpuModel;
        let a = (input(0), input(1));
        let b = (
            Matrix::<f64>::zeros(3, 3).unwrap(),
            Matrix::<f64>::zeros(3, 3).unwrap(),
        );
        assert!(DistilledModel::fit(&[a, b], SolveStrategy::default()).is_err());
        let (square, wide) = (input(0), Matrix::<f64>::zeros(4, 6).unwrap());
        let cases = [
            vec![(square.clone(), wide.clone())],
            vec![(square.clone(), square.clone()), (wide, square)],
        ];
        let mismatch = Err(TensorError::ShapeMismatch {
            left: (4, 6),
            right: (4, 4),
            op: "distillation pair shape",
        });
        let naive = SolveStrategy::Naive {
            policy: DivPolicy::Clamp { floor: 1e-12 },
        };
        let cpu = CpuModel::i7_3700();
        for pairs in cases {
            for strategy in [SolveStrategy::default(), naive] {
                assert_eq!(DistilledModel::fit(&pairs, strategy), mismatch);
                assert_eq!(DistilledModel::fit_on(&cpu, &pairs, strategy), mismatch);
            }
        }
    }

    #[test]
    fn predict_shape_mismatch_rejected() {
        let k = kernel_4x4();
        let x = input(0);
        let y = conv2d_circular(&x, &k).unwrap();
        let model = DistilledModel::fit(&[(x, y)], SolveStrategy::default()).unwrap();
        assert!(model.predict(&Matrix::<f64>::zeros(3, 3).unwrap()).is_err());
    }

    /// The kernel's and the spectrum's bits, in that order.
    fn bits(model: &DistilledModel) -> Vec<u64> {
        let spectrum = model.kernel_spectrum().iter().flat_map(|z| [z.re, z.im]);
        model
            .kernel()
            .iter()
            .copied()
            .chain(spectrum)
            .map(f64::to_bits)
            .collect()
    }

    /// `fit_on` is `fit` bit for bit — over seeds, pair counts, both
    /// strategies and every [`DivPolicy`] — and charges the fit.
    #[test]
    fn accelerated_fit_matches_host_fit() {
        use xai_accel::{CpuModel, TpuAccel};
        let naive = |policy| SolveStrategy::Naive { policy };
        let strategies = [
            SolveStrategy::default(),
            SolveStrategy::Wiener { lambda: 0.0 },
            naive(DivPolicy::Strict { tol: 1e-9 }),
            naive(DivPolicy::ZeroFill { tol: 1e-9 }),
            naive(DivPolicy::Clamp { floor: 1e-12 }),
        ];
        let k = kernel_4x4();
        let platforms: [&dyn Accelerator; 2] = [&CpuModel::i7_3700(), &TpuAccel::with_cores(4)];
        for seed in 0..6 {
            let pairs: Vec<_> = (0..=seed % 3)
                .map(|s| {
                    // The delta keeps the spectrum free of nulls, for the
                    // strict division.
                    let mut x = input(seed + 4 * s);
                    x[(0, 0)] += 10.0;
                    let y = conv2d_circular(&x, &k).unwrap();
                    (x, y)
                })
                .collect();
            for strategy in strategies {
                let host = bits(&DistilledModel::fit(&pairs, strategy).unwrap());
                for acc in platforms {
                    let before = acc.elapsed_seconds();
                    let accel = DistilledModel::fit_on(acc, &pairs, strategy).unwrap();
                    assert_eq!(
                        bits(&accel),
                        host,
                        "seed {seed}, {strategy:?}, {}",
                        acc.name()
                    );
                    assert!(acc.elapsed_seconds() > before, "fit must be timed");
                }
            }
        }
    }

    #[test]
    fn accelerated_naive_fit_runs() {
        use xai_accel::CpuModel;
        let k = kernel_4x4();
        let x = input(2);
        let y = conv2d_circular(&x, &k).unwrap();
        let cpu = CpuModel::i7_3700();
        let model = DistilledModel::fit_on(
            &cpu,
            &[(x, y)],
            SolveStrategy::Naive {
                policy: DivPolicy::Clamp { floor: 1e-12 },
            },
        )
        .unwrap();
        assert!(model.kernel().max_abs_diff(&k).unwrap() < 1e-6);
    }

    /// The host prediction is the staged chain's on an accelerator: the
    /// difference `filter_diff_batch` takes from `y` is `y − predict(x)`.
    #[test]
    fn staged_prediction_on_accelerator_matches_host() {
        use xai_accel::TpuAccel;
        let k = kernel_4x4();
        let x = input(4);
        let y = conv2d_circular(&x, &k).unwrap();
        let model =
            DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
        let tpu = TpuAccel::with_cores(4);
        let on_tpu = tpu
            .filter_diff_batch(&[x.to_complex()], model.kernel_spectrum(), &y)
            .unwrap()
            .remove(0);
        let on_host = ops::sub(&y, &model.predict(&x).unwrap()).unwrap();
        assert!(on_tpu.max_abs_diff(&on_host).unwrap() < 1e-9);
    }
}
