//! Equation 4 of the paper (§III-B) as one kernel: the closed-form
//! distillation solve, from `(X, Y)` pairs to the kernel `K` — and,
//! from the same transforms, the contribution scores of Equation 5.
//!
//! The distilled model is one circular convolution `X ∗ K = Y`
//! (Equation 2); the convolution theorem turns it into `F(X) ◦ F(K) =
//! F(Y)` (Equation 3), solved in the spectrum (Equation 4). Two
//! strategies: [`SolveStrategy::Naive`], the paper's per-pair division,
//! and [`SolveStrategy::Wiener`], its least-squares form over all pairs.
//!
//! The solve has one body, `fit`: the host fit ([`distill`]) is that
//! function, and every platform's
//! [`Accelerator::interpret`](crate::Accelerator::interpret) runs it
//! once and then charges the staged kernels it stands for
//! ([`staged_jobs`]) and the kernel's inverse transform, in their order.
//! The staged body itself, the complex reference those charges name, is
//! test code; the fit is held to it by a stated bound (below).
//!
//! `x` and `y` are real, so their spectra are Hermitian and the
//! `m × (n/2 + 1)` half a real-input transform keeps carries all of
//! them. With an even row count the fit runs there: per pair two
//! [`Fft2d::forward_real`](xai_fourier::Fft2d::forward_real), the sums
//! and the division on the half, then the kernel from one
//! [`Fft2d::inverse_real`](xai_fourier::Fft2d::inverse_real) and the
//! spectrum mirrored to full size for [`PreparedKernel::new`]. Those
//! half spectra `(X̂, Ŷ)` are what a spectral contribution score reads
//! of the request (`filter_diff::Spectra`), so when asked for scores the
//! fit keeps every pair's and the scores never transform `x` or `y`
//! again. An odd row count keeps the complex solve — the full widened
//! transforms and one complex inverse — as an odd-row score request
//! keeps the occluded kind.
//!
//! Every buffer is allocated on the calling thread. One pair at a time,
//! its `x` and `y` are transformed as two host-pool tasks into buffers
//! made here, then folded into the sums in one pass. The sums are
//! seeded from the first pair's terms rather than from zeros (which
//! keeps the signs of exact zeros). A fit without scores keeps only one
//! pair's spectra besides the sums.
//!
//! # Numerics contract
//!
//! The fit is a pure function of `(pairs, strategy)`: the same bits on
//! the host and on every placement, for any `XAI_THREADS` (each
//! transform is the serial plan's). Against the staged complex body on
//! the same pairs, per bin `b` of the full spectrum,
//! `|K[b] − K_ref[b]| ≤ C · ε · log₂(2mn) · √(mn) · B[b]`, with `C = 2`,
//! `ε = f64::EPSILON` and `B` the first-order sensitivity of the solve to
//! a perturbation of each transform within its own error bound
//! (`ε · log₂ n · ‖x‖₂`, orthonormal, for each of `x` and `y`):
//!
//! - naive: `B = (1/P) Σᵢ (‖yᵢ‖_F + |Qᵢ| ‖xᵢ‖_F) / |Xᵢ|`, `Qᵢ = Yᵢ / Xᵢ`;
//! - Wiener: `B = Σᵢ (‖yᵢ‖_F |Xᵢ| + ‖xᵢ‖_F |Yᵢ| + 2 |K| ‖xᵢ‖_F |Xᵢ|) / D`,
//!   `D = Σᵢ |Xᵢ|² + λ`;
//!
//! and the kernel is within `C · ε · log₂(2mn) · (‖B‖_F + ‖k_ref‖_F)` of
//! the staged body's in the Frobenius norm (Parseval on the spectrum's
//! budget, plus the inverse's own error). Observed on every strategy
//! and division policy at 8², 6 × 10 and 128²: ≤ 0.025 of the
//! spectrum's budget and ≤ 0.008 of the kernel's
//! (`tests::the_fit_is_within_its_bound_of_the_staged_body`).
//! A bin where a guarded division's threshold falls between the two
//! routes' denominators is outside the first-order regime, and a strict
//! null is reported at the first bin of the full spectrum that mirrors
//! one, the index the staged body would report.

use crate::filter_diff::{HalfSpectra, PreparedKernel};
use xai_fourier::global_plan_cache;
use xai_tensor::ops::{self, DivPolicy};
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::KernelJob;

/// How to invert the spectral system `F(X) ◦ F(K) = F(Y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveStrategy {
    /// Equation 4 verbatim: per-pair division `F(Y)/F(X)` (averaged
    /// over pairs), guarded by a [`DivPolicy`].
    Naive {
        /// Division policy for (near-)zero spectral bins.
        policy: DivPolicy,
    },
    /// Regularised least squares over all pairs:
    /// `F(K) = Σᵢ F(Yᵢ)·conj(F(Xᵢ)) / (Σᵢ |F(Xᵢ)|² + λ)`.
    Wiener {
        /// Tikhonov damping `λ ≥ 0`.
        lambda: f64,
    },
}

impl Default for SolveStrategy {
    fn default() -> Self {
        SolveStrategy::Wiener { lambda: 1e-6 }
    }
}

/// What [`Accelerator::interpret`](crate::Accelerator::interpret)
/// returns: the fitted model and, per pair, the scores of the
/// rectangles it was asked for.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// The distilled kernel `K` (Equation 4).
    pub kernel: Matrix<f64>,
    /// `F(K)`, prepared for contribution scores.
    pub prepared: PreparedKernel,
    /// Per pair, in pair order, one score per rectangle, in rectangle
    /// order (Equation 5); every list is empty without rectangles.
    pub scores: Vec<Vec<f64>>,
    /// The platform's clock once the fit is charged and before any
    /// score is: where a caller splits the fit's simulated time from the
    /// scores'.
    pub fitted_at: f64,
}

/// Matrices with fewer elements transform on the calling thread: a pool
/// fork-join costs more than a second transform of that size (on two
/// cores, 4 pairs at 8² took ≈ 5 µs serial against ≈ 40 µs pooled, and
/// the pool first won at 64²).
const POOLED_MIN_ELEMS: usize = 64 * 64;

/// The Wiener solve's division guard.
const WIENER_DIV: DivPolicy = DivPolicy::Clamp {
    floor: f64::MIN_POSITIVE,
};

type Pair = (Matrix<f64>, Matrix<f64>);

/// The error for a pair with an operand not of `shape`, `x` before `y`
/// (the error's `left`), if it has one.
fn mismatch((x, y): &Pair, shape: (usize, usize)) -> Option<TensorError> {
    let left = [x.shape(), y.shape()].into_iter().find(|&s| s != shape)?;
    Some(TensorError::ShapeMismatch {
        left,
        right: shape,
        op: "distillation pair shape",
    })
}

/// The kernel `K` and its prepared spectrum that `strategy` solves from
/// `pairs`: the host fit, the numerics of every
/// [`Accelerator::interpret`](crate::Accelerator::interpret) and so of
/// every accelerated fit, bit for bit.
///
/// # Errors
///
/// [`TensorError::EmptyDimension`] for no pairs,
/// [`TensorError::ShapeMismatch`] for a pair not of the first `x`'s
/// shape, and [`TensorError::DivisionByZero`] for a null under a naive
/// [`DivPolicy::Strict`]: whichever the staged body meets first, pair by
/// pair.
pub fn distill(pairs: &[Pair], strategy: SolveStrategy) -> Result<(Matrix<f64>, PreparedKernel)> {
    let fit = fit(pairs, strategy, false)?;
    Ok((fit.kernel, fit.prepared))
}

/// A fitted kernel and, when asked for, every pair's half spectra.
pub(crate) struct Fit {
    pub(crate) kernel: Matrix<f64>,
    pub(crate) prepared: PreparedKernel,
    /// Per pair `(X̂, Ŷ)`; empty unless kept and the row count is even.
    pub(crate) spectra: Vec<HalfSpectra>,
}

/// [`distill`], keeping each pair's half spectra when `keep` is set.
pub(crate) fn fit(pairs: &[Pair], strategy: SolveStrategy, keep: bool) -> Result<Fit> {
    let shape = pairs.first().ok_or(TensorError::EmptyDimension)?.0.shape();
    let bad = pairs
        .iter()
        .enumerate()
        .find_map(|(i, pair)| Some((i, mismatch(pair, shape)?)));
    let Some((i, error)) = bad else {
        return solve(pairs, strategy, keep);
    };
    // The staged body solves the pairs before a misshapen one first,
    // so a strict null among them is the error it meets.
    if i > 0 {
        solve(&pairs[..i], strategy, false)?;
    }
    Err(error)
}

/// One pair's transforms, `(F(X), F(Y))`.
type Transforms = (Matrix<Complex64>, Matrix<Complex64>);

/// [`fit`] on well-formed pairs: in the half spectrum for an even row
/// count, else in the full one.
fn solve(pairs: &[Pair], strategy: SolveStrategy, keep: bool) -> Result<Fit> {
    let (m, n) = pairs[0].0.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    if !m.is_multiple_of(2) {
        let forward = |mut z: Matrix<Complex64>| plan.forward_in_place(&mut z).map(|()| z);
        let spectra = transforms(pairs, Matrix::to_complex, forward);
        let spectrum = fold(spectra, strategy, ops::pointwise_div, drop)?;
        let kernel = plan.inverse(&spectrum)?.to_real();
        return Ok(Fit {
            kernel,
            prepared: PreparedKernel::new(spectrum),
            spectra: Vec::new(),
        });
    }
    let h = plan.half_cols();
    let buffers = |a| {
        let half = Matrix::zeros(m, h).expect("a non-empty half spectrum");
        (a, half, vec![Complex64::ZERO; n])
    };
    let forward = |(a, mut half, mut scratch): (&Matrix<f64>, Matrix<Complex64>, Vec<_>)| {
        plan.forward_real(a.as_slice(), half.as_mut_slice(), &mut scratch);
        Ok(half)
    };
    let mut kept = Vec::new();
    let keep_pair = |pair| {
        if keep {
            kept.push(pair);
        }
    };
    let divide = |a: &_, b: &_, policy| div_half(a, b, n, policy);
    let mut half = fold(
        transforms(pairs, buffers, forward),
        strategy,
        divide,
        keep_pair,
    )?;
    // The full spectrum from the half: bin `(u, v)` right of the kept
    // columns is the conjugate of its mirror `((m − u) % m, n − v)`.
    let spectrum = Matrix::from_fn(m, n, |u, v| {
        if v < h {
            half[(u, v)]
        } else {
            half[((m - u) % m, n - v)].conj()
        }
    })?;
    let mut kernel = Matrix::zeros(m, n)?;
    let scratch = &mut vec![Complex64::ZERO; n];
    plan.inverse_real(half.as_mut_slice(), kernel.as_mut_slice(), scratch);
    // Consumed by the inverse: freed before the kernel is prepared.
    drop(half);
    Ok(Fit {
        kernel,
        prepared: PreparedKernel::new(spectrum),
        spectra: kept,
    })
}

/// Each pair's two transforms, `x`'s first, as two host-pool tasks (on
/// the calling thread below [`POOLED_MIN_ELEMS`]): `buffers` makes a
/// task's operand and output on the calling thread, so that no pool
/// worker's malloc arena keeps a spectrum, and `forward` transforms it.
fn transforms<'a, T: Send>(
    pairs: &'a [Pair],
    buffers: impl Fn(&'a Matrix<f64>) -> T + 'a,
    forward: impl Fn(T) -> Result<Matrix<Complex64>> + Sync + 'a,
) -> impl Iterator<Item = Result<Transforms>> + 'a {
    pairs.iter().map(move |(x, y)| {
        let jobs = vec![buffers(x), buffers(y)];
        let mut spectra = if x.len() < POOLED_MIN_ELEMS {
            jobs.into_iter().map(&forward).collect()
        } else {
            ops::par_map(jobs, &forward)
        }
        .into_iter();
        Ok((spectra.next().expect("x")?, spectra.next().expect("y")?))
    })
}

/// The solve over the pairs' spectra, pair by pair, handing each pair's
/// to `keep` once folded in: the mean of `divide(F(Y), F(X))` (naive),
/// or `Σ F(Y)·conj F(X)` over `Σ |F(X)|² + λ` (Wiener), the sums seeded
/// from the first pair's terms.
fn fold(
    mut spectra: impl Iterator<Item = Result<Transforms>>,
    strategy: SolveStrategy,
    divide: impl Fn(&Matrix<Complex64>, &Matrix<Complex64>, DivPolicy) -> Result<Matrix<Complex64>>,
    mut keep: impl FnMut(Transforms),
) -> Result<Matrix<Complex64>> {
    match strategy {
        SolveStrategy::Naive { policy } => {
            let (mut sum, mut pairs) = (None::<Matrix<Complex64>>, 0);
            for pair in spectra {
                let (fx, fy) = pair?;
                let q = divide(&fy, &fx, policy)?;
                keep((fx, fy));
                pairs += 1;
                sum = Some(match sum {
                    None => q,
                    Some(mut s) => {
                        for (s, q) in s.as_mut_slice().iter_mut().zip(q.as_slice()) {
                            *s += *q;
                        }
                        s
                    }
                });
            }
            let mut sum = sum.expect("non-empty pairs");
            let scale = 1.0 / pairs as f64;
            for s in sum.as_mut_slice() {
                *s = s.scale(scale);
            }
            Ok(sum)
        }
        SolveStrategy::Wiener { lambda } => {
            let (fx, fy) = spectra.next().expect("non-empty pairs")?;
            let mut num = fy.zip_with(&fx, |fy, fx| fy * fx.conj())?;
            let mut den = fx.map(|fx| fx * fx.conj());
            keep((fx, fy));
            for pair in spectra {
                let (fx, fy) = pair?;
                let sums = den.as_mut_slice().iter_mut().zip(num.as_mut_slice());
                for ((d, n), (&fx, &fy)) in sums.zip(fx.iter().zip(fy.iter())) {
                    *n += fy * fx.conj();
                    *d += fx * fx.conj();
                }
                keep((fx, fy));
            }
            for d in den.as_mut_slice() {
                *d += Complex64::from_real(lambda);
            }
            divide(&num, &den, WIENER_DIV)
        }
    }
}

/// `num ⊘ den` on two `m × (n/2 + 1)` half spectra of an `m × n` image,
/// under `policy`. A strict null is reported at the first bin of the
/// full spectrum whose kept mirror is null: the bin the complex solve
/// meets first.
fn div_half(
    num: &Matrix<Complex64>,
    den: &Matrix<Complex64>,
    n: usize,
    policy: DivPolicy,
) -> Result<Matrix<Complex64>> {
    match (ops::pointwise_div(num, den, policy), policy) {
        (Err(TensorError::DivisionByZero { .. }), DivPolicy::Strict { tol }) => {
            let (m, h) = den.shape();
            let null = |i: &usize| {
                let (u, v) = (i / n, i % n);
                let kept = if v < h { (u, v) } else { ((m - u) % m, n - v) };
                den[kept].abs() <= tol
            };
            let index = (0..m * n).find(null).expect("a strict null has a bin");
            Err(TensorError::DivisionByZero { index })
        }
        (quotient, _) => quotient,
    }
}

/// The kernels the staged body launches on `n` pairs of
/// `rows × cols`, in order: per pair two transforms, then a division
/// (naive) or two Hadamard products (Wiener); then the Wiener division.
pub(crate) fn staged_jobs(
    (rows, cols): (usize, usize),
    n: usize,
    strategy: SolveStrategy,
) -> Vec<KernelJob> {
    let elems = rows * cols;
    let transform = KernelJob::Transform { rows, cols };
    let div = KernelJob::PointwiseDiv { elems };
    let hadamard = KernelJob::Hadamard { elems };
    let (naive, wiener) = (
        [transform, transform, div],
        [transform, transform, hadamard, hadamard],
    );
    let (per_pair, last) = match strategy {
        SolveStrategy::Naive { .. } => (&naive[..], None),
        SolveStrategy::Wiener { .. } => (&wiener[..], Some(div)),
    };
    (0..n)
        .flat_map(|_| per_pair.iter().copied())
        .chain(last)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accelerator;

    /// The staged body the fit's charges name: per pair, two
    /// [`Accelerator::fft2d`] and either an [`Accelerator::pointwise_div`]
    /// (naive) or two [`Accelerator::hadamard`] (Wiener); then the Wiener
    /// division, and the kernel by one [`Accelerator::ifft2d`]. Each
    /// kernel charges as it runs, so a fit that fails keeps the charges
    /// of the kernels before the failure. Returns the kernel and its
    /// spectrum.
    fn staged<A: Accelerator + ?Sized>(
        acc: &A,
        pairs: &[Pair],
        strategy: SolveStrategy,
    ) -> Result<(Matrix<f64>, Matrix<Complex64>)> {
        let shape = pairs.first().ok_or(TensorError::EmptyDimension)?.0.shape();
        let mut spectra = pairs.iter().map(|pair| match mismatch(pair, shape) {
            Some(error) => Err(error),
            None => Ok((
                acc.fft2d(&pair.0.to_complex())?,
                acc.fft2d(&pair.1.to_complex())?,
            )),
        });
        let spectrum = match strategy {
            SolveStrategy::Naive { policy } => {
                let mut sum: Option<Matrix<Complex64>> = None;
                for pair in spectra {
                    let (fx, fy) = pair?;
                    let q = acc.pointwise_div(&fy, &fx, policy)?;
                    sum = Some(match sum {
                        None => q,
                        Some(s) => s.zip_with(&q, |a, b| a + b)?,
                    });
                }
                let scale = 1.0 / pairs.len() as f64;
                sum.expect("non-empty pairs").map(|z| z.scale(scale))
            }
            SolveStrategy::Wiener { lambda } => {
                let (fx, fy) = spectra.next().expect("non-empty pairs")?;
                let mut num = acc.hadamard(&fy, &fx.conj())?;
                let mut den = acc.hadamard(&fx, &fx.conj())?;
                for pair in spectra {
                    let (fx, fy) = pair?;
                    num = num.zip_with(&acc.hadamard(&fy, &fx.conj())?, |a, b| a + b)?;
                    den = den.zip_with(&acc.hadamard(&fx, &fx.conj())?, |a, b| a + b)?;
                }
                let den = den.map(|z| z + Complex64::from_real(lambda));
                acc.pointwise_div(&num, &den, WIENER_DIV)?
            }
        };
        Ok((acc.ifft2d(&spectrum)?.to_real(), spectrum))
    }

    /// A seeded image in `[-0.5, 0.5)` (SplitMix64 draws).
    fn seeded(seed: u64, (m, n): (usize, usize)) -> Matrix<f64> {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .unwrap()
    }

    /// `n` seeded pairs of `shape`; the delta of `2√(mn)` keeps the
    /// inputs' spectra far from a null, for the strict division.
    fn pairs(shape @ (m, n): (usize, usize), count: u64) -> Vec<Pair> {
        let pair = |i| {
            let mut x = seeded(2 * i, shape);
            x[(0, 0)] += 2.0 * ((m * n) as f64).sqrt();
            (x, seeded(2 * i + 1, shape))
        };
        (0..count).map(pair).collect()
    }

    fn strategies() -> [SolveStrategy; 5] {
        let naive = |policy| SolveStrategy::Naive { policy };
        [
            SolveStrategy::default(),
            SolveStrategy::Wiener { lambda: 0.0 },
            naive(DivPolicy::Strict { tol: 1e-12 }),
            naive(DivPolicy::ZeroFill { tol: 1e-9 }),
            naive(DivPolicy::Clamp { floor: 1e-12 }),
        ]
    }

    /// `C` of the fit's bound (module header).
    const C: f64 = 2.0;

    /// The fit's distance from the staged body in units of its bound
    /// (module header): `(max_b |K[b] − K_ref[b]| / budget[b],
    /// ‖k − k_ref‖_F / kernel budget)`.
    fn ratios(
        pairs: &[Pair],
        strategy: SolveStrategy,
        (k, spectrum): (&Matrix<f64>, &Matrix<Complex64>),
        (k_ref, spectrum_ref): (&Matrix<f64>, &Matrix<Complex64>),
    ) -> (f64, f64) {
        let (m, n) = k.shape();
        let mn = (m * n) as f64;
        let e = C * f64::EPSILON * (2.0 * mn).log2();
        let plan = global_plan_cache().plan_2d(m, n);
        let spectra: Vec<_> = pairs
            .iter()
            .map(|(x, y)| {
                let [fx, fy] = [x, y].map(|a| plan.forward(&a.to_complex()).unwrap());
                (fx, fy, x.frobenius_norm(), y.frobenius_norm())
            })
            .collect();
        let p = pairs.len() as f64;
        let sensitivity = |b: usize| match strategy {
            SolveStrategy::Naive { .. } => {
                let terms = spectra.iter().map(|(fx, fy, nx, ny)| {
                    let (x, y) = (fx.as_slice()[b].abs(), fy.as_slice()[b].abs());
                    (ny + y / x * nx) / x
                });
                terms.sum::<f64>() / p
            }
            SolveStrategy::Wiener { lambda } => {
                let k = spectrum_ref.as_slice()[b].abs();
                let (mut sum, mut den) = (0.0, lambda);
                for (fx, fy, nx, ny) in &spectra {
                    let (x, y) = (fx.as_slice()[b].abs(), fy.as_slice()[b].abs());
                    sum += ny * x + nx * y + 2.0 * k * nx * x;
                    den += x * x;
                }
                sum / den
            }
        };
        let b: Vec<f64> = (0..m * n).map(sensitivity).collect();
        let bins = spectrum.iter().zip(spectrum_ref.iter()).zip(&b);
        let spectrum_ratio = bins
            .map(|((z, w), b)| (*z - *w).abs() / (e * mn.sqrt() * b))
            .fold(0.0, f64::max);
        let norm = |v: &[f64]| v.iter().map(|v| v * v).sum::<f64>().sqrt();
        let distance = k.zip_with(k_ref, |a, b| a - b).unwrap();
        let kernel_budget = e * (norm(&b) + k_ref.frobenius_norm());
        (spectrum_ratio, distance.frobenius_norm() / kernel_budget)
    }

    fn platforms() -> [Box<dyn Accelerator>; 2] {
        [
            Box::new(crate::CpuModel::i7_3700()),
            Box::new(crate::TpuAccel::with_cores(4)),
        ]
    }

    /// A built-in platform's fit is within its bound of the staged body
    /// — every strategy and division policy, on a radix-2, a Bluestein
    /// and `pipeline-offline`'s 128² shape, odd rows included — and
    /// leaves the staged body's clock and ledger, bit for bit.
    #[test]
    fn the_fit_is_within_its_bound_of_the_staged_body() {
        let mut worst = (0.0, 0.0);
        for (shape, count) in [((8, 8), 3), ((6, 10), 2), ((128, 128), 4), ((7, 8), 3)] {
            let pairs = pairs(shape, count);
            for strategy in strategies() {
                for (acc, reference) in platforms().iter().zip(platforms()) {
                    let fit = acc.interpret(&pairs, strategy, &[]).unwrap();
                    let (k_ref, spectrum_ref) =
                        staged(reference.as_ref(), &pairs, strategy).unwrap();
                    let case = format!("{shape:?} {strategy:?} {}", acc.name());
                    let got = (&fit.kernel, fit.prepared.spectrum());
                    let (s, k) = ratios(&pairs, strategy, got, (&k_ref, &spectrum_ref));
                    assert!(s <= 1.0 && k <= 1.0, "{case}: {s} and {k} of the bound");
                    if shape.0 % 2 == 1 {
                        // The complex solve is the staged body's arithmetic.
                        assert_eq!((s, k), (0.0, 0.0), "{case}");
                    }
                    worst = (f64::max(worst.0, s), f64::max(worst.1, k));
                    assert_eq!(
                        (acc.elapsed_seconds().to_bits(), acc.stats()),
                        (reference.elapsed_seconds().to_bits(), reference.stats()),
                        "{case}"
                    );
                    assert_eq!(fit.fitted_at.to_bits(), acc.elapsed_seconds().to_bits());
                }
            }
        }
        eprintln!(
            "observed: {:.3} of the spectrum's bound, {:.3} of the kernel's",
            worst.0, worst.1
        );
        let jobs = staged_jobs(
            (4, 6),
            2,
            SolveStrategy::Naive {
                policy: DivPolicy::default(),
            },
        );
        let transform = KernelJob::Transform { rows: 4, cols: 6 };
        let div = KernelJob::PointwiseDiv { elems: 24 };
        assert_eq!(jobs, [transform, transform, div, transform, transform, div]);
    }

    /// A strict null right of the kept columns, whose kept mirror is in
    /// a later row, is reported where the staged body meets it: at the
    /// first null of the full spectrum, not of the half.
    #[test]
    fn a_strict_null_is_reported_at_its_full_spectrum_bin() {
        let plan = global_plan_cache().plan_2d(4, 4);
        let mut spectrum = Matrix::filled(4, 4, Complex64::ONE).unwrap();
        // The Hermitian pair (1, 3) and (3, 1): full index 7, half 10.
        spectrum[(1, 3)] = Complex64::ZERO;
        spectrum[(3, 1)] = Complex64::ZERO;
        let x = plan.inverse(&spectrum).unwrap().to_real();
        let pairs = vec![(x.clone(), x)];
        let strict = SolveStrategy::Naive {
            policy: DivPolicy::Strict { tol: 1e-9 },
        };
        let want = TensorError::DivisionByZero { index: 7 };
        let staged = staged(&crate::CpuModel::i7_3700(), &pairs, strict);
        assert_eq!(staged.unwrap_err(), want);
        assert_eq!(distill(&pairs, strict).unwrap_err(), want);
    }
}
