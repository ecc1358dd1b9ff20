//! Equation 4 of the paper (§III-B) as one kernel: the closed-form
//! distillation solve, from `(X, Y)` pairs to the kernel spectrum `F(K)`.
//!
//! The distilled model is one circular convolution `X ∗ K = Y`
//! (Equation 2); the convolution theorem turns it into `F(X) ◦ F(K) =
//! F(Y)` (Equation 3), solved in the spectrum (Equation 4). Two
//! strategies: [`SolveStrategy::Naive`], the paper's per-pair division,
//! and [`SolveStrategy::Wiener`], its least-squares form over all pairs.
//!
//! The solve has one body, [`distill_spectrum`]: the host fit is that
//! function, and every platform's
//! [`Accelerator::distill_spectrum`](crate::Accelerator::distill_spectrum)
//! runs it once and then charges the staged kernels it stands for
//! ([`staged_jobs`]), in their order. The staged body itself, the
//! reference those charges name, is test code; it keeps the same
//! arithmetic, so the two give the same bits.
//!
//! Every buffer is allocated on the calling thread. One pair at a time,
//! its `x` and `y` are widened to complex there and transformed whole
//! and in place as two host-pool tasks, then folded into the sums in one
//! pass. The sums are the first pair's spectra, seeded from its terms
//! rather than from zeros (which keeps the signs of exact zeros), so
//! besides them only one pair's spectra are ever alive.

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

/// The kernel spectrum `F(K)` that `strategy` solves from `pairs` — the
/// numerics of every
/// [`Accelerator::distill_spectrum`](crate::Accelerator::distill_spectrum).
///
/// # Errors
///
/// [`TensorError::EmptyDimension`] for no pairs,
/// [`TensorError::ShapeMismatch`] for a pair not of the first `x`'s
/// shape, and [`TensorError::DivisionByZero`] for a null under a naive
/// [`DivPolicy::Strict`]: whichever the staged body meets first, pair by
/// pair.
pub fn distill_spectrum(pairs: &[Pair], strategy: SolveStrategy) -> Result<Matrix<Complex64>> {
    let shape = pairs.first().ok_or(TensorError::EmptyDimension)?.0.shape();
    let bad = pairs
        .iter()
        .enumerate()
        .find_map(|(i, pair)| Some((i, mismatch(pair, shape)?)));
    match bad {
        None => solve(pairs, strategy),
        Some((i, error)) => {
            // The staged body solves the pairs before a misshapen one
            // first, so a strict null among them is the error it meets.
            if i > 0 {
                solve(&pairs[..i], strategy)?;
            }
            Err(error)
        }
    }
}

/// [`distill_spectrum`] on well-formed pairs.
fn solve(pairs: &[Pair], strategy: SolveStrategy) -> Result<Matrix<Complex64>> {
    let (rows, cols) = pairs[0].0.shape();
    let plan = global_plan_cache().plan_2d(rows, cols);
    let forward = |mut m: Matrix<Complex64>| plan.forward_in_place(&mut m).map(|()| m);
    let mut spectra = pairs.iter().map(|(x, y)| {
        // Widened here, on the calling thread, so that no pool worker's
        // malloc arena keeps a matrix.
        let widened = vec![x.to_complex(), y.to_complex()];
        let mut spectra = if rows * cols < POOLED_MIN_ELEMS {
            widened.into_iter().map(forward).collect()
        } else {
            ops::par_map(widened, forward)
        }
        .into_iter();
        Ok((spectra.next().expect("x")?, spectra.next().expect("y")?))
    });
    match strategy {
        SolveStrategy::Naive { policy } => {
            let mut sum: Option<Matrix<Complex64>> = None;
            for pair in spectra {
                let (fx, fy) = pair?;
                let q = ops::pointwise_div(&fy, &fx, policy)?;
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
            let scale = 1.0 / pairs.len() as f64;
            for s in sum.as_mut_slice() {
                *s = s.scale(scale);
            }
            Ok(sum)
        }
        SolveStrategy::Wiener { lambda } => {
            // Pair 0's spectra become the sums: `den ← fx·conj fx`,
            // `num ← fy·conj fx`.
            let (mut den, mut num) = spectra.next().expect("non-empty pairs")?;
            for (d, n) in den.as_mut_slice().iter_mut().zip(num.as_mut_slice()) {
                let fx = *d;
                (*n, *d) = (*n * fx.conj(), fx * fx.conj());
            }
            for pair in spectra {
                let (fx, fy) = pair?;
                let sums = den.as_mut_slice().iter_mut().zip(num.as_mut_slice());
                for ((d, n), (&fx, &fy)) in sums.zip(fx.as_slice().iter().zip(fy.as_slice())) {
                    *n += fy * fx.conj();
                    *d += fx * fx.conj();
                }
            }
            for d in den.as_mut_slice() {
                *d += Complex64::from_real(lambda);
            }
            ops::pointwise_div(&num, &den, WIENER_DIV)
        }
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

    /// The staged body of [`Accelerator::distill_spectrum`]: per pair, two
    /// [`Accelerator::fft2d`] and either an [`Accelerator::pointwise_div`]
    /// (naive) or two [`Accelerator::hadamard`] (Wiener); then the Wiener
    /// division. Each kernel charges as it runs, so a fit that fails keeps
    /// the charges of the kernels before the failure.
    fn staged<A: Accelerator + ?Sized>(
        acc: &A,
        pairs: &[Pair],
        strategy: SolveStrategy,
    ) -> Result<Matrix<Complex64>> {
        let shape = pairs.first().ok_or(TensorError::EmptyDimension)?.0.shape();
        let mut spectra = pairs.iter().map(|pair| match mismatch(pair, shape) {
            Some(error) => Err(error),
            None => Ok((
                acc.fft2d(&pair.0.to_complex())?,
                acc.fft2d(&pair.1.to_complex())?,
            )),
        });
        match strategy {
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
                Ok(sum.expect("non-empty pairs").map(|z| z.scale(scale)))
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
                acc.pointwise_div(&num, &den, WIENER_DIV)
            }
        }
    }

    fn pairs(rows: usize, cols: usize, n: usize) -> Vec<Pair> {
        let m = |salt: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 5 + c * 3 + salt) % 11) as f64 - 5.0
            })
            .unwrap()
        };
        // The delta keeps the spectra free of nulls, for the strict
        // division.
        let x = |i| {
            let mut x = m(i);
            x[(0, 0)] += 40.0;
            x
        };
        (0..n).map(|i| (x(i), m(i + 4))).collect()
    }

    fn bits(m: &Matrix<Complex64>) -> Vec<u64> {
        m.iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    /// A built-in platform's kernel has the staged body's bits, clock
    /// and ledger, on a radix-2 and a Bluestein shape, with the pool
    /// (64²) and without.
    #[test]
    fn the_kernel_is_the_staged_body() {
        let naive = |policy| SolveStrategy::Naive { policy };
        let strategies = [
            SolveStrategy::default(),
            naive(DivPolicy::Strict { tol: 1e-12 }),
            naive(DivPolicy::ZeroFill { tol: 1e-9 }),
        ];
        for (rows, cols) in [(4, 6), (64, 64), (12, 10)] {
            let pairs = pairs(rows, cols, 3);
            for strategy in strategies {
                let platforms = || -> [Box<dyn Accelerator>; 2] {
                    [
                        Box::new(crate::CpuModel::i7_3700()),
                        Box::new(crate::TpuAccel::with_cores(4)),
                    ]
                };
                for (kernel, reference) in platforms().iter().zip(platforms()) {
                    let got = kernel.distill_spectrum(&pairs, strategy);
                    let want = staged(reference.as_ref(), &pairs, strategy);
                    let case = format!("{rows}x{cols} {strategy:?} {}", kernel.name());
                    assert_eq!(bits(&got.unwrap()), bits(&want.unwrap()), "{case}");
                    assert_eq!(
                        (kernel.elapsed_seconds().to_bits(), kernel.stats()),
                        (reference.elapsed_seconds().to_bits(), reference.stats()),
                        "{case}"
                    );
                }
            }
        }
        let jobs = staged_jobs((4, 6), 2, naive(DivPolicy::default()));
        let transform = KernelJob::Transform { rows: 4, cols: 6 };
        let div = KernelJob::PointwiseDiv { elems: 24 };
        assert_eq!(jobs, [transform, transform, div, transform, transform, div]);
    }
}
