//! Naive O(N²) discrete Fourier transform — the reference
//! implementation every fast algorithm in this crate is tested
//! against, and the "ordinary CPU execution" baseline of the paper's
//! evaluation.
//!
//! Kept because: no served request runs it, but it is the oracle of
//! `tests/paper_equations.rs` (Equations 9–10) and of this crate's
//! property tests.

use crate::norm::Norm;
use xai_tensor::Complex64;

/// Forward DFT by direct evaluation of the definition
/// `X[k] = s·Σₘ x[m]·e^{-2πi·mk/N}` where `s` is the norm's forward
/// scale.
///
/// Accurate enough to judge kernels whose error is `ε · log₂ N · ‖x‖₂`
/// (under [`Norm::Ortho`] its own error is a few ε of `‖x‖₂`): each
/// twiddle's index `m·k` is reduced mod `N` before its angle is taken
/// (the angle of the unreduced index carries ≈ `ε · 2π · mk / N` of
/// error), and the real and imaginary parts are each one compensated
/// (Neumaier) sum of their `2N` products.
///
/// # Examples
///
/// ```
/// use xai_fourier::{dft, Norm};
/// use xai_tensor::Complex64;
///
/// // DFT of a constant signal concentrates all energy in bin 0.
/// let x = vec![Complex64::ONE; 4];
/// let spec = dft(&x, Norm::Backward);
/// assert!((spec[0].re - 4.0).abs() < 1e-12);
/// assert!(spec[1].abs() < 1e-12);
/// ```
pub fn dft(input: &[Complex64], norm: Norm) -> Vec<Complex64> {
    definition(input, norm.forward_scale(input.len()), false)
}

/// Inverse DFT by direct evaluation:
/// `x[m] = s·Σₖ X[k]·e^{+2πi·mk/N}`, as exact as [`dft`].
pub fn idft(input: &[Complex64], norm: Norm) -> Vec<Complex64> {
    definition(input, norm.inverse_scale(input.len()), true)
}

/// `s·Σₘ x[m]·w^{mk}` for each `k`, with `w = e^{∓2πi/N}` (the upper
/// sign forward) and the index `mk` reduced mod `N`: the `N` powers of
/// `w` are built once, and each bin sums its real and imaginary parts
/// in one pass over `m`.
fn definition(x: &[Complex64], scale: f64, inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    let powers: Vec<Complex64> = (0..n)
        .map(|j| {
            let w = Complex64::twiddle(j as i64, n);
            if inverse {
                w.conj()
            } else {
                w
            }
        })
        .collect();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = (Neumaier::default(), Neumaier::default());
            for (m, xm) in x.iter().enumerate() {
                let w = powers[m * k % n];
                re.add(xm.re * w.re);
                re.add(-(xm.im * w.im));
                im.add(xm.re * w.im);
                im.add(xm.im * w.re);
            }
            Complex64::new(re.sum() * scale, im.sum() * scale)
        })
        .collect()
}

/// A sum with Neumaier's compensation: the rounding error of each
/// addition is carried and added back once at the end.
#[derive(Default)]
struct Neumaier {
    sum: f64,
    carry: f64,
}

impl Neumaier {
    fn add(&mut self, t: f64) {
        let next = self.sum + t;
        self.carry += if self.sum.abs() >= t.abs() {
            (self.sum - next) + t
        } else {
            (t - next) + self.sum
        };
        self.sum = next;
    }

    fn sum(&self) -> f64 {
        self.sum + self.carry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()))
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(dft(&[], Norm::Backward).is_empty());
        assert!(idft(&[], Norm::Backward).is_empty());
    }

    #[test]
    fn single_element_is_identity_under_backward() {
        let x = vec![Complex64::new(3.0, -2.0)];
        assert_eq!(dft(&x, Norm::Backward), x);
        assert_eq!(idft(&x, Norm::Backward), x);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let spec = dft(&x, Norm::Backward);
        for bin in spec {
            assert!((bin - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_all_norms() {
        let x: Vec<Complex64> = (0..7)
            .map(|i| Complex64::new(i as f64, (i * i) as f64 * 0.1))
            .collect();
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let back = idft(&dft(&x, norm), norm);
            assert!(max_diff(&x, &back) < 1e-10, "{norm:?}");
        }
    }

    #[test]
    fn parseval_under_ortho() {
        let x: Vec<Complex64> = (0..12)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let spec = dft(&x, Norm::Ortho);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..5).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..5).map(|i| Complex64::new(0.0, i as f64)).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let lhs = dft(&sum, Norm::Backward);
        let fa = dft(&a, Norm::Backward);
        let fb = dft(&b, Norm::Backward);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert!(max_diff(&lhs, &rhs) < 1e-10);
    }

    #[test]
    fn known_dft_of_ramp() {
        // x = [0,1,2,3]; X[0]=6, X[1]=-2+2i, X[2]=-2, X[3]=-2-2i
        let x = [0.0, 1.0, 2.0, 3.0];
        let spec = dft(&x.map(Complex64::from_real), Norm::Backward);
        let expect = [
            Complex64::new(6.0, 0.0),
            Complex64::new(-2.0, 2.0),
            Complex64::new(-2.0, 0.0),
            Complex64::new(-2.0, -2.0),
        ];
        assert!(max_diff(&spec, &expect) < 1e-12);
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let x = [1.0, 2.5, -3.0, 4.0, 0.5];
        let spec = dft(&x.map(Complex64::from_real), Norm::Backward);
        let n = x.len();
        for k in 1..n {
            let diff = (spec[k] - spec[n - k].conj()).abs();
            assert!(diff < 1e-12, "bin {k}");
        }
    }

    #[test]
    fn circular_shift_multiplies_by_phase() {
        // DFT(x shifted by s)[k] = DFT(x)[k] · e^{-2πiks/N}
        let x: Vec<Complex64> = (0..6)
            .map(|i| Complex64::new(i as f64 + 1.0, 0.0))
            .collect();
        let shifted: Vec<Complex64> = (0..6).map(|i| x[(i + 5) % 6]).collect(); // shift by 1
        let fx = dft(&x, Norm::Backward);
        let fs = dft(&shifted, Norm::Backward);
        for k in 0..6 {
            let phase = Complex64::twiddle(k as i64, 6);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-10, "bin {k}");
        }
    }
}
