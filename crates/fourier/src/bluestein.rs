//! Bluestein's chirp-z algorithm: O(N log N) DFT for *arbitrary*
//! lengths, expressed as one circular convolution of power-of-two
//! size — which is exactly the operation shape the TPU's matrix engine
//! (and our simulator) accelerates.

use crate::fft::Pow2Plan;
use crate::norm::Norm;
use xai_tensor::Complex64;

/// Precomputed Bluestein plan for a fixed length `n`.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    /// Padded power-of-two convolution length (≥ 2n-1).
    m: usize,
    /// Chirp `c[j] = e^{-iπ j²/n}` for j in 0..n.
    chirp: Vec<Complex64>,
    /// FFT of the (wrapped, conjugated) chirp filter, length m.
    filter_spec: Vec<Complex64>,
    inner: Pow2Plan,
}

impl BluesteinPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "transform length must be non-zero");
        let m = (2 * n - 1).next_power_of_two();
        // chirp[j] = e^{-iπ j²/n} = twiddle(j² mod 2n, 2n)
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let j2 = ((j as u128 * j as u128) % (2 * n as u128)) as i64;
                Complex64::twiddle(j2, 2 * n)
            })
            .collect();
        let inner = Pow2Plan::new(m);
        // Filter b[j] = conj(chirp[|j|]) wrapped circularly: b[0..n] and b[m-j] for j in 1..n.
        let mut filter = vec![Complex64::ZERO; m];
        for (j, &c) in chirp.iter().enumerate() {
            filter[j] = c.conj();
            if j != 0 {
                filter[m - j] = c.conj();
            }
        }
        inner.forward(&mut filter, Norm::Backward);
        BluesteinPlan {
            n,
            m,
            chirp,
            filter_spec: filter,
            inner,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Internal padded convolution length (exposed for cost models).
    pub fn padded_len(&self) -> usize {
        self.m
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], norm: Norm) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan length");
        self.convolve(data);
        let s = norm.forward_scale(self.n);
        if s != 1.0 {
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    /// In-place inverse DFT, via `IDFT(x) = conj(DFT(conj(x)))/n`
    /// rescaled per the chosen normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan length");
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.convolve(data);
        let s = norm.inverse_scale(self.n);
        for v in data.iter_mut() {
            *v = v.conj().scale(s);
        }
    }

    /// Core chirp transform: data ← unscaled DFT(data).
    fn convolve(&self, data: &mut [Complex64]) {
        let mut a = vec![Complex64::ZERO; self.m];
        for (j, (&x, &c)) in data.iter().zip(&self.chirp).enumerate() {
            a[j] = x * c;
        }
        self.inner.forward(&mut a, Norm::Backward);
        for (v, &f) in a.iter_mut().zip(&self.filter_spec) {
            *v *= f;
        }
        self.inner.inverse(&mut a, Norm::Backward);
        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k] * self.chirp[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()))
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(((i * 5 + 2) % 9) as f64 - 4.0, ((i * 11) % 7) as f64 * 0.5))
            .collect()
    }

    #[test]
    fn matches_naive_dft_for_awkward_lengths() {
        for n in [1usize, 2, 3, 5, 6, 7, 12, 15, 17, 31, 100, 129] {
            let x = signal(n);
            let expect = dft(&x, Norm::Backward);
            let mut got = x.clone();
            BluesteinPlan::new(n).forward(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for n in [3usize, 7, 30] {
            let x = signal(n);
            let expect = idft(&x, Norm::Backward);
            let mut got = x.clone();
            BluesteinPlan::new(n).inverse(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn roundtrip_prime_length() {
        let x = signal(97);
        let plan = BluesteinPlan::new(97);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let mut buf = x.clone();
            plan.forward(&mut buf, norm);
            plan.inverse(&mut buf, norm);
            assert!(max_diff(&x, &buf) < 1e-8, "{norm:?}");
        }
    }

    #[test]
    fn also_correct_for_power_of_two() {
        let x = signal(16);
        let expect = dft(&x, Norm::Backward);
        let mut got = x.clone();
        BluesteinPlan::new(16).forward(&mut got, Norm::Backward);
        assert!(max_diff(&expect, &got) < 1e-9);
    }

    #[test]
    fn padded_length_is_power_of_two_and_sufficient() {
        for n in [3usize, 5, 100, 257] {
            let plan = BluesteinPlan::new(n);
            assert!(plan.padded_len().is_power_of_two());
            assert!(plan.padded_len() >= 2 * n - 1);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_rejected() {
        let _ = BluesteinPlan::new(0);
    }
}
