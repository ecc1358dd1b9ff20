//! Algorithm-selecting 1-D FFT plan.

use crate::bluestein::BluesteinPlan;
use crate::fft::{is_power_of_two, Pow2Plan};
use crate::norm::Norm;
use xai_tensor::Complex64;

/// A reusable 1-D DFT plan that picks the fastest applicable
/// algorithm: the radix-4 kernel of [`crate::fft`] for power-of-two
/// lengths, Bluestein (whose inner transform is that kernel)
/// otherwise.
///
/// # Examples
///
/// ```
/// use xai_fourier::{FftPlan, Norm};
/// use xai_tensor::Complex64;
///
/// let plan = FftPlan::new(12); // not a power of two — Bluestein
/// let mut data: Vec<Complex64> = (0..12)
///     .map(|i| Complex64::new(i as f64, 0.0))
///     .collect();
/// let original = data.clone();
/// plan.forward(&mut data, Norm::Backward);
/// plan.inverse(&mut data, Norm::Backward);
/// let err = data.iter().zip(&original).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
/// assert!(err < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    algo: Algo,
}

#[derive(Debug, Clone)]
enum Algo {
    Pow2(Pow2Plan),
    Bluestein(BluesteinPlan),
}

impl FftPlan {
    /// Builds a plan for length `n`, selecting the algorithm
    /// automatically.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "transform length must be non-zero");
        let algo = if is_power_of_two(n) {
            Algo::Pow2(Pow2Plan::new(n))
        } else {
            Algo::Bluestein(BluesteinPlan::new(n))
        };
        FftPlan { algo }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        match &self.algo {
            Algo::Pow2(p) => p.len(),
            Algo::Bluestein(p) => p.len(),
        }
    }

    /// `true` iff the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], norm: Norm) {
        match &self.algo {
            Algo::Pow2(p) => p.forward(data, norm),
            Algo::Bluestein(p) => p.forward(data, norm),
        }
    }

    /// In-place inverse transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        match &self.algo {
            Algo::Pow2(p) => p.inverse(data, norm),
            Algo::Bluestein(p) => p.inverse(data, norm),
        }
    }

    /// The column form of [`FftPlan::forward`]: transforms every
    /// column of the row-major `self.len() × cols` buffer `data` in
    /// place, each bit for bit as `forward` would transform it alone.
    ///
    /// # Panics
    ///
    /// Panics unless `cols > 0` and `data.len() == self.len() * cols`.
    pub fn forward_columns(&self, data: &mut [Complex64], cols: usize, norm: Norm) {
        self.columns(data, cols, true, norm, 1);
    }

    /// The column form of [`FftPlan::inverse`] (see
    /// [`FftPlan::forward_columns`]).
    ///
    /// # Panics
    ///
    /// As [`FftPlan::forward_columns`].
    pub fn inverse_columns(&self, data: &mut [Complex64], cols: usize, norm: Norm) {
        self.columns(data, cols, false, norm, 1);
    }

    /// Both column forms, optionally sharded over the shared pool.
    /// Power-of-two lengths butterfly whole rows where they lie (the
    /// column form of [`crate::fft`]); a Bluestein length gathers one
    /// column at a time into a scratch signal, transforms it and
    /// scatters it back, on the calling thread whatever `workers` is.
    pub(crate) fn columns(
        &self,
        data: &mut [Complex64],
        cols: usize,
        forward: bool,
        norm: Norm,
        workers: usize,
    ) {
        let p = match &self.algo {
            Algo::Pow2(p) => return p.columns(data, cols, forward, norm, workers),
            Algo::Bluestein(p) => p,
        };
        assert!(
            cols > 0 && data.len() == p.len() * cols,
            "buffer must hold plan-length rows of `cols` columns"
        );
        let mut column = vec![Complex64::ZERO; p.len()];
        for c in 0..cols {
            for (v, row) in column.iter_mut().zip(data.chunks_exact(cols)) {
                *v = row[c];
            }
            if forward {
                p.forward(&mut column, norm);
            } else {
                p.inverse(&mut column, norm);
            }
            for (v, row) in column.iter().zip(data.chunks_exact_mut(cols)) {
                row[c] = *v;
            }
        }
    }

    /// Complex-MAC count of one transform of the *modelled* radix-2
    /// algorithm (Bluestein: three inner ones plus its chirp and filter
    /// multiplies), which the cost models in `xai-accel` charge. It
    /// does not describe the host kernel, so a change to that kernel
    /// cannot move simulated time.
    pub fn op_count(&self) -> u64 {
        match &self.algo {
            Algo::Pow2(p) => {
                let n = p.len() as u64;
                if n <= 1 {
                    0
                } else {
                    n * n.ilog2() as u64 / 2
                }
            }
            Algo::Bluestein(p) => {
                let m = p.padded_len() as u64;
                let n = p.len() as u64;
                // three inner FFTs of length m + 2n chirp multiplies + m filter multiplies
                3 * m * m.ilog2() as u64 / 2 + 2 * n + m
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    #[test]
    fn both_paths_agree_with_naive() {
        for n in [8usize, 12] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            let expect = dft(&x, Norm::Ortho);
            let mut got = x.clone();
            FftPlan::new(n).forward(&mut got, Norm::Ortho);
            let err = expect
                .iter()
                .zip(&got)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n}");
        }
    }

    #[test]
    fn column_form_equals_transforming_each_column_alone() {
        // Power-of-two (whole-row butterflies, serial and pool-sharded) and
        // Bluestein (gather/scatter) lengths, every norm, both
        // directions — including the norms `Fft2d` never passes.
        let cols = 5;
        for n in [1usize, 2, 8, 12, 16] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex64> = (0..n * cols)
                .map(|i| Complex64::new((i * 7 % 13) as f64 - 6.0, (i * 3 % 5) as f64 * 0.5))
                .collect();
            for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
                for forward in [true, false] {
                    let mut want = x.clone();
                    for c in 0..cols {
                        let mut column: Vec<Complex64> =
                            want.chunks(cols).map(|row| row[c]).collect();
                        if forward {
                            plan.forward(&mut column, norm);
                        } else {
                            plan.inverse(&mut column, norm);
                        }
                        for (row, v) in want.chunks_mut(cols).zip(column) {
                            row[c] = v;
                        }
                    }
                    for workers in [1, 2, 3, 8] {
                        let mut got = x.clone();
                        plan.columns(&mut got, cols, forward, norm, workers);
                        assert_eq!(got, want, "n={n} {norm:?} fwd={forward} w={workers}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan-length rows")]
    fn column_form_rejects_a_ragged_buffer() {
        let mut data = vec![Complex64::ZERO; 7];
        FftPlan::new(4).forward_columns(&mut data, 2, Norm::Backward);
    }

    #[test]
    fn op_count_monotone_in_length() {
        let small = FftPlan::new(64).op_count();
        let large = FftPlan::new(256).op_count();
        assert!(large > small);
        assert_eq!(FftPlan::new(1).op_count(), 0);
    }

    /// The modelled counts, pinned: simulated time rests on them, not
    /// on the host kernel.
    #[test]
    fn op_counts_are_the_modelled_radix2_algorithms() {
        let counts = [1, 2, 8, 64, 128, 100].map(|n| FftPlan::new(n).op_count());
        // 100: padded to 256, 3 · 128 · 8 + 2 · 100 + 256.
        assert_eq!(counts, [0, 1, 12, 192, 448, 3528]);
        assert_eq!(crate::Fft2d::new(128, 128).op_counts(), (448, 448));
    }

    #[test]
    fn bluestein_op_count_exceeds_radix2() {
        // Bluestein pads to ≥2n and runs 3 inner FFTs — must cost more.
        assert!(FftPlan::new(100).op_count() > FftPlan::new(128).op_count());
    }
}
