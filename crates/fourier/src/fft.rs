//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! O(N log N) for power-of-two lengths; arbitrary lengths are handled
//! by [`crate::bluestein`]. A plan precomputes the bit-reversal swap
//! list and, per butterfly stage, a *contiguous* run of that stage's
//! twiddles (forward and conjugate), so the butterfly loops are plain
//! zips over slices: no stride arithmetic, no bounds checks and no
//! direction test per butterfly.
//!
//! The same butterflies come in two loop nests. [`Radix2Plan::forward`]
//! / [`Radix2Plan::inverse`] transform one contiguous signal. The
//! column form transforms every column of a row-major buffer at once
//! by treating each *row* as one element: a butterfly combines two
//! whole rows, its inner loop runs across the columns with one hoisted
//! twiddle. That is what lets [`mod@crate::fft2d`] run its column pass in
//! place — unit-stride memory access without a transpose.
//!
//! The trivial twiddles `1` and `−i` are multiplied like any other:
//! `(−0.0)·1 + 0.0·0` is `+0.0`, so skipping the multiply would flip
//! signed zeros, and occluded blocks feed these loops exact zeros.

use crate::norm::Norm;
use xai_tensor::Complex64;

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Precomputed state for radix-2 transforms of a fixed length.
#[derive(Debug, Clone)]
pub struct Radix2Plan {
    n: usize,
    /// Bit-reversal permutation as the swaps `(i, j)`, `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles laid out stage by stage: the stage with
    /// half-length `h` reads `[h − 1 .. 2h − 1)`, which holds
    /// `e^{-2πi·k/2h}` for k in 0..h. `n − 1` entries in all.
    twiddles: Vec<Complex64>,
    /// `.conj()` of every entry of `twiddles`, for the inverse.
    inverse_twiddles: Vec<Complex64>,
}

/// One butterfly: `(a, b) ← (a + b·w, a − b·w)`.
#[inline(always)]
fn butterfly(a: &mut Complex64, b: &mut Complex64, w: Complex64) {
    let even = *a;
    let odd = *b * w;
    *a = even + odd;
    *b = even - odd;
}

/// Butterflies between the rows of `lo` and the rows of `hi` (both
/// row-major, `cols` wide), row pair `k` under twiddle `ws[k]`.
fn butterfly_rows(lo: &mut [Complex64], hi: &mut [Complex64], ws: &[Complex64], cols: usize) {
    let rows = lo.chunks_exact_mut(cols).zip(hi.chunks_exact_mut(cols));
    for ((lo_row, hi_row), &w) in rows.zip(ws) {
        for (a, b) in lo_row.iter_mut().zip(hi_row) {
            butterfly(a, b, w);
        }
    }
}

fn scale_all(data: &mut [Complex64], s: f64) {
    if s != 1.0 {
        for v in data {
            *v = v.scale(s);
        }
    }
}

impl Radix2Plan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two — length selection is the
    /// caller's (i.e. [`crate::plan::FftPlan`]'s) responsibility.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "radix-2 FFT requires power-of-two length, got {n}"
        );
        let bits = n.trailing_zeros();
        let swaps = (0..n as u32)
            .filter_map(|i| {
                let j = i.reverse_bits() >> (32 - bits.max(1));
                (i < j).then_some((i, j))
            })
            .collect();
        // Stage h's k-th twiddle is e^{-2πi·k/2h} = e^{-2πi·(k·n/2h)/n},
        // taken from the length-n roots in the second form: the value
        // every stage has always used, so the tables hold the same bits.
        let roots: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::twiddle(k as i64, n))
            .collect();
        let mut twiddles: Vec<Complex64> = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            twiddles.extend(roots.iter().step_by(n / (2 * half)));
            half *= 2;
        }
        let inverse_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        Radix2Plan {
            n,
            swaps,
            twiddles,
            inverse_twiddles,
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

    /// In-place forward FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], norm: Norm) {
        self.transform(data, false);
        scale_all(data, norm.forward_scale(self.n));
    }

    /// In-place inverse FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        self.transform(data, true);
        scale_all(data, norm.inverse_scale(self.n));
    }

    fn table(&self, inverse: bool) -> &[Complex64] {
        if inverse {
            &self.inverse_twiddles
        } else {
            &self.twiddles
        }
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan length");
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let table = self.table(inverse);
        let mut half = 1;
        while half < self.n {
            let ws = &table[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(ws) {
                    butterfly(a, b, w);
                }
            }
            half *= 2;
        }
    }

    /// The column form: transforms every column of the row-major
    /// `self.len() × cols` buffer `data` in place, each exactly as
    /// [`Radix2Plan::forward`] / [`Radix2Plan::inverse`] would
    /// transform it alone.
    ///
    /// `workers > 1` shards the pass over the shared pool: stages
    /// whose butterflies stay inside one of `w` contiguous row groups
    /// (`w` the largest power of two within `workers` and `n / 2`) run
    /// as one task per group, and each of the last `log₂ w` stages,
    /// whose row pairs span groups, as `w` tasks of lo/hi row runs.
    /// Every element sees the same butterflies in the same order
    /// whatever the split, so the result does not depend on `workers`
    /// or on the pool size.
    ///
    /// # Panics
    ///
    /// Panics unless `cols > 0` and `data.len() == self.len() * cols`.
    pub(crate) fn columns(
        &self,
        data: &mut [Complex64],
        cols: usize,
        forward: bool,
        norm: Norm,
        workers: usize,
    ) {
        let n = self.n;
        assert!(
            cols > 0 && data.len() == n * cols,
            "buffer must hold plan-length rows of `cols` columns"
        );
        for &(i, j) in &self.swaps {
            let (head, tail) = data.split_at_mut(j as usize * cols);
            head[i as usize * cols..][..cols].swap_with_slice(&mut tail[..cols]);
        }
        let table = self.table(!forward);
        let stages = |data: &mut [Complex64], from: usize, to: usize| {
            let mut half = from;
            while half < to {
                let ws = &table[half - 1..2 * half - 1];
                for block in data.chunks_exact_mut(2 * half * cols) {
                    let (lo, hi) = block.split_at_mut(half * cols);
                    butterfly_rows(lo, hi, ws, cols);
                }
                half *= 2;
            }
        };
        let scale = if forward {
            norm.forward_scale(n)
        } else {
            norm.inverse_scale(n)
        };
        let groups = match workers.min(n / 2) {
            0 | 1 => 1,
            w => 1 << w.ilog2(),
        };
        if groups == 1 {
            // The serial pass never touches (or spins up) the pool.
            stages(data, 1, n);
            scale_all(data, scale);
            return;
        }
        let pool = xai_parallel::global();
        let group = n / groups;
        pool.par_chunks_mut(data, group * cols, |_, rows| stages(rows, 1, group));
        // From here a butterfly's two rows lie in different groups:
        // split each block's lo and hi halves into matching runs of
        // `group / 2` row pairs, `groups` tasks per stage.
        let run = group / 2;
        let mut half = group;
        while half < n {
            let ws = &table[half - 1..2 * half - 1];
            pool.scope(|s| {
                for block in data.chunks_exact_mut(2 * half * cols) {
                    let (lo, hi) = block.split_at_mut(half * cols);
                    let runs = lo.chunks_mut(run * cols).zip(hi.chunks_mut(run * cols));
                    for ((lo, hi), ws) in runs.zip(ws.chunks(run)) {
                        s.spawn(move || butterfly_rows(lo, hi, ws, cols));
                    }
                }
            });
            half *= 2;
        }
        if scale != 1.0 {
            pool.par_chunks_mut(data, group * cols, |_, rows| scale_all(rows, scale));
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
            .map(|i| {
                Complex64::new(
                    ((i * 7 + 3) % 11) as f64 - 5.0,
                    ((i * 13 + 1) % 17) as f64 * 0.25,
                )
            })
            .collect()
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(96));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plan_rejects_non_power_of_two() {
        let _ = Radix2Plan::new(12);
    }

    #[test]
    fn matches_naive_dft_for_all_power_sizes() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = signal(n);
            let expect = dft(&x, Norm::Backward);
            let mut got = x.clone();
            Radix2Plan::new(n).forward(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for n in [2usize, 8, 32] {
            let x = signal(n);
            let expect = idft(&x, Norm::Backward);
            let mut got = x.clone();
            Radix2Plan::new(n).inverse(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn roundtrip_all_norms() {
        let n = 64;
        let x = signal(n);
        let plan = Radix2Plan::new(n);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let mut buf = x.clone();
            plan.forward(&mut buf, norm);
            plan.inverse(&mut buf, norm);
            assert!(max_diff(&x, &buf) < 1e-9, "{norm:?}");
        }
    }

    #[test]
    fn plan_is_reusable() {
        let plan = Radix2Plan::new(16);
        for trial in 0..4 {
            let mut x = signal(16);
            x[0] = Complex64::new(trial as f64, 0.0);
            let expect = dft(&x, Norm::Backward);
            plan.forward(&mut x, Norm::Backward);
            assert!(max_diff(&expect, &x) < 1e-10);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = Radix2Plan::new(1);
        let mut x = vec![Complex64::new(5.0, -1.0)];
        plan.forward(&mut x, Norm::Backward);
        assert_eq!(x[0], Complex64::new(5.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Radix2Plan::new(8);
        let mut x = vec![Complex64::ZERO; 4];
        plan.forward(&mut x, Norm::Backward);
    }

    #[test]
    fn parseval_holds() {
        let n = 128;
        let x = signal(n);
        let mut spec = x.clone();
        Radix2Plan::new(n).forward(&mut spec, Norm::Ortho);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!((te - fe).abs() < 1e-8);
    }
}
