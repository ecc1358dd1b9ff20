//! Iterative radix-4 Cooley–Tukey FFT for power-of-two lengths
//! (arbitrary lengths: [`crate::bluestein`]).
//!
//! After the bit reversal, a stage combines four transformed blocks of
//! length `l` (their block's input residues 0, 2, 1, 3 mod 4) into one
//! of length `4l`: point `q` of the last three is multiplied by
//! `w_{2l}^q`, `w_{4l}^q` and `w_{4l}^{3q}` (three multiplies per four
//! points where two radix-2 stages take four; each twiddle is
//! `Complex64::twiddle(k, n)`, never a product of two) and `∓i` is a
//! swap and a sign flip. When log₂ n is odd a radix-2 stage runs first.
//! Point `q = 0` multiplies nothing, so neither do the `l = 1` stage and
//! the radix-2 stage. The stage sequence depends on `n` alone, and a
//! plan holds each stage's twiddles as one contiguous run.
//!
//! The stages come in two loop nests: the 1-D form transforms one
//! signal; the column form transforms every column of a row-major
//! buffer at once, butterflying whole rows with the twiddles hoisted —
//! what lets [`mod@crate::fft2d`] run its column pass in place, unit
//! stride. Skipping a unit multiply changes signed zeros and non-finite
//! values (`(−0.0)·1 + 0.0·0` is `+0.0`, `∞·0` is NaN); that is safe
//! because every path — 1-D, column, pool-sharded, real-input,
//! block-pruned, Bluestein's inner transform — runs this one kernel.

use crate::norm::Norm;
use xai_tensor::Complex64;

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Precomputed state for transforms of one power-of-two length.
#[derive(Debug, Clone)]
pub(crate) struct Pow2Plan {
    n: usize,
    /// Bit-reversal permutation as the swaps `(i, j)`, `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles (`[0]`) and their conjugates (`[1]`), stage by
    /// stage: the stage of block length `l` reads `l` entries from
    /// `(l − first_l(n)) / 3`, entry `q` `[w_{2l}^q, w_{4l}^q, w_{4l}^{3q}]`.
    twiddles: [Vec<[Complex64; 3]>; 2],
}

/// The radix-4 butterfly on point `q` of four blocks, `b`, `c` and `d`
/// already multiplied by their twiddles.
#[inline(always)]
fn radix4<const INV: bool>([a, b, c, d]: [Complex64; 4]) -> [Complex64; 4] {
    let (u0, u1, v0, v1) = (a + b, a - b, c + d, c - d);
    // `v1 · (−i)` forward, `v1 · i` inverse.
    let v1 = if INV {
        Complex64::new(-v1.im, v1.re)
    } else {
        Complex64::new(v1.im, -v1.re)
    };
    [u0 + v0, u1 + v1, u0 - v0, u1 - v1]
}

/// The radix-2 stage on rows `cols` wide: pairs, unit twiddles.
fn pairs(data: &mut [Complex64], cols: usize) {
    for pair in data.chunks_exact_mut(2 * cols) {
        let (a, b) = pair.split_at_mut(cols);
        for (a, b) in a.iter_mut().zip(b) {
            (*a, *b) = (*a + *b, *a - *b);
        }
    }
}

/// Radix-4 butterflies between the rows of four equal runs (row-major,
/// `cols` wide), row quadruple `q` under twiddles `ws[q]`; `TW = false`
/// multiplies nothing.
fn quad_rows<const INV: bool, const TW: bool>(
    [a, b, c, d]: [&mut [Complex64]; 4],
    ws: &[[Complex64; 3]],
    cols: usize,
) {
    let rows = a.chunks_exact_mut(cols).zip(b.chunks_exact_mut(cols));
    let rows = rows.zip(c.chunks_exact_mut(cols).zip(d.chunks_exact_mut(cols)));
    for (((a, b), (c, d)), w) in rows.zip(ws) {
        for ((a, b), (c, d)) in a.iter_mut().zip(b).zip(c.iter_mut().zip(d)) {
            [*a, *b, *c, *d] = if TW {
                radix4::<INV>([*a, *b * w[0], *c * w[1], *d * w[2]])
            } else {
                radix4::<INV>([*a, *b, *c, *d])
            };
        }
    }
}

/// One stage on matching runs of a block's four quarters under `ws`;
/// `head` when the runs start at `q = 0`.
fn quad(
    runs: [&mut [Complex64]; 4],
    ws: &[[Complex64; 3]],
    cols: usize,
    inverse: bool,
    head: bool,
) {
    let k = usize::from(head);
    let [(a0, a), (b0, b), (c0, c), (d0, d)] = runs.map(|run| run.split_at_mut(k * cols));
    let (heads, tails, (w0, ws)) = ([a0, b0, c0, d0], [a, b, c, d], ws.split_at(k));
    if inverse {
        quad_rows::<true, false>(heads, w0, cols);
        quad_rows::<true, true>(tails, ws, cols);
    } else {
        quad_rows::<false, false>(heads, w0, cols);
        quad_rows::<false, true>(tails, ws, cols);
    }
}

/// The four equal runs of `block`.
fn quarters(block: &mut [Complex64]) -> [&mut [Complex64]; 4] {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    let (a, b) = lo.split_at_mut(lo.len() / 2);
    let (c, d) = hi.split_at_mut(hi.len() / 2);
    [a, b, c, d]
}

/// The block length of the first radix-4 stage: 2 after the radix-2
/// stage when log₂ n is odd, else 1.
fn first_l(n: usize) -> usize {
    1 + (n.trailing_zeros() as usize & 1)
}

fn scale_all(data: &mut [Complex64], s: f64) {
    if s != 1.0 {
        for v in data {
            *v = v.scale(s);
        }
    }
}

impl Pow2Plan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two — length selection is the
    /// caller's (i.e. [`crate::plan::FftPlan`]'s) responsibility.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n),
            "FFT plan requires power-of-two length, got {n}"
        );
        let bits = n.trailing_zeros();
        let swaps = (0..n as u32)
            .filter_map(|i| {
                let j = i.reverse_bits() >> (32 - bits.max(1));
                (i < j).then_some((i, j))
            })
            .collect();
        let mut forward = Vec::new();
        let mut l = first_l(n);
        while 4 * l <= n {
            let w = |q: usize| Complex64::twiddle((q * n / (4 * l)) as i64, n);
            forward.extend((0..l).map(|q| [w(2 * q), w(q), w(3 * q)]));
            l *= 4;
        }
        let inverse = forward.iter().map(|t| t.map(|w| w.conj())).collect();
        Pow2Plan {
            n,
            swaps,
            twiddles: [forward, inverse],
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], norm: Norm) {
        self.transform::<false>(data);
        scale_all(data, norm.forward_scale(self.n));
    }

    /// In-place inverse FFT with the given normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], norm: Norm) {
        self.transform::<true>(data);
        scale_all(data, norm.inverse_scale(self.n));
    }

    /// The twiddles of the radix-4 stage of block length `l`.
    fn table(&self, l: usize, inverse: bool) -> &[[Complex64; 3]] {
        &self.twiddles[usize::from(inverse)][(l - first_l(self.n)) / 3..][..l]
    }

    /// The 1-D form: the column form's stages, point by point.
    fn transform<const INV: bool>(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan length");
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let mut l = first_l(self.n);
        if l == 2 {
            pairs(data, 1);
        }
        while 4 * l <= self.n {
            let ws = self.table(l, INV);
            for block in data.chunks_exact_mut(4 * l) {
                let [a, b, c, d] = quarters(block);
                [a[0], b[0], c[0], d[0]] = radix4::<INV>([a[0], b[0], c[0], d[0]]);
                let (a, b, c, d) = (&mut a[1..], &mut b[1..], &mut c[1..], &mut d[1..]);
                let points = a.iter_mut().zip(b).zip(c.iter_mut().zip(d));
                for (((a, b), (c, d)), w) in points.zip(&ws[1..]) {
                    [*a, *b, *c, *d] = radix4::<INV>([*a, *b * w[0], *c * w[1], *d * w[2]]);
                }
            }
            l *= 4;
        }
    }

    /// The column form: transforms every column of the row-major
    /// `self.len() × cols` buffer `data` in place, each exactly as
    /// [`Pow2Plan::forward`] / [`Pow2Plan::inverse`] would transform it
    /// alone.
    ///
    /// `workers > 1` shards the pass over the shared pool: stages whose
    /// blocks stay inside one of `w` contiguous row groups (`w` the
    /// largest power of two within `workers` and `n / 2`) run as a task
    /// per group, each later stage as tasks of matching `q` runs of a
    /// block's quarters. Every element sees the same butterflies in the
    /// same order whatever the split, so the bits do not depend on
    /// `workers` or on the pool size.
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
        let scale = if forward {
            norm.forward_scale(n)
        } else {
            norm.inverse_scale(n)
        };
        // The stages whose blocks span at most `span` rows, on whole
        // blocks.
        let stages = |data: &mut [Complex64], span: usize| {
            let mut l = first_l(n);
            if l == 2 {
                pairs(data, cols);
            }
            while 4 * l <= span {
                let ws = self.table(l, !forward);
                for block in data.chunks_exact_mut(4 * l * cols) {
                    quad(quarters(block), ws, cols, !forward, true);
                }
                l *= 4;
            }
        };
        let groups = match workers.min(n / 2) {
            0 | 1 => 1,
            w => 1 << w.ilog2(),
        };
        if groups == 1 {
            // The serial pass never touches (or spins up) the pool.
            stages(data, n);
            scale_all(data, scale);
            return;
        }
        let pool = xai_parallel::global();
        let group = n / groups;
        pool.par_chunks_mut(data, group * cols, |_, rows| stages(rows, group));
        // From here a block spans groups: its quarters go in matching
        // runs of `group / 4` rows (at least one), one task per run.
        let run = (group / 4).max(1);
        let mut l = first_l(n);
        while 4 * l <= group {
            l *= 4;
        }
        while 4 * l <= n {
            let ws = self.table(l, !forward);
            pool.scope(|s| {
                for block in data.chunks_exact_mut(4 * l * cols) {
                    let [a, b, c, d] = quarters(block).map(|q| q.chunks_mut(run * cols));
                    let runs = a.zip(b).zip(c.zip(d)).zip(ws.chunks(run)).enumerate();
                    for (i, (((a, b), (c, d)), ws)) in runs {
                        s.spawn(move || quad([a, b, c, d], ws, cols, !forward, i == 0));
                    }
                }
            });
            l *= 4;
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
        let _ = Pow2Plan::new(12);
    }

    #[test]
    fn matches_naive_dft_for_all_power_sizes() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = signal(n);
            let expect = dft(&x, Norm::Backward);
            let mut got = x.clone();
            Pow2Plan::new(n).forward(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for n in [2usize, 8, 32] {
            let x = signal(n);
            let expect = idft(&x, Norm::Backward);
            let mut got = x.clone();
            Pow2Plan::new(n).inverse(&mut got, Norm::Backward);
            assert!(max_diff(&expect, &got) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn roundtrip_all_norms() {
        let n = 64;
        let x = signal(n);
        let plan = Pow2Plan::new(n);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            let mut buf = x.clone();
            plan.forward(&mut buf, norm);
            plan.inverse(&mut buf, norm);
            assert!(max_diff(&x, &buf) < 1e-9, "{norm:?}");
        }
    }

    #[test]
    fn plan_is_reusable() {
        let plan = Pow2Plan::new(16);
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
        let plan = Pow2Plan::new(1);
        let mut x = vec![Complex64::new(5.0, -1.0)];
        plan.forward(&mut x, Norm::Backward);
        assert_eq!(x[0], Complex64::new(5.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Pow2Plan::new(8);
        let mut x = vec![Complex64::ZERO; 4];
        plan.forward(&mut x, Norm::Backward);
    }

    #[test]
    fn parseval_holds() {
        let n = 128;
        let x = signal(n);
        let mut spec = x.clone();
        Pow2Plan::new(n).forward(&mut spec, Norm::Ortho);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        assert!((te - fe).abs() < 1e-8);
    }
}
