//! The real-input pair of [`Fft2d`]: the spectrum of a real
//! `rows × cols` image is Hermitian, `X[u,v] = conj X[(m−u)%m,(n−v)%n]`,
//! so its `h = cols/2 + 1` leading columns carry all of it and half
//! the butterflies of the complex transform recompute the mirror.
//!
//! Row pass: two real rows `a`, `b` ride one complex row transform —
//! `Z = F(a + i·b)`, then `A[k] = (Z[k] + conj Z[n−k])/2` and
//! `B[k] = (Z[k] − conj Z[n−k])/2i` for `k ≤ n/2`. Column pass: the
//! whole-row column kernel over the `h` kept columns. The inverse
//! mirrors both, and a full-size spectral filter applies in between as
//! a product with its Hermitian part ([`Fft2d::hermitian_part`]). The image is a real `rows × cols`
//! slice and the half spectrum a complex `rows × h` one, both
//! row-major and both the caller's: a real image is never widened to
//! complex, and the inverse may write over the image the forward read.
//! Built from the 1-D plans and the column kernel alone — no
//! butterfly, twiddle table or plan type of its own. Any `cols`
//! (odd and Bluestein lengths included); `rows` must be even.
//!
//! Three more pieces serve a caller that wants only a *norm* of what the
//! inverse would return (a contribution score, `xai-accel`'s score
//! lane in `filter_diff`). [`Fft2d::forward_real_block`] is the
//! forward transform of an image that is zero outside one rectangle —
//! the row pass runs over the rectangle's rows alone — and
//! [`Fft2d::residual_energy`] is Parseval on the kept half: the squared
//! Frobenius norm of a real image from its half spectrum, the dropped
//! mirror columns counted by weight. [`Fft2d::weighted_energy`] is the
//! same sum against a real spectral weight: with the transform of a
//! kernel's autocorrelation it is the energy of the image filtered by
//! that kernel, so a block on a torus of its own (each side at least
//! twice its extent, the autocorrelation cut to the lags that torus
//! holds) has its filtered energy on the full image from a transform of
//! the block's size.

use crate::fft2d::Fft2d;
use crate::norm::Norm;
use std::ops::Range;
use xai_tensor::{Complex64, Matrix};

impl Fft2d {
    /// Width `cols/2 + 1` of the half spectrum the real-input pair
    /// keeps.
    pub fn half_cols(&self) -> usize {
        self.cols / 2 + 1
    }

    /// Forward 2-D transform of the row-major real `rows × cols`
    /// `image` into its `rows × half_cols()` half spectrum, row-major
    /// in `half`. `scratch` is one row of working space.
    ///
    /// # Panics
    ///
    /// Panics unless the planned row count is even,
    /// `image.len() == rows * cols`, `half.len() == rows * half_cols()`
    /// and `scratch.len() == cols`.
    pub fn forward_real(&self, image: &[f64], half: &mut [Complex64], scratch: &mut [Complex64]) {
        self.forward_real_block(image, 0..self.rows, 0..self.cols, half, scratch);
    }

    /// [`Fft2d::forward_real`] of `image` *restricted to* the rectangle
    /// `rows × cols` — every element outside it read as zero — without
    /// building that image: the row pass packs the rectangle's rows two
    /// by two straight from `image` (`⌈rows.len() / 2⌉` row transforms
    /// instead of `rows / 2`; an odd last row rides alone), the other
    /// half-spectrum rows are zero-filled, and the column pass is whole.
    /// With the full ranges this *is* `forward_real`, bit for bit.
    ///
    /// # Panics
    ///
    /// As [`Fft2d::forward_real`], and unless `rows` and `cols` are
    /// ranges inside the planned shape.
    pub fn forward_real_block(
        &self,
        image: &[f64],
        rows: Range<usize>,
        cols: Range<usize>,
        half: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        let (n, h) = self.check_real(image.len(), half.len(), scratch.len());
        assert!(
            rows.start <= rows.end
                && rows.end <= self.rows
                && cols.start <= cols.end
                && cols.end <= n,
            "the rectangle {rows:?} × {cols:?} must lie inside the planned {} × {n} image",
            self.rows
        );
        // `z` paired with its mirror bin `m`: the spectra of the real
        // and of the imaginary part of the packed signal.
        let unpack = |z: Complex64, m: Complex64| {
            (
                Complex64::new(0.5 * (z.re + m.re), 0.5 * (z.im - m.im)),
                Complex64::new(0.5 * (z.im + m.im), 0.5 * (m.re - z.re)),
            )
        };
        half[..rows.start * h].fill(Complex64::ZERO);
        half[rows.end * h..].fill(Complex64::ZERO);
        let block = image[rows.start * n..rows.end * n].chunks(2 * n);
        for (pair, halves) in block.zip(half[rows.start * h..rows.end * h].chunks_mut(2 * h)) {
            scratch[..cols.start].fill(Complex64::ZERO);
            scratch[cols.end..].fill(Complex64::ZERO);
            let (ra, rb) = pair.split_at(n);
            let packed = scratch[cols.clone()].iter_mut().zip(&ra[cols.clone()]);
            if rb.is_empty() {
                // The odd last row alone: its transform is its spectrum.
                packed.for_each(|(z, &a)| *z = Complex64::from_real(a));
                self.row_plan.forward(scratch, Norm::Backward);
                halves.copy_from_slice(&scratch[..h]);
                continue;
            }
            for ((z, &a), &b) in packed.zip(&rb[cols.clone()]) {
                *z = Complex64::new(a, b);
            }
            self.row_plan.forward(scratch, Norm::Backward);
            let (a, b) = halves.split_at_mut(h);
            // Bin 0 is its own mirror; bin k ≥ 1 mirrors bin n − k.
            (a[0], b[0]) = unpack(scratch[0], scratch[0]);
            let bins = scratch[1..].iter().zip(scratch.iter().rev());
            for ((ak, bk), (&z, &m)) in a[1..].iter_mut().zip(&mut b[1..]).zip(bins) {
                (*ak, *bk) = unpack(z, m);
            }
        }
        self.col_plan.forward_columns(half, h, Norm::Backward);
    }

    /// `K_h`, the Hermitian part of the full-size `filter` on the kept
    /// columns, written over the `rows × half_cols()` `half`:
    /// `K_h[u,v] = (K[u,v] + conj K[(m−u)%m,(n−v)%n])/2`. For real `x`,
    /// `re(ifft2(fft2(x) ∘ K))` is `forward_real`, a product with this
    /// and `inverse_real` whatever `K` is (the real part of `x ∗ k` is
    /// `x ∗ re(k)`, whose spectrum is `K_h`), so nothing is assumed
    /// about the filter. Formed once for a caller that applies one
    /// filter to many half spectra ([`Fft2d::residual_energy`]).
    ///
    /// # Panics
    ///
    /// Panics unless `filter` has the planned shape and
    /// `half.len() == rows * half_cols()`.
    pub fn hermitian_part(&self, half: &mut [Complex64], filter: &Matrix<Complex64>) {
        let (m, h) = (self.rows, self.half_cols());
        assert!(
            filter.shape() == (m, self.cols) && half.len() == m * h,
            "filter must have the planned shape and half hold rows × half_cols elements"
        );
        let part = |k: Complex64, mirror: Complex64| {
            Complex64::new(0.5 * (k.re + mirror.re), 0.5 * (k.im - mirror.im))
        };
        for (u, row) in half.chunks_exact_mut(h).enumerate() {
            let (k, mirror) = (filter.row(u), filter.row(if u == 0 { 0 } else { m - u }));
            // Column 0 mirrors itself; column v ≥ 1 mirrors column n − v.
            row[0] = part(k[0], mirror[0]);
            let parts = k[1..].iter().zip(mirror.iter().rev());
            for (z, (&a, &b)) in row[1..].iter_mut().zip(parts) {
                *z = part(a, b);
            }
        }
    }

    /// `Σ w_v · |residual[u,v] + block[u,v] · filter[u,v]|²` over three
    /// `rows × half_cols()` half spectra, `w_v = 1` on the columns that
    /// mirror themselves (`0`, and `cols/2` when `cols` is even) and `2`
    /// on the rest, whose mirror column was dropped. By Parseval this is
    /// `rows · cols · ‖d‖_F²` for the real image `d` with the half
    /// spectrum `residual + block ∘ filter`, `filter` a Hermitian part
    /// ([`Fft2d::hermitian_part`]) — the norm
    /// [`Fft2d::inverse_real`] would let one take, without the inverse.
    /// Rows are summed one by one, in order: a pure function of the
    /// operands.
    ///
    /// # Panics
    ///
    /// Panics unless all three hold `rows * half_cols()` elements.
    pub fn residual_energy(
        &self,
        residual: &[Complex64],
        block: &[Complex64],
        filter: &[Complex64],
    ) -> f64 {
        let h = self.half_cols();
        assert!(
            [residual.len(), block.len(), filter.len()] == [self.rows * h; 3],
            "every half spectrum must hold rows × half_cols elements"
        );
        // Column `cols/2 = h − 1` of an even width mirrors itself, like
        // column 0; every column in between lost its mirror.
        let nyquist = self.cols.is_multiple_of(2);
        let doubled = 1..h - usize::from(nyquist);
        let rows = residual
            .chunks_exact(h)
            .zip(block.chunks_exact(h))
            .zip(filter.chunks_exact(h));
        rows.fold(0.0, |total, ((r, b), k)| {
            let at = |v: usize| (r[v] + b[v] * k[v]).norm_sqr();
            let once = at(0) + if nyquist { at(h - 1) } else { 0.0 };
            total + (once + 2.0 * doubled.clone().map(at).sum::<f64>())
        })
    }

    /// `(Σ w_v · |half[u,v]|² · a[u,v], Σ w_v · |half[u,v]|² · |a[u,v]|)`
    /// over a `rows × half_cols()` half spectrum and a real weight `a`
    /// of the same shape, `w_v` as in [`Fft2d::residual_energy`]; no
    /// weight is `a = 1`. By Parseval the first is `rows · cols · ‖b‖_F²`
    /// unweighted, and `rows · cols · Σ_{p,q} b[p] α[p − q] b[q]` when
    /// `a` is the transform of a real, even `α` — for `α` a kernel's
    /// autocorrelation, the squared norm of the real image `b` filtered
    /// by that kernel, without the filtered image. The second is the
    /// magnitude the first is summed from: what a caller bounds the
    /// first's rounding by when `a` has negative values. Rows are summed
    /// one by one, in order, as in `residual_energy`.
    ///
    /// # Panics
    ///
    /// Panics unless `half` (and `weight`) hold `rows * half_cols()`
    /// elements.
    pub fn weighted_energy(&self, half: &[Complex64], weight: Option<&[f64]>) -> (f64, f64) {
        let h = self.half_cols();
        assert!(
            half.len() == self.rows * h && weight.is_none_or(|a| a.len() == half.len()),
            "the half spectrum and its weight must hold rows × half_cols elements"
        );
        let nyquist = self.cols.is_multiple_of(2);
        let doubled = 1..h - usize::from(nyquist);
        let unit = vec![1.0; if weight.is_some() { 0 } else { h }];
        let add = |(s, t): (f64, f64), (a, b): (f64, f64)| (s + a, t + b);
        half.chunks_exact(h)
            .enumerate()
            .fold((0.0, 0.0), |total, (u, z)| {
                let a = weight.map_or(&unit[..], |a| &a[u * h..(u + 1) * h]);
                let at = |v: usize| {
                    let e = z[v].norm_sqr();
                    (e * a[v], e * a[v].abs())
                };
                let once = add(at(0), if nyquist { at(h - 1) } else { (0.0, 0.0) });
                let twice = doubled.clone().map(at).fold((0.0, 0.0), add);
                add(total, (once.0 + 2.0 * twice.0, once.1 + 2.0 * twice.1))
            })
    }

    /// Inverse of [`Fft2d::forward_real`]: takes the half spectrum in
    /// `half` (consumed as working space) back to the real
    /// `rows × cols` `image`. The spectrum is read as the kept half of
    /// a Hermitian one (the real part of the complex inverse).
    ///
    /// # Panics
    ///
    /// As [`Fft2d::forward_real`].
    pub fn inverse_real(
        &self,
        half: &mut [Complex64],
        image: &mut [f64],
        scratch: &mut [Complex64],
    ) {
        let (n, h) = self.check_real(image.len(), half.len(), scratch.len());
        self.col_plan.inverse_columns(half, h, Norm::Backward);
        let pairs = image.chunks_exact_mut(2 * n).zip(half.chunks_exact(2 * h));
        for (rows, halves) in pairs {
            let (a, b) = halves.split_at(h);
            // Z[k] = A[k] + i·B[k] on the kept bins, and on the bins
            // above n/2 from the mirrors A[k] = conj A[n−k].
            for ((z, ak), bk) in scratch.iter_mut().zip(a).zip(b) {
                *z = Complex64::new(ak.re - bk.im, ak.im + bk.re);
            }
            let mirrored = scratch[h..].iter_mut().rev();
            for ((z, ak), bk) in mirrored.zip(&a[1..]).zip(&b[1..]) {
                *z = Complex64::new(ak.re + bk.im, bk.re - ak.im);
            }
            self.row_plan.inverse(scratch, Norm::Backward);
            let (ra, rb) = rows.split_at_mut(n);
            for ((z, a), b) in scratch.iter().zip(ra.iter_mut()).zip(rb.iter_mut()) {
                (*a, *b) = (z.re, z.im);
            }
        }
    }

    /// `(cols, half_cols)` once the operands' lengths fit the plan.
    fn check_real(&self, image: usize, half: usize, scratch: usize) -> (usize, usize) {
        assert!(
            self.rows.is_multiple_of(2),
            "the real-input transform packs row pairs: the row count must be even, got {}",
            self.rows
        );
        let (n, h) = (self.cols, self.half_cols());
        assert!(
            image == self.rows * n && half == self.rows * h && scratch == n,
            "image must hold rows × cols elements, half rows × half_cols and scratch one row"
        );
        (n, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real_image(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3 + 3) % 13) as f64 - 6.0).unwrap()
    }

    /// A zeroed half spectrum and scratch row for `plan`.
    fn workspace(plan: &Fft2d) -> (Vec<Complex64>, Vec<Complex64>) {
        let (rows, cols) = plan.shape();
        (
            vec![Complex64::ZERO; rows * plan.half_cols()],
            vec![Complex64::ZERO; cols],
        )
    }

    /// The half spectrum of `real_image(rows, cols)`, `rows × h`.
    fn half_spectrum(plan: &Fft2d) -> Vec<Complex64> {
        let (rows, cols) = plan.shape();
        let (mut half, mut scratch) = workspace(plan);
        plan.forward_real(real_image(rows, cols).as_slice(), &mut half, &mut scratch);
        half
    }

    /// Largest distance between the half spectrum and the kept columns
    /// of the complex transform of the same image.
    fn half_vs_complex(rows: usize, cols: usize) -> f64 {
        let plan = Fft2d::new(rows, cols);
        let full = plan.forward(&real_image(rows, cols).to_complex()).unwrap();
        let h = plan.half_cols();
        half_spectrum(&plan)
            .chunks_exact(h)
            .zip(0..rows)
            .flat_map(|(row, r)| row.iter().zip(&full.row(r)[..h]))
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_complex_dft_for_even_lengths() {
        for n in [2usize, 4, 8, 16, 64, 100] {
            let err = half_vs_complex(8, n);
            assert!(err < 1e-9, "n={n}, err={err}");
        }
    }

    #[test]
    fn matches_complex_2d() {
        // Degenerate, odd and Bluestein shapes on either axis.
        for (m, n) in [(2, 1), (2, 2), (4, 3), (6, 8), (6, 10), (16, 4), (10, 7)] {
            let err = half_vs_complex(m, n);
            assert!(err < 1e-9, "{m}x{n}, err={err}");
        }
    }

    #[test]
    fn roundtrip() {
        for (m, n) in [(2, 1), (4, 3), (6, 10), (8, 8), (32, 16)] {
            let plan = Fft2d::new(m, n);
            let x = real_image(m, n);
            let mut buf = x.clone();
            let (mut half, mut scratch) = workspace(&plan);
            plan.forward_real(buf.as_slice(), &mut half, &mut scratch);
            plan.inverse_real(&mut half, buf.as_mut_slice(), &mut scratch);
            assert!(x.max_abs_diff(&buf).unwrap() < 1e-9, "{m}x{n}");
        }
    }

    #[test]
    fn filtered_pair_is_the_real_part_of_the_complex_sequence() {
        // Only the filter's Hermitian part reaches the real part of the
        // complex result.
        for (m, n) in [(2, 1), (4, 3), (6, 10), (8, 8)] {
            let plan = Fft2d::new(m, n);
            let x = real_image(m, n);
            let k = lopsided_filter(m, n);
            let mut spectrum = plan.forward(&x.to_complex()).unwrap();
            spectrum
                .as_mut_slice()
                .iter_mut()
                .zip(k.iter())
                .for_each(|(z, &k)| *z *= k);
            let complex = plan.inverse(&spectrum).unwrap();
            let mut buf = x.clone();
            let (mut half, mut scratch) = workspace(&plan);
            plan.forward_real(buf.as_slice(), &mut half, &mut scratch);
            filter_by_hermitian_part(&plan, &mut half, &k);
            plan.inverse_real(&mut half, buf.as_mut_slice(), &mut scratch);
            for (got, want) in buf.iter().zip(complex.iter()) {
                assert!((got - want.re).abs() < 1e-9, "{m}x{n}");
            }
        }
    }

    /// `half ← half ∘ K_h`: the filter applied to a half spectrum.
    fn filter_by_hermitian_part(plan: &Fft2d, half: &mut [Complex64], k: &Matrix<Complex64>) {
        let mut part = vec![Complex64::ZERO; half.len()];
        plan.hermitian_part(&mut part, k);
        half.iter_mut().zip(&part).for_each(|(z, k)| *z *= *k);
    }

    /// A filter with no symmetry at all.
    fn lopsided_filter(m: usize, n: usize) -> Matrix<Complex64> {
        Matrix::from_fn(m, n, |r, c| {
            Complex64::new(
                ((r * 3 + c) % 5) as f64 - 1.5,
                ((r + c * 2) % 7) as f64 * 0.25,
            )
        })
        .unwrap()
    }

    #[test]
    fn block_forward_is_the_forward_of_the_image_zeroed_outside_the_rectangle() {
        // Odd first row, odd height, one row, one element, nothing, all.
        for (m, n) in [(2usize, 1usize), (4, 3), (6, 10), (8, 8), (16, 4)] {
            let rects = [
                (0..m, 0..n),
                (1..m, 0..n.div_ceil(2)),
                (1..m.min(4), n / 2..n),
                (m - 1..m, 0..n),
                (m / 2..m / 2 + 1, n - 1..n),
                (m / 2..m / 2, 0..0),
            ];
            let plan = Fft2d::new(m, n);
            let x = real_image(m, n);
            for (rows, cols) in rects {
                let inside = |r, c| rows.contains(&r) && cols.contains(&c);
                let kept = Matrix::from_fn(m, n, |r, c| if inside(r, c) { x[(r, c)] } else { 0.0 });
                let (mut dense, mut scratch) = workspace(&plan);
                plan.forward_real(kept.unwrap().as_slice(), &mut dense, &mut scratch);
                // Whatever the workspace held before is overwritten.
                let mut pruned = vec![Complex64::new(7.0, -7.0); dense.len()];
                plan.forward_real_block(
                    x.as_slice(),
                    rows.clone(),
                    cols.clone(),
                    &mut pruned,
                    &mut scratch,
                );
                let err = pruned
                    .iter()
                    .zip(&dense)
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0, f64::max);
                assert!(err < 1e-9, "{m}x{n} {rows:?} x {cols:?}: {err}");
                if (rows.clone(), cols.clone()) == (0..m, 0..n) {
                    assert_eq!(pruned, dense, "{m}x{n}: the full rectangle is forward_real");
                }
            }
        }
    }

    #[test]
    fn hermitian_part_is_the_mirror_average_of_the_filter() {
        for (m, n) in [(2, 1), (4, 3), (6, 10), (8, 8)] {
            let plan = Fft2d::new(m, n);
            let k = lopsided_filter(m, n);
            let mut part = vec![Complex64::new(7.0, -7.0); m * plan.half_cols()];
            plan.hermitian_part(&mut part, &k);
            let by_hand: Vec<_> = (0..m)
                .flat_map(|u| (0..plan.half_cols()).map(move |v| (u, v)))
                .map(|(u, v)| {
                    let (a, b) = (k[(u, v)], k[((m - u) % m, (n - v) % n)].conj());
                    Complex64::new(0.5 * (a.re + b.re), 0.5 * (a.im + b.im))
                })
                .collect();
            assert_eq!(part, by_hand, "{m}x{n}");
        }
    }

    #[test]
    fn residual_energy_is_parseval_on_the_kept_half() {
        // ‖ifft(R + B ∘ K_h)‖_F² · mn, odd and even widths.
        for (m, n) in [(2usize, 1usize), (2, 2), (4, 3), (6, 10), (8, 8), (16, 4)] {
            let plan = Fft2d::new(m, n);
            let residual = half_spectrum(&plan);
            let (mut block, mut scratch) = workspace(&plan);
            plan.forward_real_block(
                real_image(m, n).as_slice(),
                m / 2..m,
                0..n.div_ceil(2),
                &mut block,
                &mut scratch,
            );
            let mut part = vec![Complex64::ZERO; block.len()];
            plan.hermitian_part(&mut part, &lopsided_filter(m, n));
            let energy = plan.residual_energy(&residual, &block, &part);
            let mut sum: Vec<_> = residual
                .iter()
                .zip(block.iter().zip(&part))
                .map(|(r, (b, k))| *r + *b * *k)
                .collect();
            let mut image = vec![0.0; m * n];
            plan.inverse_real(&mut sum, &mut image, &mut scratch);
            let want = image.iter().map(|v| v * v).sum::<f64>() * (m * n) as f64;
            assert!(
                (energy - want).abs() <= 1e-12 * want.max(1.0),
                "{m}x{n}: {energy} vs {want}"
            );
        }
    }

    /// `‖x_b ∗ k_h‖²` from the block's own box: on an `l_r × l_c` torus
    /// (per side the power of two at least twice the block's, at least
    /// 2) the weighted energy of the block alone, at the origin, against
    /// the transform of `a = k_h ⋆ k_h` cut to the lags `|d| < l/2` and
    /// read modulo the image, is the energy of the dense filtered image —
    /// also when the box is wider than the image.
    #[test]
    fn weighted_energy_on_a_box_is_the_filtered_block_energy() {
        // Odd, Bluestein and radix-2 widths.
        for (m, n) in [(6usize, 7usize), (8, 10), (8, 16)] {
            let plan = Fft2d::new(m, n);
            let x = real_image(m, n);
            let (mut part, mut scratch) = workspace(&plan);
            plan.hermitian_part(&mut part, &lopsided_filter(m, n));
            let mut power: Vec<_> = part
                .iter()
                .map(|k| Complex64::from_real(k.norm_sqr()))
                .collect();
            let mut a = vec![0.0; m * n];
            plan.inverse_real(&mut power, &mut a, &mut scratch);
            // Element; a row and a column (each box wider than the image
            // one way, narrower the other); off the origin.
            let rects = [
                (2..3, 4..5),
                (m / 2..m / 2 + 1, 0..n),
                (0..m, 1..2),
                (1..4, 2..6),
            ];
            for (rows, cols) in rects {
                let side = |len: usize| (2 * len).next_power_of_two().max(2);
                let (l_r, l_c) = (side(rows.len()), side(cols.len()));
                let boxed = Fft2d::new(l_r, l_c);
                let lag = |i: usize, l: usize, len: usize| match i.cmp(&(l / 2)) {
                    std::cmp::Ordering::Less => Some(i % len),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some((len - (l - i) % len) % len),
                };
                let cut =
                    Matrix::from_fn(l_r, l_c, |i, j| match (lag(i, l_r, m), lag(j, l_c, n)) {
                        (Some(p), Some(q)) => a[p * n + q],
                        _ => 0.0,
                    })
                    .unwrap();
                let block = Matrix::from_fn(l_r, l_c, |i, j| {
                    let inside = i < rows.len() && j < cols.len();
                    if inside {
                        x[(rows.start + i, cols.start + j)]
                    } else {
                        0.0
                    }
                })
                .unwrap();
                let (mut weight, mut row) = workspace(&boxed);
                let mut spectrum = weight.clone();
                boxed.forward_real(cut.as_slice(), &mut weight, &mut row);
                boxed.forward_real(block.as_slice(), &mut spectrum, &mut row);
                let weight: Vec<f64> = weight.iter().map(|z| z.re).collect();
                let (energy, magnitude) = boxed.weighted_energy(&spectrum, Some(&weight));
                let got = energy / (l_r * l_c) as f64;
                // The dense route: the zero-padded image, filtered.
                let inside = |r, c| rows.contains(&r) && cols.contains(&c);
                let padded =
                    Matrix::from_fn(m, n, |r, c| if inside(r, c) { x[(r, c)] } else { 0.0 });
                let (mut half, _) = workspace(&plan);
                plan.forward_real(padded.unwrap().as_slice(), &mut half, &mut scratch);
                filter_by_hermitian_part(&plan, &mut half, &lopsided_filter(m, n));
                let mut filtered = vec![0.0; m * n];
                plan.inverse_real(&mut half, &mut filtered, &mut scratch);
                let want = filtered.iter().map(|v| v * v).sum::<f64>();
                let at = format!("{m}x{n} {rows:?} x {cols:?} on {l_r}x{l_c}");
                assert!((got - want).abs() <= 1e-12 * want, "{at}: {got} vs {want}");
                assert!(magnitude >= energy.abs(), "{at}");
                // Unweighted, it is Parseval.
                let plain = boxed.weighted_energy(&spectrum, None);
                let norm = block.iter().map(|v| v * v).sum::<f64>() * (l_r * l_c) as f64;
                assert_eq!(plain.0, plain.1, "{at}");
                assert!((plain.0 - norm).abs() <= 1e-12 * norm, "{at}");
            }
        }
    }

    #[test]
    fn output_is_hermitian() {
        // Columns 0 and n/2 mirror themselves, so they are Hermitian
        // in the row index; every other column's mirror is dropped.
        let (m, n) = (6, 8);
        let plan = Fft2d::new(m, n);
        let (h, half) = (plan.half_cols(), half_spectrum(&plan));
        for v in [0, n / 2] {
            for u in 0..m {
                let mirror = half[(m - u) % m * h + v].conj();
                assert!((half[u * h + v] - mirror).abs() < 1e-9, "({u},{v})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_panics() {
        let plan = Fft2d::new(5, 4);
        plan.forward_real(
            &[0.0; 20],
            &mut [Complex64::ZERO; 15],
            &mut [Complex64::ZERO; 4],
        );
    }

    #[test]
    fn length_validation() {
        let plan = Fft2d::new(4, 4);
        for (image, half, scratch) in [
            (12, 12, 4),
            (16, 16, 4),
            (16, 11, 4),
            (16, 12, 3),
            (16, 12, 5),
        ] {
            let rejected = |forward: bool| {
                std::panic::catch_unwind(|| {
                    let mut image = vec![0.0; image];
                    let mut half = vec![Complex64::ZERO; half];
                    let mut scratch = vec![Complex64::ZERO; scratch];
                    if forward {
                        plan.forward_real(&image, &mut half, &mut scratch);
                    } else {
                        plan.inverse_real(&mut half, &mut image, &mut scratch);
                    }
                })
                .is_err()
            };
            assert!(
                rejected(true) && rejected(false),
                "{image}, {half}, {scratch}"
            );
        }
        let k = Matrix::filled(4, 4, Complex64::ONE).unwrap();
        let wrong_half = std::panic::catch_unwind(|| {
            plan.hermitian_part(&mut [Complex64::ZERO; 16], &k);
        });
        assert!(wrong_half.is_err());
        // Past the image, and (spelled out, as the literal is a lint)
        // ending before it starts.
        let backwards = Range { start: 3, end: 2 };
        for (rows, cols) in [
            (0..5, 0..4),
            (0..4, 0..5),
            (backwards.clone(), 0..4),
            (0..4, backwards),
        ] {
            let outside = std::panic::catch_unwind(|| {
                let (mut half, mut scratch) = workspace(&plan);
                plan.forward_real_block(&[0.0; 16], rows, cols, &mut half, &mut scratch);
            });
            assert!(outside.is_err());
        }
        let (half, short) = ([Complex64::ZERO; 12], [Complex64::ZERO; 11]);
        for (r, b, k) in [
            (&short[..], &half[..], &half[..]),
            (&half[..], &short[..], &half[..]),
            (&half[..], &half[..], &short[..]),
        ] {
            let wrong_len = std::panic::catch_unwind(|| plan.residual_energy(r, b, k));
            assert!(wrong_len.is_err());
        }
        let (weight, short_weight) = ([1.0; 12], [1.0; 11]);
        for (z, a) in [
            (&short[..], None),
            (&short[..], Some(&weight[..11])),
            (&half[..], Some(&short_weight[..])),
            (&half[..12], Some(&[1.0; 13][..])),
        ] {
            let wrong_len = std::panic::catch_unwind(|| plan.weighted_energy(z, a));
            assert!(wrong_len.is_err());
        }
        assert_eq!(plan.weighted_energy(&half, Some(&weight)), (0.0, 0.0));
    }
}
