//! Real wall-clock benchmarks of the Fourier library (the transform
//! ablation) and the host-thread scalability behind Figure 4's
//! shape: the naive DFT baseline versus the decomposed row–column
//! transform, serial versus multi-worker, and the in-place lane the
//! fused filter-diff pipeline runs.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use std::hint::black_box;
use xai_fourier::{dft, fft2d_via_matmul, Fft2d, FftPlan, Norm};
use xai_tensor::{ops, Complex64, Matrix};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new(((i * 7) % 13) as f64 - 6.0, ((i * 3) % 5) as f64))
        .collect()
}

fn complex_matrix(n: usize) -> Matrix<Complex64> {
    Matrix::from_fn(n, n, |r, c| {
        Complex64::new(((r * 5 + c) % 11) as f64 - 5.0, ((r + c * 3) % 7) as f64)
    })
    .expect("n > 0")
}

/// 1-D algorithms: naive definition vs the power-of-two kernel vs
/// Bluestein. The kernel also runs at 8 (the 8 × 8 shape of the small
/// serving and chaos workloads) and 128 (the large one).
fn bench_1d_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft1d");
    for n in [8usize, 64, 128, 256] {
        let x = signal(n);
        let plan = FftPlan::new(n);
        group.bench_with_input(BenchmarkId::new("power-of-two", n), &x, |b, x| {
            b.iter(|| {
                let mut buf = x.clone();
                plan.forward(&mut buf, Norm::Backward);
                buf
            });
        });
    }
    for n in [64usize, 256] {
        let x = signal(n);
        group.bench_with_input(BenchmarkId::new("naive-dft", n), &x, |b, x| {
            b.iter(|| dft(black_box(x), Norm::Backward));
        });
        // Bluestein on a prime near n (forces the chirp path).
        let np = if n == 64 { 67 } else { 257 };
        let xp = signal(np);
        let bplan = FftPlan::new(np);
        group.bench_with_input(BenchmarkId::new("bluestein", np), &xp, |b, x| {
            b.iter(|| {
                let mut buf = x.clone();
                bplan.forward(&mut buf, Norm::Backward);
                buf
            });
        });
    }
    group.finish();
}

/// 2-D: row–column FFT vs the DFT-matrix matmul form (the TPU
/// mapping), and serial vs parallel workers — Figure 4's wall-clock
/// shape on host hardware.
fn bench_2d_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2d");
    group.sample_size(20);
    for n in [64usize, 128] {
        let x = complex_matrix(n);
        let plan = Fft2d::new(n, n);
        group.bench_with_input(BenchmarkId::new("row-column-serial", n), &x, |b, x| {
            b.iter(|| plan.forward(black_box(x)).expect("valid shape"));
        });
        // The same transform in a caller-owned buffer: what is left
        // of "row-column-serial" once the allocation is gone.
        group.bench_with_input(BenchmarkId::new("in-place", n), &x, |b, x| {
            let mut buf = x.clone();
            b.iter(|| {
                buf.as_mut_slice().copy_from_slice(x.as_slice());
                plan.forward_in_place(black_box(&mut buf))
                    .expect("valid shape");
            });
        });
        // The real-input forward of the real parts, split-buffer: half
        // the butterflies of "in-place" and — the image is only read,
        // the half spectrum and scratch row are reused — no 256 KB
        // copy per iteration, which "in-place" still includes.
        group.bench_with_input(BenchmarkId::new("real-forward", n), &x.to_real(), |b, x| {
            let mut half = vec![Complex64::ZERO; n * plan.half_cols()];
            let mut scratch = vec![Complex64::ZERO; n];
            b.iter(|| plan.forward_real(black_box(x.as_slice()), &mut half, &mut scratch));
        });
        for workers in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("row-column-{workers}w"), n),
                &x,
                |b, x| {
                    b.iter(|| {
                        plan.forward_parallel(black_box(x), workers)
                            .expect("valid shape")
                    });
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("matmul-form", n), &x, |b, x| {
            b.iter(|| fft2d_via_matmul(black_box(x), Norm::Backward).expect("valid shape"));
        });
    }
    // The forward of a 128 x 128 image restricted to one block of side
    // `side` (32: a grid-4 occlusion; 128: the whole image, which is
    // "real-forward/128"): the row pass covers `side / 2` row pairs,
    // the column pass is whole.
    let (x, plan) = (complex_matrix(128).to_real(), Fft2d::new(128, 128));
    for side in [32usize, 128] {
        let id = BenchmarkId::new("real-forward-block", side);
        group.bench_with_input(id, &x, |b, x| {
            let mut half = vec![Complex64::ZERO; 128 * plan.half_cols()];
            let mut scratch = vec![Complex64::ZERO; 128];
            let x = black_box(x.as_slice());
            b.iter(|| plan.forward_real_block(x, 0..side, 0..side, &mut half, &mut scratch));
        });
    }
    // One served request's worth of lanes (serve-large: grid 4 of a
    // 128 x 128 input). Per transform this should cost what
    // "row-column-serial/128" does.
    let lanes = vec![complex_matrix(128); 16];
    let plan = Fft2d::new(128, 128);
    group.bench_with_input(BenchmarkId::new("batch-16", 128), &lanes, |b, lanes| {
        b.iter(|| plan.forward_batch(black_box(lanes)).expect("valid shape"));
    });
    group.finish();
}

/// One filter-diff lane at 8² and 128². `complex` is the sequence an
/// occluded score lane runs: its own 256 KB copy of `x` goes forward,
/// through the filter and back in place, and `y − re` is a fresh 128 KB
/// result. `real` is the same lane through the real-input pair: its own
/// 128 KB copy is read by `forward_real`, multiplied by the filter's
/// Hermitian part (formed once, outside the row) as a half spectrum in
/// a reused workspace, overwritten by `inverse_real` and subtracted from
/// `y` in place — no complex lift, no 256 KB copy, no result allocation.
fn bench_filter_diff_lane(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter-diff-lane");
    group.sample_size(20);
    for n in [8usize, 128] {
        let x = complex_matrix(n);
        let filter = complex_matrix(n).map(|z| z * Complex64::new(0.25, 0.5));
        let y = x.to_real();
        let plan = Fft2d::new(n, n);
        group.bench_with_input(BenchmarkId::new("complex", n), &x, |b, x| {
            b.iter(|| {
                let mut lane = black_box(x).clone();
                plan.forward_in_place(&mut lane).expect("valid shape");
                ops::hadamard_assign(&mut lane, &filter).expect("equal shapes");
                plan.inverse_in_place(&mut lane).expect("valid shape");
                ops::sub_re(&y, &lane).expect("equal shapes")
            });
        });
        let mut hermitian = vec![Complex64::ZERO; n * plan.half_cols()];
        plan.hermitian_part(&mut hermitian, &filter);
        group.bench_with_input(BenchmarkId::new("real", n), &x.to_real(), |b, x| {
            let mut half = vec![Complex64::ZERO; n * plan.half_cols()];
            let mut scratch = vec![Complex64::ZERO; n];
            b.iter(|| {
                let mut lane = black_box(x).clone();
                plan.forward_real(lane.as_slice(), &mut half, &mut scratch);
                half.iter_mut().zip(&hermitian).for_each(|(z, k)| *z *= *k);
                plan.inverse_real(&mut half, lane.as_mut_slice(), &mut scratch);
                let pairs = lane.as_mut_slice().iter_mut().zip(y.as_slice());
                pairs.for_each(|(v, y)| *v = y - *v);
                lane
            });
        });
    }
    group.finish();
}

/// One spectral score lane, as every built-in platform runs it: the norm
/// of the `filter-diff-lane/real` result for an occluded grid-2 block, taken
/// in the spectrum — the block-pruned forward of the block and one
/// Parseval sweep against the request's residual spectrum and `K_h`
/// (built once per request and once per model, outside the row). No copy of `x`, no
/// inverse transform, no difference. A grid-2 block's box is the whole
/// image, so this is the full-size lane; `full/128` and `local/128` are
/// a grid-4 block (32 × 32 of 128 × 128) on the full-size lane and on
/// its own 64 × 64 box.
fn bench_score_lane(c: &mut Criterion) {
    let mut group = c.benchmark_group("score-lane");
    group.sample_size(20);
    for n in [8usize, 128] {
        let x = complex_matrix(n).to_real();
        let filter = complex_matrix(n).map(|z| z * Complex64::new(0.25, 0.5));
        let plan = Fft2d::new(n, n);
        let cells = n * plan.half_cols();
        let (mut residual, mut hermitian) =
            (vec![Complex64::ZERO; cells], vec![Complex64::ZERO; cells]);
        let mut scratch = vec![Complex64::ZERO; n];
        plan.forward_real(x.as_slice(), &mut residual, &mut scratch);
        plan.hermitian_part(&mut hermitian, &filter);
        group.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            let mut block = vec![Complex64::ZERO; cells];
            b.iter(|| {
                let x = black_box(x.as_slice());
                plan.forward_real_block(x, 0..n / 2, n / 2..n, &mut block, &mut scratch);
                (plan.residual_energy(&residual, &block, &hermitian) / (n * n) as f64).sqrt()
            });
        });
    }
    bench_grid4_score_lane(&mut group);
    group.finish();
}

/// `score-lane/{full,local}/128`: one 32 × 32 block of a 128 × 128
/// request. `full` is the block-pruned forward on the whole image and
/// the Parseval sweep against `R̂` and `K_h`; `local` copies the block to
/// the origin of a 64 × 64 box, takes its block-pruned forward there and
/// one weighted sweep against the box's `Â` (the kernel's box-cut
/// autocorrelation, built once per model, outside the row), plus the
/// block's dot with the request's `c = r ⋆ k`.
fn bench_grid4_score_lane(group: &mut BenchmarkGroup<'_>) {
    let (n, side, l) = (128usize, 32usize, 64usize);
    let x = complex_matrix(n).to_real();
    let filter = complex_matrix(n).map(|z| z * Complex64::new(0.25, 0.5));
    let plan = Fft2d::new(n, n);
    let h = plan.half_cols();
    let (mut residual, mut hermitian) =
        (vec![Complex64::ZERO; n * h], vec![Complex64::ZERO; n * h]);
    let mut scratch = vec![Complex64::ZERO; n];
    plan.forward_real(x.as_slice(), &mut residual, &mut scratch);
    plan.hermitian_part(&mut hermitian, &filter);
    let (rows, cols) = (0..side, side..2 * side);
    group.bench_with_input(BenchmarkId::new("full", n), &x, |b, x| {
        let mut block = vec![Complex64::ZERO; n * h];
        b.iter(|| {
            let x = black_box(x.as_slice());
            plan.forward_real_block(x, rows.clone(), cols.clone(), &mut block, &mut scratch);
            (plan.residual_energy(&residual, &block, &hermitian) / (n * n) as f64).sqrt()
        });
    });
    // `a = k_h ⋆ k_h` cut to the lags |d| < l/2 of the box, transformed.
    let mut power: Vec<_> = hermitian
        .iter()
        .map(|k| Complex64::from_real(k.norm_sqr()))
        .collect();
    let mut a = vec![0.0; n * n];
    plan.inverse_real(&mut power, &mut a, &mut scratch);
    let lag = |i: usize| {
        if i < l / 2 {
            Some(i)
        } else {
            (i > l / 2).then(|| n - (l - i))
        }
    };
    let cut = Matrix::from_fn(l, l, |i, j| match (lag(i), lag(j)) {
        (Some(p), Some(q)) => a[p * n + q],
        _ => 0.0,
    })
    .expect("l > 0");
    let boxed = Fft2d::new(l, l);
    let lh = boxed.half_cols();
    let mut spectrum = vec![Complex64::ZERO; l * lh];
    boxed.forward_real(cut.as_slice(), &mut spectrum, &mut vec![Complex64::ZERO; l]);
    let weight: Vec<f64> = spectrum.iter().map(|z| z.re).collect();
    let c = x.clone();
    group.bench_with_input(BenchmarkId::new("local", n), &x, |b, x| {
        let mut ws = vec![Complex64::ZERO; l * lh + l];
        b.iter(|| {
            let x = black_box(x);
            let mut image = vec![0.0; l * l];
            for (at, r) in image.chunks_exact_mut(l).zip(rows.clone()) {
                at[..side].copy_from_slice(&x.row(r)[cols.clone()]);
            }
            let (half, scratch) = ws.split_at_mut(l * lh);
            boxed.forward_real_block(&image, 0..side, 0..side, half, scratch);
            let (q, _) = boxed.weighted_energy(half, Some(&weight));
            let cross: f64 = rows
                .clone()
                .map(|r| {
                    let (x, c) = (&x.row(r)[cols.clone()], &c.row(r)[cols.clone()]);
                    x.iter().zip(c).map(|(x, c)| x * c).sum::<f64>()
                })
                .sum();
            (2.0 * cross + q / (l * l) as f64).abs().sqrt()
        });
    });
}

criterion_group!(
    benches,
    bench_1d_algorithms,
    bench_2d_decomposition,
    bench_filter_diff_lane,
    bench_score_lane
);
criterion_main!(benches);
