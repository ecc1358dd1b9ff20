//! Property-based tests for the Fourier library: every fast algorithm
//! must agree with the naive definition, the classic DFT theorems
//! must hold on random data, and the in-place 2-D transform must
//! reproduce the transposing formulation it replaced bit for bit.

use proptest::prelude::*;
use xai_fourier::{
    convolve2d_fft, dft, fft2d, fft2d_batch, fft2d_via_matmul, idft, ifft2d, Fft2d, FftPlan, Norm,
};
use xai_tensor::conv::conv2d_circular;
use xai_tensor::{Complex64, Matrix};

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), n).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

fn real_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()))
}

proptest! {
    #[test]
    fn plan_matches_naive_any_length(n in 1usize..48, seed_data in complex_vec(48)) {
        let x = &seed_data[..n];
        let expect = dft(x, Norm::Backward);
        let mut got = x.to_vec();
        FftPlan::new(n).forward(&mut got, Norm::Backward);
        prop_assert!(max_diff(&expect, &got) < 1e-7);
    }

    #[test]
    fn roundtrip_any_length(n in 1usize..48, seed_data in complex_vec(48)) {
        let x = &seed_data[..n];
        let plan = FftPlan::new(n);
        let mut buf = x.to_vec();
        plan.forward(&mut buf, Norm::Ortho);
        plan.inverse(&mut buf, Norm::Ortho);
        prop_assert!(max_diff(x, &buf) < 1e-8);
    }

    #[test]
    fn parseval_energy_conservation(x in complex_vec(32)) {
        let spec = dft(&x, Norm::Ortho);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((te - fe).abs() < 1e-6 * (1.0 + te));
    }

    #[test]
    fn idft_undoes_dft(x in complex_vec(20)) {
        let back = idft(&dft(&x, Norm::Backward), Norm::Backward);
        prop_assert!(max_diff(&x, &back) < 1e-8);
    }

    #[test]
    fn fft2d_roundtrip(x in real_matrix(8, 8)) {
        let c = x.to_complex();
        let back = ifft2d(&fft2d(&c).unwrap()).unwrap();
        prop_assert!(c.max_abs_diff(&back).unwrap() < 1e-8);
    }

    #[test]
    fn matmul_form_agrees_with_fft2d(x in real_matrix(6, 5)) {
        let c = x.to_complex();
        let a = fft2d(&c).unwrap();
        let b = fft2d_via_matmul(&c, Norm::Backward).unwrap();
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-7);
    }

    #[test]
    fn convolution_theorem(x in real_matrix(6, 6), k in real_matrix(6, 6)) {
        let fast = convolve2d_fft(&x, &k).unwrap();
        let direct = conv2d_circular(&x, &k).unwrap();
        prop_assert!(fast.max_abs_diff(&direct).unwrap() < 1e-7);
    }

    #[test]
    fn dft_linearity(a in complex_vec(16), b in complex_vec(16), s in -5.0f64..5.0) {
        let combined: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(s)).collect();
        let lhs = dft(&combined, Norm::Backward);
        let fa = dft(&a, Norm::Backward);
        let fb = dft(&b, Norm::Backward);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y.scale(s)).collect();
        prop_assert!(max_diff(&lhs, &rhs) < 1e-7);
    }

    #[test]
    fn batch_transform_bit_identical_to_per_matrix(
        m in 1usize..9,
        n in 1usize..9,
        b in 0usize..5,
        workers in 1usize..8,
        seed_data in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 8 * 8 * 4),
    ) {
        // Random shapes (radix-2 and Bluestein lengths), batch sizes
        // including 0 and 1, and worker counts up to well past the
        // row count: the batch entry points must reproduce per-matrix
        // transforms BIT for bit.
        let xs: Vec<Matrix<Complex64>> = (0..b)
            .map(|i| {
                Matrix::from_fn(m, n, |r, c| {
                    let (re, im) = seed_data[(i * m * n + r * n + c) % seed_data.len()];
                    Complex64::new(re, im)
                })
                .unwrap()
            })
            .collect();
        let plan = Fft2d::new(m, n);
        let per: Vec<_> = xs.iter().map(|x| plan.forward(x).unwrap()).collect();
        let fused = plan.forward_batch(&xs).unwrap();
        let sharded = plan.forward_batch_parallel(&xs, workers).unwrap();
        prop_assert_eq!(fused.len(), xs.len());
        for ((a, f), s) in per.iter().zip(&fused).zip(&sharded) {
            prop_assert_eq!(a.as_slice(), f.as_slice());
            prop_assert_eq!(a.as_slice(), s.as_slice());
        }
        // The one-shot free function agrees too.
        let free = fft2d_batch(&xs).unwrap();
        for (a, f) in per.iter().zip(&free) {
            prop_assert_eq!(a.as_slice(), f.as_slice());
        }
        // And the inverse path.
        let per_inv: Vec<_> = per.iter().map(|x| plan.inverse(x).unwrap()).collect();
        let inv = plan.inverse_batch_parallel(&per, workers).unwrap();
        for (a, i) in per_inv.iter().zip(&inv) {
            prop_assert_eq!(a.as_slice(), i.as_slice());
        }
    }

    #[test]
    fn spectrum_of_real_signal_is_hermitian(x in real_matrix(1, 24)) {
        let signal: Vec<Complex64> = x.row(0).iter().map(|&v| Complex64::from_real(v)).collect();
        let mut spec = signal.clone();
        FftPlan::new(24).forward(&mut spec, Norm::Backward);
        for k in 1..24 {
            prop_assert!((spec[k] - spec[24 - k].conj()).abs() < 1e-8);
        }
    }
}

/// The 2-D transform as it was formulated before the column pass went
/// in place: 1-D transforms of the rows, transpose, 1-D transforms of
/// the (now contiguous) columns, transpose back. Kept as the
/// reference the whole-row column kernel is held to.
fn transposing_reference(x: &Matrix<Complex64>, forward: bool) -> Matrix<Complex64> {
    let run_rows = |m: &mut Matrix<Complex64>| {
        let plan = FftPlan::new(m.cols());
        for r in 0..m.rows() {
            if forward {
                plan.forward(m.row_mut(r), Norm::Backward);
            } else {
                plan.inverse(m.row_mut(r), Norm::Backward);
            }
        }
    };
    let mut inter = x.clone();
    run_rows(&mut inter);
    let mut t = inter.transpose();
    run_rows(&mut t);
    t.transpose()
}

/// Bit equality (`==` would equate `0.0` with `-0.0`). A NaN need only
/// be a NaN in the same place: which operand's payload an add
/// propagates is the code generator's choice.
fn assert_same_bits(got: &Matrix<Complex64>, want: &Matrix<Complex64>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            same(g.re, w.re) && same(g.im, w.im),
            "{what}: element {i} is {g:?}, reference {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn in_place_transform_matches_transposing_reference_bit_for_bit(
        values in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 17 * 17),
        block in (0usize..17, 0usize..17, 1usize..9, 1usize..9),
        marks in proptest::collection::vec(0usize..17 * 17, 4),
    ) {
        // Every shape up to 17 x 17: radix-2, Bluestein and mixed
        // axes, degenerate 1 x n and m x 1 included.
        for m in 1..=17usize {
            for n in 1..=17usize {
                let (r0, c0, h, w) = block;
                let finite = Matrix::from_fn(m, n, |r, c| {
                    let i = r * n + c;
                    if (r0..r0 + h).contains(&r) && (c0..c0 + w).contains(&c) {
                        Complex64::ZERO
                    } else if i == marks[0] % (m * n) {
                        Complex64::new(-0.0, -0.0)
                    } else {
                        Complex64::new(values[i].0, values[i].1)
                    }
                })
                .unwrap();
                let mut poisoned = finite.clone();
                poisoned.as_mut_slice()[marks[1] % (m * n)].re = f64::NAN;
                poisoned.as_mut_slice()[marks[2] % (m * n)].im = f64::INFINITY;
                poisoned.as_mut_slice()[marks[3] % (m * n)].re = f64::NEG_INFINITY;

                let plan = Fft2d::new(m, n);
                for x in [finite, poisoned] {
                    let other = x.map(|z| z * Complex64::new(0.5, -2.0));
                    let pair = [x.clone(), other.clone()];
                    for forward in [true, false] {
                        let what = |name: &str| format!("{name} {m}x{n} forward={forward}");
                        let want = [
                            transposing_reference(&x, forward),
                            transposing_reference(&other, forward),
                        ];
                        let check_pair = |got: Vec<Matrix<Complex64>>, name: &str| {
                            assert_eq!(got.len(), 2, "{}", what(name));
                            assert_same_bits(&got[0], &want[0], &what(name));
                            assert_same_bits(&got[1], &want[1], &what(name));
                        };

                        let mut in_place = x.clone();
                        if forward {
                            assert_same_bits(&plan.forward(&x).unwrap(), &want[0], &what("forward"));
                            plan.forward_in_place(&mut in_place).unwrap();
                            check_pair(plan.forward_batch(&pair).unwrap(), "forward_batch");
                        } else {
                            assert_same_bits(&plan.inverse(&x).unwrap(), &want[0], &what("inverse"));
                            plan.inverse_in_place(&mut in_place).unwrap();
                            check_pair(plan.inverse_batch(&pair).unwrap(), "inverse_batch");
                        }
                        assert_same_bits(&in_place, &want[0], &what("in_place"));

                        for workers in 1..=8 {
                            let (one, both) = if forward {
                                (
                                    plan.forward_parallel(&x, workers).unwrap(),
                                    plan.forward_batch_parallel(&pair, workers).unwrap(),
                                )
                            } else {
                                (
                                    plan.inverse_parallel(&x, workers).unwrap(),
                                    plan.inverse_batch_parallel(&pair, workers).unwrap(),
                                )
                            };
                            assert_same_bits(&one, &want[0], &what(&format!("parallel w={workers}")));
                            check_pair(both, &format!("batch_parallel w={workers}"));
                        }
                    }
                }
            }
        }
    }
}

/// Every power of two the kernel plans, 1 to 4096: both parities of
/// log₂ n (a leading radix-2 stage or none) and up to six radix-4
/// stages.
const POWERS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Lengths that are not powers of two, so `FftPlan` runs Bluestein's
/// chirp-z over a power-of-two convolution: primes (3, 1 009, 4 093),
/// composites (100, 1 000, 3 000, 4 095) and 97, whose convolution
/// length 256 is barely above `2n − 1`.
const BLUESTEIN: [usize; 8] = [3, 97, 100, 1000, 1009, 3000, 4093, 4095];

/// A seeded value in `[-1, 1)` (SplitMix64 draws).
fn draw(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn seeded_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed;
    (0..n)
        .map(|_| Complex64::new(draw(&mut state), draw(&mut state)))
        .collect()
}

/// [`assert_same_bits`] on slices.
fn assert_same_slice_bits(got: &[Complex64], want: &[Complex64], what: &str) {
    let n = got.len();
    let shape = |v: &[Complex64]| Matrix::from_vec(1, n.max(1), v.to_vec()).unwrap();
    if n > 0 {
        assert_same_bits(&shape(got), &shape(want), what);
    }
}

#[test]
fn column_form_is_the_1d_form_bit_for_bit_at_every_power_of_two() {
    // Three columns: finite values with a `-0.0` and a zero block,
    // the same with NaN / ±inf planted, and an exact-zero column but
    // for one `-0.0`.
    let cols = 3;
    for n in POWERS {
        let finite = seeded_signal(n, n as u64);
        let column = |c: usize| -> Vec<Complex64> {
            (0..n)
                .map(|r| match (c, r) {
                    (_, r) if r == n / 3 => Complex64::new(-0.0, -0.0),
                    (2, _) => Complex64::ZERO,
                    (_, r) if (n / 4..n / 2).contains(&r) => Complex64::ZERO,
                    (1, r) if r == n - 1 => Complex64::new(f64::NAN, 1.0),
                    (1, r) if r == n / 2 => Complex64::new(f64::INFINITY, 0.0),
                    (1, r) if r == n / 8 && n >= 8 => Complex64::new(0.5, f64::NEG_INFINITY),
                    _ => finite[r],
                })
                .collect()
        };
        let columns: Vec<Vec<Complex64>> = (0..cols).map(column).collect();
        let data: Vec<Complex64> = (0..n * cols).map(|i| columns[i % cols][i / cols]).collect();
        let plan = FftPlan::new(n);
        for norm in [Norm::Backward, Norm::Ortho, Norm::Forward] {
            for forward in [true, false] {
                let mut got = data.clone();
                if forward {
                    plan.forward_columns(&mut got, cols, norm);
                } else {
                    plan.inverse_columns(&mut got, cols, norm);
                }
                for (c, column) in columns.iter().enumerate() {
                    let mut want = column.clone();
                    if forward {
                        plan.forward(&mut want, norm);
                    } else {
                        plan.inverse(&mut want, norm);
                    }
                    let got: Vec<Complex64> = got.iter().skip(c).step_by(cols).copied().collect();
                    let what = format!("n={n} column {c} {norm:?} forward={forward}");
                    assert_same_slice_bits(&got, &want, &what);
                }
            }
        }
    }
}

#[test]
fn sharded_transforms_are_the_serial_ones_bit_for_bit() {
    for (m, n) in [(64, 64), (128, 128), (256, 64), (512, 512)] {
        let plan = Fft2d::new(m, n);
        let signal = seeded_signal(m * n, (m * n) as u64);
        let x = Matrix::from_vec(m, n, signal).unwrap();
        let pair = [x.clone(), x.map(|z| z * Complex64::new(0.5, -2.0))];
        let forward = plan.forward(&x).unwrap();
        let inverse = plan.inverse(&x).unwrap();
        let forwards = plan.forward_batch(&pair).unwrap();
        let inverses = plan.inverse_batch(&pair).unwrap();
        for workers in 1..=8 {
            let what = |name: &str| format!("{name} {m}x{n} w={workers}");
            let got = plan.forward_parallel(&x, workers).unwrap();
            assert_same_bits(&got, &forward, &what("forward_parallel"));
            let got = plan.inverse_parallel(&x, workers).unwrap();
            assert_same_bits(&got, &inverse, &what("inverse_parallel"));
            let got = plan.forward_batch_parallel(&pair, workers).unwrap();
            for (g, w) in got.iter().zip(&forwards) {
                assert_same_bits(g, w, &what("forward_batch_parallel"));
            }
            let got = plan.inverse_batch_parallel(&pair, workers).unwrap();
            for (g, w) in got.iter().zip(&inverses) {
                assert_same_bits(g, w, &what("inverse_batch_parallel"));
            }
        }
    }
}

/// The kernel's error bound: `‖X̃ − X‖₂ ≤ C · ε · log₂ n · ‖x‖₂` for the
/// orthonormal transform (so `‖X‖₂ = ‖x‖₂`), forward and inverse, with
/// `C = 1`, against `dft` / `idft` (their own error is a few ε of
/// `‖x‖`: reduced twiddle indices, compensated sums). Measured on these
/// seeded signals, the ratio `‖X̃ − X‖₂ / (ε · log₂ n · ‖x‖₂)` is 0.55
/// at n = 2 (the orthonormal scale's rounding) and at most 0.26 above
/// it, at n = 4096 0.14; the radix-2 kernel this one replaced read 0.55,
/// at most 0.26 and 0.17.
#[test]
fn error_against_the_definition_is_within_c_eps_log_n() {
    const C: f64 = 1.0;
    let norm2 = |v: &[Complex64]| v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    for n in POWERS.into_iter().chain(BLUESTEIN) {
        let x = seeded_signal(n, 7 + n as u64);
        let plan = FftPlan::new(n);
        for inverse in [false, true] {
            let mut got = x.clone();
            if inverse {
                plan.inverse(&mut got, Norm::Ortho);
            } else {
                plan.forward(&mut got, Norm::Ortho);
            }
            let want = if inverse {
                idft(&x, Norm::Ortho)
            } else {
                dft(&x, Norm::Ortho)
            };
            let diff: Vec<Complex64> = got.iter().zip(&want).map(|(a, b)| *a - *b).collect();
            let log2_n = (n as f64).log2();
            let bound = C * f64::EPSILON * log2_n * norm2(&x);
            let err = norm2(&diff);
            assert!(
                err <= bound,
                "n={n} inverse={inverse}: error {err:e} above {bound:e} (ratio {})",
                err / (f64::EPSILON * log2_n.max(1.0) * norm2(&x))
            );
        }
    }
}
