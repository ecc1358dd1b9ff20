//! Differential pin of `Accelerator::interpret`, the interpretation
//! phase as one entry: on the CPU, the GPU, a direct and a queued
//! `TpuAccel` it must leave exactly what the composed calls leave — the
//! fit alone (`interpret` with no rectangles, the body of `fit_on`),
//! then `contribution_scores` per pair under the fitted kernel: the
//! kernel's and every score's bits, the clock's bits where the fit's
//! charges end and at the end, and the ledger. A call the composition
//! refuses — a misshapen pair, a rectangle outside the pairs' shape —
//! is refused with the same error and the same charges.
//!
//! Known mutations this must catch: scoring a pair from another pair's
//! kept spectra; charging the score lanes before the kernel's inverse
//! transform; reading `fitted_at` after the score lanes' charges;
//! refusing an outside rectangle before the fit is charged.

use std::time::Duration;
use xai_accel::{
    Accelerator, CpuModel, GpuModel, Interpretation, KernelStats, Rect, SolveStrategy, TpuAccel,
};
use xai_tensor::ops::DivPolicy;
use xai_tensor::{Matrix, TensorError};

type Pair = (Matrix<f64>, Matrix<f64>);

type Platform = (&'static str, fn() -> Box<dyn Accelerator>);
const PLATFORMS: [Platform; 4] = [
    ("cpu", || Box::new(CpuModel::i7_3700())),
    ("gpu", || Box::new(GpuModel::gtx1080())),
    ("tpu direct", || Box::new(TpuAccel::with_cores(4))),
    ("tpu queued", || {
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16))
    }),
];

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

/// `count` seeded pairs of `shape`, each `x` with a delta that keeps
/// its spectrum far from a null.
fn pairs(shape: (usize, usize), count: u64) -> Vec<Pair> {
    let pair = |i| {
        let mut x = seeded(2 * i, shape);
        x[(0, 0)] += 8.0;
        (x, seeded(2 * i + 1, shape))
    };
    (0..count).map(pair).collect()
}

/// The `grid × grid` blocks of `(m, n)`.
fn blocks((m, n): (usize, usize), grid: usize) -> Vec<Rect> {
    let (h, w) = (m / grid, n / grid);
    (0..grid * grid)
        .map(|b| {
            (
                b / grid * h..(b / grid + 1) * h,
                b % grid * w..(b % grid + 1) * w,
            )
        })
        .collect()
}

/// The cases: grid-4 blocks scored on their own boxes, grid-2 blocks
/// and a Bluestein shape scored full-size, an odd row count (complex
/// fit, occluded scores), and a NaN pixel in one pair's `x` (a NaN
/// kernel, and that pair's scores occluded).
fn cases() -> Vec<(&'static str, Vec<Pair>, Vec<Rect>)> {
    let mut poisoned = pairs((16, 16), 3);
    poisoned[1].0[(5, 9)] = f64::NAN;
    let odd_rects = vec![(0..3, 0..4), (3..7, 2..8), (6..7, 7..8)];
    vec![
        ("16x16 grid 4", pairs((16, 16), 3), blocks((16, 16), 4)),
        ("8x8 grid 2", pairs((8, 8), 2), blocks((8, 8), 2)),
        ("6x10 grid 2", pairs((6, 10), 2), blocks((6, 10), 2)),
        ("7x8", pairs((7, 8), 2), odd_rects),
        ("16x16 NaN pixel", poisoned, blocks((16, 16), 4)),
    ]
}

fn strategies() -> [SolveStrategy; 2] {
    [
        SolveStrategy::default(),
        SolveStrategy::Naive {
            policy: DivPolicy::Clamp { floor: 1e-12 },
        },
    ]
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

fn ledger(acc: &dyn Accelerator) -> (u64, KernelStats) {
    (acc.elapsed_seconds().to_bits(), acc.stats())
}

#[test]
fn interpret_is_the_fit_then_each_pairs_scores() {
    for (case, pairs, rects) in cases() {
        for strategy in strategies() {
            for (name, platform) in PLATFORMS {
                let (acc, composed) = (platform(), platform());
                let got = acc.interpret(&pairs, strategy, &rects).unwrap();
                let fit = composed.interpret(&pairs, strategy, &[]).unwrap();
                let split = composed.elapsed_seconds();
                let want: Vec<Vec<f64>> = pairs
                    .iter()
                    .map(|(x, y)| {
                        composed
                            .contribution_scores(x, y, &rects, &fit.prepared)
                            .unwrap()
                    })
                    .collect();
                let case = format!("{case}, {strategy:?}, {name}");
                assert_eq!(bits(got.kernel.iter()), bits(fit.kernel.iter()), "{case}");
                let spectrum = |fit: &Interpretation| {
                    let bins = fit.prepared.spectrum().iter();
                    bins.flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                        .collect::<Vec<_>>()
                };
                assert_eq!(spectrum(&got), spectrum(&fit), "{case}");
                assert_eq!(fit.scores, vec![Vec::<f64>::new(); pairs.len()], "{case}");
                assert_eq!(got.scores.len(), pairs.len(), "{case}");
                for (got, want) in got.scores.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "{case}");
                }
                assert_eq!(got.fitted_at.to_bits(), split.to_bits(), "{case}");
                assert_eq!(fit.fitted_at.to_bits(), split.to_bits(), "{case}");
                assert_eq!(ledger(acc.as_ref()), ledger(composed.as_ref()), "{case}");
            }
        }
    }
}

/// A pair of another shape fails the fit, which charges nothing; a
/// rectangle outside the pairs' shape is refused as the composition's
/// first `contribution_scores` refuses it, after the fit's charges.
#[test]
fn a_refused_interpretation_charges_what_the_composition_charges() {
    let good = pairs((8, 8), 2);
    let mut misshapen = good.clone();
    misshapen[1].1 = seeded(9, (8, 6));
    let rects = blocks((8, 8), 2);
    let outside: Vec<Rect> = vec![(0..4, 0..4), (6..9, 0..2)];
    for strategy in strategies() {
        for (name, platform) in PLATFORMS {
            let (acc, composed) = (platform(), platform());
            let got = acc.interpret(&misshapen, strategy, &rects).unwrap_err();
            let want = composed.interpret(&misshapen, strategy, &[]).unwrap_err();
            let mismatch = TensorError::ShapeMismatch {
                left: (8, 6),
                right: (8, 8),
                op: "distillation pair shape",
            };
            assert_eq!((&got, &want), (&mismatch, &mismatch), "{name}");
            assert_eq!(ledger(acc.as_ref()), ledger(platform().as_ref()), "{name}");
            assert_eq!(ledger(composed.as_ref()), ledger(acc.as_ref()), "{name}");

            let got = acc.interpret(&good, strategy, &outside).unwrap_err();
            let fit = composed.interpret(&good, strategy, &[]).unwrap();
            let (x, y) = &good[0];
            let want = composed
                .contribution_scores(x, y, &outside, &fit.prepared)
                .unwrap_err();
            assert_eq!(got, want, "{name}");
            assert_eq!(ledger(acc.as_ref()), ledger(composed.as_ref()), "{name}");
        }
    }
}
