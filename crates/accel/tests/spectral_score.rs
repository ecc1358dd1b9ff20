//! Contribution scores on the built-in platforms
//! (`Accelerator::contribution_scores`: score lanes, taken in the
//! spectrum or on the occlusion) against the lane route they are held
//! to — occlude, lift, `filter_diff_batch`'s staged chain, Frobenius
//! norm — under the interpretation-phase numerics contract
//! (`filter_diff.rs` module header): point 3's bound on the score,
//! points 1 and 2's route identity, point 5's untouched charges.
//!
//! Known mutations this must catch: weighting the self-conjugate
//! columns twice (or column `n/2` of an odd width once); packing the
//! rectangle's rows from row 0 instead of `r0`; leaving the rows of the
//! half spectrum outside the rectangle unzeroed between lanes (the
//! workspace is reused); multiplying by the filter's kept columns
//! instead of its Hermitian part `K_h` (the filters here are not
//! Hermitian); mirroring bin `k` onto `n − k − 1` in the real-input
//! unpack; dropping the all-finite test on `x` (every score of a
//! poisoned request turns NaN); charging a score lane anything but the
//! fused chain of its shape (unqueued; a queued lane's charge is pinned
//! in `tpu_accel`'s unit tests); dropping the cancellation guard of the
//! block-local score (a block whose occlusion explains `y` scores far
//! past the bound); keying the prepared kernel's box cells by anything
//! but the box shape (a shared kernel then scores one box against
//! another's window).

use proptest::prelude::*;
use std::time::{Duration, Instant};
use xai_accel::{Accelerator, CpuModel, GpuModel, KernelStats, PreparedKernel, Rect, TpuAccel};
use xai_tensor::conv::conv2d_circular;
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::{DevicePool, FaultPlan, TpuConfig};

/// The constant of contract point 3, as `filter_diff.rs` states it.
const C: f64 = 2.0;

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

/// Even-row shapes: degenerate, odd-column, Bluestein (6, 10, 3),
/// radix-2, tall, the `serve-large` shape.
const SHAPES: [(usize, usize); 6] = [(2, 1), (4, 3), (6, 10), (8, 8), (16, 4), (128, 128)];

/// The reference of `Accelerator::contribution_scores` on `acc`, the
/// lane route: refuse what every platform refuses before anything is
/// charged, then occlude `x` once per rectangle, lift the copies to
/// complex, run `filter_diff_batch` — the staged chain, its charges —
/// with the kernel's spectrum and take each difference's Frobenius norm.
fn lane_route(
    acc: &dyn Accelerator,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &PreparedKernel,
) -> Result<Vec<f64>> {
    if rects.is_empty() {
        return Ok(Vec::new());
    }
    let lanes = rects
        .iter()
        .map(|rect| xai_accel::occluded(x, rect).map(|lane| lane.to_complex()))
        .collect::<Result<Vec<_>>>()?;
    let shape = x.shape();
    for (operand, op) in [
        (y.shape(), "observed output"),
        (kernel.spectrum().shape(), "kernel"),
    ] {
        if operand != shape {
            return Err(TensorError::ShapeMismatch {
                left: operand,
                right: shape,
                op,
            });
        }
    }
    let diffs = acc.filter_diff_batch(&lanes, kernel.spectrum(), y)?;
    Ok(diffs.iter().map(Matrix::frobenius_norm).collect())
}

/// The three unqueued platforms, a queued chip, a 4-chip pool, and that
/// pool retrying transiently faulted shards.
type Placement = (&'static str, fn() -> Box<dyn Accelerator>);
const PLACEMENTS: [Placement; 6] = [
    ("cpu", || Box::new(CpuModel::i7_3700())),
    ("gpu", || Box::new(GpuModel::gtx1080())),
    ("tpu_v2", || Box::new(TpuAccel::tpu_v2())),
    ("queued tpu", || {
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16))
    }),
    ("pooled tpu", || Box::new(pool_of_four(None))),
    ("faulted pool", || {
        Box::new(pool_of_four(Some(transient_faults())))
    }),
];

fn transient_faults() -> FaultPlan {
    FaultPlan::seeded(5).transient(0.3).with_retry_budget(30)
}

fn pool_of_four(plan: Option<FaultPlan>) -> TpuAccel {
    let pool = DevicePool::new(TpuConfig::small_test(), 4);
    if let Some(plan) = plan {
        pool.install_fault_plan(plan);
    }
    TpuAccel::over_pool(pool, Duration::ZERO, 16)
}

/// The fixed value table the non-proptest cases draw from.
fn fixed_vals() -> Vec<f64> {
    (0..23).map(|i| i as f64 * 0.17 - 1.9).collect()
}

/// An input with an exact-zero block in its top-left quarter (a region
/// whose occlusion changes nothing) and a `-0.0`. `vals` is cycled
/// under a second, incommensurate pattern: on a purely periodic image
/// the squares a norm sums round the same way every period, and the
/// *reference's* serial `frobenius_norm` drifts (see
/// `the_spectral_score_is_within_the_bound_of_the_exactly_summed_norm`).
fn input(vals: &[f64], (m, n): (usize, usize)) -> Matrix<f64> {
    let mut x = Matrix::from_fn(m, n, |r, c| {
        vals[(r * n + c) % vals.len()] + ((r * 31 + c * 17) % 101) as f64 * 1e-3
    })
    .unwrap();
    for r in 0..m / 2 {
        x.row_mut(r)[..n / 2].fill(0.0);
    }
    x[(m - 1, n - 1)] = -0.0;
    x
}

/// A general complex filter: not Hermitian.
fn filter(kvals: &[f64], (m, n): (usize, usize)) -> Matrix<Complex64> {
    Matrix::from_fn(m, n, |r, c| {
        let i = (r * n + c) % kvals.len();
        Complex64::new(kvals[i], kvals[(i + 5) % kvals.len()] * 0.5)
    })
    .unwrap()
}

fn observed(vals: &[f64], (m, n): (usize, usize)) -> Matrix<f64> {
    Matrix::from_fn(m, n, |r, c| {
        vals[(r * n + c + 3) % vals.len()] * 1.5 + ((r * 13 + c * 29) % 97) as f64 * 1e-3
    })
    .unwrap()
}

/// `(x, filter, y)` of one shape from one value table.
fn operands(vals: &[f64], shape: (usize, usize)) -> (Matrix<f64>, Matrix<Complex64>, Matrix<f64>) {
    (
        input(vals, shape),
        filter(vals, shape),
        observed(vals, shape),
    )
}

/// `x` with `rect` zeroed: the lane `lane_route` builds.
fn occluded(x: &Matrix<f64>, (rows, cols): &Rect) -> Matrix<f64> {
    let mut lane = x.clone();
    for r in rows.clone() {
        lane.row_mut(r)[cols.clone()].fill(0.0);
    }
    lane
}

/// `√Σ v²` by compensated (Neumaier) summation: the norm to the ulp.
fn exact_norm(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut lost) = (0.0f64, 0.0f64);
    for sq in values.map(|v| v * v) {
        let next = sum + sq;
        lost += if sum >= sq {
            (sum - next) + sq
        } else {
            (sq - next) + sum
        };
        sum = next;
    }
    (sum + lost).sqrt()
}

/// What `Region::{Element, Row, Column, Block}` come to on an `m × n`
/// input: corners, an odd first row, an odd height, the all-zero block,
/// the whole image, nothing.
fn rects((m, n): (usize, usize)) -> Vec<Rect> {
    vec![
        (0..1, 0..1),
        (m - 1..m, n - 1..n),
        (m / 2..m / 2 + 1, 0..n),
        (0..m, n / 2..n / 2 + 1),
        (1..m, 0..n.div_ceil(2)),
        (m / 2 - 1..(m / 2 + 2).min(m), n / 2..n),
        (0..m / 2, 0..n / 2),
        (0..m, 0..n),
        (1..1, 0..0),
    ]
}

/// Contract point 3's bound on one score:
/// `C · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)`.
fn bound(x: &Matrix<f64>, k: &Matrix<Complex64>, y: &Matrix<f64>) -> f64 {
    let k_max = k.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let scale = k_max * x.frobenius_norm() + y.frobenius_norm();
    C * f64::EPSILON * (2.0 * x.len() as f64).log2() * scale
}

/// `k` prepared afresh: what a request that shares no kernel scores
/// with.
fn prepared(k: &Matrix<Complex64>) -> PreparedKernel {
    PreparedKernel::new(k.clone())
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn ledger(acc: &dyn Accelerator) -> (u64, KernelStats) {
    (acc.elapsed_seconds().to_bits(), acc.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (a) Point 3 for the score: on every even-row shape and every
    /// kind of rectangle the spectral score is within the bound of the
    /// lane route's on the same platform; odd rows — 5 × 4, 5 × 3,
    /// 3 × 3, 1 × 5 — keep the lane route's bits (point 2).
    #[test]
    fn spectral_scores_are_within_the_bound_of_the_lane_route(
        vals in proptest::collection::vec(-2.0f64..2.0, 23),
        kvals in proptest::collection::vec(-1.0f64..1.0, 19),
    ) {
        for (s, shape) in SHAPES.into_iter().enumerate() {
            let (name, make) = PLACEMENTS[s % PLACEMENTS.len()];
            let (x, k, y) = (input(&vals, shape), filter(&kvals, shape), observed(&vals, shape));
            let rects = rects(shape);
            let spectral = make().contribution_scores(&x, &y, &rects, &prepared(&k)).unwrap();
            let lanes = lane_route(make().as_ref(), &x, &y, &rects, &prepared(&k)).unwrap();
            let limit = bound(&x, &k, &y);
            for (j, (s, l)) in spectral.iter().zip(&lanes).enumerate() {
                prop_assert!(
                    (s - l).abs() <= limit,
                    "{}: {:?} rect {:?}: |{:e} - {:e}| > {:e}", name, shape, rects[j], s, l, limit
                );
            }
        }
        // Odd × even, odd × odd, a single row.
        let odd_rects = [
            rects((4, 4)).into_iter().chain([(4..5, 0..4)]).collect(),
            rects((5, 3)),
            rects((3, 3)),
            vec![(0..1, 0..1), (0..1, 4..5), (0..1, 1..4), (0..1, 0..5), (0..0, 0..0)],
        ];
        for (shape, rects) in [(5, 4), (5, 3), (3, 3), (1, 5)].into_iter().zip(odd_rects) {
            let rects: Vec<Rect> = rects;
            let (x, k, y) = (input(&vals, shape), filter(&kvals, shape), observed(&vals, shape));
            for (name, make) in PLACEMENTS {
                let odd = make().contribution_scores(&x, &y, &rects, &prepared(&k)).unwrap();
                let lanes = lane_route(make().as_ref(), &x, &y, &rects, &prepared(&k)).unwrap();
                prop_assert_eq!(bits(&odd), bits(&lanes), "{}: {:?} keeps the lane route", name, shape);
            }
        }
    }
}

/// (b) Points 1 and 5: a score's bits do not depend on the platform,
/// the queue, the pool, a retried shard or the request it rides with.
/// Every unqueued placement is left with the clock and statistics the
/// lane route (the staged chain) leaves it; every queued one — one score
/// flight where the staged chain flies four — with those of the same
/// request forced onto occluded operands by one NaN pixel.
#[test]
fn scores_are_route_independent_and_charged_as_their_lanes() {
    let vals = fixed_vals();
    for shape in [(6, 10), (16, 16), (128, 128)] {
        let (x, k, y) = operands(&vals, shape);
        let rects = rects(shape);
        let reference = bits(
            &TpuAccel::tpu_v2()
                .contribution_scores(&x, &y, &rects, &prepared(&k))
                .unwrap(),
        );
        let mut poisoned = x.clone();
        poisoned[(0, 0)] = f64::NAN;
        // The first three placements are unqueued.
        for (p, (name, make)) in PLACEMENTS.into_iter().enumerate() {
            let spectral_on = make();
            let spectral = spectral_on
                .contribution_scores(&x, &y, &rects, &prepared(&k))
                .unwrap();
            let lanes_on: Box<dyn Accelerator> = if p < 3 {
                let lanes_on = make();
                lane_route(lanes_on.as_ref(), &x, &y, &rects, &prepared(&k)).unwrap();
                lanes_on
            } else {
                let occluded_on = make();
                occluded_on
                    .contribution_scores(&poisoned, &y, &rects, &prepared(&k))
                    .unwrap();
                occluded_on
            };
            assert_eq!(bits(&spectral), reference, "{name}: {shape:?}");
            assert_eq!(
                ledger(spectral_on.as_ref()),
                ledger(lanes_on.as_ref()),
                "{name}: {shape:?}: ledger"
            );
            // One rectangle alone is the same lane.
            for (j, rect) in rects.iter().enumerate().step_by(4) {
                let one = make()
                    .contribution_scores(&x, &y, std::slice::from_ref(rect), &prepared(&k))
                    .unwrap();
                assert_eq!(bits(&one), reference[j..=j], "{name}: {shape:?} lane {j}");
            }
        }
    }
    // The faulted pool does retry: the identity above covered the retry
    // clone of a score lane, not only first attempts.
    let faulted = pool_of_four(Some(transient_faults()));
    let shape = (8, 8);
    let (x, k, y) = operands(&vals, shape);
    let rects: Vec<Rect> = (0..16)
        .map(|b| (b / 4 * 2..b / 4 * 2 + 2, b % 4 * 2..b % 4 * 2 + 2))
        .collect();
    let want = bits(
        &CpuModel::i7_3700()
            .contribution_scores(&x, &y, &rects, &prepared(&k))
            .unwrap(),
    );
    for _ in 0..3 {
        let got = faulted
            .contribution_scores(&x, &y, &rects, &prepared(&k))
            .unwrap();
        assert_eq!(bits(&got), want);
    }
    let retries = faulted.pool().expect("pooled").fault_stats().retries;
    assert!(retries > 0, "seed 5 at 0.3 must fault at least one shard");
}

/// Two requests' score lanes coalesce into one flight and each gets
/// its own scores back.
#[test]
fn two_requests_ride_one_flight() {
    let started = Instant::now();
    let vals = fixed_vals();
    let shape = (8, 8);
    let (k, y) = (filter(&vals, shape), observed(&vals, shape));
    let (x0, x1) = (input(&vals, shape), input(&vals[3..], shape));
    let rects = &rects(shape)[..4];
    let alone = |x: &Matrix<f64>| {
        bits(
            &TpuAccel::tpu_v2()
                .contribution_scores(x, &y, rects, &prepared(&k))
                .unwrap(),
        )
    };
    // max_lanes equals both requests' total: the flight leaves the
    // moment both are in (the long window is the straggler guard).
    let acc = TpuAccel::tpu_v2().with_batching(Duration::from_secs(60), 8);
    let (s0, s1) = std::thread::scope(|scope| {
        let s0 = scope.spawn(|| acc.contribution_scores(&x0, &y, rects, &prepared(&k)));
        let s1 = scope.spawn(|| acc.contribution_scores(&x1, &y, rects, &prepared(&k)));
        (s0.join().unwrap().unwrap(), s1.join().unwrap().unwrap())
    });
    assert_eq!(acc.stats().kernels, 1, "both requests rode one flight");
    assert_eq!((bits(&s0), bits(&s1)), (alone(&x0), alone(&x1)));
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
}

/// (c) Both routes against the O(N²) definition, on an exact fit
/// (`y = x ∗ k` in small integers, so `‖y − x′ ∗ k‖_F` is exact in
/// `f64` up to its last square root): every score of either route is
/// within the bound of it. That is all that holds: the lane route
/// subtracts two nearly equal images per region and the spectral one
/// two nearly equal spectra per request, and neither is the closer
/// (observed, in ulps of the score: 8×8 element 0.6 spectral / 10 lane,
/// 64×64 element 25 / 4; every block within 2 on both).
#[test]
fn on_an_exact_fit_both_routes_are_within_the_bound_of_the_definition() {
    for shape @ (m, n) in [(4, 3), (6, 10), (8, 8), (16, 4), (32, 32)] {
        let x = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0).unwrap();
        let k = Matrix::from_fn(m, n, |r, c| ((r + c * 2) % 5) as f64 - 1.0).unwrap();
        let y = conv2d_circular(&x, &k).unwrap();
        let spectrum = xai_fourier::fft2d(&k.to_complex()).unwrap();
        let rects = rects(shape);
        let limit = bound(&x, &spectrum, &y);
        let spectral = CpuModel::i7_3700()
            .contribution_scores(&x, &y, &rects, &prepared(&spectrum))
            .unwrap();
        let lanes = lane_route(&CpuModel::i7_3700(), &x, &y, &rects, &prepared(&spectrum)).unwrap();
        for (j, rect) in rects.iter().enumerate() {
            let pred = conv2d_circular(&occluded(&x, rect), &k).unwrap();
            let exact = exact_norm(y.iter().zip(pred.iter()).map(|(y, p)| y - p));
            for (route, got) in [("spectral", spectral[j]), ("lane", lanes[j])] {
                let err = (got - exact).abs();
                assert!(
                    err <= limit,
                    "{shape:?} {rect:?}: {route} {err:e} > {limit:e}"
                );
            }
        }
    }
}

/// Point 3 on the data that is hardest on the *reference*: a period-23
/// image, whose squares round the same way every period, so the serial
/// `frobenius_norm` the lane route ends in drifts (70 ε·s at 128² for
/// the whole-image rectangle, past the bound). The spectral score is
/// within the bound of the norm of the lane route's own difference,
/// exactly summed.
#[test]
fn the_spectral_score_is_within_the_bound_of_the_exactly_summed_norm() {
    let vals = fixed_vals();
    for shape @ (m, n) in [(16, 16), (64, 64), (128, 128)] {
        let x = Matrix::from_fn(m, n, |r, c| vals[(r * n + c) % vals.len()]).unwrap();
        let y = Matrix::from_fn(m, n, |r, c| vals[(r * n + c + 3) % vals.len()] * 1.5).unwrap();
        let k = filter(&vals, shape);
        let rects = rects(shape);
        let acc = CpuModel::i7_3700();
        let spectral = acc
            .contribution_scores(&x, &y, &rects, &prepared(&k))
            .unwrap();
        let lanes: Vec<_> = rects
            .iter()
            .map(|rect| occluded(&x, rect).to_complex())
            .collect();
        let diffs = acc.filter_diff_batch(&lanes, &k, &y).unwrap();
        let limit = bound(&x, &k, &y);
        for ((s, d), rect) in spectral.iter().zip(&diffs).zip(&rects) {
            let err = (s - exact_norm(d.iter().copied())).abs();
            assert!(err <= limit, "{shape:?} {rect:?}: {err:e} > {limit:e}");
        }
    }
}

/// Point 3 where a block-local score cancels: `y = x′_b ∗ k` for one
/// grid-4 block `b`, so `s_b ≈ 0` is what is left of `‖r‖² + q_b ≈ 2 q_b`
/// less `2 |⟨c, x_b⟩| ≈ 2 q_b`. The guard sends that block to the
/// full-size lane; every score, the cancelled one included, is within the
/// bound of the lane route and of the exactly summed norm of the lane
/// route's difference, on every placement. Unguarded, the residue of the
/// cancellation rounds negative (block 10: a NaN score) or positive
/// (block 2 at 16²: ≈ 10⁵ times the bound).
#[test]
fn a_cancelled_block_is_within_the_bound() {
    let vals = fixed_vals();
    for (m, cancelled) in [(16, 2), (16, 10), (128, 2), (128, 10)] {
        let shape = (m, m);
        let x = input(&vals, shape);
        let kernel = Matrix::from_fn(m, m, |r, c| ((r * 3 + c * 7) % 11) as f64 * 0.125 - 0.5);
        let kernel = kernel.unwrap();
        let k = xai_fourier::fft2d(&kernel.to_complex()).unwrap();
        let side = m / 4;
        let rects: Vec<Rect> = (0..16)
            .map(|b| {
                (
                    b / 4 * side..(b / 4 + 1) * side,
                    b % 4 * side..(b % 4 + 1) * side,
                )
            })
            .collect();
        let y = xai_fourier::convolve2d_fft(&occluded(&x, &rects[cancelled]), &kernel).unwrap();
        let limit = bound(&x, &k, &y);
        let lanes: Vec<_> = rects
            .iter()
            .map(|rect| occluded(&x, rect).to_complex())
            .collect();
        let diffs = CpuModel::i7_3700()
            .filter_diff_batch(&lanes, &k, &y)
            .unwrap();
        for (name, make) in PLACEMENTS {
            let scores = make()
                .contribution_scores(&x, &y, &rects, &prepared(&k))
                .unwrap();
            let lanes = lane_route(make().as_ref(), &x, &y, &rects, &prepared(&k)).unwrap();
            let at = format!("{name}: {m}² cancelling block {cancelled}");
            assert!(scores[cancelled] <= limit, "{at}: {:e}", scores[cancelled]);
            for (j, (s, l)) in scores.iter().zip(&lanes).enumerate() {
                let exact = exact_norm(diffs[j].iter().copied());
                for (what, reference) in [("lane route", *l), ("exact", exact)] {
                    let err = (s - reference).abs();
                    assert!(
                        err <= limit,
                        "{at}: block {j} vs {what}: {err:e} > {limit:e}"
                    );
                }
            }
        }
    }
}

/// (d) Point 4 for the score. A NaN or ±inf pixel is one an occlusion
/// may remove, which the spectrum's `X − B_r` cannot: such a request
/// takes occluded operands and keeps the lane route's bits on every
/// placement — the score of a rectangle covering the pixel stays
/// finite, every other is not. A non-finite
/// `y` or `filter` leaves no finite score on either route.
#[test]
fn non_finite_operands_poison_what_the_lane_route_poisons() {
    let vals = fixed_vals();
    let finite = |scores: &[f64]| scores.iter().map(|s| s.is_finite()).collect::<Vec<_>>();
    for shape @ (m, n) in [(4, 3), (8, 8), (16, 4)] {
        let (k, y) = (filter(&vals, shape), observed(&vals, shape));
        let rects = rects(shape);
        let at = (m / 2, n / 2);
        let covers = |(rows, cols): &Rect| rows.contains(&at.0) && cols.contains(&at.1);
        let expected: Vec<bool> = rects.iter().map(covers).collect();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = input(&vals, shape);
            x[at] = v;
            for (name, make) in PLACEMENTS {
                let got = make()
                    .contribution_scores(&x, &y, &rects, &prepared(&k))
                    .unwrap();
                let lanes = lane_route(make().as_ref(), &x, &y, &rects, &prepared(&k)).unwrap();
                assert_eq!(bits(&got), bits(&lanes), "{name}: {shape:?} {v} in x");
                assert_eq!(finite(&got), expected, "{name}: {shape:?} {v} in x");
            }
            let x = input(&vals, shape);
            let (mut bad_y, mut bad_k) = (y.clone(), k.clone());
            bad_y[at] = v;
            bad_k[(m - 1, n - 1)] = Complex64::new(1.0, v);
            for (name, make) in &PLACEMENTS[..4] {
                for (what, y, k) in [("y", &bad_y, &k), ("filter", &y, &bad_k)] {
                    let got = make()
                        .contribution_scores(&x, y, &rects, &prepared(k))
                        .unwrap();
                    let lanes = lane_route(make().as_ref(), &x, y, &rects, &prepared(k)).unwrap();
                    let any = got.iter().chain(&lanes).any(|s| s.is_finite());
                    assert!(!any, "{name}: {shape:?} {v} in {what}: {got:?} / {lanes:?}");
                }
            }
        }
    }
}

/// Misshapen requests fail as the lane route fails them: a `y` or filter
/// not of `x`'s shape, like a stray rectangle, is refused before
/// anything is submitted or charged.
#[test]
fn rejected_requests_fail_as_the_lane_route_fails_them() {
    let vals = fixed_vals();
    let shape @ (m, n) = (8, 8);
    let (x, k, y) = operands(&vals, shape);
    let rects = rects(shape);
    let (short_y, wide_k) = (observed(&vals, (m - 2, n)), filter(&vals, (m, n + 2)));
    for (name, make) in PLACEMENTS {
        for (what, y, k) in [("y", &short_y, &k), ("filter", &y, &wide_k)] {
            let (spectral_on, lanes_on) = (make(), make());
            let got = spectral_on.contribution_scores(&x, y, &rects, &prepared(k));
            let want = lane_route(lanes_on.as_ref(), &x, y, &rects, &prepared(k));
            assert!(got.is_err(), "{name}: misshapen {what}");
            assert_eq!(got, want, "{name}: misshapen {what}");
            assert_eq!(
                ledger(spectral_on.as_ref()),
                ledger(lanes_on.as_ref()),
                "{name}"
            );
        }
        for stray in [(0..m + 1, 0..n), (0..m, n..n + 1), (0..usize::MAX, 0..1)] {
            let acc = make();
            let with_stray = [rects[0].clone(), stray];
            let err = acc
                .contribution_scores(&x, &y, &with_stray, &prepared(&k))
                .unwrap_err();
            assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{name}");
            assert_eq!(acc.stats().kernels, 0, "{name}: charged a refused request");
        }
        assert_eq!(
            make().contribution_scores(&x, &y, &[], &prepared(&k)),
            Ok(Vec::new())
        );
    }
}

/// The grid-`g` blocks of an `m × n` image, row-major.
fn blocks((m, n): (usize, usize), g: usize) -> Vec<Rect> {
    let (h, w) = (m / g, n / g);
    (0..g * g)
        .map(|b| (b / g * h..(b / g + 1) * h, b % g * w..(b % g + 1) * w))
        .collect()
}

/// One prepared kernel shared by every request — sequential requests
/// with different `x` and `y`, rectangle sets whose boxes fill several
/// of its cells, and two threads that first touch the same boxes
/// together — leaves every score's bits, and every ledger, where a
/// kernel prepared afresh for each request leaves them, on every
/// placement.
#[test]
fn a_shared_prepared_kernel_scores_as_a_fresh_one() {
    let vals = fixed_vals();
    let shape @ (m, n) = (32, 32);
    let k = filter(&vals, shape);
    // Boxes 16², 8², every shape `rects` gives, 64 × 2, 2 × 64, 8 × 64
    // and one as large as the image (the full-size lane).
    let rect_sets = [
        blocks(shape, 4),
        blocks(shape, 8),
        rects(shape),
        vec![
            (0..m, 0..1),
            (3..4, 0..n),
            (5..9, 2..30),
            (0..m / 2, 1..n / 2),
        ],
    ];
    let requests = [
        (input(&vals, shape), observed(&vals, shape)),
        (input(&vals[5..], shape), observed(&vals[2..], shape)),
    ];
    for (name, make) in PLACEMENTS {
        let (shared_on, fresh_on) = (make(), make());
        let shared = prepared(&k);
        for (s, rects) in rect_sets.iter().enumerate() {
            for (r, (x, y)) in requests.iter().enumerate() {
                let got = shared_on.contribution_scores(x, y, rects, &shared).unwrap();
                let want = fresh_on
                    .contribution_scores(x, y, rects, &prepared(&k))
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "{name}: set {s}, request {r}");
            }
        }
        assert_eq!(
            ledger(shared_on.as_ref()),
            ledger(fresh_on.as_ref()),
            "{name}"
        );
    }
    // Two requests meet a kernel no request has touched, at once.
    let rects = blocks(shape, 4);
    let (x0, y0) = &requests[0];
    let (x1, y1) = &requests[1];
    for (name, make) in PLACEMENTS {
        let want = |x, y| {
            bits(
                &make()
                    .contribution_scores(x, y, &rects, &prepared(&k))
                    .unwrap(),
            )
        };
        let (acc, shared) = (make(), prepared(&k));
        let start = std::sync::Barrier::new(2);
        let score = |x, y| {
            start.wait();
            acc.contribution_scores(x, y, &rects, &shared).unwrap()
        };
        let (s0, s1) = std::thread::scope(|scope| {
            let s0 = scope.spawn(|| score(x0, y0));
            let s1 = scope.spawn(|| score(x1, y1));
            (s0.join().unwrap(), s1.join().unwrap())
        });
        assert_eq!(bits(&s0), want(x0, y0), "{name}: first thread");
        assert_eq!(bits(&s1), want(x1, y1), "{name}: second thread");
    }
}

/// Non-radix-2 images whose grid-4 blocks are scored on radix-2 boxes:
/// a 96² image (a Bluestein transform) has 24² blocks on 64² boxes, a
/// 48² one 12² blocks on 32² boxes. On an exact fit (`y = x ∗ k` in
/// small integers) every score, on every placement, is within contract
/// point 3's bound of the lane route and of the definition — the norm of
/// `x_b ∗ k`, the block alone filtered, exactly summed.
#[test]
fn blocks_of_bluestein_images_are_scored_on_their_boxes_within_the_bound() {
    for shape @ (m, n) in [(96, 96), (48, 48)] {
        let x = Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0).unwrap();
        let k = Matrix::from_fn(m, n, |r, c| ((r + c * 2) % 5) as f64 - 1.0).unwrap();
        let y = conv2d_circular(&x, &k).unwrap();
        let spectrum = xai_fourier::fft2d(&k.to_complex()).unwrap();
        let rects = blocks(shape, 4);
        let limit = bound(&x, &spectrum, &y);
        // `x_b ∗ k` over the block's cells alone: integers, exact.
        let definition = |(rows, cols): &Rect| {
            let mut out = vec![0.0; m * n];
            for (p, q) in rows.clone().flat_map(|p| cols.clone().map(move |q| (p, q))) {
                for (i, v) in out.iter_mut().enumerate() {
                    let (r, c) = ((i / n + m - p) % m, (i % n + n - q) % n);
                    *v += x[(p, q)] * k[(r, c)];
                }
            }
            exact_norm(out.into_iter())
        };
        let exact: Vec<f64> = rects.iter().map(definition).collect();
        for (name, make) in PLACEMENTS {
            let scores = make()
                .contribution_scores(&x, &y, &rects, &prepared(&spectrum))
                .unwrap();
            let lanes = lane_route(make().as_ref(), &x, &y, &rects, &prepared(&spectrum)).unwrap();
            for (j, s) in scores.iter().enumerate() {
                for (what, reference) in [("lane route", lanes[j]), ("definition", exact[j])] {
                    let err = (s - reference).abs();
                    assert!(
                        err <= limit,
                        "{name}: {shape:?} block {j} vs {what}: {err:e} > {limit:e}"
                    );
                }
            }
        }
    }
}
