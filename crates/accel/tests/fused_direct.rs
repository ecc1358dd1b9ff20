//! Differential pin of the direct score path: on every built-in
//! unqueued platform, `contribution_scores` of a request the spectrum
//! does not take — an odd row count, or a NaN or ±inf pixel — must
//! leave exactly what the staged four-kernel chain on its occlusions
//! leaves, spelled out here against a fresh instance and followed by
//! the norms: the score bits, the clock's bits and the statistics. A
//! request taken in the spectrum leaves the same clock and statistics
//! (its bits answer to a bound, `spectral_score.rs`). And
//! `filter_diff_batch` itself, on every platform, is that staged chain,
//! malformed batches included.
//!
//! Known mutations this must catch: charging the Hadamard stage before
//! the forward transforms on the CPU model (f64 sum order is part of
//! the clock's bits); applying the kernel's Hermitian part instead of
//! its spectrum on an occluded lane (the filters here are not
//! Hermitian).

use proptest::prelude::*;
use std::time::Duration;
use xai_accel::{occluded, Accelerator, CpuModel, GpuModel, PreparedKernel, Rect, TpuAccel};
use xai_tensor::ops::DivPolicy;
use xai_tensor::{Complex64, Matrix, Result};

/// Radix-2 both axes, a Bluestein shape, and the degenerate 1×1.
const SHAPES: [(usize, usize); 4] = [(1, 1), (5, 4), (8, 8), (16, 16)];
const RECT_COUNTS: [usize; 5] = [0, 1, 2, 7, 16];

type Platform = (&'static str, fn() -> Box<dyn Accelerator>);
const PLATFORMS: [Platform; 4] = [
    ("cpu", || Box::new(CpuModel::i7_3700())),
    ("gpu", || Box::new(GpuModel::gtx1080())),
    ("tpu_v2", || Box::new(TpuAccel::tpu_v2())),
    ("tpu-3-cores", || Box::new(TpuAccel::with_cores(3))),
];

/// What an input is salted with before it runs.
#[derive(Debug, Clone, Copy)]
enum Salt {
    Plain,
    /// A `-0.0` and an exact-zero block (an occluded region).
    Zeros,
    /// NaN, +inf or −inf at the centre pixel, by shape.
    NonFinite,
}

fn input(vals: &[f64], (m, n): (usize, usize), salt: Salt) -> Matrix<f64> {
    let mut x = Matrix::from_fn(m, n, |r, c| vals[(r * n + c) % vals.len()]).unwrap();
    match salt {
        Salt::Plain => {}
        Salt::Zeros => {
            for r in 0..m.div_ceil(2) {
                x.row_mut(r)[..n.div_ceil(2)].fill(0.0);
            }
            x[(m - 1, n - 1)] = -0.0;
        }
        Salt::NonFinite => {
            let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(m + n) % 3];
            x[(m / 2, n / 2)] = v;
        }
    }
    x
}

/// `count` rectangles inside an `m × n` input, of varied extent and
/// place, some covering its centre.
fn rects((m, n): (usize, usize), count: usize) -> Vec<Rect> {
    (0..count)
        .map(|j| {
            let (r, c) = ((j * 5) % m, (j * 3) % n);
            (r..(r + 1 + j % 3).min(m), c..(c + 1 + j % 2).min(n))
        })
        .collect()
}

fn filter(kvals: &[f64], (m, n): (usize, usize)) -> Matrix<Complex64> {
    Matrix::from_fn(m, n, |r, c| {
        let i = (r * n + c) % kvals.len();
        Complex64::new(kvals[i], kvals[(i + 5) % kvals.len()] * 0.5)
    })
    .unwrap()
}

fn observed(vals: &[f64], (m, n): (usize, usize)) -> Matrix<f64> {
    Matrix::from_fn(m, n, |r, c| vals[(r * n + c + 3) % vals.len()] * 1.5).unwrap()
}

/// The four batch kernels spelled out — `filter_diff_batch`'s chain,
/// written against the public kernels so it cannot move with it.
fn staged_chain(
    acc: &dyn Accelerator,
    xs: &[Matrix<Complex64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Vec<Matrix<f64>>> {
    let spectra = acc.fft2d_batch(xs)?;
    let filtered = acc.hadamard_batch(&spectra, k)?;
    let preds: Vec<Matrix<f64>> = acc
        .ifft2d_batch(&filtered)?
        .into_iter()
        .map(|p| p.to_real())
        .collect();
    acc.sub_batch(y, &preds)
}

/// [`staged_chain`] on the occlusions, then the norms.
fn run_staged(
    acc: &dyn Accelerator,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    k: &Matrix<Complex64>,
) -> Result<Vec<f64>> {
    let xs: Vec<_> = rects
        .iter()
        .map(|rect| occluded(x, rect).map(|lane| lane.to_complex()))
        .collect::<Result<_>>()?;
    let diffs = staged_chain(acc, &xs, k, y)?;
    Ok(diffs.iter().map(Matrix::frobenius_norm).collect())
}

/// Result bits per lane (shape included), or the error.
type Outcome = Result<Vec<((usize, usize), Vec<u64>)>>;

fn outcome(result: Result<Vec<Matrix<f64>>>) -> Outcome {
    result.map(|lanes| {
        lanes
            .iter()
            .map(|d| (d.shape(), d.iter().map(|v| v.to_bits()).collect()))
            .collect()
    })
}

/// Clock bits and statistics bits.
fn ledger(acc: &dyn Accelerator) -> [u64; 5] {
    let s = acc.stats();
    [
        acc.elapsed_seconds().to_bits(),
        s.seconds.to_bits(),
        s.ops.to_bits(),
        s.bytes.to_bits(),
        s.kernels,
    ]
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Scores `x` on fresh instances of every platform and against the
/// staged chain: equal ledgers always, equal bits when the request is
/// not taken in the spectrum.
fn assert_scores_equal_staged(
    case: &str,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    k: &Matrix<Complex64>,
) {
    let occluded = !x.rows().is_multiple_of(2) || x.iter().any(|v| !v.is_finite());
    for (name, make) in PLATFORMS {
        let (scored_on, staged_on) = (make(), make());
        let kernel = PreparedKernel::new(k.clone());
        let scores = scored_on.contribution_scores(x, y, rects, &kernel).unwrap();
        let staged = run_staged(staged_on.as_ref(), x, y, rects, k).unwrap();
        assert_eq!(scores.len(), staged.len(), "{name}: {case}: count");
        if occluded {
            assert_eq!(bits(&scores), bits(&staged), "{name}: {case}: bits");
        }
        assert_eq!(
            ledger(scored_on.as_ref()),
            ledger(staged_on.as_ref()),
            "{name}: {case}: ledger"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fused_direct_path_is_bit_identical_to_the_staged_chain(
        vals in proptest::collection::vec(-2.0f64..2.0, 23),
        kvals in proptest::collection::vec(-1.0f64..1.0, 19),
    ) {
        for shape in SHAPES {
            let (k, y) = (filter(&kvals, shape), observed(&vals, shape));
            for count in RECT_COUNTS {
                let rects = rects(shape, count);
                for salt in [Salt::Plain, Salt::Zeros, Salt::NonFinite] {
                    let x = input(&vals, shape, salt);
                    let case = format!("{shape:?} x {count} rectangles, {salt:?}");
                    assert_scores_equal_staged(&case, &x, &y, &rects, &k);
                }
            }
        }
    }

    /// `filter_diff_batch`, the reference the scores are held to, is
    /// the staged chain on every built-in platform: a malformed batch
    /// keeps its error value and the partial charges of the stages
    /// before the failing one.
    #[test]
    fn malformed_batches_keep_the_staged_error_and_charges(
        vals in proptest::collection::vec(-2.0f64..2.0, 23),
        kvals in proptest::collection::vec(-1.0f64..1.0, 19),
    ) {
        for shape @ (m, n) in [(5, 4), (8, 8)] {
            let odd = (m + 1, n);
            let (k, y) = (filter(&kvals, shape), observed(&vals, shape));
            let xs = lanes(&vals, shape, 7);
            let odd_lane = lanes(&vals, odd, 1).remove(0);
            for at in [0, 3, 6] {
                let mut bad = xs.clone();
                bad[at] = odd_lane.clone();
                assert_batch_equals_staged(&format!("{shape:?}: odd lane {at}"), &bad, &k, &y);
            }
            let every = lanes(&vals, odd, 7);
            assert_batch_equals_staged(&format!("{shape:?}: every lane odd"), &every, &k, &y);
            let bad_k = filter(&kvals, odd);
            assert_batch_equals_staged(&format!("{shape:?}: odd filter"), &xs, &bad_k, &y);
            let bad_y = observed(&vals, odd);
            assert_batch_equals_staged(&format!("{shape:?}: odd y"), &xs, &k, &bad_y);
            assert_batch_equals_staged(&format!("{shape:?}: empty, odd y"), &[], &k, &bad_y);
        }
    }
}

/// `filter_diff_batch` on fresh instances of every platform against
/// [`staged_chain`]: outcome and ledger.
fn assert_batch_equals_staged(
    case: &str,
    xs: &[Matrix<Complex64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) {
    for (name, make) in PLATFORMS {
        let (batch_on, staged_on) = (make(), make());
        let batch = outcome(batch_on.filter_diff_batch(xs, k, y));
        let staged = outcome(staged_chain(staged_on.as_ref(), xs, k, y));
        assert_eq!(batch, staged, "{name}: {case}: outcome");
        assert_eq!(
            ledger(batch_on.as_ref()),
            ledger(staged_on.as_ref()),
            "{name}: {case}: ledger"
        );
    }
}

/// The requests nearest the spectrum that must not take it: with an
/// odd row count a request cannot pack row pairs, so its score lanes
/// run the complex sequence on the occlusions and keep the staged
/// chain's bits and ledger.
#[test]
fn odd_row_real_lanes_keep_the_staged_bits() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.25 - 2.0).collect();
    let shape = (5, 4);
    let x = input(&vals, shape, Salt::Zeros);
    let (k, y) = (filter(&vals, shape), observed(&vals, shape));
    assert_scores_equal_staged("5x4 request", &x, &y, &rects(shape, 7), &k);
}

/// Complex lanes, every one different.
fn lanes(vals: &[f64], (m, n): (usize, usize), count: usize) -> Vec<Matrix<Complex64>> {
    (0..count)
        .map(|j| {
            Matrix::from_fn(m, n, |r, c| {
                let i = (r * n + c + 7 * j) % vals.len();
                Complex64::new(vals[i] + j as f64 * 0.1, vals[(i + 1) % vals.len()] * 0.3)
            })
            .unwrap()
        })
        .collect()
}

/// The satellite bugfix: an unqueued batch that fails charges nothing,
/// like every single-lane kernel — and so does a queued or pooled one,
/// batch or single kernel: its numerics fail on the caller's thread
/// before anything is queued.
#[test]
fn a_rejected_unqueued_batch_is_free() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.25 - 2.0).collect();
    let shape = (8, 8);
    let xs = lanes(&vals, shape, 4);
    let mut mixed = xs.clone();
    mixed[2] = lanes(&vals, (4, 8), 1).remove(0);
    let bad_k = filter(&vals, (8, 4));
    let reals: Vec<Matrix<f64>> = xs.iter().map(Matrix::to_real).collect();
    let bad_y = observed(&vals, (4, 4));
    let mut zero_den = xs[1].clone();
    zero_den[(3, 5)] = Complex64::ZERO;
    let strict = DivPolicy::Strict { tol: 1e-12 };
    let queued: [Platform; 2] = [
        ("tpu-queued", || {
            Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 8))
        }),
        ("tpu-pooled", || {
            Box::new(TpuAccel::with_pool(2, Duration::ZERO, 8))
        }),
    ];
    for (name, make) in PLATFORMS.into_iter().chain(queued) {
        let acc = make();
        let before = ledger(acc.as_ref());
        // A host model's transforms plan per lane, so only a batched
        // transform (GPU grid, TPU flight) can reject a mixed batch.
        if name != "cpu" {
            assert!(acc.fft2d_batch(&mixed).is_err(), "{name}: fft2d_batch");
            assert!(acc.ifft2d_batch(&mixed).is_err(), "{name}: ifft2d_batch");
        }
        assert!(acc.hadamard_batch(&xs, &bad_k).is_err(), "{name}");
        assert!(acc.sub_batch(&bad_y, &reals).is_err(), "{name}");
        assert!(acc.hadamard(&xs[0], &bad_k).is_err(), "{name}: hadamard");
        let div = acc.pointwise_div(&xs[0], &zero_den, strict);
        assert!(div.is_err(), "{name}: strict ÷0");
        assert_eq!(
            ledger(acc.as_ref()),
            before,
            "{name}: a failed batch charged"
        );
        assert_eq!(acc.queue_depth(), 0, "{name}: a failed kernel queued");
    }
}
