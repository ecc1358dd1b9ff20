//! Differential pin of the fused direct path: on every built-in
//! unqueued platform, `filter_diff_batch` (lanes fused in place and
//! sharded over the host pool, staged charges replayed) must leave
//! exactly what the staged four-kernel chain — spelled out here
//! against a fresh instance, the `run_staged` pattern of
//! `fused_flight.rs` — leaves: the result bits, the clock's bits, the
//! statistics, and for a malformed batch the error value and the
//! partial charges.
//!
//! Known mutations this must catch: charging the Hadamard stage before
//! the forward transforms on the CPU model (f64 sum order is part of
//! the clock's bits); reusing a group's working buffer without copying
//! the next lane into it.

use proptest::prelude::*;
use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
use xai_tensor::{Complex64, Matrix, Result};

/// Radix-2 both axes, a Bluestein shape, and the degenerate 1×1.
const SHAPES: [(usize, usize); 4] = [(1, 1), (5, 4), (8, 8), (16, 16)];
const LANE_COUNTS: [usize; 5] = [0, 1, 2, 7, 16];

type Platform = (&'static str, fn() -> Box<dyn Accelerator>);
const PLATFORMS: [Platform; 4] = [
    ("cpu", || Box::new(CpuModel::i7_3700())),
    ("gpu", || Box::new(GpuModel::gtx1080())),
    ("tpu_v2", || Box::new(TpuAccel::tpu_v2())),
    ("tpu-3-cores", || Box::new(TpuAccel::with_cores(3))),
];

/// What an input set is salted with before it runs.
#[derive(Debug, Clone, Copy)]
enum Salt {
    Plain,
    /// A `-0.0` and an exact-zero block (an occluded region).
    Zeros,
    /// NaN, +inf and −inf, each in a lane of its own where there is one.
    NonFinite,
}

fn lanes(vals: &[f64], (m, n): (usize, usize), count: usize, salt: Salt) -> Vec<Matrix<Complex64>> {
    let mut xs: Vec<Matrix<Complex64>> = (0..count)
        .map(|j| {
            Matrix::from_fn(m, n, |r, c| {
                let i = (r * n + c + 7 * j) % vals.len();
                Complex64::new(vals[i] + j as f64 * 0.1, vals[(i + 1) % vals.len()] * 0.3)
            })
            .unwrap()
        })
        .collect();
    for (j, x) in xs.iter_mut().enumerate() {
        match salt {
            Salt::Plain => {}
            Salt::Zeros => {
                for r in 0..m.div_ceil(2) {
                    x.row_mut(r)[..n.div_ceil(2)].fill(Complex64::ZERO);
                }
                x[(m - 1, n - 1)] = Complex64::new(-0.0, 0.0);
            }
            Salt::NonFinite => {
                let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][j % 3];
                x[(j % m, (j / m) % n)] = Complex64::new(v, 0.0);
            }
        }
    }
    xs
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

/// The four batch kernels spelled out — the trait default's chain,
/// written against the public kernels so it cannot move with it.
fn run_staged(
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

/// Runs both forms on fresh instances of every platform and compares
/// outcome and ledger.
fn assert_fused_equals_staged(
    case: &str,
    xs: &[Matrix<Complex64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) {
    for (name, make) in PLATFORMS {
        let (fused_on, staged_on) = (make(), make());
        let fused = outcome(fused_on.filter_diff_batch(xs, k, y));
        let staged = outcome(run_staged(staged_on.as_ref(), xs, k, y));
        assert_eq!(fused, staged, "{name}: {case}: outcome");
        assert_eq!(
            ledger(fused_on.as_ref()),
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
            for count in LANE_COUNTS {
                for salt in [Salt::Plain, Salt::Zeros, Salt::NonFinite] {
                    let xs = lanes(&vals, shape, count, salt);
                    let case = format!("{shape:?} x {count} lanes, {salt:?}");
                    assert_fused_equals_staged(&case, &xs, &k, &y);
                }
            }
        }
    }

    #[test]
    fn malformed_batches_keep_the_staged_error_and_charges(
        vals in proptest::collection::vec(-2.0f64..2.0, 23),
        kvals in proptest::collection::vec(-1.0f64..1.0, 19),
    ) {
        for shape @ (m, n) in [(5, 4), (8, 8)] {
            let odd = (m + 1, n);
            let (k, y) = (filter(&kvals, shape), observed(&vals, shape));
            let xs = lanes(&vals, shape, 7, Salt::Plain);
            let odd_lane = lanes(&vals, odd, 1, Salt::Plain).remove(0);
            for at in [0, 3, 6] {
                let mut bad = xs.clone();
                bad[at] = odd_lane.clone();
                assert_fused_equals_staged(&format!("{shape:?}: odd lane {at}"), &bad, &k, &y);
            }
            let every = lanes(&vals, odd, 7, Salt::Plain);
            assert_fused_equals_staged(&format!("{shape:?}: every lane odd"), &every, &k, &y);
            let bad_k = filter(&kvals, odd);
            assert_fused_equals_staged(&format!("{shape:?}: odd filter"), &xs, &bad_k, &y);
            let bad_y = observed(&vals, odd);
            assert_fused_equals_staged(&format!("{shape:?}: odd y"), &xs, &k, &bad_y);
            assert_fused_equals_staged(&format!("{shape:?}: empty, odd y"), &[], &k, &bad_y);
        }
    }
}

/// The lanes nearest the real-input transform that must not take it:
/// *real* lanes (every imaginary part zero) with an odd row count
/// cannot pack row pairs, so they run the complex sequence and keep
/// the staged chain's bits and ledger (`real_lane.rs` has the even
/// row counts, which do not).
#[test]
fn odd_row_real_lanes_keep_the_staged_bits() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.25 - 2.0).collect();
    let shape = (5, 4);
    let xs: Vec<_> = lanes(&vals, shape, 7, Salt::Zeros)
        .iter()
        .map(|x| x.to_real().to_complex())
        .collect();
    let (k, y) = (filter(&vals, shape), observed(&vals, shape));
    assert_fused_equals_staged("5x4 real lanes", &xs, &k, &y);
}

/// The satellite bugfix: an unqueued batch that fails charges nothing,
/// like every single-lane kernel.
#[test]
fn a_rejected_unqueued_batch_is_free() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.25 - 2.0).collect();
    let shape = (8, 8);
    let xs = lanes(&vals, shape, 4, Salt::Plain);
    let mut mixed = xs.clone();
    mixed[2] = lanes(&vals, (4, 8), 1, Salt::Plain).remove(0);
    let bad_k = filter(&vals, (8, 4));
    let reals: Vec<Matrix<f64>> = xs.iter().map(Matrix::to_real).collect();
    let bad_y = observed(&vals, (4, 4));
    for (name, make) in PLATFORMS {
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
        assert_eq!(
            ledger(acc.as_ref()),
            before,
            "{name}: a failed batch charged"
        );
    }
}
