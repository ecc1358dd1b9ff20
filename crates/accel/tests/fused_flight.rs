//! Property pins of the score flight: for every fleet size {1, 2, 4,
//! 16 devices} × submitter count {1, 2, 7}, queued `contribution_scores`
//! of a request the spectrum does not take — an odd row count, or a NaN
//! pixel — must return bits identical to the staged four-kernel chain
//! on its occlusions on the same configuration AND to the unqueued
//! single-device path — the charge model may fuse, the numbers may not
//! move.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xai_accel::{occluded, Accelerator, PreparedKernel, Rect, TpuAccel};
use xai_tensor::{Complex64, Matrix};
use xai_tpu::{DevicePool, TpuConfig};

const COLS: usize = 4;

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: Duration = Duration::from_secs(30);
/// Each submitter's rectangles: an element, and a 2 × 3 block.
const RECTS: [Rect; 2] = [(1..2, 2..3), (2..4, 0..3)];

fn pooled(devices: usize, total_lanes: usize) -> Arc<TpuAccel> {
    Arc::new(TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), devices, 4),
        Duration::from_secs(60),
        total_lanes,
    ))
}

/// Per-worker inputs of `rows` rows, deterministically scrambled from
/// the drawn values so every request differs; `poison` puts a NaN in
/// each outside its rectangles.
fn worker_inputs(vals: &[f64], workers: usize, rows: usize, poison: bool) -> Vec<Matrix<f64>> {
    (0..workers)
        .map(|w| {
            let mut x = Matrix::from_fn(rows, COLS, |r, c| {
                vals[(r * COLS + c + 3 * w) % vals.len()] + w as f64 * 0.1
            })
            .unwrap();
            if poison {
                x[(0, 0)] = f64::NAN;
            }
            x
        })
        .collect()
}

/// The staged four-kernel chain on each submitter's occlusions, then
/// the norms, issued per submitter thread.
fn run_staged(
    devices: usize,
    xs: &[Matrix<f64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Vec<Vec<f64>> {
    let acc = pooled(devices, xs.len() * RECTS.len());
    let started = Instant::now();
    let scores = std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .iter()
            .map(|x| {
                let acc = Arc::clone(&acc);
                scope.spawn(move || {
                    let lanes: Vec<_> = RECTS
                        .iter()
                        .map(|rect| occluded(x, rect).unwrap().to_complex())
                        .collect();
                    let spectra = acc.fft2d_batch(&lanes).unwrap();
                    let filtered = acc.hadamard_batch(&spectra, k).unwrap();
                    let preds: Vec<Matrix<f64>> = acc
                        .ifft2d_batch(&filtered)
                        .unwrap()
                        .into_iter()
                        .map(|p| p.to_real())
                        .collect();
                    let diffs = acc.sub_batch(y, &preds).unwrap();
                    diffs.iter().map(Matrix::frobenius_norm).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
    scores
}

/// The score flight, issued per submitter thread.
fn run_fused(
    devices: usize,
    xs: &[Matrix<f64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Vec<Vec<f64>> {
    let acc = pooled(devices, xs.len() * RECTS.len());
    let kernel = PreparedKernel::new(k.clone());
    let started = Instant::now();
    let scores = std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .iter()
            .map(|x| {
                let (acc, kernel) = (Arc::clone(&acc), &kernel);
                scope.spawn(move || acc.contribution_scores(x, y, &RECTS, kernel).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
    scores
}

fn bits(scores: &[Vec<f64>]) -> Vec<Vec<u64>> {
    scores
        .iter()
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_flight_is_bit_identical_to_staged_chain(
        vals in proptest::collection::vec(-2.0f64..2.0, 6 * COLS + 1),
        kvals in proptest::collection::vec(-1.0f64..1.0, 6 * COLS),
    ) {
        // Odd rows; even rows with a NaN pixel.
        for (rows, poison) in [(5, false), (6, true)] {
            let k = Matrix::from_fn(rows, COLS, |r, c| {
                Complex64::new(kvals[r * COLS + c], kvals[(r * COLS + c + 5) % kvals.len()] * 0.5)
            })
            .unwrap();
            let y = Matrix::from_fn(rows, COLS, |r, c| vals[(r * COLS + c) % vals.len()] * 1.5)
                .unwrap();
            for workers in [1usize, 2, 7] {
                let xs = worker_inputs(&vals, workers, rows, poison);

                // Single-device serial reference: the unqueued
                // accelerator on one chip, one thread.
                let serial = TpuAccel::tpu_v2();
                let kernel = PreparedKernel::new(k.clone());
                let reference: Vec<Vec<f64>> = xs
                    .iter()
                    .map(|x| serial.contribution_scores(x, &y, &RECTS, &kernel).unwrap())
                    .collect();

                for devices in [1usize, 2, 4, 16] {
                    let staged = run_staged(devices, &xs, &k, &y);
                    let fused = run_fused(devices, &xs, &k, &y);
                    let at = format!("{rows} rows, devices={devices} workers={workers}");
                    prop_assert_eq!(bits(&fused), bits(&staged), "fused vs staged, {}", &at);
                    prop_assert_eq!(bits(&fused), bits(&reference), "fused vs serial, {}", &at);
                }
            }
        }
    }
}

/// The same pin on fixed values: every request here has five rows, and
/// an odd row count cannot take the spectrum, so a flight of its score
/// lanes still matches the staged chain bit for bit.
#[test]
fn odd_row_real_lanes_keep_the_staged_bits() {
    let vals: Vec<f64> = (0..=5 * COLS).map(|i| i as f64 * 0.19 - 1.9).collect();
    let k = Matrix::from_fn(5, COLS, |r, c| {
        Complex64::new(
            vals[r * COLS + c],
            vals[(r * COLS + c + 5) % vals.len()] * 0.5,
        )
    })
    .unwrap();
    let y = Matrix::from_fn(5, COLS, |r, c| vals[r * COLS + c] * 1.5).unwrap();
    let xs = worker_inputs(&vals, 2, 5, false);
    for devices in [1usize, 4] {
        let staged = run_staged(devices, &xs, &k, &y);
        let fused = run_fused(devices, &xs, &k, &y);
        assert_eq!(bits(&fused), bits(&staged), "devices={devices}");
    }
}
