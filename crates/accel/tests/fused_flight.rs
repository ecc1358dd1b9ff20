//! Property pins of the fused filter+difference flight: for every
//! fleet size {1, 2, 4 devices} × submitter count {1, 2, 7}, the fused
//! `filter_diff_batch` must return bits identical to the staged
//! four-kernel chain on the same configuration AND to the unqueued
//! single-device serial path — the charge model may fuse, the numbers
//! may not move.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use xai_accel::{Accelerator, TpuAccel};
use xai_tensor::{Complex64, Matrix};
use xai_tpu::{DevicePool, TpuConfig};

const ROWS: usize = 5;
const COLS: usize = 4;
const LANES_PER_WORKER: usize = 2;

fn pooled(devices: usize, total_lanes: usize) -> Arc<TpuAccel> {
    Arc::new(TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), devices, 4),
        Duration::from_secs(60),
        total_lanes,
    ))
}

/// Per-worker occluded inputs, deterministically scrambled from the
/// proptest-drawn values so every lane differs.
fn worker_inputs(vals: &[f64], workers: usize) -> Vec<Vec<Matrix<Complex64>>> {
    (0..workers)
        .map(|w| {
            (0..LANES_PER_WORKER)
                .map(|j| {
                    Matrix::from_fn(ROWS, COLS, |r, c| {
                        let i = (r * COLS + c + 3 * w + 7 * j) % vals.len();
                        Complex64::new(vals[i] + w as f64 * 0.1, vals[(i + 1) % vals.len()] * 0.3)
                    })
                    .unwrap()
                })
                .collect()
        })
        .collect()
}

/// The staged four-kernel chain, issued per submitter thread.
fn run_staged(
    devices: usize,
    xs_per: &[Vec<Matrix<Complex64>>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Vec<Vec<Matrix<f64>>> {
    let total: usize = xs_per.iter().map(Vec::len).sum();
    let acc = pooled(devices, total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = xs_per
            .iter()
            .map(|xs| {
                let acc = Arc::clone(&acc);
                scope.spawn(move || {
                    let spectra = acc.fft2d_batch(xs).unwrap();
                    let filtered = acc.hadamard_batch(&spectra, k).unwrap();
                    let preds: Vec<Matrix<f64>> = acc
                        .ifft2d_batch(&filtered)
                        .unwrap()
                        .into_iter()
                        .map(|p| p.to_real())
                        .collect();
                    acc.sub_batch(y, &preds).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The fused flight, issued per submitter thread.
fn run_fused(
    devices: usize,
    xs_per: &[Vec<Matrix<Complex64>>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Vec<Vec<Matrix<f64>>> {
    let total: usize = xs_per.iter().map(Vec::len).sum();
    let acc = pooled(devices, total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = xs_per
            .iter()
            .map(|xs| {
                let acc = Arc::clone(&acc);
                scope.spawn(move || acc.filter_diff_batch(xs, k, y).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fused_flight_is_bit_identical_to_staged_chain(
        vals in proptest::collection::vec(-2.0f64..2.0, ROWS * COLS + 1),
        kvals in proptest::collection::vec(-1.0f64..1.0, ROWS * COLS),
    ) {
        let k = Matrix::from_fn(ROWS, COLS, |r, c| {
            Complex64::new(kvals[r * COLS + c], kvals[(r * COLS + c + 5) % kvals.len()] * 0.5)
        })
        .unwrap();
        let y = Matrix::from_fn(ROWS, COLS, |r, c| vals[(r * COLS + c) % vals.len()] * 1.5).unwrap();

        for workers in [1usize, 2, 7] {
            let xs_per = worker_inputs(&vals, workers);

            // Single-device serial reference: the unqueued accelerator
            // runs the staged chain inline on one chip, one thread.
            let serial = TpuAccel::tpu_v2();
            let reference: Vec<Vec<Matrix<f64>>> = xs_per
                .iter()
                .map(|xs| serial.filter_diff_batch(xs, &k, &y).unwrap())
                .collect();

            for devices in [1usize, 2, 4, 16] {
                let staged = run_staged(devices, &xs_per, &k, &y);
                let fused = run_fused(devices, &xs_per, &k, &y);
                for w in 0..workers {
                    for lane in 0..LANES_PER_WORKER {
                        prop_assert_eq!(
                            fused[w][lane].as_slice(),
                            staged[w][lane].as_slice(),
                            "fused vs staged, devices={} workers={} w={} lane={}",
                            devices, workers, w, lane
                        );
                        prop_assert_eq!(
                            fused[w][lane].as_slice(),
                            reference[w][lane].as_slice(),
                            "fused vs serial reference, devices={} workers={} w={} lane={}",
                            devices, workers, w, lane
                        );
                    }
                }
            }
        }
    }
}

/// The same pin on *real* lanes: every lane here has five rows, and an
/// odd row count cannot take the real-input transform, so a flight of
/// real 5×4 lanes still matches the staged chain bit for bit.
#[test]
fn odd_row_real_lanes_keep_the_staged_bits() {
    let vals: Vec<f64> = (0..=ROWS * COLS).map(|i| i as f64 * 0.19 - 1.9).collect();
    let k = Matrix::from_fn(ROWS, COLS, |r, c| {
        Complex64::new(
            vals[r * COLS + c],
            vals[(r * COLS + c + 5) % vals.len()] * 0.5,
        )
    })
    .unwrap();
    let y = Matrix::from_fn(ROWS, COLS, |r, c| vals[r * COLS + c] * 1.5).unwrap();
    let xs_per: Vec<Vec<Matrix<Complex64>>> = worker_inputs(&vals, 2)
        .iter()
        .map(|xs| xs.iter().map(|x| x.to_real().to_complex()).collect())
        .collect();
    for devices in [1usize, 4] {
        let staged = run_staged(devices, &xs_per, &k, &y);
        let fused = run_fused(devices, &xs_per, &k, &y);
        for (w, (f, s)) in fused.iter().zip(&staged).enumerate() {
            for (lane, (f, s)) in f.iter().zip(s).enumerate() {
                let bits = |m: &Matrix<f64>| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(f), bits(s), "devices={devices} w={w} lane={lane}");
            }
        }
    }
}
