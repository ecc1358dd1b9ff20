//! Parallel computation of multiple inputs (§III-D of the paper).
//!
//! The paper's second acceleration activity processes many
//! input–output pairs concurrently. On the simulated device this is
//! [`xai_tpu::TpuDevice::run_phase`]; on the host, each request's score
//! lanes already fork over the shared [`xai_parallel`] pool
//! ([`xai_accel::scores`]).
//!
//! [`explain_batch`] is the host path (no simulated timing);
//! [`explain_batch_on`] and [`explain_batch_parallel_on`] go through an
//! [`Accelerator`], the latter sharding the batch across the pool's
//! blocking lane with **all worker threads driving one shared device**
//! — the `&self` + `Send + Sync` [`Accelerator`] contract introduced
//! for exactly this purpose. All three compute the same bits: every map
//! is one score lane per block, and only the simulated-time ledger is
//! shared.

use crate::contribution::{block_contributions, block_regions, contributions_batch_on};
use crate::distill::DistilledModel;
use xai_accel::Accelerator;
use xai_tensor::{Matrix, Result, TensorError};

/// Computes `grid × grid` block contribution maps for a batch of
/// `(X, Y)` pairs serially (reference implementation).
///
/// # Errors
///
/// Propagates shape errors.
pub fn explain_batch(
    model: &DistilledModel,
    batch: &[(Matrix<f64>, Matrix<f64>)],
    grid: usize,
) -> Result<Vec<Matrix<f64>>> {
    batch
        .iter()
        .map(|(x, y)| block_contributions(model, x, y, grid))
        .collect()
}

/// Computes `grid × grid` block contribution maps through an
/// [`Accelerator`], serially — each pair's regions run as one §III-D
/// batched kernel sequence, charging the device's simulated clock.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grid` does not divide
/// a pair's dimensions; propagates kernel errors.
pub fn explain_batch_on(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    batch: &[(Matrix<f64>, Matrix<f64>)],
    grid: usize,
) -> Result<Vec<Matrix<f64>>> {
    batch
        .iter()
        .map(|(x, y)| block_contributions_on(acc, model, x, y, grid))
        .collect()
}

/// The accelerator-path batch explanation with the batch sharded
/// across `workers` host threads, **all driving the same shared
/// device**. This is the deployment shape the paper's heavy-traffic
/// scenario implies: one accelerator, many request-handling threads.
///
/// Numeric results are bit-identical to [`explain_batch_on`] and
/// returned in input order; the device's simulated clock accumulates
/// every worker's kernels (order-independent: simulated time is a
/// sum). Worker panics propagate (the scope re-raises the first one
/// after every sibling finished); errors surface in batch order.
///
/// The batch runs as at most `workers` contiguous chunks on the shared
/// pool's *blocking* lane, which guarantees every chunk a thread of its
/// own — request workers rendezvous inside coalescing accelerators
/// (`BatchQueue` followers park until the fleet's flight lands), so
/// running them on a bounded compute pool would stall flights until
/// the straggler window. The crew threads are persistent: repeated
/// calls reuse them instead of re-spawning per call.
///
/// When the accelerator batches cross-request work (e.g.
/// `TpuAccel::with_batching`), the per-worker transform batches
/// issued here additionally coalesce at the device into shared
/// flights: N workers explaining N inputs trigger O(phases) device
/// dispatches instead of O(N·phases), with one reassembly collective
/// per transform stage for the whole fleet. Numerics are unchanged —
/// only the simulated schedule (and the clock) improves.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for `workers == 0`;
/// propagates the first kernel/shape error in batch order.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xai_accel::{Accelerator, TpuAccel};
/// use xai_core::{explain_batch_on, explain_batch_parallel_on, DistilledModel, SolveStrategy};
/// use xai_tensor::{conv::conv2d_circular, Matrix};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let k = Matrix::from_fn(8, 8, |r, c| ((r + c) % 3) as f64 * 0.3)?;
/// let batch: Vec<_> = (0..6)
///     .map(|s| {
///         let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c + s) % 7) as f64).unwrap();
///         let y = conv2d_circular(&x, &k).unwrap();
///         (x, y)
///     })
///     .collect();
/// let model = DistilledModel::fit(&batch, SolveStrategy::default())?;
/// let acc: Arc<dyn Accelerator> = Arc::new(TpuAccel::with_cores(4));
/// let maps = explain_batch_parallel_on(&*acc, &model, &batch, 4, 3)?;
/// assert_eq!(maps.len(), 6);
/// # Ok(())
/// # }
/// ```
pub fn explain_batch_parallel_on(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    batch: &[(Matrix<f64>, Matrix<f64>)],
    grid: usize,
    workers: usize,
) -> Result<Vec<Matrix<f64>>> {
    if workers == 0 {
        return Err(TensorError::EmptyDimension);
    }
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    let chunk = batch.len().div_ceil(workers);
    let mut results: Vec<Option<Result<Vec<Matrix<f64>>>>> =
        (0..batch.len().div_ceil(chunk)).map(|_| None).collect();
    xai_parallel::global().scope_blocking(|scope| {
        for (slot, work) in results.iter_mut().zip(batch.chunks(chunk)) {
            scope.spawn(move || {
                *slot = Some(explain_batch_on(acc, model, work, grid));
            });
        }
        // The scope joins every worker on exit and re-raises any
        // worker panic in the caller's thread.
    });
    let mut out = Vec::with_capacity(batch.len());
    for slot in results {
        out.extend(slot.expect("scope joined every worker")?);
    }
    Ok(out)
}

/// One pair's `grid × grid` block-contribution map through the
/// accelerator's batched kernels, blocks in row-major order — what
/// [`explain_batch_on`] computes per pair and the serving layer per
/// request, so the two are bit-identical.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grid` is zero or does
/// not divide both dimensions of `x`; propagates kernel errors.
pub fn block_contributions_on(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    grid: usize,
) -> Result<Matrix<f64>> {
    let scores = contributions_batch_on(acc, model, x, y, &block_regions(x.shape(), grid)?)?;
    Matrix::from_vec(grid, grid, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::SolveStrategy;
    use std::sync::Arc;
    use xai_accel::{CpuModel, TpuAccel};
    use xai_tensor::conv::conv2d_circular;

    type Setup = (DistilledModel, Vec<(Matrix<f64>, Matrix<f64>)>);

    /// How long a test whose flights dispatch on `max_lanes` may take:
    /// well under the 60 s straggler window, so a flight that waited the
    /// window out fails instead of passing slowly.
    const STRAGGLER_BOUND: std::time::Duration = std::time::Duration::from_secs(30);

    fn setup(n: usize) -> Setup {
        let k = Matrix::from_fn(8, 8, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
        let batch: Vec<_> = (0..n)
            .map(|s| {
                let x = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0).unwrap();
                let y = conv2d_circular(&x, &k).unwrap();
                (x, y)
            })
            .collect();
        let model = DistilledModel::fit(&batch, SolveStrategy::default()).unwrap();
        (model, batch)
    }

    /// Sharded over any worker count, a shared device's maps are the
    /// host's, bit for bit.
    #[test]
    fn parallel_matches_serial_all_worker_counts() {
        let (model, batch) = setup(7);
        let serial = explain_batch(&model, &batch, 4).unwrap();
        let cpu = CpuModel::i7_3700();
        for workers in [1usize, 2, 3, 8, 32] {
            let parallel = explain_batch_parallel_on(&cpu, &model, &batch, 4, workers).unwrap();
            assert_eq!(parallel.len(), serial.len(), "workers={workers}");
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.as_slice(), b.as_slice(), "workers={workers}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (model, _) = setup(1);
        let cpu = CpuModel::i7_3700();
        assert!(explain_batch_parallel_on(&cpu, &model, &[], 4, 4)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_workers_rejected() {
        let (model, batch) = setup(2);
        assert!(explain_batch_parallel_on(&TpuAccel::with_cores(2), &model, &batch, 4, 0).is_err());
    }

    #[test]
    fn worker_errors_propagate_not_panic() {
        let (model, mut batch) = setup(4);
        // Poison one pair with a shape the grid cannot divide.
        batch[2].0 = Matrix::zeros(6, 6).unwrap();
        batch[2].1 = Matrix::zeros(6, 6).unwrap();
        let err = explain_batch_parallel_on(&CpuModel::i7_3700(), &model, &batch, 4, 2);
        assert!(err.is_err(), "bad shard must surface as Err, not panic");
    }

    #[test]
    fn shared_accelerator_parallel_is_bit_identical_to_serial() {
        let (model, batch) = setup(6);
        let serial_acc = TpuAccel::with_cores(4);
        let serial = explain_batch_on(&serial_acc, &model, &batch, 4).unwrap();

        let shared: Arc<dyn xai_accel::Accelerator> = Arc::new(TpuAccel::with_cores(4));
        for workers in [2usize, 3, 6] {
            let parallel = explain_batch_parallel_on(&*shared, &model, &batch, 4, workers).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "workers={workers}: must be bit-identical"
                );
            }
        }
        // Every worker charged the one shared device.
        assert!(shared.elapsed_seconds() > 0.0);
    }

    #[test]
    fn batching_accelerator_routes_through_queue_with_identical_results() {
        let started = Instant::now();
        use std::time::{Duration, Instant};
        let (model, batch) = setup(4);
        let serial = explain_batch_on(&TpuAccel::with_cores(8), &model, &batch, 4).unwrap();
        // 4 workers × one pair × 16 regions per queued kernel.
        let lanes = 4 * 16;
        let batching: Arc<TpuAccel> =
            Arc::new(TpuAccel::with_cores(8).with_batching(Duration::from_secs(60), lanes));
        let parallel = explain_batch_parallel_on(&*batching, &model, &batch, 4, 4).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // One forward + one inverse flight for the whole fleet.
        assert_eq!(batching.device().collectives(), 4);
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched every flight"
        );
    }

    #[test]
    fn accelerator_path_matches_host_path() {
        let (model, batch) = setup(3);
        let host = explain_batch(&model, &batch, 4).unwrap();
        let acc = TpuAccel::with_cores(2);
        let dev = explain_batch_on(&acc, &model, &batch, 4).unwrap();
        for (a, b) in host.iter().zip(&dev) {
            assert!(a.max_abs_diff(b).unwrap() < 1e-9);
        }
    }
}
