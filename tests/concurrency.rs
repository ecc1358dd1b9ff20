//! Concurrency integration tests: the refactored execution layer's
//! whole point is that ONE accelerator (and one plan cache) can be
//! shared across worker threads with results bit-identical to serial
//! execution. These tests pin that contract for all three platforms.

use std::sync::Arc;
use tpu_xai::accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
use tpu_xai::core::{explain_batch_on, explain_batch_parallel_on, DistilledModel, SolveStrategy};
use tpu_xai::fourier::{Fft2d, PlanCache};
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix};

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: std::time::Duration = std::time::Duration::from_secs(30);

fn batch(n: usize, size: usize) -> Vec<(Matrix<f64>, Matrix<f64>)> {
    let k = Matrix::from_fn(size, size, |r, c| ((r * 2 + c * 3) % 7) as f64 * 0.15).unwrap();
    (0..n)
        .map(|s| {
            let x = Matrix::from_fn(size, size, |r, c| {
                (((r * 13 + c * 7 + s * 31) % 23) as f64) / 23.0 - 0.5
            })
            .unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect()
}

fn platforms() -> Vec<Arc<dyn Accelerator>> {
    vec![
        Arc::new(CpuModel::i7_3700()),
        Arc::new(GpuModel::gtx1080()),
        Arc::new(TpuAccel::with_cores(8)),
    ]
}

#[test]
fn two_threads_sharing_one_accelerator_match_serial_bit_for_bit() {
    let pairs = batch(8, 16);
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    for shared in platforms() {
        let name = shared.name();
        // Serial reference on a fresh accelerator of the same kind.
        let serial = explain_batch_on(&*shared, &model, &pairs, 4).unwrap();
        shared.reset();

        // Two worker threads drive the ONE shared Arc<dyn Accelerator>.
        let parallel = explain_batch_parallel_on(&*shared, &model, &pairs, 4, 2).unwrap();
        assert_eq!(parallel.len(), serial.len(), "{name}");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.as_slice(), b.as_slice(), "{name}: not bit-identical");
        }
        // Both threads charged the single shared clock.
        assert!(shared.elapsed_seconds() > 0.0, "{name}");
    }
}

#[test]
fn shared_clock_accumulates_exactly_like_serial_execution() {
    // Simulated time is a sum of per-kernel charges, so the total must
    // not depend on thread interleaving.
    let pairs = batch(6, 16);
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    for shared in platforms() {
        let name = shared.name();
        explain_batch_on(&*shared, &model, &pairs, 4).unwrap();
        let serial_s = shared.elapsed_seconds();
        let serial_kernels = shared.stats().kernels;
        shared.reset();

        explain_batch_parallel_on(&*shared, &model, &pairs, 4, 3).unwrap();
        assert!(
            (shared.elapsed_seconds() - serial_s).abs() < 1e-12,
            "{name}: parallel clock {} vs serial {}",
            shared.elapsed_seconds(),
            serial_s
        );
        assert_eq!(shared.stats().kernels, serial_kernels, "{name}");
    }
}

#[test]
fn one_plan_cache_shared_by_worker_threads_builds_each_plan_once() {
    let cache = PlanCache::new();
    let x = Matrix::from_fn(32, 32, |r, c| {
        Complex64::new(((r * 5 + c) % 11) as f64 - 5.0, ((r + c * 3) % 7) as f64)
    })
    .unwrap();
    let reference = cache.plan_2d(32, 32).forward(&x).unwrap();

    let spectra: Vec<(Arc<Fft2d>, Matrix<Complex64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = &cache;
                let x = &x;
                scope.spawn(move || {
                    let plan = cache.plan_2d(32, 32);
                    let spec = plan.forward(x).unwrap();
                    (plan, spec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One plan (pointer-identical across threads), bit-identical
    // output everywhere.
    assert_eq!(cache.len(), 1);
    for (plan, spec) in &spectra {
        assert!(Arc::ptr_eq(plan, &spectra[0].0));
        assert_eq!(spec.as_slice(), reference.as_slice());
    }
}

#[test]
fn batch_queue_coalesces_concurrent_explanations_bit_identically() {
    let started = Instant::now();
    use std::time::{Duration, Instant};
    // 8 request threads, one pair each, grid 4 → 16 regions per
    // request. With the cross-request queue sized to the full lane
    // count, the 8 forward (and 8 inverse) submissions coalesce into
    // ONE device flight each.
    let pairs = batch(8, 16);
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let lanes = 8 * 16;

    let serial_acc = TpuAccel::with_cores(lanes);
    let serial = explain_batch_on(&serial_acc, &model, &pairs, 4).unwrap();

    // Per-request dispatch: every request pays its own phases and
    // collectives on the shared device.
    let per_request: Arc<TpuAccel> = Arc::new(TpuAccel::with_cores(lanes));
    explain_batch_parallel_on(&*per_request, &model, &pairs, 4, 8).unwrap();

    // Coalesced dispatch through the batching queue.
    let batched: Arc<TpuAccel> =
        Arc::new(TpuAccel::with_cores(lanes).with_batching(Duration::from_secs(60), lanes));
    let maps = explain_batch_parallel_on(&*batched, &model, &pairs, 4, 8).unwrap();

    assert_eq!(maps.len(), serial.len());
    for (a, b) in serial.iter().zip(&maps) {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "coalescing must not change numerics"
        );
    }
    // O(phases) device dispatches, not O(requests·phases): one
    // forward flight + one inverse flight → 2 collectives each.
    assert_eq!(batched.device().collectives(), 4);
    assert_eq!(per_request.device().collectives(), 8 * 4);
    let speedup = per_request.elapsed_seconds() / batched.elapsed_seconds();
    assert!(
        speedup >= 2.0,
        "coalesced serving must be ≥2x faster on the device clock, got {speedup:.2}x"
    );
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
}

#[test]
fn panicked_worker_does_not_wedge_shared_device() {
    // One request crashing mid-schedule poisons the device lock; the
    // ledger stays consistent, so every later request must still be
    // served — the serving process must not turn one bad request
    // into a total outage.
    let pairs = batch(4, 16);
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let shared: Arc<TpuAccel> = Arc::new(TpuAccel::with_cores(4));

    let crashing = shared.device();
    let handle = std::thread::spawn(move || crashing.with(|_| panic!("simulated bad request")));
    assert!(handle.join().is_err(), "the bad request must have panicked");

    // Subsequent requests — serial and multi-threaded — still serve.
    let after = explain_batch_parallel_on(&*shared, &model, &pairs, 4, 2).unwrap();
    assert_eq!(after.len(), pairs.len());
    assert!(shared.elapsed_seconds() > 0.0);
}

#[test]
fn many_threads_and_platforms_hammer_the_global_plan_cache() {
    // CPU, GPU and TPU front-ends all pull 2-D plans from the global
    // cache concurrently; every result must equal the single-threaded
    // reference transform.
    let x = Matrix::from_fn(24, 24, |r, c| ((r * 7 + c * 5) % 13) as f64)
        .unwrap()
        .to_complex();
    let reference = tpu_xai::fourier::fft2d(&x).unwrap();
    let accs = platforms();
    std::thread::scope(|scope| {
        for acc in &accs {
            for _ in 0..3 {
                let acc = Arc::clone(acc);
                let x = x.clone();
                let reference = reference.clone();
                scope.spawn(move || {
                    let spec = acc.fft2d(&x).unwrap();
                    assert!(spec.max_abs_diff(&reference).unwrap() < 1e-12);
                    let back = acc.ifft2d(&spec).unwrap();
                    assert!(back.max_abs_diff(&x).unwrap() < 1e-9);
                });
            }
        }
    });
    for acc in &accs {
        assert_eq!(acc.stats().kernels, 6, "{}", acc.name());
    }
}
