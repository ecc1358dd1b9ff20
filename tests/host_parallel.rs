//! Host work-stealing runtime integration: the wired hot paths must
//! be bit-identical to serial execution under a real multi-worker
//! pool, and repeated parallel calls must reuse the pool's persistent
//! threads instead of growing the process.
//!
//! Every test funnels through [`setup`] before touching the global
//! pool, pinning it to 7 workers for this whole test process — an
//! intentionally awkward worker count (prime, larger than most row
//! splits here) so ragged chunk balancing actually happens.

use std::sync::Arc;
use std::time::Duration;
use tpu_xai::accel::{Accelerator, CpuModel, GpuModel, PreparedKernel, TpuAccel};
use tpu_xai::core::{explain_batch_on, explain_batch_parallel_on, DistilledModel, SolveStrategy};
use tpu_xai::fourier::Fft2d;
use tpu_xai::parallel;
use tpu_xai::tensor::ops::{self, DivPolicy};
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix, TensorError};
use tpu_xai::tpu::{DevicePool, TpuConfig};
use xai_sync::{LockClass, OrderedMutex, OrderedMutexGuard};

/// Pins the pool size for this process before anything can touch the
/// lazily-initialised global pool (`init_global` rather than setting
/// `XAI_THREADS`: mutating the environment of an already-threaded
/// test process races libc getenv).
fn setup() -> &'static parallel::Pool {
    parallel::init_global(7);
    let pool = parallel::global();
    assert_eq!(pool.num_threads(), 7, "explicit init must win");
    pool
}

/// Serialises the tests that fan out on the pool's *blocking* lane:
/// the harness runs tests concurrently, and two overlapping request
/// fleets would legitimately push the crew high-water mark past what
/// the thread-count test measured, flaking its assertion.
fn crew_lock() -> OrderedMutexGuard<'static, ()> {
    // Rank 1: this gate is held across whole request fleets, i.e.
    // while every other lock class in the stack gets acquired.
    static CREW_GATE: LockClass = LockClass::new("test::crew_gate", 1);
    static LOCK: OrderedMutex<()> = OrderedMutex::new(&CREW_GATE, ());
    LOCK.lock_recover()
}

#[test]
fn parallel_matmul_bit_identical_on_ragged_shapes() {
    setup();
    // Deliberately ragged: rows not divisible by any block size used.
    let a = Matrix::from_fn(123, 77, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0).unwrap();
    let b = Matrix::from_fn(77, 45, |r, c| ((r * 5 + c * 11) % 17) as f64 - 8.0).unwrap();
    for block in [1usize, 2, 5, 64, 200] {
        let serial = ops::matmul_blocked(&a, &b, block).unwrap();
        let par = ops::matmul_blocked_parallel(&a, &b, block).unwrap();
        assert_eq!(serial.as_slice(), par.as_slice(), "block={block}");
    }
}

#[test]
fn parallel_fft2d_bit_identical_across_worker_counts() {
    setup();
    // 50×36: both axes hit the Bluestein path, rows are ragged for
    // every worker count below.
    let plan = Fft2d::new(50, 36);
    let xs: Vec<Matrix<Complex64>> = (0..5)
        .map(|s| {
            Matrix::from_fn(50, 36, |r, c| {
                Complex64::new(
                    ((r * 7 + c * 3 + s) % 11) as f64 - 5.0,
                    ((r + c * 2 + s * 5) % 9) as f64 * 0.4,
                )
            })
            .unwrap()
        })
        .collect();
    let per: Vec<_> = xs.iter().map(|x| plan.forward(x).unwrap()).collect();
    for workers in [1usize, 2, 4, 7] {
        let single = plan.forward_parallel(&xs[0], workers).unwrap();
        assert_eq!(per[0].as_slice(), single.as_slice(), "workers={workers}");
        let batch = plan.forward_batch_parallel(&xs, workers).unwrap();
        for (p, b) in per.iter().zip(&batch) {
            assert_eq!(p.as_slice(), b.as_slice(), "workers={workers}");
        }
        let inv = plan.inverse_batch_parallel(&per, workers).unwrap();
        let per_inv: Vec<_> = per.iter().map(|x| plan.inverse(x).unwrap()).collect();
        for (p, i) in per_inv.iter().zip(&inv) {
            assert_eq!(p.as_slice(), i.as_slice(), "workers={workers}");
        }
    }
}

#[test]
fn parallel_elementwise_bit_identical_to_reference() {
    setup();
    // 300×120 = 36000 elements: above the parallel threshold, ragged
    // against the fixed 32768-element chunking.
    let a = Matrix::from_fn(300, 120, |r, c| {
        Complex64::new(((r * 3 + c) % 19) as f64 - 9.0, ((r + c * 7) % 13) as f64)
    })
    .unwrap();
    let b = Matrix::from_fn(300, 120, |r, c| {
        Complex64::new(((r + c * 5) % 17) as f64 - 3.0, ((r * 11 + c) % 7) as f64)
    })
    .unwrap();
    // zip_with is the untouched serial reference implementation.
    let had_ref = a.zip_with(&b, |x, y| x * y).unwrap();
    assert_eq!(
        ops::hadamard(&a, &b).unwrap().as_slice(),
        had_ref.as_slice()
    );
    let sub_ref = a.zip_with(&b, |x, y| x - y).unwrap();
    assert_eq!(ops::sub(&a, &b).unwrap().as_slice(), sub_ref.as_slice());
    let add_ref = a.zip_with(&b, |x, y| x + y).unwrap();
    assert_eq!(ops::add(&a, &b).unwrap().as_slice(), add_ref.as_slice());

    // Pointwise division under Clamp: reference via the same formula.
    let floor = 2.0;
    let div_ref = a
        .zip_with(&b, |x, y| {
            let mag = y.abs();
            if mag == 0.0 {
                x / Complex64::from_real(floor)
            } else if mag < floor {
                x / y.scale(floor / mag)
            } else {
                x / y
            }
        })
        .unwrap();
    let div = ops::pointwise_div(&a, &b, DivPolicy::Clamp { floor }).unwrap();
    assert_eq!(div.as_slice(), div_ref.as_slice());
}

#[test]
fn parallel_strict_division_reports_first_zero_index() {
    setup();
    // Two zeros, both beyond the first 32768-element chunk; Strict
    // mode must deterministically report the SMALLER index, exactly
    // like the serial scan.
    let a = Matrix::filled(300, 120, Complex64::ONE).unwrap();
    let mut b = Matrix::filled(300, 120, Complex64::ONE).unwrap();
    b[(290, 50)] = Complex64::ZERO; // index 34850
    b[(277, 10)] = Complex64::ZERO; // index 33250 — the first
    let err = ops::pointwise_div(&a, &b, DivPolicy::Strict { tol: 0.0 }).unwrap_err();
    assert_eq!(
        err,
        TensorError::DivisionByZero {
            index: 277 * 120 + 10
        }
    );
}

/// The direct score path shards whole score lanes over the pool: with
/// 7 workers 16 rectangles split 3-3-3-3-3-1, and every platform's
/// request must equal its sixteen one-rectangle requests (one group, no
/// sharing of a workspace) bit for bit — for a request scored in the
/// spectrum (even rows) and one on its occlusions (odd rows). The queued
/// and the pooled flight (one leader thread, no grouping at all) must
/// leave the same bits as the direct paths.
#[test]
fn direct_filter_diff_lanes_are_independent_of_the_grouping() {
    setup();
    for rows in [12, 13] {
        let x = Matrix::from_fn(rows, 16, |r, c| ((r * 5 + c * 3) % 13) as f64 - 6.0).unwrap();
        let spectrum = Matrix::from_fn(rows, 16, |r, c| {
            Complex64::new(((r + c) % 5) as f64 - 1.5, 0.25)
        })
        .unwrap();
        let kernel = PreparedKernel::new(spectrum);
        let y = Matrix::from_fn(rows, 16, |r, c| ((r + 2 * c) % 7) as f64 * 0.5).unwrap();
        let rects: Vec<_> = (0..16)
            .map(|b| (b / 4 * 3..b / 4 * 3 + 3, b % 4 * 4..b % 4 * 4 + 4))
            .collect();
        let pooled = TpuAccel::over_pool(
            DevicePool::new(TpuConfig::small_test(), 4),
            Duration::ZERO,
            16,
        );
        let platforms: [Box<dyn Accelerator>; 5] = [
            Box::new(CpuModel::i7_3700()),
            Box::new(GpuModel::gtx1080()),
            Box::new(TpuAccel::tpu_v2()),
            Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
            Box::new(pooled),
        ];
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut reference: Option<Vec<u64>> = None;
        for acc in platforms {
            let batch = acc.contribution_scores(&x, &y, &rects, &kernel).unwrap();
            for (i, (rect, got)) in rects.iter().zip(&batch).enumerate() {
                let one = acc
                    .contribution_scores(&x, &y, std::slice::from_ref(rect), &kernel)
                    .unwrap();
                assert_eq!(got.to_bits(), one[0].to_bits(), "{} rect {i}", acc.name());
            }
            let reference = reference.get_or_insert_with(|| bits(&batch));
            assert_eq!(&bits(&batch), reference, "{} vs the CPU model", acc.name());
        }
    }
}

#[cfg(target_os = "linux")]
fn runtime_threads() -> usize {
    // Count only the runtime's own named threads, so concurrently
    // running test-harness threads can't skew the assertion.
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|entry| {
            let entry = match entry {
                Ok(e) => e,
                Err(_) => return false,
            };
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.starts_with("xai-par"))
                .unwrap_or(false)
        })
        .count()
}

/// The satellite bugfix assertion: thread spawns used to be per-call
/// (`std::thread::scope` in `forward_batch_parallel` and
/// `explain_batch_parallel_on`); with the pool they are persistent,
/// so repeated calls must not grow the process thread count.
#[test]
#[cfg(target_os = "linux")]
fn repeated_parallel_calls_do_not_grow_thread_count() {
    setup();
    let _serial = crew_lock();
    let k = Matrix::from_fn(16, 16, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
    let pairs: Vec<_> = (0..6)
        .map(|s| {
            let x = Matrix::from_fn(16, 16, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0).unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect();
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let plan = Fft2d::new(32, 32);
    let xs: Vec<_> = (0..4)
        .map(|s| {
            Matrix::from_fn(32, 32, |r, c| {
                Complex64::new(((r + c + s) % 7) as f64, (r % 3) as f64)
            })
            .unwrap()
        })
        .collect();
    let acc: Arc<TpuAccel> =
        Arc::new(TpuAccel::with_cores(8).with_batching(Duration::from_millis(50), 6 * 16));

    let round = || {
        plan.forward_batch_parallel(&xs, 7).unwrap();
        explain_batch_parallel_on(&*acc, &model, &pairs, 4, 6).unwrap();
        ops::matmul_blocked_parallel(
            &Matrix::filled(96, 96, 0.5).unwrap(),
            &Matrix::filled(96, 96, 2.0).unwrap(),
            32,
        )
        .unwrap();
    };

    // Two warm-up rounds establish the pool + crew high-water mark
    // (two, so a scheduling hiccup in the very first fan-out on a
    // loaded runner can't understate the mark and flake the test).
    round();
    round();
    let high_water = runtime_threads();
    assert!(high_water >= 7, "compute pool is up (got {high_water})");
    for i in 0..4 {
        round();
        let now = runtime_threads();
        assert!(
            now <= high_water,
            "round {i}: runtime threads grew {high_water} -> {now}"
        );
    }
}

/// End-to-end: the serving path through the pool's blocking lane is
/// still bit-identical to serial and still coalesces flights.
#[test]
fn serving_path_identical_through_pool() {
    setup();
    let _serial = crew_lock();
    let k = Matrix::from_fn(8, 8, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
    let pairs: Vec<_> = (0..6)
        .map(|s| {
            let x = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0).unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect();
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let serial = explain_batch_on(&TpuAccel::with_cores(4), &model, &pairs, 4).unwrap();
    let shared: Arc<dyn Accelerator> = Arc::new(TpuAccel::with_cores(4));
    for workers in [1usize, 2, 4, 7] {
        let par = explain_batch_parallel_on(&*shared, &model, &pairs, 4, workers).unwrap();
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.as_slice(), p.as_slice(), "workers={workers}");
        }
    }
}

/// One host thread leads one pooled flight: sharding across simulated
/// chips spawns nothing on the host, on either lane of the runtime.
#[test]
#[cfg(target_os = "linux")]
fn pooled_flights_spawn_no_host_threads() {
    let runtime = setup();
    let _serial = crew_lock();
    // Small chips, as on `serve-small`: on `with_pool`'s 128-core
    // TPUv2 chips eight 8x8 lanes never win the fan-out decision.
    let acc = TpuAccel::over_pool(
        DevicePool::new(TpuConfig::small_test(), 4),
        Duration::ZERO,
        64,
    );
    // Eight score lanes: the 2×4 blocks of one 8x8 request.
    let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 7) as f64).unwrap();
    let rects: Vec<_> = (0..8)
        .map(|b| (b / 2 * 2..b / 2 * 2 + 2, b % 2 * 4..b % 2 * 4 + 4))
        .collect();
    let kernel = PreparedKernel::new(
        Matrix::from_fn(8, 8, |r, c| Complex64::new(((r + c) % 5) as f64 + 1.0, 0.5)).unwrap(),
    );
    let y = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) % 4) as f64).unwrap();
    // A worker names itself as it starts: wait until the whole
    // compute fleet shows before taking the first count.
    while runtime_threads() < runtime.num_threads() {
        std::thread::yield_now();
    }
    let (threads, crew) = (runtime_threads(), runtime.crew_threads());
    for _ in 0..200 {
        acc.contribution_scores(&x, &y, &rects, &kernel).unwrap();
    }
    let pool = acc.pool().expect("pooled");
    assert_eq!(pool.sharded_flights(), 200, "every flight fanned out");
    assert_eq!(runtime_threads(), threads, "xai-par* threads grew");
    assert_eq!(
        runtime.crew_threads(),
        crew,
        "an xai-par-io-* thread was spawned"
    );
}
