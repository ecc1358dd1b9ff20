//! Integration tests of kernel-generic flights: one [`BatchQueue`]
//! dispatch may mix transform, elementwise and matmul lanes, the
//! whole mixed flight shards across a [`DevicePool`] when the cost
//! model says the fleet wins, and the pool's merged timeline stays a
//! single-fold ledger of every chip's `timed` charges.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpu_xai::accel::{Accelerator, TpuAccel};
use tpu_xai::tensor::{Complex64, Matrix, TensorError};
use tpu_xai::tpu::{BatchQueue, DevicePool, KernelJob, LaneCost, TpuConfig};

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

fn complex_input(n: usize, seed: usize) -> Matrix<Complex64> {
    Matrix::from_fn(n, n, |r, c| {
        Complex64::new(
            ((r * 7 + c * 3 + seed) % 9) as f64 - 4.0,
            ((r + c * 5 + seed * 2) % 7) as f64 * 0.5,
        )
    })
    .unwrap()
}

/// Concurrent workers submitting `fft2d_batch` and `hadamard_batch`
/// in the same batching window coalesce into ONE mixed-kind flight —
/// pinned by the per-flight statistics ledger — and each worker gets
/// exactly its own lanes back, bit-identical to the direct paths.
#[test]
fn transforms_and_hadamards_coalesce_into_one_mixed_flight() {
    let lanes_per_kind = 16usize;
    let xs: Vec<Matrix<Complex64>> = (0..lanes_per_kind).map(|s| complex_input(12, s)).collect();
    let k = complex_input(12, 99);

    let plain = TpuAccel::with_cores(4);
    let fft_ref = plain.fft2d_batch(&xs).unwrap();
    let had_ref = plain.hadamard_batch(&xs, &k).unwrap();

    // max_lanes equals the two submissions' total, so the flight
    // dispatches the moment both workers are in — deterministic
    // mixed-kind coalescing (the long window is the straggler guard).
    let acc = Arc::new(
        TpuAccel::with_cores(4).with_batching(Duration::from_secs(60), 2 * lanes_per_kind),
    );
    let started = Instant::now();
    std::thread::scope(|scope| {
        let fft_acc = Arc::clone(&acc);
        let fft_xs = xs.clone();
        let fft_ref = fft_ref.clone();
        scope.spawn(move || {
            let out = fft_acc.fft2d_batch(&fft_xs).unwrap();
            for (a, b) in fft_ref.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "transform lanes in lane order");
            }
        });
        let had_acc = Arc::clone(&acc);
        let had_xs = xs.clone();
        let had_k = k.clone();
        let had_ref = had_ref.clone();
        scope.spawn(move || {
            let out = had_acc.hadamard_batch(&had_xs, &had_k).unwrap();
            for (a, b) in had_ref.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice(), "hadamard lanes in lane order");
            }
        });
    });
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched the flight"
    );
    // The statistics ledger records one entry per flight: both
    // submissions must have ridden a single mixed dispatch.
    assert_eq!(
        acc.stats().kernels,
        1,
        "fft and hadamard submissions must coalesce into one flight"
    );
}

/// Two submitters' Hadamard batches of the *same* `x` shape reach one
/// queue; one submitter's filter has the wrong shape. Its numerics fail
/// on its own thread before it enqueues anything: its owner gets the
/// typed `ShapeMismatch`, and the stranger's lanes fly alone — one
/// flight, the correct products.
#[test]
fn wrong_shaped_filter_fails_only_its_own_submitter() {
    let lanes = 4usize;
    let xs: Vec<Matrix<Complex64>> = (0..lanes).map(|s| complex_input(8, s)).collect();
    let filter = complex_input(8, 42);
    let bad_filter = Matrix::filled(8, 4, Complex64::ONE).unwrap();
    let want = TpuAccel::tpu_v2().hadamard_batch(&xs, &filter).unwrap();

    // max_lanes equals the good submission's lanes: its flight leaves
    // the moment they are in (the long window is the straggler guard).
    let acc = TpuAccel::tpu_v2().with_batching(Duration::from_secs(60), lanes);
    let started = Instant::now();
    let (good, bad) = std::thread::scope(|scope| {
        let good = scope.spawn(|| acc.hadamard_batch(&xs, &filter));
        let bad = scope.spawn(|| acc.hadamard_batch(&xs, &bad_filter));
        (good.join().unwrap(), bad.join().unwrap())
    });
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched the flight"
    );
    assert_eq!(acc.stats().kernels, 1, "only the good submission flew");
    assert_eq!(
        bad.unwrap_err(),
        TensorError::ShapeMismatch {
            left: (8, 8),
            right: (8, 4),
            op: "hadamard",
        }
    );
    let good = good.expect("a stranger's bad filter must not fail these lanes");
    for (a, b) in want.iter().zip(&good) {
        let bits = |m: &Matrix<Complex64>| {
            m.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
    }
}

/// A leader whose dispatch panics on one *kind* of lane fails every
/// follower of the whole mixed flight with `WorkerPanicked` — no kind
/// is unwound selectively, and the queue serves the next flight.
#[test]
fn panic_in_one_kind_fails_the_whole_mixed_flight() {
    let pool = DevicePool::new(TpuConfig::small_test(), 2);
    let queue: Arc<BatchQueue<KernelJob, KernelJob>> = Arc::new(BatchQueue::new(
        pool.primary().clone(),
        Duration::from_secs(60),
        2,
    ));
    let dispatch = |flight: Vec<KernelJob>, crash_on_elementwise: bool| {
        flight
            .into_iter()
            .map(|job| match job {
                KernelJob::Transform { .. } => Ok(job),
                KernelJob::Hadamard { .. } => {
                    if crash_on_elementwise {
                        panic!("vector unit fault mid-flight");
                    }
                    Ok(job)
                }
                other => panic!("unqueued kind {}", other.kind()),
            })
            .collect::<Result<Vec<_>, TensorError>>()
    };
    let (transform, hadamard) = (
        KernelJob::Transform { rows: 4, cols: 4 },
        KernelJob::Hadamard { elems: 16 },
    );
    let started = Instant::now();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let transform_lane = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || queue.submit(vec![transform], |_, flight| dispatch(flight, true)))
        };
        let hadamard_lane = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                // Stagger so the transform submitter reliably leads.
                std::thread::sleep(Duration::from_millis(50));
                queue.submit(vec![hadamard], |_, flight| dispatch(flight, true))
            })
        };
        vec![
            transform_lane.join().map_err(|_| ()),
            hadamard_lane.join().map_err(|_| ()),
        ]
    });
    // Exactly one thread led and re-raised the panic; the follower —
    // whose own lane kind was fine — observed WorkerPanicked for the
    // whole flight instead of hanging.
    let panicked = outcomes.iter().filter(|r| r.is_err()).count();
    assert_eq!(panicked, 1, "exactly one leader panics: {outcomes:?}");
    let follower = outcomes
        .into_iter()
        .find_map(|r| r.ok())
        .expect("one follower outcome");
    assert!(matches!(
        follower.unwrap_err(),
        TensorError::WorkerPanicked { .. }
    ));
    // The queue is not wedged: a fresh mixed flight serves normally.
    let served = queue
        .submit(vec![transform, hadamard], |_, flight| {
            dispatch(flight, false)
        })
        .unwrap();
    assert_eq!(served, [transform, hadamard]);
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched both flights"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// `hadamard_batch` and `sub_batch` heavy enough to fan out must
    /// shard across 2 and 4 single-core chips — really exercising the
    /// elementwise shard path, not the primary-chip fallback — while
    /// staying bit-identical to the single-device path.
    #[test]
    fn sharded_elementwise_batches_bit_identical_across_device_counts(
        seed in proptest::collection::vec(-4.0f64..4.0, 16),
    ) {
        let lanes = 256usize;
        let n = 64usize;
        let xs: Vec<Matrix<Complex64>> = (0..lanes)
            .map(|l| {
                Matrix::from_fn(n, n, |r, c| {
                    let s = seed[(r + c + l) % seed.len()];
                    Complex64::new(s + (l % 7) as f64 * 0.25, s * 0.5 - (r % 3) as f64)
                })
                .unwrap()
            })
            .collect();
        let k = Matrix::from_fn(n, n, |r, c| {
            Complex64::new(seed[(r * 2 + c) % seed.len()], 0.75)
        })
        .unwrap();
        let y = Matrix::from_fn(n, n, |r, c| seed[(r + 2 * c) % seed.len()] * 1.5).unwrap();
        let preds: Vec<Matrix<f64>> = (0..lanes)
            .map(|l| {
                Matrix::from_fn(n, n, |r, c| seed[(r * 3 + c + l) % seed.len()] - 0.5).unwrap()
            })
            .collect();

        let plain = TpuAccel::with_cores(4);
        let had_ref = plain.hadamard_batch(&xs, &k).unwrap();
        let sub_ref = plain.sub_batch(&y, &preds).unwrap();
        for n_devices in [1usize, 2, 4, 16] {
            let pooled = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 1),
                Duration::ZERO,
                lanes,
            );
            let had = pooled.hadamard_batch(&xs, &k).unwrap();
            for (a, b) in had_ref.iter().zip(&had) {
                prop_assert_eq!(a.as_slice(), b.as_slice(), "hadamard n_devices={}", n_devices);
            }
            let sub = pooled.sub_batch(&y, &preds).unwrap();
            for (a, b) in sub_ref.iter().zip(&sub) {
                prop_assert_eq!(a.as_slice(), b.as_slice(), "sub n_devices={}", n_devices);
            }
            if n_devices > 1 {
                // Both elementwise flights really fanned out: this
                // fleet is oversubscribed enough that the cost-model
                // oracle shards them like transform flights.
                prop_assert_eq!(pooled.pool().unwrap().sharded_flights(), 2);
                for d in pooled.pool().unwrap().devices() {
                    prop_assert!(d.wall_seconds() > 0.0, "chip idle at n={}", n_devices);
                }
            }
        }
    }

    /// Queued `matmul` stays bit-identical to the direct int8 path
    /// over every pool size.
    #[test]
    fn queued_matmul_bit_identical_across_device_counts(
        seed in proptest::collection::vec(-2.0f64..2.0, 16),
    ) {
        let a = Matrix::from_fn(24, 24, |r, c| seed[(r * 5 + c) % seed.len()]).unwrap();
        let b = Matrix::from_fn(24, 24, |r, c| seed[(r + c * 3) % seed.len()] * 0.5).unwrap();
        let reference = TpuAccel::with_cores(4).matmul(&a, &b).unwrap();
        for n_devices in [1usize, 2, 4, 16] {
            let pooled = TpuAccel::with_pool(n_devices, Duration::ZERO, 4);
            let out = pooled.matmul(&a, &b).unwrap();
            prop_assert_eq!(out.as_slice(), reference.as_slice(), "n_devices={}", n_devices);
            prop_assert!(pooled.elapsed_seconds() > 0.0);
        }
    }
}

/// The merged pool timeline is a single-fold ledger: across a mixed
/// sequence of pooled flights (sharded transforms), primary-chip
/// kernels (light elementwise, single-lane matmul — folded in via
/// `advance_external`) and roofline charges, `elapsed_seconds()` must
/// equal the sum over kernels of the slowest chip's `timed` delta
/// plus the inter-chip gathers. A kernel folded into the timeline
/// twice — once by its own charge region and once by a flight merge —
/// would push the merged clock above this sum.
#[test]
fn pool_timeline_is_the_merged_sum_of_timed_charges() {
    let acc = TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), 2, 2),
        Duration::ZERO,
        256,
    );
    let pool = acc.pool().unwrap();
    let mut expected = 0.0f64;
    let mut tracked = |f: &dyn Fn()| {
        let walls: Vec<f64> = pool
            .devices()
            .iter()
            .map(tpu_xai::tpu::SharedDevice::wall_seconds)
            .collect();
        let gather = pool.gather_seconds();
        f();
        let slowest = pool
            .devices()
            .iter()
            .zip(&walls)
            .map(|(d, w)| d.wall_seconds() - w)
            .fold(0.0f64, f64::max);
        expected += slowest + (pool.gather_seconds() - gather);
    };

    let xs: Vec<Matrix<Complex64>> = (0..8).map(|s| complex_input(16, s)).collect();
    let k = complex_input(16, 41);
    let y = Matrix::from_fn(16, 16, |r, c| (r + c) as f64).unwrap();
    let a = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c) % 5) as f64 * 0.2).unwrap();

    tracked(&|| {
        acc.fft2d_batch(&xs).unwrap(); // pooled flight (sharded)
    });
    tracked(&|| {
        acc.hadamard_batch(&xs, &k).unwrap(); // light: primary chip
    });
    tracked(&|| {
        acc.matmul(&a, &a).unwrap(); // single lane: primary chip
    });
    tracked(&|| {
        acc.sub_batch(&y, &[a.clone(), y.clone()]).unwrap();
    });
    tracked(&|| {
        acc.charge_workload(1e9, 1e6); // roofline external charge
    });
    tracked(&|| {
        acc.fft2d(&xs[0]).unwrap(); // single transform lane
    });

    let elapsed = acc.elapsed_seconds();
    assert!(
        (elapsed - expected).abs() <= 1e-9 * expected,
        "merged timeline {elapsed} must equal the sum of timed charges {expected}"
    );
}

/// With a one-chip pool every kernel charges the primary device and
/// folds into the timeline exactly once, so the merged clock must
/// equal the chip's own wall clock — a double fold (charge region
/// *and* flight merge) would leave the timeline strictly ahead.
#[test]
fn single_chip_pool_timeline_equals_primary_clock() {
    let acc = TpuAccel::with_pool(1, Duration::ZERO, 64);
    let xs: Vec<Matrix<Complex64>> = (0..6).map(|s| complex_input(12, s)).collect();
    let k = complex_input(12, 17);
    let a = Matrix::from_fn(12, 12, |r, c| ((r + c * 2) % 7) as f64 * 0.3).unwrap();
    acc.fft2d_batch(&xs).unwrap();
    acc.hadamard_batch(&xs, &k).unwrap();
    acc.matmul(&a, &a).unwrap();
    acc.sub(&a, &a).unwrap();
    acc.charge_workload(1e9, 1e6);
    acc.ifft2d_batch(&xs).unwrap();
    let timeline = acc.elapsed_seconds();
    let chip = acc.device().wall_seconds();
    assert!(timeline > 0.0);
    assert!(
        (timeline - chip).abs() <= 1e-9 * chip,
        "merged timeline {timeline} must equal the primary chip clock {chip}"
    );
}

/// A mixed-kind flight shards as one unit: transform lanes make the
/// fan-out worthwhile and the elementwise lanes riding the same
/// flight are placed by the same cost-aware planner — one flight, one
/// gather, bit-identical results for both submitters.
#[test]
fn mixed_flight_shards_across_chips_as_one_unit() {
    let lanes_per_kind = 16usize;
    let xs: Vec<Matrix<Complex64>> = (0..lanes_per_kind).map(|s| complex_input(24, s)).collect();
    let k = complex_input(24, 7);
    let plain = TpuAccel::with_cores(4);
    let fft_ref = plain.fft2d_batch(&xs).unwrap();
    let had_ref = plain.hadamard_batch(&xs, &k).unwrap();

    let acc = Arc::new(TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), 4, 2),
        Duration::from_secs(60),
        2 * lanes_per_kind,
    ));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let fft_acc = Arc::clone(&acc);
        let fft_xs = xs.clone();
        let fft_ref = fft_ref.clone();
        scope.spawn(move || {
            let out = fft_acc.fft2d_batch(&fft_xs).unwrap();
            for (a, b) in fft_ref.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        });
        let had_acc = Arc::clone(&acc);
        let had_xs = xs.clone();
        let had_k = k.clone();
        let had_ref = had_ref.clone();
        scope.spawn(move || {
            let out = had_acc.hadamard_batch(&had_xs, &had_k).unwrap();
            for (a, b) in had_ref.iter().zip(&out) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        });
    });
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched the flight"
    );
    let pool = acc.pool().unwrap();
    assert_eq!(
        pool.sharded_flights(),
        1,
        "both kinds must ride one sharded flight"
    );
    assert!(pool.gather_seconds() > 0.0);
    assert_eq!(acc.stats().kernels, 1, "one ledger entry for one flight");
}

/// The planner still balances a mixed flight sensibly: LaneCost is
/// flops-consistent across kinds, so heavy transform lanes spread out
/// instead of stacking on one chip while elementwise lanes fill in.
#[test]
fn mixed_lane_costs_are_flops_consistent() {
    let t = KernelJob::Transform { rows: 16, cols: 16 };
    let h = KernelJob::Hadamard { elems: 256 };
    let lanes: Vec<LaneCost> = [t, t, h, h, h, h]
        .iter()
        .map(|j| {
            // Reconstruct the accel layer's lane costs through the
            // public planner contract: transforms must dominate.
            match *j {
                KernelJob::Transform { rows: m, cols: n } => LaneCost {
                    compute: 12.0 * (m * m * n + m * n * n) as f64,
                    gather_bytes: 16 * m * n,
                },
                KernelJob::Hadamard { elems } => LaneCost {
                    compute: 6.0 * elems as f64,
                    gather_bytes: 16 * elems,
                },
                _ => unreachable!(),
            }
        })
        .collect();
    let plan = tpu_xai::tpu::ShardPlan::plan(&lanes, 2, tpu_xai::tpu::ShardStrategy::CostAware);
    // LPT: the two heavy transform lanes land on different chips; the
    // four cheap hadamard lanes backfill the lighter side.
    let chip_of = |lane: usize| {
        plan.assignments()
            .iter()
            .position(|a| a.contains(&lane))
            .unwrap()
    };
    assert_ne!(chip_of(0), chip_of(1), "transform lanes must spread");
}

/// ISSUE 10: a shard that faults transiently after charging its chip
/// clock must leave the merged timeline consistent when the flight
/// succeeds via retry. The flight folds Σ per-round makespans plus
/// the retry backoff into the timeline: the faulted round *ran* — its
/// charge counts even though its results are discarded — and the
/// retry round's charge lands on the chip that re-ran the lanes. For
/// this flight (all lanes on one chip per round) that sum is exactly
/// `chip0 + chip1 + backoff`, and the numerics stay bit-identical to
/// the clean pool.
#[test]
fn retried_flight_timeline_matches_surviving_chip_plus_backoff() {
    use tpu_xai::tpu::FaultPlan;

    let faulted = TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), 2, 2),
        Duration::ZERO,
        256,
    );
    // Draw 0 is device 0's first shard attempt: it runs fully, gets
    // charged, then its results are discarded and the lanes retry.
    let plan = FaultPlan::seeded(11).transient_draw(0);
    let backoff_s = plan.backoff_s();
    faulted.pool().unwrap().install_fault_plan(plan);

    let clean = TpuAccel::over_pool(
        DevicePool::with_cores(TpuConfig::tpu_v2(), 2, 2),
        Duration::ZERO,
        256,
    );

    // Four identical lanes: both shards (and the retry shard) charge
    // bit-identical times, so each round's makespan equals the
    // surviving chip's charge for that round.
    let xs: Vec<Matrix<Complex64>> = (0..4).map(|_| complex_input(16, 9)).collect();
    let reference = clean.fft2d_batch(&xs).unwrap();
    let out = faulted.fft2d_batch(&xs).unwrap();
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "retried flights serve bit-identical results"
        );
    }

    let pool = faulted.pool().unwrap();
    let stats = pool.fault_stats();
    assert_eq!(stats.transient_faults, 1, "exactly the forced draw faulted");
    assert_eq!(stats.retries, 1);
    let chip0 = pool.devices()[0].wall_seconds();
    let chip1 = pool.devices()[1].wall_seconds();
    assert!(
        chip0 > 0.0,
        "the faulted shard ran fully and charged its chip before being discarded"
    );
    assert!(chip1 > 0.0, "the retry ran on the surviving chip");
    let elapsed = faulted.elapsed_seconds();
    let expected = chip0 + chip1 + backoff_s;
    assert!(
        (elapsed - expected).abs() <= 1e-9 * expected,
        "merged timeline {elapsed} must equal the faulted round's charge plus \
         the retry round's charge plus one backoff {expected}"
    );
    assert!(
        elapsed > clean.elapsed_seconds(),
        "the fault costs timeline, never correctness"
    );
}
