//! The deterministic serving load suite (ISSUE 8's acceptance pin).
//!
//! Everything here runs in **simulated** time: arrivals, service and
//! deadlines all live on the serving layer's `SimClock`, coupled to
//! the accelerator's simulated-seconds ledger. Nothing depends on the
//! host scheduler or wall clock, so every assertion is exact — shed
//! orderings, device charges and goodput are pinned, not bounded.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tpu_xai::accel::{Accelerator, TpuAccel};
use tpu_xai::core::{explain_batch_parallel_on, DistilledModel, SolveStrategy};
use tpu_xai::serve::{
    load_accelerator, run_load, synth_problem, DrainMode, ExplainJob, ExplainServer, JobOutput,
    LoadConfig, Outcome, ServeConfig, ServeError, ShedPolicy, SimServer,
};
use tpu_xai::tensor::ops::DivPolicy;
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix, TensorError};

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

/// Admitted requests must be served bit-identically to the library's
/// own `explain_batch_parallel_on` path: the front door adds
/// scheduling, never numerics.
#[test]
fn served_maps_bit_identical_to_explain_batch_parallel_on() {
    let (model, x, y) = synth_problem(7, 8).unwrap();
    let reference = {
        let acc = load_accelerator(2);
        explain_batch_parallel_on(&*acc, &model, &[(x.clone(), y.clone())], 2, 1).unwrap()
    };

    let mut sim = SimServer::new(load_accelerator(2), model, 16, ShedPolicy::RejectNewest);
    let handles: Vec<_> = (0..5)
        .map(|i| {
            sim.submit_at(
                i as f64,
                ExplainJob::Contributions {
                    x: x.clone(),
                    y: y.clone(),
                    grid: 2,
                },
                f64::INFINITY,
            )
        })
        .collect();
    sim.drain();
    for h in handles {
        match h.wait() {
            Ok(JobOutput::Map(map)) => assert_eq!(
                map.as_slice(),
                reference[0].as_slice(),
                "served map must be bit-identical to the explain path"
            ),
            other => panic!("expected a completed map, got {other:?}"),
        }
    }
}

/// Shed requests — admission rejections and dead-on-dequeue drops —
/// must never consume device charges: the device's simulated clock
/// accounts exactly one service time per *completed* request and
/// nothing else.
#[test]
fn shed_requests_never_consume_device_charges() {
    // Calibrate one request's charge on a twin device.
    let (model, x, y) = synth_problem(42, 8).unwrap();
    let job = ExplainJob::Contributions { x, y, grid: 2 };
    let service_s = {
        let calib = load_accelerator(2);
        let mut probe = SimServer::new(
            Arc::clone(&calib),
            model.clone(),
            1,
            ShedPolicy::RejectNewest,
        );
        probe.submit_at(0.0, job.clone(), f64::INFINITY);
        probe.drain();
        calib.elapsed_seconds()
    };

    // A dense burst into a capacity-1 queue: most arrivals are shed.
    let acc = load_accelerator(2);
    let mut sim = SimServer::new(Arc::clone(&acc), model, 1, ShedPolicy::RejectNewest);
    let handles: Vec<_> = (0..24)
        .map(|i| sim.submit_at(i as f64 * service_s * 0.25, job.clone(), 1e6 * service_s))
        .collect();
    sim.drain();

    let completed = handles
        .iter()
        .filter(|h| h.outcome() == Some(Outcome::Completed))
        .count();
    let shed = handles
        .iter()
        .filter(|h| h.outcome() == Some(Outcome::Shed))
        .count();
    assert!(shed > 0, "a capacity-1 queue under a 4x burst must shed");
    assert_eq!(completed + shed, handles.len());
    let charged = acc.elapsed_seconds();
    assert!(
        (charged - completed as f64 * service_s).abs() <= 1e-12 * charged.abs(),
        "device charged {charged} s but {completed} completions cost \
         {completed} x {service_s} s: shed requests must charge nothing"
    );
}

/// `RejectOldest` vs `RejectNewest` produce different — and exactly
/// seed-reproducible — shed orderings under the same arrival process.
#[test]
fn shed_orderings_are_policy_distinct_and_seed_reproducible() {
    let base = LoadConfig {
        capacity: 2,
        oversubscription: 3.0,
        ..LoadConfig::default()
    };
    let newest = run_load(&LoadConfig {
        policy: ShedPolicy::RejectNewest,
        ..base
    })
    .unwrap();
    let oldest = run_load(&LoadConfig {
        policy: ShedPolicy::RejectOldest,
        ..base
    })
    .unwrap();

    // Same seed → identical arrival process → identical shed *count*
    // pressure, but the two policies pick different victims.
    assert_ne!(
        newest.outcomes, oldest.outcomes,
        "head-drop and tail-drop must shed different requests"
    );
    assert!(newest.shed > 0 && oldest.shed > 0);

    // Exact reproducibility: a second run of each is bit-identical.
    let newest2 = run_load(&LoadConfig {
        policy: ShedPolicy::RejectNewest,
        ..base
    })
    .unwrap();
    let oldest2 = run_load(&LoadConfig {
        policy: ShedPolicy::RejectOldest,
        ..base
    })
    .unwrap();
    assert_eq!(newest, newest2, "RejectNewest run must reproduce exactly");
    assert_eq!(oldest, oldest2, "RejectOldest run must reproduce exactly");
}

/// The acceptance criterion: under a seeded 2× oversubscribed
/// open-loop load, goodput stays ≥ 80% of single-flight capacity, no
/// completion lands past its deadline, and two identical seeded runs
/// agree on every outcome.
#[test]
fn oversubscribed_goodput_and_determinism_acceptance() {
    for policy in [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DeadlineAware,
    ] {
        let cfg = LoadConfig {
            policy,
            ..LoadConfig::default()
        };
        let a = run_load(&cfg).unwrap();
        let b = run_load(&cfg).unwrap();
        assert_eq!(a, b, "{policy:?}: identical seeded runs must agree exactly");
        assert!((a.offered_rps / a.capacity_rps - 2.0).abs() < 1e-12);
        assert!(
            a.goodput_frac >= 0.8,
            "{policy:?}: goodput {:.3} must stay >= 0.8 of capacity",
            a.goodput_frac
        );
        assert!(
            a.max_over_deadline_s <= 0.0,
            "{policy:?}: zero requests stuck past their deadline"
        );
        assert!(a.p99_latency_s <= a.deadline_s);
        assert!(a.shed > 0, "{policy:?}: 2x oversubscription must shed");
        assert_eq!(
            a.completed + a.shed + a.deadline_exceeded + a.failed,
            cfg.requests,
            "{policy:?}: every request resolves exactly once"
        );
        assert!(a.queue_high_water <= cfg.capacity);
    }
}

/// Deadlines tighter than the queueing delay convert queued work into
/// `DeadlineExceeded` — checked at dequeue, with no device work spent
/// on dead requests.
#[test]
fn tight_deadlines_shed_at_dequeue_without_device_work() {
    let (model, x, y) = synth_problem(3, 8).unwrap();
    let acc = load_accelerator(1);
    let mut sim = SimServer::new(Arc::clone(&acc), model, 8, ShedPolicy::RejectNewest);
    let job = ExplainJob::Contributions { x, y, grid: 2 };
    // Everything arrives at t=0; deadline covers ~1.5 service times,
    // so only the first queued request can start in time.
    let probe = sim.submit_at(0.0, job.clone(), f64::INFINITY);
    sim.drain();
    let service = acc.elapsed_seconds();
    assert!(probe.wait().is_ok());

    let handles: Vec<_> = (0..4)
        .map(|_| sim.submit_at(service, job.clone(), 1.2 * service))
        .collect();
    sim.drain();
    let outcomes: Vec<_> = handles.iter().map(|h| h.outcome().unwrap()).collect();
    assert_eq!(
        outcomes,
        vec![
            Outcome::Completed,
            Outcome::DeadlineExceeded,
            Outcome::DeadlineExceeded,
            Outcome::DeadlineExceeded,
        ],
        "only the head of the queue makes its deadline"
    );
    // Exactly both deadline paths fire: request 1 started in time but
    // its result landed stale (the completion check — it did charge
    // the device), requests 2–3 were dead at dequeue and charged
    // nothing. Probe + head + request 1 = three service times total.
    assert!(
        (acc.elapsed_seconds() - 3.0 * service).abs() <= 1e-12 * acc.elapsed_seconds(),
        "dead-on-dequeue requests must not charge the device"
    );
    for h in &handles[1..] {
        assert!(matches!(
            h.poll(),
            Some(Err(ServeError::DeadlineExceeded { missed_by_s })) if missed_by_s > 0.0
        ));
    }
}

/// A `DivPolicy::Strict` ÷0 in one request errors only that
/// submitter's handle — refused on its worker's thread before it
/// queues anything — while its flight-mates, coalesced into one device
/// flight by the batching accelerator, complete.
#[test]
fn strict_div_by_zero_errors_one_handle_flight_mates_complete() {
    let n = 8usize;
    let spec = |bias: f64| {
        Matrix::from_fn(n, n, |r, c| {
            Complex64::new(((r * 3 + c) % 5) as f64 + bias, (c % 3) as f64 * 0.5)
        })
        .unwrap()
    };
    let poisoned = {
        let mut m = spec(1.0);
        m[(2, 3)] = Complex64::ZERO;
        m
    };
    let (model, _, _) = synth_problem(1, n).unwrap();

    // 4 server workers, a 3-lane flight threshold and a long straggler
    // window: the three healthy div lanes coalesce into ONE flight.
    let acc: Arc<dyn Accelerator> =
        Arc::new(TpuAccel::with_cores(4).with_batching(Duration::from_secs(60), 3));
    let started = Instant::now();
    let server = ExplainServer::new(
        Arc::clone(&acc),
        model,
        ServeConfig {
            capacity: 16,
            policy: ShedPolicy::RejectNewest,
            workers: 4,
            retry_budget: 0,
        },
    );
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let x_spec = if i == 2 {
                poisoned.clone()
            } else {
                spec(1.0 + i as f64)
            };
            server.submit(
                ExplainJob::RecoverSpectrum {
                    y_spec: spec(7.0),
                    x_spec,
                    policy: DivPolicy::Strict { tol: 1e-12 },
                },
                3600.0,
            )
        })
        .collect();
    let results: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    server.shutdown(DrainMode::Drain);
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched the flight"
    );
    assert_eq!(acc.stats().kernels, 1, "one flight for the healthy lanes");

    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(
                    result,
                    Err(ServeError::Kernel(TensorError::DivisionByZero { index: _ }))
                ),
                "the poisoned request must fail strict ÷0, got {result:?}"
            );
        } else {
            assert!(
                matches!(result, Ok(JobOutput::Spectrum(_))),
                "flight-mate {i} must complete despite lane 2's ÷0, got {result:?}"
            );
        }
    }
}

/// The accelerator's queue-introspection hook feeds serving
/// backpressure: lanes parked behind a straggler window are visible
/// through `Accelerator::queue_depth` / `ExplainServer::pressure`.
#[test]
fn queue_depth_exposes_parked_lanes_for_backpressure() {
    let k = Matrix::from_fn(8, 8, |r, c| ((r + c) % 3) as f64 * 0.3).unwrap();
    let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 7) as f64).unwrap();
    let y = conv2d_circular(&x, &k).unwrap();
    let model = DistilledModel::fit(&[(x, y)], SolveStrategy::default()).unwrap();

    // Without a batching queue the hook reports zero.
    let plain = TpuAccel::with_cores(2);
    assert_eq!(plain.queue_depth(), 0);

    // A 2-lane flight threshold with one worker parked: submit one
    // div lane from a helper thread, watch it sit in the queue.
    let acc: Arc<dyn Accelerator> =
        Arc::new(TpuAccel::with_cores(2).with_batching(Duration::from_secs(60), 2));
    let spec = Matrix::filled(4, 4, Complex64::ONE).unwrap();
    let started = Instant::now();
    let parked = {
        let acc = Arc::clone(&acc);
        let (a, b) = (spec.clone(), spec.clone());
        std::thread::spawn(move || acc.pointwise_div(&a, &b, DivPolicy::default()))
    };
    while acc.queue_depth() == 0 {
        std::thread::yield_now();
    }
    assert_eq!(acc.queue_depth(), 1, "one lane parked behind the window");

    // A server over the same accelerator counts parked lanes in its
    // pressure signal even with an empty admission queue.
    let server = ExplainServer::new(Arc::clone(&acc), model, ServeConfig::default());
    assert_eq!(server.queue_len(), 0);
    assert!(server.pressure() >= 1);
    server.shutdown(DrainMode::Drain);

    // Releasing the flight: a second lane reaches the threshold.
    let spec2 = spec.clone();
    acc.pointwise_div(&spec2, &spec2, DivPolicy::default())
        .unwrap();
    parked.join().unwrap().unwrap();
    assert_eq!(acc.queue_depth(), 0);
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes released the parked flight"
    );
}
