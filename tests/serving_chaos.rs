//! The seeded chaos suite: fault schedules driven through the
//! deterministic serving simulator (ISSUE 10's acceptance pin).
//!
//! Everything runs in simulated time against seeded fault plans, so
//! every assertion is exact: same seed ⇒ the same faults land at the
//! same virtual instants ⇒ bit-identical reports. The suite covers
//! all three shed policies over 2/4/16-chip pools, pins that
//! transient-retryable fault plans never change served numerics, that
//! budget exhaustion fails exactly the owning request, that
//! quarantined chips re-admit through the serving path, and that the
//! threaded server on a `SimClock` is the simulator, bit for bit.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::sync::Arc;
use std::time::Duration;
use tpu_xai::accel::{Accelerator, TpuAccel};
use tpu_xai::serve::{
    run_load, synth_problem, DrainMode, ExplainJob, ExplainServer, JobOutput, LoadConfig,
    LoadFault, LoadReport, Outcome, ResponseHandle, ServeConfig, ServeError, ShedPolicy, SimClock,
    SimServer,
};
use tpu_xai::tensor::{Matrix, TensorError};
use tpu_xai::tpu::{DevicePool, FaultPlan, FaultStats, Topology, TpuConfig};

fn pooled(devices: usize) -> Arc<TpuAccel> {
    Arc::new(TpuAccel::over_pool(
        DevicePool::new(TpuConfig::small_test(), devices),
        Duration::ZERO,
        256,
    ))
}

fn contributions(x: &Matrix<f64>, y: &Matrix<f64>, grid: usize) -> ExplainJob {
    ExplainJob::Contributions {
        x: x.clone(),
        y: y.clone(),
        grid,
    }
}

/// One chaos run's pinned figures: `completed`, `shed`, `failed`,
/// serving `retries`, the eight [`FaultStats`] counters in declaration
/// order and `makespan_s.to_bits()`.
fn pinned(report: &LoadReport) -> String {
    let f = report.fault_stats;
    let counters = [
        f.transient_faults,
        f.fail_stops,
        f.retries,
        f.replans,
        f.quarantines,
        f.probes,
        f.readmissions,
        f.budget_exhausted,
    ];
    format!(
        "{} {} {} {} {counters:?} {:#018x}",
        report.completed,
        report.shed,
        report.failed,
        report.retries,
        report.makespan_s.to_bits()
    )
}

/// `seeded_fault_schedules_reproduce_exactly`'s runs per pool size,
/// recorded before the pool's fault and quarantine state merged into
/// one fault domain. Every shed policy recorded the same row. A change
/// that moves one transient draw, one quarantine or one backoff moves
/// a figure here, even when it replays itself exactly.
const CHAOS_TABLE: [(usize, &str); 3] = [
    (2, "17 15 0 0 [2, 1, 2, 2, 1, 0, 0, 0] 0x3f9cb7221707d33e"),
    (4, "18 14 0 0 [4, 1, 4, 4, 5, 4, 4, 0] 0x3f953ca73c5ae5a6"),
    (16, "20 12 0 0 [6, 1, 6, 6, 7, 6, 6, 0] 0x3f98aedff18bbd0e"),
];

/// `report`'s degraded-mode scenario (chip 15 of a 4×4 torus
/// fail-stops mid-load), recorded with [`CHAOS_TABLE`].
const TORUS_1_OF_16: &str = "59 37 0 0 [0, 1, 0, 0, 1, 0, 0, 0] 0x3fab697de6502c6e";

/// Same seed ⇒ same chaos: a load run under a seeded fault schedule
/// (transient kernel faults plus a mid-load fail-stop) reproduces its
/// entire report — outcome vector, latencies, fault counters — across
/// every shed policy and pool size, and its counters and makespan
/// equal the recorded [`CHAOS_TABLE`].
#[test]
fn seeded_fault_schedules_reproduce_exactly() {
    for &policy in &[
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DeadlineAware,
    ] {
        for &(devices, expect) in &CHAOS_TABLE {
            let cfg = LoadConfig {
                requests: 32,
                devices,
                policy,
                fault: Some(LoadFault {
                    seed: 29,
                    transient_prob: 0.08,
                    fail_stop_chip: Some(devices - 1),
                    fail_stop_at_frac: 0.5,
                }),
                ..LoadConfig::default()
            };
            let a = run_load(&cfg).unwrap();
            let b = run_load(&cfg).unwrap();
            assert_eq!(a, b, "{policy:?}/{devices} chips: chaos must be seeded");
            assert!(
                a.completed > 0,
                "{policy:?}/{devices} chips: the degraded fleet still serves"
            );
            assert_eq!(
                a.fault_stats.fail_stops, 1,
                "{policy:?}/{devices} chips: the scheduled fail-stop fired"
            );
            assert_eq!(pinned(&a), expect, "{policy:?}/{devices} chips");
        }
    }
    let torus = run_load(&LoadConfig {
        devices: 16,
        topology: Some(Topology::torus(4)),
        fault: Some(LoadFault::fail_stop_mid_load(15)),
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(pinned(&torus), TORUS_1_OF_16, "1 of 16 torus chips down");
}

/// Retries are not free: a transiently-faulted run pays timeline
/// (retries, backoffs) but never numerics — and the pool's counters
/// record the recovery work.
#[test]
fn transient_faults_cost_timeline_not_outcome_counts() {
    let clean = run_load(&LoadConfig {
        requests: 32,
        devices: 4,
        ..LoadConfig::default()
    })
    .unwrap();
    let faulted = run_load(&LoadConfig {
        requests: 32,
        devices: 4,
        fault: Some(LoadFault::transient(13, 0.15)),
        ..LoadConfig::default()
    })
    .unwrap();
    assert!(
        faulted.fault_stats.transient_faults > 0,
        "a 15% per-shard fault rate over 32 requests must fire"
    );
    assert!(
        faulted.fault_stats.retries > 0,
        "transient faults recover through shard retries"
    );
    assert_eq!(
        clean.service_s, faulted.service_s,
        "calibration is always fault-free"
    );
    assert_eq!(
        faulted.failed, 0,
        "every transient fault recovered below the serving layer"
    );
    assert!(
        faulted.completed <= clean.completed,
        "retries and quarantines cannot increase goodput"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded all-transient-retryable fault plan serves maps
    /// bit-identical to the fault-free pool: faults and retries move
    /// work between chips and charge timeline, but numerics are a
    /// pure function of the inputs. Covers 2/4/16 chips × 1/2/7
    /// submitted requests, with varying grids so flights shard
    /// differently.
    #[test]
    fn transient_retryable_plans_serve_bit_identical_maps(
        seed in 0u64..512,
        prob in 0.05f64..0.30,
        chips_sel in 0usize..3,
        submitters_sel in 0usize..3,
    ) {
        let chips = [2usize, 4, 16][chips_sel];
        let submitters = [1usize, 2, 7][submitters_sel];
        let (model, x, y) = synth_problem(seed % 13, 8).unwrap();

        let serve_all = |acc: Arc<TpuAccel>| {
            let mut sim = SimServer::new(
                Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
                model.clone(),
                16,
                ShedPolicy::RejectNewest,
            );
            let handles: Vec<_> = (0..submitters)
                .map(|i| {
                    let grid = [2usize, 4, 2][i % 3];
                    sim.submit_at(i as f64, contributions(&x, &y, grid), f64::INFINITY)
                })
                .collect();
            sim.drain();
            handles
                .into_iter()
                .map(|h| match h.wait() {
                    Ok(JobOutput::Map(map)) => map,
                    other => panic!("expected a served map, got {other:?}"),
                })
                .collect::<Vec<_>>()
        };

        let reference = serve_all(pooled(chips));

        let acc = pooled(chips);
        // A generous shard-retry budget makes every fault retryable:
        // the chance of 30 consecutive faults at p ≤ 0.3 is ~1e-16.
        acc.pool()
            .unwrap()
            .install_fault_plan(FaultPlan::seeded(seed).transient(prob).with_retry_budget(30));
        let faulted = serve_all(acc);

        prop_assert_eq!(reference.len(), faulted.len());
        for (a, b) in reference.iter().zip(&faulted) {
            prop_assert_eq!(a.as_slice(), b.as_slice(), "faulted maps must be bit-identical");
        }
        prop_assert!(reference.len() == submitters);
    }
}

/// Exhausting the shard-retry budget is a *typed* per-request failure:
/// exactly the request whose flight kept faulting resolves
/// `Kernel(FaultBudgetExhausted)`; requests before (no plan) and after
/// (plan cleared) complete with bit-identical maps.
#[test]
fn budget_exhaustion_fails_exactly_the_owning_request() {
    let acc = pooled(2);
    let (model, x, y) = synth_problem(3, 8).unwrap();
    let mut sim = SimServer::new(
        Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
        model,
        8,
        ShedPolicy::RejectNewest,
    );

    let before = sim.submit_at(0.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();

    // Every draw faults: the budget must exhaust, typed, not panic.
    acc.pool()
        .unwrap()
        .install_fault_plan(FaultPlan::seeded(1).transient(1.0).with_retry_budget(2));
    let doomed = sim.submit_at(1.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();

    acc.pool().unwrap().clear_fault_plan();
    let after = sim.submit_at(2.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();

    let reference = match before.wait() {
        Ok(JobOutput::Map(map)) => map,
        other => panic!("pre-fault request must complete, got {other:?}"),
    };
    match doomed.wait() {
        Err(ServeError::Kernel(TensorError::FaultBudgetExhausted { attempts, .. })) => {
            assert_eq!(attempts, 3, "initial try plus the 2-retry budget");
        }
        other => panic!("expected FaultBudgetExhausted, got {other:?}"),
    }
    assert_eq!(doomed.outcome(), Some(Outcome::Failed));
    match after.wait() {
        Ok(JobOutput::Map(map)) => assert_eq!(
            map.as_slice(),
            reference.as_slice(),
            "the pool recovers bit-identically once the plan clears"
        ),
        other => panic!("post-fault request must complete, got {other:?}"),
    }
    assert_eq!(
        acc.pool().unwrap().fault_stats().budget_exhausted,
        1,
        "exactly one flight exhausted its budget"
    );
}

/// Every chip dead: on a one-chip pool whose chip fail-stops at time
/// zero, a multi-lane request resolves `Kernel(FaultBudgetExhausted)`
/// on its own handle — no panic, no hang.
#[test]
fn a_pool_with_every_chip_dead_fails_its_request_typed() {
    let acc = Arc::new(TpuAccel::over_pool(
        DevicePool::new(TpuConfig::small_test(), 1)
            .with_fault_plan(FaultPlan::seeded(4).fail_stop(0, 0.0)),
        Duration::ZERO,
        256,
    ));
    let (model, x, y) = synth_problem(2, 8).unwrap();
    let mut sim = SimServer::new(
        Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
        model,
        8,
        ShedPolicy::RejectNewest,
    );
    let doomed = sim.submit_at(0.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();
    match doomed.wait() {
        Err(ServeError::Kernel(TensorError::FaultBudgetExhausted { .. })) => {}
        other => panic!("expected FaultBudgetExhausted, got {other:?}"),
    }
    assert_eq!(doomed.outcome(), Some(Outcome::Failed));
    assert_eq!(acc.pool().unwrap().healthy_devices(), 0);
}

/// A transiently-quarantined chip re-admits through the serving path:
/// the first flight faults it out, a later request's flight (past the
/// cooldown) probes and re-admits it, and the pool ends whole again.
#[test]
fn transient_quarantine_readmits_through_serving() {
    let acc = pooled(2);
    let (model, x, y) = synth_problem(5, 8).unwrap();

    // Force exactly the first draw (device 0's first shard) to fault.
    acc.pool().unwrap().install_fault_plan(
        FaultPlan::seeded(9)
            .transient_draw(0)
            .with_cooldown_s(1.0e-3),
    );

    let reference = {
        let clean = pooled(2);
        let mut sim = SimServer::new(
            Arc::<TpuAccel>::clone(&clean) as Arc<dyn Accelerator>,
            model.clone(),
            8,
            ShedPolicy::RejectNewest,
        );
        let h = sim.submit_at(0.0, contributions(&x, &y, 2), f64::INFINITY);
        sim.drain();
        match h.wait() {
            Ok(JobOutput::Map(map)) => map,
            other => panic!("expected a map, got {other:?}"),
        }
    };

    let mut sim = SimServer::new(
        Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
        model,
        8,
        ShedPolicy::RejectNewest,
    );
    let first = sim.submit_at(0.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();
    match first.wait() {
        Ok(JobOutput::Map(map)) => assert_eq!(
            map.as_slice(),
            reference.as_slice(),
            "the retried flight serves bit-identical numerics"
        ),
        other => panic!("expected a map, got {other:?}"),
    }
    let pool = acc.pool().unwrap();
    assert_eq!(pool.fault_stats().transient_faults, 1);
    assert_eq!(pool.fault_stats().quarantines, 1);
    assert_eq!(
        pool.healthy_devices(),
        1,
        "the faulted chip sits in quarantine until its cooldown"
    );

    // A request far past the cooldown probes and re-admits the chip.
    let second = sim.submit_at(1.0, contributions(&x, &y, 2), f64::INFINITY);
    sim.drain();
    assert!(matches!(second.wait(), Ok(JobOutput::Map(_))));
    assert!(pool.fault_stats().probes >= 1, "the cooldown probe ran");
    assert!(pool.fault_stats().readmissions >= 1, "the chip re-admitted");
    assert_eq!(pool.healthy_devices(), 2, "the pool is whole again");
}

/// Degraded-mode admission: when half the pool fail-stops, the
/// simulator's effective admission capacity halves at the next
/// arrival, so a burst sheds earlier than it would against a healthy
/// fleet.
#[test]
fn fail_stop_shrinks_admission_capacity() {
    let acc = pooled(4);
    acc.pool()
        .unwrap()
        .install_fault_plan(FaultPlan::seeded(21).fail_stop(0, 0.0).fail_stop(1, 0.0));
    assert_eq!(acc.healthy_fraction(), 0.5);

    let (model, x, y) = synth_problem(1, 8).unwrap();
    let mut sim = SimServer::new(
        Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
        model,
        8,
        ShedPolicy::RejectNewest,
    );
    // A burst of 10 arrivals before any service: a healthy queue of 8
    // would shed 2; the half-dead fleet's effective bound is 4.
    let handles: Vec<_> = (0..10)
        .map(|i| sim.submit_at(i as f64 * 1.0e-9, contributions(&x, &y, 2), f64::INFINITY))
        .collect();
    let shed_now = handles
        .iter()
        .filter(|h| h.outcome() == Some(Outcome::Shed))
        .count();
    assert_eq!(
        shed_now, 6,
        "admission shrinks to ceil(8 × 0.5) = 4, shedding 6 of 10"
    );
    sim.drain();
    let completed = handles
        .iter()
        .filter(|h| h.outcome() == Some(Outcome::Completed))
        .count();
    assert_eq!(completed, 4, "the survivors serve everything admitted");
}

/// The differential that licenses sharing one serving core: a
/// closed-loop script (one outstanding request; born-dead, tight and
/// loose deadlines; seeded transient faults that sometimes outlast the
/// pool's shard-retry budget; serving retry budget 2) driven once
/// through `SimServer` and once through a one-worker `ExplainServer` on
/// a `SimClock` resolves every request to the same outcome at the same
/// virtual instant, leaves the same fault counters and charges the
/// same simulated seconds — all to the bit.
#[test]
fn threaded_server_on_a_sim_clock_matches_the_simulator_bit_for_bit() {
    const REQUESTS: usize = 40;
    const RETRY_BUDGET: usize = 2;
    type Trace = (Vec<(Outcome, u64)>, FaultStats, u64);

    let (model, x, y) = synth_problem(11, 8).unwrap();
    // Fault-free service time of one request, to scale the deadlines.
    let service_s = {
        let acc = pooled(4);
        let mut sim = SimServer::new(acc, model.clone(), 4, ShedPolicy::RejectNewest);
        sim.submit_at(0.0, contributions(&x, &y, 2), f64::INFINITY);
        sim.drain();
        sim.now_s()
    };
    let deadline_rel_s = |i: usize| service_s * [100.0, 1.02, -1.0, 3.5, 0.7, 100.0, 2.2][i % 7];
    let faulty = |seed: u64| {
        let acc = pooled(4);
        acc.pool()
            .unwrap()
            .install_fault_plan(FaultPlan::seeded(seed).transient(0.45).with_retry_budget(1));
        acc
    };
    let trace = |handles: &[ResponseHandle], acc: &TpuAccel| -> Trace {
        let resolved = handles
            .iter()
            .map(|h| (h.outcome().unwrap(), h.latency_s().unwrap().to_bits()))
            .collect();
        let stats = acc.pool().unwrap().fault_stats();
        (resolved, stats, acc.elapsed_seconds().to_bits())
    };

    let mut serving_retries = 0;
    let mut outcomes_seen = Vec::new();
    for seed in [5u64, 23, 61] {
        let simulated = {
            let acc = faulty(seed);
            let mut sim = SimServer::new(
                Arc::<TpuAccel>::clone(&acc),
                model.clone(),
                4,
                ShedPolicy::RejectNewest,
            )
            .with_retry_budget(RETRY_BUDGET);
            let handles: Vec<_> = (0..REQUESTS)
                .map(|i| {
                    let now = sim.now_s();
                    let h = sim.submit_at(now, contributions(&x, &y, 2), deadline_rel_s(i));
                    sim.step();
                    h
                })
                .collect();
            serving_retries += sim.retries();
            trace(&handles, &acc)
        };
        let threaded = {
            let acc = faulty(seed);
            let server = ExplainServer::with_clock(
                Arc::<TpuAccel>::clone(&acc),
                model.clone(),
                ServeConfig {
                    capacity: 4,
                    policy: ShedPolicy::RejectNewest,
                    workers: 1,
                    retry_budget: RETRY_BUDGET,
                },
                Arc::new(SimClock::new()),
            );
            let handles: Vec<_> = (0..REQUESTS)
                .map(|i| {
                    let h = server.submit(contributions(&x, &y, 2), deadline_rel_s(i));
                    let _ = h.wait();
                    h
                })
                .collect();
            server.shutdown(DrainMode::Drain);
            trace(&handles, &acc)
        };
        assert_eq!(simulated, threaded, "seed {seed}");
        outcomes_seen.extend(simulated.0.iter().map(|&(outcome, _)| outcome));
    }
    // The script must actually walk every branch of the shared core.
    assert!(serving_retries > 0, "no request was retried by the server");
    for outcome in [
        Outcome::Completed,
        Outcome::DeadlineExceeded,
        Outcome::Failed,
    ] {
        assert!(outcomes_seen.contains(&outcome), "no request {outcome:?}");
    }
}
