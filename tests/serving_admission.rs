//! Property tests for the serving front door's admission control.
//!
//! ISSUE 8's invariants, across 1/2/4 devices × 1..8 submitters:
//! the queue never exceeds its capacity, every submission resolves
//! exactly once (completed XOR shed XOR deadline-exceeded — double
//! resolution panics inside the handle), and shutdown drains or
//! rejects every in-flight handle.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tpu_xai::accel::{KernelStats, Platform};
use tpu_xai::serve::{
    load_accelerator, synth_problem, DrainMode, ExplainJob, ExplainServer, Outcome, ServeConfig,
    ShedPolicy, SimServer,
};
use tpu_xai::tensor::ops::DivPolicy;
use tpu_xai::tensor::{Complex64, Matrix, Result};
use tpu_xai::tpu::KernelJob;

fn div_job(lane: usize) -> ExplainJob {
    ExplainJob::RecoverSpectrum {
        y_spec: Matrix::from_fn(4, 4, |r, c| {
            Complex64::new((r * 4 + c + lane) as f64 + 1.0, lane as f64 * 0.5)
        })
        .unwrap(),
        x_spec: Matrix::filled(4, 4, Complex64::new(2.0, 1.0)).unwrap(),
        policy: DivPolicy::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent submitters hammering a bounded queue: occupancy
    /// never exceeds capacity, every handle resolves to exactly one
    /// of completed / shed / deadline-exceeded, and both shutdown
    /// modes leave nothing unresolved.
    #[test]
    fn admission_invariants_hold_under_concurrent_submitters(
        devices_sel in 0usize..3,
        submitters in 1usize..8,
        requests_per in 1usize..4,
        capacity in 1usize..6,
        policy_sel in 0usize..3,
        mode_sel in 0usize..2,
    ) {
        let devices = [1usize, 2, 4][devices_sel];
        let policy = [
            ShedPolicy::RejectNewest,
            ShedPolicy::RejectOldest,
            ShedPolicy::DeadlineAware,
        ][policy_sel];
        let mode = [DrainMode::Drain, DrainMode::Reject][mode_sel];
        let (model, _, _) = synth_problem(9, 8).unwrap();
        let server = Arc::new(ExplainServer::new(
            load_accelerator(devices),
            model,
            ServeConfig {
                capacity,
                policy,
                workers: 2,
                retry_budget: 0,
            },
        ));

        let handles: Vec<_> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..submitters)
                .map(|s| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || {
                        (0..requests_per)
                            .map(|r| {
                                // A third of the requests are born dead
                                // (zero deadline budget) to exercise the
                                // dequeue-time deadline check.
                                let deadline_s =
                                    if (s + r) % 3 == 0 { 0.0 } else { 3600.0 };
                                server.submit(div_job(s * 8 + r), deadline_s)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            spawned
                .into_iter()
                .flat_map(|t| t.join().expect("submitter never panics"))
                .collect()
        });

        prop_assert!(
            server.high_water() <= capacity,
            "queue occupancy {} exceeded capacity {}",
            server.high_water(),
            capacity
        );

        let server = Arc::into_inner(server).expect("all submitter clones dropped");
        server.shutdown(mode);

        prop_assert_eq!(handles.len(), submitters * requests_per);
        for h in &handles {
            prop_assert!(
                h.is_resolved(),
                "shutdown must drain or reject every in-flight handle"
            );
            // Exactly-once is enforced inside the handle (double
            // resolution panics); here we pin the disposition set.
            let outcome = h.outcome().expect("resolved");
            prop_assert!(
                matches!(
                    outcome,
                    Outcome::Completed | Outcome::Shed | Outcome::DeadlineExceeded
                ),
                "unexpected outcome {:?}",
                outcome
            );
        }
    }
}

/// A platform whose first `pointwise_div` parks its caller between two
/// rendezvous in the kernel's charge, so a test can hold the server's
/// only worker inside a kernel while it fills the queue behind it.
/// Charges nothing.
struct Gated {
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl Platform for Gated {
    fn name(&self) -> String {
        "gated".to_string()
    }
    fn product(&self, _: &Matrix<f64>, _: &Matrix<f64>) -> Result<Matrix<f64>> {
        unreachable!("div jobs only")
    }
    fn lanes_per_launch(&self, _: usize) -> usize {
        1
    }
    fn charge_kernel(&self, job: KernelJob) -> Result<()> {
        if matches!(job, KernelJob::PointwiseDiv { .. }) && self.armed.swap(false, Ordering::SeqCst)
        {
            self.entered.wait();
            self.release.wait();
        }
        Ok(())
    }
    fn charge_launch(&self, _: KernelJob, _: usize) -> Result<()> {
        Ok(())
    }
    fn charge_workload(&self, _: f64, _: f64) {}
    fn elapsed_seconds(&self) -> f64 {
        0.0
    }
    fn stats(&self) -> KernelStats {
        KernelStats::default()
    }
    fn reset(&self) {}
}

/// Deadlines come from the caller, so a NaN must not panic the
/// submitter when `DeadlineAware` compares deadlines on a full queue
/// (on the threaded server that panic would fire while holding the
/// state lock). NaN never counts as the earliest deadline: the arrival
/// that finds the queue full is shed, and everything admitted resolves.
#[test]
fn nan_deadline_sheds_instead_of_panicking_through_both_front_doors() {
    let (model, _, _) = synth_problem(9, 8).unwrap();

    let mut sim = SimServer::new(
        load_accelerator(1),
        model.clone(),
        2,
        ShedPolicy::DeadlineAware,
    );
    let queued = [
        sim.submit_at(0.0, div_job(0), f64::NAN),
        sim.submit_at(0.0, div_job(1), 10.0),
    ];
    let overflow = sim.submit_at(0.0, div_job(2), 5.0);
    assert_eq!(overflow.outcome(), Some(Outcome::Shed));
    sim.drain();
    assert!(queued.iter().all(|h| h.is_resolved()));

    let gate = Arc::new(Gated {
        armed: AtomicBool::new(true),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    let server = ExplainServer::new(
        Arc::<Gated>::clone(&gate),
        model,
        ServeConfig {
            capacity: 2,
            policy: ShedPolicy::DeadlineAware,
            workers: 1,
            retry_budget: 0,
        },
    );
    // The only worker is parked inside the first request's kernel, so
    // nothing dequeues while the next three arrive.
    let blocker = server.submit(div_job(0), 3600.0);
    gate.entered.wait();
    let queued = [
        server.submit(div_job(1), f64::NAN),
        server.submit(div_job(2), 3600.0),
    ];
    let overflow = server.submit(div_job(3), 1800.0);
    gate.release.wait();
    server.shutdown(DrainMode::Drain);
    assert_eq!(overflow.outcome(), Some(Outcome::Shed));
    assert_eq!(blocker.outcome(), Some(Outcome::Completed));
    assert!(queued.iter().all(|h| h.is_resolved()));
}
