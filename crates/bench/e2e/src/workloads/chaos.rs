//! `sim-chaos`: the `SimServer` twin in virtual time, under seeded
//! faults, driven **open loop** at twice its calibrated capacity.
//!
//! The loop is the loop of `xai_serve::run_load`, not `run_load`
//! itself, so admission and service can be timed apart and calibration
//! stays outside the timed region. It reports the simulator's own
//! speed (host time per simulated request) beside every statistic of
//! the modelled design; the latter are a pure function of the seed.
//!
//! It takes the same serve → accel → pool path as `serve-small`
//! differently: the single-threaded twin instead of the threaded
//! server, and the pool's faulted dispatch (retries, re-planning,
//! quarantine) instead of the healthy one.
//!
//! Arrivals live in virtual time, so the generator is never late:
//! lateness is zero by construction and is not reported.

use super::{as_dyn, over_pool, pooled};
use crate::layers::{self, Calls, LayerCtx};
use crate::pace::Pace;
use crate::problem::Problem;
use crate::stats;
use crate::trace::Tracer;
use crate::{LoopStats, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use xai_accel::{Accelerator, KernelStats, TpuAccel};
use xai_serve::{Outcome, ShedPolicy, SimServer};
use xai_tpu::{DevicePool, FaultPlan, Topology, TpuConfig};

const SIZE: usize = 8;
const GRID: usize = 2;
const DISTINCT: usize = 64;
const CHIPS: usize = 16;
const POD: usize = 4;
const QUEUE_CAPACITY: usize = 8;
/// Offered rate as a multiple of the calibrated healthy capacity.
const OVERSUBSCRIPTION: f64 = 2.0;
/// Deadline as a multiple of one request's healthy service time.
const DEADLINE_FACTOR: f64 = 16.0;
const RETRY_BUDGET: usize = 2;
const TRANSIENT_PROB: f64 = 0.05;
const FAIL_STOP_CHIP: usize = 5;

/// The 16 chips on a 4×4 torus.
fn torus_pool() -> DevicePool {
    DevicePool::new(TpuConfig::small_test(), CHIPS).with_topology(Topology::torus(POD))
}

/// A batching accelerator over [`torus_pool`], under `plan` if any.
fn torus_accel(plan: Option<FaultPlan>) -> Arc<TpuAccel> {
    let pool = torus_pool();
    if let Some(plan) = plan {
        pool.install_fault_plan(plan);
    }
    over_pool(pool)
}

pub(crate) struct SimChaos {
    problem: Problem,
    acc: Arc<TpuAccel>,
    sim: SimServer,
    seed: u64,
    ops: usize,
    /// Simulated seconds one request charges a healthy pool.
    service_s: f64,
}

impl SimChaos {
    fn offered_rps(&self) -> f64 {
        OVERSUBSCRIPTION / self.service_s
    }

    /// The seeded fault scenario: transient shard faults throughout
    /// and one chip dying halfway through the arrival span.
    fn fault_plan(seed: u64, span_s: f64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .transient(TRANSIENT_PROB)
            .fail_stop(FAIL_STOP_CHIP, 0.5 * span_s)
    }
}

impl Workload for SimChaos {
    const OPS_PER_SECOND: f64 = 12_000.0;

    fn setup(seed: u64, ops: usize) -> Self {
        let problem = Problem::synth(seed, SIZE, GRID, DISTINCT, &*torus_accel(None));
        // Calibrate on a healthy twin: simulated charges are
        // deterministic, so one measured request prices all, and
        // capacity stays the *healthy* baseline the degraded run is
        // judged against.
        let service_s = {
            let mut probe = SimServer::new(
                as_dyn(&torus_accel(None)),
                problem.model.clone(),
                1,
                ShedPolicy::RejectNewest,
            );
            probe.submit_at(0.0, problem.job(0), f64::INFINITY);
            probe.drain();
            probe.now_s()
        };
        let span_s = ops as f64 * service_s / OVERSUBSCRIPTION;
        let acc = torus_accel(Some(Self::fault_plan(seed, span_s)));
        let sim = SimServer::new(
            as_dyn(&acc),
            problem.model.clone(),
            QUEUE_CAPACITY,
            ShedPolicy::RejectNewest,
        )
        .with_retry_budget(RETRY_BUDGET);
        SimChaos {
            problem,
            acc,
            sim,
            seed,
            ops,
            service_s,
        }
    }

    fn run(&mut self, tracer: &mut Tracer) -> LoopStats {
        let ops = self.ops;
        let offered_rps = self.offered_rps();
        let deadline_s = DEADLINE_FACTOR * self.service_s;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        let mut handles = Vec::with_capacity(ops);
        let mut pace = Pace::start(crate::ops_per_slice(ops));
        for i in 0..ops {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / offered_rps;
            let job = self.problem.job(i);
            // Serve everything whose service starts before this
            // arrival, then deliver the arrival itself. A call that
            // finds nothing to serve is the loop's exit test, not a
            // serving step: it is neither a span nor a latency sample.
            loop {
                let step_start = Instant::now();
                let (served, _) = tracer.span_when(
                    "serve.sim_step",
                    None,
                    i as u64,
                    || self.sim.step_until(t),
                    |served| *served,
                );
                if !served {
                    break;
                }
                pace.latency_ms(step_start.elapsed().as_secs_f64() * 1e3);
            }
            handles.push(tracer.span("serve.sim_submit", None, i as u64, || {
                self.sim.submit_at(t, job, deadline_s)
            }));
            pace.op_done();
        }
        let (slices, latencies_ms) = pace.finish();
        // Draining the last queue-full of requests belongs to the run
        // but to no arrival, and so to no slice.
        self.sim.drain();

        let outcomes: Vec<Outcome> = handles
            .iter()
            .map(|h| {
                h.outcome()
                    .expect("drained simulator resolves every handle")
            })
            .collect();
        let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
        let (completed, shed) = (count(Outcome::Completed), count(Outcome::Shed));
        let (late, failed) = (count(Outcome::DeadlineExceeded), count(Outcome::Failed));
        let broken = (completed + shed + late + failed != ops)
            .then(|| format!("{completed}+{shed}+{late}+{failed} outcomes for {ops} offered"));

        // Outside the timed region: every completed map against its
        // reference, and the simulated latencies of those requests.
        let mut mismatched = 0u64;
        let mut latencies = Vec::with_capacity(completed);
        for (i, h) in handles.iter().enumerate() {
            if outcomes[i] == Outcome::Completed {
                let result = h.poll().expect("resolved");
                mismatched += u64::from(!self.problem.matches(i, &result));
                latencies.push(h.latency_s().expect("resolved"));
            }
        }

        let makespan_s = self.sim.now_s();
        let pool = self.acc.pool().expect("pooled");
        let mut counts = vec![
            ("serve.completed", completed as f64),
            ("serve.shed", shed as f64),
            ("serve.deadline_exceeded", late as f64),
            ("serve.failed", failed as f64),
            ("serve.retries", self.sim.retries() as f64),
            ("serve.queue_high_water", self.sim.high_water() as f64),
            (
                "serve.goodput_vs_capacity",
                completed as f64 / makespan_s * self.service_s,
            ),
            ("serve.shed_rate", shed as f64 / ops as f64),
            (
                "serve.sim_latency_p50_s",
                stats::percentile(&latencies, 0.50),
            ),
            (
                "serve.sim_latency_p99_s",
                stats::percentile(&latencies, 0.99),
            ),
            ("tpu.sharded_flights", pool.sharded_flights() as f64),
        ];
        // Per completed request: what the retried attempts computed is
        // part of what a completion cost.
        counts.extend(layers::kernel_counts(
            KernelStats::default(),
            self.acc.stats(),
            completed.max(1),
        ));
        counts.extend(layers::pool_counts(pool));
        LoopStats {
            attempted: ops as u64,
            completed: completed as u64 - mismatched,
            // Sheds and deadline misses under 2x overload are data
            // (goodput_frac carries them); kernel failures and wrong
            // bits are failures.
            failed: failed as u64 + mismatched,
            broken,
            slices,
            latencies_ms,
            // Everything the device charged, wasted attempts included,
            // over the requests that came out right.
            sim_s_per_req: self.acc.elapsed_seconds()
                / (completed as u64 - mismatched).max(1) as f64,
            counts,
            outcomes: outcomes.iter().map(|&o| o as u8).collect(),
        }
    }

    fn host_model_sim_s(&self) -> (f64, f64) {
        (self.problem.cpu_sim_s, self.problem.gpu_sim_s)
    }

    fn layers(
        &self,
        tracer: &mut Tracer,
        calls: Calls,
        notes: &mut Vec<String>,
    ) -> Vec<(&'static str, f64)> {
        // The replay runs on the faulted constructor too: the faulted
        // dispatch is the path this workload is here to time.
        let span_s = calls.replays as f64 * self.service_s;
        let ctx = LayerCtx {
            problem: &self.problem,
            acc: as_dyn(&torus_accel(Some(Self::fault_plan(self.seed, span_s)))),
            one_chip: as_dyn(&pooled(TpuConfig::small_test(), 1)),
            pool: Some(torus_pool()),
        };
        for i in 0..calls.replays {
            layers::replay_request(&ctx, tracer, i, None);
        }
        let mut out = layers::replay_metrics(&ctx, tracer, calls, notes);
        let (submit_us, n_submit) = tracer.median_us("serve.sim_submit");
        let (step_us, n_step) = tracer.median_us("serve.sim_step");
        let (contributions_us, _) = tracer.median_us("core.contributions");
        notes.push(format!(
            "serve.sim_submit_us: median of {n_submit} submit_at calls; serve.sim_step_us: median of {n_step} serving steps"
        ));
        out.extend([
            ("serve.sim_submit_us", submit_us),
            ("serve.sim_step_us", step_us),
            ("serve.sim_self_us", step_us - contributions_us),
        ]);
        out
    }
}
