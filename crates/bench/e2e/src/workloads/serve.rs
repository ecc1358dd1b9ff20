//! `serve-small` and `serve-large`: the threaded `ExplainServer` on
//! wall time under a **closed loop** — one generator thread keeps two
//! requests outstanding and sends the next only when the oldest
//! resolves, as callers that each wait for a reply do.
//!
//! The two differ only in what a request costs. On `serve-small`
//! (8×8, 4 lanes, 4 small chips) numerics are ~5 % of a request and
//! admission, condvar hand-off, `BatchQueue`, the `fanout_plan` dry-run
//! and the pool's shard threads do the rest. On `serve-large`
//! (128×128, 16 lanes, 2 `tpu_v2` chips — as many as this box has
//! cores) batch FFTs are ~60 % of a request and 80 % of its
//! `filter_diff_batch`, and the fan-out oracle, which keeps the 16
//! lanes on one 128-core chip, costs under 3 %.

use super::{as_dyn, pooled};
use crate::layers::{self, Calls, LayerCtx};
use crate::pace::Pace;
use crate::problem::Problem;
use crate::trace::Tracer;
use crate::{LoopStats, Workload};
use std::collections::VecDeque;
use std::sync::Arc;
use xai_accel::{Accelerator, TpuAccel};
use xai_serve::{ExplainServer, Outcome, ResponseHandle, ServeConfig, ServeResult, ShedPolicy};
use xai_tpu::{DevicePool, TpuConfig};

/// Requests the generator keeps outstanding.
const OUTSTANDING: usize = 2;

/// No request may be late: the closed loops measure service, not
/// deadline policy.
const DEADLINE_S: f64 = 3600.0;

/// The sizes that tell the two serving workloads apart.
pub(crate) trait ServeSpec {
    const SIZE: usize;
    const GRID: usize;
    const DISTINCT: usize;
    const WARMUP: usize;
    const OPS_PER_SECOND: f64;
    fn chip() -> TpuConfig;
    const CHIPS: usize;
}

pub(crate) struct Small;
impl ServeSpec for Small {
    const SIZE: usize = 8;
    const GRID: usize = 2;
    const DISTINCT: usize = 64;
    const WARMUP: usize = 1000;
    const OPS_PER_SECOND: f64 = 6000.0;
    /// With `CHIPS = 4` this is `xai_serve::load_accelerator(4)`,
    /// built here so the pool stays reachable for its counters.
    fn chip() -> TpuConfig {
        TpuConfig::small_test()
    }
    const CHIPS: usize = 4;
}

pub(crate) struct Large;
impl ServeSpec for Large {
    const SIZE: usize = 128;
    const GRID: usize = 4;
    const DISTINCT: usize = 16;
    const WARMUP: usize = 20;
    const OPS_PER_SECOND: f64 = 60.0;
    fn chip() -> TpuConfig {
        TpuConfig::tpu_v2()
    }
    const CHIPS: usize = 2;
}

pub(crate) type ServeSmall = Serve<Small>;
pub(crate) type ServeLarge = Serve<Large>;

fn server(acc: &Arc<TpuAccel>, problem: &Problem, workers: usize) -> ExplainServer {
    ExplainServer::new(
        as_dyn(acc),
        problem.model.clone(),
        ServeConfig {
            capacity: 64,
            policy: ShedPolicy::RejectNewest,
            workers,
            retry_budget: 0,
        },
    )
}

pub(crate) struct Serve<S: ServeSpec> {
    problem: Problem,
    acc: Arc<TpuAccel>,
    server: ExplainServer,
    ops: usize,
    /// Requests sent so far, so the timed loop continues the input
    /// cycle where the warm-up stopped.
    sent: usize,
    spec: std::marker::PhantomData<S>,
}

/// What the generator keeps of one resolved request: which input it
/// asked about, what came back, and the server's own submit→resolve
/// latency in seconds.
type Resolved = (usize, ServeResult, f64);

impl<S: ServeSpec> Serve<S> {
    /// Sends `ops` requests keeping [`OUTSTANDING`] in flight, telling
    /// `pace` as each resolves.
    fn closed_loop(
        &mut self,
        ops: usize,
        tracer: &mut Tracer,
        mut pace: Option<&mut Pace>,
    ) -> Vec<Resolved> {
        let mut resolved = Vec::with_capacity(ops);
        let mut inflight: VecDeque<(usize, ResponseHandle)> = VecDeque::new();
        let first = self.sent;
        for k in 0..ops + OUTSTANDING {
            if inflight.len() == OUTSTANDING || k >= ops {
                let Some((i, handle)) = inflight.pop_front() else {
                    break;
                };
                let result = tracer.span("serve.wait", None, i as u64, || handle.wait());
                let latency_s = handle.latency_s().expect("resolved");
                resolved.push((i, result, latency_s));
                if let Some(pace) = pace.as_deref_mut() {
                    pace.latency_ms(latency_s * 1e3);
                    pace.op_done();
                }
            }
            if k < ops {
                let i = first + k;
                let job = self.problem.job(i);
                let handle = tracer.span("serve.submit", None, i as u64, || {
                    self.server.submit(job, DEADLINE_S)
                });
                inflight.push_back((i, handle));
            }
        }
        self.sent += ops;
        resolved
    }
}

impl<S: ServeSpec> Workload for Serve<S> {
    const OPS_PER_SECOND: f64 = S::OPS_PER_SECOND;

    fn setup(seed: u64, ops: usize) -> Self {
        let reference = pooled(S::chip(), S::CHIPS);
        let problem = Problem::synth(seed, S::SIZE, S::GRID, S::DISTINCT, &*reference);
        let acc = pooled(S::chip(), S::CHIPS);
        let server = server(&acc, &problem, 2);
        let mut this = Serve {
            problem,
            acc,
            server,
            ops,
            sent: 0,
            spec: std::marker::PhantomData,
        };
        // Warm-up: plan cache, the resident thread crews, the
        // allocator. Capped so a short run is not all warm-up.
        this.closed_loop(S::WARMUP.min(ops), &mut Tracer::disabled(), None);
        this
    }

    fn run(&mut self, tracer: &mut Tracer) -> LoopStats {
        let ops = self.ops;
        let sim_before = self.acc.elapsed_seconds();
        let stats_before = self.acc.stats();
        let flights_before = self.acc.pool().map_or(0, DevicePool::sharded_flights);
        let mut pace = Pace::start(crate::ops_per_slice(ops));
        let resolved = self.closed_loop(ops, tracer, Some(&mut pace));
        let (slices, latencies_ms) = pace.finish();
        let sim_s = self.acc.elapsed_seconds() - sim_before;

        // Outside the timed region: every response against its
        // reference, bit for bit.
        let completed = resolved
            .iter()
            .filter(|(i, result, _)| self.problem.matches(*i, result))
            .count() as u64;
        let outcome = |r: &ServeResult| match r {
            Ok(_) => Outcome::Completed,
            Err(xai_serve::ServeError::Kernel(_)) => Outcome::Failed,
            Err(xai_serve::ServeError::DeadlineExceeded { .. }) => Outcome::DeadlineExceeded,
            Err(_) => Outcome::Shed,
        };
        let count = |o: Outcome| resolved.iter().filter(|(_, r, _)| outcome(r) == o).count() as f64;
        let pool = self.acc.pool().expect("pooled");
        let flights = (pool.sharded_flights() - flights_before) as f64;
        let mut counts = vec![
            ("serve.completed", count(Outcome::Completed)),
            ("serve.shed", count(Outcome::Shed)),
            ("serve.deadline_exceeded", count(Outcome::DeadlineExceeded)),
            ("serve.failed", count(Outcome::Failed)),
            ("serve.queue_high_water", self.server.high_water() as f64),
            ("tpu.sharded_flights", flights),
        ];
        counts.extend(layers::kernel_counts(stats_before, self.acc.stats(), ops));
        counts.extend(layers::pool_counts(pool));
        LoopStats {
            attempted: ops as u64,
            completed,
            failed: ops as u64 - completed,
            broken: None,
            slices,
            latencies_ms,
            sim_s_per_req: sim_s / completed.max(1) as f64,
            counts,
            outcomes: resolved.iter().map(|(_, r, _)| outcome(r) as u8).collect(),
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
        // One request at a time through a one-worker server on a fresh
        // accelerator: the unloaded submit→resolve time, with the
        // layers beneath it replayed on the same inputs.
        let unloaded_acc = pooled(S::chip(), S::CHIPS);
        let unloaded = server(&unloaded_acc, &self.problem, 1);
        let ctx = LayerCtx {
            problem: &self.problem,
            acc: as_dyn(&pooled(S::chip(), S::CHIPS)),
            one_chip: as_dyn(&pooled(S::chip(), 1)),
            pool: Some(DevicePool::new(S::chip(), S::CHIPS)),
        };
        for i in 0..calls.replays {
            let job = self.problem.job(i);
            let (result, root) = tracer.span_id("serve.unloaded", None, i as u64, || {
                unloaded.submit(job, DEADLINE_S).wait()
            });
            assert!(self.problem.matches(i, &result), "unloaded probe output");
            layers::replay_request(&ctx, tracer, i, root);
        }
        let mut out = layers::replay_metrics(&ctx, tracer, calls, notes);
        let (submit_us, n) = tracer.median_us("serve.submit");
        let (unloaded_us, _) = tracer.median_us("serve.unloaded");
        let (contributions_us, _) = tracer.median_us("core.contributions");
        notes.push(format!(
            "serve.submit_us: median of {n} loaded submits; serve.unloaded_us: median of {} requests, 1 outstanding, 1 worker",
            calls.replays
        ));
        out.extend([
            ("serve.submit_us", submit_us),
            ("serve.unloaded_us", unloaded_us),
            ("serve.self_us", unloaded_us - contributions_us),
        ]);
        out
    }
}
