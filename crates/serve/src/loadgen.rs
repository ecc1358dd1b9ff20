//! The synthetic open-loop load generator.
//!
//! Arrivals are a seeded Poisson process at a configurable multiple of
//! the server's measured capacity (requests per simulated second);
//! the generator drives a [`SimServer`] event loop and reports p50/p99
//! latency, goodput and shed rate. Everything — arrivals, service
//! times, shed decisions — lives in simulated time, so two runs with
//! the same [`LoadConfig`] produce bit-identical [`LoadReport`]s.

use crate::queue::ShedPolicy;
use crate::request::{ExplainJob, Outcome};
use crate::sim::SimServer;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use xai_accel::{Accelerator, CpuModel, TpuAccel};
use xai_core::{DistilledModel, SolveStrategy};
use xai_tensor::{Matrix, Result};
use xai_tpu::{DevicePool, FaultPlan, FaultStats, Topology, TpuConfig};

/// A seeded fault scenario layered onto one load experiment: the
/// chaos suite's knob for "what breaks, and when".
///
/// The calibration probe always runs fault-free — `capacity_rps` is
/// the *healthy* baseline, so a degraded run's `goodput_frac` measures
/// real degradation rather than recalibrating it away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadFault {
    /// Seed of the injected fault plan's transient draw stream.
    pub seed: u64,
    /// Per-shard-attempt transient fault probability in `[0, 1]`.
    pub transient_prob: f64,
    /// Chip that fail-stops mid-run, if any.
    pub fail_stop_chip: Option<usize>,
    /// When the fail-stop lands, as a fraction of the expected arrival
    /// span (`requests / offered_rps`) — `0.5` is mid-load.
    pub fail_stop_at_frac: f64,
}

impl LoadFault {
    /// A scenario where `chip` fail-stops halfway through the arrival
    /// span and nothing else goes wrong.
    pub fn fail_stop_mid_load(chip: usize) -> Self {
        LoadFault {
            seed: 7,
            transient_prob: 0.0,
            fail_stop_chip: Some(chip),
            fail_stop_at_frac: 0.5,
        }
    }

    /// A scenario of seeded transient kernel faults at probability
    /// `prob` per shard attempt, with no permanent failures.
    pub fn transient(seed: u64, prob: f64) -> Self {
        LoadFault {
            seed,
            transient_prob: prob,
            fail_stop_chip: None,
            fail_stop_at_frac: 0.5,
        }
    }
}

/// Knobs of one synthetic load experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Seed for the arrival process (and the synthetic problem).
    pub seed: u64,
    /// Number of requests offered.
    pub requests: usize,
    /// Offered rate as a multiple of measured capacity (2.0 = the
    /// acceptance criterion's 2× oversubscription).
    pub oversubscription: f64,
    /// Per-request deadline as a multiple of one request's service
    /// time. Must exceed `capacity + 1` for queued-at-the-bound work
    /// to finish in time.
    pub deadline_factor: f64,
    /// Admission-queue capacity.
    pub capacity: usize,
    /// Shedding policy under overload.
    pub policy: ShedPolicy,
    /// Simulated chips in the device pool serving the flights.
    pub devices: usize,
    /// Side length of the square synthetic inputs.
    pub size: usize,
    /// Occlusion grid of each request (`grid²` fused lanes).
    pub grid: usize,
    /// Interconnect fabric of the pool (`None` = the pool default,
    /// a flat crossbar). The degraded-mode scenario prices gathers on
    /// a 4×4 torus so a dead chip's detours show up in the timeline.
    pub topology: Option<Topology>,
    /// Seeded fault scenario, if any (`None` = fault-free; the code
    /// path is then bit-identical to a build without fault support).
    pub fault: Option<LoadFault>,
    /// Serving-level retry budget: transiently-failed requests re-run
    /// up to this many extra times while their deadline still allows.
    pub retry_budget: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 42,
            requests: 96,
            oversubscription: 2.0,
            deadline_factor: 16.0,
            capacity: 8,
            policy: ShedPolicy::RejectNewest,
            devices: 2,
            size: 8,
            grid: 2,
            topology: None,
            fault: None,
            retry_budget: 2,
        }
    }
}

/// What one load experiment measured (all times simulated seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Device time one request charges.
    pub service_s: f64,
    /// `1 / service_s`: the single-flight capacity in requests per
    /// simulated second.
    pub capacity_rps: f64,
    /// The offered arrival rate.
    pub offered_rps: f64,
    /// The absolute per-request deadline budget.
    pub deadline_s: f64,
    /// Requests served within their deadline.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests dropped or invalidated by their deadline.
    pub deadline_exceeded: usize,
    /// Requests failed inside the kernel.
    pub failed: usize,
    /// Completions per simulated second over the whole run.
    pub goodput_rps: f64,
    /// `goodput_rps / capacity_rps` — the acceptance criterion gates
    /// this at ≥ 0.8 under 2× oversubscription.
    pub goodput_frac: f64,
    /// Median latency of completed requests.
    pub p50_latency_s: f64,
    /// 99th-percentile latency of completed requests (bounded by the
    /// deadline: a later completion resolves `DeadlineExceeded`).
    pub p99_latency_s: f64,
    /// Largest `latency − deadline` over completed requests; a value
    /// above zero would mean a request was stuck past its deadline.
    pub max_over_deadline_s: f64,
    /// Virtual time when the last request resolved.
    pub makespan_s: f64,
    /// Deepest admission-queue occupancy observed.
    pub queue_high_water: usize,
    /// Serving-level retries: whole-job re-runs after a transient
    /// kernel failure (always 0 on a fault-free run).
    pub retries: u64,
    /// Device-pool fault counters accumulated over the run — shard
    /// retries, quarantines, probes, budget exhaustions.
    pub fault_stats: FaultStats,
    /// Per-request dispositions in submission order — the determinism
    /// pin compares two runs' vectors for equality.
    pub outcomes: Vec<Outcome>,
}

/// The synthetic explanation problem every request asks about: a
/// seeded integer-pattern input, its circular convolution under a
/// fixed kernel, and the distilled model recovered from the pair.
///
/// The convolution is taken through the transform, `F⁻¹(F(x) ∘ F(k))`,
/// on a [`CpuModel`]'s kernels (whose clock is not read): the bits of
/// `xai_fourier::convolve2d_fft`, in O(n² log n).
pub fn synth_problem(seed: u64, size: usize) -> Result<(DistilledModel, Matrix<f64>, Matrix<f64>)> {
    let s = (seed % 13) as f64;
    let k = Matrix::from_fn(size, size, |r, c| ((r + c * 3) % 5) as f64 * 0.25)?;
    let x = Matrix::from_fn(size, size, |r, c| {
        ((r * 5 + c * 7) % 11) as f64 - 5.0 + s * 0.125
    })?;
    let cpu = CpuModel::i7_3700();
    let [fx, fk] = [&x, &k].map(|a| cpu.fft2d(&a.to_complex()));
    let y = cpu.ifft2d(&cpu.hadamard(&fx?, &fk?)?)?.to_real();
    let model = DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default())?;
    Ok((model, x, y))
}

/// A pooled, batching accelerator matching the load generator's
/// service model: every request's `grid²` fused lanes ride one
/// coalescing-queue flight sharded across `devices` chips.
pub fn load_accelerator(devices: usize) -> Arc<dyn Accelerator> {
    pooled_accel(devices, None)
}

/// [`load_accelerator`] with an optional fabric installed — kept
/// concrete so `run_load` can reach the pool for fault-plan
/// installation and counter readback.
fn pooled_accel(devices: usize, topology: Option<Topology>) -> Arc<TpuAccel> {
    let mut pool = DevicePool::new(TpuConfig::small_test(), devices.max(1));
    if let Some(topology) = topology {
        pool = pool.with_topology(topology);
    }
    Arc::new(TpuAccel::over_pool(pool, Duration::ZERO, 256))
}

/// Runs one seeded open-loop load experiment against a [`SimServer`].
///
/// The event loop is a textbook single-server queue simulation:
/// arrivals at seeded exponential gaps, service whenever the device is
/// free and work is queued, all interleaved in virtual-time order.
///
/// # Errors
///
/// Propagates construction/kernel errors from the synthetic problem or
/// the calibration request; load outcomes themselves (shed, deadline)
/// are data, not errors.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport> {
    let (model, x, y) = synth_problem(cfg.seed, cfg.size)?;
    let job = ExplainJob::Contributions {
        x: x.clone(),
        y: y.clone(),
        grid: cfg.grid,
    };

    // Calibrate the service time on a twin accelerator: simulated
    // charges are deterministic, so one measured request prices all.
    // The probe shares the experiment's fabric but never its fault
    // plan — `capacity_rps` is the *healthy* baseline, so degraded
    // goodput fractions measure real degradation.
    let service_s = {
        let calib: Arc<dyn Accelerator> = pooled_accel(cfg.devices, cfg.topology);
        let mut probe = SimServer::new(calib, model.clone(), 1, cfg.policy);
        probe.submit_at(0.0, job.clone(), f64::INFINITY);
        probe.drain();
        probe.now_s()
    };
    let capacity_rps = 1.0 / service_s;
    let offered_rps = cfg.oversubscription * capacity_rps;
    let deadline_s = cfg.deadline_factor * service_s;

    let acc = pooled_accel(cfg.devices, cfg.topology);
    if let Some(fault) = cfg.fault {
        let mut plan = FaultPlan::seeded(fault.seed).transient(fault.transient_prob);
        if let Some(chip) = fault.fail_stop_chip {
            // "Mid-load" is a fraction of the expected arrival span.
            let span_s = cfg.requests as f64 / offered_rps;
            plan = plan.fail_stop(chip, fault.fail_stop_at_frac * span_s);
        }
        acc.pool()
            .expect("pooled_accel always carries a pool")
            .install_fault_plan(plan);
    }
    let mut sim = SimServer::new(
        Arc::<TpuAccel>::clone(&acc) as Arc<dyn Accelerator>,
        model,
        cfg.capacity,
        cfg.policy,
    )
    .with_retry_budget(cfg.retry_budget);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    let mut handles = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / offered_rps;
        // Serve everything whose service starts before this arrival,
        // then deliver the arrival itself.
        while sim.step_until(t) {}
        handles.push(sim.submit_at(t, job.clone(), deadline_s));
    }
    sim.drain();

    let outcomes: Vec<Outcome> = handles
        .iter()
        .map(|h| {
            h.outcome()
                .expect("drained simulator resolves every handle")
        })
        .collect();
    let count = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count();
    let (completed, shed) = (count(Outcome::Completed), count(Outcome::Shed));
    let deadline_exceeded = count(Outcome::DeadlineExceeded);
    let failed = count(Outcome::Failed);

    let mut latencies: Vec<f64> = handles
        .iter()
        .filter(|h| h.outcome() == Some(Outcome::Completed))
        .map(|h| h.latency_s().expect("resolved"))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let max_over_deadline_s = latencies
        .last()
        .map_or(f64::NEG_INFINITY, |worst| worst - deadline_s);

    let makespan_s = sim.now_s();
    let goodput_rps = completed as f64 / makespan_s;
    Ok(LoadReport {
        service_s,
        capacity_rps,
        offered_rps,
        deadline_s,
        completed,
        shed,
        deadline_exceeded,
        failed,
        goodput_rps,
        goodput_frac: goodput_rps / capacity_rps,
        p50_latency_s: percentile(&latencies, 0.50),
        p99_latency_s: percentile(&latencies, 0.99),
        max_over_deadline_s,
        makespan_s,
        queue_high_water: sim.high_water(),
        retries: sim.retries(),
        fault_stats: acc.pool().map(|p| p.fault_stats()).unwrap_or_default(),
        outcomes,
    })
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when
/// empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `y` is `convolve2d_fft`'s, bit for bit, at a power-of-two and a
    /// Bluestein size.
    #[test]
    fn the_synthetic_output_is_the_transform_convolution() {
        for size in [8, 6] {
            let (_, x, y) = synth_problem(5, size).unwrap();
            let k = Matrix::from_fn(size, size, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
            let want = xai_fourier::convolve2d_fft(&x, &k).unwrap();
            let bits = |m: &Matrix<f64>| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want), "{size}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn oversubscribed_load_meets_the_paper_repo_gates() {
        let report = run_load(&LoadConfig::default()).unwrap();
        assert_eq!(
            report.completed + report.shed + report.deadline_exceeded + report.failed,
            96,
            "every request resolves exactly once"
        );
        assert_eq!(report.failed, 0);
        assert!(report.shed > 0, "2x oversubscription must shed something");
        assert!(
            report.goodput_frac >= 0.8,
            "goodput {:.3} of capacity under 2x load",
            report.goodput_frac
        );
        assert!(
            report.max_over_deadline_s <= 0.0,
            "no completion may land past its deadline"
        );
        assert!(report.p99_latency_s <= report.deadline_s);
        assert!(report.p50_latency_s <= report.p99_latency_s);
        assert!(report.queue_high_water <= 8);
    }
}
