//! # xai-e2e
//!
//! The two-clock end-to-end benchmark of the tpu-xai workspace: four
//! workloads that stress different layers, host and simulated time
//! side by side, per-layer timings taken from outside by calling the
//! crates' public functions. See `README.md` for the design and
//! `../../../BENCHMARK.json` for the declared surface.
//!
//! Nothing here is product code: the crates under `crates/*/src`
//! receive only the generated inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod json;
pub mod pace;
pub mod stats;
pub mod trace;

mod layers;
mod problem;
mod workloads;

use catalog::{Metric, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::Tracer;

/// Slices of the timed region each host rate is the median of: short
/// enough (about 75 ms at `--seconds 15`) that a burst of host
/// interference lands in few of them, which is what lets their median
/// ignore it.
pub const SLICES: usize = 200;

/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A cheap set-up is repeated beyond [`SETUP_REPEATS`] until this many
/// seconds have gone into set-ups (or [`SETUP_REPEATS_MAX`] of them),
/// so that a ten-millisecond set-up is not judged on three samples.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// See [`SETUP_BUDGET_S`].
pub const SETUP_REPEATS_MAX: usize = 100;

/// How long the reference is timed before and after each set-up.
pub const SETUP_REFERENCE: std::time::Duration = std::time::Duration::from_millis(3);

/// The traced run replays this share of the untraced operation count.
pub const TRACE_SHARE: f64 = 0.1;

/// What one invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// One of [`catalog::WORKLOADS`].
    pub workload: String,
    /// Drives every generated input, arrival gap and fault draw.
    pub seed: u64,
    /// Scales the fixed operation counts (operations per second of
    /// `--seconds` were calibrated at the seed commit), so simulated
    /// statistics are a pure function of `(seed, seconds)` and never
    /// of how fast the host happens to be.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced
    /// run and every per-layer metric.
    pub trace: bool,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct RunResult {
    /// Every output equalled its reference bit for bit and every
    /// invariant of the workload held.
    pub correct: bool,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations failed: kernel failures, output mismatches and, in
    /// the closed loops, any request that did not complete.
    pub failed: u64,
    /// `(name, value)` for every declared metric of the mode, in
    /// catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and remarks printed beside the metrics.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty when tracing is off).
    pub tracer: Tracer,
    /// Per-operation dispositions of the timed loop, in order: equal
    /// for equal seeds wherever outcomes are a function of the seed.
    pub outcomes: Vec<u8>,
    /// Operations per host second of each slice of the timed loop, at
    /// nominal host speed.
    pub slice_rates: Vec<f64>,
}

/// What a timed loop hands back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopStats {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that completed with the reference output.
    pub completed: u64,
    /// See [`RunResult::failed`].
    pub failed: u64,
    /// An invariant of the workload broke (e.g. outcomes do not add
    /// up to the requests offered).
    pub broken: Option<String>,
    /// The timed region, slice by slice.
    pub slices: Vec<pace::Slice>,
    /// Raw host milliseconds of every latency sample taken.
    pub latencies_ms: Vec<f64>,
    /// Simulated device seconds charged per completed operation.
    pub sim_s_per_req: f64,
    /// Exact counts and simulated statistics of the loop's own server
    /// and accelerator, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-operation dispositions, for determinism checks.
    pub outcomes: Vec<u8>,
}

impl LoopStats {
    /// Operations per host second of each slice; at nominal host speed
    /// when `normalised` (see [`pace`]), raw otherwise.
    pub fn slice_rates(&self, normalised: bool) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| {
                let raw = s.ops as f64 / s.seconds.max(1e-12);
                raw * if normalised { s.slowdown } else { 1.0 }
            })
            .collect()
    }

    /// Operations per host second at nominal speed: the **median over
    /// the slices**, never a whole-run mean, so a stalled slice does
    /// not count.
    pub fn rate(&self) -> f64 {
        stats::median(&self.slice_rates(true))
    }
}

/// One workload: set-up, a timed loop, and its layers taken apart.
trait Workload: Sized {
    /// Operations per second of `--seconds`, calibrated at the seed
    /// commit so one "second" of work takes about one second there.
    const OPS_PER_SECOND: f64;
    /// Reported operations per loop operation (12 pair-interpretations
    /// per pipeline slice; 1 elsewhere).
    const UNITS_PER_OP: f64 = 1.0;

    /// Everything before the first timed operation: input synthesis,
    /// `DistilledModel::fit`, reference outputs, construction, warm-up.
    fn setup(seed: u64, ops: usize) -> Self;

    /// The timed loop over the operations `setup` was sized for.
    fn run(&mut self, tracer: &mut Tracer) -> LoopStats;

    /// Simulated seconds one operation costs on the paper's CPU and
    /// GPU models (the bases of `interp_speedup_vs_*_x`).
    fn host_model_sim_s(&self) -> (f64, f64);

    /// Remarks printed beside the end-to-end metrics.
    fn remarks(&self) -> Vec<String> {
        Vec::new()
    }

    /// Times this workload's layers one operation at a time, recording
    /// spans, and returns the per-layer metrics it can speak for.
    fn layers(
        &self,
        tracer: &mut Tracer,
        calls: layers::Calls,
        notes: &mut Vec<String>,
    ) -> Vec<(&'static str, f64)>;
}

/// Operation count for `seconds`: at least one per slice, a whole
/// number of slices.
fn planned_ops(ops_per_second: f64, seconds: f64) -> usize {
    let want = (ops_per_second * seconds).round().max(1.0) as usize;
    let slices = want.min(SLICES);
    want.div_ceil(slices) * slices
}

/// Operations per slice of a region of `ops` planned operations.
fn ops_per_slice(ops: usize) -> usize {
    ops / ops.min(SLICES)
}

/// Runs one workload in one mode.
///
/// # Errors
///
/// An unknown workload name or a non-positive `seconds`.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {}", opts.seconds));
    }
    match opts.workload.as_str() {
        "serve-small" => Ok(drive::<workloads::serve::ServeSmall>(opts)),
        "serve-large" => Ok(drive::<workloads::serve::ServeLarge>(opts)),
        "sim-chaos" => Ok(drive::<workloads::chaos::SimChaos>(opts)),
        "pipeline-offline" => Ok(drive::<workloads::pipeline::PipelineOffline>(opts)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of: {})",
            catalog::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn drive<W: Workload>(opts: &RunOptions) -> RunResult {
    if opts.trace {
        drive_traced::<W>(opts)
    } else {
        drive_untraced::<W>(opts)
    }
}

fn drive_untraced<W: Workload>(opts: &RunOptions) -> RunResult {
    let ops = planned_ops(W::OPS_PER_SECOND, opts.seconds);
    // Each set-up is timed between two bursts of the host-speed
    // reference and reported at nominal speed, like the timed region.
    let mut reference = pace::Reference::default();
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut workload = None;
    while setups.len() < SETUP_REPEATS
        || (setups.len() < SETUP_REPEATS_MAX && setups_raw.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take()); // tearing the last one down is not set-up
        let mut reference_us = Vec::new();
        reference.burst(SETUP_REFERENCE, &mut reference_us);
        let start = Instant::now();
        workload = Some(W::setup(opts.seed, ops));
        let raw = start.elapsed().as_secs_f64();
        reference.burst(SETUP_REFERENCE, &mut reference_us);
        setups_raw.push(raw);
        setups.push(raw / pace::slowdown(&reference_us));
    }
    let mut workload = workload.expect("SETUP_REPEATS >= 1");
    let mut tracer = Tracer::disabled();
    let stats = workload.run(&mut tracer);
    let (cpu_sim_s, gpu_sim_s) = workload.host_model_sim_s();

    let units = stats.attempted as f64;
    let sim_s_per_req = stats.sim_s_per_req;
    let sampled = || stats.slices.iter().filter(|s| s.latency_ms > 0.0);
    let latencies: Vec<f64> = sampled().map(|s| s.latency_ms / s.slowdown).collect();
    let latencies_raw: Vec<f64> = sampled().map(|s| s.latency_ms).collect();
    let cpu_s: f64 = stats.slices.iter().map(|s| s.cpu_s / s.slowdown).sum();
    let cpu_raw_s: f64 = stats.slices.iter().map(|s| s.cpu_s).sum();
    let values = [
        ("setup_s", stats::median(&setups)),
        ("req_per_s", stats.rate() * W::UNITS_PER_OP),
        ("latency_p50_ms", stats::median(&latencies)),
        ("cpu_us_per_req", cpu_s * 1e6 / units),
        ("peak_rss_mb", stats::process_peak_rss_mb()),
        ("sim_s_per_req", sim_s_per_req),
        ("goodput_frac", stats.completed as f64 / units),
        ("interp_speedup_vs_cpu_x", cpu_sim_s / sim_s_per_req),
        ("interp_speedup_vs_gpu_x", gpu_sim_s / sim_s_per_req),
    ];
    let slowdowns: Vec<f64> = stats.slices.iter().map(|s| s.slowdown).collect();
    let ops_per_slice = stats.slices.first().map_or(0, |s| s.ops);
    let mut notes = vec![
        format!(
            "n: setup_s median of {} set-ups; req_per_s median of {} slices x {ops_per_slice} ops; \
             latency_p50_ms median of {} slice medians ({} samples); cpu_us_per_req over {} ops",
            setups.len(),
            stats.slices.len(),
            latencies.len(),
            stats.latencies_ms.len(),
            stats.attempted,
        ),
        format!(
            "host metrics are at nominal host speed (reference kernel at {} us); this run's \
             slowdown: median {:.3}, min {:.3}, max {:.3}",
            pace::REFERENCE_NOMINAL_US,
            stats::median(&slowdowns),
            slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
            slowdowns.iter().copied().fold(0.0, f64::max),
        ),
        format!(
            "raw wall-clock: setup_s {:.6}  req_per_s {:.6}  latency_p50_ms {:.6}  cpu_us_per_req {:.6}",
            stats::median(&setups_raw),
            stats::median(&stats.slice_rates(false)) * W::UNITS_PER_OP,
            stats::median(&latencies_raw),
            cpu_raw_s * 1e6 / units,
        ),
        format!(
            "timed region {:.3} s host; nproc {}",
            stats.slices.iter().map(|s| s.seconds).sum::<f64>(),
            std::thread::available_parallelism().map_or(0, usize::from),
        ),
    ];
    notes.extend(workload.remarks());
    finish(END_TO_END, &values, &stats, notes, tracer)
}

fn drive_traced<W: Workload>(opts: &RunOptions) -> RunResult {
    let ops = planned_ops(W::OPS_PER_SECOND, opts.seconds * TRACE_SHARE);
    // Untraced, traced, untraced: the traced loop's rate is set against
    // the mean of its two neighbours, so a process that is still
    // warming up (or a box that is slowing down) does not read as
    // tracing overhead.
    let before = W::setup(opts.seed, ops).run(&mut Tracer::disabled());
    let mut workload = W::setup(opts.seed, ops);
    let mut tracer = Tracer::enabled();
    let mut traced = workload.run(&mut tracer);
    let after = W::setup(opts.seed, ops).run(&mut Tracer::disabled());
    if traced.outcomes != before.outcomes || traced.outcomes != after.outcomes {
        traced.broken = Some("traced and untraced loops of one seed disagree".to_string());
    }
    let untraced_rate = (before.rate() + after.rate()) / 2.0;
    let mut notes = vec![format!(
        "traced loop: {} ops ({}x the untraced count), {} spans",
        traced.attempted,
        TRACE_SHARE,
        tracer.spans().len()
    )];
    let mut values = traced.counts.clone();
    values.push((
        "serve.latency_p99_ms",
        stats::percentile(&after.latencies_ms, 0.99),
    ));
    values.push(("trace.overhead_frac", 1.0 - traced.rate() / untraced_rate));
    let calls = layers::Calls::for_seconds(opts.seconds);
    values.extend(workload.layers(&mut tracer, calls, &mut notes));
    values.extend(layers::fixed_probes(&mut tracer, calls, &mut notes));
    values.push(("trace.spans", tracer.spans().len() as f64));
    finish(PER_LAYER, &values, &traced, notes, tracer)
}

/// Orders `values` by the catalogue; a per-layer metric the workload
/// does not exercise reads 0 (no calls, no time).
fn finish(
    declared: &'static [Metric],
    values: &[(&'static str, f64)],
    stats: &LoopStats,
    mut notes: Vec<String>,
    tracer: Tracer,
) -> RunResult {
    for (name, _) in values {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric `{name}` is not declared for this mode"
        );
    }
    let metrics = declared
        .iter()
        .map(|m| {
            let value = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            (m.name, value.unwrap_or(0.0))
        })
        .collect();
    if let Some(why) = &stats.broken {
        notes.push(format!("INVARIANT BROKEN: {why}"));
    }
    RunResult {
        correct: stats.failed == 0 && stats.broken.is_none(),
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        notes,
        tracer,
        outcomes: stats.outcomes.clone(),
        slice_rates: stats.slice_rates(true),
    }
}

/// The contract's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalog::find(name).expect("declared").unit;
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// The result line with the run's identity and its slice rates in
/// front, as appended to a result set for `compare`.
pub fn result_set_line(opts: &RunOptions, result: &RunResult) -> String {
    let slices: Vec<String> = result
        .slice_rates
        .iter()
        .map(|r| json::number(*r))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"slice_rates\":[{}],{}",
        json::quote(&opts.workload),
        opts.seed,
        json::number(opts.seconds),
        u8::from(opts.trace),
        slices.join(","),
        &result_line(result)[1..]
    )
}

/// Every metric by name with its unit and clock, for people.
pub fn render_table(opts: &RunOptions, result: &RunResult) -> String {
    let mut out = format!(
        "workload {}  seed {}  seconds {}  trace {}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (name, value) in &result.metrics {
        let metric = catalog::find(name).expect("declared");
        let clock = match metric.clock {
            catalog::Clock::Host => "host",
            catalog::Clock::Sim => "simulated",
            catalog::Clock::Count => "exact",
        };
        out.push_str(&format!(
            "  {name:<28} {value:>16.6} {:<6} [{clock}]\n",
            metric.unit
        ));
    }
    for note in &result.notes {
        out.push_str(&format!("  # {note}\n"));
    }
    out.push_str(&format!(
        "  attempted {}  failed {}  correct {}\n",
        result.attempted, result.failed, result.correct
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_median_ignores_one_stalled_slice_and_undoes_the_host_slowdown() {
        let slice = |seconds: f64, slowdown: f64| pace::Slice {
            ops: 100,
            seconds,
            cpu_s: seconds,
            latency_ms: 1.0,
            slowdown,
        };
        // Three slices at 100 ops/s, one stalled for ten seconds.
        let mut stats = LoopStats {
            slices: vec![
                slice(1.0, 1.0),
                slice(1.0, 1.0),
                slice(10.0, 1.0),
                slice(1.0, 1.0),
            ],
            ..LoopStats::default()
        };
        assert_eq!(stats.slice_rates(false), [100.0, 100.0, 10.0, 100.0]);
        assert_eq!(stats.rate(), 100.0);
        // A host running 25 % slow takes 1.25 s over the same slice.
        stats.slices = vec![slice(1.25, 1.25); 3];
        assert_eq!(stats.slice_rates(false), [80.0; 3]);
        assert_eq!(stats.rate(), 100.0);
    }

    #[test]
    fn planned_ops_fill_whole_slices() {
        assert_eq!(planned_ops(5000.0, 10.0), 50_000);
        assert_eq!(planned_ops(5000.0, 0.05), 400); // 250 wanted: 200 slices of 2
        assert_eq!((planned_ops(1.0, 0.1), ops_per_slice(1)), (1, 1));
        assert_eq!(planned_ops(60.0, 15.0), 1000); // 900 wanted: 200 slices of 5
        assert_eq!(ops_per_slice(1000), 5);
        assert_eq!(planned_ops(50.0, 1.0), 50); // fewer than SLICES: one each
        assert_eq!(ops_per_slice(50), 1);
    }
}
