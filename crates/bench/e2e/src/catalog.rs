//! The benchmark's declared surface: workloads and metrics.
//!
//! `BENCHMARK.json` at the repo root lists the same names, units,
//! directions and bounds; `tests/contract.rs` holds the two together.
//!
//! **Two clocks, always labelled.** A [`Clock::Host`] metric is
//! `Instant` wall time or process CPU time of our Rust and carries a
//! plain time unit (`s`, `ms`, `us`, `1/s`). A [`Clock::Sim`] metric is
//! what the cost model charges (`Accelerator::elapsed_seconds`,
//! `SimServer::now_s`) and carries a `sim_` unit or a ratio of
//! simulated quantities. A [`Clock::Count`] metric is an exact count.
//! A host-only optimisation must leave every `Sim` and `Count` metric
//! identical for a given `(workload, seed, seconds)`; `compare` checks
//! it and prints `sim_identical`.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall or CPU time; noisy, compared by medians and bounds.
    Host,
    /// Simulated seconds or a ratio of them; a pure function of the
    /// inputs, compared at 1e-9 relative.
    Sim,
    /// An exact count or a value computed from sizes; compared like
    /// [`Clock::Sim`].
    Count,
}

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit; `sim_` prefixes mark simulated seconds.
    pub unit: &'static str,
    /// The clock it is read from.
    pub clock: Clock,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (0 for per-layer
    /// metrics, which have no bound).
    pub bound: f64,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// What a user of the system sees. Every workload reports every one;
/// "operation" is a served request on `serve-*`, an offered request on
/// `sim-chaos` and a pair-interpretation on `pipeline-offline` (see the
/// README's per-workload table).
pub const END_TO_END: &[Metric] = &[
    // Host times: this box's CPU speed moves ±20 % in ten-second
    // phases (see `pace`), and ten-run sets of one commit spread 6–15 %
    // between their quartiles even at nominal host speed, so these
    // carry the largest bound the contract allows.
    m("setup_s", "s", Host, Lower, 0.25),
    m("req_per_s", "1/s", Host, Higher, 0.25),
    m("latency_p50_ms", "ms", Host, Lower, 0.25),
    m("cpu_us_per_req", "us", Host, Lower, 0.25),
    m("peak_rss_mb", "MB", Host, Lower, 0.10),
    // Simulated: exact for one seed; across seeds only `sim-chaos`
    // moves (arrivals and faults are seeded), by 0.2–0.6 %.
    m("sim_s_per_req", "sim_s", Sim, Lower, 0.01),
    m("goodput_frac", "frac", Sim, Higher, 0.02),
    m("interp_speedup_vs_cpu_x", "x", Sim, Higher, 0.01),
    m("interp_speedup_vs_gpu_x", "x", Sim, Higher, 0.01),
];

/// Single layers (layer = crate), from the traced run.
pub const PER_LAYER: &[Metric] = &[
    // xai-serve
    m("serve.submit_us", "us", Host, Lower, 0.0),
    m("serve.unloaded_us", "us", Host, Lower, 0.0),
    m("serve.self_us", "us", Host, Lower, 0.0),
    m("serve.latency_p99_ms", "ms", Host, Lower, 0.0),
    m("serve.sim_submit_us", "us", Host, Lower, 0.0),
    m("serve.sim_step_us", "us", Host, Lower, 0.0),
    m("serve.sim_self_us", "us", Host, Lower, 0.0),
    m("serve.completed", "count", Count, Higher, 0.0),
    m("serve.shed", "count", Count, Lower, 0.0),
    m("serve.deadline_exceeded", "count", Count, Lower, 0.0),
    m("serve.failed", "count", Count, Lower, 0.0),
    m("serve.retries", "count", Count, Lower, 0.0),
    // Exact on the virtual-time twin; on the threaded server it moves
    // with host thread interleaving, so it is compared as a host value.
    m("serve.queue_high_water", "count", Host, Lower, 0.0),
    m("serve.goodput_vs_capacity", "frac", Sim, Higher, 0.0),
    m("serve.shed_rate", "frac", Sim, Lower, 0.0),
    m("serve.sim_latency_p50_s", "sim_s", Sim, Lower, 0.0),
    m("serve.sim_latency_p99_s", "sim_s", Sim, Lower, 0.0),
    // xai-core
    m("core.contributions_us", "us", Host, Lower, 0.0),
    m("core.occlude_us", "us", Host, Lower, 0.0),
    m("core.self_us", "us", Host, Lower, 0.0),
    m("core.distill_fit_ms", "ms", Host, Lower, 0.0),
    m("core.interpret_ms", "ms", Host, Lower, 0.0),
    // xai-accel
    m("accel.filter_diff_us", "us", Host, Lower, 0.0),
    m("accel.filter_diff_1chip_us", "us", Host, Lower, 0.0),
    m("accel.fanout_overhead_us", "us", Host, Lower, 0.0),
    m("accel.dispatch_self_us", "us", Host, Lower, 0.0),
    m("accel.numerics_overlap_x", "x", Host, Higher, 0.0),
    m("accel.direct_fft2d_us", "us", Host, Lower, 0.0),
    m("accel.direct_self_us", "us", Host, Lower, 0.0),
    m("accel.host_model_fft2d_us", "us", Host, Lower, 0.0),
    m("accel.flops_per_req", "flop", Count, Lower, 0.0),
    m("accel.bytes_per_req", "B", Count, Lower, 0.0),
    m("accel.sim_s_per_flight", "sim_s", Sim, Lower, 0.0),
    // xai-tpu
    m("tpu.batch_submit_us", "us", Host, Lower, 0.0),
    m("tpu.run_sharded_us", "us", Host, Lower, 0.0),
    m("tpu.shard_plan_us", "us", Host, Lower, 0.0),
    m("tpu.lease_timed_us", "us", Host, Lower, 0.0),
    m("tpu.deep_clone_us", "us", Host, Lower, 0.0),
    m("tpu.sharded_flights", "count", Count, Higher, 0.0),
    m("tpu.transient_faults", "count", Count, Lower, 0.0),
    m("tpu.fail_stops", "count", Count, Lower, 0.0),
    m("tpu.retries", "count", Count, Lower, 0.0),
    m("tpu.replans", "count", Count, Lower, 0.0),
    m("tpu.quarantines", "count", Count, Lower, 0.0),
    m("tpu.probes", "count", Count, Lower, 0.0),
    m("tpu.readmissions", "count", Count, Higher, 0.0),
    m("tpu.budget_exhausted", "count", Count, Lower, 0.0),
    m("tpu.retry_ratio", "frac", Count, Lower, 0.0),
    m("tpu.gather_s_frac", "frac", Sim, Lower, 0.0),
    // Simulated overlap, but which leases coincide on the threaded
    // server is the host scheduler's doing: compared as a host value.
    m("tpu.lane_overlap_frac", "frac", Host, Higher, 0.0),
    // xai-fourier
    m("fourier.fft_batch_us", "us", Host, Lower, 0.0),
    m("fourier.fft2d_us", "us", Host, Lower, 0.0),
    m("fourier.plan_lookup_ns", "ns", Host, Lower, 0.0),
    m("fourier.flops_per_req", "flop", Count, Lower, 0.0),
    // xai-tensor
    m("tensor.elementwise_us", "us", Host, Lower, 0.0),
    m("tensor.matmul_256_ms", "ms", Host, Lower, 0.0),
    m("tensor.alloc_bytes_per_req", "B", Count, Lower, 0.0),
    // xai-parallel
    m("parallel.scope_blocking_us", "us", Host, Lower, 0.0),
    m("parallel.scope_us", "us", Host, Lower, 0.0),
    m("parallel.threads", "count", Count, Higher, 0.0),
    // xai-nn, xai-data
    m("nn.train_epoch_ms", "ms", Host, Lower, 0.0),
    m("nn.forward_us", "us", Host, Lower, 0.0),
    m("data.generate_img_us", "us", Host, Lower, 0.0),
    // the benchmark's own tracing
    m("trace.spans", "count", Count, Lower, 0.0),
    m("trace.overhead_frac", "frac", Host, Lower, 0.0),
];

/// One workload: its name and, in one line, why it is here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why the workload exists, its loop kind and its sizes.
    pub why: &'static str,
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "serve-small",
        why: "ExplainServer, 2 workers, 4 small chips, 8x8 grid 2 (4 lanes), 64 inputs; closed loop, 2 outstanding: admission, queue, fan-out and shard threads dominate, numerics ~5% of a request",
    },
    WorkloadInfo {
        name: "serve-large",
        why: "same server on 2 tpu_v2 chips, 128x128 grid 4 (16 lanes), 16 inputs; closed loop, 2 outstanding: batch FFTs ~60% of a request (80% of filter_diff), fan-out <3%, so dispatch work predicts no change",
    },
    WorkloadInfo {
        name: "sim-chaos",
        why: "SimServer twin in virtual time, 16-chip torus, seeded transient faults and a fail-stop, 8x8 grid 2, 64 inputs; open loop at 2x capacity: simulator speed and modelled-design statistics",
    },
    WorkloadInfo {
        name: "pipeline-offline",
        why: "paper Fig. 2 flow, no server, queue or pool: 64 images -> one vgg_small epoch -> interpret_on 4 pairs 128x128 grid 4 on CPU, GPU and direct TPU: direct kernel path, host models, nn, data",
    },
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` obeys the contract: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` obeys the contract: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_and_unit_rules_reject_what_the_contract_rejects() {
        assert!(valid_name("serve.submit_us") && valid_name("9lives"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("sim_s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn bounds_are_within_the_contract_and_setup_has_the_largest() {
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for metric in END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
            assert!(metric.bound <= setup.bound);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound == 0.0));
    }
}
