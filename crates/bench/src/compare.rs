//! Baseline comparison for `report --json` output: the perf gate CI
//! runs on every PR.
//!
//! The repo commits `BENCH_baseline.json` (written by the `report`
//! binary); the `compare_baseline` binary re-runs the report and
//! fails the build when a claim stopped passing, a baselined metric
//! is missing, or a metric regressed beyond tolerance. Parsing is hand-rolled against the report's own
//! fixed JSON shape (the workspace builds offline, without serde).

/// Metrics measured in *real* wall-clock on the CI host rather than
/// simulated time — excluded from the regression gate because their
/// run-to-run noise swamps any 10% tolerance.
///
/// The serving-layer rows (`serve_*`: capacity, goodput fraction,
/// p50/p99 latency, shed rate) are **not** listed here deliberately:
/// the load generator runs entirely in simulated time from a fixed
/// seed, so they are deterministic and gate normally.
pub const WALLCLOCK_METRICS: &[&str] = &[
    "closed_form_wallclock_seconds",
    "lime_baseline_wallclock_seconds",
    "closed_form_speedup_vs_lime",
    "host_parallel_speedup_matmul_512",
    "host_parallel_speedup_fft2d_512",
];

/// Relative delta below which two metric values count as *equal*.
/// Simulated metrics are deterministic, but once flights coalesce and
/// shard, floating-point reductions run in a different (still
/// deterministic) order than the committed baseline's, so the last
/// few bits of a metric can differ without any real change. A metric
/// sitting exactly on the tolerance boundary must not flip the gate
/// on that jitter.
pub const METRIC_JITTER_EPSILON: f64 = 1e-9;

/// One metric's baseline-vs-candidate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricComparison {
    /// Metric key, as emitted by `report --json`.
    pub key: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub candidate: f64,
    /// `true` when the candidate is worse than the baseline by more
    /// than the tolerance, in the metric's "better" direction.
    pub regressed: bool,
}

/// Extracts the top-level `"all_claims_pass"` flag.
fn parse_all_claims_pass(json: &str) -> Option<bool> {
    let idx = json.find("\"all_claims_pass\"")?;
    let rest = json[idx..].split_once(':')?.1.trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts the flat `"metrics"` object as `(key, value)` pairs, in
/// file order. Unparseable entries are skipped.
fn parse_metrics(json: &str) -> Vec<(String, f64)> {
    let Some(idx) = json.find("\"metrics\"") else {
        return Vec::new();
    };
    let Some(open) = json[idx..].find('{') else {
        return Vec::new();
    };
    let body = &json[idx + open + 1..];
    let end = body.find('}').unwrap_or(body.len());
    let mut out = Vec::new();
    for entry in body[..end].split(',') {
        let Some((key, value)) = entry.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// `true` when smaller values of this metric are better (times,
/// errors, latencies, shed and retry rates); larger is better
/// otherwise (speedups, accuracies, throughputs, savings).
pub fn lower_is_better(key: &str) -> bool {
    key.contains("seconds")
        || key.contains("error")
        || key.contains("latency")
        || key.contains("shed_rate")
        || key.contains("over_deadline")
        || key.contains("retry_rate")
}

/// Metrics present in the candidate but absent from the baseline —
/// typically added by the PR under test. These are **informational**:
/// a metric-adding PR must not fail its own perf gate before the
/// refreshed baseline is committed, so callers report them without
/// gating on them.
fn new_metrics(baseline: &[(String, f64)], candidate: &[(String, f64)]) -> Vec<(String, f64)> {
    candidate
        .iter()
        .filter(|(k, _)| !baseline.iter().any(|(b, _)| b == k))
        .cloned()
        .collect()
}

/// Metrics present in the baseline but missing from the candidate.
/// The gate fails on any: a refactor that silently stopped computing a
/// gated metric must not pass. A PR that renames or retires a metric
/// on purpose regenerates the committed baseline in the same change.
fn missing_metrics(baseline: &[(String, f64)], candidate: &[(String, f64)]) -> Vec<String> {
    baseline
        .iter()
        .filter(|(k, _)| !candidate.iter().any(|(c, _)| c == k))
        .map(|(k, _)| k.clone())
        .collect()
}

/// Compares every metric present in **both** sets, skipping
/// [`WALLCLOCK_METRICS`]. `tolerance` is the allowed fractional
/// regression (0.10 = a metric may be up to 10% worse than baseline).
/// Deltas within [`METRIC_JITTER_EPSILON`] (relative) are treated as
/// equal, so reordered-but-deterministic floating-point reductions
/// can never flip the gate on a metric sitting at the boundary.
/// New metrics absent from the baseline are not compared — see
/// [`new_metrics`]; committing a refreshed baseline picks them up.
/// Baseline metrics absent from the candidate are not compared either:
/// [`missing_metrics`] lists them, and the gate fails on them.
fn compare_metrics(
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
    tolerance: f64,
) -> Vec<MetricComparison> {
    baseline
        .iter()
        .filter(|(k, _)| !WALLCLOCK_METRICS.contains(&k.as_str()))
        .filter_map(|(key, b)| {
            let c = candidate.iter().find(|(k, _)| k == key)?.1;
            let jitter = (c - b).abs() <= METRIC_JITTER_EPSILON * b.abs().max(c.abs());
            let regressed = !jitter
                && if lower_is_better(key) {
                    c > b * (1.0 + tolerance)
                } else {
                    c < b * (1.0 - tolerance)
                };
            Some(MetricComparison {
                key: key.clone(),
                baseline: *b,
                candidate: c,
                regressed,
            })
        })
        .collect()
}

/// Everything the perf gate decides on, from a baseline and a
/// candidate `report --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The candidate's `all_claims_pass`; `None` when it has none.
    pub all_claims_pass: Option<bool>,
    /// Metrics in both files, wall-clock ones excluded
    /// (`compare_metrics`).
    pub comparisons: Vec<MetricComparison>,
    /// Metrics new to the candidate; informational (`new_metrics`).
    pub new: Vec<(String, f64)>,
    /// Baseline metrics missing from the candidate (`missing_metrics`).
    pub missing: Vec<String>,
}

impl Gate {
    /// Compares `candidate` against `baseline`, both `report --json`
    /// output, allowing a fractional regression of `tolerance`.
    pub fn new(baseline: &str, candidate: &str, tolerance: f64) -> Self {
        let base = parse_metrics(baseline);
        let cand = parse_metrics(candidate);
        Gate {
            all_claims_pass: parse_all_claims_pass(candidate),
            comparisons: compare_metrics(&base, &cand, tolerance),
            new: new_metrics(&base, &cand),
            missing: missing_metrics(&base, &cand),
        }
    }

    /// Whether the candidate passes: all its claims hold, some metric
    /// was compared, no baselined metric is missing and none regressed.
    pub fn passed(&self) -> bool {
        self.all_claims_pass == Some(true)
            && !self.comparisons.is_empty()
            && self.missing.is_empty()
            && self.comparisons.iter().all(|c| !c.regressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "tpu-xai-bench-baseline/v1",
  "all_claims_pass": true,
  "claims": [
    {"id": "x", "paper": "y", "measured": "z", "pass": true}
  ],
  "metrics": {
    "some_speedup_vs_cpu": 6.3e1,
    "roundtrip_seconds_512sq": 3.6e-5,
    "kernel_recovery_max_error": 7.1e-9,
    "closed_form_wallclock_seconds": 5.9e-4,
    "host_parallel_speedup_matmul_512": 3.1e0
  }
}"#;

    #[test]
    fn parses_flag_and_metrics() {
        assert_eq!(parse_all_claims_pass(SAMPLE), Some(true));
        assert_eq!(
            parse_all_claims_pass(&SAMPLE.replace("true,", "false,")),
            Some(false)
        );
        let metrics = parse_metrics(SAMPLE);
        assert_eq!(metrics.len(), 5);
        assert_eq!(metrics[0].0, "some_speedup_vs_cpu");
        assert!((metrics[1].1 - 3.6e-5).abs() < 1e-12);
    }

    #[test]
    fn direction_heuristic() {
        assert!(lower_is_better("fig4_tpu_roundtrip_seconds_512sq"));
        assert!(lower_is_better("eq4_kernel_recovery_max_error"));
        assert!(!lower_is_better("table2_interpret_speedup_vs_cpu"));
        assert!(!lower_is_better("serving_explanations_per_sec_batched_8w"));
        assert!(!lower_is_better("fig5_block_localization_accuracy"));
        assert!(lower_is_better("degraded_shed_rate_1of16_failed"));
        assert!(lower_is_better("degraded_retry_rate_1of16_failed"));
        assert!(!lower_is_better("degraded_goodput_frac_1of16_failed"));
    }

    #[test]
    fn regression_detection_respects_direction_and_tolerance() {
        let baseline = parse_metrics(SAMPLE);
        // Within tolerance: nothing regresses.
        let same = compare_metrics(&baseline, &baseline, 0.10);
        assert_eq!(same.len(), 3, "both wall-clock metrics must be skipped");
        assert!(same.iter().all(|c| !c.regressed));
        // A 50% slower roundtrip and a 50% smaller speedup both trip.
        let worse: Vec<(String, f64)> = baseline
            .iter()
            .map(|(k, v)| {
                let v = if k == "roundtrip_seconds_512sq" {
                    v * 1.5
                } else if k == "some_speedup_vs_cpu" {
                    v * 0.5
                } else {
                    *v
                };
                (k.clone(), v)
            })
            .collect();
        let cmp = compare_metrics(&baseline, &worse, 0.10);
        let regressed: Vec<&str> = cmp
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.key.as_str())
            .collect();
        assert_eq!(
            regressed,
            vec!["some_speedup_vs_cpu", "roundtrip_seconds_512sq"]
        );
        // Wall-clock noise never regresses the gate — including a
        // host-parallel speedup collapsing on a loaded runner.
        let mut noisy = baseline.clone();
        for (k, v) in &mut noisy {
            if k == "closed_form_wallclock_seconds" {
                *v *= 100.0;
            }
            if k == "host_parallel_speedup_matmul_512" {
                *v *= 0.01;
            }
        }
        assert!(compare_metrics(&baseline, &noisy, 0.10)
            .iter()
            .all(|c| !c.regressed));
    }

    #[test]
    fn float_jitter_below_epsilon_never_regresses() {
        let baseline = vec![("a_speedup".to_string(), 2.6253129175433445)];
        // Last-bits jitter from a reordered (but deterministic)
        // floating-point reduction...
        let jittered = vec![("a_speedup".to_string(), 2.6253129175433467)];
        // ...must not trip the gate even with ZERO tolerance, where
        // any strict comparison would flip on the ulps alone.
        let cmp = compare_metrics(&baseline, &jittered, 0.0);
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed, "sub-epsilon delta must count as equal");
        // A real regression still trips at the same tolerance.
        let worse = vec![("a_speedup".to_string(), 2.0)];
        assert!(compare_metrics(&baseline, &worse, 0.1)[0].regressed);
        // The epsilon is relative, so it also covers seconds-scale
        // metrics whose absolute values are tiny.
        let b = vec![("t_seconds".to_string(), 3.667245714285715e-5)];
        let j = vec![("t_seconds".to_string(), 3.667245714285716e-5)];
        assert!(!compare_metrics(&b, &j, 0.0)[0].regressed);
    }

    #[test]
    fn metrics_missing_from_either_side_are_skipped() {
        let baseline = vec![("a_speedup".to_string(), 2.0)];
        let candidate = vec![("b_speedup".to_string(), 1.0)];
        assert!(compare_metrics(&baseline, &candidate, 0.1).is_empty());
    }

    #[test]
    fn new_metrics_are_informational_not_compared() {
        let baseline = vec![("a_speedup".to_string(), 2.0)];
        let candidate = vec![
            ("a_speedup".to_string(), 2.0),
            // A terrible-looking value: still must never gate, only
            // surface as informational.
            ("sharded_speedup_4_devices".to_string(), 0.001),
        ];
        let cmp = compare_metrics(&baseline, &candidate, 0.1);
        assert_eq!(cmp.len(), 1);
        assert!(cmp.iter().all(|c| !c.regressed));
        let new = new_metrics(&baseline, &candidate);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].0, "sharded_speedup_4_devices");
        assert!(missing_metrics(&baseline, &candidate).is_empty());
    }

    #[test]
    fn stale_baseline_metrics_are_reported_missing() {
        let baseline = vec![
            ("a_speedup".to_string(), 2.0),
            ("renamed_away".to_string(), 1.0),
        ];
        let candidate = vec![("a_speedup".to_string(), 2.0)];
        assert_eq!(missing_metrics(&baseline, &candidate), vec!["renamed_away"]);
        assert!(new_metrics(&baseline, &candidate).is_empty());
    }

    #[test]
    fn a_baseline_metric_missing_from_the_candidate_fails_the_gate() {
        assert!(Gate::new(SAMPLE, SAMPLE, 0.10).passed());
        // Every other metric still compares equal, and a wall-clock
        // metric going missing fails the gate all the same.
        for dropped in ["some_speedup_vs_cpu", "closed_form_wallclock_seconds"] {
            let candidate: String = SAMPLE
                .lines()
                .filter(|line| !line.contains(dropped))
                .map(|line| format!("{line}\n"))
                .collect();
            let gate = Gate::new(SAMPLE, &candidate, 0.10);
            assert_eq!(gate.missing, vec![dropped]);
            assert!(gate.comparisons.iter().all(|c| !c.regressed));
            assert!(!gate.passed(), "missing {dropped} must fail the gate");
        }
    }

    #[test]
    fn malformed_json_degrades_gracefully() {
        assert_eq!(parse_all_claims_pass("{}"), None);
        assert!(parse_metrics("not json at all").is_empty());
        assert!(parse_metrics("{\"metrics\": {}}").is_empty());
    }
}
