//! `compare`: two or more result sets side by side.
//!
//! A result set is a file of result lines (one JSON object per run, as
//! `--out` appends them). The first set is the base; every other set
//! is judged against it, one row per (workload, end-to-end metric):
//! both medians, the bound, and
//!
//! * `ok` — the median is no worse than the base's by more than the
//!   bound;
//! * `regressed` — it is;
//! * `unresolved` — the run-to-run spread (interquartile range over
//!   median, the wider of the two sets) exceeds the bound and the two
//!   sets' runs interleave, so the runs cannot tell.
//!
//! Below the table, `sim_identical` says whether every simulated
//! metric and exact count agrees at 1e-9 relative between runs of the
//! same `(workload, seed, seconds, trace)` — what a host-only
//! optimisation must leave untouched.

use crate::catalog::{self, Better, Clock, END_TO_END};
use crate::json::{self, Value};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// Relative difference below which two simulated values are equal:
/// the threaded server merges its flights' charges in arrival order,
/// so the last bits of a sum may differ between runs.
pub const SIM_EPSILON: f64 = 1e-9;

/// One run of a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// The run's `--seconds`.
    pub seconds: f64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Whether its outputs were correct.
    pub correct: bool,
    /// `name → value`.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a result set: one JSON object per non-empty line.
///
/// # Errors
///
/// The line number and what is wrong with it.
pub fn parse_result_set(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("metrics"))?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value.map(|x| (name.clone(), x)).ok_or_else(|| bad(name))
            })
            .collect::<Result<_, _>>()?;
        runs.push(RunRecord {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            trace: num("trace")? != 0.0,
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or_else(|| bad("correct"))?,
            metrics,
        });
    }
    Ok(runs)
}

/// How one (workload, metric) pair fared against the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The spread exceeds the bound and the runs interleave.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `other` against `base` for a metric with direction `better`
/// and regression bound `bound` (a share of the base's median).
pub fn judge(base: &[f64], other: &[f64], better: Better, bound: f64) -> Verdict {
    // Fold the direction away: larger is worse from here on.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (mb, mo) = (median(base), median(other));
    let worse_by = sign * (mo - mb) / mb.abs().max(f64::MIN_POSITIVE);
    let spread = iqr_share(base).max(iqr_share(other));
    if spread <= bound {
        return if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if worst(other) <= best(base) {
        Verdict::Ok // every run reads no worse than every base run
    } else if best(other) > worst(base) && worse_by > bound {
        Verdict::Regressed // every run reads worse than every base run
    } else {
        Verdict::Unresolved
    }
}

/// Values of `metric` on `workload` over the untraced runs of a set.
fn values(set: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Differences beyond [`SIM_EPSILON`] in simulated metrics and exact
/// counts between runs of one `(workload, seed, seconds, trace)`, and
/// how many such run pairs there were.
pub fn sim_differences(base: &[RunRecord], other: &[RunRecord]) -> (usize, Vec<String>) {
    let mut pairs = 0;
    let mut diffs = Vec::new();
    for b in base {
        let same_run = |o: &&RunRecord| {
            (o.workload.as_str(), o.seed, o.trace) == (b.workload.as_str(), b.seed, b.trace)
                && o.seconds.to_bits() == b.seconds.to_bits()
        };
        let Some(o) = other.iter().find(same_run) else {
            continue;
        };
        pairs += 1;
        for (name, &x) in &b.metrics {
            let exact = catalog::find(name).is_some_and(|m| m.clock != Clock::Host);
            let Some(&y) = o.metrics.get(name).filter(|_| exact) else {
                continue;
            };
            if (x - y).abs() > SIM_EPSILON * x.abs().max(y.abs()) {
                diffs.push(format!(
                    "{} seed {} {name}: {x:?} vs {y:?}",
                    b.workload, b.seed
                ));
            }
        }
    }
    (pairs, diffs)
}

/// The comparison of `sets[0]` (the base) with every other set.
/// Returns the text and whether anything regressed or a simulated
/// value moved.
pub fn render(names: &[String], sets: &[Vec<RunRecord>]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let (base_name, base) = (&names[0], &sets[0]);
    for (name, set) in names.iter().zip(sets).skip(1) {
        out.push_str(&format!("base {base_name}  vs  {name}\n"));
        out.push_str(&format!(
            "{:<17} {:<24} {:>14} {:>14} {:>8} {:>7} {:>8}  {}\n",
            "workload", "metric", "base median", "median", "change", "bound", "spread", "verdict"
        ));
        for w in catalog::WORKLOADS {
            for m in END_TO_END {
                let (a, b) = (values(base, w.name, m.name), values(set, w.name, m.name));
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let verdict = judge(&a, &b, m.better, m.bound);
                bad |= verdict == Verdict::Regressed;
                out.push_str(&format!(
                    "{:<17} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}% {:>7.2}%  {} (n={}/{}, {} is better)\n",
                    w.name,
                    m.name,
                    median(&a),
                    median(&b),
                    (median(&b) / median(&a) - 1.0) * 100.0,
                    m.bound * 100.0,
                    iqr_share(&a).max(iqr_share(&b)) * 100.0,
                    verdict.as_str(),
                    a.len(),
                    b.len(),
                    m.better.as_str(),
                ));
            }
        }
        let (pairs, diffs) = sim_differences(base, set);
        let incorrect = base.iter().chain(set).filter(|r| !r.correct).count();
        if pairs == 0 {
            out.push_str(
                "sim_identical: n/a (no two runs share workload, seed, seconds and trace)\n",
            );
        } else if diffs.is_empty() {
            out.push_str(&format!(
                "sim_identical: yes ({pairs} run pairs, every simulated metric and exact count within {SIM_EPSILON:e} relative)\n"
            ));
        } else {
            bad = true;
            out.push_str(&format!(
                "sim_identical: no ({} differences in {pairs} run pairs)\n",
                diffs.len()
            ));
            for d in diffs.iter().take(20) {
                out.push_str(&format!("  {d}\n"));
            }
        }
        if incorrect > 0 {
            bad = true;
            out.push_str(&format!("{incorrect} runs reported incorrect outputs\n"));
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, seed: u64, trace: u8, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"x\"}}"))
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":10.0,\"trace\":{trace},\
             \"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}",
            body.join(",")
        )
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let tight = [100.0, 101.0, 99.0, 100.5];
        // Higher is better, bound 8 %: −5 % is ok, −20 % regressed.
        assert_eq!(
            judge(&tight, &[95.0, 96.0, 94.0, 95.5], Better::Higher, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight, &[80.0, 81.0, 79.0, 80.5], Better::Higher, 0.08),
            Verdict::Regressed
        );
        // Lower is better: the same numbers the other way round.
        assert_eq!(
            judge(&[80.0, 81.0, 79.0, 80.5], &tight, Better::Lower, 0.08),
            Verdict::Regressed
        );
        // A spread wider than the bound with interleaved runs cannot tell…
        let noisy_a = [100.0, 140.0, 80.0, 120.0];
        let noisy_b = [90.0, 130.0, 70.0, 110.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Higher, 0.08),
            Verdict::Unresolved
        );
        // …unless every run of one side beats every run of the other.
        let far_better = [200.0, 240.0, 180.0, 220.0];
        assert_eq!(
            judge(&noisy_a, &far_better, Better::Higher, 0.08),
            Verdict::Ok
        );
        let far_worse = [20.0, 24.0, 18.0, 22.0];
        assert_eq!(
            judge(&noisy_a, &far_worse, Better::Higher, 0.08),
            Verdict::Regressed
        );
    }

    #[test]
    fn sim_identity_ignores_host_metrics_and_pairs_runs_by_seed() {
        let base = parse_result_set(&format!(
            "{}\n\n{}\n",
            line(
                "sim-chaos",
                1,
                0,
                &[("goodput_frac", 0.5), ("req_per_s", 100.0)]
            ),
            line("sim-chaos", 2, 1, &[("tpu.replans", 7.0)]),
        ))
        .unwrap();
        let same = parse_result_set(&format!(
            "{}\n{}\n",
            line(
                "sim-chaos",
                1,
                0,
                &[("goodput_frac", 0.5 * (1.0 + 1e-12)), ("req_per_s", 50.0)]
            ),
            line("sim-chaos", 2, 1, &[("tpu.replans", 7.0)]),
        ))
        .unwrap();
        assert_eq!(sim_differences(&base, &same), (2, Vec::new()));
        let moved = parse_result_set(&line("sim-chaos", 2, 1, &[("tpu.replans", 8.0)])).unwrap();
        let (pairs, diffs) = sim_differences(&base, &moved);
        assert_eq!((pairs, diffs.len()), (1, 1));
        let other_seed =
            parse_result_set(&line("sim-chaos", 3, 0, &[("goodput_frac", 0.1)])).unwrap();
        assert_eq!(sim_differences(&base, &other_seed).0, 0);
    }

    #[test]
    fn render_prints_a_row_per_pair_and_flags_regressions() {
        let set = |rate: f64| {
            let text: Vec<String> = (0..4)
                .map(|s| {
                    line(
                        "serve-small",
                        s,
                        0,
                        &[("req_per_s", rate + s as f64), ("goodput_frac", 1.0)],
                    )
                })
                .collect();
            parse_result_set(&text.join("\n")).unwrap()
        };
        let names = ["a".to_string(), "b".to_string()];
        let (text, bad) = render(&names, &[set(1000.0), set(1001.0)]);
        assert!(!bad, "{text}");
        assert!(
            text.contains("req_per_s")
                && text.contains(" ok ")
                && text.contains("sim_identical: yes")
        );
        let (text, bad) = render(&names, &[set(1000.0), set(500.0)]);
        assert!(bad && text.contains("regressed"), "{text}");
    }

    #[test]
    fn malformed_result_lines_are_named_by_line() {
        assert!(parse_result_set("{\"workload\":\"x\"}")
            .unwrap_err()
            .starts_with("line 1"));
        assert!(parse_result_set("\nnot json")
            .unwrap_err()
            .starts_with("line 2"));
    }
}
