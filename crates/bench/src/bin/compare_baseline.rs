//! Perf gate: compares a fresh `report --json` run against the
//! committed `BENCH_baseline.json` and exits non-zero when a claim
//! stopped passing, a baselined metric is missing from the fresh run,
//! or a metric regressed beyond tolerance.
//!
//! Run: `cargo run --release -p xai-bench --bin compare_baseline -- \
//!       BENCH_baseline.json report.json [tolerance]`
//!
//! `tolerance` is the allowed fractional regression (default `0.10`).
//! Real-wall-clock metrics (see `xai_bench::compare::WALLCLOCK_METRICS`)
//! are reported but never gate; metrics new to the candidate (added
//! by the PR under test) are reported as informational rows and never
//! gate either — a metric-adding PR must not fail its own perf gate.
//! Baseline metrics missing from the candidate fail the gate: a PR
//! that retires or renames a metric regenerates the baseline with it.

use xai_bench::compare::{lower_is_better, Gate, WALLCLOCK_METRICS};
use xai_bench::TablePrinter;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, candidate_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(c)) => (b.clone(), c.clone()),
        _ => {
            eprintln!("usage: compare_baseline <baseline.json> <candidate.json> [tolerance]");
            std::process::exit(2);
        }
    };
    let tolerance: f64 = args
        .get(2)
        .map(|t| t.parse().expect("tolerance must be a number"))
        .unwrap_or(0.10);

    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let candidate = std::fs::read_to_string(&candidate_path)
        .unwrap_or_else(|e| panic!("cannot read {candidate_path}: {e}"));

    let gate = Gate::new(&baseline, &candidate, tolerance);
    match gate.all_claims_pass {
        Some(true) => println!("all_claims_pass: true"),
        Some(false) => {
            println!("all_claims_pass: FALSE — a reproduced paper claim no longer holds")
        }
        None => println!("all_claims_pass missing from {candidate_path}"),
    }
    if gate.comparisons.is_empty() {
        println!("no comparable metrics found — is the baseline stale?");
    }

    let mut table = TablePrinter::new(&["metric", "baseline", "candidate", "change", "verdict"]);
    for c in &gate.comparisons {
        let change = if c.baseline != 0.0 {
            format!("{:+.1}%", (c.candidate / c.baseline - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        let verdict = if c.regressed {
            "REGRESSED".to_string()
        } else {
            format!(
                "ok ({})",
                if lower_is_better(&c.key) {
                    "↓"
                } else {
                    "↑"
                }
            )
        };
        table.row(&[
            c.key.clone(),
            format!("{:.6e}", c.baseline),
            format!("{:.6e}", c.candidate),
            change,
            verdict,
        ]);
    }
    // New metrics ride along informationally: they have no baseline
    // to regress against, so they can never fail this gate.
    for (key, value) in &gate.new {
        table.row(&[
            key.clone(),
            "(new)".into(),
            format!("{value:.6e}"),
            "n/a".into(),
            "info".into(),
        ]);
    }
    println!("{}", table.render());
    if !gate.missing.is_empty() {
        println!(
            "baseline metrics MISSING from the candidate: {}",
            gate.missing.join(", ")
        );
    }
    println!(
        "(tolerance {:.0}%; wall-clock metrics not gated: {})",
        tolerance * 100.0,
        WALLCLOCK_METRICS.join(", ")
    );

    if !gate.passed() {
        eprintln!("perf gate FAILED against {baseline_path}");
        std::process::exit(1);
    }
    println!("perf gate passed against {baseline_path}");
}
