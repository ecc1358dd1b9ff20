//! One-shot reproduction report: re-derives every claim of the paper
//! (`xai_bench::claims`), prints the tables behind each one — Tables
//! I–II, Figs. 4–6, the §IV-B energy table and §I's comparison with an
//! iterative explainer — and then a PASS/FAIL verdict table with the
//! measured values: the executable summary of README.md, "Reproducing
//! the paper's evaluation".
//!
//! Run: `cargo run --release -p xai-bench --bin report`
//!
//! Pass `--json <path>` to additionally write the measured numbers as
//! a machine-readable baseline (see `BENCH_baseline.json` at the repo
//! root) so later optimisation PRs have a perf trajectory to beat.

use xai_bench::claims::{Claim, ALL};
use xai_bench::TablePrinter;
use xai_tensor::Result;

const USAGE: &str = "usage: report [--json <path>]";

/// The `--json` path, if asked for, from the arguments after the
/// program name; anything else — `--json` without its path included —
/// is a usage error, found before any scenario has run.
fn json_path(args: &[String]) -> std::result::Result<Option<String>, String> {
    match args {
        [] => Ok(None),
        [flag, path] if flag == "--json" => Ok(Some(path.clone())),
        _ => Err(format!("unexpected arguments {args:?}\n{USAGE}")),
    }
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = json_path(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    println!("== tpu-xai reproduction report ==\n");
    println!("Pan & Mishra, \"Hardware Acceleration of Explainable Machine");
    println!("Learning using Tensor Processing Units\", DATE 2022\n");
    let mut claims: Vec<Claim> = Vec::new();
    for claim in ALL {
        let claim = claim()?;
        if !claim.detail.is_empty() {
            println!("{}", claim.detail);
        }
        claims.push(claim);
    }

    let mut table = TablePrinter::new(&["claim", "paper", "measured", "verdict"]);
    for c in &claims {
        table.row(&[
            c.id.to_string(),
            c.paper.to_string(),
            c.measured.clone(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    let all_pass = claims.iter().all(|c| c.pass);
    println!("== Verdicts ==\n\n{}", table.render());
    println!(
        "\noverall: {}",
        if all_pass {
            "all reproduced claims hold"
        } else {
            "SOME CLAIMS FAILED — see the FAIL rows above"
        }
    );

    if let Some(path) = json_path {
        let json = render_json(&claims, all_pass);
        std::fs::write(&path, json).expect("baseline JSON must be writable");
        println!("\nbaseline written to {path}");
    }
    Ok(())
}

/// Hand-rolled JSON rendering (the workspace builds offline, without
/// serde); keys and shape are the contract later perf PRs diff
/// against.
fn render_json(claims: &[Claim], all_pass: bool) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"tpu-xai-bench-baseline/v1\",\n");
    out.push_str("  \"generated_by\": \"crates/bench/src/bin/report.rs --json\",\n");
    out.push_str(&format!("  \"all_claims_pass\": {all_pass},\n"));
    out.push_str("  \"claims\": [\n");
    for (i, c) in claims.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"paper\": \"{}\", \"measured\": \"{}\", \"pass\": {}}}{}\n",
            esc(c.id),
            esc(c.paper),
            esc(&c.measured),
            c.pass,
            if i + 1 < claims.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"metrics\": {\n");
    let metrics: Vec<_> = claims.iter().flat_map(|c| &c.metrics).collect();
    for (i, (k, v)) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{k}\": {v:e}{}\n",
            if i + 1 < metrics.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::json_path;

    #[test]
    fn a_json_flag_without_its_path_is_a_usage_error() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(json_path(&[]), Ok(None));
        assert_eq!(
            json_path(&args(&["--json", "out.json"])),
            Ok(Some("out.json".to_string()))
        );
        for bad in [
            &["--json"][..],
            &["out.json"],
            &["--json", "a", "b"],
            &["--jsno", "a"],
        ] {
            let message = json_path(&args(bad)).unwrap_err();
            assert!(
                message.contains("usage: report [--json <path>]"),
                "{message}"
            );
        }
    }
}
