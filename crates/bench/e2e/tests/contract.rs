//! The benchmark's own contract: `BENCHMARK.json` and the catalogue say
//! the same thing, every workload emits every declared metric exactly
//! once with its unit, and `sim-chaos` is a pure function of its seed.
//!
//! Workloads run at 1/100 of the benchmark's length here.

use std::collections::BTreeSet;
use xai_e2e::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use xai_e2e::json::{self, Value};
use xai_e2e::{compare, RunOptions, RunResult};

/// `run_seconds` of `BENCHMARK.json`, over 100.
const SHORT: f64 = 0.15;

fn short_run(workload: &str, seed: u64, trace: bool) -> RunResult {
    let opts = RunOptions {
        workload: workload.to_string(),
        seed,
        seconds: SHORT,
        trace,
    };
    xai_e2e::run(&opts).expect("declared workload")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> BTreeSet<&str> {
    v.as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string `{key}`"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_catalogue_does() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let paths = doc.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::String("crates/bench/e2e".to_string())]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32 && command[0] == "cargo");
    assert!(command.contains(&"crates/bench/e2e/Cargo.toml"));
    assert!(!command
        .iter()
        .any(|c| c.starts_with('/') || c.contains("..")));
    let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    assert_eq!(run_seconds, SHORT * 100.0);

    let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (declared, ours) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(declared), BTreeSet::from(["name", "why"]));
        assert_eq!(text(declared, "name"), ours.name);
        assert_eq!(text(declared, "why"), ours.why);
    }

    let end_to_end = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, ours) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(
            keys(declared),
            BTreeSet::from(["name", "unit", "better", "bound"])
        );
        assert_eq!(text(declared, "name"), ours.name);
        assert_eq!(text(declared, "unit"), ours.unit);
        assert_eq!(text(declared, "better"), ours.better.as_str());
        assert_eq!(
            declared.get("bound").and_then(Value::as_f64),
            Some(ours.bound)
        );
    }
    let per_layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (declared, ours) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(declared), BTreeSet::from(["name", "unit", "better"]));
        assert_eq!(text(declared, "name"), ours.name);
        assert_eq!(text(declared, "unit"), ours.unit);
        assert_eq!(text(declared, "better"), ours.better.as_str());
    }
}

/// The result line parses back to exactly the contract's keys, with
/// every metric of `declared` once, each with its catalogue unit.
fn assert_emits(result: &RunResult, declared: &[catalog::Metric], what: &str) {
    let doc = json::parse(&xai_e2e::result_line(result)).expect("result line is JSON");
    assert_eq!(
        keys(&doc),
        BTreeSet::from(["correct", "attempted", "failed", "metrics"]),
        "{what}"
    );
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        doc.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(
        result.metrics.len(),
        declared.len(),
        "{what}: emitted once each"
    );
    assert_eq!(metrics.len(), declared.len(), "{what}: no duplicate names");
    for m in declared {
        let entry = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{what}: {} missing", m.name));
        assert_eq!(keys(entry), BTreeSet::from(["value", "unit"]));
        assert_eq!(text(entry, "unit"), m.unit);
        let value = entry.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{what}: {} = {value}", m.name);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_once_and_never_zero() {
    for w in WORKLOADS {
        let result = short_run(w.name, 42, false);
        assert_emits(&result, END_TO_END, w.name);
        for (name, value) in &result.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", w.name);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_once_in_the_traced_run() {
    for w in WORKLOADS {
        let result = short_run(w.name, 42, true);
        assert_emits(&result, PER_LAYER, w.name);
        let get = |name: &str| result.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("trace.spans"), result.tracer.spans().len() as f64);
        assert!(get("trace.spans") > 0.0 && get("parallel.threads") >= 1.0);
        // The workloads stress different layers by construction.
        match w.name {
            "pipeline-offline" => assert_eq!(get("tpu.sharded_flights"), 0.0),
            "sim-chaos" => assert!(get("serve.sim_step_us") > 0.0 && get("serve.submit_us") == 0.0),
            // The 16 lanes of a `serve-large` request fit one 128-core
            // chip, so the fan-out oracle keeps its flights whole.
            "serve-large" => assert!(get("serve.unloaded_us") > 0.0),
            _ => assert!(get("serve.unloaded_us") > 0.0 && get("tpu.sharded_flights") > 0.0),
        }
        // Spans of one request share its id and name a recorded parent.
        let spans = result.tracer.spans();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                assert!(
                    p < i && spans[p].request == s.request,
                    "{}: span {i}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn sim_chaos_is_a_pure_function_of_its_seed() {
    let a = short_run("sim-chaos", 7, false);
    let b = short_run("sim-chaos", 7, false);
    let c = short_run("sim-chaos", 8, false);
    assert_eq!(a.outcomes, b.outcomes);
    assert_ne!(a.outcomes, c.outcomes);
    // …and so is every simulated metric, to the bit.
    for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
        if catalog::find(name).unwrap().clock != catalog::Clock::Host {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }
    // `compare` reaches the same verdict from the result lines.
    let line = |r: &RunResult, seed| {
        let opts = RunOptions {
            workload: "sim-chaos".to_string(),
            seed,
            seconds: SHORT,
            trace: false,
        };
        compare::parse_result_set(&xai_e2e::result_set_line(&opts, r)).unwrap()
    };
    assert_eq!(
        compare::sim_differences(&line(&a, 7), &line(&b, 7)),
        (1, Vec::new())
    );
    assert!(!compare::sim_differences(&line(&a, 7), &line(&c, 7))
        .1
        .is_empty());
}

#[test]
fn unknown_workloads_and_bad_lengths_are_refused() {
    let opts = |workload: &str, seconds| RunOptions {
        workload: workload.to_string(),
        seed: 1,
        seconds,
        trace: false,
    };
    assert!(xai_e2e::run(&opts("no-such", 1.0))
        .unwrap_err()
        .contains("serve-small"));
    assert!(xai_e2e::run(&opts("sim-chaos", 0.0)).is_err());
    assert!(xai_e2e::run(&opts("sim-chaos", f64::NAN)).is_err());
}
