//! The benchmark's command line.
//!
//! ```text
//! e2e --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <file>]
//! e2e compare <base set> <set>...
//! ```
//!
//! A run prints every metric of its mode by name with its unit, checks
//! outputs against their references, appends its result line to the
//! result set (`--out`, default `<target>/e2e/results.jsonl`), writes
//! the traced run's spans to `<target>/e2e/trace-<workload>.json`, and
//! prints the contract's result object as the last line of standard
//! output. It exits non-zero on an output mismatch. `<target>` is
//! `$CARGO_TARGET_DIR`, or `target`; nothing is written elsewhere.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xai_e2e::{compare, RunOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare_sets(&args[1..])
    } else {
        run(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// `<target>/e2e`, where results and traces go.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("e2e")
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = RunOptions {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut out = out_dir().join("results.jsonl");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }

    let result = xai_e2e::run(&opts)?;
    print!("{}", xai_e2e::render_table(&opts, &result));

    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    }
    let mut set = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| io(&out, e))?;
    writeln!(set, "{}", xai_e2e::result_set_line(&opts, &result)).map_err(|e| io(&out, e))?;
    if opts.trace {
        let path = out_dir().join(format!("trace-{}.json", opts.workload));
        std::fs::create_dir_all(out_dir()).map_err(|e| io(&path, e))?;
        let file = std::fs::File::create(&path).map_err(|e| io(&path, e))?;
        result
            .tracer
            .write_json(std::io::BufWriter::new(file), &opts.workload, opts.seed)
            .map_err(|e| io(&path, e))?;
        println!("  spans written to {}", path.display());
    }

    println!("{}", xai_e2e::result_line(&result));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(paths: &[String]) -> Result<ExitCode, String> {
    if paths.len() < 2 {
        return Err("compare needs a base result set and at least one other".to_string());
    }
    let sets = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            compare::parse_result_set(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (text, bad) = compare::render(paths, &sets);
    print!("{text}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
