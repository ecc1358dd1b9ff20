//! Golden diagnostics for `xai-lint`: the seeded fixture must trip
//! every rule exactly once at pinned `file:line` positions, the
//! negative controls must stay silent, and the real workspace must be
//! clean. Together these pin both directions of the linter — it fires
//! when it must and only when it must.

use std::path::Path;

/// The fixture is linted under a synthetic `src/` path: its real home
/// is a `tests/` subtree, which the path-based exemptions would
/// (correctly) excuse from the spawn/clock rules.
const FIXTURE_AS: &str = "crates/example/src/lib.rs";

#[test]
fn fixture_trips_each_rule_exactly_once_at_pinned_lines() {
    let src = include_str!("lint_fixtures/violations.rs");
    let diags = xai_lint::lint_source(FIXTURE_AS, src);
    let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(
        got,
        vec![
            ("no-raw-mutex", 8),
            ("no-lock-unwrap", 11),
            ("no-thread-spawn", 15),
            ("no-wall-clock", 19),
            ("safety-comment", 23),
            ("no-unbounded-retry", 51),
            ("no-nan-panic", 62),
        ],
        "full diagnostics: {diags:#?}"
    );
    for d in &diags {
        assert_eq!(d.path, FIXTURE_AS);
        assert!(!d.message.is_empty());
    }
}

#[test]
fn fixture_diagnostics_render_as_file_line_rule() {
    let src = include_str!("lint_fixtures/violations.rs");
    let first = &xai_lint::lint_source(FIXTURE_AS, src)[0];
    assert_eq!(
        first.to_string(),
        format!("{FIXTURE_AS}:8: no-raw-mutex: {}", first.message)
    );
}

/// `--list-pub` counts one item of each counted kind and none of the
/// look-alikes: restricted visibility, `pub mod` / `pub use`, fields,
/// strings, comments, the `#[cfg(test)]` region, integration tests
/// and shim crates.
#[test]
fn pub_item_table_counts_public_items_of_product_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures/pub_tree");
    assert_eq!(
        xai_lint::pub_item_table(&root).expect("fixture walk"),
        "| Crate | pub items |\n|---|---:|\n| `crates/example` | 7 |\n| total | 7 |\n"
    );
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean() {
    let diags = xai_lint::lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "the workspace must satisfy its own invariants:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `--list-locks` ground truth: the registered hierarchy contains the
/// documented classes in strictly rank-sorted order, with the serving
/// front door outermost and the response slot deepest.
#[test]
fn lock_hierarchy_table_matches_the_documented_ranks() {
    let decls = xai_lint::collect_lock_classes(&workspace_root()).expect("workspace walk");
    let ranks: Vec<u32> = decls.iter().map(|d| d.rank).collect();
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(ranks, sorted, "table must come out rank-sorted");

    let names: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
    for expected in [
        "serve::state",
        "tpu::queue",
        "tpu::fault",
        "tpu::pool",
        "tpu::device",
        "device::lanes",
        "parallel::injector",
        "parallel::deque",
        "parallel::scope_panic",
        "accel::clock",
        "accel::probe",
        "fourier::cache",
        "serve::clock",
        "tpu::queue_time",
        "serve::response",
        "sync::scratch",
    ] {
        assert!(
            names.contains(&expected),
            "missing class {expected}: {names:?}"
        );
    }
    let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
    assert!(pos("serve::state") < pos("tpu::queue"));
    assert!(pos("tpu::queue") < pos("tpu::fault"));
    assert!(pos("tpu::fault") < pos("tpu::pool"));
    assert!(pos("tpu::pool") < pos("tpu::device"));
    assert!(pos("tpu::device") < pos("device::lanes"));
    assert!(pos("device::lanes") < pos("parallel::injector"));
    assert!(pos("parallel::injector") < pos("parallel::deque"));
    assert!(pos("parallel::deque") < pos("accel::clock"));
    assert!(pos("accel::clock") < pos("accel::probe"));
    assert!(pos("accel::probe") < pos("serve::response"));

    let table = xai_lint::render_lock_table(&decls);
    assert!(table.starts_with("| Rank | Lock class | Declared in |"));
    assert!(table.contains("`serve::state`"));
    assert!(table.contains("| max | `sync::scratch` |"));
}
