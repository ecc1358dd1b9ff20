//! The paper's headline claims hold in this build: each test asserts
//! the verdict of the claim function `report` gates, so a regression
//! in the models or schedulers fails `cargo test` as well as the report.

use xai_bench::claims::{self, Claim};

fn assert_holds(claim: Claim) {
    assert!(claim.pass, "{}: measured {}", claim.id, claim.measured);
}

/// Figure 4: > 30× over the CPU at 512², and the advantage grows with
/// size over the whole 64²–1024² sweep.
#[test]
fn figure4_tpu_beats_cpu_by_over_30x_at_scale() {
    assert_holds(claims::fig4().unwrap());
}

/// Table II: the TPU interprets > 10× faster than the CPU and > 5×
/// faster than the GPU (the paper: 39.5× / 13.6×).
#[test]
fn table2_interpretation_speedups_in_paper_band() {
    assert_holds(claims::table2().unwrap());
}

/// §I: the closed form beats the iterative surrogate in real
/// wall-clock on the same task.
#[test]
fn closed_form_beats_iterative_baseline_in_wall_clock() {
    assert_holds(claims::iterative_baseline().unwrap());
}

/// §IV-B: the TPU interprets for less energy than the CPU.
#[test]
fn tpu_is_most_energy_efficient() {
    assert_holds(claims::energy().unwrap());
}
