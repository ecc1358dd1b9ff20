//! Deliberately-violating fixture for the xai-lint golden test: every
//! workspace rule fires in this file exactly once, at lines the
//! golden test pins. The file is never compiled — cargo does not turn
//! `tests/` *subdirectories* into targets — and xai-lint's workspace
//! walk skips `lint_fixtures`, so these violations exist only for the
//! golden diagnostics in `lint_golden.rs`.

use std::sync::Mutex; // rule 1: no-raw-mutex

fn poison_propagating(state: &Mutex2) {
    let _guard = state.lock().unwrap(); // rule 2: no-lock-unwrap
}

fn per_call_spawning() {
    std::thread::spawn(|| ()); // rule 3: no-thread-spawn
}

fn nondeterministic() {
    let _t = std::time::Instant::now(); // rule 4: no-wall-clock
}

fn undocumented() {
    unsafe { questionable() } // rule 5: safety-comment
}

// ---- negative controls: nothing below may add a diagnostic ----

fn waived(state: &Mutex2) {
    // lint:allow(no-lock-unwrap): golden-test control for the waiver path
    let _guard = state.lock().unwrap();
}

fn documented() {
    // SAFETY: golden-test control — the comment satisfies the rule.
    unsafe { questionable() }
}

fn prose_only() {
    // A Mutex guarded by a Condvar, thread::spawn'd at Instant::now —
    // rule words in comments and strings must never fire.
    let _s = "Mutex Condvar thread::spawn Instant::now unsafe";
    let _r = r#".lock().unwrap()"#;
}

fn wrapper_names(_g: OrderedMutexGuard2, _m: MutexGuard2) {
    // Word-boundary matching: identifiers merely *containing* the
    // banned names are fine.
}

fn hopeful(job: &Job2) {
    while job_retries(job) { resubmit(job) } // rule 6: no-unbounded-retry
}

fn bounded(job: &Job2) {
    // negative control: naming the budget in the header bounds it.
    while job_retries(job) < retry_budget(job) {
        resubmit(job);
    }
}

fn ranks_on_hope(a: f64, b: f64) -> Ordering2 {
    a.partial_cmp(&b) // rule 7: no-nan-panic
        .expect("never NaN")
}

fn ranks_whatever_comes(a: f64, b: f64) -> Ordering2 {
    // negative control: `None` handled, and a total order.
    a.partial_cmp(&b).unwrap_or(a.total_cmp(&b))
}
