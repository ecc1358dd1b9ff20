//! Memory stays flat under load: a serving stack that has answered
//! N requests must hold no more than one that has answered a thousand.
//!
//! This is its own integration-test binary with a single test, so no
//! other test allocates beside the measurement. The simulator used to
//! keep one heap-allocated event per charge (~4.6 KB per request,
//! ≈ 23 MB over the span measured here); it now keeps per-kind totals.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;
use tpu_xai::accel::TpuAccel;
use tpu_xai::serve::{synth_problem, ExplainJob, Outcome, ShedPolicy, SimServer};
use tpu_xai::tpu::{DevicePool, TpuConfig};

/// Resident set size of this process in kB (`VmRSS` of
/// `/proc/self/status`, which needs no page-size assumption).
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

#[test]
fn resident_memory_does_not_grow_with_requests_served() {
    const WARM: usize = 1_000;
    const TOTAL: usize = 6_000;
    const MAX_GROWTH_KB: u64 = 8 * 1024;

    let (model, x, y) = synth_problem(7, 8).unwrap();
    let pool = DevicePool::new(TpuConfig::small_test(), 4);
    let acc = Arc::new(TpuAccel::over_pool(pool, Duration::ZERO, 256));
    let mut sim = SimServer::new(acc, model, 1, ShedPolicy::RejectNewest);
    let job = ExplainJob::Contributions { x, y, grid: 2 };

    let mut at_warm = 0;
    for i in 0..TOTAL {
        let handle = sim.submit_at(sim.now_s(), job.clone(), f64::INFINITY);
        sim.drain();
        assert_eq!(handle.outcome(), Some(Outcome::Completed), "request {i}");
        if i + 1 == WARM {
            at_warm = resident_kb();
        }
    }
    let growth = resident_kb().saturating_sub(at_warm);
    assert!(
        growth < MAX_GROWTH_KB,
        "resident set grew {growth} kB between request {WARM} and request {TOTAL} \
         (from {at_warm} kB): something is retained per request served"
    );
}
