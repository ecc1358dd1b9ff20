//! Slicing of the timed region, and the host-speed reference.
//!
//! **Why a reference.** On the shared 2-vCPU box this benchmark was
//! built on, the speed of the CPU itself moves by ±20 % in phases of
//! about ten seconds: a tight loop of fixed work, alone on the box,
//! took a median 37 us per pass for ten seconds and 53 us for the next
//! ten (a neighbour on the sibling hardware thread is the likely
//! cause; descheduling accounted for under 2 % of the time). A phase
//! is as long as a run, so no estimator of raw wall time — median,
//! upper quantile or best slice — repeated to better than 10–30 %
//! between identical runs. The drift is common-mode, though: a compute
//! kernel and a memory-bound loop interleaved with it slowed down
//! together, and their *ratio* held to ±4 %.
//!
//! So every slice of a timed region also times a fixed reference
//! kernel (a 24×24 naive matrix product, the benchmark's own code and
//! nothing of the product's) in short bursts spread over the slice, 5 %
//! of the time, and every host metric is reported **at nominal host
//! speed**: the slice's wall and CPU times are divided by the
//! reference's slowdown in that slice, `mean reference time ÷
//! REFERENCE_NOMINAL_US`. On a host running at nominal speed the
//! numbers are plain wall time; the raw values are printed beside them.
//! The product cannot move the reference, so a gain or a regression
//! moves the normalised metric exactly as it moves the raw one.
//!
//! Measured over ten-run sets at the seed commit, the interquartile
//! spread of `req_per_s` went from 9–33 % raw to 7–15 % normalised
//! (`serve-large` 33 → 9 %, `pipeline-offline` 23 → 7 % in the worst
//! set). It is not a cure: where the reference and the workload do not
//! slow down alike the two spreads are equal, and the bounds in
//! `BENCHMARK.json` are sized for that.

use crate::stats::{median, process_cpu_seconds};
use std::time::{Duration, Instant};

/// Microseconds one reference product took inside the workloads at
/// the seed commit on the calibration box: the speed at which
/// normalised and raw host metrics coincide. A constant of the
/// benchmark, never re-measured.
pub const REFERENCE_NOMINAL_US: f64 = 10.0;

/// Edge of the reference product's matrices: small enough (14 KB in
/// all) that a burst is warm after its first product, whatever the
/// workload left in the caches.
const REFERENCE_N: usize = 24;

/// Share of a run spent timing the reference: a burst lasts this share
/// of the time since the last one, so the cost is the same whatever an
/// operation costs and however rarely the loop can stop for a burst.
const REFERENCE_SHARE: f64 = 0.05;

/// Shortest gap between bursts.
const BURST_PERIOD: Duration = Duration::from_millis(2);

/// Longest burst.
const BURST_MAX: Duration = Duration::from_millis(20);

/// The fixed reference kernel and its operands.
pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        let n = REFERENCE_N * REFERENCE_N;
        Reference {
            a: (0..n).map(|i| (i % 7) as f64 * 0.5).collect(),
            b: (0..n).map(|i| (i % 5) as f64 * 0.25).collect(),
            c: vec![0.0; n],
        }
    }
}

impl Reference {
    /// One reference product; returns its microseconds.
    fn product(&mut self) -> f64 {
        let n = REFERENCE_N;
        let start = Instant::now();
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += self.a[i * n + k] * self.b[k * n + j];
                }
                self.c[i * n + j] = sum;
            }
        }
        std::hint::black_box(&mut self.c);
        start.elapsed().as_secs_f64() * 1e6
    }

    /// Times reference products for `budget`, pushing each one's
    /// microseconds onto `into`. The first product only warms the
    /// caches and is not kept.
    pub fn burst(&mut self, budget: Duration, into: &mut Vec<f64>) {
        let start = Instant::now();
        self.product();
        loop {
            into.push(self.product());
            if start.elapsed() >= budget {
                break;
            }
        }
    }
}

/// Host slowdown against nominal from reference timings: their mean
/// over [`REFERENCE_NOMINAL_US`], after dropping the repetitions a
/// descheduling inflated (more than 5× the median). The *mean*, not
/// the median: a core that is slow a quarter of the time slows the
/// workload by that quarter too. 1.0 when there are no timings.
pub fn slowdown(reference_us: &[f64]) -> f64 {
    let cut = 5.0 * median(reference_us);
    let kept: Vec<f64> = reference_us.iter().copied().filter(|&t| t <= cut).collect();
    if kept.is_empty() {
        return 1.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64 / REFERENCE_NOMINAL_US
}

/// One slice of a timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Operations finished in the slice.
    pub ops: usize,
    /// Wall seconds of the slice.
    pub seconds: f64,
    /// Process CPU seconds of the slice.
    pub cpu_s: f64,
    /// Median host milliseconds of the latency samples taken in the
    /// slice (0 without samples).
    pub latency_ms: f64,
    /// Host slowdown against nominal during the slice.
    pub slowdown: f64,
}

/// Cuts a timed region into equal-count slices as its operations
/// finish, timing the reference in bursts along the way.
pub struct Pace {
    reference: Reference,
    ops_per_slice: usize,
    slices: Vec<Slice>,
    slice_start: Instant,
    slice_cpu: f64,
    last_burst: Instant,
    done: usize,
    latencies_ms: Vec<f64>,
    reference_us: Vec<f64>,
    all_latencies_ms: Vec<f64>,
}

impl Pace {
    /// Starts the timed region.
    pub fn start(ops_per_slice: usize) -> Self {
        let now = Instant::now();
        Pace {
            reference: Reference::default(),
            ops_per_slice: ops_per_slice.max(1),
            slices: Vec::new(),
            slice_start: now,
            slice_cpu: process_cpu_seconds(),
            last_burst: now,
            done: 0,
            latencies_ms: Vec::new(),
            reference_us: Vec::new(),
            all_latencies_ms: Vec::new(),
        }
    }

    /// Records one latency sample of the current slice.
    pub fn latency_ms(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }

    /// Runs a reference burst if one is due. Loops whose operations
    /// are long call this between an operation's phases as well.
    pub fn breathe(&mut self) {
        let since = self.last_burst.elapsed();
        if since >= BURST_PERIOD {
            let budget = since.mul_f64(REFERENCE_SHARE).min(BURST_MAX);
            self.reference.burst(budget, &mut self.reference_us);
            self.last_burst = Instant::now();
        }
    }

    /// Marks one operation finished: runs a reference burst when one
    /// is due and closes the slice when it is full.
    pub fn op_done(&mut self) {
        self.done += 1;
        self.breathe();
        let full = self.done == self.ops_per_slice;
        if full && self.reference_us.is_empty() {
            // Every slice times the reference, however short it was.
            self.reference.burst(
                BURST_PERIOD.mul_f64(REFERENCE_SHARE),
                &mut self.reference_us,
            );
        }
        if full {
            let now = Instant::now();
            let cpu = process_cpu_seconds();
            self.slices.push(Slice {
                ops: self.done,
                seconds: (now - self.slice_start).as_secs_f64(),
                cpu_s: cpu - self.slice_cpu,
                latency_ms: median(&self.latencies_ms),
                slowdown: slowdown(&self.reference_us),
            });
            self.all_latencies_ms.append(&mut self.latencies_ms);
            self.reference_us.clear();
            self.slice_start = now;
            self.slice_cpu = cpu;
            self.done = 0;
        }
    }

    /// Ends the region: its slices and every latency sample taken.
    pub fn finish(mut self) -> (Vec<Slice>, Vec<f64>) {
        self.all_latencies_ms.append(&mut self.latencies_ms);
        (self.slices, self.all_latencies_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_trimmed_mean_over_nominal() {
        let n = REFERENCE_NOMINAL_US;
        assert_eq!(slowdown(&[n, n, n, n]), 1.0);
        // Half the products at double time: the host is 1.5× slower.
        assert_eq!(slowdown(&[n, 2.0 * n, n, 2.0 * n]), 1.5);
        // One descheduled repetition does not count.
        assert_eq!(slowdown(&[n, n, n, 400.0 * n]), 1.0);
        assert_eq!(slowdown(&[]), 1.0);
    }

    #[test]
    fn pace_cuts_equal_slices_and_times_the_reference_in_each() {
        let mut pace = Pace::start(3);
        for op in 0..7 {
            pace.latency_ms(op as f64);
            pace.op_done();
        }
        let (slices, latencies) = pace.finish();
        assert_eq!(slices.len(), 2, "the seventh operation fills no slice");
        assert_eq!(latencies.len(), 7);
        assert_eq!((slices[0].latency_ms, slices[1].latency_ms), (1.0, 4.0));
        for s in &slices {
            assert_eq!(s.ops, 3);
            assert!(s.seconds > 0.0 && s.slowdown > 0.0 && s.cpu_s >= 0.0);
        }
    }

    #[test]
    fn the_reference_computes_a_fixed_product() {
        let mut reference = Reference::default();
        let mut timings = Vec::new();
        reference.burst(Duration::ZERO, &mut timings);
        assert_eq!(timings.len(), 1, "a burst keeps at least one product");
        // c[0][0] = Σ_k a[0][k]·b[k][0]
        let n = REFERENCE_N;
        let expect: f64 = (0..n)
            .map(|k| (k % 7) as f64 * 0.5 * ((k * n) % 5) as f64 * 0.25)
            .sum();
        assert_eq!(reference.c[0], expect);
    }
}
