//! The interpretation-phase numerics contract (`filter_diff.rs` module
//! header), point by point, on the lanes it is about: *real* lanes —
//! every imaginary part `== 0.0`, an even row count — which take the
//! real-input transform pair where every other lane takes the complex
//! sequence. (`fused_direct.rs` and `fused_flight.rs` pin point 2: a
//! lane with an imaginary part, or an odd row count, keeps the staged
//! chain's bits.)
//!
//! Known mutations this must catch: multiplying the half spectrum by
//! the filter's kept columns instead of its Hermitian part (the
//! filters here are not Hermitian); mirroring bin `k` onto `n − k − 1`;
//! skipping the row epilogue on the odd row of a pair.
//!
//! And ownership, which must not become a second numerics path: real
//! lanes lent by value (`filter_diff_real_batch`) leave the bits, clock
//! and statistics of the same lanes lifted and borrowed
//! (`filter_diff_batch`) on every placement, and come back *as their
//! own buffers* — re-introducing a clone into the job or a fresh result
//! per lane fails `a_lent_real_lane_comes_back_as_its_own_buffer`.

use proptest::prelude::*;
use std::time::Duration;
use xai_accel::{Accelerator, CpuModel, GpuModel, KernelStats, TpuAccel};
use xai_tensor::ops::DivPolicy;
use xai_tensor::{ops, Complex64, Matrix, Result};
use xai_tpu::{DevicePool, FaultPlan, TpuConfig};

/// The constant of contract point 3, as `filter_diff.rs` states it.
const C: f64 = 2.0;

/// Degenerate, odd-column, Bluestein (6, 10, 3), radix-2, tall, and
/// the two benchmark shapes' big sibling.
const SHAPES: [(usize, usize); 8] = [
    (2, 1),
    (2, 2),
    (4, 3),
    (6, 10),
    (8, 8),
    (16, 4),
    (64, 64),
    (128, 128),
];
const LANE_COUNTS: [usize; 4] = [1, 2, 7, 16];

type Platform = (&'static str, fn() -> Box<dyn Accelerator>);
const PLATFORMS: [Platform; 3] = [
    ("cpu", || Box::new(CpuModel::i7_3700())),
    ("gpu", || Box::new(GpuModel::gtx1080())),
    ("tpu_v2", || Box::new(TpuAccel::tpu_v2())),
];

/// What an input set is salted with before it runs. The filter is a
/// general complex matrix — not Hermitian — under every salt.
#[derive(Debug, Clone, Copy)]
enum Salt {
    Plain,
    /// Filter magnitudes spanning eight decades, 1e-4 … 1e4.
    Decades,
    /// An exact-zero block (an occluded region) and a `-0.0`.
    Zeros,
    /// `x` scaled by 1e3.
    Scaled,
}
const SALTS: [Salt; 4] = [Salt::Plain, Salt::Decades, Salt::Zeros, Salt::Scaled];

fn lanes(vals: &[f64], (m, n): (usize, usize), count: usize, salt: Salt) -> Vec<Matrix<Complex64>> {
    let scale = if matches!(salt, Salt::Scaled) {
        1e3
    } else {
        1.0
    };
    (0..count)
        .map(|j| {
            let mut x = Matrix::from_fn(m, n, |r, c| {
                let v = vals[(r * n + c + 7 * j) % vals.len()] + j as f64 * 0.1;
                Complex64::from_real(v * scale)
            })
            .unwrap();
            if matches!(salt, Salt::Zeros) {
                for r in 0..m.div_ceil(2) {
                    x.row_mut(r)[..n.div_ceil(2)].fill(Complex64::ZERO);
                }
                x[(m - 1, n - 1)] = Complex64::new(-0.0, 0.0);
            }
            x
        })
        .collect()
}

fn filter(kvals: &[f64], (m, n): (usize, usize), salt: Salt) -> Matrix<Complex64> {
    Matrix::from_fn(m, n, |r, c| {
        let i = (r * n + c) % kvals.len();
        let k = Complex64::new(kvals[i], kvals[(i + 5) % kvals.len()] * 0.5);
        match salt {
            Salt::Decades => k.scale(10f64.powi((r * n + c) as i32 % 9 - 4)),
            _ => k,
        }
    })
    .unwrap()
}

fn observed(vals: &[f64], (m, n): (usize, usize)) -> Matrix<f64> {
    Matrix::from_fn(m, n, |r, c| vals[(r * n + c + 3) % vals.len()] * 1.5).unwrap()
}

/// The complex sequence: the four batch kernels spelled out against
/// the public kernels, as in `fused_direct.rs`.
fn run_staged(
    acc: &dyn Accelerator,
    xs: &[Matrix<Complex64>],
    k: &Matrix<Complex64>,
    y: &Matrix<f64>,
) -> Result<Vec<Matrix<f64>>> {
    let spectra = acc.fft2d_batch(xs)?;
    let filtered = acc.hadamard_batch(&spectra, k)?;
    let preds: Vec<Matrix<f64>> = acc
        .ifft2d_batch(&filtered)?
        .into_iter()
        .map(|p| p.to_real())
        .collect();
    acc.sub_batch(y, &preds)
}

/// `y − re(ifft2(fft2(x) ∘ k))` straight from the O(N²) definition.
fn by_definition(x: &Matrix<Complex64>, k: &Matrix<Complex64>, y: &Matrix<f64>) -> Matrix<f64> {
    let (m, n) = x.shape();
    let dft2 = |a: &Matrix<Complex64>, sign: i64| {
        Matrix::from_fn(m, n, |u, v| {
            let mut acc = Complex64::ZERO;
            for r in 0..m {
                for c in 0..n {
                    let w = Complex64::twiddle(sign * (u * r) as i64, m)
                        * Complex64::twiddle(sign * (v * c) as i64, n);
                    acc += a[(r, c)] * w;
                }
            }
            acc
        })
        .unwrap()
    };
    let p = dft2(&ops::hadamard(&dft2(x, 1), k).unwrap(), -1);
    Matrix::from_fn(m, n, |r, c| y[(r, c)] - p[(r, c)].re / (m * n) as f64).unwrap()
}

/// Contract point 3's bound for one lane:
/// `C · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)`.
fn bound(x: &Matrix<Complex64>, k: &Matrix<Complex64>, y: &Matrix<f64>) -> f64 {
    let k_max = k.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let scale = k_max * x.to_real().frobenius_norm() + y.frobenius_norm();
    C * f64::EPSILON * (2.0 * x.len() as f64).log2() * scale
}

fn distance(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    ops::sub(a, b).unwrap().frobenius_norm()
}

fn bits(lanes: &[Matrix<f64>]) -> Vec<Vec<u64>> {
    lanes
        .iter()
        .map(|d| d.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Point 3: a real lane is within the bound of the complex
    /// sequence on the same operands, and both are within it of the
    /// definition on the shapes small enough to evaluate it.
    #[test]
    fn real_lanes_are_within_the_bound_of_the_complex_sequence(
        vals in proptest::collection::vec(-2.0f64..2.0, 23),
        kvals in proptest::collection::vec(-1.0f64..1.0, 19),
    ) {
        for (s, shape) in SHAPES.into_iter().enumerate() {
            for (c, count) in LANE_COUNTS.into_iter().enumerate() {
                let salt = SALTS[(s + c) % SALTS.len()];
                let (name, make) = PLATFORMS[(s + c) % PLATFORMS.len()];
                let xs = lanes(&vals, shape, count, salt);
                let (k, y) = (filter(&kvals, shape, salt), observed(&vals, shape));
                let real = make().filter_diff_batch(&xs, &k, &y).unwrap();
                let complex = run_staged(make().as_ref(), &xs, &k, &y).unwrap();
                for (j, x) in xs.iter().enumerate() {
                    let case = format!("{name}: {shape:?} x {count} lanes, {salt:?}, lane {j}");
                    let limit = bound(x, &k, &y);
                    let d = distance(&real[j], &complex[j]);
                    prop_assert!(d <= limit, "{}: real vs complex {:e} > {:e}", case, d, limit);
                    if x.len() <= 64 {
                        let exact = by_definition(x, &k, &y);
                        for (path, got) in [("real", &real[j]), ("complex", &complex[j])] {
                            let d = distance(got, &exact);
                            prop_assert!(d <= limit, "{}: {} vs definition {:e} > {:e}", case, path, d, limit);
                        }
                    }
                }
            }
        }
    }
}

/// Points 1 and 5: a real lane's bits do not depend on the platform,
/// the queue, the pool, a retried shard or the batch it rides in, and
/// the three unqueued platforms charge what they charge for the
/// complex sequence.
#[test]
fn real_lanes_are_placement_independent() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.17 - 1.9).collect();
    let shape = (16, 16);
    let xs = lanes(&vals, shape, 16, Salt::Zeros);
    let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
    let pooled = || {
        TpuAccel::over_pool(
            DevicePool::new(TpuConfig::small_test(), 4),
            Duration::ZERO,
            16,
        )
    };
    let faulted = pooled();
    let plan = FaultPlan::seeded(5).transient(0.3).with_retry_budget(30);
    faulted.pool().expect("pooled").install_fault_plan(plan);
    let placements: [(&str, Box<dyn Accelerator>); 6] = [
        ("unqueued tpu", Box::new(TpuAccel::tpu_v2())),
        (
            "queued tpu",
            Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        ),
        ("pooled tpu", Box::new(pooled())),
        ("faulted pool", Box::new(faulted)),
        ("cpu", Box::new(CpuModel::i7_3700())),
        ("gpu", Box::new(GpuModel::gtx1080())),
    ];
    let reference = bits(&placements[0].1.filter_diff_batch(&xs, &k, &y).unwrap());
    for (name, acc) in &placements {
        let batch = bits(&acc.filter_diff_batch(&xs, &k, &y).unwrap());
        assert_eq!(batch, reference, "{name}: one 16-lane batch");
        for (j, x) in xs.iter().enumerate() {
            let one = acc
                .filter_diff_batch(std::slice::from_ref(x), &k, &y)
                .unwrap();
            assert_eq!(bits(&one), reference[j..=j], "{name}: lane {j} alone");
        }
    }
    // Simulated time never sees which transform ran.
    for (name, make) in PLATFORMS {
        let (real_on, staged_on) = (make(), make());
        real_on.filter_diff_batch(&xs, &k, &y).unwrap();
        run_staged(staged_on.as_ref(), &xs, &k, &y).unwrap();
        assert_eq!(
            real_on.elapsed_seconds().to_bits(),
            staged_on.elapsed_seconds().to_bits(),
            "{name}: clock"
        );
        assert_eq!(real_on.stats(), staged_on.stats(), "{name}: stats");
    }
}

/// Point 4: a NaN or ±inf anywhere in a real lane leaves no finite
/// element in its result — exactly the elements the complex sequence
/// makes NaN are NaN.
#[test]
fn a_non_finite_element_poisons_the_whole_real_lane() {
    let vals: Vec<f64> = (0..23).map(|i| i as f64 * 0.17 - 1.9).collect();
    let acc = TpuAccel::tpu_v2();
    for shape @ (m, n) in SHAPES {
        let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
        let mut xs = Vec::new();
        for at in [(0, 0), (m - 1, n - 1), (m / 2, n / 2)] {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut x = lanes(&vals, shape, 1, Salt::Plain).remove(0);
                x[at] = Complex64::from_real(v);
                xs.push(x);
            }
        }
        let real = acc.filter_diff_batch(&xs, &k, &y).unwrap();
        let complex = run_staged(&acc, &xs, &k, &y).unwrap();
        for (j, (r, c)) in real.iter().zip(&complex).enumerate() {
            assert!(
                !r.iter().chain(c.iter()).any(|v| v.is_finite()),
                "{shape:?} lane {j}: a finite element survived"
            );
            let nan = |d: &Matrix<f64>| d.iter().map(|v| v.is_nan()).collect::<Vec<_>>();
            assert_eq!(nan(r), nan(c), "{shape:?} lane {j}: NaN pattern");
        }
    }
}

/// The placements of the ownership differential: the three unqueued
/// platforms, a queued chip, a 4-chip pool, and that pool retrying
/// transiently faulted shards (every attempt must start from an
/// untouched lane although results are written in place).
type Placement = (&'static str, fn() -> Box<dyn Accelerator>);
const PLACEMENTS: [Placement; 6] = [
    PLATFORMS[0],
    PLATFORMS[1],
    PLATFORMS[2],
    ("queued tpu", || {
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16))
    }),
    ("pooled tpu", || Box::new(pool_of_four(None))),
    ("faulted pool", || {
        Box::new(pool_of_four(Some(transient_faults())))
    }),
];

fn transient_faults() -> FaultPlan {
    FaultPlan::seeded(5).transient(0.3).with_retry_budget(30)
}

fn pool_of_four(plan: Option<FaultPlan>) -> TpuAccel {
    let pool = DevicePool::new(TpuConfig::small_test(), 4);
    if let Some(plan) = plan {
        pool.install_fault_plan(plan);
    }
    TpuAccel::over_pool(pool, Duration::ZERO, 16)
}

/// The fixed value table the non-proptest cases draw from.
fn fixed_vals() -> Vec<f64> {
    (0..23).map(|i| i as f64 * 0.17 - 1.9).collect()
}

/// The real parts of `lanes`: what a caller lends by value.
fn reals(lanes: &[Matrix<Complex64>]) -> Vec<Matrix<f64>> {
    lanes.iter().map(Matrix::to_real).collect()
}

/// Result bits per lane, or the error.
fn outcome(result: Result<Vec<Matrix<f64>>>) -> Result<Vec<Vec<u64>>> {
    result.map(|lanes| bits(&lanes))
}

fn ledger(acc: &dyn Accelerator) -> (u64, KernelStats) {
    (acc.elapsed_seconds().to_bits(), acc.stats())
}

/// Lending real lanes by value is the borrowed entry on the same lanes
/// lifted: result bits, clock bits, statistics and errors, on every
/// placement — even-row shapes (the real pair, in the lane's own
/// buffer), 5×4 (odd rows: lifted, the complex sequence), a NaN pixel
/// (same poison pattern, bit for bit) and a lane of the wrong shape.
#[test]
fn lending_real_lanes_by_value_is_the_borrowed_entry_bit_for_bit() {
    let vals = fixed_vals();
    for shape @ (m, n) in [(2, 1), (4, 3), (5, 4), (6, 10), (8, 8), (128, 128)] {
        let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
        for count in [1, 7, 16] {
            let lifted = lanes(&vals, shape, count, Salt::Zeros);
            let mut poisoned = lifted.clone();
            poisoned[count / 2][(m / 2, n / 2)] = Complex64::from_real(f64::NAN);
            let mut misshapen = lifted.clone();
            misshapen[count - 1] = lanes(&vals, (m + 2, n), 1, Salt::Plain).remove(0);
            for (case, lifted) in [("zeros", lifted), ("NaN", poisoned), ("shape", misshapen)] {
                let owned = reals(&lifted);
                for (name, make) in PLACEMENTS {
                    let (lent_to, borrowed_by) = (make(), make());
                    let lent = outcome(lent_to.filter_diff_real_batch(owned.clone(), &k, &y));
                    let borrowed = outcome(borrowed_by.filter_diff_batch(&lifted, &k, &y));
                    let at = format!("{name}: {shape:?} x {count} lanes, {case}");
                    assert_eq!(lent.is_err(), case == "shape", "{at}");
                    assert_eq!(lent, borrowed, "{at}: outcome");
                    assert_eq!(
                        ledger(lent_to.as_ref()),
                        ledger(borrowed_by.as_ref()),
                        "{at}: ledger"
                    );
                }
            }
        }
    }
    // The faulted pool does retry: the differential above covered the
    // retry clone, not only first attempts.
    let faulted = pool_of_four(Some(transient_faults()));
    let shape = (8, 8);
    let owned = reals(&lanes(&vals, shape, 16, Salt::Zeros));
    let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
    for _ in 0..3 {
        faulted
            .filter_diff_real_batch(owned.clone(), &k, &y)
            .unwrap();
    }
    let retries = faulted.pool().expect("pooled").fault_stats().retries;
    assert!(retries > 0, "seed 5 at 0.3 must fault at least one shard");
}

/// No copy: on the unqueued platforms and on a queued chip the matrix
/// a real lane comes back in *is* the buffer that was lent — not a
/// clone made for the job, not a fresh result.
#[test]
fn a_lent_real_lane_comes_back_as_its_own_buffer() {
    let vals = fixed_vals();
    for shape in [(8, 8), (6, 10), (128, 128)] {
        let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
        for (name, make) in &PLACEMENTS[..4] {
            let owned = reals(&lanes(&vals, shape, 7, Salt::Plain));
            let lent: Vec<_> = owned.iter().map(|x| x.as_slice().as_ptr()).collect();
            let out = make().filter_diff_real_batch(owned, &k, &y).unwrap();
            let back: Vec<_> = out.iter().map(|d| d.as_slice().as_ptr()).collect();
            assert_eq!(back, lent, "{name}: {shape:?}");
        }
    }
}

/// Per-lane errors survive ownership: two submitters' lent lanes ride
/// one flight, one lane of one submitter has the wrong shape. Its
/// owner gets the borrowed entry's error; the stranger gets its maps.
#[test]
fn a_misshapen_lent_lane_fails_only_its_own_submitter() {
    let vals = fixed_vals();
    let shape = (8, 8);
    let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
    let good = reals(&lanes(&vals, shape, 4, Salt::Plain));
    let mut bad = good.clone();
    bad[2] = reals(&lanes(&vals, (4, 8), 1, Salt::Plain)).remove(0);
    let lift = |xs: &[Matrix<f64>]| xs.iter().map(Matrix::to_complex).collect::<Vec<_>>();
    let want = TpuAccel::tpu_v2().filter_diff_batch(&lift(&good), &k, &y);
    let want_err = TpuAccel::tpu_v2()
        .with_batching(Duration::ZERO, 16)
        .filter_diff_batch(&lift(&bad), &k, &y)
        .unwrap_err();

    // max_lanes equals both submissions' total: the flight leaves the
    // moment both are in (the long window is the straggler guard).
    let acc = TpuAccel::tpu_v2().with_batching(Duration::from_secs(60), 8);
    let (good, bad) = std::thread::scope(|scope| {
        let good = scope.spawn(|| acc.filter_diff_real_batch(good, &k, &y));
        let bad = scope.spawn(|| acc.filter_diff_real_batch(bad, &k, &y));
        (good.join().unwrap(), bad.join().unwrap())
    });
    assert_eq!(acc.stats().kernels, 1, "both submissions rode one flight");
    assert_eq!(bad.unwrap_err(), want_err);
    assert_eq!(outcome(good), outcome(want));
}

/// A third-party accelerator: the primitive kernels only, every batch
/// method and both filter-diff entries inherited.
struct KernelsOnly(CpuModel);

impl Accelerator for KernelsOnly {
    fn name(&self) -> String {
        "kernels only".into()
    }
    fn matmul(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        self.0.matmul(a, b)
    }
    fn fft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        self.0.fft2d(x)
    }
    fn ifft2d(&self, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        self.0.ifft2d(x)
    }
    fn hadamard(&self, a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
        self.0.hadamard(a, b)
    }
    fn pointwise_div(
        &self,
        a: &Matrix<Complex64>,
        b: &Matrix<Complex64>,
        policy: DivPolicy,
    ) -> Result<Matrix<Complex64>> {
        self.0.pointwise_div(a, b, policy)
    }
    fn sub(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        self.0.sub(a, b)
    }
    fn charge_workload(&self, flops: f64, bytes: f64) {
        self.0.charge_workload(flops, bytes);
    }
    fn elapsed_seconds(&self) -> f64 {
        self.0.elapsed_seconds()
    }
    fn stats(&self) -> KernelStats {
        self.0.stats()
    }
    fn reset(&self) {
        self.0.reset();
    }
}

/// The trait default of the lending entry is the staged reference: an
/// accelerator that implements only the kernels computes, charges and
/// fails exactly as its own staged chain on the lifted lanes — the
/// complex sequence, not the real pair.
#[test]
fn a_kernels_only_accelerator_inherits_the_staged_chain_for_lent_lanes() {
    let vals = fixed_vals();
    for shape @ (m, n) in [(4, 3), (5, 4), (8, 8)] {
        let (k, y) = (filter(&vals, shape, Salt::Plain), observed(&vals, shape));
        let lifted = lanes(&vals, shape, 7, Salt::Zeros);
        let mut misshapen = lifted.clone();
        misshapen[3] = lanes(&vals, (m + 2, n), 1, Salt::Plain).remove(0);
        for lifted in [lifted, misshapen] {
            let owned = reals(&lifted);
            let (lent_to, staged_on) = (
                KernelsOnly(CpuModel::i7_3700()),
                KernelsOnly(CpuModel::i7_3700()),
            );
            let lent = outcome(lent_to.filter_diff_real_batch(owned, &k, &y));
            let staged = outcome(run_staged(&staged_on, &lifted, &k, &y));
            assert_eq!(lent, staged, "{shape:?}: outcome");
            assert_eq!(ledger(&lent_to), ledger(&staged_on), "{shape:?}: ledger");
        }
    }
}
