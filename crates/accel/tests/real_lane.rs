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
//! walking the inverse's row pairs upwards (output overtakes input).

use proptest::prelude::*;
use std::time::Duration;
use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
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
