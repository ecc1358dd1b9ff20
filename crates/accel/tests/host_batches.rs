//! Pins what the four batched kernels of the host-class models leave
//! behind, against references spelled out with *single* kernels on a
//! fresh instance: the CPU launches a kernel per lane (exactly `n`
//! single-kernel calls in lane order, so a malformed batch keeps the
//! charges of the lanes before the odd one), the GPU one grid of `n`
//! lanes (one charge of `n` times a lane's work, or nothing).
//! `fused_direct.rs` cannot see a drift here: its reference, the staged
//! chain, runs through these same batch methods.
//!
//! A platform whose launch width reads 0 launches lane by lane.
//!
//! Known mutations this must catch: charging a CPU batch as one grid or
//! a GPU batch lane by lane; charging a group before its numerics ran
//! (a rejected GPU batch would then cost time); a GPU grid planned from
//! any lane but the first; stepping a request's staged-chain charges by
//! an unclamped launch width (a panic at width 0).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use xai_accel::{Accelerator, CpuModel, GpuModel, KernelStats, PreparedKernel};
use xai_tensor::{ops, Complex64, Matrix, Result, TensorError};
use xai_tpu::KernelJob;

type Lane = Matrix<Complex64>;
const SHAPE: (usize, usize) = (8, 8);
const ODD_SHAPE: (usize, usize) = (4, 8);
const LANE_COUNTS: [usize; 3] = [1, 3, 16];

fn lane(j: usize, (m, n): (usize, usize)) -> Lane {
    Matrix::from_fn(m, n, |r, c| {
        Complex64::new(
            ((r * 7 + c * 3 + j * 5) % 11) as f64 - 5.0,
            ((r + c * 2 + j) % 7) as f64 * 0.25,
        )
    })
    .unwrap()
}

fn lanes(n: usize) -> Vec<Lane> {
    (0..n).map(|j| lane(j, SHAPE)).collect()
}

fn reals(xs: &[Lane]) -> Vec<Matrix<f64>> {
    xs.iter().map(Matrix::to_real).collect()
}

/// One batched kernel and the single kernel it batches, both over
/// complex lanes (`sub` takes their real parts) with the shared operand
/// — the filter spectrum, the observed output — fixed at `SHAPE`.
struct Kernel {
    name: &'static str,
    batch: fn(&dyn Accelerator, &[Lane]) -> Result<Vec<Lane>>,
    single: fn(&dyn Accelerator, &Lane) -> Result<Lane>,
    /// Whether a lane's shape is checked against an operand of the
    /// kernel itself (a transform takes any shape).
    has_operand: bool,
}

const KERNELS: [Kernel; 4] = [
    Kernel {
        name: "fft2d_batch",
        batch: |acc, xs| acc.fft2d_batch(xs),
        single: |acc, x| acc.fft2d(x),
        has_operand: false,
    },
    Kernel {
        name: "ifft2d_batch",
        batch: |acc, xs| acc.ifft2d_batch(xs),
        single: |acc, x| acc.ifft2d(x),
        has_operand: false,
    },
    Kernel {
        name: "hadamard_batch",
        batch: |acc, xs| acc.hadamard_batch(xs, &lane(99, SHAPE)),
        single: |acc, x| acc.hadamard(x, &lane(99, SHAPE)),
        has_operand: true,
    },
    Kernel {
        name: "sub_batch",
        batch: |acc, xs| {
            let out = acc.sub_batch(&lane(98, SHAPE).to_real(), &reals(xs))?;
            Ok(out.iter().map(Matrix::to_complex).collect())
        },
        single: |acc, x| {
            let out = acc.sub(&lane(98, SHAPE).to_real(), &x.to_real())?;
            Ok(out.to_complex())
        },
        has_operand: true,
    },
];

fn ledger(acc: &dyn Accelerator) -> (u64, KernelStats) {
    (acc.elapsed_seconds().to_bits(), acc.stats())
}

fn assert_same_ledger(got: &dyn Accelerator, want: &dyn Accelerator, what: &str) {
    let ((got_bits, got), (want_bits, want)) = (ledger(got), ledger(want));
    assert_eq!(got_bits, want_bits, "{what}: clock bits");
    assert_eq!(got.seconds.to_bits(), want.seconds.to_bits(), "{what}");
    assert_eq!(got.ops.to_bits(), want.ops.to_bits(), "{what}: ops");
    assert_eq!(got.bytes.to_bits(), want.bytes.to_bits(), "{what}: bytes");
    assert_eq!(got.kernels, want.kernels, "{what}: kernels");
}

/// The single kernels over `xs` in lane order on `acc`, stopping at the
/// first error as a `collect` does.
fn lane_by_lane(acc: &dyn Accelerator, kernel: &Kernel, xs: &[Lane]) -> Result<Vec<Lane>> {
    xs.iter().map(|x| (kernel.single)(acc, x)).collect()
}

/// A fresh GPU charged one launch of `n` times the work the single
/// kernel charges for `x`.
fn one_grid(kernel: &Kernel, x: &Lane, n: usize) -> GpuModel {
    let probe = GpuModel::gtx1080();
    (kernel.single)(&probe, x).unwrap();
    let one = probe.stats();
    assert_eq!(one.kernels, 1);
    let reference = GpuModel::gtx1080();
    reference.charge_workload(one.ops * n as f64, one.bytes * n as f64);
    reference
}

#[test]
fn a_cpu_batch_is_n_single_kernels_in_lane_order() {
    for kernel in &KERNELS {
        for n in LANE_COUNTS {
            let xs = lanes(n);
            let (cpu, reference) = (CpuModel::i7_3700(), CpuModel::i7_3700());
            let got = (kernel.batch)(&cpu, &xs).unwrap();
            let want = lane_by_lane(&reference, kernel, &xs).unwrap();
            assert_eq!(got, want, "{} × {n}", kernel.name);
            assert_same_ledger(&cpu, &reference, &format!("cpu {} × {n}", kernel.name));
            assert_eq!(cpu.stats().kernels, n as u64);
        }
    }
}

#[test]
fn a_gpu_batch_is_one_launch_of_n_lanes() {
    for kernel in &KERNELS {
        for n in LANE_COUNTS {
            let xs = lanes(n);
            let gpu = GpuModel::gtx1080();
            let got = (kernel.batch)(&gpu, &xs).unwrap();
            let want = lane_by_lane(&GpuModel::gtx1080(), kernel, &xs).unwrap();
            assert_eq!(got, want, "{} × {n}", kernel.name);
            let reference = one_grid(kernel, &xs[0], n);
            assert_same_ledger(&gpu, &reference, &format!("gpu {} × {n}", kernel.name));
            assert_eq!(gpu.stats().kernels, 1);
        }
    }
}

#[test]
fn an_empty_batch_charges_nothing() {
    for kernel in &KERNELS {
        let platforms: [Box<dyn Accelerator>; 2] =
            [Box::new(CpuModel::i7_3700()), Box::new(GpuModel::gtx1080())];
        for acc in platforms {
            assert!((kernel.batch)(acc.as_ref(), &[]).unwrap().is_empty());
            assert_eq!(ledger(acc.as_ref()), (0.0f64.to_bits(), KernelStats::new()));
        }
    }
}

/// Lane 2 of five has `ODD_SHAPE`. The CPU fails where its third single
/// kernel fails, lanes 0–1 charged — and a transform, which takes any
/// shape, does not fail at all. The GPU plans its one grid from lane 0:
/// the transform grid rejects the odd lane, the elementwise grids fail
/// on it, and nothing is charged either way.
#[test]
fn a_malformed_batch_fails_with_the_partial_charges_of_its_launches() {
    for kernel in &KERNELS {
        let mut xs = lanes(5);
        xs[2] = lane(2, ODD_SHAPE);

        let (cpu, reference) = (CpuModel::i7_3700(), CpuModel::i7_3700());
        let got = (kernel.batch)(&cpu, &xs);
        let want = lane_by_lane(&reference, kernel, &xs);
        assert_eq!(got.is_err(), kernel.has_operand, "cpu {}", kernel.name);
        assert_eq!(got, want, "cpu {}", kernel.name);
        assert_same_ledger(&cpu, &reference, &format!("cpu {}", kernel.name));
        let charged = if kernel.has_operand { 2 } else { 5 };
        assert_eq!(cpu.stats().kernels, charged, "cpu {}", kernel.name);

        let gpu = GpuModel::gtx1080();
        let want = if kernel.has_operand {
            (kernel.single)(&GpuModel::gtx1080(), &xs[2]).unwrap_err()
        } else {
            TensorError::ShapeMismatch {
                left: SHAPE,
                right: ODD_SHAPE,
                op: "fft2d_batch",
            }
        };
        assert_eq!(
            (kernel.batch)(&gpu, &xs).unwrap_err(),
            want,
            "gpu {}",
            kernel.name
        );
        assert_eq!(ledger(&gpu), (0.0f64.to_bits(), KernelStats::new()));
    }
}

/// A platform that asks for launches of no lanes, and counts the
/// launches it is charged and whether any carried other than one lane.
#[derive(Default)]
struct NoWidth {
    launches: AtomicUsize,
    wide: AtomicBool,
}

impl NoWidth {
    /// Launches charged so far, all of one lane.
    fn single_lane_launches(&self) -> usize {
        assert!(
            !self.wide.load(Ordering::Relaxed),
            "a launch of other than one lane"
        );
        self.launches.load(Ordering::Relaxed)
    }
}

impl xai_accel::Platform for NoWidth {
    fn name(&self) -> String {
        "no width".to_string()
    }
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        ops::matmul_blocked(a, b, ops::DEFAULT_BLOCK)
    }
    fn lanes_per_launch(&self, _: usize) -> usize {
        0
    }
    fn charge_launch(&self, job: KernelJob, lanes: usize) -> Result<()> {
        if let KernelJob::Score { rows, cols } = job {
            return xai_accel::charge_staged_chain(self, rows, cols, lanes);
        }
        self.launches.fetch_add(1, Ordering::Relaxed);
        if lanes != 1 {
            self.wide.store(true, Ordering::Relaxed);
        }
        Ok(())
    }
    fn charge_workload(&self, _: f64, _: f64) {}
    fn elapsed_seconds(&self) -> f64 {
        0.0
    }
    fn stats(&self) -> KernelStats {
        KernelStats::new()
    }
    fn reset(&self) {}
}

/// A launch width of 0 reads as 1: every batch kernel, the staged
/// chain and a request's score lanes launch one lane at a time.
#[test]
fn a_launch_width_of_zero_launches_lane_by_lane() {
    let xs = lanes(3);
    for kernel in &KERNELS {
        let acc = NoWidth::default();
        (kernel.batch)(&acc, &xs).unwrap();
        assert_eq!(acc.single_lane_launches(), 3, "{}", kernel.name);
    }
    let (filter, y) = (lane(99, SHAPE), lane(98, SHAPE).to_real());
    let acc = NoWidth::default();
    acc.filter_diff_batch(&xs, &filter, &y).unwrap();
    assert_eq!(acc.single_lane_launches(), 4 * 3, "filter_diff_batch");
    let acc = NoWidth::default();
    let rects = [(0..4, 0..4), (4..8, 0..8), (0..8, 4..8)];
    let kernel = PreparedKernel::new(filter);
    let scores = acc.contribution_scores(&xs[0].to_real(), &y, &rects, &kernel);
    assert_eq!(scores.unwrap().len(), 3);
    assert_eq!(acc.single_lane_launches(), 4 * 3, "contribution_scores");
}
