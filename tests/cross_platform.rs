//! Cross-platform integration tests: the three hardware models must
//! agree numerically and disagree (in the paper's order) on time.

use tpu_xai::accel::{
    time_region, Accelerator, Clock, CpuModel, GpuModel, KernelStats, PreparedKernel, Rect,
    TpuAccel,
};
use tpu_xai::core::{interpret_on, transform_roundtrip_seconds, SolveStrategy};
use tpu_xai::tensor::ops::{self, DivPolicy};
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix, Result};
use tpu_xai::tpu::KernelJob;

fn pairs(n: usize, size: usize) -> Vec<(Matrix<f64>, Matrix<f64>)> {
    let k = Matrix::from_fn(size, size, |r, c| ((r + c * 2) % 5) as f64 * 0.2).unwrap();
    (0..n)
        .map(|s| {
            let x = Matrix::from_fn(size, size, |r, c| {
                (((r * 13 + c * 7 + s * 3) % 17) as f64) / 17.0 - 0.5
            })
            .unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect()
}

#[test]
fn all_platforms_compute_identical_spectral_results() {
    let x = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c) % 9) as f64)
        .unwrap()
        .to_complex();
    let cpu = CpuModel::i7_3700();
    let gpu = GpuModel::gtx1080();
    let tpu = TpuAccel::tpu_v2();
    let sc = cpu.fft2d(&x).unwrap();
    let sg = gpu.fft2d(&x).unwrap();
    let st = tpu.fft2d(&x).unwrap();
    assert!(sc.max_abs_diff(&sg).unwrap() < 1e-12);
    assert!(sc.max_abs_diff(&st).unwrap() < 1e-12);
}

#[test]
fn interpretation_ordering_holds_across_sizes() {
    for size in [32usize, 64] {
        let ps = pairs(4, size);
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let tpu = TpuAccel::tpu_v2();
        let (_, rc) = interpret_on(&cpu, &ps, 4, SolveStrategy::default()).unwrap();
        let (_, rg) = interpret_on(&gpu, &ps, 4, SolveStrategy::default()).unwrap();
        let (_, rt) = interpret_on(&tpu, &ps, 4, SolveStrategy::default()).unwrap();
        assert!(
            rt.total_s() < rg.total_s() && rg.total_s() < rc.total_s(),
            "size {size}: tpu {} gpu {} cpu {}",
            rt.total_s(),
            rg.total_s(),
            rc.total_s()
        );
    }
}

#[test]
fn tpu_advantage_grows_with_matrix_size() {
    // Figure 4's shape: the CPU/TPU ratio must increase monotonically.
    let mut last_ratio = 0.0;
    for n in [64usize, 128, 256] {
        let cpu = CpuModel::i7_3700();
        let tpu = TpuAccel::tpu_v2();
        let tc = transform_roundtrip_seconds(&cpu, n).unwrap();
        let tt = transform_roundtrip_seconds(&tpu, n).unwrap();
        let ratio = tc / tt;
        assert!(
            ratio > last_ratio,
            "ratio not growing at {n}: {ratio} vs {last_ratio}"
        );
        last_ratio = ratio;
    }
    assert!(
        last_ratio > 10.0,
        "TPU must win by an order of magnitude at 256²"
    );
}

#[test]
fn time_region_isolates_a_phase() {
    let cpu = CpuModel::i7_3700();
    let x = Matrix::filled(32, 32, 0.5).unwrap();
    let (_, warmup) = time_region(&cpu, |a| a.matmul(&x, &x)).unwrap();
    let (_, second) = time_region(&cpu, |a| a.matmul(&x, &x)).unwrap();
    assert!(warmup > 0.0);
    // A deterministic cost model: identical kernels cost identical time.
    assert!((warmup - second).abs() < 1e-12);
}

/// A batch of regions scores each as the per-region lane route on the
/// same platform: the occlusion through `filter_diff_batch` with the
/// kernel's spectrum, and the difference's norm.
#[test]
fn batched_contribution_matches_unbatched() {
    use tpu_xai::core::{contributions_batch_on, occlude, DistilledModel, Region};
    let ps = pairs(3, 16);
    let model = DistilledModel::fit(&ps, SolveStrategy::default()).unwrap();
    let (x, y) = &ps[0];
    let regions: Vec<Region> = (0..4).map(Region::Column).collect();
    for make in [0usize, 1, 2] {
        let mut acc: Box<dyn Accelerator> = match make {
            0 => Box::new(CpuModel::i7_3700()),
            1 => Box::new(GpuModel::gtx1080()),
            _ => Box::new(TpuAccel::with_cores(8)),
        };
        let batch = contributions_batch_on(acc.as_mut(), &model, x, y, &regions).unwrap();
        for (i, &r) in regions.iter().enumerate() {
            let lane = occlude(x, r).unwrap().to_complex();
            let single = acc
                .filter_diff_batch(&[lane], model.kernel_spectrum(), y)
                .unwrap()[0]
                .frobenius_norm();
            assert!(
                (batch[i] - single).abs() < 1e-9,
                "platform {make} region {i}: batch {} vs single {}",
                batch[i],
                single
            );
        }
    }
}

/// The host maps are the score lanes with no clock: on the shapes the
/// explainers meet — a 16² pair at grid 4, Fig. 5's 12² at grid 3,
/// Fig. 6's 8² columns, an odd row count (the occluded kind) and a NaN
/// pixel — `contribution`, `block_contributions` and
/// `column_contributions` return, bit for bit, what
/// `contributions_batch_on` returns on every built-in platform, direct,
/// queued and pooled.
#[test]
fn host_maps_are_the_score_lanes_of_every_platform() {
    use std::time::Duration;
    use tpu_xai::core::{
        block_contributions, column_contributions, contribution, contributions_batch_on,
        DistilledModel, Region,
    };
    let platforms: [Box<dyn Accelerator>; 5] = [
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        Box::new(TpuAccel::with_pool(2, Duration::ZERO, 16)),
    ];
    for (size, grid, poisoned) in [
        (16, 4, false),
        (12, 3, false),
        (8, 2, false),
        (15, 3, false),
        (16, 4, true),
    ] {
        let case = format!("{size}² grid {grid}, NaN pixel {poisoned}");
        let ps = pairs(3, size);
        let model = DistilledModel::fit(&ps, SolveStrategy::default()).unwrap();
        let (mut x, y) = ps[0].clone();
        if poisoned {
            x[(5, 9)] = f64::NAN;
        }
        let side = size / grid;
        let blocks: Vec<Region> = (0..grid * grid)
            .map(|b| Region::Block(b / grid * side, b % grid * side, side, side))
            .collect();
        let columns: Vec<Region> = (0..size).map(Region::Column).collect();
        let block_map = block_contributions(&model, &x, &y, grid).unwrap();
        let column_map = column_contributions(&model, &x, &y).unwrap();
        for (regions, host) in [
            (&blocks, bits(block_map.iter())),
            (&columns, bits(&column_map)),
        ] {
            let single: Vec<f64> = regions
                .iter()
                .map(|&r| contribution(&model, &x, &y, r).unwrap())
                .collect();
            assert_eq!(bits(&single), host, "{case}: contribution");
            for acc in &platforms {
                let batch = contributions_batch_on(acc.as_ref(), &model, &x, &y, regions).unwrap();
                assert_eq!(bits(&batch), host, "{case}: {}", acc.name());
            }
        }
    }
}

/// One NaN pixel makes NaN the score of every occlusion that keeps it
/// — fifteen of sixteen blocks — on the host route and on every
/// platform, direct and queued alike (a non-finite element poisons its
/// whole lane whichever transform the lane takes), and the explainers'
/// `argmax2` points at the poison instead of panicking.
#[test]
fn a_nan_pixel_poisons_the_same_blocks_on_every_platform() {
    use std::time::Duration;
    use tpu_xai::core::parallel::block_contributions_on;
    use tpu_xai::core::{argmax2, block_contributions, DistilledModel};
    let ps = pairs(3, 16);
    let model = DistilledModel::fit(&ps, SolveStrategy::default()).unwrap();
    let (mut x, y) = ps[0].clone();
    x[(5, 9)] = f64::NAN; // inside block (1, 2) of the 4 x 4 grid
    let expected: Vec<bool> = (0..16).map(|block| block != 4 + 2).collect();
    let nan = |map: &Matrix<f64>| map.iter().map(|v| v.is_nan()).collect::<Vec<_>>();
    let host = block_contributions(&model, &x, &y, 4).unwrap();
    assert_eq!(nan(&host), expected, "host");
    assert_eq!(argmax2(&host), (3, 3), "the last NaN outranks every number");
    let platforms: [Box<dyn Accelerator>; 5] = [
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        Box::new(TpuAccel::with_pool(2, Duration::ZERO, 16)),
    ];
    for acc in platforms {
        let map = block_contributions_on(acc.as_ref(), &model, &x, &y, 4).unwrap();
        assert_eq!(nan(&map), expected, "{}", acc.name());
        assert!(map[(1, 2)].is_finite(), "{}", acc.name());
    }
}

/// A platform that states nothing but charges: blocked f64 matmuls, a
/// launch per lane, one constant charge per launch.
#[derive(Default)]
struct ChargesOnly {
    clock: Clock,
}

impl tpu_xai::accel::Platform for ChargesOnly {
    fn name(&self) -> String {
        "charges only".to_string()
    }
    fn product(&self, a: &Matrix<f64>, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        ops::matmul_blocked(a, b, ops::DEFAULT_BLOCK)
    }
    fn lanes_per_launch(&self, _: usize) -> usize {
        1
    }
    fn charge_launch(&self, _: KernelJob, lanes: usize) -> Result<()> {
        self.clock.record(1e-6 * lanes as f64, 1.0, 1.0);
        Ok(())
    }
    fn charge_workload(&self, flops: f64, bytes: f64) {
        self.clock.record(1e-6, flops, bytes);
    }
    fn elapsed_seconds(&self) -> f64 {
        self.clock.seconds()
    }
    fn stats(&self) -> KernelStats {
        self.clock.stats()
    }
    fn reset(&self) {
        self.clock.reset();
    }
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

fn complex_bits(m: &Matrix<Complex64>) -> Vec<u64> {
    m.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// A platform of another crate is a cost model and nothing else: on
/// every kernel it returns the bits the CPU model returns — scores taken
/// in the spectrum (even rows) and on the occlusion (odd rows), Eq. 4's
/// fit and its scores under both strategies, the staged filter-diff chain, both
/// transforms and the matmul.
#[test]
fn a_charges_only_platform_computes_the_built_ins_bits() {
    use tpu_xai::core::DistilledModel;
    let platforms: [Box<dyn Accelerator>; 2] = [
        Box::new(ChargesOnly::default()),
        Box::new(CpuModel::i7_3700()),
    ];
    let [plain, cpu] = platforms.each_ref().map(|acc| acc.as_ref());
    let ps = pairs(3, 16);
    let model = DistilledModel::fit(&ps, SolveStrategy::default()).unwrap();
    let (x, y) = &ps[0];
    let grid = |(m, n): (usize, usize)| -> Vec<Rect> {
        (0..4)
            .map(|b| {
                (
                    b / 2 * m / 2..(b / 2 + 1) * m / 2,
                    b % 2 * n / 2..(b % 2 + 1) * n / 2,
                )
            })
            .collect()
    };
    let kernel = PreparedKernel::new(model.kernel_spectrum().clone());
    let odd = pairs(1, 15).remove(0);
    let odd_kernel =
        PreparedKernel::new(Matrix::filled(15, 15, Complex64::new(0.5, 0.25)).unwrap());
    for (x, y, kernel) in [(x, y, &kernel), (&odd.0, &odd.1, &odd_kernel)] {
        let rects = grid(x.shape());
        let [got, want] =
            [plain, cpu].map(|acc| acc.contribution_scores(x, y, &rects, kernel).unwrap());
        assert_eq!(bits(&got), bits(&want), "scores of {:?}", x.shape());
    }
    for strategy in [
        SolveStrategy::default(),
        SolveStrategy::Naive {
            policy: DivPolicy::default(),
        },
    ] {
        let rects = grid(x.shape());
        let [got, want] = [plain, cpu].map(|acc| acc.interpret(&ps, strategy, &rects).unwrap());
        assert_eq!(
            bits(got.kernel.iter()),
            bits(want.kernel.iter()),
            "{strategy:?}"
        );
        let spectra = [&got, &want].map(|fit| complex_bits(fit.prepared.spectrum()));
        assert_eq!(spectra[0], spectra[1], "{strategy:?}");
        let scores = [&got, &want].map(|fit| bits(fit.scores.iter().flatten()));
        assert_eq!(scores[0], scores[1], "{strategy:?}");
    }
    let xs: Vec<_> = ps.iter().map(|(x, _)| x.to_complex()).collect();
    let [got, want] = [plain, cpu].map(|acc| {
        acc.filter_diff_batch(&xs, model.kernel_spectrum(), y)
            .unwrap()
    });
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(bits(got.iter()), bits(want.iter()), "filter_diff_batch");
    }
    let [got, want] = [plain, cpu].map(|acc| acc.fft2d(&xs[0]).unwrap());
    assert_eq!(complex_bits(&got), complex_bits(&want), "fft2d");
    let [got, want] = [plain, cpu].map(|acc| acc.ifft2d(&xs[0]).unwrap());
    assert_eq!(complex_bits(&got), complex_bits(&want), "ifft2d");
    let [got, want] = [plain, cpu].map(|acc| acc.matmul(x, y).unwrap());
    assert_eq!(bits(got.iter()), bits(want.iter()), "matmul");
}
