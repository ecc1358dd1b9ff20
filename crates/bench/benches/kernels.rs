//! Benchmarks of the tensor substrate kernels: blocked vs naive
//! matmul and direct vs FFT-based circular convolution — the
//! crossovers that justify the library's algorithm choices — of the
//! direct filter-diff batch the interpretation phase runs on, and of
//! the `xai-nn` convolution layer the classification phase runs on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xai_fourier::convolve2d_fft;
use xai_tensor::conv::conv2d_circular;
use xai_tensor::ops::{
    matmul, matmul_blocked, matmul_blocked_parallel, pointwise_div, DivPolicy, DEFAULT_BLOCK,
};
use xai_tensor::Matrix;

fn real_matrix(n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |r, c| {
        (((r * 13 + c * 7 + seed) % 23) as f64) / 23.0 - 0.5
    })
    .expect("n > 0")
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for n in [64usize, 128] {
        let a = real_matrix(n, 1);
        let b_ = real_matrix(n, 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| matmul(black_box(&a), black_box(&b_)).expect("shapes"));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |b, _| {
            b.iter(|| {
                matmul_blocked(black_box(&a), black_box(&b_), DEFAULT_BLOCK).expect("shapes")
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked-pool", n), &n, |b, _| {
            b.iter(|| {
                matmul_blocked_parallel(black_box(&a), black_box(&b_), DEFAULT_BLOCK)
                    .expect("shapes")
            });
        });
    }
    group.finish();
}

/// The elementwise hot loops after the iterator rewrite (bounds
/// checks elided in release) and their pool fan-out above the fixed
/// chunk threshold.
fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(20);
    for n in [128usize, 256] {
        let a = real_matrix(n, 5).to_complex();
        let b_ = real_matrix(n, 6)
            .map(|v| v + 1.5) // keep denominators away from zero
            .to_complex();
        group.bench_with_input(BenchmarkId::new("hadamard", n), &n, |b, _| {
            b.iter(|| xai_tensor::ops::hadamard(black_box(&a), black_box(&b_)).expect("shapes"));
        });
        group.bench_with_input(BenchmarkId::new("pointwise-div", n), &n, |b, _| {
            b.iter(|| {
                pointwise_div(black_box(&a), black_box(&b_), DivPolicy::default()).expect("shapes")
            });
        });
    }
    group.finish();
}

/// Direct O(N⁴) circular convolution vs the O(N² log N) FFT path —
/// the asymptotic separation the paper's task transformation exploits.
fn bench_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d-circular");
    group.sample_size(10);
    for n in [16usize, 32] {
        let x = real_matrix(n, 3);
        let k = real_matrix(n, 4);
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| conv2d_circular(black_box(&x), black_box(&k)).expect("shapes"));
        });
        group.bench_with_input(BenchmarkId::new("fft", n), &n, |b, _| {
            b.iter(|| convolve2d_fft(black_box(&x), black_box(&k)).expect("shapes"));
        });
    }
    group.finish();
}

/// One sharded gather flight per fabric at pod scale: the same
/// oversubscribed matmul fleet reassembled over a flat crossbar, a
/// ring and a 2-D torus at 4, 16 and 64 chips. Host wall time is the
/// leader thread running every shard plus the pool's bookkeeping; the
/// simulated gather ordering (flat ≤ torus ≤ ring) is pinned by the
/// suite's property tests.
fn bench_collectives(c: &mut Criterion) {
    use xai_tpu::{DevicePool, LaneCost, Topology, TpuConfig};
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10);
    for chips in [4usize, 16, 64] {
        let work = vec![8usize; 2 * chips];
        for (label, topology) in [
            ("flat-gather", Topology::flat()),
            ("ring-gather", Topology::ring()),
            ("torus-gather", Topology::torus(4)),
        ] {
            group.bench_with_input(BenchmarkId::new(label, chips), &chips, |b, _| {
                let pool = DevicePool::with_cores(TpuConfig::small_test(), chips, 1)
                    .with_topology(topology);
                b.iter(|| {
                    pool.run_sharded(
                        black_box(work.clone()),
                        |&n| LaneCost {
                            compute: (n * n) as f64,
                            gather_bytes: 8 * n * n,
                        },
                        |device, sizes| {
                            device.timed(|d| {
                                d.run_phase(sizes.iter().copied(), |core, n| {
                                    core.charge_matmul_work(n, n, n, 1)
                                })?;
                                Ok(sizes)
                            })
                        },
                    )
                    .expect("sharded gather flight")
                });
            });
        }
    }
    group.finish();
}

/// Host time of one pooled request on 4 small chips, from the serving
/// shape (8×8 ×4) up to heavy lanes: the sizes at which running a
/// flight's shards on its leader's thread was weighed against a host
/// thread per chip. `scores-x{lanes}` is one `contribution_scores`
/// request — one flight of score lanes over the blocks of grid 2 or 4;
/// `filter-diff-x{lanes}` is `filter_diff_batch` on as many occlusions,
/// the staged chain's four flights.
fn bench_pooled_flight(c: &mut Criterion) {
    use std::time::Duration;
    use xai_accel::{Accelerator, PreparedKernel, TpuAccel};
    use xai_tpu::{DevicePool, TpuConfig};
    let mut group = c.benchmark_group("pooled-flight");
    group.sample_size(10);
    for (n, lanes) in [(8usize, 4usize), (32, 16), (128, 16)] {
        let xs: Vec<_> = (0..lanes).map(|i| real_matrix(n, i).to_complex()).collect();
        let filter = real_matrix(n, 97).to_complex();
        let y = real_matrix(n, 98);
        let acc = TpuAccel::over_pool(
            DevicePool::new(TpuConfig::small_test(), 4),
            Duration::ZERO,
            256,
        );
        let id = BenchmarkId::new(format!("filter-diff-x{lanes}"), n);
        group.bench_with_input(id, &n, |b, _| {
            b.iter(|| {
                acc.filter_diff_batch(black_box(&xs), black_box(&filter), black_box(&y))
                    .expect("pooled flight")
            });
        });
        let (x, kernel) = (real_matrix(n, 0), PreparedKernel::new(filter.clone()));
        let (grid, side) = (lanes.isqrt(), n / lanes.isqrt());
        let rects: Vec<_> = (0..lanes)
            .map(|b| {
                (
                    b / grid * side..(b / grid + 1) * side,
                    b % grid * side..(b % grid + 1) * side,
                )
            })
            .collect();
        let id = BenchmarkId::new(format!("scores-x{lanes}"), n);
        group.bench_with_input(id, &n, |b, _| {
            b.iter(|| {
                acc.contribution_scores(black_box(&x), black_box(&y), &rects, &kernel)
                    .expect("pooled flight")
            });
        });
    }
    group.finish();
}

/// Host time of one unqueued `filter_diff_batch` at the
/// `pipeline-offline` shape (16 lanes × 128²) on each platform: the
/// staged chain every platform runs, the reference the scores of
/// `contribution_scores/*` are held to.
fn bench_filter_diff_direct(c: &mut Criterion) {
    use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
    let xs: Vec<_> = (0..16).map(|i| real_matrix(128, i).to_complex()).collect();
    let filter = real_matrix(128, 97).to_complex();
    let y = real_matrix(128, 98);
    let platforms: [(&str, Box<dyn Accelerator>); 3] = [
        ("cpu", Box::new(CpuModel::i7_3700())),
        ("gpu", Box::new(GpuModel::gtx1080())),
        ("tpu", Box::new(TpuAccel::tpu_v2())),
    ];
    let mut group = c.benchmark_group("filter_diff_direct");
    group.sample_size(10);
    for (label, acc) in &platforms {
        group.bench_function(label, |b| {
            b.iter(|| {
                acc.filter_diff_batch(black_box(&xs), black_box(&filter), black_box(&y))
                    .expect("shapes")
            });
        });
    }
    group.finish();
}

/// Host time of one unqueued `contribution_scores` request at the
/// `pipeline-offline` / `serve-large` shape (the 16 blocks of grid 4 on
/// 128²) on each platform — what `contributions_batch_on` calls, with
/// the kernel prepared once outside the timed loop, as a model holds it.
/// The built-in platforms score in the spectrum; `lane-route/tpu` is the
/// reference they are held to on the same operands: sixteen occluded
/// copies lifted to complex through `filter_diff_batch`, then the norms. `prepare`
/// is the same request on the TPU with a kernel prepared inside the
/// loop: the `tpu` row plus the per-model build (`K_h`, `‖K‖_max`, the
/// autocorrelation and the 64² box's window) that every other row
/// amortises.
fn bench_contribution_scores(c: &mut Criterion) {
    use xai_accel::{occluded, Accelerator, CpuModel, GpuModel, PreparedKernel, TpuAccel};
    let (x, y) = (real_matrix(128, 0), real_matrix(128, 98));
    let filter = real_matrix(128, 97).to_complex();
    let kernel = PreparedKernel::new(filter.clone());
    let rects: Vec<_> = (0..16)
        .map(|b| (b / 4 * 32..b / 4 * 32 + 32, b % 4 * 32..b % 4 * 32 + 32))
        .collect();
    let platforms: [(&str, Box<dyn Accelerator>); 3] = [
        ("cpu", Box::new(CpuModel::i7_3700())),
        ("gpu", Box::new(GpuModel::gtx1080())),
        ("tpu", Box::new(TpuAccel::tpu_v2())),
    ];
    let mut group = c.benchmark_group("contribution_scores");
    group.sample_size(10);
    for (label, acc) in &platforms {
        group.bench_function(label, |b| {
            b.iter(|| {
                acc.contribution_scores(black_box(&x), black_box(&y), &rects, &kernel)
                    .expect("shapes")
            });
        });
    }
    let tpu = TpuAccel::tpu_v2();
    group.bench_function("prepare", |b| {
        b.iter(|| {
            let kernel = PreparedKernel::new(black_box(&filter).clone());
            tpu.contribution_scores(black_box(&x), black_box(&y), &rects, &kernel)
                .expect("shapes")
        });
    });
    group.bench_function("lane-route/tpu", |b| {
        b.iter(|| {
            let lanes: Vec<_> = rects
                .iter()
                .map(|rect| {
                    occluded(black_box(&x), rect)
                        .expect("inside x")
                        .to_complex()
                })
                .collect();
            let diffs = tpu.filter_diff_batch(&lanes, &filter, &y).expect("shapes");
            diffs.iter().map(Matrix::frobenius_norm).collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// The classification phase: `Conv2d` forward and backward at the
/// four layer shapes of `vgg_small` on 16×16×3 images, and the whole
/// seeded epoch over 64 images that `pipeline-offline` trains per
/// slice.
fn bench_conv2d(c: &mut Criterion) {
    use xai_data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
    use xai_nn::layers::Conv2d;
    use xai_nn::{models, Layer, Tape, Tensor3, Trainer};
    let volume = |channels: usize, size: usize, seed: usize| {
        Tensor3::from_fn(channels, size, size, |c, y, x| {
            ((c * 13 + y * 7 + x * 3 + seed) % 23) as f64 / 23.0 - 0.5
        })
        .expect("non-empty volume")
    };
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    for (ic, oc, size) in [
        (3usize, 8usize, 16usize),
        (8, 8, 16),
        (8, 16, 8),
        (16, 16, 8),
    ] {
        let mut conv = Conv2d::new(ic, oc, 3, 1, 1, size, size, 1).expect("kernel fits");
        let (x, grad) = (volume(ic, size, 1), volume(oc, size, 2));
        let shape = format!("{ic}to{oc}-{size}x{size}");
        group.bench_with_input(BenchmarkId::new("fwd", &shape), &shape, |b, _| {
            b.iter(|| conv.forward(black_box(&x), None).expect("forward"));
        });
        // Every call backpropagates through a copy of the same recorded
        // forward pass and accumulates it as a batch of one.
        let mut recorded = Tape::default();
        conv.forward(&x, Some(&mut recorded)).expect("forward");
        group.bench_with_input(BenchmarkId::new("bwd", &shape), &shape, |b, _| {
            b.iter(|| {
                let mut tape = recorded.clone();
                conv.backward(black_box(&grad), &mut tape, true)
                    .expect("backward");
                conv.accumulate(std::slice::from_mut(&mut tape))
                    .expect("accumulate");
            });
        });
    }
    let config = ImageConfig {
        classes: 4,
        size: 16,
        channels: 3,
        grid: 4,
        noise: 0.05,
        seed: 1,
    };
    let images = ImageDataset::new(config)
        .and_then(|dataset| dataset.generate(64))
        .expect("valid config");
    let samples = as_training_pairs(&images);
    group.sample_size(10);
    group.bench_function("train-epoch/vgg_small-16x64", |b| {
        b.iter(|| {
            let mut net = models::vgg_small(3, 16, 4, 1).expect("4 divides 16");
            Trainer::new(0.05, 0.9, 8, 1)
                .fit(&mut net, black_box(&samples), 1)
                .expect("fit")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_elementwise,
    bench_convolution,
    bench_collectives,
    bench_pooled_flight,
    bench_filter_diff_direct,
    bench_contribution_scores,
    bench_conv2d
);
criterion_main!(benches);
