//! Benchmarks of the distillation core (the solve-strategy ablation:
//! naive division vs Wiener solve; the accelerated fit at
//! `pipeline-offline`'s shape) and the contribution-factor machinery,
//! including a host batch of block maps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xai_accel::{Accelerator, CpuModel, TpuAccel};
use xai_bench::distillation_pairs;
use xai_core::{explain_batch, DistilledModel, SolveStrategy};
use xai_tensor::ops::DivPolicy;

fn bench_solve_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill-fit");
    group.sample_size(20);
    for size in [16usize, 64] {
        let pairs = distillation_pairs(8, size).expect("valid config");
        group.bench_with_input(BenchmarkId::new("naive", size), &pairs, |b, pairs| {
            b.iter(|| {
                DistilledModel::fit(
                    black_box(pairs),
                    SolveStrategy::Naive {
                        policy: DivPolicy::Clamp { floor: 1e-12 },
                    },
                )
                .expect("fits")
            });
        });
        group.bench_with_input(BenchmarkId::new("wiener", size), &pairs, |b, pairs| {
            b.iter(|| {
                DistilledModel::fit(black_box(pairs), SolveStrategy::Wiener { lambda: 1e-6 })
                    .expect("fits")
            });
        });
    }
    group.finish();
}

/// `DistilledModel::fit_on` as `pipeline-offline` runs it: the default
/// Wiener solve of 4 pairs at 128², on the CPU model and an unqueued
/// TPU — Eq. 4's kernel and its inverse transform, host time per fit.
fn bench_accelerated_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill-fit-on");
    group.sample_size(20);
    let pairs = distillation_pairs(4, 128).expect("valid config");
    let platforms: [(&str, Box<dyn Accelerator>); 2] = [
        ("cpu", Box::new(CpuModel::i7_3700())),
        ("tpu", Box::new(TpuAccel::tpu_v2())),
    ];
    for (name, acc) in &platforms {
        group.bench_with_input(BenchmarkId::new(*name, 128), &pairs, |b, pairs| {
            b.iter(|| {
                DistilledModel::fit_on(acc.as_ref(), black_box(pairs), SolveStrategy::default())
                    .expect("fits")
            });
        });
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill-predict");
    for size in [32usize, 128] {
        let pairs = distillation_pairs(4, size).expect("valid config");
        let model = DistilledModel::fit(&pairs, SolveStrategy::default()).expect("fits");
        let x = pairs[0].0.clone();
        group.bench_with_input(BenchmarkId::from_parameter(size), &x, |b, x| {
            b.iter(|| model.predict(black_box(x)).expect("shape ok"));
        });
    }
    group.finish();
}

/// Multi-input batch explanation on the host: each pair's score lanes
/// fork over the host pool once.
fn bench_batch_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("explain-batch");
    group.sample_size(10);
    let pairs = distillation_pairs(16, 32).expect("valid config");
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).expect("fits");
    group.bench_function("serial", |b| {
        b.iter(|| explain_batch(black_box(&model), black_box(&pairs), 4).expect("shapes"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solve_strategies,
    bench_accelerated_fit,
    bench_prediction,
    bench_batch_parallelism
);
criterion_main!(benches);
