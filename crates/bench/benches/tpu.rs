//! Benchmarks of the TPU simulator itself: systolic tile simulation
//! throughput, device phase charging, and the MXU operand arithmetic
//! of the precision ablation (int8 vs bf16 operands, against f64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xai_tensor::quant::{bf16_round, QuantizedMatrix};
use xai_tensor::Matrix;
use xai_tpu::{SystolicArray, TpuConfig, TpuDevice};

fn int_matrix(rows: usize, cols: usize) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| (((r * 31 + c * 17) % 21) as i8) - 10).expect("dims > 0")
}

fn real_matrix(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0 - 0.5).expect("n > 0")
}

/// Cycle-accurate PE-grid simulation cost per tile size.
fn bench_systolic_tile(c: &mut Criterion) {
    let mut group = c.benchmark_group("systolic-tile");
    for s in [4usize, 8, 16] {
        let array = SystolicArray::new(s, s);
        let weights = int_matrix(s, s);
        let activations = int_matrix(s, s);
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| {
                array
                    .simulate_tile(black_box(&weights), black_box(&activations))
                    .expect("valid tile")
            });
        });
    }
    group.finish();
}

/// Device phase charging overhead as core count grows: one 16×16
/// product per core.
fn bench_device_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("device-phase");
    for cores in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
            b.iter(|| {
                let mut dev = TpuDevice::with_cores(TpuConfig::small_test(), cores);
                dev.run_phase(black_box(vec![16; cores]), |core, n| {
                    core.charge_matmul_work(n, n, n, 1)
                })
                .expect("phase runs");
                dev
            });
        });
    }
    group.finish();
}

/// Quantise → int8 matmul → dequantise, and bf16-rounded operands into
/// an f64 matmul, versus the f64 matmul (A4).
fn bench_quantized_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantised-matmul");
    for n in [16usize, 64] {
        let a = real_matrix(n);
        let b_ = real_matrix(n);
        group.bench_with_input(BenchmarkId::new("int8", n), &n, |bch, _| {
            bch.iter(|| {
                let qa = QuantizedMatrix::quantize_symmetric(black_box(&a)).expect("finite");
                let qb = QuantizedMatrix::quantize_symmetric(black_box(&b_)).expect("finite");
                qa.matmul_dequant(&qb).expect("shapes agree")
            });
        });
        group.bench_with_input(BenchmarkId::new("bf16", n), &n, |bch, _| {
            bch.iter(|| {
                let ta = black_box(&a).map(bf16_round);
                let tb = black_box(&b_).map(bf16_round);
                xai_tensor::ops::matmul(&ta, &tb).expect("shapes agree")
            });
        });
        group.bench_with_input(BenchmarkId::new("f64", n), &n, |bch, _| {
            bch.iter(|| xai_tensor::ops::matmul(black_box(&a), black_box(&b_)).expect("shapes"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_systolic_tile,
    bench_device_phase,
    bench_quantized_matmul
);
criterion_main!(benches);
