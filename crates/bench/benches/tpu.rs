//! Benchmarks of the TPU simulator itself: systolic tile simulation
//! throughput, device phase charging, a pooled flight's dispatch, and
//! the MXU operand arithmetic of the precision ablation (int8 vs bf16
//! operands, against f64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use xai_accel::{Platform, TpuAccel};
use xai_sync::{OrderedCondvar, OrderedMutex};
use xai_tensor::quant::{bf16_round, QuantizedMatrix};
use xai_tensor::Matrix;
use xai_tpu::{DevicePool, FaultPlan, KernelJob, SystolicArray, Topology, TpuConfig, TpuDevice};

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
                dev.run_phase(black_box(std::iter::repeat_n(16, cores)), |core, n| {
                    core.charge_matmul_work(n, n, n, 1)
                })
                .expect("phase runs");
                dev
            });
        });
    }
    group.finish();
}

/// The simulated cost of one queued flight, host side: four
/// `Score { 8, 8 }` lanes charged through `Platform::charge_launch`
/// on a flat 4-chip pool and on a 16-chip 4×4 torus, each healthy and
/// under a seeded 5 % transient-fault plan — the fan-out decision, the
/// faulted dispatch and every shard's charge, with no numerics. Then
/// the wake a flight's landing issues when nobody waits on it.
fn bench_flight_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight-dispatch");
    let lane = KernelJob::Score { rows: 8, cols: 8 };
    let fabrics = [
        ("flat-4", 4, Topology::flat()),
        ("torus-16", 16, Topology::torus(4)),
    ];
    for (name, chips, topology) in fabrics {
        for faulted in [false, true] {
            let pool = DevicePool::new(TpuConfig::small_test(), chips).with_topology(topology);
            if faulted {
                pool.install_fault_plan(FaultPlan::seeded(42).transient(0.05));
            }
            let acc = TpuAccel::over_pool(pool, Duration::ZERO, 4);
            let label = if faulted { "transient-5pct" } else { "healthy" };
            group.bench_function(&format!("{name}/{label}"), |b| {
                // An exhausted retry budget is a typed error, and part
                // of what a faulted flight costs.
                b.iter(|| acc.charge_launch(black_box(lane), 4).is_ok());
            });
        }
    }
    let state = OrderedMutex::<u64>::default();
    let cv = OrderedCondvar::new();
    group.bench_function("notify-all-no-waiter", |b| {
        b.iter(|| {
            *state.lock_recover() += 1;
            cv.notify_all();
        });
    });
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
    bench_flight_dispatch,
    bench_quantized_matmul
);
criterion_main!(benches);
