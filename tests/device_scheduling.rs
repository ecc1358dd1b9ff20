//! Integration tests of Algorithm 1 and the device-level scheduling:
//! the TPU platform must produce host-identical numerics while the
//! simulator's clocks behave like hardware — on one chip, and sharded
//! across a multi-chip [`DevicePool`].

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpu_xai::accel::{Accelerator, TpuAccel};
use tpu_xai::core::{explain_batch_on, explain_batch_parallel_on, DistilledModel, SolveStrategy};
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix, TensorError};
use tpu_xai::tpu::{BatchQueue, DevicePool, LaneCost, SystolicArray, TpuConfig, TpuDevice};

/// How long a test whose flights dispatch on `max_lanes` may take:
/// well under the 60 s straggler window, so a flight that waited the
/// window out fails instead of passing slowly.
const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

fn spectrum_input(m: usize, n: usize) -> Matrix<Complex64> {
    Matrix::from_fn(m, n, |r, c| {
        Complex64::new(
            ((r * 7 + c) % 9) as f64 - 4.0,
            ((r + c * 5) % 7) as f64 * 0.5,
        )
    })
    .unwrap()
}

fn bits(m: &Matrix<Complex64>) -> Vec<(u64, u64)> {
    m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Algorithm 1 on the product path: the TPU's transforms are the host
/// FFT's bits on any core count, and sharding a transform over more
/// cores never costs more device time.
#[test]
fn algorithm1_is_exact_for_every_core_count() {
    for (m, n) in [(12, 12), (6, 10)] {
        let x = spectrum_input(m, n);
        let host = tpu_xai::fourier::fft2d(&x).unwrap();
        let inverse = tpu_xai::fourier::ifft2d(&host).unwrap();
        let mut last_wall = f64::INFINITY;
        for cores in [1usize, 2, 3, 5, 12, 64] {
            let tpu = TpuAccel::with_cores(cores);
            let spectrum = tpu.fft2d(&x).unwrap();
            assert_eq!(bits(&spectrum), bits(&host), "{m}x{n}, cores={cores}");
            let device = tpu.device();
            let wall = device.wall_seconds();
            assert!(
                wall > 0.0 && wall <= last_wall,
                "{m}x{n}, cores={cores}: {wall} s"
            );
            assert_eq!(device.collectives(), 2, "one reassembly per stage");
            last_wall = wall;
            let back = tpu.ifft2d(&spectrum).unwrap();
            assert_eq!(bits(&back), bits(&inverse), "{m}x{n}, cores={cores}");
        }
    }
}

#[test]
fn systolic_array_agrees_with_quantized_matmul() {
    // The cycle-accurate PE grid and the batch int8 matmul must agree
    // bit for bit (both use i32 accumulation).
    let array = SystolicArray::new(8, 8);
    let w = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 15) as i8 - 7).unwrap();
    let a = Matrix::from_fn(6, 8, |r, c| ((r * 5 + c * 2) % 13) as i8 - 6).unwrap();
    let tile = array.simulate_tile(&w, &a).unwrap();
    let expect = xai_tensor::ops::matmul(&a.map(|v| v as i32), &w.map(|v| v as i32)).unwrap();
    assert_eq!(tile.output, expect);
}

#[test]
fn communication_cost_scales_with_payload() {
    let mut device = TpuDevice::with_cores(TpuConfig::tpu_v2(), 4);
    device.charge_collective(8 * 8 * 8);
    let t_small = device.comm_seconds();
    device.reset();
    device.charge_collective(64 * 64 * 8);
    assert!(device.comm_seconds() > t_small);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Sharding §III-D explanation batches across 1, 2, 4 or 16
    /// simulated chips must be bit-identical to the single-device
    /// path: lanes are pure functions of their inputs, wherever they
    /// are placed.
    #[test]
    fn pooled_explanations_bit_identical_across_device_counts(
        seed in proptest::collection::vec(-4.0f64..4.0, 8 * 8 * 4),
    ) {
        let k = Matrix::from_fn(8, 8, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
        let pairs: Vec<(Matrix<f64>, Matrix<f64>)> = seed
            .chunks(64)
            .map(|chunk| {
                let x = Matrix::from_fn(8, 8, |r, c| chunk[r * 8 + c]).unwrap();
                let y = conv2d_circular(&x, &k).unwrap();
                (x, y)
            })
            .collect();
        let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
        let reference =
            explain_batch_on(&TpuAccel::with_cores(4), &model, &pairs, 4).unwrap();
        for n_devices in [1usize, 2, 4, 16] {
            let acc = TpuAccel::over_pool(
                DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 4),
                Duration::ZERO,
                8,
            );
            let maps =
                explain_batch_parallel_on(&acc, &model, &pairs, 4, pairs.len()).unwrap();
            prop_assert_eq!(maps.len(), reference.len());
            for (a, b) in reference.iter().zip(&maps) {
                prop_assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "n_devices={} must be bit-identical",
                    n_devices
                );
            }
            prop_assert!(acc.elapsed_seconds() > 0.0);
        }
    }
}

/// A shard that panics mid-flight (while holding its chip's lock —
/// the worst case) must fail that flight with `WorkerPanicked` for
/// every queue participant, and leave neither the pool nor any chip
/// wedged.
#[test]
fn pool_recovers_from_panicking_shard_and_fails_followers() {
    let started = Instant::now();
    let pool = Arc::new(DevicePool::new(TpuConfig::small_test(), 2));
    let queue: Arc<BatchQueue<u64, u64>> = Arc::new(BatchQueue::new(
        pool.primary().clone(),
        Duration::from_secs(60),
        2,
    ));
    let run_sharded = |items: Vec<u64>, crash: bool| {
        pool.run_sharded(
            items,
            |_| LaneCost {
                compute: 1.0,
                gather_bytes: 8,
            },
            move |device, lanes| {
                if crash && lanes.contains(&0) {
                    device.with(|_| panic!("chip firmware crash mid-shard"));
                }
                Ok((lanes, 0.0))
            },
        )
        .map(|run| run.results)
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let run_sharded = &run_sharded;
                scope.spawn(move || {
                    // Stagger so thread 0 reliably leads the flight.
                    if i == 1 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    queue.submit(vec![i], |_, flight| run_sharded(flight, true))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // The pool catches the shard panic, so no submitter panics: the
    // leader's dispatch lands an error and *every* participant —
    // followers included — observes WorkerPanicked.
    for outcome in outcomes {
        assert!(matches!(
            outcome.unwrap_err(),
            TensorError::WorkerPanicked { .. }
        ));
    }
    // No wedged devices: the next flight shards across every chip,
    // including the one whose lock the panicking shard poisoned.
    let served = queue
        .submit(vec![7, 8], |_, flight| run_sharded(flight, false))
        .unwrap();
    assert_eq!(served, vec![7, 8]);
    for device in pool.devices() {
        device
            .with(|d| d.run_phase(vec![4], |core, n| core.charge_matmul_work(n, n, n, 1)))
            .unwrap();
    }
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
}

/// The pool's merged timeline shows the strong-scaling win: the same
/// oversubscribed explanation fleet finishes faster on four chips
/// than on one, while producing identical maps.
#[test]
fn four_chips_explain_faster_than_one() {
    let started = Instant::now();
    let k = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c) % 7) as f64 * 0.2).unwrap();
    let pairs: Vec<(Matrix<f64>, Matrix<f64>)> = (0..8)
        .map(|s| {
            let x = Matrix::from_fn(16, 16, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0).unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect();
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let lanes = pairs.len() * 16;
    let run = |n_devices: usize| {
        let acc = TpuAccel::over_pool(
            DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 2),
            Duration::from_secs(60),
            lanes,
        );
        let maps = explain_batch_parallel_on(&acc, &model, &pairs, 4, pairs.len()).unwrap();
        (maps, acc.elapsed_seconds())
    };
    let (maps_one, t_one) = run(1);
    let (maps_four, t_four) = run(4);
    for (a, b) in maps_one.iter().zip(&maps_four) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    assert!(
        t_four < t_one,
        "4 chips ({t_four} s) must beat 1 chip ({t_one} s)"
    );
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
}

/// Pod-scale fleets: 16 and 64 chips produce bit-identical maps on
/// every interconnect fabric, while the merged clock orders the
/// fabrics by bisection bandwidth — the flat crossbar is the ideal
/// that the torus and ring degrade gracefully from.
#[test]
fn pod_scale_fleets_degrade_gracefully_by_fabric() {
    let started = Instant::now();
    use tpu_xai::tpu::Topology;
    let k = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c) % 7) as f64 * 0.2).unwrap();
    let pairs: Vec<(Matrix<f64>, Matrix<f64>)> = (0..8)
        .map(|s| {
            let x = Matrix::from_fn(16, 16, |r, c| ((r * 5 + c + s) % 9) as f64 - 4.0).unwrap();
            let y = conv2d_circular(&x, &k).unwrap();
            (x, y)
        })
        .collect();
    let model = DistilledModel::fit(&pairs, SolveStrategy::default()).unwrap();
    let lanes = pairs.len() * 16;
    let run = |n_devices: usize, topology: Topology| {
        let acc = TpuAccel::over_pool(
            DevicePool::with_cores(TpuConfig::tpu_v2(), n_devices, 1).with_topology(topology),
            Duration::from_secs(60),
            lanes,
        );
        let maps = explain_batch_parallel_on(&acc, &model, &pairs, 4, pairs.len()).unwrap();
        let sharded = acc.pool().unwrap().sharded_flights();
        (maps, acc.elapsed_seconds(), sharded)
    };
    for n_devices in [16usize, 64] {
        let (flat_maps, t_flat, flat_sharded) = run(n_devices, Topology::flat());
        let (torus_maps, t_torus, _) = run(n_devices, Topology::torus(4));
        let (ring_maps, t_ring, _) = run(n_devices, Topology::ring());
        for (a, b) in flat_maps.iter().zip(&torus_maps) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "torus bits at {n_devices} chips"
            );
        }
        for (a, b) in flat_maps.iter().zip(&ring_maps) {
            assert_eq!(a.as_slice(), b.as_slice(), "ring bits at {n_devices} chips");
        }
        assert!(flat_sharded > 0, "the ideal fabric must fan out");
        assert!(
            t_flat <= t_torus && t_torus <= t_ring,
            "{n_devices} chips must order flat {t_flat} s ≤ torus {t_torus} s ≤ ring {t_ring} s"
        );
    }
    assert!(
        started.elapsed() < STRAGGLER_BOUND,
        "max_lanes dispatched every flight"
    );
}

#[test]
fn device_energy_scales_with_work() {
    let energy = |n: usize| {
        let tpu = TpuAccel::with_cores(2);
        tpu.fft2d(&spectrum_input(n, n)).unwrap();
        tpu.energy_pj()
    };
    let e_small = energy(8);
    assert!(e_small > 0.0);
    assert!(energy(16) > e_small);
}

/// Per core: `(elapsed_cycles, energy bits)`; plus the device's
/// `wall_seconds` bits.
type CoreTotals = (u64, u64);

fn device_totals(accel: &TpuAccel) -> (Vec<CoreTotals>, u64) {
    accel.device().with(|d| {
        let cores = d
            .cores()
            .iter()
            .map(|c| (c.elapsed_cycles(), c.energy_pj().to_bits()))
            .collect();
        (cores, d.wall_seconds().to_bits())
    })
}

/// What the simulator charges (cycles, energy, wall seconds) is pinned
/// to bits recorded when every charge was also logged per event: a
/// change to what the simulator keeps must not move a charge by a bit.
#[test]
fn golden_totals_match_the_event_log_they_replaced() {
    // (a) A 4-lane `filter_diff_batch` on a 2-core chip: the staged
    // chain's four flights, which charge each core what the event log
    // recorded for the fused chain's one flight.
    let accel = TpuAccel::with_config(TpuConfig::small_test()).with_batching(Duration::ZERO, 4);
    let xs: Vec<Matrix<Complex64>> = (0..4)
        .map(|i| spectrum_input(8, 8).map(|z| z * Complex64::from_real(1.0 + i as f64)))
        .collect();
    let filter = spectrum_input(8, 8);
    let y = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64 / 64.0).unwrap();
    accel.filter_diff_batch(&xs, &filter, &y).unwrap();
    let (cores, wall) = device_totals(&accel);
    let core: CoreTotals = (1792, 0x40e9_d999_9999_9998);
    assert_eq!(cores, vec![core; 2]);
    assert_eq!(wall, 0x3f5d_7e26_5cc7_3c7a);

    // (b) One direct 64×64 fft2d on tpu_v2: Algorithm 1 row-shards it
    // over 64 of the 128 cores, the rest stay untouched.
    let accel = TpuAccel::tpu_v2();
    accel.fft2d(&spectrum_input(64, 64)).unwrap();
    let (cores, wall) = device_totals(&accel);
    let busy: CoreTotals = (1146, 0x4100_c599_9999_999a);
    let idle: CoreTotals = (0, 0);
    assert_eq!(cores[..64], vec![busy; 64]);
    assert_eq!(cores[64..], vec![idle; 64]);
    assert_eq!(wall, 0x3ece_c188_b74e_545a);
}
