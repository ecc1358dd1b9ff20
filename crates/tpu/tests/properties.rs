//! Property-based tests of the TPU simulator: the cycle-accurate
//! PE-grid dataflow must agree with reference arithmetic for *any*
//! operand values and shapes, and the cost model must obey basic
//! monotonicity laws.

use proptest::prelude::*;
use xai_tensor::Matrix;
use xai_tpu::{tile_stream_cycles, SystolicArray, TpuConfig, TpuDevice};

fn i8_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<i8>> {
    proptest::collection::vec(-60i8..60, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tile_simulation_equals_reference_for_any_values(
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let w = Matrix::from_fn(k, n, |r, c| {
            (((r as u64 * 31 + c as u64 * 17 + seed) % 121) as i8) - 60
        }).expect("dims");
        let a = Matrix::from_fn(m, k, |r, c| {
            (((r as u64 * 13 + c as u64 * 7 + seed * 3) % 121) as i8) - 60
        }).expect("dims");
        let array = SystolicArray::new(8, 8);
        let tile = array.simulate_tile(&w, &a).unwrap();
        let expect = xai_tensor::ops::matmul(&a.map(|v| v as i32), &w.map(|v| v as i32)).unwrap();
        prop_assert_eq!(tile.output, expect);
        prop_assert_eq!(tile.cycles, tile_stream_cycles(m, k, n));
    }

    #[test]
    fn multi_tile_equals_reference(a in i8_matrix(5, 7), w in i8_matrix(7, 6)) {
        let array = SystolicArray::new(3, 3); // force tiling
        let res = array.simulate_matmul(&a, &w).unwrap();
        let expect = xai_tensor::ops::matmul(&a.map(|v| v as i32), &w.map(|v| v as i32)).unwrap();
        prop_assert_eq!(res.output, expect);
    }

    #[test]
    fn matmul_cycles_monotone_in_every_dimension(
        m in 1usize..64,
        k in 1usize..64,
        n in 1usize..64,
    ) {
        let array = SystolicArray::new(8, 8);
        let base = array.matmul_cycles(m, k, n, true);
        prop_assert!(array.matmul_cycles(m + 8, k, n, true) >= base);
        prop_assert!(array.matmul_cycles(m, k + 8, n, true) >= base);
        prop_assert!(array.matmul_cycles(m, k, n + 8, true) >= base);
    }

    #[test]
    fn double_buffering_never_hurts(m in 1usize..32, k in 1usize..32, n in 1usize..32) {
        let array = SystolicArray::new(4, 4);
        prop_assert!(
            array.matmul_cycles(m, k, n, true) <= array.matmul_cycles(m, k, n, false)
        );
    }

    #[test]
    fn core_clock_only_moves_forward(ops in proptest::collection::vec(2usize..10, 1..6)) {
        let mut core = xai_tpu::TpuCore::new(TpuConfig::small_test());
        let mut last = 0;
        for n in ops {
            core.charge_matmul_work(n, n, n, 1);
            prop_assert!(core.elapsed_cycles() > last);
            last = core.elapsed_cycles();
        }
    }

    #[test]
    fn phase_wall_time_bounded_by_serial_sum(n_items in 1usize..8) {
        let mut dev = TpuDevice::with_cores(TpuConfig::small_test(), 4);
        let work: Vec<usize> = (1..=n_items).collect();
        dev.run_phase(work, |core, n| core.charge_matmul_work(n, n, n, 1)).unwrap();
        let serial_sum: f64 = dev.cores().iter().map(|c| c.elapsed_seconds()).sum();
        prop_assert!(dev.wall_seconds() <= serial_sum + 1e-12);
        prop_assert!(dev.wall_seconds() > 0.0);
    }
}
