//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use xai_tensor::conv::conv2d_circular;
use xai_tensor::ops::{self, matmul, matmul_blocked};
use xai_tensor::quant::QuantizedMatrix;
use xai_tensor::{Complex64, Matrix};

/// Strategy: a rows×cols matrix of small reals.
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-100.0f64..100.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

fn square_strategy(n: usize) -> impl Strategy<Value = Matrix<f64>> {
    matrix_strategy(n, n)
}

proptest! {
    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 5),
        c in matrix_strategy(5, 2),
    ) {
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        // (AB)C = A(BC) up to fp reassociation; magnitudes ≤ 100³·20
        prop_assert!(left.max_abs_diff(&right).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(3, 3),
        b in square_strategy(3),
        c in square_strategy(3),
    ) {
        let lhs = matmul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(&matmul(&a, &b).unwrap(), &matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-8);
    }

    #[test]
    fn blocked_matmul_matches_naive(
        a in matrix_strategy(7, 9),
        b in matrix_strategy(9, 5),
        block in 1usize..12,
    ) {
        let naive = matmul(&a, &b).unwrap();
        let blocked = matmul_blocked(&a, &b, block).unwrap();
        prop_assert!(naive.max_abs_diff(&blocked).unwrap() < 1e-8);
    }

    #[test]
    fn transpose_reverses_matmul(
        a in matrix_strategy(4, 3),
        b in matrix_strategy(3, 5),
    ) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = matmul(&a, &b).unwrap().transpose();
        let rhs = matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-9);
    }

    #[test]
    fn circular_conv_commutes(a in square_strategy(4), b in square_strategy(4)) {
        let ab = conv2d_circular(&a, &b).unwrap();
        let ba = conv2d_circular(&b, &a).unwrap();
        prop_assert!(ab.max_abs_diff(&ba).unwrap() < 1e-7);
    }

    #[test]
    fn circular_conv_preserves_total_mass(a in square_strategy(4), b in square_strategy(4)) {
        // sum(a ∗ b) = sum(a)·sum(b) for circular convolution
        let conv = conv2d_circular(&a, &b).unwrap();
        let expect = a.sum() * b.sum();
        prop_assert!((conv.sum() - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }

    #[test]
    fn quantization_error_bounded(a in square_strategy(6)) {
        let q = QuantizedMatrix::quantize_symmetric(&a).unwrap();
        let back = q.dequantize();
        let bound = q.params().scale / 2.0 + 1e-12;
        prop_assert!(a.max_abs_diff(&back).unwrap() <= bound);
    }

    #[test]
    fn complex_div_mul_roundtrip(re in -50.0f64..50.0, im in -50.0f64..50.0) {
        prop_assume!(re.abs() + im.abs() > 1e-6);
        let z = Complex64::new(re, im);
        let w = Complex64::new(3.0, -2.0);
        let round = (w / z) * z;
        prop_assert!((round - w).abs() < 1e-9);
    }

    #[test]
    fn hadamard_commutes(a in square_strategy(4), b in square_strategy(4)) {
        let ab = ops::hadamard(&a, &b).unwrap();
        let ba = ops::hadamard(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn parallel_blocked_matmul_bit_identical(
        a in matrix_strategy(13, 9),
        b in matrix_strategy(9, 7),
        block in 1usize..16,
    ) {
        // The pool-parallel panels must reproduce the serial blocked
        // loop BIT for bit — the runtime's determinism contract
        // (fixed split points + serial per-panel accumulation order).
        let serial = matmul_blocked(&a, &b, block).unwrap();
        let parallel = ops::matmul_blocked_parallel(&a, &b, block).unwrap();
        prop_assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn elementwise_ops_match_zip_with_reference(
        a in matrix_strategy(5, 11),
        b in matrix_strategy(5, 11),
    ) {
        // The chunks_exact/iterator rewrite (and its parallel path)
        // must be indistinguishable from the straightforward
        // per-element closure.
        prop_assert_eq!(
            ops::hadamard(&a, &b).unwrap().as_slice(),
            a.zip_with(&b, |x, y| x * y).unwrap().as_slice()
        );
        prop_assert_eq!(
            ops::add(&a, &b).unwrap().as_slice(),
            a.zip_with(&b, |x, y| x + y).unwrap().as_slice()
        );
        prop_assert_eq!(
            ops::sub(&a, &b).unwrap().as_slice(),
            a.zip_with(&b, |x, y| x - y).unwrap().as_slice()
        );
    }

    #[test]
    fn pointwise_div_policies_match_reference(
        re in -20.0f64..20.0,
        im in -20.0f64..20.0,
        floor in 0.1f64..2.0,
    ) {
        let a = Matrix::filled(3, 3, Complex64::new(re, im)).unwrap();
        let b = Matrix::from_fn(3, 3, |r, c| {
            Complex64::new(re * (r as f64 - 1.0), im * (c as f64 - 1.0))
        }).unwrap();
        let clamp = ops::pointwise_div(&a, &b, ops::DivPolicy::Clamp { floor }).unwrap();
        let reference = a.zip_with(&b, |x, y| {
            let mag = y.abs();
            if mag == 0.0 {
                x / Complex64::from_real(floor)
            } else if mag < floor {
                x / y.scale(floor / mag)
            } else {
                x / y
            }
        }).unwrap();
        prop_assert_eq!(clamp.as_slice(), reference.as_slice());
        let zf = ops::pointwise_div(&a, &b, ops::DivPolicy::ZeroFill { tol: floor }).unwrap();
        for (q, &den) in zf.as_slice().iter().zip(b.as_slice()) {
            if den.abs() <= floor {
                prop_assert_eq!(*q, Complex64::ZERO);
            }
        }
    }

    #[test]
    fn vstack_then_split_roundtrip(a in matrix_strategy(2, 3), b in matrix_strategy(3, 3)) {
        let stacked = Matrix::vstack(&[a.clone(), b.clone()]).unwrap();
        prop_assert_eq!(stacked.submatrix(0, 0, 2, 3).unwrap(), a);
        prop_assert_eq!(stacked.submatrix(2, 0, 3, 3).unwrap(), b);
    }
}
