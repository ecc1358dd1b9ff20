//! Property-based tests of the NN substrate: gradient checks on
//! randomly-configured layers and algebraic laws of the helpers.

use proptest::prelude::*;
use xai_nn::layers::{Conv2d, Dense, Relu};
use xai_nn::{finite_difference_check, softmax, Layer, Tensor3};

fn volume(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor3> {
    proptest::collection::vec(-2.0f64..2.0, c * h * w)
        .prop_map(move |v| Tensor3::from_vec(c, h, w, v).expect("length matches"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-20.0f64..20.0, 2..10)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // argmax preserved
        let arg_l = logits.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let arg_p = p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        prop_assert_eq!(arg_l, arg_p);
    }

    #[test]
    fn dense_gradients_check_for_random_inputs(x in volume(1, 1, 6), seed in 0u64..100) {
        let layer = Dense::new(6, 3, seed).unwrap();
        let err = finite_difference_check(&layer, &x, 1e-5).unwrap();
        prop_assert!(err < 1e-5, "fd error {err}");
    }

    #[test]
    fn conv_gradients_check_for_random_inputs(
        x in volume(3, 5, 6),
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..100,
    ) {
        let layer = Conv2d::new(3, 2, 3, stride, padding, 5, 6, seed).unwrap();
        let err = finite_difference_check(&layer, &x, 1e-5).unwrap();
        prop_assert!(err < 1e-5, "fd error {err}");
    }

    #[test]
    fn relu_is_idempotent(x in volume(1, 3, 3)) {
        let relu = Relu::new(1, 3, 3);
        let once = relu.forward(&x, None).unwrap();
        let twice = relu.forward(&once, None).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn layer_flop_counts_are_stable(seed in 0u64..50) {
        // The output shape depends on the configuration, not the weights.
        let a = Conv2d::new(2, 3, 3, 1, 1, 6, 6, seed).unwrap();
        let b = Conv2d::new(2, 3, 3, 1, 1, 6, 6, seed + 1).unwrap();
        prop_assert_eq!(a.output_shape(), b.output_shape());
    }
}
