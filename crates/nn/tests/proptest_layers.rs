//! Property-based tests for the NN substrate.

use dpbfl_nn::activation::Elu;
use dpbfl_nn::layer::Layer;
use dpbfl_nn::loss::CrossEntropyLoss;
use dpbfl_nn::norm::GroupNorm;
use dpbfl_nn::zoo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elu_is_monotone_and_bounded_below(a in -10.0f32..10.0, b in -10.0f32..10.0) {
        let mut e = Elu::new(2);
        let y = e.forward_batch(&[a, b], 1);
        prop_assert!(y.iter().all(|&v| v > -1.0 - 1e-6));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let y2 = e.forward_batch(&[lo, hi], 1);
        prop_assert!(y2[0] <= y2[1] + 1e-6);
    }

    #[test]
    fn groupnorm_output_is_standardized(
        v in prop::collection::vec(-100.0f32..100.0, 16..17)
    ) {
        // Skip near-constant inputs where variance ≈ 0.
        let mean0: f32 = v.iter().sum::<f32>() / 16.0;
        let var0: f32 = v.iter().map(|x| (x - mean0).powi(2)).sum::<f32>() / 16.0;
        prop_assume!(var0 > 1e-3);
        let mut gn = GroupNorm::new(1, 4, 2, 2);
        let y = gn.forward_batch(&v, 1);
        let mean: f32 = y.iter().sum::<f32>() / 16.0;
        let var: f32 = y.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 16.0;
        prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        prop_assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        logits in prop::collection::vec(-20.0f32..20.0, 2..10)
    ) {
        let label = logits.len() - 1;
        let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, label);
        prop_assert!(loss >= -1e-9);
        let sum: f32 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-5);
        prop_assert!(grad[label] <= 0.0); // correct class is pushed up
    }

    #[test]
    fn mlp_params_roundtrip(input in 1usize..32, hidden in 1usize..16, classes in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = zoo::mlp(&mut rng, input, hidden, classes);
        let expected = input * hidden + hidden + hidden * classes + classes;
        prop_assert_eq!(m.param_len(), expected);
        let p: Vec<f32> = (0..expected).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
        m.set_params(&p);
        prop_assert_eq!(m.params(), p);
    }

    #[test]
    fn forward_is_deterministic_wrt_params(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = zoo::mlp(&mut rng, 8, 4, 3);
        let x = [0.1f32, -0.2, 0.3, 0.0, 0.5, -0.5, 0.9, -0.9];
        let y1 = m.forward_batch(&x, 1);
        let y2 = m.forward_batch(&x, 1);
        prop_assert_eq!(y1, y2);
    }
}
