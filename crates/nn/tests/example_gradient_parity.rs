//! `Sequential::example_gradient` is the protocol's hot path and takes a
//! shortcut through the first layer (no input gradient; a first `Linear`
//! writes its gradient straight into the output). These tests hold it, bit
//! for bit, to the batch-of-one composition it stands for and to the
//! server's batched gradient over a one-example batch.

use dpbfl_nn::activation::Elu;
use dpbfl_nn::linear::Linear;
use dpbfl_nn::{zoo, CrossEntropyLoss, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random example in roughly [-0.5, 0.5].
fn example(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            ((h % 1000) as f32 / 1000.0) - 0.5
        })
        .collect()
}

/// An ELU MLP whose even hidden units are dead and odd ones live on any
/// input in [-0.5, 0.5] (large biases), so the first layer sees `dy_i == 0`
/// rows next to ordinary ones. A dead unit's pre-activation is ≈ −200, where
/// `e^x` underflows to `0.0` in f32: its output is exactly `−α`, so its
/// derivative `y + α` is exactly zero and `dy_i` is a signed zero.
fn elu_mlp_with_dead_units(rng: &mut StdRng) -> Sequential {
    let (input, hidden, classes) = (20usize, 12usize, 4usize);
    let mut model = Sequential::new(vec![
        Linear::new(rng, input, hidden).into(),
        Elu::new(hidden).into(),
        Linear::new(rng, hidden, classes).into(),
    ]);
    let mut params = model.params();
    for unit in 0..hidden {
        params[input * hidden + unit] = if unit % 2 == 0 { -200.0 } else { 5.0 };
    }
    model.set_params(&params);
    model
}

fn models() -> Vec<(&'static str, Sequential)> {
    let mut rng = StdRng::seed_from_u64(42);
    vec![
        ("mlp_784", zoo::mlp_784(&mut rng)),
        ("mlp_784_16_10", zoo::mlp(&mut rng, 784, 16, 10)),
        ("mnist_cnn", zoo::mnist_cnn(&mut rng)),
        ("colorectal_cnn", zoo::colorectal_cnn(&mut rng)),
        ("elu_mlp_dead_units", elu_mlp_with_dead_units(&mut rng)),
    ]
}

/// Three examples per model; the last carries `-0.0` and `0.0` inputs, whose
/// `dy_i · x_j` products are signed zeros the accumulating path turns `+0.0`.
fn examples(model: &Sequential) -> Vec<(Vec<f32>, usize)> {
    let (len, k) = (model.input_len(), model.output_len());
    let mut out: Vec<(Vec<f32>, usize)> =
        (0..3).map(|i| (example(len, 31 + i as u32), (i * 3 + 1) % k)).collect();
    for (j, x) in out[2].0.iter_mut().enumerate() {
        match j % 4 {
            0 => *x = -0.0,
            1 => *x = 0.0,
            _ => {}
        }
    }
    out
}

/// The composition `example_gradient` stands for: zero the accumulators,
/// run the example forward and backward as a batch of one, read the
/// accumulators.
fn reference_gradient(model: &mut Sequential, x: &[f32], label: usize) -> (f64, Vec<f32>) {
    model.zero_grads();
    let logits = model.forward_batch(x, 1);
    let (loss, grad_logits) = CrossEntropyLoss.loss_and_grad(&logits, label);
    model.backward_batch(&grad_logits, 1);
    let mut grad = vec![0.0f32; model.param_len()];
    model.write_grads_into(&mut grad);
    (loss, grad)
}

/// Asserts a loss and a gradient equal the reference's bit for bit.
fn assert_same(what: &str, (loss, grad): (f64, &[f32]), (ref_loss, ref_grad): (f64, &[f32])) {
    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{what}: loss differs");
    for (i, (&a, &b)) in grad.iter().zip(ref_grad).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: gradient scalar {i} differs ({a} vs {b})");
    }
}

#[test]
fn example_gradient_bit_identical_to_zero_forward_backward_write() {
    for (name, mut model) in models() {
        let mut reference = model.clone();
        // NaN-filled: the shortcut must overwrite every scalar.
        let mut grad = vec![f32::NAN; model.param_len()];
        for (e, (x, label)) in examples(&model).iter().enumerate() {
            let loss = model.example_gradient(&CrossEntropyLoss, x, *label, &mut grad);
            let (ref_loss, ref_grad) = reference_gradient(&mut reference, x, *label);
            assert_same(&format!("{name}, example {e}"), (loss, &grad), (ref_loss, &ref_grad));
        }
    }
}

#[test]
fn example_gradient_bit_identical_to_a_one_example_batch_gradient() {
    // The worker's per-example gradient and the server's batched gradient
    // are one computation at batch size one (the mean over one example
    // multiplies by exactly 1.0).
    for (name, mut model) in models() {
        let mut server = model.clone();
        let mut grad = vec![f32::NAN; model.param_len()];
        let mut batch_grad = vec![f32::NAN; model.param_len()];
        for (e, (x, label)) in examples(&model).iter().enumerate() {
            let loss = model.example_gradient(&CrossEntropyLoss, x, *label, &mut grad);
            let batch_loss =
                server.batch_gradient_packed(&CrossEntropyLoss, x, &[*label], &mut batch_grad);
            assert_same(&format!("{name}, example {e}"), (loss, &grad), (batch_loss, &batch_grad));
        }
    }
}

#[test]
fn dead_units_and_signed_zero_inputs_are_exercised() {
    // Guards the fixture, not the kernel: the parity test above only covers
    // the `coef == 0` rows if the ELU model really has them.
    let mut rng = StdRng::seed_from_u64(42);
    let mut model = elu_mlp_with_dead_units(&mut rng);
    let (x, label) = examples(&model).remove(2);
    let mut grad = vec![f32::NAN; model.param_len()];
    model.example_gradient(&CrossEntropyLoss, &x, label, &mut grad);
    let (dead_row, live_row) = (&grad[..20], &grad[20..40]);
    assert!(dead_row.iter().all(|g| g.to_bits() == 0), "dead unit's row must be +0.0");
    assert!(live_row.iter().any(|&g| g != 0.0), "unit 1 should be live");
    assert!(live_row.iter().step_by(4).all(|g| g.to_bits() == 0), "-0.0 inputs give +0.0");
}

#[test]
fn batch_gradient_after_example_gradient_matches_fresh_clone() {
    // `example_gradient` leaves the accumulators unspecified; whoever reads
    // them next must not care.
    for (name, mut model) in models() {
        let fresh = model.clone();
        let data = examples(&model);
        let batch: Vec<(&[f32], usize)> = data.iter().map(|(x, l)| (x.as_slice(), *l)).collect();
        let mut scratch = vec![0.0f32; model.param_len()];
        model.example_gradient(&CrossEntropyLoss, &data[0].0, data[0].1, &mut scratch);

        let mut after = vec![0.0f32; model.param_len()];
        let loss = model.batch_gradient(&CrossEntropyLoss, &batch, &mut after);
        let mut clean = vec![0.0f32; model.param_len()];
        let clean_loss = fresh.clone().batch_gradient(&CrossEntropyLoss, &batch, &mut clean);
        assert_eq!(loss.to_bits(), clean_loss.to_bits(), "{name}: mean loss differs");
        for (i, (&a, &b)) in after.iter().zip(&clean).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: gradient scalar {i} differs");
        }
    }
}
