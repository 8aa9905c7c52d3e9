//! Batch-size invariance of the one forward/backward path.
//!
//! Every layer has one batched forward and one batched backward, and a
//! single example is a batch of one. The contract that lets the worker's
//! per-example gradients, `nn::accuracy`, the server's auxiliary gradient and
//! the FLTrust trust gradient share that path without touching the
//! simulation's determinism: every logit, prediction, input gradient and
//! accumulated gradient scalar of a `B`-example batch is **bit-identical** to
//! running its examples one at a time as batches of one. These tests pin that
//! promise for every `zoo` architecture.

use dpbfl_nn::{zoo, CrossEntropyLoss, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random batch: `batch` examples of length `len` in
/// roughly [-0.5, 0.5], salted so different tensors differ.
fn fill(batch: usize, len: usize, salt: u32) -> Vec<f32> {
    (0..batch * len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            ((h % 1000) as f32 / 1000.0) - 0.5
        })
        .collect()
}

/// Every zoo model with its name (for failure messages).
fn zoo_models() -> Vec<(&'static str, Sequential)> {
    let mut rng = StdRng::seed_from_u64(42);
    vec![
        ("mlp_784", zoo::mlp_784(&mut rng)),
        ("mnist_cnn", zoo::mnist_cnn(&mut rng)),
        ("colorectal_cnn", zoo::colorectal_cnn(&mut rng)),
        ("small_mlp", zoo::mlp(&mut rng, 24, 8, 4)),
    ]
}

/// Asserts two float slices are equal bit for bit.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length differs");
    for (j, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} [{j}]: batched {a} vs batch of one {b}");
    }
}

#[test]
fn forward_batch_logits_bit_identical_for_every_zoo_model() {
    // Batch of 13: exercises the 8-row interleaved dot lanes and the
    // remainder rows of every dense layer's output.
    let batch = 13usize;
    for (name, mut model) in zoo_models() {
        let (in_len, k) = (model.input_len(), model.output_len());
        let xs = fill(batch, in_len, 7);
        let batched = model.forward_batch(&xs, batch);
        assert_eq!(batched.len(), batch * k, "{name}: bad batched logit count");
        for bi in 0..batch {
            let single = model.forward_batch(&xs[bi * in_len..(bi + 1) * in_len], 1);
            assert_bits(&batched[bi * k..(bi + 1) * k], &single, &format!("{name}: logits {bi}"));
        }
    }
}

#[test]
fn predict_batch_matches_per_example_predict() {
    let batch = 6usize;
    for (name, mut model) in zoo_models() {
        let in_len = model.input_len();
        let xs = fill(batch, in_len, 11);
        let batched = model.predict_batch(&xs, batch);
        for bi in 0..batch {
            let single = model.predict_batch(&xs[bi * in_len..(bi + 1) * in_len], 1);
            assert_eq!(batched[bi], single[0], "{name}: prediction {bi} differs");
        }
    }
}

#[test]
fn accuracy_is_bit_identical_to_per_example_evaluation() {
    // 131 examples: spans two full 64-wide eval batches plus a remainder.
    let count = 131usize;
    for (name, mut model) in zoo_models() {
        let (in_len, k) = (model.input_len(), model.output_len());
        let features = fill(count, in_len, 13);
        let labels: Vec<usize> = (0..count).map(|i| (i * 7) % k).collect();
        let batched = dpbfl_nn::accuracy(&mut model, &features, &labels);
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(i, &label)| {
                model.predict_batch(&features[i * in_len..(i + 1) * in_len], 1) == [label]
            })
            .count();
        let reference = correct as f64 / count as f64;
        assert_eq!(batched.to_bits(), reference.to_bits(), "{name}: accuracy differs");
    }
}

#[test]
fn batch_gradient_bit_identical_to_per_example_loop() {
    // The server-gradient path (two-stage Algorithm 3 line 4 and the FLTrust
    // trust gradient): one batched backward accumulates every gradient
    // scalar's per-example contributions in ascending example order, exactly
    // as one backward per example does.
    let batch = 5usize;
    let loss_fn = CrossEntropyLoss;
    for (name, mut model) in zoo_models() {
        let (in_len, k) = (model.input_len(), model.output_len());
        let xs = fill(batch, in_len, 17);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 3) % k).collect();

        let mut reference = model.clone();
        reference.zero_grads();
        let mut ref_loss = 0.0f64;
        for (bi, &label) in labels.iter().enumerate() {
            let logits = reference.forward_batch(&xs[bi * in_len..(bi + 1) * in_len], 1);
            let (loss, grad_logits) = loss_fn.loss_and_grad(&logits, label);
            ref_loss += loss;
            reference.backward_batch(&grad_logits, 1);
        }
        let mut ref_grad = vec![0.0f32; reference.param_len()];
        reference.write_grads_into(&mut ref_grad);
        let inv = 1.0 / batch as f32;
        for g in ref_grad.iter_mut() {
            *g *= inv;
        }
        ref_loss /= batch as f64;

        let mut grad = vec![0.0f32; model.param_len()];
        let loss = model.batch_gradient_packed(&loss_fn, &xs, &labels, &mut grad);
        assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{name}: mean loss differs");
        assert_bits(&grad, &ref_grad, &format!("{name}: gradient"));
    }
}

#[test]
fn backward_batch_input_gradients_match_per_example() {
    let batch = 3usize;
    let loss_fn = CrossEntropyLoss;
    for (name, mut model) in zoo_models() {
        let (in_len, k) = (model.input_len(), model.output_len());
        let xs = fill(batch, in_len, 23);
        let labels: Vec<usize> = (0..batch).map(|i| i % k).collect();

        model.zero_grads();
        let logits = model.forward_batch(&xs, batch);
        let mut grad_logits = vec![0.0f32; batch * k];
        for bi in 0..batch {
            let (_, g) = loss_fn.loss_and_grad(&logits[bi * k..(bi + 1) * k], labels[bi]);
            grad_logits[bi * k..(bi + 1) * k].copy_from_slice(&g);
        }
        let batched_gin = model.backward_batch(&grad_logits, batch);

        for bi in 0..batch {
            let mut single = model.clone();
            single.zero_grads();
            let l = single.forward_batch(&xs[bi * in_len..(bi + 1) * in_len], 1);
            let (_, g) = loss_fn.loss_and_grad(&l, labels[bi]);
            let gin = single.backward_batch(&g, 1);
            let what = format!("{name}: input gradient {bi}");
            assert_bits(&batched_gin[bi * in_len..(bi + 1) * in_len], &gin, &what);
        }
    }
}
