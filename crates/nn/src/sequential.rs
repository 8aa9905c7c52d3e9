//! Sequential model with flat parameter/gradient vectors.
//!
//! Federated learning exchanges *flat* `d`-dimensional vectors: the server
//! broadcasts `w ∈ R^d`, workers upload `g ∈ R^d`. `Sequential` provides that
//! interface: [`Sequential::params`] / [`Sequential::set_params`] /
//! [`Sequential::write_grads_into`] flatten every layer in order.

use crate::layer::{AnyLayer, Layer};
use crate::loss::CrossEntropyLoss;

/// A stack of layers applied in order, with flat parameter I/O.
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<AnyLayer>,
    param_len: usize,
}

impl Sequential {
    /// Builds a model from layers, checking shape compatibility between every
    /// consecutive pair.
    pub fn new(layers: Vec<AnyLayer>) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_len(),
                pair[1].input_len(),
                "consecutive layers are shape-incompatible ({} -> {})",
                pair[0].output_len(),
                pair[1].input_len()
            );
        }
        let param_len = layers.iter().map(|l| l.param_len()).sum();
        Sequential { layers, param_len }
    }

    /// Number of trainable parameters `d`.
    #[inline]
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    /// Expected input length.
    pub fn input_len(&self) -> usize {
        self.layers.first().expect("non-empty").input_len()
    }

    /// Output length (number of classes for the paper's classifiers).
    pub fn output_len(&self) -> usize {
        self.layers.last().expect("non-empty").output_len()
    }

    /// Forward pass for one example; caches activations for
    /// [`Sequential::backward`].
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        let mut h = self.layers[0].forward(input);
        for layer in &mut self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }

    /// Backward pass; accumulates per-layer parameter gradients and returns
    /// the input gradient.
    pub fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        let mut g = grad_output.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Batched forward over `batch` examples packed back to back in `inputs`.
    ///
    /// Per-example logits are **bit-identical** to calling
    /// [`Sequential::forward`] once per example (every layer's batched kernel
    /// preserves the per-output accumulation order), so batched evaluation
    /// cannot perturb the determinism contract.
    pub fn forward_batch(&mut self, inputs: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(inputs.len(), batch * self.input_len(), "bad batched input length");
        let mut h = self.layers[0].forward_batch(inputs, batch);
        for layer in &mut self.layers[1..] {
            h = layer.forward_batch(&h, batch);
        }
        h
    }

    /// Batched backward matching the most recent [`Sequential::forward_batch`]:
    /// accumulates parameter gradients (bit-identical to sequential
    /// per-example backward passes) and returns the packed input gradients.
    pub fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_output.len(), batch * self.output_len(), "bad batched gradient length");
        let mut g = grad_output.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_batch(&g, batch);
        }
        g
    }

    /// Class predictions (per-row argmax of the batched logits) for `batch`
    /// packed examples.
    pub fn predict_batch(&mut self, inputs: &[f32], batch: usize) -> Vec<usize> {
        let k = self.output_len();
        let logits = self.forward_batch(inputs, batch);
        logits.chunks_exact(k).map(crate::metrics::argmax).collect()
    }

    /// Flattened copy of all parameters.
    pub fn params(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_len];
        self.write_params_into(&mut out);
        out
    }

    /// Writes flattened parameters into `out` (length `param_len()`).
    pub fn write_params_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.param_len, "bad parameter buffer length");
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_len();
            layer.write_params(&mut out[off..off + n]);
            off += n;
        }
    }

    /// Loads flattened parameters (the server's model broadcast).
    pub fn set_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_len, "bad parameter vector length");
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.param_len();
            layer.read_params(&src[off..off + n]);
            off += n;
        }
    }

    /// Writes flattened accumulated gradients into `out`.
    pub fn write_grads_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.param_len, "bad gradient buffer length");
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_len();
            layer.write_grads(&mut out[off..off + n]);
            off += n;
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Per-example loss and gradient: runs forward + softmax cross-entropy +
    /// backward and writes the flat gradient `∇f(x; w)` into `grad_out`.
    /// Returns the loss.
    ///
    /// This is the exact quantity `g_j ← ∇f(x_j ∈ d_i; w^{t−1})` of
    /// Algorithm 1 line 7, and the protocol's hot path (`b_c` calls per
    /// upload), so it does less than the composition it equals bit for bit
    /// ([`Sequential::zero_grads`] + [`Sequential::forward`] +
    /// [`Sequential::backward`] + [`Sequential::write_grads_into`]): the
    /// first layer is never asked for the input gradient nobody reads, and a
    /// first [`Linear`](crate::linear::Linear) layer writes its gradient
    /// straight into `grad_out`. The layers' gradient accumulators are
    /// therefore **unspecified** afterwards; everything that reads them
    /// zeroes them first.
    pub fn example_gradient(
        &mut self,
        loss_fn: &CrossEntropyLoss,
        x: &[f32],
        label: usize,
        grad_out: &mut [f32],
    ) -> f64 {
        assert_eq!(grad_out.len(), self.param_len, "bad gradient buffer length");
        let logits = self.forward(x);
        let (loss, mut g) = loss_fn.loss_and_grad(&logits, label);
        let (first, rest) = self.layers.split_first_mut().expect("non-empty");
        let mut off = self.param_len;
        for layer in rest.iter_mut().rev() {
            layer.zero_grads();
            g = layer.backward(&g);
            off -= layer.param_len();
            layer.write_grads(&mut grad_out[off..off + layer.param_len()]);
        }
        let first_grads = &mut grad_out[..off];
        match first {
            AnyLayer::Linear(linear) => linear.write_example_grads(&g, first_grads),
            other => {
                other.zero_grads();
                other.backward(&g);
                other.write_grads(first_grads);
            }
        }
        loss
    }

    /// Average gradient over a labelled batch (used by the server on its
    /// auxiliary data, Algorithm 3 line 4: `g_s ← ∇f(D_p; w)`), written into
    /// `grad_out`. Returns the mean loss.
    ///
    /// Packs the examples and delegates to
    /// [`Sequential::batch_gradient_packed`]; callers that already hold a
    /// packed feature matrix (the server does) should call that directly.
    pub fn batch_gradient(
        &mut self,
        loss_fn: &CrossEntropyLoss,
        examples: &[(&[f32], usize)],
        grad_out: &mut [f32],
    ) -> f64 {
        assert!(!examples.is_empty(), "batch_gradient needs at least one example");
        let in_len = self.input_len();
        let mut xs = Vec::with_capacity(examples.len() * in_len);
        let mut labels = Vec::with_capacity(examples.len());
        for &(x, label) in examples {
            assert_eq!(x.len(), in_len, "bad example length");
            xs.extend_from_slice(x);
            labels.push(label);
        }
        self.batch_gradient_packed(loss_fn, &xs, &labels, grad_out)
    }

    /// Average gradient over a packed labelled batch (`xs` holds the examples
    /// back to back): one batched forward, per-example softmax-cross-entropy
    /// gradients, one batched backward.
    ///
    /// Bit-identical to the per-example loop it replaced: the batched logits
    /// match per-example `forward` exactly, and every parameter-gradient
    /// scalar accumulates its per-example contributions in the same
    /// (ascending example) order.
    pub fn batch_gradient_packed(
        &mut self,
        loss_fn: &CrossEntropyLoss,
        xs: &[f32],
        labels: &[usize],
        grad_out: &mut [f32],
    ) -> f64 {
        let batch = labels.len();
        assert!(batch > 0, "batch_gradient needs at least one example");
        assert_eq!(xs.len(), batch * self.input_len(), "features/labels disagree");
        self.zero_grads();
        let logits = self.forward_batch(xs, batch);
        let k = self.output_len();
        let mut grad_logits = vec![0.0f32; batch * k];
        let mut total_loss = 0.0f64;
        for (bi, &label) in labels.iter().enumerate() {
            let (loss, g) = loss_fn.loss_and_grad(&logits[bi * k..(bi + 1) * k], label);
            total_loss += loss;
            grad_logits[bi * k..(bi + 1) * k].copy_from_slice(&g);
        }
        self.backward_batch(&grad_logits, batch);
        self.write_grads_into(grad_out);
        let inv = 1.0 / batch as f32;
        for g in grad_out.iter_mut() {
            *g *= inv;
        }
        total_loss / batch as f64
    }

    /// Class prediction (argmax of logits) for one example.
    pub fn predict(&mut self, x: &[f32]) -> usize {
        let logits = self.forward(x);
        crate::metrics::argmax(&logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Elu;
    use crate::linear::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Linear::new(&mut rng, 6, 5).into(),
            Elu::new(5).into(),
            Linear::new(&mut rng, 5, 3).into(),
        ])
    }

    #[test]
    fn param_roundtrip_through_flat_vector() {
        let mut m = tiny_mlp(0);
        assert_eq!(m.param_len(), 6 * 5 + 5 + 5 * 3 + 3);
        let p = m.params();
        let mut other = tiny_mlp(99);
        assert_ne!(other.params(), p);
        other.set_params(&p);
        assert_eq!(other.params(), p);
        // Identical params → identical predictions.
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
        assert_eq!(m.forward(&x), other.forward(&x));
    }

    #[test]
    #[should_panic(expected = "shape-incompatible")]
    fn rejects_mismatched_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Sequential::new(vec![
            Linear::new(&mut rng, 4, 3).into(),
            Linear::new(&mut rng, 5, 2).into(),
        ]);
    }

    #[test]
    fn example_gradient_matches_finite_differences() {
        let mut m = tiny_mlp(7);
        let loss_fn = CrossEntropyLoss;
        let x: Vec<f32> = vec![0.2, -0.1, 0.5, 0.9, -0.4, 0.3];
        let label = 2usize;
        let mut grad = vec![0.0f32; m.param_len()];
        m.example_gradient(&loss_fn, &x, label, &mut grad);

        let params = m.params();
        let eps = 1e-3f32;
        for i in [0usize, 10, 25, params.len() - 1] {
            let mut p = params.clone();
            p[i] += eps;
            m.set_params(&p);
            let up = {
                let logits = m.forward(&x);
                loss_fn.loss_and_grad(&logits, label).0
            };
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let down = {
                let logits = m.forward(&x);
                loss_fn.loss_and_grad(&logits, label).0
            };
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - grad[i] as f64).abs() < 2e-3, "param {i}: fd={fd} got={}", grad[i]);
        }
    }

    #[test]
    fn batch_gradient_is_mean_of_example_gradients() {
        let mut m = tiny_mlp(13);
        let loss_fn = CrossEntropyLoss;
        let x1: Vec<f32> = vec![0.1; 6];
        let x2: Vec<f32> = vec![-0.3, 0.2, 0.0, 0.5, 0.1, -0.2];
        let mut g1 = vec![0.0f32; m.param_len()];
        let mut g2 = vec![0.0f32; m.param_len()];
        m.example_gradient(&loss_fn, &x1, 0, &mut g1);
        m.example_gradient(&loss_fn, &x2, 1, &mut g2);
        let mut gb = vec![0.0f32; m.param_len()];
        m.batch_gradient(&loss_fn, &[(&x1, 0), (&x2, 1)], &mut gb);
        for i in 0..gb.len() {
            let want = 0.5 * (g1[i] + g2[i]);
            assert!((gb[i] - want).abs() < 1e-5, "coord {i}");
        }
    }
}
