//! Fully-connected layer.

use crate::init::kaiming_uniform;
use crate::layer::Layer;
use dpbfl_tensor::matmul::{gemm, gemm_nt, gemm_tn_accumulate, ger, matvec, matvec_transposed};
use rand::Rng;

/// `y = W x + b` with `W: [out × in]` row-major.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
}

impl Linear {
    /// New layer with PyTorch-default initialization.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        let mut weight = vec![0.0f32; out_dim * in_dim];
        kaiming_uniform(rng, in_dim, &mut weight);
        let mut bias = vec![0.0f32; out_dim];
        kaiming_uniform(rng, in_dim, &mut bias);
        Linear {
            in_dim,
            out_dim,
            weight,
            bias,
            grad_weight: vec![0.0; out_dim * in_dim],
            grad_bias: vec![0.0; out_dim],
            cached_input: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Writes into `out` the parameter gradients of the most recent
    /// [`Layer::forward`] input — bit for bit what [`Layer::zero_grads`],
    /// [`Layer::backward`] and [`Layer::write_grads`] produce together —
    /// without touching the accumulators and without computing an input
    /// gradient. Every weight row is `0.0 + dy_i · x`: the accumulator's
    /// zero-fill plus `ger`'s one update (the explicit `0.0 +` turns a `-0.0`
    /// product into `+0.0`, as accumulating does); a row whose `dy_i == 0`
    /// is `+0.0`, the fill that `ger` skips over.
    pub(crate) fn write_example_grads(&self, grad_output: &[f32], out: &mut [f32]) {
        assert_eq!(grad_output.len(), self.out_dim, "Linear: bad grad length");
        assert_eq!(self.cached_input.len(), self.in_dim, "Linear: backward before forward");
        assert_eq!(out.len(), self.param_len(), "Linear: bad gradient buffer length");
        let (weight, bias) = out.split_at_mut(self.weight.len());
        for (row, &coef) in weight.chunks_exact_mut(self.in_dim).zip(grad_output) {
            if coef == 0.0 {
                row.fill(0.0);
            } else {
                for (w, &x) in row.iter_mut().zip(&self.cached_input) {
                    *w = 0.0 + coef * x;
                }
            }
        }
        for (b, &g) in bias.iter_mut().zip(grad_output) {
            *b = 0.0 + g;
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.in_dim, "Linear: bad input length");
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let mut out = self.bias.clone();
        let mut tmp = vec![0.0f32; self.out_dim];
        matvec(&self.weight, input, &mut tmp, self.out_dim, self.in_dim);
        for (o, t) in out.iter_mut().zip(&tmp) {
            *o += t;
        }
        out
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.out_dim, "Linear: bad grad length");
        assert_eq!(self.cached_input.len(), self.in_dim, "Linear: backward before forward");
        // dW += dy ⊗ x, db += dy, dx = Wᵀ dy.
        ger(1.0, grad_output, &self.cached_input, &mut self.grad_weight, self.out_dim, self.in_dim);
        for (gb, &g) in self.grad_bias.iter_mut().zip(grad_output) {
            *gb += g;
        }
        let mut grad_in = vec![0.0f32; self.in_dim];
        matvec_transposed(&self.weight, grad_output, &mut grad_in, self.out_dim, self.in_dim);
        grad_in
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_dim, "Linear: bad batch input length");
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let mut out = vec![0.0f32; batch * self.out_dim];
        // One X·Wᵀ GEMM; adding the bias after the dot is the same
        // `bias + ⟨w_o, x⟩` sum as the per-example path (f32 addition is
        // commutative bit-for-bit).
        gemm_nt(input, &self.weight, &mut out, batch, self.in_dim, self.out_dim);
        for row in out.chunks_exact_mut(self.out_dim) {
            for (o, &b) in row.iter_mut().zip(&self.bias) {
                *o += b;
            }
        }
        out
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_output.len(), batch * self.out_dim, "Linear: bad batch grad length");
        assert_eq!(
            self.cached_input.len(),
            batch * self.in_dim,
            "Linear: backward_batch before forward_batch"
        );
        // dW += dYᵀ X (per-scalar accumulation in example order, like
        // sequential `ger` calls), db += column sums of dY, dX = dY · W.
        gemm_tn_accumulate(
            grad_output,
            &self.cached_input,
            &mut self.grad_weight,
            batch,
            self.out_dim,
            self.in_dim,
        );
        for row in grad_output.chunks_exact(self.out_dim) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(row) {
                *gb += g;
            }
        }
        let mut grad_in = vec![0.0f32; batch * self.in_dim];
        gemm(grad_output, &self.weight, &mut grad_in, batch, self.out_dim, self.in_dim);
        grad_in
    }

    fn param_len(&self) -> usize {
        self.out_dim * self.in_dim + self.out_dim
    }

    fn input_len(&self) -> usize {
        self.in_dim
    }

    fn output_len(&self) -> usize {
        self.out_dim
    }

    fn write_params(&self, out: &mut [f32]) {
        let nw = self.weight.len();
        out[..nw].copy_from_slice(&self.weight);
        out[nw..].copy_from_slice(&self.bias);
    }

    fn read_params(&mut self, src: &[f32]) {
        let nw = self.weight.len();
        self.weight.copy_from_slice(&src[..nw]);
        self.bias.copy_from_slice(&src[nw..]);
    }

    fn write_grads(&self, out: &mut [f32]) {
        let nw = self.grad_weight.len();
        out[..nw].copy_from_slice(&self.grad_weight);
        out[nw..].copy_from_slice(&self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_hand_example() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.read_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]); // W=[[1,2],[3,4]], b=[0.5,-0.5]
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 3, 4);
        assert_eq!(l.param_len(), 16);
        let mut p = vec![0.0f32; 16];
        l.write_params(&mut p);
        let q: Vec<f32> = (0..16).map(|i| i as f32).collect();
        l.read_params(&q);
        let mut p2 = vec![0.0f32; 16];
        l.write_params(&mut p2);
        assert_eq!(p2, q);
        assert_ne!(p, q);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(&mut rng, 4, 3);
        let x = [0.3f32, -0.2, 0.7, 0.1];
        // Scalar loss = Σ y_i² / 2, so dL/dy = y.
        let y = l.forward(&x);
        let gi = l.backward(&y);

        let mut params = vec![0.0f32; l.param_len()];
        l.write_params(&mut params);
        let mut grads = vec![0.0f32; l.param_len()];
        l.write_grads(&mut grads);

        let loss = |l: &mut Linear, x: &[f32]| -> f64 {
            let y = l.forward(x);
            y.iter().map(|&v| (v as f64) * (v as f64) / 2.0).sum()
        };

        let eps = 1e-3f32;
        for i in [0usize, 5, 11, l.param_len() - 1] {
            let mut p = params.clone();
            p[i] += eps;
            l.read_params(&p);
            let up = loss(&mut l, &x);
            p[i] -= 2.0 * eps;
            l.read_params(&p);
            let down = loss(&mut l, &x);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - grads[i] as f64).abs() < 1e-3, "param {i}: fd={fd} got={}", grads[i]);
        }
        l.read_params(&params);
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let up = loss(&mut l, &xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&mut l, &xp);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 1e-3, "input {i}: fd={fd} got={}", gi[i]);
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(&mut rng, 2, 2);
        let x = [1.0f32, 2.0];
        l.forward(&x);
        l.backward(&[1.0, 1.0]);
        let mut g1 = vec![0.0f32; l.param_len()];
        l.write_grads(&mut g1);
        l.forward(&x);
        l.backward(&[1.0, 1.0]);
        let mut g2 = vec![0.0f32; l.param_len()];
        l.write_grads(&mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        l.zero_grads();
        let mut g3 = vec![0.0f32; l.param_len()];
        l.write_grads(&mut g3);
        assert!(g3.iter().all(|&v| v == 0.0));
    }
}
