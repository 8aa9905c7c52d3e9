//! Residual block `y = x + body(x)`.
//!
//! The paper's Colorectal network "has a residual connection" (supp. A.1); the
//! body here is an arbitrary stack of layers whose output length equals its
//! input length.

use crate::layer::{AnyLayer, Layer};

/// Residual wrapper around a sequence of inner layers.
#[derive(Debug, Clone)]
pub struct Residual {
    body: Vec<AnyLayer>,
    len: usize,
}

impl Residual {
    /// Builds `y = x + body(x)`. Panics unless the body maps length `len` to
    /// length `len`.
    pub fn new(body: Vec<AnyLayer>) -> Self {
        assert!(!body.is_empty(), "residual body must have at least one layer");
        let len = body.first().expect("non-empty").input_len();
        let out = body.last().expect("non-empty").output_len();
        assert_eq!(len, out, "residual body must preserve the vector length ({len} vs {out})");
        // Interior shape compatibility.
        for pair in body.windows(2) {
            assert_eq!(
                pair[0].output_len(),
                pair[1].input_len(),
                "residual body layers are shape-incompatible"
            );
        }
        Residual { body, len }
    }
}

impl Layer for Residual {
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.len, "Residual: bad batch input length");
        let mut h = input.to_vec();
        for layer in &mut self.body {
            h = layer.forward_batch(&h, batch);
        }
        for (hv, &xv) in h.iter_mut().zip(input) {
            *hv += xv;
        }
        h
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_output.len(), batch * self.len, "Residual: bad batch grad length");
        let mut g = grad_output.to_vec();
        for layer in self.body.iter_mut().rev() {
            g = layer.backward_batch(&g, batch);
        }
        // Skip connection adds the output gradient directly.
        for (gv, &ov) in g.iter_mut().zip(grad_output) {
            *gv += ov;
        }
        g
    }

    fn param_len(&self) -> usize {
        self.body.iter().map(|l| l.param_len()).sum()
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    fn write_params(&self, out: &mut [f32]) {
        let mut off = 0;
        for layer in &self.body {
            let n = layer.param_len();
            layer.write_params(&mut out[off..off + n]);
            off += n;
        }
    }

    fn read_params(&mut self, src: &[f32]) {
        let mut off = 0;
        for layer in &mut self.body {
            let n = layer.param_len();
            layer.read_params(&src[off..off + n]);
            off += n;
        }
    }

    fn write_grads(&self, out: &mut [f32]) {
        let mut off = 0;
        for layer in &self.body {
            let n = layer.param_len();
            layer.write_grads(&mut out[off..off + n]);
            off += n;
        }
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.body {
            layer.zero_grads();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_body_doubles_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(&mut rng, 3, 3);
        // Make the body the identity map.
        let params: Vec<f32> = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        lin.read_params(&params);
        let mut r = Residual::new(vec![lin.into()]);
        let y = r.forward_batch(&[1.0, 2.0, 3.0], 1);
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let body: Vec<AnyLayer> =
            vec![Linear::new(&mut rng, 4, 4).into(), crate::activation::Elu::new(4).into()];
        let mut r = Residual::new(body);
        let x = [0.3f32, -0.4, 0.8, 0.1];
        let loss = |r: &mut Residual, x: &[f32]| -> f64 {
            r.forward_batch(x, 1).iter().map(|&v| (v as f64).powi(2) / 2.0).sum()
        };
        let y = r.forward_batch(&x, 1);
        r.zero_grads();
        r.forward_batch(&x, 1);
        let gi = r.backward_batch(&y, 1);
        let mut params = vec![0.0f32; r.param_len()];
        r.write_params(&mut params);
        let mut grads = vec![0.0f32; r.param_len()];
        r.write_grads(&mut grads);
        let eps = 1e-3f32;
        for i in [0usize, 7, params.len() - 1] {
            let mut p = params.clone();
            p[i] += eps;
            r.read_params(&p);
            let up = loss(&mut r, &x);
            p[i] -= 2.0 * eps;
            r.read_params(&p);
            let down = loss(&mut r, &x);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - grads[i] as f64).abs() < 2e-3, "param {i}: fd={fd} got={}", grads[i]);
        }
        r.read_params(&params);
        for i in 0..4 {
            let mut xp = x;
            xp[i] += eps;
            let up = loss(&mut r, &xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&mut r, &xp);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 2e-3, "input {i}: fd={fd} got={}", gi[i]);
        }
    }

    #[test]
    #[should_panic(expected = "preserve the vector length")]
    fn rejects_shape_changing_body() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = Residual::new(vec![Linear::new(&mut rng, 4, 3).into()]);
    }
}
