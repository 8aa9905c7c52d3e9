//! Convolution layer wrapping the `dpbfl-tensor` kernels.

use crate::init::kaiming_uniform;
use crate::layer::Layer;
use dpbfl_tensor::conv::{
    conv2d_backward_input, conv2d_backward_params, conv2d_forward, conv2d_forward_batch,
    ConvGeometry,
};
use rand::Rng;

/// Valid (no padding) 2-D convolution over `[C, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: ConvGeometry,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
}

impl Conv2d {
    /// New layer for the given geometry, PyTorch-default initialization.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, geom: ConvGeometry) -> Self {
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let mut weight = vec![0.0f32; geom.kernel_len()];
        kaiming_uniform(rng, fan_in, &mut weight);
        let mut bias = vec![0.0f32; geom.out_channels];
        kaiming_uniform(rng, fan_in, &mut bias);
        Conv2d {
            geom,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
            cached_input: Vec::new(),
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.geom.input_len(), "Conv2d: bad input length");
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let mut out = vec![0.0f32; self.geom.output_len()];
        conv2d_forward(&self.geom, input, &self.weight, &self.bias, &mut out);
        out
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.geom.output_len(), "Conv2d: bad grad length");
        assert_eq!(self.cached_input.len(), self.geom.input_len(), "backward before forward");
        conv2d_backward_params(
            &self.geom,
            &self.cached_input,
            grad_output,
            &mut self.grad_weight,
            &mut self.grad_bias,
        );
        let mut grad_in = vec![0.0f32; self.geom.input_len()];
        conv2d_backward_input(&self.geom, &self.weight, grad_output, &mut grad_in);
        grad_in
    }

    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.geom.input_len(), "Conv2d: bad batch input length");
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let mut out = vec![0.0f32; batch * self.geom.output_len()];
        conv2d_forward_batch(&self.geom, input, &self.weight, &self.bias, &mut out, batch);
        out
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        let (in_len, out_len) = (self.geom.input_len(), self.geom.output_len());
        assert_eq!(grad_output.len(), batch * out_len, "Conv2d: bad batch grad length");
        assert_eq!(
            self.cached_input.len(),
            batch * in_len,
            "Conv2d: backward_batch before forward_batch"
        );
        let mut grad_in = vec![0.0f32; batch * in_len];
        for bi in 0..batch {
            conv2d_backward_params(
                &self.geom,
                &self.cached_input[bi * in_len..(bi + 1) * in_len],
                &grad_output[bi * out_len..(bi + 1) * out_len],
                &mut self.grad_weight,
                &mut self.grad_bias,
            );
            conv2d_backward_input(
                &self.geom,
                &self.weight,
                &grad_output[bi * out_len..(bi + 1) * out_len],
                &mut grad_in[bi * in_len..(bi + 1) * in_len],
            );
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn input_len(&self) -> usize {
        self.geom.input_len()
    }

    fn output_len(&self) -> usize {
        self.geom.output_len()
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

    fn geom() -> ConvGeometry {
        ConvGeometry { in_channels: 2, out_channels: 3, in_h: 6, in_w: 5, kernel: 3, stride: 1 }
    }

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::new(&mut rng, geom());
        assert_eq!(c.param_len(), 3 * 2 * 9 + 3);
        assert_eq!(c.input_len(), 2 * 6 * 5);
        assert_eq!(c.output_len(), 3 * 4 * 3);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(&mut rng, geom());
        let x: Vec<f32> = (0..c.input_len()).map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.1).collect();

        let y = c.forward(&x);
        let gi = c.backward(&y); // loss = Σ y²/2

        let mut params = vec![0.0f32; c.param_len()];
        c.write_params(&mut params);
        let mut grads = vec![0.0f32; c.param_len()];
        c.write_grads(&mut grads);

        let loss = |c: &mut Conv2d, x: &[f32]| -> f64 {
            let y = c.forward(x);
            y.iter().map(|&v| (v as f64) * (v as f64) / 2.0).sum()
        };
        let eps = 1e-3f32;
        for i in [0usize, 17, 33, c.param_len() - 1] {
            let mut p = params.clone();
            p[i] += eps;
            c.read_params(&p);
            let up = loss(&mut c, &x);
            p[i] -= 2.0 * eps;
            c.read_params(&p);
            let down = loss(&mut c, &x);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - grads[i] as f64).abs() < 2e-3, "param {i}: fd={fd} got={}", grads[i]);
        }
        c.read_params(&params);
        for i in [0usize, 13, x.len() - 1] {
            let mut xp = x.clone();
            xp[i] += eps;
            let up = loss(&mut c, &xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&mut c, &xp);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 2e-3, "input {i}: fd={fd} got={}", gi[i]);
        }
    }
}
