//! Adaptive average pooling layer (wraps the `dpbfl-tensor` kernels).

use crate::layer::Layer;
use dpbfl_tensor::pool::{adaptive_avg_pool2d_backward, adaptive_avg_pool2d_forward};

/// `AdaptiveAvgPool2d((out_h, out_w))` over `[C, H, W]` inputs — the paper's
/// MNIST network pools its final 16×16 feature maps to 4×4.
#[derive(Debug, Clone)]
pub struct AdaptiveAvgPool2d {
    channels: usize,
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
}

impl AdaptiveAvgPool2d {
    /// New pooling layer for the given geometry.
    pub fn new(channels: usize, in_h: usize, in_w: usize, out_h: usize, out_w: usize) -> Self {
        assert!(out_h <= in_h && out_w <= in_w, "adaptive pool cannot upsample");
        AdaptiveAvgPool2d { channels, in_h, in_w, out_h, out_w }
    }
}

impl Layer for AdaptiveAvgPool2d {
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        let (in_len, out_len) = (self.input_len(), self.output_len());
        assert_eq!(input.len(), batch * in_len, "Pool: bad batch input length");
        // Pooling is stateless and linear: one kernel call per example into a
        // shared output buffer.
        let mut out = vec![0.0f32; batch * out_len];
        for bi in 0..batch {
            adaptive_avg_pool2d_forward(
                self.channels,
                self.in_h,
                self.in_w,
                self.out_h,
                self.out_w,
                &input[bi * in_len..(bi + 1) * in_len],
                &mut out[bi * out_len..(bi + 1) * out_len],
            );
        }
        out
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        let (in_len, out_len) = (self.input_len(), self.output_len());
        assert_eq!(grad_output.len(), batch * out_len, "Pool: bad batch grad length");
        let mut grad_in = vec![0.0f32; batch * in_len];
        for bi in 0..batch {
            adaptive_avg_pool2d_backward(
                self.channels,
                self.in_h,
                self.in_w,
                self.out_h,
                self.out_w,
                &grad_output[bi * out_len..(bi + 1) * out_len],
                &mut grad_in[bi * in_len..(bi + 1) * in_len],
            );
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        0
    }
    fn input_len(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }
    fn output_len(&self) -> usize {
        self.channels * self.out_h * self.out_w
    }
    fn write_params(&self, _out: &mut [f32]) {}
    fn read_params(&mut self, _src: &[f32]) {}
    fn write_grads(&self, _out: &mut [f32]) {}
    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_shapes() {
        let mut p = AdaptiveAvgPool2d::new(16, 16, 16, 4, 4);
        assert_eq!(p.input_len(), 16 * 256);
        assert_eq!(p.output_len(), 16 * 16);
        let x = vec![1.0f32; p.input_len()];
        let y = p.forward_batch(&x, 1);
        assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let g = p.backward_batch(&y, 1);
        assert_eq!(g.len(), p.input_len());
    }
}
