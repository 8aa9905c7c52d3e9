//! Group normalization without affine parameters.
//!
//! The paper's MNIST network uses `GroupNorm(num_groups=4, num_channels=16)`
//! three times; its reported parameter count (`d = 21 802`) is only consistent
//! with the **affine-free** variant, so that is what we implement: each group
//! of `C/G` channels is normalized to zero mean / unit variance over its
//! `(C/G)·H·W` elements, with no learned scale or shift.

use crate::layer::Layer;

/// Affine-free group normalization over `[C, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    groups: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    /// Cached normalized output `y` (needed by backward).
    cached_norm: Vec<f32>,
    /// Cached `1/√(var+eps)` per group.
    cached_inv_std: Vec<f32>,
}

impl GroupNorm {
    /// New layer normalizing `channels` feature maps of `h × w` in `groups`
    /// groups.
    pub fn new(groups: usize, channels: usize, h: usize, w: usize) -> Self {
        assert!(groups > 0 && channels.is_multiple_of(groups), "channels must divide into groups");
        GroupNorm {
            groups,
            channels,
            spatial: h * w,
            eps: 1e-5,
            cached_norm: Vec::new(),
            cached_inv_std: Vec::new(),
        }
    }

    fn group_size(&self) -> usize {
        (self.channels / self.groups) * self.spatial
    }
}

impl Layer for GroupNorm {
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        let n = self.channels * self.spatial;
        assert_eq!(input.len(), batch * n, "GroupNorm: bad batch input length");
        // Each example's groups are contiguous, so the batch is
        // `batch · groups` consecutive groups of `gsize` values.
        let gsize = self.group_size();
        let mut out = vec![0.0f32; batch * n];
        self.cached_inv_std.clear();
        for (chunk, out_chunk) in input.chunks_exact(gsize).zip(out.chunks_exact_mut(gsize)) {
            let mean = chunk.iter().map(|&x| x as f64).sum::<f64>() / gsize as f64;
            let var = chunk.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / gsize as f64;
            let inv_std = 1.0 / (var + self.eps as f64).sqrt();
            self.cached_inv_std.push(inv_std as f32);
            for (o, &x) in out_chunk.iter_mut().zip(chunk) {
                *o = ((x as f64 - mean) * inv_std) as f32;
            }
        }
        self.cached_norm.clear();
        self.cached_norm.extend_from_slice(&out);
        out
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        let n = self.channels * self.spatial;
        assert_eq!(grad_output.len(), batch * n, "GroupNorm: bad batch grad length");
        assert_eq!(
            self.cached_norm.len(),
            batch * n,
            "GroupNorm: backward_batch before forward_batch"
        );
        // Per group: dx = inv_std · (dy − mean(dy) − y · mean(dy ⊙ y)).
        let gsize = self.group_size();
        let mut grad_in = vec![0.0f32; batch * n];
        let groups = self.cached_norm.chunks_exact(gsize).zip(grad_output.chunks_exact(gsize));
        for (((y, dy), gi), &inv_std) in
            groups.zip(grad_in.chunks_exact_mut(gsize)).zip(&self.cached_inv_std)
        {
            let inv_std = inv_std as f64;
            let mean_dy = dy.iter().map(|&v| v as f64).sum::<f64>() / gsize as f64;
            let mean_dy_y =
                dy.iter().zip(y).map(|(&d, &v)| d as f64 * v as f64).sum::<f64>() / gsize as f64;
            for ((o, &d), &v) in gi.iter_mut().zip(dy).zip(y) {
                *o = (inv_std * (d as f64 - mean_dy - v as f64 * mean_dy_y)) as f32;
            }
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        0
    }

    fn input_len(&self) -> usize {
        self.channels * self.spatial
    }

    fn output_len(&self) -> usize {
        self.channels * self.spatial
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
    fn output_is_normalized_per_group() {
        let mut gn = GroupNorm::new(2, 4, 2, 2); // 2 groups × (2ch · 4px) = 8 each
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let out = gn.forward_batch(&input, 1);
        for g in 0..2 {
            let chunk = &out[g * 8..(g + 1) * 8];
            let mean: f32 = chunk.iter().sum::<f32>() / 8.0;
            let var: f32 = chunk.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "group {g} var {var}");
        }
    }

    #[test]
    fn has_no_parameters() {
        let gn = GroupNorm::new(4, 16, 5, 5);
        assert_eq!(gn.param_len(), 0);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut gn = GroupNorm::new(2, 4, 2, 3);
        let x: Vec<f32> = (0..24).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.3).collect();
        // Weighted loss L = Σ w_i y_i with fixed weights, so dL/dy = w.
        let w: Vec<f32> = (0..24).map(|i| ((i % 5) as f32 - 2.0) * 0.5).collect();
        let loss = |gn: &mut GroupNorm, x: &[f32]| -> f64 {
            let y = gn.forward_batch(x, 1);
            y.iter().zip(&w).map(|(&a, &b)| a as f64 * b as f64).sum()
        };
        gn.forward_batch(&x, 1);
        let gi = gn.backward_batch(&w, 1);
        let eps = 1e-3f32;
        for i in [0usize, 5, 11, 17, 23] {
            let mut xp = x.clone();
            xp[i] += eps;
            let up = loss(&mut gn, &xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&mut gn, &xp);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 1e-2, "coord {i}: fd={fd} got={}", gi[i]);
        }
    }

    #[test]
    fn gradient_of_constant_direction_is_zero() {
        // GroupNorm output is invariant to adding a constant to a group, so
        // backward of any dy must produce per-group zero-sum input gradients.
        let mut gn = GroupNorm::new(1, 2, 2, 2);
        let x: Vec<f32> = vec![1.0, 3.0, -2.0, 0.5, 4.0, -1.0, 2.0, 0.0];
        gn.forward_batch(&x, 1);
        let gi = gn.backward_batch(&[1.0, -0.5, 0.25, 2.0, -1.0, 0.0, 0.5, 1.5], 1);
        let sum: f32 = gi.iter().sum();
        assert!(sum.abs() < 1e-4, "per-group gradient sum {sum}");
    }
}
