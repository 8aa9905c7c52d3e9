//! 2-D convolution kernels (channels-first layout).
//!
//! The paper's networks use 5×5 valid convolutions with stride 1 (MNIST net,
//! Table 7) and a residual CNN for Colorectal. These kernels implement general
//! stride/valid convolution with forward, input-gradient, and kernel-gradient
//! passes, on `[C, H, W]` row-major buffers. The forward pass is
//! [`conv2d_forward_batch`] (im2col + GEMM, one example at a time, so a
//! single example is a batch of one); the two backward kernels take one
//! example per call.

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl ConvGeometry {
    /// Output height for a valid (no padding) convolution.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h - self.kernel) / self.stride + 1
    }

    /// Output width for a valid (no padding) convolution.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kernel) / self.stride + 1
    }

    /// Input element count `C_in · H · W`.
    #[inline]
    pub fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Output element count `C_out · H_out · W_out`.
    #[inline]
    pub fn output_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    /// Kernel element count `C_out · C_in · K · K`.
    #[inline]
    pub fn kernel_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    fn check(&self) {
        assert!(self.kernel <= self.in_h && self.kernel <= self.in_w, "kernel larger than input");
        assert!(self.stride >= 1, "stride must be at least 1");
    }

    /// Rows of the im2col matrix, `C_in · K²`.
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix, `H_out · W_out`.
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Materializes the im2col matrix of one example: row `(c, ky, kx)` holds the
/// input value each kernel tap sees at every output position `(y, x)`, so the
/// valid convolution becomes one GEMM of the `C_out × C_in·K²` weight matrix
/// against this `C_in·K² × H_out·W_out` matrix.
pub fn im2col(geom: &ConvGeometry, input: &[f32], col: &mut [f32]) {
    geom.check();
    debug_assert_eq!(input.len(), geom.input_len());
    debug_assert_eq!(col.len(), geom.col_rows() * geom.col_cols());

    let (oh, ow, k, s) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
    let (ih, iw) = (geom.in_h, geom.in_w);
    let cols = oh * ow;
    let mut r = 0usize;
    for c in 0..geom.in_channels {
        let in_plane = &input[c * ih * iw..(c + 1) * ih * iw];
        for ky in 0..k {
            for kx in 0..k {
                let dst = &mut col[r * cols..(r + 1) * cols];
                for y in 0..oh {
                    let in_row = &in_plane[(y * s + ky) * iw + kx..];
                    let dst_row = &mut dst[y * ow..(y + 1) * ow];
                    for (x, dv) in dst_row.iter_mut().enumerate() {
                        *dv = in_row[x * s];
                    }
                }
                r += 1;
            }
        }
    }
}

/// Batched forward valid convolution over `batch` examples packed back to back
/// in `input`, via im2col + GEMM into `output` (`batch · output_len()`).
///
/// `output[o, y, x] = bias[o] + Σ_{c,ky,kx} input[c, y·s+ky, x·s+kx] ·
/// weight[o, c, ky, kx]`, summed in ascending `(c, ky, kx)` order with
/// zero weights skipped. Each example is convolved on its own, so its output
/// does not depend on the batch it rides in.
pub fn conv2d_forward_batch(
    geom: &ConvGeometry,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &mut [f32],
    batch: usize,
) {
    geom.check();
    let in_len = geom.input_len();
    let out_len = geom.output_len();
    debug_assert_eq!(input.len(), batch * in_len);
    debug_assert_eq!(weight.len(), geom.kernel_len());
    debug_assert_eq!(bias.len(), geom.out_channels);
    debug_assert_eq!(output.len(), batch * out_len);

    let rows = geom.col_rows();
    let cols = geom.col_cols();
    let mut col = vec![0.0f32; rows * cols];
    for bi in 0..batch {
        let x = &input[bi * in_len..(bi + 1) * in_len];
        let out = &mut output[bi * out_len..(bi + 1) * out_len];
        im2col(geom, x, &mut col);
        for (o, &b) in bias.iter().enumerate() {
            out[o * cols..(o + 1) * cols].fill(b);
        }
        crate::matmul::gemm_accumulate(weight, &col, out, geom.out_channels, rows, cols);
    }
}

/// Input gradient of the valid convolution: scatters `grad_output` back through
/// the kernel. `grad_input` is overwritten.
pub fn conv2d_backward_input(
    geom: &ConvGeometry,
    weight: &[f32],
    grad_output: &[f32],
    grad_input: &mut [f32],
) {
    geom.check();
    debug_assert_eq!(weight.len(), geom.kernel_len());
    debug_assert_eq!(grad_output.len(), geom.output_len());
    debug_assert_eq!(grad_input.len(), geom.input_len());

    grad_input.fill(0.0);
    let (oh, ow, k, s) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
    let (ih, iw) = (geom.in_h, geom.in_w);
    for o in 0..geom.out_channels {
        let go_plane = &grad_output[o * oh * ow..(o + 1) * oh * ow];
        for c in 0..geom.in_channels {
            let gi_plane = &mut grad_input[c * ih * iw..(c + 1) * ih * iw];
            let w_base = (o * geom.in_channels + c) * k * k;
            for ky in 0..k {
                for kx in 0..k {
                    let w = weight[w_base + ky * k + kx];
                    if w == 0.0 {
                        continue;
                    }
                    for y in 0..oh {
                        let gi_row_start = (y * s + ky) * iw + kx;
                        let go_row = &go_plane[y * ow..(y + 1) * ow];
                        for (x, &gv) in go_row.iter().enumerate() {
                            gi_plane[gi_row_start + x * s] += w * gv;
                        }
                    }
                }
            }
        }
    }
}

/// Kernel and bias gradients of the valid convolution, **accumulated** into
/// `grad_weight` / `grad_bias` (callers zero them once per example or batch).
pub fn conv2d_backward_params(
    geom: &ConvGeometry,
    input: &[f32],
    grad_output: &[f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    geom.check();
    debug_assert_eq!(input.len(), geom.input_len());
    debug_assert_eq!(grad_output.len(), geom.output_len());
    debug_assert_eq!(grad_weight.len(), geom.kernel_len());
    debug_assert_eq!(grad_bias.len(), geom.out_channels);

    let (oh, ow, k, s) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
    let (ih, iw) = (geom.in_h, geom.in_w);
    for o in 0..geom.out_channels {
        let go_plane = &grad_output[o * oh * ow..(o + 1) * oh * ow];
        grad_bias[o] += go_plane.iter().sum::<f32>();
        for c in 0..geom.in_channels {
            let in_plane = &input[c * ih * iw..(c + 1) * ih * iw];
            let w_base = (o * geom.in_channels + c) * k * k;
            for ky in 0..k {
                for kx in 0..k {
                    let mut acc = 0.0f32;
                    for y in 0..oh {
                        let in_row = &in_plane[(y * s + ky) * iw + kx..];
                        let go_row = &go_plane[y * ow..(y + 1) * ow];
                        for (x, &gv) in go_row.iter().enumerate() {
                            acc += gv * in_row[x * s];
                        }
                    }
                    grad_weight[w_base + ky * k + kx] += acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct one-example forward convolution, oracle of
    /// [`conv2d_forward_batch`]: the GEMM walks the shared `(c, ky, kx)`
    /// dimension in the same ascending order with the same zero-weight skip, and
    /// the im2col matrix holds exactly the input values read here.
    fn conv2d_forward(
        geom: &ConvGeometry,
        input: &[f32],
        weight: &[f32],
        bias: &[f32],
        output: &mut [f32],
    ) {
        geom.check();
        debug_assert_eq!(input.len(), geom.input_len());
        debug_assert_eq!(weight.len(), geom.kernel_len());
        debug_assert_eq!(bias.len(), geom.out_channels);
        debug_assert_eq!(output.len(), geom.output_len());

        let (oh, ow, k, s) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
        let (ih, iw) = (geom.in_h, geom.in_w);
        for o in 0..geom.out_channels {
            let out_plane = &mut output[o * oh * ow..(o + 1) * oh * ow];
            out_plane.fill(bias[o]);
            for c in 0..geom.in_channels {
                let in_plane = &input[c * ih * iw..(c + 1) * ih * iw];
                let w_base = (o * geom.in_channels + c) * k * k;
                for ky in 0..k {
                    for kx in 0..k {
                        let w = weight[w_base + ky * k + kx];
                        if w == 0.0 {
                            continue;
                        }
                        for y in 0..oh {
                            let in_row = &in_plane[(y * s + ky) * iw + kx..];
                            let out_row = &mut out_plane[y * ow..(y + 1) * ow];
                            for (x, ov) in out_row.iter_mut().enumerate() {
                                *ov += w * in_row[x * s];
                            }
                        }
                    }
                }
            }
        }
    }

    fn small_geom() -> ConvGeometry {
        ConvGeometry { in_channels: 1, out_channels: 1, in_h: 3, in_w: 3, kernel: 2, stride: 1 }
    }

    #[test]
    fn forward_matches_hand_computation() {
        let geom = small_geom();
        let input = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let weight = [1.0, 0.0, 0.0, 1.0]; // identity-ish: x[0,0] + x[1,1]
        let bias = [0.5];
        let mut out = [0.0f32; 4];
        conv2d_forward_batch(&geom, &input, &weight, &bias, &mut out, 1);
        // windows: (1+5), (2+6), (4+8), (5+9) plus bias
        assert_eq!(out, [6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn forward_multi_channel() {
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel: 2,
            stride: 1,
        };
        let input = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let weight = [1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1];
        let bias = [0.0];
        let mut out = [0.0f32; 1];
        conv2d_forward_batch(&geom, &input, &weight, &bias, &mut out, 1);
        assert!((out[0] - (10.0 + 10.0)).abs() < 1e-5);
    }

    #[test]
    fn stride_two_reduces_output() {
        let geom = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel: 2,
            stride: 2,
        };
        assert_eq!(geom.out_h(), 2);
        assert_eq!(geom.out_w(), 2);
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let weight = [1.0, 0.0, 0.0, 0.0];
        let bias = [0.0];
        let mut out = [0.0f32; 4];
        conv2d_forward_batch(&geom, &input, &weight, &bias, &mut out, 1);
        assert_eq!(out, [0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn batched_forward_matches_direct_bitwise() {
        // Multi-channel, stride-2 geometry with pseudo-random data, over a
        // 3-example batch.
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            in_h: 6,
            in_w: 5,
            kernel: 3,
            stride: 2,
        };
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                    ((h % 1000) as f32 / 1000.0) - 0.5
                })
                .collect()
        };
        let batch = 3;
        let input = fill(batch * geom.input_len(), 1);
        let mut weight = fill(geom.kernel_len(), 2);
        weight[4] = 0.0; // exercise the zero-weight skip in both kernels
        let bias = fill(geom.out_channels, 3);

        let mut batched = vec![0.0f32; batch * geom.output_len()];
        conv2d_forward_batch(&geom, &input, &weight, &bias, &mut batched, batch);
        for bi in 0..batch {
            let mut direct = vec![0.0f32; geom.output_len()];
            conv2d_forward(
                &geom,
                &input[bi * geom.input_len()..(bi + 1) * geom.input_len()],
                &weight,
                &bias,
                &mut direct,
            );
            for (j, (&a, &b)) in batched[bi * geom.output_len()..(bi + 1) * geom.output_len()]
                .iter()
                .zip(&direct)
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "example {bi} output {j}");
            }
        }
    }

    /// Finite-difference check of both backward passes on a random-ish setup.
    #[test]
    fn backward_matches_finite_differences() {
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            in_h: 5,
            in_w: 4,
            kernel: 2,
            stride: 1,
        };
        // Deterministic pseudo-random fill.
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                    ((h % 1000) as f32 / 1000.0) - 0.5
                })
                .collect()
        };
        let input = fill(geom.input_len(), 1);
        let weight = fill(geom.kernel_len(), 2);
        let bias = fill(geom.out_channels, 3);

        // Loss = sum of outputs, so grad_output = all ones.
        let loss = |input: &[f32], weight: &[f32], bias: &[f32]| -> f64 {
            let mut out = vec![0.0f32; geom.output_len()];
            conv2d_forward_batch(&geom, input, weight, bias, &mut out, 1);
            out.iter().map(|&v| v as f64).sum()
        };

        let go = vec![1.0f32; geom.output_len()];
        let mut gi = vec![0.0f32; geom.input_len()];
        conv2d_backward_input(&geom, &weight, &go, &mut gi);
        let mut gw = vec![0.0f32; geom.kernel_len()];
        let mut gb = vec![0.0f32; geom.out_channels];
        conv2d_backward_params(&geom, &input, &go, &mut gw, &mut gb);

        let eps = 1e-3f32;
        // Spot-check a handful of coordinates of each gradient.
        for &i in &[0usize, 7, geom.input_len() - 1] {
            let mut ip = input.clone();
            ip[i] += eps;
            let mut im = input.clone();
            im[i] -= eps;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 1e-2, "input grad {i}: fd={fd} got={}", gi[i]);
        }
        for &i in &[0usize, 5, geom.kernel_len() - 1] {
            let mut wp = weight.clone();
            wp[i] += eps;
            let mut wm = weight.clone();
            wm[i] -= eps;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps as f64);
            assert!((fd - gw[i] as f64).abs() < 1e-1, "weight grad {i}: fd={fd} got={}", gw[i]);
        }
        for i in 0..geom.out_channels {
            let mut bp = bias.clone();
            bp[i] += eps;
            let mut bm = bias.clone();
            bm[i] -= eps;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps as f64);
            assert!((fd - gb[i] as f64).abs() < 1e-2, "bias grad {i}: fd={fd} got={}", gb[i]);
        }
    }
}
