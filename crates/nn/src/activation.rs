//! Element-wise activation: ELU, the paper's choice.

use crate::layer::Layer;

/// Exponential linear unit `y = x` for `x > 0`, `α(eˣ − 1)` otherwise.
#[derive(Debug, Clone)]
pub struct Elu {
    len: usize,
    alpha: f32,
    cached_output: Vec<f32>,
    cached_sign: Vec<bool>,
}

impl Elu {
    /// ELU over vectors of length `len` with `α = 1` (PyTorch default).
    pub fn new(len: usize) -> Self {
        Elu { len, alpha: 1.0, cached_output: Vec::new(), cached_sign: Vec::new() }
    }
}

impl Layer for Elu {
    fn forward_batch(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.len, "Elu: bad input length");
        // Element-wise, so the batch is one flat vectorized pass.
        self.cached_sign.clear();
        let out: Vec<f32> = input
            .iter()
            .map(|&x| {
                let positive = x > 0.0;
                self.cached_sign.push(positive);
                if positive {
                    x
                } else {
                    self.alpha * (x.exp() - 1.0)
                }
            })
            .collect();
        self.cached_output.clear();
        self.cached_output.extend_from_slice(&out);
        out
    }

    fn backward_batch(&mut self, grad_output: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_output.len(), batch * self.len, "Elu: bad grad length");
        assert_eq!(self.cached_output.len(), batch * self.len, "backward before forward");
        // d/dx = 1 for x > 0, else y + α (since y = α(eˣ−1) ⇒ α eˣ = y + α).
        grad_output
            .iter()
            .zip(&self.cached_output)
            .zip(&self.cached_sign)
            .map(|((&g, &y), &pos)| if pos { g } else { g * (y + self.alpha) })
            .collect()
    }

    fn param_len(&self) -> usize {
        0
    }
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
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
    fn elu_forward_values() {
        let mut e = Elu::new(3);
        let y = e.forward_batch(&[1.5, 0.0, -1.0], 1);
        assert_eq!(y[0], 1.5);
        assert_eq!(y[1], ((0.0f32).exp() - 1.0)); // 0 is "not positive": α(e⁰−1)=0
        assert!((y[2] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn elu_backward_finite_difference() {
        let mut e = Elu::new(4);
        let x = [0.5f32, -0.5, 2.0, -2.0];
        let loss = |e: &mut Elu, x: &[f32]| -> f64 {
            e.forward_batch(x, 1).iter().map(|&v| (v as f64).powi(2) / 2.0).sum()
        };
        let y = e.forward_batch(&x, 1);
        let gi = e.backward_batch(&y, 1);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x;
            xp[i] += eps;
            let up = loss(&mut e, &xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&mut e, &xp);
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - gi[i] as f64).abs() < 1e-3, "coord {i}");
        }
    }
}
