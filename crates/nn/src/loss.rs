//! Softmax cross-entropy loss.

/// Numerically-stable softmax cross-entropy over logits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    /// Loss value and gradient with respect to the logits for a single
    /// example: `L = −log softmax(logits)[label]`,
    /// `∂L/∂logits = softmax(logits) − onehot(label)`.
    pub fn loss_and_grad(&self, logits: &[f32], label: usize) -> (f64, Vec<f32>) {
        assert!(label < logits.len(), "label {label} out of range for {} logits", logits.len());
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exp: Vec<f64> = logits.iter().map(|&z| ((z - max) as f64).exp()).collect();
        let sum: f64 = exp.iter().sum();
        let log_sum = sum.ln();
        let loss = log_sum - (logits[label] - max) as f64;
        let grad: Vec<f32> = exp
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let p = e / sum;
                (p - if i == label { 1.0 } else { 0.0 }) as f32
            })
            .collect();
        (loss, grad)
    }

    /// Softmax probabilities.
    #[cfg(test)]
    fn softmax(&self, logits: &[f32]) -> Vec<f64> {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exp: Vec<f64> = logits.iter().map(|&z| ((z - max) as f64).exp()).collect();
        let sum: f64 = exp.iter().sum();
        exp.into_iter().map(|e| e / sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let l = CrossEntropyLoss;
        let (loss, grad) = l.loss_and_grad(&[0.0; 4], 1);
        assert!((loss - 4.0f64.ln()).abs() < 1e-12);
        assert!((grad[1] - (-0.75)).abs() < 1e-6);
        for &i in &[0usize, 2, 3] {
            assert!((grad[i] - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let l = CrossEntropyLoss;
        let (loss, _) = l.loss_and_grad(&[10.0, -10.0, -10.0], 0);
        assert!(loss < 1e-6);
        let (bad_loss, _) = l.loss_and_grad(&[10.0, -10.0, -10.0], 1);
        assert!(bad_loss > 19.0);
    }

    #[test]
    fn gradient_sums_to_zero() {
        let l = CrossEntropyLoss;
        let (_, grad) = l.loss_and_grad(&[1.5, -0.3, 0.2, 2.0, -1.0], 3);
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn stable_under_large_logits() {
        let l = CrossEntropyLoss;
        let (loss, grad) = l.loss_and_grad(&[1000.0, 999.0], 0);
        assert!(loss.is_finite() && grad.iter().all(|g| g.is_finite()));
        // L = ln(1 + e^{−1}) ≈ 0.31326168751822286
        assert!((loss - 0.313_261_687_518_222_86).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let l = CrossEntropyLoss;
        let logits = [0.5f32, -1.2, 2.0, 0.1];
        let label = 2;
        let (_, grad) = l.loss_and_grad(&logits, label);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits;
            lp[i] += eps;
            let up = l.loss_and_grad(&lp, label).0;
            lp[i] -= 2.0 * eps;
            let down = l.loss_and_grad(&lp, label).0;
            let fd = (up - down) / (2.0 * eps as f64);
            assert!((fd - grad[i] as f64).abs() < 1e-4, "logit {i}");
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let l = CrossEntropyLoss;
        let p = l.softmax(&[3.0, 1.0, -2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }
}
