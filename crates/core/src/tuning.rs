//! The paper's hyper-parameter tuning strategy (Theorem 1 and Claim 6).
//!
//! With normalization, the convergence bound's controllable term is
//! `M = 3F(w⁰)/(Tη) + (3Lη/2)·(1 + σ²d/b_c²)`; minimizing over η gives
//! `η* = (1/σ)·√(2F(w⁰)b_c²/(TLd))` when `σ²d/b_c² ≫ 1` — the optimal
//! learning rate is **inversely proportional to σ**. Practically: tune `η_b`
//! once at a base privacy level with noise `σ_b`, then reuse
//! `η = η_b·σ_b/σ` at every other privacy level, collapsing the `(η, C, ε)`
//! grid of vanilla DP-SGD to a single 1-D sweep.

/// Transfers a tuned base learning rate to another noise level:
/// `η = η_b · σ_b / σ`.
pub fn transfer_lr(base_lr: f64, base_sigma: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "the target noise multiplier must be positive");
    base_lr * base_sigma / sigma
}

/// Whether the noise-dominance precondition `σ²d/b_c² ≫ 1` holds (the paper
/// checks this before applying the tuning rule; `threshold` of 10 is a
/// comfortable margin).
pub fn noise_dominates(sigma: f64, d: usize, b_c: usize, threshold: f64) -> bool {
    sigma * sigma * d as f64 / (b_c as f64 * b_c as f64) > threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_inverse_in_sigma() {
        // Paper: η_b = 0.2 at σ_b = 0.79; doubling σ halves η.
        let eta = transfer_lr(0.2, 0.79, 1.58);
        assert!((eta - 0.1).abs() < 1e-12);
        assert!((transfer_lr(0.2, 0.79, 0.79) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn noise_dominance_at_paper_operating_points() {
        // σ = 0.79, d = 25 450, b_c = 16: σ²d/b² ≈ 62 ≫ 1. ✓
        assert!(noise_dominates(0.79, 25_450, 16, 10.0));
        // Large batch (the prior work's regime) destroys dominance.
        assert!(!noise_dominates(0.79, 25_450, 1024, 10.0));
    }
}
