//! Rényi differential privacy of the Sampled Gaussian Mechanism.
//!
//! Reimplements the accountant the paper obtains from TensorFlow Privacy
//! [Mironov, Talwar, Zhang 2019, "Rényi Differential Privacy of the Sampled
//! Gaussian Mechanism"]. One step of DP-SGD with Poisson sampling rate `q` and
//! noise multiplier `σ` satisfies `(α, ε_SGM(α))`-RDP; `T` steps compose
//! additively; the final `(ε, δ)` guarantee is the minimum over a grid of
//! orders (see [`crate::conversion`]).
//!
//! Both the closed-form integer-order expression and the stable
//! fractional-order series (TF Privacy's `_compute_log_a_frac`) are provided.

use dpbfl_stats::special::{ln_binomial, ln_erfc, log_add_exp, log_sub_exp};

/// Default order grid, matching TensorFlow Privacy's
/// `DEFAULT_RDP_ORDERS`: a few fractional low orders, all integers up to 64,
/// then sparse high orders.
pub fn default_orders() -> Vec<f64> {
    let mut orders = vec![1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5];
    orders.extend((5..=64).map(|i| i as f64));
    orders.extend([128.0, 256.0, 512.0]);
    orders
}

/// RDP ε of one Sampled-Gaussian step at Rényi order `alpha > 1`.
///
/// `q` is the sampling rate, `sigma` the noise multiplier (noise standard
/// deviation divided by ℓ2 sensitivity). Returns `+∞` when the mechanism
/// provides no bound at this order (σ = 0).
pub fn rdp_sampled_gaussian(q: f64, sigma: f64, alpha: f64) -> f64 {
    check_domain(q, alpha);
    if q == 0.0 {
        return 0.0;
    }
    if sigma == 0.0 {
        return f64::INFINITY;
    }
    if (q - 1.0).abs() < 1e-15 {
        // Degenerate to the plain Gaussian mechanism.
        return alpha / (2.0 * sigma * sigma);
    }
    let log_a = if alpha.fract() == 0.0 && alpha <= 256.0 {
        log_a_int(q, sigma, alpha as u64)
    } else {
        log_a_frac(q, sigma, alpha)
    };
    (log_a / (alpha - 1.0)).max(0.0)
}

/// The domain [`rdp_sampled_gaussian`] accepts; panics outside it.
fn check_domain(q: f64, alpha: f64) {
    assert!((0.0..=1.0).contains(&q), "sampling rate must be in [0,1], got {q}");
    assert!(alpha > 1.0, "Rényi order must exceed 1, got {alpha}");
}

/// Whether [`rdp_sampled_gaussian`] takes the closed-form integer sum
/// ([`log_a_int`]) at `(q, alpha)` for every σ ≠ 0.
fn closed_form(q: f64, alpha: f64) -> bool {
    q != 0.0 && (q - 1.0).abs() >= 1e-15 && alpha.fract() == 0.0 && alpha <= 256.0
}

/// One Rényi order of the Sampled Gaussian Mechanism at a fixed sampling
/// rate, with the σ-free part of the integer-order sum built once.
///
/// [`SgmOrder::rdp`] is bit-identical to [`rdp_sampled_gaussian`] at every
/// σ: both sum the same terms in the same order ([`sum_int_terms`]), this
/// one over the σ-free parts ([`int_term_without_sigma`]) it stored. A σ search
/// evaluates the same orders at some 25 values of σ; this pays the three
/// `ln Γ` behind every `ln C(α,k)` once instead of at each of them.
/// Fractional orders, orders above 256 and the degenerate rates `q = 0`,
/// `q = 1` have no stored part and call [`rdp_sampled_gaussian`].
#[derive(Debug)]
pub(crate) struct SgmOrder {
    q: f64,
    alpha: f64,
    /// The σ-free part of term `k`, for `k = 0..=α` (closed form only).
    terms: Vec<f64>,
}

impl SgmOrder {
    /// Order `alpha` at rate `q`; panics exactly where
    /// [`rdp_sampled_gaussian`] does.
    pub(crate) fn new(q: f64, alpha: f64) -> Self {
        check_domain(q, alpha);
        let terms = if closed_form(q, alpha) {
            let af = alpha as u64 as f64;
            (0..=alpha as u64).map(|k| int_term_without_sigma(q, af, k as f64)).collect()
        } else {
            Vec::new()
        };
        SgmOrder { q, alpha, terms }
    }

    /// `rdp_sampled_gaussian(q, sigma, alpha)`, bit for bit.
    pub(crate) fn rdp(&self, sigma: f64) -> f64 {
        if self.terms.is_empty() || sigma == 0.0 {
            return rdp_sampled_gaussian(self.q, sigma, self.alpha);
        }
        (sum_int_terms(self.terms.iter().copied(), sigma) / (self.alpha - 1.0)).max(0.0)
    }
}

/// `log A_α` for integer α:
/// `A_α = Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k exp(k(k−1)/(2σ²))`.
fn log_a_int(q: f64, sigma: f64, alpha: u64) -> f64 {
    let af = alpha as f64;
    sum_int_terms((0..=alpha).map(|k| int_term_without_sigma(q, af, k as f64)), sigma)
}

/// Term `k` of the integer-order sum without its σ part:
/// `(ln C(α,k) + k·ln q) + (α−k)·ln1p(−q)`.
fn int_term_without_sigma(q: f64, af: f64, kf: f64) -> f64 {
    ln_binomial(af, kf) + kf * q.ln() + (af - kf) * (-q).ln_1p()
}

/// `log A_α` from the σ-free part of each term, `k = 0, 1, …` in order:
/// each term is that part plus `k(k−1)/(2σ²)`, accumulated in `k` order.
fn sum_int_terms(without_sigma: impl IntoIterator<Item = f64>, sigma: f64) -> f64 {
    let mut log_a = f64::NEG_INFINITY;
    for (k, term) in without_sigma.into_iter().enumerate() {
        let kf = k as f64;
        log_a = log_add_exp(log_a, term + (kf * kf - kf) / (2.0 * sigma * sigma));
    }
    log_a
}

/// `log A_α` for fractional α via the two-sided series split at
/// `z₀ = σ²·ln(1/q − 1) + 1/2` (TF Privacy `_compute_log_a_frac`).
fn log_a_frac(q: f64, sigma: f64, alpha: f64) -> f64 {
    // Running log|binom(alpha, i)| and its sign.
    let mut log_coef_abs = 0.0f64; // ln|C(α,0)| = 0
    let mut coef_sign = 1.0f64;
    let z0 = sigma * sigma * (1.0 / q - 1.0).ln() + 0.5;

    let mut log_a0 = f64::NEG_INFINITY;
    let mut log_a1 = f64::NEG_INFINITY;
    let sqrt2_sigma = std::f64::consts::SQRT_2 * sigma;

    let mut i = 0u64;
    loop {
        let fi = i as f64;
        let j = alpha - fi;

        let log_t0 = log_coef_abs + fi * q.ln() + j * (1.0 - q).ln();
        let log_t1 = log_coef_abs + j * q.ln() + fi * (1.0 - q).ln();

        let log_e0 = (0.5f64).ln() + ln_erfc((fi - z0) / sqrt2_sigma);
        let log_e1 = (0.5f64).ln() + ln_erfc((z0 - j) / sqrt2_sigma);

        let log_s0 = log_t0 + (fi * fi - fi) / (2.0 * sigma * sigma) + log_e0;
        let log_s1 = log_t1 + (j * j - j) / (2.0 * sigma * sigma) + log_e1;

        if coef_sign > 0.0 {
            log_a0 = log_add_exp(log_a0, log_s0);
            log_a1 = log_add_exp(log_a1, log_s1);
        } else {
            // The alternating tail is strictly dominated by the accumulated
            // head for convergent parameters; clamp defensively otherwise.
            log_a0 = if log_a0 >= log_s0 { log_sub_exp(log_a0, log_s0) } else { f64::NEG_INFINITY };
            log_a1 = if log_a1 >= log_s1 { log_sub_exp(log_a1, log_s1) } else { f64::NEG_INFINITY };
        }

        // Advance the generalized binomial: C(α, i+1) = C(α, i)·(α−i)/(i+1).
        let ratio = (alpha - fi) / (fi + 1.0);
        log_coef_abs += ratio.abs().ln();
        if ratio < 0.0 {
            coef_sign = -coef_sign;
        }

        i += 1;
        if fi > alpha && log_s0.max(log_s1) < -40.0 {
            break;
        }
        if i > 10_000 {
            break; // safety net; parameters this extreme are out of scope
        }
    }
    log_add_exp(log_a0, log_a1)
}

/// RDP of `steps` composed Sampled-Gaussian steps at each order in `orders`.
pub fn compose_rdp(q: f64, sigma: f64, steps: u64, orders: &[f64]) -> Vec<f64> {
    orders.iter().map(|&a| steps as f64 * rdp_sampled_gaussian(q, sigma, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sampling_rate_is_free() {
        assert_eq!(rdp_sampled_gaussian(0.0, 1.0, 2.0), 0.0);
    }

    #[test]
    fn full_sampling_matches_gaussian_mechanism() {
        // q = 1: RDP of the Gaussian mechanism is α/(2σ²).
        for &(sigma, alpha) in &[(1.0, 2.0), (2.0, 10.0), (0.5, 3.0)] {
            let got = rdp_sampled_gaussian(1.0, sigma, alpha);
            let want = alpha / (2.0 * sigma * sigma);
            assert!((got - want).abs() < 1e-12, "σ={sigma} α={alpha}");
        }
    }

    #[test]
    fn integer_and_fractional_paths_agree() {
        // Evaluate the fractional series at integer orders: both formulas
        // compute the same A_α.
        for &(q, sigma) in &[(0.01, 1.0), (0.005, 0.8), (0.1, 2.0)] {
            for &alpha in &[2.0f64, 5.0, 16.0, 32.0] {
                let int_path = (log_a_int(q, sigma, alpha as u64) / (alpha - 1.0)).max(0.0);
                let frac_path = (log_a_frac(q, sigma, alpha) / (alpha - 1.0)).max(0.0);
                let rel = (int_path - frac_path).abs() / int_path.max(1e-300);
                assert!(rel < 1e-6, "q={q} σ={sigma} α={alpha}: int={int_path} frac={frac_path}");
            }
        }
    }

    #[test]
    fn rdp_monotone_in_order_and_noise() {
        let q = 0.01;
        // Increasing α increases ε(α).
        let lo = rdp_sampled_gaussian(q, 1.0, 2.0);
        let hi = rdp_sampled_gaussian(q, 1.0, 32.0);
        assert!(hi > lo);
        // Increasing σ decreases ε(α).
        let noisy = rdp_sampled_gaussian(q, 4.0, 8.0);
        let quiet = rdp_sampled_gaussian(q, 0.5, 8.0);
        assert!(noisy < quiet);
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // ε(α) with q ≪ 1 must be far below the unsampled Gaussian bound.
        let alpha = 8.0;
        let sigma = 1.0;
        let sampled = rdp_sampled_gaussian(0.01, sigma, alpha);
        let full = alpha / (2.0 * sigma * sigma);
        assert!(sampled < full / 10.0, "sampled={sampled} full={full}");
    }

    #[test]
    fn small_q_quadratic_regime() {
        // For small q and moderate σ, ε(α) ≈ q²·α·(exp(1/σ²)... ) — the
        // leading behaviour is q²: halving q should reduce ε by ~4x.
        let alpha = 4.0;
        let sigma = 1.0;
        let e1 = rdp_sampled_gaussian(0.02, sigma, alpha);
        let e2 = rdp_sampled_gaussian(0.01, sigma, alpha);
        let ratio = e1 / e2;
        assert!((3.0..5.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn sigma_zero_gives_infinity() {
        assert!(rdp_sampled_gaussian(0.5, 0.0, 2.0).is_infinite());
    }

    #[test]
    fn hoisted_orders_match_the_one_shot_rdp_bitwise() {
        let orders = [1.25, 2.0, 3.0, 4.5, 17.0, 64.0, 128.0, 256.0, 257.0, 512.0];
        for q in [0.0, 1e-6, 0.005, 16.0 / 3000.0, 0.3, 1.0 - 1e-16, 1.0] {
            for &alpha in &orders {
                let order = SgmOrder::new(q, alpha);
                assert_eq!(order.terms.is_empty(), !closed_form(q, alpha), "q={q} α={alpha}");
                for sigma in [0.0, 1e-9, 1e-4, 0.3, 0.79, 1.0, 7.5, 1e6] {
                    let (got, want) = (order.rdp(sigma), rdp_sampled_gaussian(q, sigma, alpha));
                    assert_eq!(got.to_bits(), want.to_bits(), "q={q} σ={sigma} α={alpha}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "Rényi order must exceed 1, got 1")]
    fn hoisted_orders_refuse_order_one() {
        let _ = SgmOrder::new(0.01, 1.0);
    }

    #[test]
    fn compose_scales_linearly() {
        let orders = [2.0, 8.0, 32.0];
        let one = compose_rdp(0.01, 1.0, 1, &orders);
        let many = compose_rdp(0.01, 1.0, 1000, &orders);
        for (a, b) in one.iter().zip(&many) {
            assert!((b / a - 1000.0).abs() < 1e-6);
        }
    }
}
