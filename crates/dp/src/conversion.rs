//! Converting composed RDP guarantees to `(ε, δ)`-DP.

/// Which RDP → (ε, δ) conversion bound to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConversionRule {
    /// The classical bound `ε = ε_RDP(α) + ln(1/δ)/(α−1)` [Mironov 2017].
    Classic,
    /// The tighter bound used by modern TF Privacy
    /// `ε = ε_RDP(α) + ln((α−1)/α) − (ln δ + ln α)/(α−1)`
    /// [Canonne–Kamath–Steinke 2020].
    #[default]
    Improved,
}

/// `(ε, optimal α)` for a composed RDP curve at failure probability `delta`.
///
/// `orders[i]` must pair with `rdp[i]`; entries with non-finite RDP are
/// skipped. Returns `(f64::INFINITY, 0.0)` when no order yields a finite ε.
pub fn rdp_to_approx_dp(
    orders: &[f64],
    rdp: &[f64],
    delta: f64,
    rule: ConversionRule,
) -> (f64, f64) {
    assert_eq!(orders.len(), rdp.len(), "orders and rdp must align");
    check_delta(delta);
    let mut best = (f64::INFINITY, 0.0);
    for (&alpha, &r) in orders.iter().zip(rdp) {
        if !r.is_finite() || alpha <= 1.0 {
            continue;
        }
        let eps = order_epsilon(alpha, r, delta, rule);
        if eps < best.0 {
            best = (eps, alpha);
        }
    }
    best
}

/// The failure probabilities [`rdp_to_approx_dp`] accepts; panics outside.
pub(crate) fn check_delta(delta: f64) {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
}

/// ε of one order: the composed RDP `r` at order `alpha` converted under
/// `rule`. Non-decreasing in `r` under IEEE rounding: the `r`-free terms are
/// fixed, and a rounded sum or difference, like `max`, never decreases when
/// one operand grows.
pub(crate) fn order_epsilon(alpha: f64, r: f64, delta: f64, rule: ConversionRule) -> f64 {
    match rule {
        ConversionRule::Classic => r + (1.0 / delta).ln() / (alpha - 1.0),
        ConversionRule::Improved => {
            let e = r + ((alpha - 1.0) / alpha).ln() - (delta.ln() + alpha.ln()) / (alpha - 1.0);
            // The CKS bound can dip below zero for very private
            // mechanisms; ε is non-negative by definition.
            e.max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_minimizing_order() {
        // Construct an artificial curve with a clear interior minimum.
        let orders = vec![2.0, 4.0, 8.0, 16.0];
        let rdp = vec![0.1, 0.2, 0.8, 3.0];
        let delta = 1e-5;
        let (eps, alpha) = rdp_to_approx_dp(&orders, &rdp, delta, ConversionRule::Classic);
        // Check optimality by brute force.
        for (&a, &r) in orders.iter().zip(&rdp) {
            let e = r + (1.0 / delta).ln() / (a - 1.0);
            assert!(eps <= e + 1e-12);
        }
        assert!(orders.contains(&alpha));
    }

    #[test]
    fn improved_bound_is_tighter() {
        let orders: Vec<f64> = (2..64).map(|i| i as f64).collect();
        let rdp: Vec<f64> = orders.iter().map(|a| 0.01 * a).collect();
        let delta = 1e-5;
        let (classic, _) = rdp_to_approx_dp(&orders, &rdp, delta, ConversionRule::Classic);
        let (improved, _) = rdp_to_approx_dp(&orders, &rdp, delta, ConversionRule::Improved);
        assert!(improved <= classic, "improved={improved} classic={classic}");
    }

    #[test]
    fn skips_infinite_orders() {
        let orders = vec![2.0, 4.0];
        let rdp = vec![f64::INFINITY, 1.0];
        let (eps, alpha) = rdp_to_approx_dp(&orders, &rdp, 1e-5, ConversionRule::Classic);
        assert!(eps.is_finite());
        assert_eq!(alpha, 4.0);
    }

    #[test]
    fn all_infinite_returns_infinity() {
        let orders = vec![2.0];
        let rdp = vec![f64::INFINITY];
        let (eps, _) = rdp_to_approx_dp(&orders, &rdp, 1e-5, ConversionRule::Improved);
        assert!(eps.is_infinite());
    }

    #[test]
    fn smaller_delta_costs_more_epsilon() {
        let orders: Vec<f64> = (2..32).map(|i| i as f64).collect();
        let rdp: Vec<f64> = orders.iter().map(|a| 0.05 * a).collect();
        let (loose, _) = rdp_to_approx_dp(&orders, &rdp, 1e-3, ConversionRule::Improved);
        let (tight, _) = rdp_to_approx_dp(&orders, &rdp, 1e-9, ConversionRule::Improved);
        assert!(tight > loose);
    }
}
