//! Property-based tests for the statistical substrate.

use dpbfl_stats::kolmogorov::{kolmogorov_cdf, kolmogorov_sf};
use dpbfl_stats::ks::{ks_p_value, ks_test};
use dpbfl_stats::normal::Normal;
use dpbfl_stats::special::ln_gamma;
use proptest::prelude::*;

proptest! {
    #[test]
    fn ks_statistic_is_in_unit_interval(
        samples in prop::collection::vec(0.0f64..1.0, 1..100)
    ) {
        let r = ks_test(&samples, |x| x.clamp(0.0, 1.0));
        prop_assert!((0.0..=1.0).contains(&r.statistic));
        prop_assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn ks_statistic_is_permutation_invariant(
        mut samples in prop::collection::vec(-5.0f64..5.0, 2..50)
    ) {
        let n = Normal::STANDARD;
        let r1 = ks_test(&samples, |x| n.cdf(x));
        samples.reverse();
        let mid = samples.len() / 2;
        samples.swap(0, mid);
        let r2 = ks_test(&samples, |x| n.cdf(x));
        prop_assert!((r1.statistic - r2.statistic).abs() < 1e-12);
    }

    #[test]
    fn ks_p_value_monotone_in_statistic(d1 in 0.01f64..0.5, d2 in 0.01f64..0.5, n in 5usize..500) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(ks_p_value(lo, n) >= ks_p_value(hi, n) - 1e-12);
    }

    #[test]
    fn kolmogorov_cdf_sf_are_complementary_and_monotone(a in 0.05f64..3.0, b in 0.05f64..3.0) {
        prop_assert!((kolmogorov_cdf(a) + kolmogorov_sf(a) - 1.0).abs() < 1e-9);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(kolmogorov_cdf(lo) <= kolmogorov_cdf(hi) + 1e-12);
    }

    #[test]
    fn normal_quantile_inverts_cdf(mean in -10.0f64..10.0, std in 0.1f64..10.0, p in 0.001f64..0.999) {
        let n = Normal::new(mean, std);
        prop_assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_is_monotone(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let n = Normal::new(0.0, 2.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(n.cdf(lo) <= n.cdf(hi) + 1e-15);
    }

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.1f64..50.0) {
        // Γ(x+1) = x·Γ(x)  ⇒  lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }
}
