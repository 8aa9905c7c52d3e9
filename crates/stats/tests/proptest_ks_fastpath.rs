//! The decision-equivalence test campaign for the sort-free KS fast path.
//!
//! Two properties carry the whole contract:
//!
//! 1. The one-pass envelope always brackets the exact sorted statistic:
//!    `L ≤ D_n ≤ U`.
//! 2. The full fast-path decision (screen + sorted fallback) equals the
//!    reference decision `ks_test_gaussian(..).rejects_at(α)` — for benign
//!    Gaussian inputs, shifted means, inflated variances, heavy tails, and
//!    adversarial inputs constructed to land *inside* the critical band so
//!    the fallback branch is genuinely exercised.
//!
//! Sample counts cover the paper's operating points (`n = 25 450` — the MLP
//! dimension — plus 1 000 and the small-`n` exact-CDF regime at 16) and
//! significance levels {0.01, 0.05, 0.10}.

use dpbfl_stats::ks::{ks_p_value, ks_test_gaussian, KsGaussianScreen, KsScratch, KsScreenVerdict};
use dpbfl_stats::normal::{gaussian_vector, Normal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NS: [usize; 3] = [16, 1_000, 25_450];
const ALPHAS: [f64; 3] = [0.01, 0.05, 0.10];
const STD: f64 = 0.05; // the protocol's effective noise std (σ = 0.8, b_c = 16)

/// One input family per `kind`: null Gaussian, shifted mean, inflated
/// variance, heavy-tailed (Laplace with the null's variance).
fn family(kind: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind % 4 {
        0 => gaussian_vector(&mut rng, STD, n),
        1 => {
            let mut v = gaussian_vector(&mut rng, STD, n);
            // 0.15σ shift: around the detection threshold at large n, so
            // both decisions occur across seeds.
            for x in &mut v {
                *x += (0.15 * STD) as f32;
            }
            v
        }
        2 => gaussian_vector(&mut rng, 1.02 * STD, n),
        3 => {
            // Laplace(0, b) with b = σ/√2 has variance σ² but heavier tails.
            let b = STD / std::f64::consts::SQRT_2;
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen_range(-0.5..0.5);
                    let sign = if u < 0.0 { -1.0 } else { 1.0 };
                    (-b * sign * (1.0 - 2.0 * u.abs()).ln()) as f32
                })
                .collect()
        }
        _ => unreachable!(),
    }
}

/// Samples whose exact KS statistic is ≈ `d_target`: a perfect quantile grid
/// squeezed toward the distribution center by `δ` in probability space, so
/// `D_n = 1/(2n) + δ(1 − 1/n)` up to float rounding. Used to park inputs
/// right on the critical value.
fn squeezed_grid(n: usize, d_target: f64) -> Vec<f32> {
    let normal = Normal::new(0.0, STD);
    let delta = (d_target - 0.5 / n as f64) / (1.0 - 1.0 / n as f64);
    assert!(delta > 0.0 && delta < 0.5, "d_target {d_target} not constructible at n={n}");
    (1..=n)
        .map(|k| {
            let p = (k as f64 - 0.5) / n as f64;
            normal.quantile(p * (1.0 - 2.0 * delta) + delta) as f32
        })
        .collect()
}

/// The KS critical statistic at `(n, α)`: the largest `D` whose p-value is
/// still `≥ α`, bisected over `ks_p_value` to float resolution. It sits
/// inside the screen's undecidable band (~1e−9 wide around it).
fn ks_critical(n: usize, alpha: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if ks_p_value(mid, n) >= alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounds_bracket_the_exact_statistic(
        kind in 0usize..4,
        n_idx in 0usize..3,
        alpha_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = NS[n_idx];
        let alpha = ALPHAS[alpha_idx];
        let v = family(kind, n, seed);
        let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
        let mut scratch = KsScratch::new();
        screen.bin_into(&v, &mut scratch.counts);
        let (lo, hi) = screen.bounds(&scratch.counts);
        let exact = ks_test_gaussian(&v, 0.0, STD).statistic;
        prop_assert!(lo <= exact + 1e-12, "kind {kind} n {n}: L={lo} > D={exact}");
        prop_assert!(exact <= hi + 1e-12, "kind {kind} n {n}: D={exact} > U={hi}");
        prop_assert!(lo <= hi + 1e-12);
    }

    #[test]
    fn fast_decision_equals_reference_decision(
        kind in 0usize..4,
        n_idx in 0usize..3,
        alpha_idx in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = NS[n_idx];
        let alpha = ALPHAS[alpha_idx];
        let v = family(kind, n, seed);
        let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
        let mut scratch = KsScratch::new();
        prop_assert_eq!(
            screen.rejects(&v, &mut scratch),
            ks_test_gaussian(&v, 0.0, STD).rejects_at(alpha),
            "kind {} n {} α {} seed {}", kind, n, alpha, seed
        );
    }

    #[test]
    fn critical_band_inputs_agree_with_reference(
        n_idx in 0usize..3,
        alpha_idx in 0usize..3,
        t in -1.0f64..1.0,
    ) {
        // Statistic targets sweeping ±12% around the critical value: some
        // land inside the envelope's undecidable band (fallback), some just
        // outside (screen decides); every one must match the reference.
        let n = NS[n_idx];
        let alpha = ALPHAS[alpha_idx];
        let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
        let v = squeezed_grid(n, ks_critical(n, alpha) * (1.0 + 0.12 * t));
        let mut scratch = KsScratch::new();
        prop_assert_eq!(
            screen.rejects(&v, &mut scratch),
            ks_test_gaussian(&v, 0.0, STD).rejects_at(alpha),
            "n {} α {} t {}", n, alpha, t
        );
    }
}

/// The fallback branch is *provably* exercised: statistic parked exactly on
/// the critical value screens to `Borderline` at every operating point, and
/// the fallback decision still equals the reference.
#[test]
fn exactly_critical_inputs_take_the_sorted_fallback() {
    for &n in &NS {
        for &alpha in &ALPHAS {
            let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
            let v = squeezed_grid(n, ks_critical(n, alpha));
            let mut scratch = KsScratch::new();
            assert_eq!(
                screen.screen(&v, &mut scratch),
                KsScreenVerdict::Borderline,
                "n {n} α {alpha}: critical input decided without sorting?!"
            );
            assert_eq!(
                screen.rejects(&v, &mut scratch),
                ks_test_gaussian(&v, 0.0, STD).rejects_at(alpha),
                "n {n} α {alpha}"
            );
        }
    }
}

/// Inputs far on either side of the critical value never fall back — the
/// whole point of the screen (and the property the benches assert at scale).
#[test]
fn clear_inputs_are_decided_without_sorting() {
    for &n in &[1_000usize, 25_450] {
        let screen = KsGaussianScreen::new(0.0, STD, n, 0.05);
        let critical = ks_critical(n, 0.05);
        let mut scratch = KsScratch::new();
        let clear_accept = squeezed_grid(n, critical * 0.3);
        assert_eq!(screen.screen(&clear_accept, &mut scratch), KsScreenVerdict::Accept, "n {n}");
        let clear_reject = squeezed_grid(n, (critical * 3.0).min(0.4));
        assert_eq!(screen.screen(&clear_reject, &mut scratch), KsScreenVerdict::Reject, "n {n}");
    }
}
