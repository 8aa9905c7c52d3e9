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

// The integer decide and the pruned exact fallback.
//
// `decide` classifies a histogram by integer compares of the cumulative
// counts against per-boundary limits; `verdict_of_bounds(bounds(..))` is the
// float envelope those limits were derived from, so the two must agree on
// every histogram. `exact_from_counts` evaluates `F` only in the buckets
// that can reach the maximum, and must still return the reference
// `KsResult` bit for bit.

use dpbfl_stats::ks::ks_test_gaussian_with;

/// Significance levels including the degenerate ones the screen tolerates.
const ALL_ALPHAS: [f64; 8] = [0.01, 0.05, 0.10, 0.0, 1e-12, 0.999_999_999, 1.0, 2.0];

/// The screen's bucket layout at `n`: `(x_lo, width, buckets)`, as
/// `KsGaussianScreen::new` lays it out for mean 0 and std `STD`.
fn layout(n: usize) -> (f64, f64, usize) {
    let buckets = n.next_power_of_two().clamp(64, 8192);
    (-5.0 * STD, 10.0 * STD / buckets as f64, buckets)
}

/// Samples aimed at the corners of the bucket map: ±0.0, exact bucket edges
/// and their neighbouring floats, subnormals, tails beyond ±5σ, all mass in
/// one bucket, and the null draw itself.
fn adversarial(kind: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (x_lo, width, buckets) = layout(n);
    let edge = |j: usize| (x_lo + j as f64 * width) as f32;
    let mut v = gaussian_vector(&mut rng, STD, n);
    match kind % 6 {
        0 => {
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
                *x = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        1 => {
            for x in &mut v {
                let e = edge(rng.gen_range(0..=buckets));
                *x = match rng.gen_range(0..3) {
                    0 => e,
                    1 => e.next_up(),
                    _ => e.next_down(),
                };
            }
        }
        2 => {
            for x in v.iter_mut().step_by(2) {
                let bits = rng.gen_range(1u32..0x0080_0000) | (rng.gen_range(0u32..2) << 31);
                *x = f32::from_bits(bits);
            }
        }
        3 => {
            for x in &mut v {
                if rng.gen_range(0..4) == 0 {
                    let sigmas = rng.gen_range(5.0f32..8.0);
                    *x = if rng.gen_range(0..2) == 0 { sigmas } else { -sigmas } * STD as f32;
                }
            }
        }
        4 => {
            let at = edge(rng.gen_range(0..=buckets)).next_up();
            v.iter_mut().for_each(|x| *x = at);
        }
        _ => {}
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integer_decide_matches_the_float_envelope(
        kind in 0usize..10,
        n in 1usize..=25_450,
        alpha_idx in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let alpha = ALL_ALPHAS[alpha_idx];
        let v = if kind < 4 { family(kind, n, seed) } else { adversarial(kind - 4, n, seed) };
        let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
        let mut counts = Vec::new();
        screen.bin_into(&v, &mut counts);
        prop_assert_eq!(
            screen.decide(&counts),
            screen.verdict_of_bounds(screen.bounds(&counts)),
            "kind {} n {} α {} seed {}", kind, n, alpha, seed
        );
    }
}

/// Histograms built count by count so that the cumulative count at one
/// boundary sits on a decision line of the envelope — the reject line on
/// either side of `F(t_k)`, or the line of either accept term — or up to two
/// counts off it, with every other boundary following `F`. These are the
/// counts where an integer limit one off would change the verdict.
#[test]
fn integer_decide_matches_the_float_envelope_on_its_lines() {
    let mut rng = StdRng::seed_from_u64(11);
    for &n in &[1usize, 16, 1_000, 25_450] {
        let (x_lo, width, buckets) = layout(n);
        let normal = Normal::new(0.0, STD);
        let f: Vec<f64> = (0..=buckets).map(|j| normal.cdf(x_lo + j as f64 * width)).collect();
        let mut boundaries = vec![0, 1, buckets / 2, buckets - 1, buckets];
        boundaries.extend((0..12).map(|_| rng.gen_range(0..=buckets)));
        for &alpha in &ALL_ALPHAS {
            let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
            let d = ks_critical(n, alpha);
            for &k in &boundaries {
                let below = if k == 0 { 0.0 } else { f[k - 1] };
                let above = f.get(k + 1).copied().unwrap_or(1.0);
                for line in [f[k] - d, f[k] + d, below + d, above - d] {
                    for off in -2i64..=2 {
                        let target =
                            ((n as f64 * line).round() as i64 + off).clamp(0, n as i64) as u32;
                        // N_j: F's own counts, bent to stay monotone through N_k.
                        let cum: Vec<u32> = (0..=buckets)
                            .map(|j| {
                                let own = (n as f64 * f[j]).round() as u32;
                                match j.cmp(&k) {
                                    std::cmp::Ordering::Less => own.min(target),
                                    std::cmp::Ordering::Equal => target,
                                    std::cmp::Ordering::Greater => own.max(target),
                                }
                            })
                            .collect();
                        let mut counts = vec![cum[0]];
                        counts.extend(cum.windows(2).map(|w| w[1] - w[0]));
                        counts.push(n as u32 - cum[buckets]);
                        assert_eq!(
                            screen.decide(&counts),
                            screen.verdict_of_bounds(screen.bounds(&counts)),
                            "n {n} α {alpha} boundary {k} line {line} off {off}"
                        );
                    }
                }
            }
        }
    }
}

/// Borderline samples for the pruned exact test: a null draw scaled up, the
/// scale bisected until `D_n` sits at the critical value. Every bisection
/// step's `KsResult` must equal the reference's bit for bit.
#[test]
fn pruned_exact_statistic_is_bit_identical_at_the_critical_value() {
    let mut scratch = KsScratch::new();
    let mut sorted = Vec::new();
    let mut borderline = 0;
    for &n in &NS {
        for &alpha in &ALPHAS {
            let screen = KsGaussianScreen::new(0.0, STD, n, alpha);
            let critical = ks_critical(n, alpha);
            for seed in 0..3u64 {
                let base = gaussian_vector(&mut StdRng::seed_from_u64(seed), STD, n);
                let scaled =
                    |s: f64| -> Vec<f32> { base.iter().map(|&x| (x as f64 * s) as f32).collect() };
                let statistic = |v: &[f32]| ks_test_gaussian(v, 0.0, STD).statistic;
                let (mut lo, mut hi) = (1.0f64, 1.0f64);
                if statistic(&scaled(lo)) >= critical {
                    continue; // this draw already rejects unscaled
                }
                while statistic(&scaled(hi)) < critical {
                    hi *= 1.25;
                }
                for _ in 0..40 {
                    let mid = 0.5 * (lo + hi);
                    let v = scaled(mid);
                    screen.bin_into(&v, &mut scratch.counts);
                    if screen.decide(&scratch.counts) == KsScreenVerdict::Borderline {
                        borderline += 1;
                    }
                    let fast = screen.exact_from_counts(&v, &mut scratch);
                    let reference = ks_test_gaussian_with(&v, 0.0, STD, &mut sorted);
                    let at = format!("n {n} α {alpha} seed {seed} scale {mid}");
                    assert_eq!(fast.statistic.to_bits(), reference.statistic.to_bits(), "{at}");
                    assert_eq!(fast.p_value.to_bits(), reference.p_value.to_bits(), "{at}");
                    assert_eq!(fast.n, reference.n, "{at}");
                    if reference.statistic < critical {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
    }
    assert!(borderline > 0, "no bisection step screened to Borderline");
}

/// A NaN sample panics the pruned exact test as it panics the reference's
/// comparison sort — even when the NaN's bucket (the upper tail) is far
/// below the maximum gap and is never sorted.
#[test]
#[should_panic(expected = "NaN in KS samples")]
fn pruned_exact_test_panics_on_nan_in_a_pruned_bucket() {
    let n = 25_450;
    let screen = KsGaussianScreen::new(0.0, STD, n, 0.05);
    // Shifted down by 0.2σ: the largest gap sits near the center, and the
    // upper tail holds the NaN alone, with a bound of about 1/n.
    let mut v = gaussian_vector(&mut StdRng::seed_from_u64(1), STD, n);
    for x in &mut v {
        *x -= (0.2 * STD) as f32;
    }
    v[7] = f32::NAN;
    let mut scratch = KsScratch::new();
    screen.bin_into(&v, &mut scratch.counts);
    screen.exact_from_counts(&v, &mut scratch);
}
