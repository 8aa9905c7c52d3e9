//! First-stage aggregation (paper Algorithm 2, `FirstAGG`).
//!
//! Because every honest upload is noise-dominated (`‖z‖ ≫ ‖g̃‖`, §4.3), the
//! server can treat an upload as a `d`-coordinate sample from `N(0, σ'²)` and
//! test exactly that:
//!
//! 1. **Norm test** — `‖g‖²` must land in the 3-s.t.d. Gaussian approximation
//!    of `σ'²·χ²_d`: `[σ'²d − 3σ'²√(2d), σ'²d + 3σ'²√(2d)]`.
//! 2. **KS test** — the empirical CDF of the coordinates must match
//!    `Φ_{σ'}` at significance 0.05.
//!
//! Failures are zeroed, not dropped: a zero vector contributes nothing to the
//! update but keeps upload indices stable for the second stage's accumulated
//! score list. Anything that *passes* is confined to the Theorem-2 subspace,
//! so its malicious payload `ĝ` is strictly norm-bounded.
//!
//! ## The sort-free hot path
//!
//! [`FirstStage::check`] no longer sorts every upload. One fused pass over
//! the `d` coordinates produces the finiteness/norm accumulator (the exact
//! `vecops::l2_norm_sq` accumulation order, so the norm verdict is
//! bit-identical) **and** the bucket histogram of the
//! [`dpbfl_stats::ks::KsGaussianScreen`]; the screen's
//! `O(d)` envelope on the empirical CDF then decides clearly-accepted and
//! clearly-rejected uploads without sorting, with a mid-scan early exit once
//! the lower bound alone exceeds the critical statistic. Only uploads whose
//! envelope straddles the critical band fall back to the exact test — and
//! even that fallback is sort-light: it counting-sorts from the histogram
//! the fused pass already built (`KsGaussianScreen::exact_from_counts`,
//! bit-identical to the comparison-sorted reference), run through reused
//! per-task buffers ([`KsScratch`]).
//!
//! The public contract is **decision equivalence, not statistic
//! equivalence**: for every upload, `check` returns exactly the same
//! [`FirstStageVerdict`] as [`FirstStage::check_reference`], the retained
//! always-sort implementation (the envelope brackets the exact statistic and
//! decisions are only made outside guarded margins around the critical
//! value; see `dpbfl_stats::ks` for the argument). The equivalence is
//! hammered by `crates/stats/tests/proptest_ks_fastpath.rs`, the unit tests
//! below, and an end-to-end test that re-checks every real upload of a
//! two-stage run against the oracle.

use dpbfl_stats::ks::{ks_test_gaussian, KsGaussianScreen, KsScreenVerdict};
use dpbfl_tensor::vecops;

pub use dpbfl_stats::ks::KsScratch;

/// Why an upload was rejected (or that it passed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstStageVerdict {
    /// Upload is consistent with the DP noise distribution.
    Accepted,
    /// Upload contained NaN or ±∞ — malformed, rejected before any test.
    NonFinite,
    /// `‖g‖` fell outside the norm-test interval.
    NormOutOfRange,
    /// The KS P-value fell below the significance level.
    KsRejected,
}

impl FirstStageVerdict {
    /// True iff the upload passed every test.
    #[inline]
    pub fn is_accepted(self) -> bool {
        self == FirstStageVerdict::Accepted
    }
}

/// A verdict plus how the KS decision was reached — what telemetry records
/// about one first-stage check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckInfo {
    /// What [`FirstStage::check`] would return for the same upload.
    pub verdict: FirstStageVerdict,
    /// True when the KS decision evaluated the exact sorted statistic (the
    /// fast path's borderline fallback, or the always-sort reference path);
    /// false when the bucketed envelope decided alone — or when the check
    /// failed before the KS test ran (`verdict` tells those apart).
    pub ks_exact: bool,
}

/// The first-stage filter, parameterized by the *effective* per-coordinate
/// noise std `σ' = σ/b_c` the server expects on uploads.
#[derive(Debug, Clone)]
pub struct FirstStage {
    noise_std: f64,
    dimension: usize,
    ks_significance: f64,
    norm_lo: f64,
    norm_hi: f64,
    screen: KsGaussianScreen,
}

impl FirstStage {
    /// Builds the filter for model dimension `d`, effective noise std, KS
    /// significance (paper: 0.05) and norm-test width in χ² standard
    /// deviations (paper: 3).
    pub fn new(noise_std: f64, dimension: usize, ks_significance: f64, norm_stds: f64) -> Self {
        assert!(noise_std > 0.0, "first stage requires positive noise (DP must be on)");
        assert!(dimension > 1, "first stage needs a non-trivial dimension");
        let (lo, hi) = norm_interval(noise_std, dimension, norm_stds);
        let screen = KsGaussianScreen::new(0.0, noise_std, dimension, ks_significance);
        FirstStage { noise_std, dimension, ks_significance, norm_lo: lo, norm_hi: hi, screen }
    }

    /// The `[lo, hi]` interval the ℓ2 **norm** (not squared) must fall in.
    pub fn norm_bounds(&self) -> (f64, f64) {
        (self.norm_lo.sqrt(), self.norm_hi.sqrt())
    }

    /// The sort-free KS screen behind the fast path (exposed so benches and
    /// tests can observe fast-path coverage directly).
    pub fn ks_screen(&self) -> &KsGaussianScreen {
        &self.screen
    }

    /// Runs both tests on an upload (sort-free fast path, fresh scratch).
    ///
    /// Returns exactly what [`FirstStage::check_reference`] returns, for
    /// every upload — that equivalence is the fast path's contract. Hot
    /// loops should prefer [`FirstStage::check_with`] and reuse one
    /// [`KsScratch`] per worker/task.
    pub fn check(&self, upload: &[f32]) -> FirstStageVerdict {
        self.check_with(upload, &mut KsScratch::new())
    }

    /// [`FirstStage::check`] with caller-owned scratch buffers.
    ///
    /// One fused pass yields finiteness, `‖g‖²` (same accumulation order as
    /// `vecops::l2_norm_sq`, so the norm verdict is bit-identical to the
    /// reference) and the KS histogram; the screen then decides without
    /// sorting unless the upload lands in the critical band, in which case
    /// the exact sorted test runs in `scratch.sorted`.
    pub fn check_with(&self, upload: &[f32], scratch: &mut KsScratch) -> FirstStageVerdict {
        self.check_with_info(upload, scratch).verdict
    }

    /// [`FirstStage::check_with`] plus how the KS decision was reached —
    /// the telemetry entry point. Same verdicts, same work; the only extra
    /// output is whether the exact fallback ran.
    pub fn check_with_info(&self, upload: &[f32], scratch: &mut KsScratch) -> CheckInfo {
        assert_eq!(upload.len(), self.dimension, "upload has wrong dimension");
        let counts = &mut scratch.counts;
        counts.clear();
        counts.resize(self.screen.slots(), 0);
        let mut norm_sq = 0.0f64;
        for &x in upload {
            norm_sq += (x as f64) * (x as f64);
            counts[self.screen.bucket_of(x)] += 1;
        }
        if !norm_sq.is_finite() {
            return CheckInfo { verdict: FirstStageVerdict::NonFinite, ks_exact: false };
        }
        if norm_sq < self.norm_lo || norm_sq > self.norm_hi {
            return CheckInfo { verdict: FirstStageVerdict::NormOutOfRange, ks_exact: false };
        }
        let (rejected, ks_exact) = match self.screen.decide(counts) {
            KsScreenVerdict::Reject => (true, false),
            KsScreenVerdict::Accept => (false, false),
            KsScreenVerdict::Borderline => {
                // The histogram built above is exactly what the counting-sort
                // exact test needs; its KsResult is bit-identical to the
                // comparison-sorted `ks_test_gaussian_with`.
                let exact = self.screen.exact_from_counts(upload, scratch);
                (exact.rejects_at(self.ks_significance), true)
            }
        };
        let verdict =
            if rejected { FirstStageVerdict::KsRejected } else { FirstStageVerdict::Accepted };
        CheckInfo { verdict, ks_exact }
    }

    /// The retained always-sort implementation — the oracle the fast path is
    /// decision-equivalent to. No run ever takes it: it is kept in-tree so
    /// tests and benches can hold [`FirstStage::check`] to it forever.
    pub fn check_reference(&self, upload: &[f32]) -> FirstStageVerdict {
        self.check_reference_info(upload).verdict
    }

    /// [`FirstStage::check_reference`] plus the telemetry view: the
    /// reference path always sorts, so any check that reaches the KS test
    /// reports `ks_exact = true`.
    pub fn check_reference_info(&self, upload: &[f32]) -> CheckInfo {
        assert_eq!(upload.len(), self.dimension, "upload has wrong dimension");
        let Some(norm_sq) = finite_norm_sq(upload) else {
            return CheckInfo { verdict: FirstStageVerdict::NonFinite, ks_exact: false };
        };
        if norm_sq < self.norm_lo || norm_sq > self.norm_hi {
            return CheckInfo { verdict: FirstStageVerdict::NormOutOfRange, ks_exact: false };
        }
        let ks = ks_test_gaussian(upload, 0.0, self.noise_std);
        let verdict = if ks.rejects_at(self.ks_significance) {
            FirstStageVerdict::KsRejected
        } else {
            FirstStageVerdict::Accepted
        };
        CheckInfo { verdict, ks_exact: true }
    }

    /// Algorithm 2: zeroes `upload` in place when any test fails; returns the
    /// verdict.
    pub fn filter(&self, upload: &mut [f32]) -> FirstStageVerdict {
        let verdict = self.check(upload);
        if !verdict.is_accepted() {
            upload.fill(0.0);
        }
        verdict
    }
}

/// `‖v‖²` in one pass, or `None` if any coordinate is NaN/±∞.
///
/// The accumulator is `f64`, so a non-finite coordinate propagates into the
/// sum; checking the *sum* once replaces a separate `all_finite` scan.
/// (An all-finite `f32` slice cannot overflow an `f64` accumulator:
/// `d · f32::MAX² < f64::MAX` for any realistic `d`.)
fn finite_norm_sq(v: &[f32]) -> Option<f64> {
    let norm_sq = vecops::l2_norm_sq(v);
    norm_sq.is_finite().then_some(norm_sq)
}

/// The norm-test interval on `‖g‖²`:
/// `[σ'²d − k·σ'²√(2d), σ'²d + k·σ'²√(2d)]` (paper footnote 5 with k = 3).
pub fn norm_interval(noise_std: f64, d: usize, k: f64) -> (f64, f64) {
    let var = noise_std * noise_std;
    let center = var * d as f64;
    let spread = k * var * (2.0 * d as f64).sqrt();
    ((center - spread).max(0.0), center + spread)
}

/// Theorem 2: the envelope interval the `k`-th smallest coordinate (1-based)
/// of an accepted upload must occupy, given the KS band `D_KS`.
///
/// `E_u(x) = min(1, Φ(x) + D)` and `E_l(x) = max(0, Φ(x) − D)` bound the
/// empirical CDF, so coordinate `k` lies in `[E_u⁻¹(k/d), E_l⁻¹((k−1)/d)]`
/// (±∞ when the envelope never reaches the level).
pub fn theorem2_envelope(noise_std: f64, d: usize, d_ks: f64, k: usize) -> (f64, f64) {
    assert!(k >= 1 && k <= d, "order statistic index out of range");
    let normal = dpbfl_stats::Normal::new(0.0, noise_std);
    let upper_level = k as f64 / d as f64; // E_u⁻¹(k/d): Φ(x) + D = k/d
    let lower_level = (k as f64 - 1.0) / d as f64; // E_l⁻¹((k−1)/d): Φ(x) − D = (k−1)/d
    let lo = {
        let p = upper_level - d_ks;
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else if p >= 1.0 {
            f64::INFINITY
        } else {
            normal.quantile(p)
        }
    };
    let hi = {
        let p = lower_level + d_ks;
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else if p >= 1.0 {
            f64::INFINITY
        } else {
            normal.quantile(p)
        }
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_stats::normal::gaussian_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const D: usize = 25_450;
    const STD: f64 = 0.05; // σ = 0.8, b_c = 16

    fn stage() -> FirstStage {
        FirstStage::new(STD, D, 0.05, 3.0)
    }

    #[test]
    fn genuine_noise_passes() {
        let s = stage();
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = gaussian_vector(&mut rng, STD, D);
            if !s.check(&v).is_accepted() {
                rejections += 1;
            }
        }
        assert!(rejections <= 4, "rejected {rejections}/20 null uploads");
    }

    #[test]
    fn honest_shaped_upload_passes() {
        // Noise plus a norm-bounded signal (what Algorithm 1 actually
        // uploads): acceptance rate must stay near the null's 95 %.
        let s = stage();
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = gaussian_vector(&mut rng, STD, D);
            // Signal: norm-1 spread over all coordinates, scaled by 1/b_c.
            let per_coord = (1.0 / (D as f64).sqrt() / 16.0) as f32;
            for (i, x) in v.iter_mut().enumerate() {
                *x += if i % 2 == 0 { per_coord } else { -per_coord };
            }
            if !s.check(&v).is_accepted() {
                rejections += 1;
            }
        }
        assert!(rejections <= 4, "rejected {rejections}/20 honest-shaped uploads");
    }

    #[test]
    fn rejects_non_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut v = gaussian_vector(&mut rng, STD, D);
        v[100] = f32::NAN;
        assert_eq!(stage().check(&v), FirstStageVerdict::NonFinite);
        v[100] = f32::INFINITY;
        assert_eq!(stage().check(&v), FirstStageVerdict::NonFinite);
    }

    #[test]
    fn rejects_zero_and_scaled_uploads() {
        let s = stage();
        let zero = vec![0.0f32; D];
        assert_eq!(s.check(&zero), FirstStageVerdict::NormOutOfRange);
        let mut rng = StdRng::seed_from_u64(1);
        // Twice the correct std: both tests fail; norm fires first.
        let big = gaussian_vector(&mut rng, 2.0 * STD, D);
        assert_eq!(s.check(&big), FirstStageVerdict::NormOutOfRange);
        // 10% inflated std: norm test catches (3 s.t.d. band is ±~1.9%).
        let slightly = gaussian_vector(&mut rng, 1.1 * STD, D);
        assert_eq!(s.check(&slightly), FirstStageVerdict::NormOutOfRange);
    }

    #[test]
    fn rejects_right_norm_wrong_shape() {
        // A vector with the correct ℓ2 norm but a two-point coordinate
        // distribution: passes the norm test, dies at the KS test. This is
        // the "A little"-style attack shape.
        let s = stage();
        let norm_target = STD * (D as f64).sqrt();
        let per = (norm_target / (D as f64).sqrt()) as f32;
        let v: Vec<f32> = (0..D).map(|i| if i % 2 == 0 { per } else { -per }).collect();
        assert_eq!(s.check(&v), FirstStageVerdict::KsRejected);
    }

    #[test]
    fn rejects_sparse_spike() {
        // All the mass in a few coordinates (gradient-inversion style
        // payload with the right norm): KS rejects.
        let s = stage();
        let norm_target = STD * (D as f64).sqrt();
        let mut v = vec![0.0f32; D];
        let spike = (norm_target / 10f64.sqrt()) as f32;
        for x in v.iter_mut().take(10) {
            *x = spike;
        }
        assert_eq!(s.check(&v), FirstStageVerdict::KsRejected);
    }

    #[test]
    fn filter_zeroes_rejected_uploads() {
        let s = stage();
        let mut v = vec![1.0f32; D];
        let verdict = s.filter(&mut v);
        assert!(!verdict.is_accepted());
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fast_path_matches_reference_across_verdict_shapes() {
        // The equivalence contract, across inputs hitting all four verdicts,
        // with ONE scratch reused throughout (stale contents must not leak).
        let s = stage();
        let mut scratch = KsScratch::new();
        let mut check_both = |v: &[f32]| {
            let fast = s.check_with(v, &mut scratch);
            let reference = s.check_reference(v);
            assert_eq!(fast, reference);
            assert_eq!(s.check(v), reference); // fresh-scratch variant too
            fast
        };
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Genuine noise (mostly Accepted).
            let v = gaussian_vector(&mut rng, STD, D);
            check_both(&v);
            // Slightly shifted mean: passes the norm gate, KS decides.
            let mut shifted = v.clone();
            for x in &mut shifted {
                *x += 0.008;
            }
            check_both(&shifted);
            // Norm violations and non-finite coordinates.
            let big = gaussian_vector(&mut rng, 2.0 * STD, D);
            assert_eq!(check_both(&big), FirstStageVerdict::NormOutOfRange);
            let mut bad = v.clone();
            bad[1234] = f32::NAN;
            assert_eq!(check_both(&bad), FirstStageVerdict::NonFinite);
        }
        // Right norm, wrong shape: the screen's early-exit Reject branch.
        let norm_target = STD * (D as f64).sqrt();
        let per = (norm_target / (D as f64).sqrt()) as f32;
        let two_point: Vec<f32> = (0..D).map(|i| if i % 2 == 0 { per } else { -per }).collect();
        assert_eq!(check_both(&two_point), FirstStageVerdict::KsRejected);
    }

    #[test]
    fn degenerate_significance_is_tolerated() {
        // ks_significance 0 disables the KS gate (it can never reject) —
        // legal before the screen existed, so it must not panic now, and
        // the decision contract must hold.
        let s = FirstStage::new(STD, 2_048, 0.0, 3.0);
        let mut rng = StdRng::seed_from_u64(2);
        let v = gaussian_vector(&mut rng, STD, 2_048);
        assert_eq!(s.check(&v), s.check_reference(&v));
    }

    #[test]
    fn fast_path_matches_reference_inside_the_critical_band() {
        // Adversarial inputs whose exact statistic lands around the critical
        // value, where only the sorted fallback can decide: the fast path
        // must still agree with the reference verdict-for-verdict.
        let s = stage();
        let normal = dpbfl_stats::Normal::new(0.0, STD);
        let (d_accept, _) = s.ks_screen().critical_band();
        let mut scratch = KsScratch::new();
        let norm_mid = (STD * STD * D as f64).sqrt();
        for i in 0..12 {
            // Squeeze a perfect quantile grid toward the center so the KS
            // statistic is ~d_target, then renormalize onto the norm band's
            // center so only the KS test decides.
            let t = (i as f64 - 5.5) / 50.0; // d_target within ±11% of critical
            let d_target = d_accept * (1.0 + t);
            let delta = (d_target - 0.5 / D as f64) / (1.0 - 1.0 / D as f64);
            let mut v: Vec<f32> = (1..=D)
                .map(|k| {
                    let p = (k as f64 - 0.5) / D as f64;
                    normal.quantile(p * (1.0 - 2.0 * delta) + delta) as f32
                })
                .collect();
            let scale = (norm_mid / vecops::l2_norm_sq(&v).sqrt()) as f32;
            for x in &mut v {
                *x *= scale;
            }
            assert_eq!(
                s.check_with(&v, &mut scratch),
                s.check_reference(&v),
                "band case {i} (d_target {d_target})"
            );
        }
    }

    #[test]
    fn norm_interval_matches_formula() {
        let (lo, hi) = norm_interval(0.05, 10_000, 3.0);
        let var = 0.0025f64;
        assert!((lo - (var * 10_000.0 - 3.0 * var * (20_000f64).sqrt())).abs() < 1e-9);
        assert!((hi - (var * 10_000.0 + 3.0 * var * (20_000f64).sqrt())).abs() < 1e-9);
        // Tiny d: lower bound clamps at zero.
        let (lo2, _) = norm_interval(1.0, 2, 3.0);
        assert_eq!(lo2, 0.0);
    }

    #[test]
    fn theorem2_envelope_brackets_gaussian_order_stats() {
        // For genuine N(0, σ'²) samples, each order statistic must fall in
        // its Theorem-2 interval at the critical D_KS.
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = gaussian_vector(&mut rng, STD, 2_000);
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let d_crit = 1.358 / (2_000f64).sqrt();
        for &k in &[1usize, 500, 1000, 1500, 2000] {
            let (lo, hi) = theorem2_envelope(STD, 2_000, d_crit, k);
            let x = v[k - 1] as f64;
            assert!(lo <= x && x <= hi, "order stat {k} = {x} outside [{lo}, {hi}]");
            assert!(lo < hi);
        }
    }

    #[test]
    fn envelope_tightens_with_smaller_dks() {
        let wide = theorem2_envelope(STD, 1000, 0.1, 500);
        let tight = theorem2_envelope(STD, 1000, 0.01, 500);
        assert!(tight.1 - tight.0 < wide.1 - wide.0);
    }
}
