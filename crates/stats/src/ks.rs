//! One-sample Kolmogorov–Smirnov test, plus a sort-free decision screen.
//!
//! The server runs this test on every upload (paper §4.3, "KS test"): each of
//! the `d` coordinates is treated as a sample, the null hypothesis is that they
//! are drawn from `N(0, σ'²)`, and uploads whose P-value falls below the
//! significance level (0.05 in the paper) are rejected.
//!
//! ## The sort-free fast path
//!
//! Computing the exact statistic `D_n` costs a full `O(d log d)` sort per
//! upload — the dominant server-side cost at `d ≈ 25 450`. But the defense
//! only consumes the accept/reject *decision*, not `D_n` itself, and the
//! decision is a threshold test: reject iff `p(D_n) < α`. [`KsGaussianScreen`]
//! therefore brackets `D_n` from both sides in one `O(d)` pass:
//!
//! 1. The real line is cut into `B` equal-width buckets spanning `μ ± 5σ`
//!    (plus two open tail buckets); one pass counts samples per bucket.
//! 2. At every bucket boundary `t_j` the empirical CDF is known *exactly*
//!    from the cumulative counts (`N_j/n` with `N_j = #{x < t_j}`), so
//!    `L = max_j |N_j/n − F(t_j)|` is a lower bound on `D_n`.
//! 3. Inside a bucket `[t_j, t_{j+1})` both CDFs are monotone, so
//!    `U = max_j max(N_{j+1}/n − F(t_j), F(t_{j+1}) − N_j/n)` (with the two
//!    tail intervals handled against 0 and 1) is an upper bound.
//!
//! `L ≤ D_n ≤ U`, with `U − L` on the order of the largest per-bucket
//! probability mass — far narrower than the distance of a typical upload's
//! `D_n` from the critical value. The screen compares the bounds against two
//! pre-verified statistic thresholds and answers `Accept`, `Reject`, or
//! `Borderline`; only borderline uploads (the critical band) fall back to the
//! exact sorted test.
//!
//! ### Why the decisions are bit-identical to the sorted test
//!
//! The contract is *decision* equivalence, not statistic equivalence. The
//! screen never decides from an approximation of `p(D_n)`; it decides only
//! when the decision is provably forced:
//!
//! * At construction, bisection finds `d_accept ≤ d_reject` such that
//!   `ks_p_value(d_accept, n) ≥ α + 2ε_p` and `ks_p_value(d_reject, n) <
//!   α − 2ε_p` hold **by direct evaluation** (no monotonicity of the
//!   implementation is assumed; the inequalities are re-checked on the
//!   returned values).
//! * `Reject` is answered only when `L − ε_s ≥ d_reject`: then
//!   `D_n ≥ d_reject`, so the true (mathematically monotone) p-value
//!   satisfies `p(D_n) ≤ p(d_reject) < α − ε_p`, and any implementation
//!   within `ε_p` of the true p-value — ours is within ~1e−15 — reports
//!   `p < α`. `Accept` is the mirror image via `U + ε_s ≤ d_accept`.
//! * `ε_s = 1e−9` absorbs every floating-point discrepancy between the
//!   bound arithmetic and the sorted statistic (boundary rounding in the
//!   bucket map, CDF evaluation at boundaries vs samples — all ≤ ~1e−15).
//! * Everything else is `Borderline` and runs the exact sorted test, which
//!   is the reference implementation itself.
//!
//! The margins are ~1e−9 wide in a band whose width is ~1e−3, so they cost
//! essentially no fast-path coverage.
//!
//! Two further steps make the screen and its fallback cheap without moving a
//! bit:
//!
//! * **Integer decide.** Every quantity the screen compares depends on the
//!   histogram only through the cumulative counts `N_k` at the boundaries,
//!   and each comparison is a chain of IEEE operations on `N_k/n` —
//!   division by `n`, subtraction of a fixed `F(t_j)`, addition of `ε_s` —
//!   each of which is monotone in its argument. So at every boundary the
//!   set of counts for which a comparison holds is an interval of integers,
//!   and its ends can be found at construction by evaluating that very
//!   float predicate on neighbouring counts (a closed-form guess, then a
//!   step or two). `Reject` ⇔ some `|N_k/n − F(t_k)| ≥ d_reject + ε_s` ⇔
//!   some `N_k` falls outside its integer reject interval; `Accept` ⇔ the
//!   maximum of the envelope terms plus `ε_s` is `≤ d_accept` ⇔ every term
//!   passes on its own (rounding `x + ε_s` is monotone, so it commutes with
//!   the maximum) ⇔ every `N_k` lies inside its integer accept interval.
//!   [`KsGaussianScreen::decide`] is therefore a prefix sum plus integer
//!   compares with the very classification of the float envelope, which
//!   stays as [`KsGaussianScreen::bounds`] and
//!   [`KsGaussianScreen::verdict_of_bounds`], the oracle the property tests
//!   hold `decide` to.
//! * **Pruned exact fallback.** The sorted statistic is a maximum over the
//!   samples, and the samples of one bucket `[t_lo, t_hi)` at sorted ranks
//!   `start..end` contribute at most `max(end/n − F(t_lo), F(t_hi) −
//!   start/n)` to it (both CDFs are monotone inside the bucket). With
//!   `ε_s` added for rounding, a bucket whose bound is below the running
//!   maximum, or below `L − ε_s ≤ D_n`, cannot raise the maximum, so
//!   [`KsGaussianScreen::exact_from_counts`] neither sorts it nor evaluates
//!   `F` on it. A maximum of floats does not depend on the order or on
//!   terms below it, so the statistic keeps its bits.

use crate::kolmogorov::{kolmogorov_sf, ks_cdf_exact};
use crate::normal::Normal;

/// Outcome of a one-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D = sup_x |C_n(x) − F(x)|`.
    pub statistic: f64,
    /// Two-sided P-value under the null.
    pub p_value: f64,
    /// Number of samples the statistic was computed from.
    pub n: usize,
}

impl KsResult {
    /// True iff the null hypothesis is rejected at significance `alpha`.
    #[inline]
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// KS statistic of `sorted` (ascending) against the CDF `f`.
///
/// `D = max_k max( k/n − F(x_k), F(x_k) − (k−1)/n )`, the exact supremum of
/// the empirical-vs-theoretical CDF gap for a step empirical CDF.
pub fn ks_statistic_sorted(sorted: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    assert!(!sorted.is_empty(), "KS statistic needs at least one sample");
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let fx = f(x);
        let upper = (i as f64 + 1.0) / n - fx;
        let lower = fx - (i as f64) / n;
        d = d.max(upper).max(lower);
    }
    d
}

/// Two-sided P-value for a KS statistic `d` from `n` samples.
///
/// Uses the Marsaglia–Tsang–Wang exact CDF for `n ≤ 140` and the asymptotic
/// Kolmogorov distribution with Stephens' finite-`n` correction
/// `λ = (√n + 0.12 + 0.11/√n)·d` otherwise — the same strategy as SciPy's
/// `kstest(mode="approx")` and Numerical Recipes.
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    assert!(n >= 1);
    if d <= 0.0 {
        return 1.0;
    }
    if d >= 1.0 {
        return 0.0;
    }
    if n <= 140 {
        (1.0 - ks_cdf_exact(n, d)).clamp(0.0, 1.0)
    } else {
        let sqrt_n = (n as f64).sqrt();
        let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
        kolmogorov_sf(lambda)
    }
}

/// One-sample KS test of `samples` (any order; a sorted copy is made) against
/// an arbitrary continuous CDF.
pub fn ks_test(samples: &[f64], cdf: impl Fn(f64) -> f64) -> KsResult {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in KS samples"));
    let statistic = ks_statistic_sorted(&sorted, cdf);
    KsResult { statistic, p_value: ks_p_value(statistic, samples.len()), n: samples.len() }
}

/// KS test of `f32` samples against `N(mean, std²)`.
///
/// This is the protocol's exact server-side operation: upload coordinates are
/// `f32`, the reference distribution is the DP noise distribution. Sorting is
/// done on the `f32`s (cheaper) and the CDF is evaluated in `f64`.
///
/// This is the **reference implementation** the sort-free
/// [`KsGaussianScreen`] is contractually decision-equivalent to.
pub fn ks_test_gaussian(samples: &[f32], mean: f64, std: f64) -> KsResult {
    ks_test_gaussian_with(samples, mean, std, &mut Vec::new())
}

/// [`ks_test_gaussian`] writing its sorted copy into a caller-owned buffer.
///
/// The numeric path is byte-for-byte the same computation (same sort, same
/// accumulation order), so results are bit-identical to the allocating
/// variant; the buffer lets hot paths reuse one allocation across uploads.
pub fn ks_test_gaussian_with(
    samples: &[f32],
    mean: f64,
    std: f64,
    sorted: &mut Vec<f32>,
) -> KsResult {
    assert!(!samples.is_empty(), "KS test needs at least one sample");
    let normal = Normal::new(mean, std);
    sorted.clear();
    sorted.extend_from_slice(samples);
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in KS samples"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let fx = normal.cdf(x as f64);
        let upper = (i as f64 + 1.0) / n - fx;
        let lower = fx - (i as f64) / n;
        d = d.max(upper).max(lower);
    }
    KsResult { statistic: d, p_value: ks_p_value(d, sorted.len()), n: sorted.len() }
}

/// Answer of the one-pass screen for one sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsScreenVerdict {
    /// The upper bound on `D_n` is decisively below the critical value: the
    /// exact test would accept.
    Accept,
    /// The lower bound on `D_n` is decisively above the critical value: the
    /// exact test would reject.
    Reject,
    /// The bounds straddle the critical band — only the exact sorted test
    /// can decide.
    Borderline,
}

/// Reusable buffers for the screen-then-fallback pipeline: the histogram of
/// the one-pass screen and the sort buffer of the exact fallback. One per
/// worker/task; contents never influence results (both are fully rewritten
/// per use).
#[derive(Debug, Clone, Default)]
pub struct KsScratch {
    /// Bucket counts for [`KsGaussianScreen::bin_into`].
    pub counts: Vec<u32>,
    /// Sort buffer for [`ks_test_gaussian_with`] and
    /// [`KsGaussianScreen::exact_from_counts`].
    pub sorted: Vec<f32>,
    /// Per-bucket write cursors for the counting-sort fallback
    /// ([`KsGaussianScreen::exact_from_counts`]).
    pub offsets: Vec<u32>,
}

impl KsScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Slack, in statistic units, absorbing every floating-point discrepancy
/// between the one-pass bound arithmetic and the exact sorted statistic
/// (individual discrepancies are ≤ ~1e−15; see the module docs).
const STAT_GUARD: f64 = 1e-9;

/// p-value margin the decision thresholds are verified against: twice the
/// assumed `|p_impl − p_true| ≤ 1e−9` evaluation error (true error ~1e−15).
const P_MARGIN: f64 = 2e-9;

/// Sort-free screen for the one-sample KS test against `N(mean, std²)`.
///
/// Built once per `(mean, std, n, α)`; [`KsGaussianScreen::screen`] then
/// decides most sample sets in `O(n)` without sorting, answering
/// [`KsScreenVerdict::Borderline`] exactly when the one-pass bounds cannot
/// force the decision (see the module docs for the equivalence argument).
#[derive(Debug, Clone)]
pub struct KsGaussianScreen {
    mean: f64,
    std: f64,
    n: usize,
    alpha: f64,
    x_lo: f64,
    inv_w: f64,
    buckets: usize,
    /// `cdf(t_j)` at the `buckets + 1` bucket boundaries.
    cdf_at: Vec<f64>,
    /// Verified: `ks_p_value(d_accept, n) ≥ α + P_MARGIN`.
    d_accept: f64,
    /// Verified: `ks_p_value(d_reject, n) < α − P_MARGIN`.
    d_reject: f64,
    /// The envelope's comparisons as integer intervals on the cumulative
    /// counts, `CHUNK` boundaries per entry (see [`CountLimits`]).
    limits: Vec<CountLimits>,
}

/// Width of the fixed-size local chunks the hot loops work in: a scalar step
/// fills a local array, then one loop runs over the whole array, so the
/// array loop vectorises however the crate is split into codegen units.
const CHUNK: usize = 16;

/// For `CHUNK` consecutive bucket boundaries `k`, the integer intervals of
/// the cumulative count `N_k = #{x < t_k}` inside which the float envelope's
/// comparisons at `k` pass: `reject_lo[i] ≤ N_k < reject_hi[i]` keeps
/// `|N_k/n − F(t_k)| < d_reject + ε_s`, and `accept_lo[i] ≤ N_k <
/// accept_hi[i]` keeps both envelope terms that read `N_k` at `+ ε_s ≤
/// d_accept`. Entries past the last boundary always pass.
#[derive(Debug, Clone)]
struct CountLimits {
    reject_lo: [u32; CHUNK],
    reject_hi: [u32; CHUNK],
    accept_lo: [u32; CHUNK],
    accept_hi: [u32; CHUNK],
}

impl KsGaussianScreen {
    /// Builds the screen for `n` samples at significance `alpha`.
    ///
    /// The bucket count scales with `n` (64 – 8192, power of two): below
    /// `n` buckets the envelope would be needlessly wide, beyond ~8k the
    /// per-upload zeroing cost stops paying for the narrower band.
    ///
    /// Any `alpha` is accepted: for degenerate values (≤ 0, ≥ 1, or within
    /// the verification margin of them) the unverifiable fast-decision
    /// side(s) are simply disabled and those inputs fall through to the
    /// exact sorted test, keeping decisions exact instead of panicking.
    pub fn new(mean: f64, std: f64, n: usize, alpha: f64) -> Self {
        assert!(std > 0.0 && std.is_finite(), "screen needs a positive finite std, got {std}");
        assert!(n >= 1, "screen needs at least one sample");
        let buckets = n.next_power_of_two().clamp(64, 8192);
        // ±5σ spans all but ~6e-7 of the null mass; samples beyond it land
        // in the open tail buckets, whose envelope contribution is tiny.
        const SPAN_STDS: f64 = 5.0;
        let x_lo = mean - SPAN_STDS * std;
        let width = 2.0 * SPAN_STDS * std / buckets as f64;
        let normal = Normal::new(mean, std);
        let cdf_at: Vec<f64> = (0..=buckets).map(|j| normal.cdf(x_lo + j as f64 * width)).collect();
        let (d_accept, d_reject) = decision_thresholds(n, alpha);
        let limits = count_limits(n, &cdf_at, d_accept, d_reject);
        KsGaussianScreen {
            mean,
            std,
            n,
            alpha,
            x_lo,
            inv_w: 1.0 / width,
            buckets,
            cdf_at,
            d_accept,
            d_reject,
            limits,
        }
    }

    /// Number of samples the screen was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The significance level decisions are made at.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Length a counts buffer must have: interior buckets plus the two
    /// open tails.
    #[inline]
    pub fn slots(&self) -> usize {
        self.buckets + 2
    }

    /// The `(d_accept, d_reject)` statistic thresholds: `D_n ≤ d_accept`
    /// forces acceptance, `D_n ≥ d_reject` forces rejection, and the band
    /// between them (~1e−9 wide) is undecidable without the exact test.
    #[cfg(test)]
    fn critical_band(&self) -> (f64, f64) {
        (self.d_accept, self.d_reject)
    }

    /// Bucket index of one sample (0 = below-range tail, `slots() − 1` =
    /// above-range tail, which also absorbs NaN).
    ///
    /// The map is monotone in `x`, which is all the envelope argument needs:
    /// the effective boundaries it induces differ from the nominal `t_j` by
    /// at most a few ulps, covered by the `STAT_GUARD` margin.
    ///
    /// `z.min(buckets)` pins everything above the range, NaN included, to
    /// `buckets`; truncating that with `as i32` is exact wherever it is used
    /// (`0 ≤ z ≤ buckets ≤ 8192`) and much cheaper than the saturating
    /// `z as usize`. Both that and the final choice are selects, not
    /// branches, so a loop over this function vectorises.
    #[inline]
    pub fn bucket_of(&self, x: f32) -> usize {
        let z = (x as f64 - self.x_lo) * self.inv_w;
        let slot = z.min(self.buckets as f64) as i32 + 1;
        (if z < 0.0 { 0 } else { slot }) as usize
    }

    /// One pass: histogram `samples` into `counts` (resized and zeroed).
    pub fn bin_into(&self, samples: &[f32], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.slots(), 0);
        self.bin_each(samples, counts, |_| ());
    }

    /// Adds every sample to its bucket of `counts` and hands each sample, in
    /// order, to `each` — the pass a caller fuses its own per-sample work
    /// into. The bucket indices of `CHUNK` samples at a time are computed
    /// into a local array first, so that loop vectorises.
    #[inline]
    pub fn bin_each(&self, samples: &[f32], counts: &mut [u32], mut each: impl FnMut(f32)) {
        assert_eq!(counts.len(), self.slots(), "counts buffer has the wrong bucket count");
        let mut chunks = samples.chunks_exact(CHUNK);
        for chunk in &mut chunks {
            let xs: [f32; CHUNK] = chunk.try_into().expect("a chunk holds CHUNK samples");
            let mut slots = [0u32; CHUNK];
            for (slot, &x) in slots.iter_mut().zip(&xs) {
                *slot = self.bucket_of(x) as u32;
            }
            for (x, slot) in xs.into_iter().zip(slots) {
                each(x);
                counts[slot as usize] += 1;
            }
        }
        for &x in chunks.remainder() {
            each(x);
            counts[self.bucket_of(x)] += 1;
        }
    }

    /// `(L, U)` with `L ≤ D_n ≤ U` for the sample set behind `counts`
    /// (no guards applied; the raw envelope, exposed for the property-test
    /// campaign).
    ///
    /// At the boundary `t_k` the empirical CDF is exactly `N_k/n`, so
    /// `L = max_k |N_k/n − F(t_k)|`. Inside the bucket `[t_{k−1}, t_k)` both
    /// CDFs are monotone, so its gap is at most `max(N_k/n − F(t_{k−1}),
    /// F(t_k) − N_{k−1}/n)`; `U` is the maximum of that over the buckets,
    /// with `F = 0` below the first boundary and `F = 1` above the last.
    pub fn bounds(&self, counts: &[u32]) -> (f64, f64) {
        assert_eq!(counts.len(), self.slots(), "counts buffer has the wrong bucket count");
        let n = self.n as f64;
        // Interval (−∞, t_0): F_n ∈ [0, N_0/n], F ∈ (0, f_0).
        let mut cum = counts[0] as f64;
        let mut lower = (cum / n - self.cdf_at[0]).abs();
        let mut upper = (cum / n).max(self.cdf_at[0]);
        for (&count, boundary_pair) in counts[1..=self.buckets].iter().zip(self.cdf_at.windows(2)) {
            let prev_cum = cum;
            cum += count as f64;
            let [f_prev, f_j] = boundary_pair else { unreachable!("windows(2)") };
            let (f_prev, f_j) = (*f_prev, *f_j);
            // Boundary t_j: the empirical CDF is exactly cum/n there.
            lower = lower.max((cum / n - f_j).abs());
            // Interval [t_{j−1}, t_j): F_n ∈ [prev_cum/n, cum/n], F ∈ [f_prev, f_j].
            upper = upper.max((cum / n - f_prev).max(f_j - prev_cum / n));
        }
        // Interval [t_B, ∞): F_n ∈ [cum/n, 1], F ∈ [f_B, 1).
        upper = upper.max((1.0 - self.cdf_at[self.buckets]).max(1.0 - cum / n));
        (lower, upper)
    }

    /// The verdict the envelope `(L, U)` forces: `Reject` when `L − ε_s ≥
    /// d_reject` (written `L ≥ d_reject + ε_s`), `Accept` when `U + ε_s ≤
    /// d_accept`, `Borderline` otherwise. This is the float definition
    /// [`KsGaussianScreen::decide`] reproduces with integer compares; it is
    /// kept as the oracle the property tests hold `decide` to.
    pub fn verdict_of_bounds(&self, (lower, upper): (f64, f64)) -> KsScreenVerdict {
        if lower >= self.d_reject + STAT_GUARD {
            KsScreenVerdict::Reject
        } else if upper + STAT_GUARD <= self.d_accept {
            KsScreenVerdict::Accept
        } else {
            KsScreenVerdict::Borderline
        }
    }

    /// Decides from a filled histogram: exactly
    /// `self.verdict_of_bounds(self.bounds(counts))`, as a prefix sum over
    /// the counts and integer compares against the per-boundary limits built
    /// at construction (see the module docs). Returns as soon as a chunk of
    /// boundaries forces rejection.
    pub fn decide(&self, counts: &[u32]) -> KsScreenVerdict {
        assert_eq!(counts.len(), self.slots(), "counts buffer has the wrong bucket count");
        let chunks = counts[..=self.buckets].chunks_exact(CHUNK);
        // The last boundaries' counts, padded with zeros: the limits past
        // the last boundary always pass.
        let mut last = [0u32; CHUNK];
        last[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        let blocks =
            chunks.map(|c| <[u32; CHUNK]>::try_from(c).expect("a chunk holds CHUNK counts"));
        let (mut cum, mut accept) = (0u32, true);
        for (block, limits) in blocks.chain([last]).zip(&self.limits) {
            // N_k for the chunk's boundaries k.
            let mut cums = [0u32; CHUNK];
            for (slot, count) in cums.iter_mut().zip(block) {
                cum += count;
                *slot = cum;
            }
            let (mut rejects, mut misses) = (false, false);
            for (i, &c) in cums.iter().enumerate() {
                rejects |= (c < limits.reject_lo[i]) | (c >= limits.reject_hi[i]);
                misses |= (c < limits.accept_lo[i]) | (c >= limits.accept_hi[i]);
            }
            if rejects {
                return KsScreenVerdict::Reject;
            }
            accept &= !misses;
        }
        if accept {
            KsScreenVerdict::Accept
        } else {
            KsScreenVerdict::Borderline
        }
    }

    /// Bins and decides in one call.
    ///
    /// Samples must be finite: the screen would bin NaN/±∞ into the upper
    /// tail bucket and decide from a corrupted histogram (callers like
    /// `FirstStage` reject non-finite uploads before any KS work; the
    /// reference [`ks_test_gaussian`] panics on NaN instead).
    pub fn screen(&self, samples: &[f32], scratch: &mut KsScratch) -> KsScreenVerdict {
        assert_eq!(samples.len(), self.n, "sample count differs from the screen's n");
        self.bin_into(samples, &mut scratch.counts);
        self.decide(&scratch.counts)
    }

    /// The full fast-path decision: screen, then exact fallback for
    /// borderline inputs. For finite samples (see [`KsGaussianScreen::screen`]
    /// for the NaN carve-out) this returns exactly
    /// `ks_test_gaussian(samples, mean, std).rejects_at(alpha)`.
    ///
    /// The fallback is the counting-sort variant
    /// ([`KsGaussianScreen::exact_from_counts`]): `screen` has already built
    /// the bucket histogram, so the exact test reuses it instead of paying a
    /// full comparison sort. Its result is bit-identical to
    /// [`ks_test_gaussian_with`].
    pub fn rejects(&self, samples: &[f32], scratch: &mut KsScratch) -> bool {
        match self.screen(samples, scratch) {
            KsScreenVerdict::Reject => true,
            KsScreenVerdict::Accept => false,
            KsScreenVerdict::Borderline => {
                self.exact_from_counts(samples, scratch).rejects_at(self.alpha)
            }
        }
    }

    /// The exact KS test, fed by a counting sort from the already-built
    /// bucket histogram: `scratch.counts` must hold the histogram
    /// [`KsGaussianScreen::bin_into`] built for exactly these `samples`
    /// (that is the state the screen leaves behind when it answers
    /// [`KsScreenVerdict::Borderline`]).
    ///
    /// An exclusive prefix sum over the counts yields each bucket's slice of
    /// the sorted order, and one scatter pass places every sample in its
    /// bucket's slice. Because [`KsGaussianScreen::bucket_of`] is monotone,
    /// a bucket's sorted slice holds exactly the samples at those ranks of
    /// the global sort (the only equal-value bit patterns, ±0.0, share a
    /// bucket and a CDF value). The statistic is the reference's maximum over
    /// the ranks, with its per-rank terms byte-for-byte, but a bucket enters
    /// it — sorted, with `F` evaluated on its samples — only when its bound
    /// `max(end/n − F(t_lo), F(t_hi) − start/n) + ε_s` reaches the larger of
    /// the running maximum and `L − ε_s` (see the module docs). So the
    /// returned [`KsResult`] is bit-identical to [`ks_test_gaussian_with`],
    /// while `F` runs on the few buckets near the maximum gap.
    ///
    /// Like the reference, it panics on a NaN sample, also when the NaN's
    /// bucket is pruned.
    pub fn exact_from_counts(&self, samples: &[f32], scratch: &mut KsScratch) -> KsResult {
        assert_eq!(samples.len(), self.n, "sample count differs from the screen's n");
        let counts = &scratch.counts;
        assert_eq!(counts.len(), self.slots(), "counts buffer has the wrong bucket count");
        let n = samples.len() as f64;
        // Bucket starts, and the envelope's lower bound L on the way.
        let offsets = &mut scratch.offsets;
        offsets.clear();
        let (mut acc, mut lower) = (0u32, 0.0f64);
        for (&c, &f) in counts.iter().zip(&self.cdf_at) {
            offsets.push(acc);
            acc += c;
            lower = lower.max((acc as f64 / n - f).abs());
        }
        offsets.push(acc);
        acc += counts[self.buckets + 1];
        assert_eq!(acc as usize, samples.len(), "histogram does not cover the samples");
        let sorted = &mut scratch.sorted;
        sorted.clear();
        sorted.resize(samples.len(), 0.0);
        for &x in samples {
            let b = self.bucket_of(x);
            sorted[offsets[b] as usize] = x;
            offsets[b] += 1;
        }
        // After the scatter, offsets[b] is the end of bucket b's slice. A
        // NaN lands only in the upper tail bucket, which may be pruned.
        let upper_tail = &sorted[offsets[self.buckets] as usize..];
        assert!(!upper_tail.iter().any(|x| x.is_nan()), "NaN in KS samples");
        let normal = Normal::new(self.mean, self.std);
        let floor = lower - STAT_GUARD;
        let mut d = 0.0f64;
        let mut start = 0usize;
        for (b, &end) in offsets.iter().enumerate() {
            let end = end as usize;
            // F at the bucket's edges: 0 below the first boundary, 1 above the last.
            let f_lo = if b == 0 { 0.0 } else { self.cdf_at[b - 1] };
            let f_hi = self.cdf_at.get(b).copied().unwrap_or(1.0);
            let reach = (end as f64 / n - f_lo).max(f_hi - start as f64 / n) + STAT_GUARD;
            if end > start && reach >= d.max(floor) {
                let bucket = &mut sorted[start..end];
                bucket.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in KS samples"));
                for (i, &x) in (start..).zip(bucket.iter()) {
                    let fx = normal.cdf(x as f64);
                    let upper = (i as f64 + 1.0) / n - fx;
                    let lower = fx - (i as f64) / n;
                    d = d.max(upper).max(lower);
                }
            }
            start = end;
        }
        KsResult { statistic: d, p_value: ks_p_value(d, samples.len()), n: samples.len() }
    }
}

/// The per-boundary count limits behind [`KsGaussianScreen::decide`], each
/// found by evaluating the float comparison of
/// [`KsGaussianScreen::verdict_of_bounds`] that it stands for, term by term,
/// on neighbouring counts (see the module docs for why each comparison holds
/// on an interval of counts).
fn count_limits(n: usize, cdf_at: &[f64], d_accept: f64, d_reject: f64) -> Vec<CountLimits> {
    let n_count = i32::try_from(n).ok().filter(|&c| c < i32::MAX).expect("n fits the counts");
    let nf = n as f64;
    let buckets = cdf_at.len() - 1;
    let reject_at = d_reject + STAT_GUARD;
    let accepts = |term: f64| term + STAT_GUARD <= d_accept;
    // Where `accepts` turns, used only to place the first guess.
    let room = d_accept - STAT_GUARD;
    // The two envelope terms that read no count must pass on their own.
    let accept_possible = accepts(cdf_at[0]) && accepts(1.0 - cdf_at[buckets]);
    let pass = CountLimits {
        reject_lo: [0; CHUNK],
        reject_hi: [u32::MAX; CHUNK],
        accept_lo: [0; CHUNK],
        accept_hi: [u32::MAX; CHUNK],
    };
    let mut limits = vec![pass; (buckets + 1).div_ceil(CHUNK)];
    for (k, &f) in cdf_at.iter().enumerate() {
        let l = &mut limits[k / CHUNK];
        let i = k % CHUNK;
        // |N_k/n − F(t_k)| falls, then rises, as the count grows: it stays
        // below the reject line from the first count past the falling side
        // up to the first count on the rising side that reaches it.
        l.reject_lo[i] = first_true(n_count, nf * (f - reject_at), |q| {
            let gap = q - f;
            gap > 0.0 || gap.abs() < reject_at
        });
        l.reject_hi[i] = first_true(n_count, nf * (f + reject_at), |q| {
            let gap = q - f;
            gap >= 0.0 && gap.abs() >= reject_at
        });
        if !accept_possible {
            l.accept_hi[i] = 0;
            continue;
        }
        // N_k/n − F(t_{k−1}) rises with the count; at k = 0 the term is
        // N_0/n alone, which is N_0/n − 0.0 exactly. F(t_{k+1}) − N_k/n
        // falls; at k = B it is 1 − N_B/n.
        let below = if k == 0 { 0.0 } else { cdf_at[k - 1] };
        let above = cdf_at.get(k + 1).copied().unwrap_or(1.0);
        l.accept_hi[i] = first_true(n_count, nf * (room + below), |q| !accepts(q - below));
        l.accept_lo[i] = first_true(n_count, nf * (above - room), |q| accepts(above - q));
    }
    limits
}

/// The smallest count `c ≤ n` at which the predicate holds of `c/n`, or
/// `n + 1` when it holds nowhere; `holds` must be monotone in the count
/// (false up to some count, true from there on). `threshold` is the
/// real-valued count where the predicate's exact-arithmetic form turns true,
/// so the answer is the first count past it unless rounding moves the turn
/// across an integer: two evaluations check that candidate, and only when
/// the check fails does the search step one count at a time.
fn first_true(n: i32, threshold: f64, holds: impl Fn(f64) -> bool) -> u32 {
    let nf = f64::from(n);
    let holds_at = |c: i32| holds(f64::from(c) / nf);
    // ⌊threshold⌋ + 1 clamped into 0..=n+1; the truncation is the floor
    // because its operand is non-negative (NaN, never passed, casts to 0).
    let mut c = ((threshold.clamp(-1.0, nf + 1.0) + 1.0) as i32).min(n + 1);
    if (c == 0 || !holds_at(c - 1)) && (c > n || holds_at(c)) {
        return c as u32;
    }
    while c > 0 && holds_at(c - 1) {
        c -= 1;
    }
    while c <= n && !holds_at(c) {
        c += 1;
    }
    c as u32
}

/// `(d_accept, d_reject)` for `(n, alpha)`: statistic thresholds whose
/// defining inequalities (`p(d_accept) ≥ α + P_MARGIN`,
/// `p(d_reject) < α − P_MARGIN`) hold by direct evaluation of
/// [`ks_p_value`] — bisection only *locates* the candidates, it is never
/// trusted; each step outward re-verifies, so no monotonicity of the
/// p-value implementation is assumed anywhere.
///
/// A side whose inequality cannot be verified (degenerate `alpha` at or
/// beyond the edges of `(0, 1)`, where e.g. `p ≥ α + margin` is
/// unsatisfiable) is disabled with an unreachable sentinel (`−∞` for
/// accept, `+∞` for reject): the screen then answers `Borderline` in that
/// direction and the sorted fallback keeps decisions exact.
fn decision_thresholds(n: usize, alpha: f64) -> (f64, f64) {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if ks_p_value(mid, n) >= alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Walk outward geometrically until the margined inequality is verified
    // (p(0) = 1 and p(1) = 0 satisfy the conditions for any non-degenerate
    // alpha well before the step bound).
    let mut d_accept = f64::NEG_INFINITY;
    let mut candidate = lo;
    let mut step = 1e-15;
    for _ in 0..120 {
        if ks_p_value(candidate, n) >= alpha + P_MARGIN {
            d_accept = candidate;
            break;
        }
        candidate = (candidate - step).max(0.0);
        step *= 4.0;
    }
    let mut d_reject = f64::INFINITY;
    let mut candidate = hi;
    let mut step = 1e-15;
    for _ in 0..120 {
        if ks_p_value(candidate, n) < alpha - P_MARGIN {
            d_reject = candidate;
            break;
        }
        candidate = (candidate + step).min(1.0);
        step *= 4.0;
    }
    (d_accept, d_reject)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::gaussian_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statistic_of_perfect_uniform_grid() {
        // Samples at the midpoints of n equal bins: D = 1/(2n).
        let n = 10;
        let samples: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let d = ks_statistic_sorted(&samples, |x| x.clamp(0.0, 1.0));
        assert!((d - 0.05).abs() < 1e-12);
    }

    #[test]
    fn statistic_detects_gross_mismatch() {
        // All samples at 0.99 against Uniform(0,1): D ≈ 0.99.
        let samples = vec![0.99f64; 50];
        let d = ks_statistic_sorted(&samples, |x| x.clamp(0.0, 1.0));
        assert!(d > 0.98);
        assert!(ks_p_value(d, 50) < 1e-10);
    }

    #[test]
    fn gaussian_null_is_accepted() {
        // Genuine N(0, σ²) samples at protocol scale must pass at α = 0.05
        // in the overwhelming majority of draws. Check several seeds.
        let mut rejections = 0;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = gaussian_vector(&mut rng, 0.05, 25_450);
            let r = ks_test_gaussian(&v, 0.0, 0.05);
            if r.rejects_at(0.05) {
                rejections += 1;
            }
        }
        // Expected ~1 rejection in 20 under the null; 5+ would be suspicious.
        assert!(rejections <= 4, "rejected {rejections}/20 genuine Gaussian uploads");
    }

    #[test]
    fn wrong_variance_is_rejected() {
        // N(0, (2σ)²) against N(0, σ²): wrong scale must be caught at d=25450.
        let mut rng = StdRng::seed_from_u64(3);
        let v = gaussian_vector(&mut rng, 0.10, 25_450);
        let r = ks_test_gaussian(&v, 0.0, 0.05);
        assert!(r.rejects_at(0.05), "p={}", r.p_value);
    }

    #[test]
    fn shifted_mean_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v = gaussian_vector(&mut rng, 0.05, 25_450);
        for x in &mut v {
            *x += 0.01; // 0.2σ shift
        }
        let r = ks_test_gaussian(&v, 0.0, 0.05);
        assert!(r.rejects_at(0.05), "p={}", r.p_value);
    }

    #[test]
    fn p_value_uniform_under_null_small_n() {
        // With the exact small-n CDF, the p-value of a uniform sample should
        // itself be roughly uniform; check its mean over many draws.
        let mut rng = StdRng::seed_from_u64(9);
        let mut acc = 0.0;
        let reps = 400;
        for _ in 0..reps {
            let samples: Vec<f64> =
                (0..25).map(|_| rand::Rng::gen_range(&mut rng, 0.0..1.0)).collect();
            let r = ks_test(&samples, |x: f64| x.clamp(0.0, 1.0));
            acc += r.p_value;
        }
        let mean_p = acc / reps as f64;
        assert!((mean_p - 0.5).abs() < 0.06, "mean p under null = {mean_p}");
    }

    #[test]
    fn p_value_edge_cases() {
        assert_eq!(ks_p_value(0.0, 100), 1.0);
        assert_eq!(ks_p_value(1.0, 100), 0.0);
        assert!(ks_p_value(0.5, 10) > ks_p_value(0.5, 1000));
    }

    #[test]
    fn buffered_test_is_bit_identical_to_allocating_test() {
        let mut rng = StdRng::seed_from_u64(12);
        let v = gaussian_vector(&mut rng, 0.05, 4_000);
        let a = ks_test_gaussian(&v, 0.0, 0.05);
        let mut buf = vec![9.0f32; 3]; // stale contents must not matter
        let b = ks_test_gaussian_with(&v, 0.0, 0.05, &mut buf);
        assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
        assert_eq!(buf.len(), v.len());
    }

    #[test]
    fn decision_thresholds_are_verified_and_ordered() {
        for &n in &[16usize, 140, 1_000, 25_450] {
            for &alpha in &[0.01, 0.05, 0.10] {
                let screen = KsGaussianScreen::new(0.0, 1.0, n, alpha);
                let (d_accept, d_reject) = screen.critical_band();
                assert!(d_accept <= d_reject, "n={n} α={alpha}");
                assert!(ks_p_value(d_accept, n) >= alpha + 2e-9, "n={n} α={alpha}");
                assert!(ks_p_value(d_reject, n) < alpha - 2e-9, "n={n} α={alpha}");
                // The band is a hair around the critical point, not a chasm.
                assert!(d_reject - d_accept < 1e-6, "n={n} α={alpha}");
            }
        }
    }

    #[test]
    fn degenerate_alphas_disable_fast_sides_instead_of_panicking() {
        // α at or beyond the edges of (0, 1) was always legal for the
        // reference test (`rejects_at` is just a comparison); the screen
        // must keep accepting such values and stay decision-equivalent by
        // disabling the unverifiable fast side(s).
        let mut rng = StdRng::seed_from_u64(5);
        let v = gaussian_vector(&mut rng, 0.05, 1_000);
        let mut scratch = KsScratch::new();
        for &alpha in &[0.0, 1e-9, 0.999_999_999, 1.0, 2.0] {
            let screen = KsGaussianScreen::new(0.0, 0.05, 1_000, alpha);
            let (d_accept, d_reject) = screen.critical_band();
            assert!(d_accept <= d_reject, "α={alpha}");
            assert_eq!(
                screen.rejects(&v, &mut scratch),
                ks_test_gaussian(&v, 0.0, 0.05).rejects_at(alpha),
                "α={alpha}"
            );
        }
    }

    #[test]
    fn screen_bounds_bracket_the_exact_statistic() {
        let screen = KsGaussianScreen::new(0.0, 0.05, 25_450, 0.05);
        let mut scratch = KsScratch::new();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = gaussian_vector(&mut rng, 0.05, 25_450);
            if seed % 2 == 0 {
                for x in &mut v {
                    *x += 0.004; // push some inputs toward rejection
                }
            }
            screen.bin_into(&v, &mut scratch.counts);
            let (lo, hi) = screen.bounds(&scratch.counts);
            let exact = ks_test_gaussian(&v, 0.0, 0.05).statistic;
            assert!(lo <= exact + 1e-12, "seed {seed}: L={lo} > D={exact}");
            assert!(exact <= hi + 1e-12, "seed {seed}: D={exact} > U={hi}");
        }
    }

    #[test]
    fn screen_decisions_match_reference_on_clear_inputs() {
        let screen = KsGaussianScreen::new(0.0, 0.05, 25_450, 0.05);
        let mut scratch = KsScratch::new();
        let mut rng = StdRng::seed_from_u64(3);
        // Genuine noise: screens to a definitive verdict on most draws and
        // the full decision always matches the reference.
        let mut definitive = 0;
        for _ in 0..20 {
            let v = gaussian_vector(&mut rng, 0.05, 25_450);
            if screen.screen(&v, &mut scratch) != KsScreenVerdict::Borderline {
                definitive += 1;
            }
            assert_eq!(
                screen.rejects(&v, &mut scratch),
                ks_test_gaussian(&v, 0.0, 0.05).rejects_at(0.05)
            );
        }
        assert!(definitive >= 14, "only {definitive}/20 decided without sorting");
        // A grossly wrong distribution early-exits to Reject.
        let v = gaussian_vector(&mut rng, 0.10, 25_450);
        assert_eq!(screen.screen(&v, &mut scratch), KsScreenVerdict::Reject);
        assert!(screen.rejects(&v, &mut scratch));
    }

    #[test]
    fn counting_sort_exact_test_is_bit_identical_to_sorted_reference() {
        // The counting-sort fallback must reproduce the reference KsResult
        // bit-for-bit: same statistic bits, same p-value bits — across null
        // draws, shifted inputs, tail-heavy inputs, and ±0.0 ties (the only
        // equal-comparing f32 pair with distinct bit patterns).
        let mut scratch = KsScratch::new();
        for (case, n) in [(0, 64usize), (1, 1_000), (2, 25_450), (3, 128)] {
            let screen = KsGaussianScreen::new(0.0, 0.05, n, 0.05);
            let mut rng = StdRng::seed_from_u64(case as u64);
            let mut v = gaussian_vector(&mut rng, 0.05, n);
            match case {
                1 => {
                    for x in &mut v {
                        *x += 0.004;
                    }
                }
                2 => {
                    v[0] = 100.0; // far-tail bucket
                    v[1] = -100.0;
                }
                3 => {
                    // Interleave ±0.0 ties among genuine samples.
                    for (i, x) in v.iter_mut().enumerate().take(32) {
                        *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                _ => {}
            }
            screen.bin_into(&v, &mut scratch.counts);
            let fast = screen.exact_from_counts(&v, &mut scratch);
            let reference = ks_test_gaussian(&v, 0.0, 0.05);
            assert_eq!(fast.statistic.to_bits(), reference.statistic.to_bits(), "case {case}");
            assert_eq!(fast.p_value.to_bits(), reference.p_value.to_bits(), "case {case}");
            assert_eq!(fast.n, reference.n, "case {case}");
        }
    }

    #[test]
    fn screen_handles_tail_and_degenerate_inputs() {
        let screen = KsGaussianScreen::new(0.0, 1.0, 64, 0.05);
        let mut scratch = KsScratch::new();
        // Everything in the far tails: the tail intervals still bound D.
        let v: Vec<f32> = (0..64).map(|i| if i % 2 == 0 { 100.0 } else { -100.0 }).collect();
        screen.bin_into(&v, &mut scratch.counts);
        let (lo, hi) = screen.bounds(&scratch.counts);
        let exact = ks_test_gaussian(&v, 0.0, 1.0).statistic;
        assert!(lo <= exact + 1e-12 && exact <= hi + 1e-12, "L={lo} D={exact} U={hi}");
        assert!(screen.rejects(&v, &mut scratch));
        // All-identical samples at the mean.
        let v = vec![0.0f32; 64];
        assert_eq!(
            screen.rejects(&v, &mut scratch),
            ks_test_gaussian(&v, 0.0, 1.0).rejects_at(0.05)
        );
    }
}
