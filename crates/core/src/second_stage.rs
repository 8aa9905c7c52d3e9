//! Second-stage aggregation (paper Algorithm 3, lines 4–14).
//!
//! The first stage confines every accepted upload to "noise + norm-bounded
//! payload"; the second stage decides *which direction* that payload points.
//! The server computes a clean gradient `g_s` from its auxiliary data and
//! scores each upload by the **inner product** `⟨g_i, g_s⟩` (not cosine — the
//! paper's Eq. 7 lower bound only holds for the inner product). Scores below
//! the mean of the round's top `⌈γn⌉` are suppressed to zero; surviving
//! scores **accumulate** across rounds, and the uploads with the top `⌈γn⌉`
//! accumulated scores are selected with **binary weights**.

use dpbfl_tensor::vecops;
use serde::{Deserialize, Serialize};

/// How an upload is scored against the server gradient.
///
/// The paper's §4.5 "Novelties" argues the **inner product** is the right
/// metric (it carries Eq. 7's lower bound), while prior auxiliary-data work
/// (FLTrust, ByGARS) uses **cosine similarity**; the cosine variant is kept
/// for the design-choice ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ScoringRule {
    /// `⟨g_i, g_s⟩` (the paper's choice).
    #[default]
    InnerProduct,
    /// `cos(g_i, g_s)` (the prior work's choice; ablation).
    Cosine,
}

impl ScoringRule {
    /// One upload's round score against the server gradient `g_s`
    /// (Algorithm 3 lines 6–8), accumulated in `f64`; a non-finite score
    /// maps to 0, the suppression value.
    ///
    /// The one scoring rule: the round loop calls it per upload as uploads
    /// are folded, [`SecondStage::select_for`] per row of a cohort.
    pub fn score(self, upload: &[f32], server_grad: &[f32]) -> f64 {
        let score = match self {
            ScoringRule::InnerProduct => vecops::dot(upload, server_grad),
            ScoringRule::Cosine => vecops::cosine_similarity(upload, server_grad),
        };
        if score.is_finite() {
            score
        } else {
            0.0
        }
    }
}

/// How selected uploads are weighted in the model update.
///
/// The paper assigns **binary** weights and observes that real-valued
/// similarity weights, under DP noise, further bias the aggregate
/// ("rubbish model update", §4.5); the proportional variant is kept for the
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WeightScheme {
    /// Selected uploads get weight 1 (the paper's choice).
    #[default]
    Binary,
    /// Selected uploads are weighted by their round score, normalized to
    /// sum to the selection count (ablation).
    Proportional,
}

/// Outcome of one second-stage round.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices of the selected uploads (top `⌈γn⌉` accumulated scores).
    pub selected: Vec<usize>,
    /// Per-upload weights (length `n`; zero for unselected uploads).
    pub weights: Vec<f64>,
    /// This round's raw scores.
    pub round_scores: Vec<f64>,
    /// The suppression threshold `μ̂` (mean of the round's top scores).
    pub threshold: f64,
}

/// The stateful second-stage selector (owns the accumulated score list `S`).
#[derive(Debug, Clone)]
pub struct SecondStage {
    scores: Vec<f64>,
    gamma: f64,
    scoring: ScoringRule,
    weighting: WeightScheme,
}

impl SecondStage {
    /// New selector for `n_workers` uploads per round and honest-fraction
    /// belief `γ ∈ (0, 1]`, with the paper's scoring and weighting.
    pub fn new(n_workers: usize, gamma: f64) -> Self {
        Self::with_rules(n_workers, gamma, ScoringRule::default(), WeightScheme::default())
    }

    /// Selector with explicit scoring/weighting rules (ablation support).
    pub fn with_rules(
        n_workers: usize,
        gamma: f64,
        scoring: ScoringRule,
        weighting: WeightScheme,
    ) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        assert!(gamma > 0.0 && gamma <= 1.0, "γ must be in (0, 1], got {gamma}");
        SecondStage { scores: vec![0.0; n_workers], gamma, scoring, weighting }
    }

    /// Number of uploads selected per round, `⌈γn⌉`.
    pub fn select_count(&self) -> usize {
        self.select_count_for(self.scores.len())
    }

    /// Selection count for a cohort of `m` uploads, `⌈γm⌉` (reduces to
    /// [`Self::select_count`] at full participation).
    pub fn select_count_for(&self, m: usize) -> usize {
        ((self.gamma * m as f64).ceil() as usize).clamp(1, m)
    }

    /// The accumulated score list `S` (read-only view).
    pub fn accumulated_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Runs one round of Algorithm 3 lines 5–14 on the (already
    /// first-stage-filtered) uploads and the server gradient `g_s`.
    ///
    /// Crash-proof against adversarial uploads: score ordering uses
    /// [`f64::total_cmp`] and non-finite round scores are mapped to 0 (the
    /// suppression value) before thresholding, so a NaN/∞ upload reaching
    /// this stage — possible when the first stage is ablated away — can
    /// neither panic the sort, win selection, nor poison the accumulator.
    pub fn select(&mut self, uploads: &[Vec<f32>], server_grad: &[f32]) -> SelectionResult {
        assert_eq!(uploads.len(), self.scores.len(), "upload count changed mid-training");
        let cohort: Vec<usize> = (0..uploads.len()).collect();
        self.select_for(&cohort, uploads, server_grad)
    }

    /// [`Self::select`] restricted to a sampled cohort: `uploads[k]` is the
    /// upload of worker `cohort[k]`. `cohort` must be sorted ascending and
    /// duplicate-free (the per-round sampler guarantees both).
    ///
    /// With the identity cohort this is bit-identical to [`Self::select`]
    /// (which delegates here): scoring, thresholding, accumulation order and
    /// selection ties all reduce to the un-sampled originals.
    pub fn select_for(
        &mut self,
        cohort: &[usize],
        uploads: &[Vec<f32>],
        server_grad: &[f32],
    ) -> SelectionResult {
        assert_eq!(uploads.len(), cohort.len(), "upload count changed mid-training");
        // Lines 6–8: score each upload against the server gradient.
        let mut round_scores = vec![0.0f64; self.scores.len()];
        for (&i, g) in cohort.iter().zip(uploads) {
            assert_eq!(g.len(), server_grad.len(), "upload/server-gradient dimension mismatch");
            round_scores[i] = self.scoring.score(g, server_grad);
        }
        self.select_scored(cohort, round_scores)
    }

    /// Algorithm 3 lines 9–14 on already-computed round scores: the entry
    /// point of the round loop, which scores each upload as it is folded
    /// and only hands the score vector here.
    ///
    /// `round_scores` is full-length (one slot per worker); entries off the
    /// cohort are ignored. Scores must already be sanitized (non-finite
    /// mapped to 0) — [`ScoringRule::score`] does.
    pub fn select_scored(
        &mut self,
        cohort: &[usize],
        mut round_scores: Vec<f64>,
    ) -> SelectionResult {
        assert!(!cohort.is_empty(), "cohort must be non-empty");
        assert_eq!(round_scores.len(), self.scores.len(), "round-score length changed");
        debug_assert!(cohort.windows(2).all(|w| w[0] < w[1]), "cohort must be sorted + distinct");
        debug_assert!(cohort.last().is_none_or(|&i| i < self.scores.len()));
        let keep = self.select_count_for(cohort.len());

        // Line 9: μ̂ = mean of the round's top ⌈γ·|cohort|⌉ scores.
        let mut sorted: Vec<f64> = cohort.iter().map(|&i| round_scores[i]).collect();
        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        let threshold = sorted[..keep].iter().sum::<f64>() / keep as f64;

        // Lines 10–13: suppress below-threshold (and, as hardening, negative)
        // scores, accumulate the rest — so accumulated scores are
        // non-negative and non-decreasing by construction. Iteration is in
        // cohort (= index) order, matching the un-sampled accumulation order.
        for &i in cohort {
            let r = &mut round_scores[i];
            if *r < threshold || *r <= 0.0 {
                *r = 0.0;
            }
            self.scores[i] += *r;
        }

        // Line 14: top ⌈γ·|cohort|⌉ accumulated scores among cohort members
        // form the selected set. The stable sort breaks ties by worker
        // index, keeping selection deterministic.
        let mut order: Vec<usize> = cohort.to_vec();
        order.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]));
        let mut selected = order[..keep].to_vec();
        selected.sort_unstable();

        // Weights: binary per the paper, or score-proportional (ablation).
        let mut weights = vec![0.0f64; self.scores.len()];
        match self.weighting {
            WeightScheme::Binary => {
                for &i in &selected {
                    weights[i] = 1.0;
                }
            }
            WeightScheme::Proportional => {
                let total: f64 = selected.iter().map(|&i| round_scores[i].max(0.0)).sum();
                if total > 0.0 {
                    // Normalize so Σw = |selected| (comparable step size to
                    // the binary scheme).
                    for &i in &selected {
                        weights[i] = round_scores[i].max(0.0) / total * selected.len() as f64;
                    }
                } else {
                    for &i in &selected {
                        weights[i] = 1.0;
                    }
                }
            }
        }

        SelectionResult { selected, weights, round_scores, threshold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(d: usize, dir: f32) -> Vec<f32> {
        let mut v = vec![0.0f32; d];
        v[0] = dir;
        v
    }

    #[test]
    fn select_count_is_ceil_gamma_n() {
        assert_eq!(SecondStage::new(10, 0.5).select_count(), 5);
        assert_eq!(SecondStage::new(10, 0.41).select_count(), 5);
        assert_eq!(SecondStage::new(10, 0.05).select_count(), 1);
        assert_eq!(SecondStage::new(3, 1.0).select_count(), 3);
    }

    #[test]
    fn aligned_uploads_beat_opposed_ones() {
        let d = 8;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, 1.0), unit(d, 0.9), unit(d, -1.0), unit(d, -0.9)];
        let mut stage = SecondStage::new(4, 0.5);
        let res = stage.select(&uploads, &server);
        assert_eq!(res.selected, vec![0, 1]);
        // Opposed uploads' scores were suppressed to zero, not accumulated
        // negatively.
        assert_eq!(stage.accumulated_scores()[2], 0.0);
        assert_eq!(stage.accumulated_scores()[3], 0.0);
    }

    #[test]
    fn threshold_is_mean_of_top_scores() {
        let d = 4;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, 4.0), unit(d, 2.0), unit(d, 1.0), unit(d, -5.0)];
        let mut stage = SecondStage::new(4, 0.5);
        let res = stage.select(&uploads, &server);
        // The threshold is the mean of {4, 2}.
        assert!((res.threshold - 3.0).abs() < 1e-12);
        // Only scores ≥ 3 accumulate: worker 0 only.
        assert_eq!(stage.accumulated_scores(), &[4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn accumulation_rewards_consistency() {
        // A worker that scores well every round overtakes one with a single
        // lucky round — the defense against adaptive (TTBB) attackers.
        let d = 4;
        let server = unit(d, 1.0);
        let mut stage = SecondStage::new(2, 0.5);
        // Round 1: worker 1 wins big.
        stage.select(&[unit(d, 1.0), unit(d, 10.0)], &server);
        // Rounds 2–11: worker 1 turns Byzantine (negative), worker 0 steady.
        let mut last = None;
        for _ in 0..10 {
            last = Some(stage.select(&[unit(d, 2.0), unit(d, -10.0)], &server));
        }
        assert_eq!(last.expect("ran").selected, vec![0]);
    }

    #[test]
    fn zeroed_first_stage_uploads_score_zero() {
        let d = 4;
        let server = unit(d, 1.0);
        let uploads = vec![vec![0.0; d], unit(d, 1.0)];
        let mut stage = SecondStage::new(2, 0.5);
        let res = stage.select(&uploads, &server);
        assert_eq!(res.round_scores[0], 0.0);
        assert_eq!(res.selected, vec![1]);
    }

    #[test]
    #[should_panic(expected = "upload count changed")]
    fn rejects_inconsistent_upload_count() {
        let mut stage = SecondStage::new(3, 0.5);
        let _ = stage.select(&[vec![0.0; 2]], &[0.0, 0.0]);
    }

    #[test]
    fn binary_weights_are_zero_one() {
        let d = 4;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, 3.0), unit(d, 2.0), unit(d, -1.0), unit(d, 1.0)];
        let mut stage = SecondStage::new(4, 0.5);
        let res = stage.select(&uploads, &server);
        for (i, &w) in res.weights.iter().enumerate() {
            if res.selected.contains(&i) {
                assert_eq!(w, 1.0);
            } else {
                assert_eq!(w, 0.0);
            }
        }
    }

    #[test]
    fn proportional_weights_follow_scores() {
        let d = 4;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, 3.0), unit(d, 1.0), unit(d, -1.0), unit(d, -2.0)];
        let mut stage =
            SecondStage::with_rules(4, 0.5, ScoringRule::InnerProduct, WeightScheme::Proportional);
        let res = stage.select(&uploads, &server);
        assert_eq!(res.selected, vec![0, 1]);
        // Weights proportional to 3 and… 1 was suppressed (below μ̂ = 2), so
        // it carries zero round score → weight 0; all mass on upload 0.
        assert!(res.weights[0] > res.weights[1]);
        let total: f64 = res.weights.iter().sum();
        assert!((total - 2.0).abs() < 1e-9, "weights should sum to |selected|");
    }

    #[test]
    fn nan_uploads_are_suppressed_not_fatal() {
        // Regression: with the first stage ablated away, a NaN upload reaches
        // the scorer; `partial_cmp(..).expect("scores are finite")` used to
        // panic here. NaN scores must instead map to 0 (suppressed).
        let d = 4;
        let server = unit(d, 1.0);
        let mut nan_upload = unit(d, 1.0);
        nan_upload[1] = f32::NAN;
        let uploads = vec![unit(d, 2.0), nan_upload, vec![f32::INFINITY; d], unit(d, 2.0)];
        let mut stage = SecondStage::new(4, 0.5);
        let res = stage.select(&uploads, &server);
        // The poisoned uploads score 0 and can neither be selected over the
        // finite aligned uploads nor contaminate the accumulator.
        assert_eq!(res.selected, vec![0, 3]);
        assert!(res.round_scores.iter().all(|s| s.is_finite()));
        assert!(stage.accumulated_scores().iter().all(|s| s.is_finite()));
        assert_eq!(stage.accumulated_scores()[1], 0.0);
        assert_eq!(stage.accumulated_scores()[2], 0.0);
    }

    #[test]
    fn nan_server_gradient_suppresses_every_score() {
        // A non-finite auxiliary gradient poisons every inner product; all
        // scores collapse to 0 and selection falls back to index order
        // instead of panicking.
        let d = 3;
        let uploads = vec![unit(d, 1.0), unit(d, 2.0)];
        let mut stage = SecondStage::new(2, 0.5);
        let res = stage.select(&uploads, &[f32::NAN, 0.0, 0.0]);
        assert_eq!(res.selected.len(), 1);
        assert!(stage.accumulated_scores().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn negative_round_scores_never_accumulate() {
        // Hardening: even when the whole round is negative (threshold below
        // zero), accumulated scores stay non-negative and monotone.
        let d = 4;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, -1.0), unit(d, -3.0)];
        let mut stage = SecondStage::new(2, 0.5);
        stage.select(&uploads, &server);
        assert_eq!(stage.accumulated_scores(), &[0.0, 0.0]);
    }

    #[test]
    fn identity_cohort_matches_select_bitwise() {
        let d = 6;
        let server = unit(d, 1.0);
        let uploads = vec![unit(d, 3.0), unit(d, -1.0), unit(d, 2.0), unit(d, 0.5)];
        let mut a = SecondStage::new(4, 0.5);
        let mut b = SecondStage::new(4, 0.5);
        let cohort: Vec<usize> = (0..4).collect();
        for _ in 0..3 {
            let ra = a.select(&uploads, &server);
            let rb = b.select_for(&cohort, &uploads, &server);
            assert_eq!(ra.selected, rb.selected);
            assert_eq!(ra.threshold.to_bits(), rb.threshold.to_bits());
            for (x, y) in ra.round_scores.iter().zip(&rb.round_scores) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in ra.weights.iter().zip(&rb.weights) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (x, y) in a.accumulated_scores().iter().zip(b.accumulated_scores()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cohort_selection_stays_inside_the_cohort() {
        let d = 4;
        let server = unit(d, 1.0);
        // Workers 0 and 3 sit out this round; only 1, 2, 4 upload.
        let cohort = vec![1usize, 2, 4];
        let uploads = vec![unit(d, 5.0), unit(d, 1.0), unit(d, 3.0)];
        let mut stage = SecondStage::new(5, 0.5);
        let res = stage.select_for(&cohort, &uploads, &server);
        // keep = ⌈0.5·3⌉ = 2. Threshold = mean of top 2 scores = (5+3)/2 = 4
        // suppresses workers 2 and 4 to zero, so the selection is worker 1
        // plus the lowest-index zero-score cohort member (stable tie-break).
        assert_eq!(res.selected, vec![1, 2]);
        assert_eq!(res.threshold, 4.0);
        // Off-cohort workers accumulate nothing and carry zero weight.
        assert_eq!(stage.accumulated_scores()[0], 0.0);
        assert_eq!(stage.accumulated_scores()[3], 0.0);
        assert_eq!(res.weights[0], 0.0);
        assert_eq!(res.weights[3], 0.0);
        assert_eq!(res.round_scores[0], 0.0);
    }

    #[test]
    fn select_scored_matches_select_for() {
        // The round loop's entry point: handing pre-computed scores to
        // `select_scored` must equal `select_for` computing them itself.
        let d = 4;
        let server = unit(d, 1.0);
        let cohort = vec![0usize, 2, 3];
        let uploads = vec![unit(d, 2.0), unit(d, -1.0), unit(d, 4.0)];
        let mut a = SecondStage::new(4, 0.5);
        let mut b = SecondStage::new(4, 0.5);
        let ra = a.select_for(&cohort, &uploads, &server);
        let mut scores = vec![0.0f64; 4];
        for (&i, u) in cohort.iter().zip(&uploads) {
            scores[i] = vecops::dot(u, &server);
        }
        let rb = b.select_scored(&cohort, scores);
        assert_eq!(ra.selected, rb.selected);
        assert_eq!(ra.threshold.to_bits(), rb.threshold.to_bits());
        for (x, y) in a.accumulated_scores().iter().zip(b.accumulated_scores()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "upload count changed")]
    fn select_for_rejects_cohort_upload_mismatch() {
        let mut stage = SecondStage::new(5, 0.5);
        let _ = stage.select_for(&[0, 1, 2], &[vec![0.0; 2]], &[0.0, 0.0]);
    }

    #[test]
    fn cosine_scoring_ignores_magnitude() {
        let d = 4;
        let server = unit(d, 1.0);
        // A huge aligned vector and a small aligned vector: inner product
        // separates them, cosine does not.
        let uploads = vec![unit(d, 100.0), unit(d, 0.1)];
        let mut ip = SecondStage::new(2, 0.5);
        let r_ip = ip.select(&uploads, &server);
        assert_eq!(r_ip.selected, vec![0]);
        let mut cos = SecondStage::with_rules(2, 0.5, ScoringRule::Cosine, WeightScheme::Binary);
        let r_cos = cos.select(&uploads, &server);
        assert!((r_cos.round_scores[0] - r_cos.round_scores[1]).abs() < 1e-9);
    }
}
