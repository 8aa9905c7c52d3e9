//! Byzantine attacks (paper §2.3, §4.6).
//!
//! The threat model is the paper's strongest: a single master attacker
//! controls every Byzantine worker, is **omniscient** (sees all honest
//! uploads and knows the aggregation rule, the protocol parameters, and the
//! honest data), and instantiates its attack *against our published
//! protocol*.
//!
//! * [`AttackSpec::Gaussian`] — pure `N(0, σ'²I)` uploads (Guideline 1: any
//!   permutation of a valid order-statistic sequence).
//! * [`AttackSpec::LabelFlip`] — data poisoning `I → H−1−I`; the Byzantine
//!   workers then follow the honest protocol, so their uploads pass the
//!   first stage by construction (Guideline 2).
//! * [`AttackSpec::OptLmp`] — Optimized Local Model Poisoning [Fang et al.]
//!   instantiated against our protocol per Eq. 8–10: every Byzantine upload
//!   is `−((1+λ)/Mₙ)·Σ g_B` with `λ = Mₙ/√Bₘ − 1`, which reverses the
//!   aggregate while remaining distributed exactly like the DP noise.
//! * [`AttackSpec::ALittle`] — "A little is enough" [Baruch et al.]:
//!   coordinate-wise `μ − z·s` perturbation within the empirical spread.
//! * [`AttackSpec::InnerProduct`] — inner-product manipulation / "Fall of
//!   Empires" [Xie et al.]: `−scale · mean(benign)`.
//! * [`AttackSpec::Adaptive`] — the paper's TTBB adaptive attacker: copies
//!   honest uploads until `ttbb·T` iterations have passed, then switches to
//!   an inner attack.
//!
//! The **zoo v2** attacks extend the threat model across rounds (DP-BREM,
//! Zhu & Ling evaluate against exactly this class):
//!
//! * [`AttackSpec::Sleeper`] — runs the honest protocol on honest data until
//!   round `turn_round`, then mounts a payload attack. Pre-turn rounds are
//!   bit-identical to an all-honest run of the same population.
//! * [`AttackSpec::Oscillating`] — the Byzantine cohort alternates between
//!   attacking and blending in per a period/duty-cycle.
//! * [`AttackSpec::Collusion`] — the colluders split one crafted malicious
//!   gradient into shares; each share is statistically indistinguishable
//!   from DP noise (passes the first-stage norm band individually) while the
//!   shares sum back to the crafted gradient.
//! * [`AttackSpec::SybilFlood`] — many near-duplicate low-norm uploads that
//!   individually look benign but jointly steer the aggregate.
//! * [`AttackSpec::AdaptiveSearch`] — tunes its scale each round against the
//!   previous round's observed stage-1 acceptance rate. The only attack that
//!   carries numeric state; [`AttackState`] holds it and
//!   the round loop feeds acceptance
//!   verdicts back via [`AttackState::observe`].
//!
//! Stateful attacks draw from the same single `attack_rng` stream as the
//! memoryless ones (seed + `0xa77ac4`, cohort order), so the determinism
//! contract holds at any thread count. Like every attack that reads the
//! cohort ([`AttackSpec::reads_cohort`]) they see the round's raw uploads
//! before the defense folds them.

use dpbfl_stats::moments::coordinate_moments;
use dpbfl_stats::normal::{gaussian_vector, standard_normal_quantile};
use dpbfl_tensor::vecops;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which Byzantine attack the adversary mounts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// No Byzantine workers.
    None,
    /// Pure Gaussian noise uploads.
    Gaussian,
    /// Data poisoning: Byzantine workers run the honest protocol over
    /// label-flipped local data (handled by the simulation's worker setup).
    LabelFlip,
    /// Optimized Local Model Poisoning instantiated against the protocol.
    OptLmp,
    /// "A little is enough" coordinate-wise perturbation.
    ALittle,
    /// Negative-scaled mean (inner-product manipulation).
    InnerProduct {
        /// Magnitude of the sign-flipped mean (paper's ε parameter).
        scale: f64,
    },
    /// Behave honestly (copy a benign upload) until `ttbb·T`, then mount
    /// `inner`.
    Adaptive {
        /// Time-To-Be-Byzantine as a fraction of total iterations.
        ttbb: f64,
        /// The attack mounted after turning.
        inner: Box<AttackSpec>,
    },
    /// Run the honest protocol over honest local data until `turn_round`,
    /// then mount `inner`. Unlike [`AttackSpec::Adaptive`] (which *copies*
    /// honest uploads), the sleeper's pre-turn uploads are its own genuine
    /// protocol uploads — pre-turn rounds are bit-identical to a run where
    /// the sleepers are counted as honest workers.
    Sleeper {
        /// First round (0-based iteration index) in which `inner` is mounted.
        turn_round: usize,
        /// The payload attack mounted from `turn_round` on. Must be
        /// memoryless and must not require poisoned local data.
        inner: Box<AttackSpec>,
    },
    /// The Byzantine cohort alternates: in each period of `period` rounds it
    /// mounts `inner` for the first `duty` rounds, then blends in (copying
    /// honest uploads) for the rest.
    Oscillating {
        /// Cycle length in rounds (≥ 1).
        period: usize,
        /// Attacking rounds per cycle (1 ≤ duty ≤ period).
        duty: usize,
        /// The attack mounted during the active part of the cycle.
        inner: Box<AttackSpec>,
    },
    /// The colluders split one crafted malicious gradient `G` into
    /// `n_byzantine` shares. Each share is `(α·σ'·√d)·dir + uᵢ` where `dir`
    /// opposes the benign mean and the masks `uᵢ` are zero-sum Gaussian
    /// noise calibrated so every share's expected squared norm is exactly
    /// `σ'²d` — individually inside the first-stage norm band, jointly
    /// reconstructing `G = m·α·σ'·√d·dir`.
    Collusion {
        /// Fraction of each share's norm budget spent on the shared signal
        /// direction, in `(0, 1]`. Higher α ⇒ stronger steering but less
        /// noise-like shares.
        alpha: f64,
    },
    /// Sybil flood: every Byzantine upload is a near-duplicate
    /// `(scale·σ'·√d)·dir + jitterᵢ` of the same low-norm malicious base,
    /// jitter calibrated so each upload's expected squared norm is `σ'²d`.
    SybilFlood {
        /// Fraction of each upload's norm budget on the shared base, in
        /// `(0, 1]`. Near 1 ⇒ near-identical sybils.
        scale: f64,
    },
    /// Acceptance-rate-adaptive scale search: uploads `−scale·mean(benign)`
    /// like [`AttackSpec::InnerProduct`], but retunes `scale` after every
    /// round against the observed stage-1 acceptance rate (via
    /// [`AttackState::observe`] / [`adaptive_search_step`]).
    AdaptiveSearch {
        /// Scale used in round 0, before any feedback.
        init_scale: f64,
        /// Acceptance rate the search tries to stay above, in `[0, 1]`.
        target_accept: f64,
        /// Multiplicative step: scale ×= (1+step) when at/above target,
        /// ÷= (1+step) when below.
        step: f64,
    },
}

/// What local data the Byzantine members' own protocol runs use, i.e.
/// whether they participate as data workers at all and on what data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineData {
    /// Byzantine members run no protocol of their own (uploads are crafted
    /// purely from the attacker's omniscient view).
    None,
    /// Byzantine members run the honest protocol over label-flipped data.
    Flipped,
    /// Byzantine members run the honest protocol over *honest* data (the
    /// sleeper's cover phase).
    Honest,
}

impl AttackSpec {
    /// What local data the Byzantine members' own protocol runs use.
    pub fn byzantine_data(&self) -> ByzantineData {
        match self {
            AttackSpec::LabelFlip => ByzantineData::Flipped,
            AttackSpec::Adaptive { inner, .. } | AttackSpec::Oscillating { inner, .. } => {
                inner.byzantine_data()
            }
            AttackSpec::Sleeper { .. } => ByzantineData::Honest,
            _ => ByzantineData::None,
        }
    }

    /// True iff the Byzantine workers participate as data workers — i.e. run
    /// the honest protocol over their own local datasets (label-flipped for
    /// [`ByzantineData::Flipped`], honest for the sleeper's cover phase) so
    /// their protocol uploads exist for the attack to use.
    pub fn needs_poisoned_workers(&self) -> bool {
        self.byzantine_data() != ByzantineData::None
    }

    /// True iff crafting reads the round's uploads — the benign cohort's, or
    /// the Byzantine members' own protocol uploads it then replaces. Only
    /// pure noise, plain label-flip and "no attack" do not. This is the one
    /// input to *when* a two-stage round folds its uploads: such a round
    /// must collect them raw, craft, then fold; any other round folds each
    /// upload the moment it arrives. Never a user option.
    pub fn reads_cohort(&self) -> bool {
        !matches!(self, AttackSpec::None | AttackSpec::Gaussian | AttackSpec::LabelFlip)
    }

    /// True iff the attack's crafting depends on the round index or on state
    /// carried across rounds ([`AttackState`]). Stateful attacks cannot be
    /// nested inside another stateful attack.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            AttackSpec::Sleeper { .. }
                | AttackSpec::Oscillating { .. }
                | AttackSpec::AdaptiveSearch { .. }
        )
    }

    /// Structural validation of the spec's parameters, shared by the harness
    /// grid validator and asserted at the start of every run.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AttackSpec::Adaptive { ttbb, inner } => {
                if !ttbb.is_finite() || !(0.0..=1.0).contains(ttbb) {
                    return Err(format!("adaptive ttbb must be in [0, 1], got {ttbb}"));
                }
                inner.validate()
            }
            AttackSpec::Sleeper { inner, .. } => {
                if inner.is_stateful() {
                    return Err(format!(
                        "sleeper inner attack must be memoryless, got {}",
                        inner.name()
                    ));
                }
                if inner.byzantine_data() != ByzantineData::None {
                    return Err(format!(
                        "sleeper inner attack must not need poisoned local data \
                         (sleepers hold honest data), got {}",
                        inner.name()
                    ));
                }
                inner.validate()
            }
            AttackSpec::Oscillating { period, duty, inner } => {
                if *period == 0 {
                    return Err("oscillating period must be ≥ 1".into());
                }
                if *duty == 0 || duty > period {
                    return Err(format!(
                        "oscillating duty must satisfy 1 ≤ duty ≤ period, got {duty}/{period}"
                    ));
                }
                if inner.is_stateful() {
                    return Err(format!(
                        "oscillating inner attack must be memoryless, got {}",
                        inner.name()
                    ));
                }
                inner.validate()
            }
            AttackSpec::Collusion { alpha } => {
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0) {
                    return Err(format!("collusion alpha must be in (0, 1], got {alpha}"));
                }
                Ok(())
            }
            AttackSpec::SybilFlood { scale } => {
                if !(scale.is_finite() && *scale > 0.0 && *scale <= 1.0) {
                    return Err(format!("sybil-flood scale must be in (0, 1], got {scale}"));
                }
                Ok(())
            }
            AttackSpec::AdaptiveSearch { init_scale, target_accept, step } => {
                if !init_scale.is_finite() || *init_scale <= 0.0 {
                    return Err(format!(
                        "adaptive-search init_scale must be finite and > 0, got {init_scale}"
                    ));
                }
                if !target_accept.is_finite() || !(0.0..=1.0).contains(target_accept) {
                    return Err(format!(
                        "adaptive-search target_accept must be in [0, 1], got {target_accept}"
                    ));
                }
                if !step.is_finite() || *step <= 0.0 {
                    return Err(format!("adaptive-search step must be finite and > 0, got {step}"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            AttackSpec::None => "none".into(),
            AttackSpec::Gaussian => "gaussian".into(),
            AttackSpec::LabelFlip => "label-flip".into(),
            AttackSpec::OptLmp => "opt-lmp".into(),
            AttackSpec::ALittle => "a-little".into(),
            AttackSpec::InnerProduct { .. } => "inner-product".into(),
            AttackSpec::Adaptive { ttbb, inner } => format!("adaptive({ttbb},{})", inner.name()),
            AttackSpec::Sleeper { turn_round, inner } => {
                format!("sleeper({turn_round},{})", inner.name())
            }
            AttackSpec::Oscillating { period, duty, inner } => {
                format!("oscillating({period},{duty},{})", inner.name())
            }
            AttackSpec::Collusion { alpha } => format!("collusion({alpha})"),
            AttackSpec::SybilFlood { scale } => format!("sybil-flood({scale})"),
            AttackSpec::AdaptiveSearch { init_scale, target_accept, step } => {
                format!("adaptive-search({init_scale},{target_accept},{step})")
            }
        }
    }
}

/// One multiplicative step of the acceptance-rate search: grow the scale
/// while the defense still accepts at/above `target_accept`, back off when
/// it rejects more. Public so tests can replay the search trajectory from a
/// telemetry ledger and cross-check the two code paths bit-for-bit.
pub fn adaptive_search_step(scale: f64, rate: f64, target_accept: f64, step: f64) -> f64 {
    if rate >= target_accept {
        scale * (1.0 + step)
    } else {
        scale / (1.0 + step)
    }
}

/// Cross-round attacker state, created once per run by
/// the round loop and fed the defense's
/// observable output (stage-1 acceptance counts) after every round.
///
/// Only [`AttackSpec::AdaptiveSearch`] carries numeric state today; the
/// struct is the single place later stateful attacks extend.
#[derive(Debug, Clone)]
pub struct AttackState {
    search: Option<SearchState>,
}

#[derive(Debug, Clone)]
struct SearchState {
    scale: f64,
    target_accept: f64,
    step: f64,
}

impl AttackState {
    /// Initial state for a run of `spec`.
    pub fn new(spec: &AttackSpec) -> Self {
        let search = match spec {
            AttackSpec::AdaptiveSearch { init_scale, target_accept, step } => {
                Some(SearchState { scale: *init_scale, target_accept: *target_accept, step: *step })
            }
            _ => None,
        };
        AttackState { search }
    }

    /// The scale the attacker will use this round, if the attack carries one
    /// (recorded into the round's telemetry as `attack_scale`).
    pub fn round_scale(&self) -> Option<f64> {
        self.search.as_ref().map(|s| s.scale)
    }

    /// Feed back what the attacker observes after a round: how many of the
    /// cohort's uploads the defense accepted at stage 1.
    pub fn observe(&mut self, accepted: u64, cohort: u64) {
        if let Some(s) = &mut self.search {
            let rate = if cohort == 0 { 1.0 } else { accepted as f64 / cohort as f64 };
            s.scale = adaptive_search_step(s.scale, rate, s.target_accept, s.step);
        }
    }
}

/// Everything the omniscient attacker sees when crafting a round's uploads.
pub struct AttackContext<'a> {
    /// The honest workers' uploads this round.
    pub benign_uploads: &'a [Vec<f32>],
    /// Upload dimensionality `d`, carried explicitly so crafting works even
    /// when there is no benign or poisoned upload to infer it from (the
    /// 100 %-Byzantine cohorts of the extreme-majority grids).
    pub d: usize,
    /// Number of Byzantine uploads to produce.
    pub n_byzantine: usize,
    /// Effective per-coordinate DP noise std `σ' = σ/b_c` (protocol public).
    pub noise_std: f64,
    /// Current iteration (0-based).
    pub round: usize,
    /// Total iterations `T`.
    pub total_rounds: usize,
    /// Uploads computed by the Byzantine workers' own (label-flipped)
    /// protocol runs, when the attack needs them.
    pub poisoned_uploads: &'a [Vec<f32>],
}

/// Crafts this round's Byzantine uploads for a **memoryless** attack.
///
/// Thin wrapper over [`craft_uploads_stateful`] with a throwaway
/// [`AttackState`]; bit-identical to the pre-zoo behavior for every
/// memoryless attack. Callers running multi-round simulations must create
/// one [`AttackState`] per run and use [`craft_uploads_stateful`] so
/// [`AttackSpec::AdaptiveSearch`] sees its cross-round feedback.
pub fn craft_uploads<R: Rng + ?Sized>(
    spec: &AttackSpec,
    ctx: &AttackContext<'_>,
    rng: &mut R,
) -> Vec<Vec<f32>> {
    let mut state = AttackState::new(spec);
    craft_uploads_stateful(spec, ctx, &mut state, rng)
}

/// Crafts this round's Byzantine uploads.
///
/// Returns `n_byzantine` vectors. For [`AttackSpec::LabelFlip`] (and the
/// sleeper's cover phase) the Byzantine workers' own protocol uploads are
/// passed through unchanged.
///
/// Fully-Byzantine cohorts (`benign_uploads` empty) are valid input: the
/// statistics-based attacks (OptLMP, A-Little, inner-product, collusion,
/// sybil-flood, adaptive-search, the adaptive/oscillating honest phases)
/// have no honest uploads to leverage, so they degrade to their best
/// first-stage-passing strategy — pure DP-shaped Gaussian noise.
///
/// All randomness comes from the single `rng` stream passed in (the run's
/// `attack_rng`), with draws in cohort order, so crafting is deterministic
/// for a fixed seed at any thread count.
pub fn craft_uploads_stateful<R: Rng + ?Sized>(
    spec: &AttackSpec,
    ctx: &AttackContext<'_>,
    state: &mut AttackState,
    rng: &mut R,
) -> Vec<Vec<f32>> {
    if ctx.n_byzantine == 0 {
        return Vec::new();
    }
    let d = ctx.d;
    debug_assert!(
        ctx.benign_uploads.iter().chain(ctx.poisoned_uploads).all(|u| u.len() == d),
        "upload dimension disagrees with ctx.d"
    );
    match spec {
        AttackSpec::None => Vec::new(),
        AttackSpec::Gaussian => noise_uploads(ctx, rng),
        AttackSpec::LabelFlip => {
            assert_eq!(
                ctx.poisoned_uploads.len(),
                ctx.n_byzantine,
                "label-flip needs one poisoned worker per Byzantine slot"
            );
            ctx.poisoned_uploads.to_vec()
        }
        AttackSpec::OptLmp => {
            if ctx.benign_uploads.is_empty() {
                noise_uploads(ctx, rng)
            } else {
                opt_lmp(ctx)
            }
        }
        AttackSpec::ALittle => {
            if ctx.benign_uploads.is_empty() {
                noise_uploads(ctx, rng)
            } else {
                a_little(ctx)
            }
        }
        AttackSpec::InnerProduct { scale } => {
            if ctx.benign_uploads.is_empty() {
                return noise_uploads(ctx, rng);
            }
            let refs: Vec<&[f32]> = ctx.benign_uploads.iter().map(|u| u.as_slice()).collect();
            let mut mean = vecops::mean(&refs).expect("inner-product attack needs benign uploads");
            vecops::scale(&mut mean, -(*scale as f32));
            vec![mean; ctx.n_byzantine]
        }
        AttackSpec::Adaptive { ttbb, inner } => {
            if (ctx.round as f64) < ttbb * ctx.total_rounds as f64 {
                copy_benign(ctx, rng)
            } else {
                craft_uploads_stateful(inner, ctx, state, rng)
            }
        }
        AttackSpec::Sleeper { turn_round, inner } => {
            if ctx.round < *turn_round {
                // Cover phase: the sleepers' own honest-protocol uploads
                // pass through untouched (no RNG draw), so pre-turn rounds
                // are bit-identical to an all-honest run.
                assert_eq!(
                    ctx.poisoned_uploads.len(),
                    ctx.n_byzantine,
                    "sleeper needs one honest-data worker per Byzantine slot"
                );
                ctx.poisoned_uploads.to_vec()
            } else {
                craft_uploads_stateful(inner, ctx, state, rng)
            }
        }
        AttackSpec::Oscillating { period, duty, inner } => {
            if ctx.round % period < *duty {
                craft_uploads_stateful(inner, ctx, state, rng)
            } else {
                copy_benign(ctx, rng)
            }
        }
        AttackSpec::Collusion { alpha } => {
            if ctx.benign_uploads.is_empty() {
                noise_uploads(ctx, rng)
            } else {
                collusion_shares(ctx, *alpha, rng)
            }
        }
        AttackSpec::SybilFlood { scale } => {
            if ctx.benign_uploads.is_empty() {
                noise_uploads(ctx, rng)
            } else {
                sybil_flood(ctx, *scale, rng)
            }
        }
        AttackSpec::AdaptiveSearch { init_scale, .. } => {
            if ctx.benign_uploads.is_empty() {
                return noise_uploads(ctx, rng);
            }
            let scale = state.round_scale().unwrap_or(*init_scale);
            let refs: Vec<&[f32]> = ctx.benign_uploads.iter().map(|u| u.as_slice()).collect();
            let mut mean = vecops::mean(&refs).expect("adaptive-search needs benign uploads");
            vecops::scale(&mut mean, -(scale as f32));
            vec![mean; ctx.n_byzantine]
        }
    }
}

/// Blend-in phase shared by the TTBB-adaptive and oscillating attackers:
/// copy uploads of random honest workers (one draw per Byzantine slot, in
/// cohort order), degrading to protocol-shaped noise when there is nothing
/// to copy.
fn copy_benign<R: Rng + ?Sized>(ctx: &AttackContext<'_>, rng: &mut R) -> Vec<Vec<f32>> {
    if ctx.benign_uploads.is_empty() {
        return noise_uploads(ctx, rng);
    }
    (0..ctx.n_byzantine)
        .map(|_| {
            let i = rng.gen_range(0..ctx.benign_uploads.len());
            ctx.benign_uploads[i].clone()
        })
        .collect()
}

/// Unit vector opposing the benign mean — the steering direction shared by
/// the collusion and sybil-flood attacks. Falls back to the first coordinate
/// axis when the benign mean is (numerically) zero.
fn malicious_direction(ctx: &AttackContext<'_>) -> Vec<f32> {
    let refs: Vec<&[f32]> = ctx.benign_uploads.iter().map(|u| u.as_slice()).collect();
    let mut dir = vecops::mean(&refs).expect("malicious direction needs benign uploads");
    let norm = vecops::l2_norm(&dir);
    if norm > f32::EPSILON as f64 {
        vecops::scale(&mut dir, -(1.0 / norm) as f32);
    } else {
        dir.iter_mut().for_each(|v| *v = 0.0);
        dir[0] = -1.0;
    }
    dir
}

/// Split the crafted gradient `G = m·α·σ'·√d·dir` into `m` shares
/// `shareᵢ = (α·σ'·√d)·dir + uᵢ` with exactly zero-sum Gaussian masks `uᵢ`
/// (centered draws), mask std chosen so `E‖shareᵢ‖² = σ'²d` — every share
/// sits at the center of the first-stage norm band while the shares sum back
/// to `G` (exactly in ℝ, to f32 accumulation in practice).
fn collusion_shares<R: Rng + ?Sized>(
    ctx: &AttackContext<'_>,
    alpha: f64,
    rng: &mut R,
) -> Vec<Vec<f32>> {
    let m = ctx.n_byzantine;
    let dir = malicious_direction(ctx);
    let signal_norm = alpha * ctx.noise_std * (ctx.d as f64).sqrt();
    if m == 1 {
        // A lone colluder has no one to split with: spend the full norm
        // budget on the signal.
        let full = ctx.noise_std * (ctx.d as f64).sqrt();
        return vec![dir.iter().map(|&v| (full as f32) * v).collect()];
    }
    // Var(uᵢ) after centering m draws of std s is s²(1−1/m); choose s so the
    // mask variance per coordinate is σ'²(1−α²).
    let mask_std =
        ctx.noise_std * (1.0 - alpha * alpha).max(0.0).sqrt() * (m as f64 / (m - 1) as f64).sqrt();
    let raw: Vec<Vec<f32>> = (0..m).map(|_| gaussian_vector(rng, mask_std, ctx.d)).collect();
    let raw_refs: Vec<&[f32]> = raw.iter().map(|u| u.as_slice()).collect();
    let mask_mean = vecops::mean(&raw_refs).expect("m ≥ 2 masks");
    raw.iter()
        .map(|r| {
            dir.iter()
                .zip(r)
                .zip(&mask_mean)
                .map(|((&dv, &rv), &mv)| (signal_norm as f32) * dv + (rv - mv))
                .collect()
        })
        .collect()
}

/// `m` near-duplicate uploads `(scale·σ'·√d)·dir + jitterᵢ`, jitter std
/// `σ'·√(1−scale²)` so each upload's expected squared norm is `σ'²d` — each
/// sybil individually passes the first-stage norm band while the cohort's
/// mean stays pinned near the shared malicious base.
fn sybil_flood<R: Rng + ?Sized>(ctx: &AttackContext<'_>, scale: f64, rng: &mut R) -> Vec<Vec<f32>> {
    let dir = malicious_direction(ctx);
    let base_norm = scale * ctx.noise_std * (ctx.d as f64).sqrt();
    let jitter_std = ctx.noise_std * (1.0 - scale * scale).max(0.0).sqrt();
    (0..ctx.n_byzantine)
        .map(|_| {
            let jitter = gaussian_vector(rng, jitter_std, ctx.d);
            dir.iter().zip(&jitter).map(|(&dv, &jv)| (base_norm as f32) * dv + jv).collect()
        })
        .collect()
}

/// `n_byzantine` pure `N(0, σ'²I)` uploads — the Gaussian attack, and the
/// fallback every statistics-based attack degrades to when the cohort has no
/// honest uploads to exploit.
fn noise_uploads<R: Rng + ?Sized>(ctx: &AttackContext<'_>, rng: &mut R) -> Vec<Vec<f32>> {
    (0..ctx.n_byzantine).map(|_| gaussian_vector(rng, ctx.noise_std, ctx.d)).collect()
}

/// Eq. 8–10: every Byzantine upload is `−((1+λ)/Mₙ)·Σ_j g_{B_j}` with
/// `λ = Mₙ/√Bₘ − 1`, so the Byzantine sum is `−(1+λ)·Σ g_B` and the total
/// aggregate points opposite the benign sum, while each upload's coordinates
/// are distributed as `N(0, σ'²)` — passing the first stage.
///
/// The attack requires `Mₙ > √Bₘ` (λ > 0); otherwise the adversary's best
/// effort is the λ → 0⁺ version, which the paper notes cannot reverse the
/// aggregate.
fn opt_lmp(ctx: &AttackContext<'_>) -> Vec<Vec<f32>> {
    let refs: Vec<&[f32]> = ctx.benign_uploads.iter().map(|u| u.as_slice()).collect();
    let sum = vecops::sum(&refs).expect("opt-lmp needs benign uploads");
    let b_m = ctx.benign_uploads.len() as f64;
    let m_n = ctx.n_byzantine as f64;
    let lambda = (m_n / b_m.sqrt() - 1.0).max(0.0);
    let coef = -((1.0 + lambda) / m_n);
    let upload: Vec<f32> = sum.iter().map(|&s| (coef as f32) * s).collect();
    vec![upload; ctx.n_byzantine]
}

/// "A little is enough": with `n` total workers and `m` Byzantine, the
/// attacker needs `s = ⌊n/2⌋ + 1 − m` honest workers to side with its
/// uploads; it shifts each coordinate by `z_max` empirical standard
/// deviations where `z_max = Φ⁻¹((n − m − s)/(n − m))`.
fn a_little(ctx: &AttackContext<'_>) -> Vec<Vec<f32>> {
    let (mean, std) =
        coordinate_moments(&ctx.benign_uploads.iter().map(|u| u.as_slice()).collect::<Vec<_>>())
            .expect("a-little needs benign uploads");
    let m = ctx.n_byzantine;
    let n = ctx.benign_uploads.len() + m;
    let s = (n / 2 + 1).saturating_sub(m);
    let honest = n - m;
    let z = if s == 0 || s >= honest {
        1.0 // degenerate regimes: fall back to a one-σ shift
    } else {
        let p = (honest - s) as f64 / honest as f64;
        standard_normal_quantile(p.clamp(1e-6, 1.0 - 1e-6))
    };
    let upload: Vec<f32> = mean.iter().zip(&std).map(|(&mu, &sd)| (mu - z * sd) as f32).collect();
    vec![upload; m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const D: usize = 4096;
    const STD: f64 = 0.05;

    fn benign(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gaussian_vector(&mut rng, STD, D)).collect()
    }

    fn ctx<'a>(benign: &'a [Vec<f32>], n_byz: usize) -> AttackContext<'a> {
        AttackContext {
            benign_uploads: benign,
            d: D,
            n_byzantine: n_byz,
            noise_std: STD,
            round: 0,
            total_rounds: 100,
            poisoned_uploads: &[],
        }
    }

    #[test]
    fn gaussian_attack_matches_noise_statistics() {
        let b = benign(4, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let ups = craft_uploads(&AttackSpec::Gaussian, &ctx(&b, 3), &mut rng);
        assert_eq!(ups.len(), 3);
        for u in &ups {
            let norm_sq = vecops::l2_norm_sq(u);
            let expected = STD * STD * D as f64;
            assert!((norm_sq / expected - 1.0).abs() < 0.15);
        }
    }

    #[test]
    fn opt_lmp_reverses_the_aggregate() {
        // With Mₙ > √Bₘ the total sum must point opposite the benign sum.
        let b = benign(9, 2); // √9 = 3
        let mut rng = StdRng::seed_from_u64(3);
        let ups = craft_uploads(&AttackSpec::OptLmp, &ctx(&b, 6), &mut rng);
        assert_eq!(ups.len(), 6);
        let refs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let benign_sum = vecops::sum(&refs).expect("non-empty");
        let mut total = benign_sum.clone();
        for u in &ups {
            vecops::axpy(1.0, u, &mut total);
        }
        let cos = vecops::cosine_similarity(&total, &benign_sum);
        assert!(cos < -0.9, "aggregate not reversed (cos = {cos})");
    }

    #[test]
    fn opt_lmp_upload_norm_matches_noise() {
        // The crafted upload is −(1/√Bₘ)·Σ g_B: its norm must match a single
        // noise vector's, which is what lets it pass the first stage.
        let b = benign(16, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let ups = craft_uploads(&AttackSpec::OptLmp, &ctx(&b, 8), &mut rng);
        let norm_sq = vecops::l2_norm_sq(&ups[0]);
        let expected = STD * STD * D as f64;
        // λ = 8/4 − 1 = 1 ⇒ coefficient (1+λ)/Mₙ = 2/8 = 1/4 = 1/√16. ✓
        assert!((norm_sq / expected - 1.0).abs() < 0.2, "norm_sq={norm_sq} vs {expected}");
    }

    #[test]
    fn a_little_stays_within_spread() {
        let b = benign(10, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let ups = craft_uploads(&AttackSpec::ALittle, &ctx(&b, 4), &mut rng);
        assert_eq!(ups.len(), 4);
        // Colluding workers upload identically.
        assert_eq!(ups[0], ups[1]);
        // The shift is a bounded multiple of the coordinate spread.
        let norm = vecops::l2_norm(&ups[0]);
        let noise_norm = STD * (D as f64).sqrt();
        assert!(norm < 3.0 * noise_norm, "a-little shifted too far: {norm}");
    }

    #[test]
    fn inner_product_points_against_mean() {
        let b = benign(5, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let ups = craft_uploads(&AttackSpec::InnerProduct { scale: 10.0 }, &ctx(&b, 2), &mut rng);
        let refs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let mean = vecops::mean(&refs).expect("non-empty");
        assert!(vecops::cosine_similarity(&ups[0], &mean) < -0.99);
    }

    #[test]
    fn adaptive_copies_then_turns() {
        let b = benign(6, 10);
        let spec = AttackSpec::Adaptive { ttbb: 0.5, inner: Box::new(AttackSpec::Gaussian) };
        let mut rng = StdRng::seed_from_u64(11);
        // Round 10 of 100 < 50: copies.
        let mut early_ctx = ctx(&b, 2);
        early_ctx.round = 10;
        let early = craft_uploads(&spec, &early_ctx, &mut rng);
        assert!(b.contains(&early[0]), "early adaptive upload is not a copy");
        // Round 60 of 100 ≥ 50: fresh Gaussian, not a copy.
        let mut late_ctx = ctx(&b, 2);
        late_ctx.round = 60;
        let late = craft_uploads(&spec, &late_ctx, &mut rng);
        assert!(!b.contains(&late[0]), "late adaptive upload should not be a copy");
    }

    #[test]
    fn zero_byzantine_returns_empty() {
        let b = benign(3, 12);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(craft_uploads(&AttackSpec::Gaussian, &ctx(&b, 0), &mut rng).is_empty());
    }

    #[test]
    fn fully_byzantine_cohort_never_panics() {
        // Regression: with `n_honest = 0` the old code panicked inferring the
        // dimension (Gaussian) or calling `gen_range(0..0)` (the adaptive
        // honest phase). Every statistics-based attack must instead fall back
        // to d-dimensional protocol-shaped noise.
        let empty: Vec<Vec<f32>> = Vec::new();
        let specs = [
            AttackSpec::Gaussian,
            AttackSpec::OptLmp,
            AttackSpec::ALittle,
            AttackSpec::InnerProduct { scale: 5.0 },
            AttackSpec::Adaptive { ttbb: 0.9, inner: Box::new(AttackSpec::OptLmp) },
        ];
        for spec in specs {
            let mut rng = StdRng::seed_from_u64(21);
            let ups = craft_uploads(&spec, &ctx(&empty, 4), &mut rng);
            assert_eq!(ups.len(), 4, "{}", spec.name());
            for u in &ups {
                assert_eq!(u.len(), D, "{}", spec.name());
                assert!(u.iter().all(|v| v.is_finite()), "{}", spec.name());
                // The fallback is genuine noise at the protocol's σ', so it
                // would pass the first-stage norm test.
                let norm_sq = vecops::l2_norm_sq(u);
                let expected = STD * STD * D as f64;
                assert!((norm_sq / expected - 1.0).abs() < 0.2, "{}: {norm_sq}", spec.name());
            }
        }
    }

    #[test]
    fn adaptive_post_turn_label_flip_still_uses_poisoned_uploads() {
        // The 100%-Byzantine label-flip path: no benign uploads, but the
        // poisoned workers' own protocol uploads are present and must pass
        // through after the turn.
        let poisoned = benign(3, 30); // stand-in protocol uploads
        let spec = AttackSpec::Adaptive { ttbb: 0.5, inner: Box::new(AttackSpec::LabelFlip) };
        let mut rng = StdRng::seed_from_u64(31);
        let mut late = AttackContext {
            benign_uploads: &[],
            d: D,
            n_byzantine: 3,
            noise_std: STD,
            round: 60,
            total_rounds: 100,
            poisoned_uploads: &poisoned,
        };
        assert_eq!(craft_uploads(&spec, &late, &mut rng), poisoned);
        // Before the turn, with nothing to copy: noise, not a panic.
        late.round = 10;
        let early = craft_uploads(&spec, &late, &mut rng);
        assert_eq!(early.len(), 3);
        assert!(!poisoned.contains(&early[0]));
    }

    #[test]
    fn needs_poisoned_workers_propagates_through_adaptive() {
        assert!(AttackSpec::LabelFlip.needs_poisoned_workers());
        assert!(AttackSpec::Adaptive { ttbb: 0.2, inner: Box::new(AttackSpec::LabelFlip) }
            .needs_poisoned_workers());
        assert!(!AttackSpec::Gaussian.needs_poisoned_workers());
    }

    #[test]
    fn byzantine_data_modes() {
        use ByzantineData::*;
        assert_eq!(AttackSpec::LabelFlip.byzantine_data(), Flipped);
        assert_eq!(
            AttackSpec::Sleeper { turn_round: 3, inner: Box::new(AttackSpec::Gaussian) }
                .byzantine_data(),
            Honest
        );
        assert_eq!(
            AttackSpec::Oscillating { period: 2, duty: 1, inner: Box::new(AttackSpec::LabelFlip) }
                .byzantine_data(),
            Flipped
        );
        assert_eq!(AttackSpec::Collusion { alpha: 0.8 }.byzantine_data(), None);
        // Sleepers and flipped workers both participate as data workers.
        assert!(AttackSpec::Sleeper { turn_round: 3, inner: Box::new(AttackSpec::Gaussian) }
            .needs_poisoned_workers());
    }

    #[test]
    fn sleeper_passes_through_cover_uploads_then_turns() {
        let cover = benign(3, 40); // stand-in honest-protocol uploads
        let b = benign(4, 41);
        let spec = AttackSpec::Sleeper { turn_round: 5, inner: Box::new(AttackSpec::Gaussian) };
        let mut rng = StdRng::seed_from_u64(42);
        let mut c = AttackContext {
            benign_uploads: &b,
            d: D,
            n_byzantine: 3,
            noise_std: STD,
            round: 4,
            total_rounds: 100,
            poisoned_uploads: &cover,
        };
        // Pre-turn: exact pass-through, no RNG consumed.
        let before = rng.clone();
        assert_eq!(craft_uploads(&spec, &c, &mut rng), cover);
        let mut probe_a = before.clone();
        let mut probe_b = rng.clone();
        assert_eq!(probe_a.gen_range(0..u64::MAX), probe_b.gen_range(0..u64::MAX));
        // At the turn round: the payload, not the cover uploads.
        c.round = 5;
        let late = craft_uploads(&spec, &c, &mut rng);
        assert_eq!(late.len(), 3);
        assert!(!cover.contains(&late[0]));
    }

    #[test]
    fn oscillating_alternates_per_duty_cycle() {
        let b = benign(5, 50);
        let spec = AttackSpec::Oscillating {
            period: 3,
            duty: 1,
            inner: Box::new(AttackSpec::InnerProduct { scale: 8.0 }),
        };
        let mut rng = StdRng::seed_from_u64(51);
        for round in 0..6 {
            let mut c = ctx(&b, 2);
            c.round = round;
            let ups = craft_uploads(&spec, &c, &mut rng);
            if round % 3 == 0 {
                // Active: the inner-product payload, not a copy.
                assert!(!b.contains(&ups[0]), "round {round} should attack");
            } else {
                // Dormant: a verbatim copy of an honest upload.
                assert!(b.contains(&ups[0]), "round {round} should blend in");
            }
        }
    }

    #[test]
    fn collusion_shares_reconstruct_and_stay_in_band() {
        let b = benign(6, 60);
        let alpha = 0.85;
        let m = 5;
        let mut rng = StdRng::seed_from_u64(61);
        let ups = craft_uploads(&AttackSpec::Collusion { alpha }, &ctx(&b, m), &mut rng);
        assert_eq!(ups.len(), m);
        // Each share's norm² sits near σ'²d (inside the first-stage band).
        let expected = STD * STD * D as f64;
        for u in &ups {
            let norm_sq = vecops::l2_norm_sq(u);
            assert!((norm_sq / expected - 1.0).abs() < 0.2, "share norm_sq {norm_sq}");
        }
        // The shares sum to the crafted gradient m·α·σ'·√d·dir: the masks
        // cancel exactly, so the sum's norm is the signal's.
        let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
        let sum = vecops::sum(&refs).expect("non-empty");
        let sum_norm = vecops::l2_norm(&sum);
        let signal_norm = m as f64 * alpha * STD * (D as f64).sqrt();
        assert!(
            (sum_norm / signal_norm - 1.0).abs() < 1e-3,
            "sum norm {sum_norm} vs crafted {signal_norm}"
        );
        // And it points against the benign mean.
        let brefs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let mean = vecops::mean(&brefs).expect("non-empty");
        assert!(vecops::cosine_similarity(&sum, &mean) < -0.99);
    }

    #[test]
    fn lone_colluder_spends_full_norm_budget() {
        let b = benign(4, 62);
        let mut rng = StdRng::seed_from_u64(63);
        let ups = craft_uploads(&AttackSpec::Collusion { alpha: 0.5 }, &ctx(&b, 1), &mut rng);
        let norm = vecops::l2_norm(&ups[0]);
        let budget = STD * (D as f64).sqrt();
        assert!((norm / budget - 1.0).abs() < 1e-5, "lone share norm {norm} vs {budget}");
    }

    #[test]
    fn sybil_flood_uploads_are_near_duplicates_in_band() {
        let b = benign(5, 70);
        let scale = 0.95;
        let mut rng = StdRng::seed_from_u64(71);
        let ups = craft_uploads(&AttackSpec::SybilFlood { scale }, &ctx(&b, 6), &mut rng);
        assert_eq!(ups.len(), 6);
        let expected = STD * STD * D as f64;
        for u in &ups {
            let norm_sq = vecops::l2_norm_sq(u);
            assert!((norm_sq / expected - 1.0).abs() < 0.2, "sybil norm_sq {norm_sq}");
        }
        // Near-duplicates: pairwise cosine similarity close to 1, and all
        // point against the benign mean.
        let brefs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let mean = vecops::mean(&brefs).expect("non-empty");
        for u in &ups {
            assert!(vecops::cosine_similarity(u, &ups[0]) > 0.8);
            assert!(vecops::cosine_similarity(u, &mean) < -0.8);
        }
    }

    #[test]
    fn adaptive_search_uses_state_scale_and_steps_on_feedback() {
        let b = benign(4, 80);
        let spec = AttackSpec::AdaptiveSearch { init_scale: 2.0, target_accept: 0.9, step: 0.25 };
        let mut state = AttackState::new(&spec);
        let mut rng = StdRng::seed_from_u64(81);
        let brefs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let mean = vecops::mean(&brefs).expect("non-empty");
        // Round 0: scale = init_scale.
        let ups = craft_uploads_stateful(&spec, &ctx(&b, 2), &mut state, &mut rng);
        let expect: Vec<f32> = mean.iter().map(|&v| -2.0 * v).collect();
        assert_eq!(ups[0], expect);
        // Full acceptance ⇒ scale grows by (1+step).
        state.observe(6, 6);
        assert_eq!(state.round_scale(), Some(2.0 * 1.25));
        let ups = craft_uploads_stateful(&spec, &ctx(&b, 2), &mut state, &mut rng);
        let expect: Vec<f32> = mean.iter().map(|&v| (-(2.0 * 1.25) as f32) * v).collect();
        assert_eq!(ups[0], expect);
        // Below-target acceptance ⇒ scale backs off.
        state.observe(2, 6);
        assert_eq!(state.round_scale(), Some(2.0 * 1.25 / 1.25));
        // The step function is the exact exported primitive.
        assert_eq!(adaptive_search_step(2.0, 1.0, 0.9, 0.25), 2.5);
        assert_eq!(adaptive_search_step(2.5, 0.5, 0.9, 0.25), 2.0);
    }

    #[test]
    fn validate_rejects_malformed_zoo_specs() {
        let bad = [
            AttackSpec::Oscillating { period: 0, duty: 0, inner: Box::new(AttackSpec::Gaussian) },
            AttackSpec::Oscillating { period: 2, duty: 3, inner: Box::new(AttackSpec::Gaussian) },
            AttackSpec::Oscillating { period: 2, duty: 0, inner: Box::new(AttackSpec::Gaussian) },
            AttackSpec::Sleeper {
                turn_round: 1,
                inner: Box::new(AttackSpec::Sleeper {
                    turn_round: 2,
                    inner: Box::new(AttackSpec::Gaussian),
                }),
            },
            AttackSpec::Sleeper { turn_round: 1, inner: Box::new(AttackSpec::LabelFlip) },
            AttackSpec::Collusion { alpha: 0.0 },
            AttackSpec::Collusion { alpha: 1.5 },
            AttackSpec::SybilFlood { scale: f64::NAN },
            AttackSpec::AdaptiveSearch { init_scale: 0.0, target_accept: 0.9, step: 0.25 },
            AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 1.5, step: 0.25 },
            AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.9, step: 0.0 },
            AttackSpec::Adaptive { ttbb: -0.1, inner: Box::new(AttackSpec::Gaussian) },
            AttackSpec::Adaptive {
                ttbb: 0.5,
                inner: Box::new(AttackSpec::Collusion { alpha: 2.0 }),
            },
        ];
        for spec in &bad {
            assert!(spec.validate().is_err(), "{} should fail validation", spec.name());
        }
        let good = [
            AttackSpec::None,
            AttackSpec::Sleeper { turn_round: 3, inner: Box::new(AttackSpec::OptLmp) },
            AttackSpec::Oscillating { period: 2, duty: 2, inner: Box::new(AttackSpec::LabelFlip) },
            AttackSpec::Collusion { alpha: 1.0 },
            AttackSpec::SybilFlood { scale: 0.9 },
            AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.9, step: 0.25 },
        ];
        for spec in &good {
            assert!(spec.validate().is_ok(), "{} should pass validation", spec.name());
        }
    }

    #[test]
    fn zoo_specs_round_trip_through_serde() {
        let specs = [
            AttackSpec::Sleeper {
                turn_round: 4,
                inner: Box::new(AttackSpec::InnerProduct { scale: 5.0 }),
            },
            AttackSpec::Oscillating { period: 2, duty: 1, inner: Box::new(AttackSpec::OptLmp) },
            AttackSpec::Collusion { alpha: 0.8 },
            AttackSpec::SybilFlood { scale: 0.95 },
            AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.9, step: 0.25 },
        ];
        for spec in &specs {
            let json = serde_json::to_string(spec).expect("serialize");
            let back: AttackSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(&back, spec, "{json}");
        }
    }

    #[test]
    fn stateless_wrapper_matches_stateful_for_memoryless_attacks() {
        let b = benign(5, 90);
        let specs = [
            AttackSpec::Gaussian,
            AttackSpec::OptLmp,
            AttackSpec::InnerProduct { scale: 5.0 },
            AttackSpec::Collusion { alpha: 0.8 },
            AttackSpec::SybilFlood { scale: 0.9 },
        ];
        for spec in &specs {
            let mut rng_a = StdRng::seed_from_u64(91);
            let mut rng_b = StdRng::seed_from_u64(91);
            let mut state = AttackState::new(spec);
            assert_eq!(
                craft_uploads(spec, &ctx(&b, 3), &mut rng_a),
                craft_uploads_stateful(spec, &ctx(&b, 3), &mut state, &mut rng_b),
                "{}",
                spec.name()
            );
        }
    }
}
