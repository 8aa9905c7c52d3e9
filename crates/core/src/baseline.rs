//! The \[77\]/\[43\]-style sign-compression DP baseline the paper compares
//! against: workers upload randomized per-coordinate gradient *signs*
//! ([`crate::worker::DpWorker::sign_step`]); the server takes a
//! coordinate-wise majority vote ([`majority_vote`]) and steps along it. A
//! [`crate::simulation::WorkerProtocol::SignDp`] config runs through the one
//! round loop like every other protocol; its undefended server rule is the
//! vote. The baseline's worst case, Byzantine workers that invert the honest
//! majority, is [`crate::attack::AttackSpec::InnerProduct`] at scale 1: its
//! upload `−mean(benign)` votes `−sgn(Σ honest)` on every coordinate. With
//! ≥50 % Byzantine workers the majority flips, which is exactly the failure
//! mode Table 1 records.
//!
//! (The \[30\]-style baseline, clipping DP-SGD plus an off-the-shelf robust
//! rule, is a config with
//! [`crate::simulation::WorkerProtocol::ClippedDp`] and
//! [`crate::simulation::DefenseKind::Robust`].)

/// Flip probability `p = 1/(e^{ε₀} + 1)` for a per-round, per-coordinate
/// randomized-response privacy level ε₀.
pub fn flip_prob_for_epsilon(eps0: f64) -> f64 {
    assert!(eps0 > 0.0);
    1.0 / (eps0.exp() + 1.0)
}

/// The coordinate-wise majority vote `signum(Σ_i sgn(u_i))` of `uploads`,
/// with `sgn(0) = 0`: each upload votes its sign, whatever its magnitude,
/// and a zero (a member that never delivered) or NaN coordinate casts no
/// vote. A tied coordinate is 0.
pub fn majority_vote(uploads: &[&[f32]]) -> Vec<f32> {
    let mut tally = vec![0i32; uploads.first().map_or(0, |u| u.len())];
    for upload in uploads {
        for (t, &x) in tally.iter_mut().zip(*upload) {
            *t += (x > 0.0) as i32 - (x < 0.0) as i32;
        }
    }
    tally.into_iter().map(|t| t.signum() as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackSpec;
    use crate::simulation::{run, ModelKind, RunResult, SimulationConfig, WorkerProtocol};
    use dpbfl_data::SyntheticSpec;

    fn sign_dp_run(n_byz: usize) -> RunResult {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 128;
        cfg.test_count = 200;
        cfg.n_honest = 6;
        cfg.n_byzantine = n_byz;
        cfg.seed = 3;
        cfg.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: flip_prob_for_epsilon(1.0) };
        cfg.attack = AttackSpec::InnerProduct { scale: 1.0 };
        run(&cfg)
    }

    #[test]
    fn flip_prob_formula() {
        // ε₀ = 0 would be p = 1/2; ε₀ → ∞ gives p → 0.
        assert!((flip_prob_for_epsilon(1.0) - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12);
        assert!(flip_prob_for_epsilon(8.0) < 0.001);
    }

    #[test]
    fn majority_vote_counts_signs_not_magnitudes() {
        let (a, b, c) = ([5.0, -1.0, 0.0, 2.0], [-0.1, -3.0, 0.0, -2.0], [-0.2, 7.0, -0.0, 0.0]);
        let vote = majority_vote(&[&a, &b, &c]);
        // One large positive loses to two small negatives; zeros abstain.
        assert_eq!(vote, [-1.0, -1.0, 0.0, 0.0]);
        assert!(majority_vote(&[]).is_empty());
    }

    #[test]
    fn honest_sign_dp_learns_something() {
        let r = sign_dp_run(0);
        assert!(r.final_accuracy > 0.3, "sign-DP failed to learn: {}", r.final_accuracy);
    }

    #[test]
    fn byzantine_majority_destroys_sign_dp() {
        // 7 byzantine vs 6 honest, each inverting the honest majority: the
        // vote flips and accuracy collapses to chance — the paper's Table 1
        // "✗ at >50%" entry.
        let honest = sign_dp_run(0);
        let attacked = sign_dp_run(7);
        assert!(
            attacked.final_accuracy < honest.final_accuracy - 0.1,
            "sign-DP unexpectedly survived a Byzantine majority: {} vs {}",
            attacked.final_accuracy,
            honest.final_accuracy
        );
    }
}
