//! The remaining Table-1 comparators: Bulyan and FLTrust.
//!
//! * **Bulyan** [Guerraoui & Rouault 2018] runs Krum repeatedly to build a
//!   selection set of `n − 2f` uploads, then applies a trimmed
//!   coordinate-wise aggregation around the per-coordinate median. It
//!   tightens Krum's guarantee but still requires `n ≥ 4f + 3` — an honest
//!   *super*majority, so it breaks at ≥50 % Byzantine like the rest.
//! * **FLTrust** [Cao et al. 2020] is the closest prior use of server-side
//!   auxiliary data: each upload is weighted by the ReLU-clipped **cosine**
//!   similarity to the server gradient and rescaled to the server gradient's
//!   norm. The paper's Table 1 credits it with >50 % resilience but no DP;
//!   its §4.5 argues that under DP noise, cosine scores and real-valued
//!   weights bias the aggregate — the ablation bench measures exactly that.

use dpbfl_tensor::vecops;

/// Bulyan aggregation. Requires `uploads.len() ≥ 4f + 3` for its guarantee;
/// this implementation degrades gracefully below that (selection set shrinks
/// to at least one) so the failure *mode* can be measured rather than
/// asserted away.
pub fn bulyan(uploads: &[&[f32]], f: usize) -> Vec<f32> {
    let n = uploads.len();
    assert!(n >= 1, "bulyan needs at least one upload");
    let d = uploads[0].len();

    // Phase 1: iterated Krum builds the selection set S (|S| = n − 2f,
    // clamped to [1, n]).
    let select_count = n.saturating_sub(2 * f).max(1);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut selected: Vec<usize> = Vec::with_capacity(select_count);
    while selected.len() < select_count && !remaining.is_empty() {
        let views: Vec<&[f32]> = remaining.iter().map(|&i| uploads[i]).collect();
        let chosen = krum_index(&views, f);
        selected.push(remaining[chosen]);
        remaining.swap_remove(chosen);
    }

    // Phase 2: per coordinate, average the β = |S| − 2f values closest to
    // the median (clamped to at least one).
    let beta = selected.len().saturating_sub(2 * f).max(1);
    let mut out = vec![0.0f32; d];
    let mut column: Vec<f32> = Vec::with_capacity(selected.len());
    for j in 0..d {
        column.clear();
        column.extend(selected.iter().map(|&i| uploads[i][j]));
        column.sort_unstable_by(f32::total_cmp);
        let median = column[column.len() / 2];
        column.sort_unstable_by(|a, b| (a - median).abs().total_cmp(&(b - median).abs()));
        let sum: f64 = column[..beta].iter().map(|&v| v as f64).sum();
        out[j] = (sum / beta as f64) as f32;
    }
    out
}

/// Index-returning Krum used by Bulyan's selection loop.
fn krum_index(uploads: &[&[f32]], f: usize) -> usize {
    let n = uploads.len();
    let k = n.saturating_sub(f + 2).clamp(1, n.saturating_sub(1).max(1));
    let mut best = (0usize, f64::INFINITY);
    for i in 0..n {
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| vecops::l2_dist_sq(uploads[i], uploads[j]))
            .collect();
        dists.sort_unstable_by(f64::total_cmp);
        let score: f64 = dists.iter().take(k.min(dists.len())).sum();
        if score < best.1 {
            best = (i, score);
        }
    }
    best.0
}

/// FLTrust aggregation: trust score `TS_i = ReLU(cos(g_i, g_s))`, each upload
/// rescaled to the server gradient's norm, combined as a TS-weighted average.
/// Returns the zero vector when every trust score vanishes.
pub fn fltrust(uploads: &[&[f32]], server_grad: &[f32]) -> Vec<f32> {
    assert!(!uploads.is_empty(), "fltrust needs at least one upload");
    let d = server_grad.len();
    let server_norm = vecops::l2_norm(server_grad);
    let mut acc = vec![0.0f64; d];
    let mut ts_sum = 0.0f64;
    for u in uploads {
        debug_assert_eq!(u.len(), d);
        let ts = vecops::cosine_similarity(u, server_grad).max(0.0);
        if ts == 0.0 {
            continue;
        }
        ts_sum += ts;
        // Norm-rescale the upload to the server gradient's magnitude.
        let u_norm = vecops::l2_norm(u);
        if u_norm == 0.0 {
            continue;
        }
        let scale = ts * server_norm / u_norm;
        for (a, &x) in acc.iter_mut().zip(*u) {
            *a += scale * x as f64;
        }
    }
    if ts_sum == 0.0 {
        return vec![0.0; d];
    }
    acc.into_iter().map(|a| (a / ts_sum) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulyan_resists_minority_outliers() {
        // 7 honest near (1,1), 1 Byzantine far away; f = 1 satisfies
        // n ≥ 4f + 3.
        let honest: Vec<Vec<f32>> =
            (0..7).map(|i| vec![1.0 + 0.01 * i as f32, 1.0 - 0.01 * i as f32]).collect();
        let mut ups: Vec<&[f32]> = honest.iter().map(|v| v.as_slice()).collect();
        let outlier = vec![1000.0f32, -1000.0];
        ups.push(&outlier);
        let out = bulyan(&ups, 1);
        assert!((out[0] - 1.0).abs() < 0.1 && (out[1] - 1.0).abs() < 0.1, "{out:?}");
    }

    #[test]
    fn bulyan_fails_under_byzantine_majority() {
        // 2 honest vs 6 colluders: the selection set is captured.
        let honest = [vec![1.0f32, 1.0], vec![1.1f32, 0.9]];
        let byz: Vec<Vec<f32>> = (0..6).map(|i| vec![-50.0 - i as f32 * 0.01, -50.0]).collect();
        let mut ups: Vec<&[f32]> = honest.iter().map(|v| v.as_slice()).collect();
        ups.extend(byz.iter().map(|v| v.as_slice()));
        let out = bulyan(&ups, 2);
        assert!(out[0] < -40.0, "bulyan unexpectedly resisted a majority: {out:?}");
    }

    #[test]
    fn bulyan_of_identical_uploads_is_that_upload() {
        let v = vec![0.5f32, -0.25, 3.0];
        let ups: Vec<&[f32]> = (0..5).map(|_| v.as_slice()).collect();
        let out = bulyan(&ups, 1);
        for (a, b) in out.iter().zip(&v) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fltrust_downweights_opposed_uploads() {
        let server = vec![1.0f32, 0.0];
        let aligned = vec![2.0f32, 0.0];
        let opposed = vec![-2.0f32, 0.0];
        let out = fltrust(&[&aligned, &opposed], &server);
        // Opposed upload has ReLU(cos) = 0; aligned is rescaled to ‖g_s‖.
        assert!((out[0] - 1.0).abs() < 1e-5, "{out:?}");
    }

    #[test]
    fn fltrust_rescales_to_server_norm() {
        let server = vec![3.0f32, 4.0]; // norm 5
        let big = vec![30.0f32, 40.0]; // same direction, norm 50
        let out = fltrust(&[&big], &server);
        let norm = vecops::l2_norm(&out);
        assert!((norm - 5.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn fltrust_with_all_opposed_returns_zero() {
        let server = vec![1.0f32, 0.0];
        let a = vec![-1.0f32, 0.0];
        let b = vec![-2.0f32, 0.1];
        let out = fltrust(&[&a, &b], &server);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fltrust_weighted_average_of_mixed_uploads() {
        let server = vec![1.0f32, 0.0];
        let a = vec![1.0f32, 0.0]; // cos 1
        let b = vec![0.0f32, 1.0]; // cos 0 → dropped
        let out = fltrust(&[&a, &b], &server);
        assert!((out[0] - 1.0).abs() < 1e-5 && out[1].abs() < 1e-5);
    }
}
