//! Baseline Byzantine-robust aggregation rules (paper §3.2 and supp. A.3).
//!
//! These are the comparators the paper tabulates in Table 1: Krum, RFA
//! (geometric median), coordinate-wise median, and trimmed mean — all of which
//! break once Byzantine workers reach a majority — plus the plain FedAvg mean
//! (no robustness at all).

use dpbfl_tensor::vecops;
use serde::{Deserialize, Serialize};

/// Which aggregation rule to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregatorKind {
    /// Plain arithmetic mean (FedAvg).
    Mean,
    /// Krum [Blanchard et al. 2017] with an assumed Byzantine count `f`.
    Krum {
        /// Expected number of Byzantine uploads.
        f: usize,
    },
    /// Coordinate-wise median [Yin et al. 2018].
    CoordinateMedian,
    /// Trimmed mean [Yin et al. 2018]: drop `trim` largest and smallest
    /// values per coordinate.
    TrimmedMean {
        /// Values trimmed from each end, per coordinate.
        trim: usize,
    },
    /// RFA / geometric median [Pillutla et al. 2019] via Weiszfeld iteration.
    GeometricMedian,
    /// Bulyan [Guerraoui & Rouault 2018]: iterated Krum selection + trimmed
    /// aggregation around the median.
    Bulyan {
        /// Expected number of Byzantine uploads.
        f: usize,
    },
}

impl AggregatorKind {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match *self {
            AggregatorKind::Mean => "mean".into(),
            AggregatorKind::Krum { f } => format!("krum(f={f})"),
            AggregatorKind::CoordinateMedian => "coord-median".into(),
            AggregatorKind::TrimmedMean { trim } => format!("trimmed-mean({trim})"),
            AggregatorKind::GeometricMedian => "geo-median".into(),
            AggregatorKind::Bulyan { f } => format!("bulyan(f={f})"),
        }
    }

    /// Runs the rule over `uploads` (all the same length).
    pub fn aggregate(&self, uploads: &[Vec<f32>]) -> Vec<f32> {
        assert!(!uploads.is_empty(), "cannot aggregate zero uploads");
        let refs: Vec<&[f32]> = uploads.iter().map(|u| u.as_slice()).collect();
        match *self {
            AggregatorKind::Mean => vecops::mean(&refs).expect("non-empty"),
            AggregatorKind::Krum { f } => krum(&refs, f).to_vec(),
            AggregatorKind::CoordinateMedian => coordinate_median(&refs),
            AggregatorKind::TrimmedMean { trim } => trimmed_mean(&refs, trim),
            AggregatorKind::GeometricMedian => geometric_median(&refs, 100, 1e-7),
            AggregatorKind::Bulyan { f } => crate::aggregator_ext::bulyan(&refs, f),
        }
    }
}

/// Krum: returns the upload minimizing the sum of squared distances to its
/// `n − f − 2` nearest neighbours.
pub fn krum<'a>(uploads: &[&'a [f32]], f: usize) -> &'a [f32] {
    assert!(!uploads.is_empty(), "krum needs at least one upload");
    uploads[krum_index(uploads, f)]
}

/// The index of the upload [`krum`] returns (Bulyan's selection loop
/// removes it from its candidates); the first one on a tied score.
pub(crate) fn krum_index(uploads: &[&[f32]], f: usize) -> usize {
    let n = uploads.len();
    // Number of neighbours counted in each score.
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

/// Coordinate-wise median.
pub fn coordinate_median(uploads: &[&[f32]]) -> Vec<f32> {
    let n = uploads.len();
    assert!(n >= 1);
    let d = uploads[0].len();
    let mut out = vec![0.0f32; d];
    let mut column = vec![0.0f32; n];
    for j in 0..d {
        for (c, u) in column.iter_mut().zip(uploads) {
            *c = u[j];
        }
        column.sort_unstable_by(f32::total_cmp);
        out[j] = if n % 2 == 1 { column[n / 2] } else { 0.5 * (column[n / 2 - 1] + column[n / 2]) };
    }
    out
}

/// Coordinate-wise trimmed mean: drops the `trim` largest and smallest values
/// per coordinate, averages the rest.
pub fn trimmed_mean(uploads: &[&[f32]], trim: usize) -> Vec<f32> {
    let n = uploads.len();
    assert!(2 * trim < n, "trimming {trim} from each end leaves nothing of {n}");
    let d = uploads[0].len();
    let mut out = vec![0.0f32; d];
    let mut column = vec![0.0f32; n];
    let kept = (n - 2 * trim) as f64;
    for j in 0..d {
        for (c, u) in column.iter_mut().zip(uploads) {
            *c = u[j];
        }
        column.sort_unstable_by(f32::total_cmp);
        let sum: f64 = column[trim..n - trim].iter().map(|&v| v as f64).sum();
        out[j] = (sum / kept) as f32;
    }
    out
}

/// Geometric median by Weiszfeld's algorithm (RFA), with the standard
/// ε-regularized update to survive landing on an input point.
pub fn geometric_median(uploads: &[&[f32]], max_iter: usize, tol: f64) -> Vec<f32> {
    let refs: Vec<&[f32]> = uploads.to_vec();
    let mut current = vecops::mean(&refs).expect("non-empty uploads");
    let d = current.len();
    for _ in 0..max_iter {
        let mut weight_sum = 0.0f64;
        let mut next = vec![0.0f64; d];
        for u in uploads {
            let dist = vecops::l2_dist_sq(&current, u).sqrt().max(1e-10);
            let w = 1.0 / dist;
            weight_sum += w;
            for (nx, &x) in next.iter_mut().zip(*u) {
                *nx += w * x as f64;
            }
        }
        let mut moved = 0.0f64;
        for (nx, c) in next.iter_mut().zip(current.iter_mut()) {
            *nx /= weight_sum;
            let delta = *nx - *c as f64;
            moved += delta * delta;
            *c = *nx as f32;
        }
        if moved.sqrt() < tol {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[f32]) -> Vec<f32> {
        items.to_vec()
    }

    #[test]
    fn mean_is_fedavg() {
        let ups = vec![v(&[1.0, 2.0]), v(&[3.0, 4.0])];
        assert_eq!(AggregatorKind::Mean.aggregate(&ups), vec![2.0, 3.0]);
    }

    #[test]
    fn krum_picks_a_clustered_point() {
        // Three near-identical honest vectors and one far outlier: Krum must
        // return one of the honest ones.
        let ups: Vec<&[f32]> = vec![&[1.0, 1.0], &[1.1, 0.9], &[0.9, 1.1], &[100.0, -100.0]];
        let chosen = krum(&ups, 1);
        assert!(vecops::l2_norm(chosen) < 2.0, "krum chose the outlier");
    }

    #[test]
    fn krum_fails_under_byzantine_majority() {
        // 1 honest vs 3 colluding Byzantine: Krum picks from the majority
        // cluster — the >50 % failure mode in the paper's Table 1.
        let ups: Vec<&[f32]> = vec![&[1.0, 1.0], &[-50.0, -50.0], &[-50.1, -49.9], &[-49.9, -50.1]];
        let chosen = krum(&ups, 1);
        assert!(chosen[0] < -40.0, "krum unexpectedly resisted a Byzantine majority");
    }

    #[test]
    fn median_is_coordinatewise() {
        let ups: Vec<&[f32]> = vec![&[1.0, 10.0], &[2.0, -10.0], &[3.0, 0.0]];
        assert_eq!(coordinate_median(&ups), vec![2.0, 0.0]);
        // Even count: average of the middle two.
        let ups2: Vec<&[f32]> = vec![&[1.0], &[2.0], &[3.0], &[10.0]];
        assert_eq!(coordinate_median(&ups2), vec![2.5]);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let ups: Vec<&[f32]> = vec![&[-100.0], &[1.0], &[2.0], &[3.0], &[100.0]];
        let out = trimmed_mean(&ups, 1);
        assert!((out[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "leaves nothing")]
    fn trimmed_mean_rejects_overtrimming() {
        let ups: Vec<&[f32]> = vec![&[1.0], &[2.0]];
        let _ = trimmed_mean(&ups, 1);
    }

    #[test]
    fn geometric_median_resists_one_outlier() {
        let ups: Vec<&[f32]> = vec![&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1000.0, 1000.0]];
        let gm = geometric_median(&ups, 200, 1e-9);
        // The geometric median stays near the honest cluster.
        assert!(vecops::l2_norm(&gm) < 2.0, "gm = {gm:?}");
    }

    #[test]
    fn geometric_median_of_identical_points_is_that_point() {
        let ups: Vec<&[f32]> = vec![&[2.0, -1.0]; 5];
        let gm = geometric_median(&ups, 50, 1e-9);
        assert!((gm[0] - 2.0).abs() < 1e-4 && (gm[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn median_1d_minimizes_l1_like_geometric_median() {
        // In 1-D the geometric median equals the coordinate median.
        let ups: Vec<&[f32]> = vec![&[1.0], &[2.0], &[9.0]];
        let gm = geometric_median(&ups, 500, 1e-10);
        assert!((gm[0] - 2.0).abs() < 1e-2, "gm={gm:?}");
    }

    #[test]
    fn sorting_rules_survive_non_finite_uploads() {
        // A served run hands the rules whatever well-formed floats a client
        // sent. One NaN and one +∞ upload among seven must cost a bad
        // aggregate at worst, never a panic of the round.
        let d = 3;
        let mut ups: Vec<Vec<f32>> = (0..5).map(|i| vec![0.1 * i as f32; d]).collect();
        ups.push(vec![f32::NAN; d]);
        ups.push(vec![f32::INFINITY; d]);
        for rule in [
            AggregatorKind::Krum { f: 2 },
            AggregatorKind::CoordinateMedian,
            AggregatorKind::TrimmedMean { trim: 2 },
            AggregatorKind::Bulyan { f: 1 },
        ] {
            assert_eq!(rule.aggregate(&ups).len(), d, "{}", rule.name());
        }
    }
}
