//! Flat-slice vector kernels.
//!
//! In the federated protocol every object crossing the "network" — model
//! parameters, per-example gradients, uploads, DP noise — is a flat
//! `d`-dimensional `f32` vector. These kernels are the protocol's hot path:
//! normalization (the paper's replacement for clipping), inner-product scoring
//! (second-stage aggregation), and distance computations (Krum, RFA baselines).
//!
//! Reductions accumulate in `f64`: at `d ≈ 25 450` (the paper's MLP) naive `f32`
//! accumulation loses ~3 decimal digits, which is enough to perturb the
//! first-stage norm test.

/// ℓ2 norm of `v`, accumulated in `f64`.
#[inline]
pub fn l2_norm(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
}

/// Squared ℓ2 norm of `v`, accumulated in `f64`.
#[inline]
pub fn l2_norm_sq(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
}

/// Squared ℓ2 distance `‖a − b‖²`. Panics in debug builds on length mismatch.
#[inline]
pub fn l2_dist_sq(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Inner product `⟨a, b⟩`, accumulated in `f64`.
///
/// This is the paper's second-stage differentiation metric (Section 4.4): the
/// score assigned to upload `g` is `⟨g, g_s⟩` with `g_s` the server's
/// auxiliary-data gradient.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x as f64) * (y as f64)).sum()
}

/// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`, or `0.0` if either vector is zero.
///
/// Used by the FLTrust-style baseline and by the Optimized Local Model
/// Poisoning attack objective (paper Eq. 8). The paper argues inner product is
/// the better *defense* metric; cosine remains the *attack's* objective.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// `y ← y + alpha · x` (the BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `v ← alpha · v`.
#[inline]
pub fn scale(v: &mut [f32], alpha: f32) {
    for x in v {
        *x *= alpha;
    }
}

/// Normalizes `v` to unit ℓ2 norm in place and returns the original norm.
///
/// This is the paper's sensitivity-bounding operation (Section 4.2): the
/// multiplication factor is `1/‖g‖₂` instead of DP-SGD's
/// `min{1, C/‖g‖₂}`. Zero vectors are left untouched (norm 0 is returned);
/// callers in the DP path treat an all-zero per-example gradient as already
/// norm-bounded.
pub fn normalize(v: &mut [f32]) -> f64 {
    let norm = l2_norm(v);
    if norm > 0.0 {
        let inv = (1.0 / norm) as f32;
        scale(v, inv);
    }
    norm
}

/// Clips `v` to ℓ2 norm at most `c` in place (vanilla DP-SGD's bounding
/// operation, kept for the clipping baselines) and returns the original norm.
pub fn clip(v: &mut [f32], c: f64) -> f64 {
    assert!(c > 0.0, "clip threshold must be positive");
    let norm = l2_norm(v);
    if norm > c {
        let inv = (c / norm) as f32;
        scale(v, inv);
    }
    norm
}

/// Element-wise mean of `vectors` (all the same length).
///
/// Returns `None` when `vectors` is empty. Accumulates in `f64`.
pub fn mean(vectors: &[&[f32]]) -> Option<Vec<f32>> {
    let first = vectors.first()?;
    let d = first.len();
    let mut acc = vec![0.0f64; d];
    for v in vectors {
        debug_assert_eq!(v.len(), d);
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += x as f64;
        }
    }
    let inv = 1.0 / vectors.len() as f64;
    Some(acc.into_iter().map(|a| (a * inv) as f32).collect())
}

/// Sum of `vectors` (all the same length), accumulated in `f64`.
pub fn sum(vectors: &[&[f32]]) -> Option<Vec<f32>> {
    let first = vectors.first()?;
    let d = first.len();
    let mut acc = vec![0.0f64; d];
    for v in vectors {
        debug_assert_eq!(v.len(), d);
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += x as f64;
        }
    }
    Some(acc.into_iter().map(|a| a as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_dot() {
        let a = [3.0f32, 4.0];
        assert!((l2_norm(&a) - 5.0).abs() < 1e-12);
        assert!((l2_norm_sq(&a) - 25.0).abs() < 1e-12);
        let b = [1.0f32, 2.0];
        assert!((dot(&a, &b) - 11.0).abs() < 1e-12);
        assert!((l2_dist_sq(&a, &b) - (4.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![1.0f32, -2.0, 2.0];
        let n = normalize(&mut v);
        assert!((n - 3.0).abs() < 1e-6);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector() {
        let mut v = vec![0.0f32; 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn clip_only_shrinks_large_vectors() {
        let mut v = vec![3.0f32, 4.0];
        clip(&mut v, 10.0);
        assert_eq!(v, vec![3.0, 4.0]);
        clip(&mut v, 1.0);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mean_and_sum() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 6.0];
        let m = mean(&[&a, &b]).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
        let s = sum(&[&a, &b]).unwrap();
        assert_eq!(s, vec![4.0, 8.0]);
        assert!(mean(&[]).is_none());
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        assert!(cosine_similarity(&a, &b).abs() < 1e-12);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&a, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0f32, 2.0];
        let mut y = vec![10.0f32, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![6.0, 12.0]);
    }

    #[test]
    fn f64_accumulation_beats_f32_on_long_vectors() {
        // 1 million small values: f32 accumulation drifts, f64 stays exact
        // enough for the norm test to rely on.
        let v = vec![1e-3f32; 1_000_000];
        let exact = 1e-6 * 1_000_000.0;
        assert!((l2_norm_sq(&v) - exact).abs() / exact < 1e-6);
    }
}
