//! Property-based tests for the vector kernels: algebraic identities that
//! must hold for arbitrary finite inputs.

use dpbfl_tensor::matmul::{gemm, matvec};
use dpbfl_tensor::vecops;
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e3f32..1e3f32, len)
}

proptest! {
    #[test]
    fn clip_never_exceeds_threshold(mut v in finite_vec(1..64), c in 0.01f64..100.0) {
        vecops::clip(&mut v, c);
        prop_assert!(vecops::l2_norm(&v) <= c * (1.0 + 1e-5));
    }

    #[test]
    fn clip_is_identity_below_threshold(v in finite_vec(1..64)) {
        let norm = vecops::l2_norm(&v);
        let mut w = v.clone();
        vecops::clip(&mut w, norm + 1.0);
        prop_assert_eq!(v, w);
    }

    #[test]
    fn dot_is_symmetric_and_cauchy_schwarz(
        a in finite_vec(1..32), b in finite_vec(1..32)
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ab = vecops::dot(a, b);
        let ba = vecops::dot(b, a);
        prop_assert!((ab - ba).abs() <= 1e-6 * ab.abs().max(1.0));
        prop_assert!(ab.abs() <= vecops::l2_norm(a) * vecops::l2_norm(b) * (1.0 + 1e-6) + 1e-9);
    }

    #[test]
    fn cosine_similarity_is_bounded(a in finite_vec(2..32), b in finite_vec(2..32)) {
        let n = a.len().min(b.len());
        let c = vecops::cosine_similarity(&a[..n], &b[..n]);
        prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(&c));
    }

    #[test]
    fn mean_lies_in_coordinate_hull(
        vectors in prop::collection::vec(finite_vec(4..5), 1..8)
    ) {
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        let m = vecops::mean(&refs).expect("non-empty");
        for j in 0..4 {
            let lo = vectors.iter().map(|v| v[j]).fold(f32::INFINITY, f32::min);
            let hi = vectors.iter().map(|v| v[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(m[j] >= lo - 1e-3 && m[j] <= hi + 1e-3);
        }
    }

    #[test]
    fn axpy_then_inverse_restores(alpha in -10.0f32..10.0, x in finite_vec(8..9), y in finite_vec(8..9)) {
        let mut z = y.clone();
        vecops::axpy(alpha, &x, &mut z);
        vecops::axpy(-alpha, &x, &mut z);
        for (a, b) in z.iter().zip(&y) {
            prop_assert!((a - b).abs() <= 1e-2 + 1e-3 * b.abs());
        }
    }

    #[test]
    fn gemm_with_identity_is_identity(m in 1usize..6, k in 1usize..6) {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.5 - 1.0).collect();
        // k×k identity.
        let mut eye = vec![0.0f32; k * k];
        for i in 0..k {
            eye[i * k + i] = 1.0;
        }
        let mut c = vec![0.0f32; m * k];
        gemm(&a, &eye, &mut c, m, k, k);
        prop_assert_eq!(a, c);
    }

    #[test]
    fn matvec_is_linear(m in 1usize..5, n in 1usize..5, alpha in -4.0f32..4.0) {
        let a: Vec<f32> = (0..m * n).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let mut y1 = vec![0.0f32; m];
        matvec(&a, &x, &mut y1, m, n);
        let xa: Vec<f32> = x.iter().map(|&v| v * alpha).collect();
        let mut y2 = vec![0.0f32; m];
        matvec(&a, &xa, &mut y2, m, n);
        for (s, &t) in y2.iter().zip(&y1) {
            prop_assert!((s - alpha * t).abs() < 1e-3);
        }
    }
}
