//! Dense matrix kernels: GEMM, matrix–vector, and rank-1 update.
//!
//! All matrices are row-major flat slices with explicit dimensions. The GEMM is
//! a cache-blocked i-k-j loop (the inner `j` loop is a contiguous axpy, which
//! LLVM auto-vectorizes); it is not a tuned BLAS, but at the model sizes used in
//! the paper (`d ≈ 21 000 – 34 000` parameters) it keeps the per-example
//! forward/backward passes comfortably faster than the statistical tests that
//! dominate server time.

/// `c ← a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`.
///
/// `c` is overwritten. Panics in debug builds if slice lengths disagree with
/// the dimensions.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    gemm_accumulate(a, b, c, m, k, n);
}

/// `c ← c + a · b` (accumulating GEMM). Same layout contract as [`gemm`].
pub fn gemm_accumulate(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    // i-k-j ordering: for each output row, walk the shared dimension and
    // stream contiguous rows of `b` into the contiguous output row.
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += a_ip * bj;
            }
        }
    }
}

/// `y ← A · x` where `A` is `m×n` row-major, `x` has length `n`.
///
/// Every output is one ascending-index dot of a row with `x`. A single such
/// dot is a serial chain of dependent adds, so eight rows are interleaved
/// for ILP exactly as [`gemm_nt`] interleaves four: which scalars are in
/// flight changes, never the order within one accumulator.
pub fn matvec(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    const ROWS: usize = 8;
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    let x = &x[..n];
    let mut i = 0;
    while i + ROWS <= m {
        let rows: [&[f32]; ROWS] = std::array::from_fn(|r| &a[(i + r) * n..(i + r + 1) * n]);
        let mut acc = [0.0f32; ROWS];
        for (j, &xj) in x.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += row[j] * xj;
            }
        }
        y[i..i + ROWS].copy_from_slice(&acc);
        i += ROWS;
    }
    for (yi, i) in y[i..].iter_mut().zip(i..) {
        let mut acc = 0.0f32;
        for (&aij, &xj) in a[i * n..(i + 1) * n].iter().zip(x) {
            acc += aij * xj;
        }
        *yi = acc;
    }
}

/// `y ← Aᵀ · x` where `A` is `m×n` row-major, `x` has length `m`.
///
/// Used by the dense-layer backward pass (`dx = Wᵀ dy`).
pub fn matvec_transposed(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &a[i * n..(i + 1) * n];
        for (yj, &aij) in y.iter_mut().zip(row) {
            *yj += xi * aij;
        }
    }
}

/// `c ← a · bᵀ` where `a` is `m×k`, `b` is `n×k` (both row-major), `c` is
/// `m×n`.
///
/// The batched-inference workhorse: with `a` holding `m` examples and `b` a
/// dense layer's `out×in` weight matrix, `c` holds the layer outputs for the
/// whole batch. Every output scalar is a single ascending-index dot of two
/// contiguous rows — the exact accumulation order of [`matvec`] applied row
/// by row (IEEE-754 multiplication is commutative bit-for-bit), so batched
/// logits are bit-identical to the per-example path by construction. The
/// loop is 4-way unrolled over `b` rows for ILP; unrolling changes which
/// scalars are in flight, never the order within one accumulator.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (p, &av) in a_row.iter().enumerate() {
                s0 += b0[p] * av;
                s1 += b1[p] * av;
                s2 += b2[p] * av;
                s3 += b3[p] * av;
            }
            c_row[j] = s0;
            c_row[j + 1] = s1;
            c_row[j + 2] = s2;
            c_row[j + 3] = s3;
            j += 4;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut s = 0.0f32;
            for (&bv, &av) in b_row.iter().zip(a_row) {
                s += bv * av;
            }
            c_row[j] = s;
            j += 1;
        }
    }
}

/// `c ← c + aᵀ · b` where `a` is `k×m`, `b` is `k×n`, `c` is `m×n`.
///
/// The batched weight-gradient update: with `a` the batch's output gradients
/// (`batch×out`) and `b` the cached inputs (`batch×in`), this accumulates
/// `dW += Σ_p dy_p ⊗ x_p`. Every `c` scalar receives its per-example
/// contributions in ascending example order with the same zero-coefficient
/// skip as [`ger`], so it is bit-identical to `batch` sequential `ger` calls.
pub fn gemm_tn_accumulate(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let coef = a[p * m + i];
            if coef == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += coef * bv;
            }
        }
    }
}

/// Rank-1 update `A ← A + alpha · x yᵀ` where `A` is `m×n`, `x` has length `m`,
/// `y` has length `n`.
///
/// Used to accumulate dense-layer weight gradients (`dW += dy ⊗ x`).
pub fn ger(alpha: f32, x: &[f32], y: &[f32], a: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);
    for (i, &xi) in x.iter().enumerate() {
        let coef = alpha * xi;
        if coef == 0.0 {
            continue;
        }
        let row = &mut a[i * n..(i + 1) * n];
        for (aij, &yj) in row.iter_mut().zip(y) {
            *aij += coef * yj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-row-at-a-time `matvec` the interleaved kernel replaced.
    fn matvec_naive(a: &[f32], x: &[f32], y: &mut [f32], n: usize) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&aij, &xj) in a[i * n..(i + 1) * n].iter().zip(x) {
                acc += aij * xj;
            }
            *yi = acc;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Covers `m < 8`, `m % 8 != 0` and exact multiples.
        #[test]
        fn matvec_matches_naive_rows_bitwise(
            m in 1usize..40,
            n in 1usize..70,
            values in prop::collection::vec(-3.0f32..3.0, 40 * 70 + 70),
        ) {
            let (a, x) = (&values[..m * n], &values[40 * 70..40 * 70 + n]);
            let mut y = vec![f32::NAN; m];
            let mut y_ref = vec![f32::NAN; m];
            matvec(a, x, &mut y, m, n);
            matvec_naive(a, x, &mut y_ref, n);
            for (i, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} of {}x{}", i, m, n);
            }
        }
    }

    #[test]
    fn gemm_matches_hand_computation() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_rectangular() {
        // 1x3 times 3x2
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut c = [0.0f32; 2];
        gemm(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, [14.0, 32.0]);
    }

    #[test]
    fn gemm_accumulates_on_top() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [10.0f32, 10.0, 10.0, 10.0];
        gemm_accumulate(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn matvec_and_transpose_agree_with_gemm() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let x = [1.0, 1.0, 1.0];
        let mut y = [0.0f32; 2];
        matvec(&a, &x, &mut y, 2, 3);
        assert_eq!(y, [6.0, 15.0]);

        let xt = [1.0, 1.0];
        let mut yt = [0.0f32; 3];
        matvec_transposed(&a, &xt, &mut yt, 2, 3);
        assert_eq!(yt, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn gemm_nt_matches_per_row_matvec_bitwise() {
        // 3 examples × 7 inputs against a 5×7 "weight" matrix, awkward sizes
        // so both the unrolled quad and the remainder path run.
        let (m, k, n) = (3usize, 7usize, 5usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.13).collect();
        let b: Vec<f32> = (0..n * k).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.07).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_nt(&a, &b, &mut c, m, k, n);
        for i in 0..m {
            let mut y = vec![0.0f32; n];
            matvec(&b, &a[i * k..(i + 1) * k], &mut y, n, k);
            for j in 0..n {
                assert_eq!(c[i * n + j].to_bits(), y[j].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_tn_matches_sequential_ger_bitwise() {
        // dW += Σ_p dy_p ⊗ x_p over 4 "examples", with a zero coefficient to
        // exercise the skip path.
        let (k, m, n) = (4usize, 3usize, 5usize);
        let mut a: Vec<f32> = (0..k * m).map(|i| ((i * 31 % 13) as f32 - 6.0) * 0.21).collect();
        a[m + 1] = 0.0;
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.11).collect();
        let mut c = vec![0.5f32; m * n];
        let mut c_ref = c.clone();
        gemm_tn_accumulate(&a, &b, &mut c, k, m, n);
        for p in 0..k {
            ger(1.0, &a[p * m..(p + 1) * m], &b[p * n..(p + 1) * n], &mut c_ref, m, n);
        }
        for (x, y) in c.iter().zip(&c_ref) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn ger_accumulates_outer_product() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0, 5.0];
        let mut a = vec![0.0f32; 6];
        ger(1.0, &x, &y, &mut a, 2, 3);
        assert_eq!(a, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        ger(-1.0, &x, &y, &mut a, 2, 3);
        assert!(a.iter().all(|&v| v == 0.0));
    }
}
