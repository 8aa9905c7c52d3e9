//! The Normal distribution: CDF, quantile, and sampling.
//!
//! The protocol leans on this everywhere: the KS test compares upload
//! coordinates against `N(0, σ'²)`; the norm-test interval comes from the
//! Gaussian approximation of χ²_d; the "A little" attack needs the Normal
//! quantile; and DP noise itself is Gaussian. Sampling is implemented here:
//! the draw → coordinate mapping is part of the frozen determinism contract.

use crate::special::erfc;
use rand::Rng;

/// A Normal distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Standard normal `N(0, 1)`.
    #[cfg(test)]
    const STANDARD: Normal = Normal { mean: 0.0, std: 1.0 };

    /// Builds `N(mean, std²)`. Panics if `std` is not strictly positive.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std > 0.0 && std.is_finite(), "std must be positive and finite, got {std}");
        Normal { mean, std }
    }

    /// The distribution mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[inline]
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Probability density at `x`.
    #[cfg(test)]
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution `Φ((x − μ)/σ)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std * std::f64::consts::SQRT_2);
        0.5 * erfc(-z)
    }

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    ///
    /// Acklam's rational approximation refined by one Halley step, giving
    /// ~1e-15 relative accuracy.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mean + self.std * standard_normal_quantile(p)
    }
}

/// Standard normal quantile via Acklam's approximation + Halley refinement.
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against the true CDF.
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Outputs per block of [`fill_standard_normal`]: bounds its stack scratch
/// and the stack block of [`fill_gaussian`]. Any value draws the same stream.
const BLOCK: usize = 256;

/// Fills `out` with i.i.d. standard normal samples (Marsaglia polar method).
///
/// The values, and the state `rng` is left in, are exactly those of
/// `out.len()` calls of the one-variate polar loop — draw a `(u, v)` pair
/// from `U(−1, 1)²` until `0 < s = u² + v² < 1`, return
/// `u·√(−2 ln s / s)` — so the draw → coordinate mapping of the
/// determinism contract holds. The work is done a block at a time: the
/// pairs are drawn in stream order with a branch-free store that keeps only
/// accepted ones, stopping exactly when the block is full (the stream is
/// never over-drawn), and the transform then runs over the block as
/// independent iterations, so the `ln`/`sqrt`/division chains overlap.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut s_block = [0.0f64; BLOCK];
    for block in out.chunks_mut(BLOCK) {
        let n = block.len();
        let mut k = 0;
        while k < n {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            // A rejected pair is overwritten by the next one.
            block[k] = u;
            s_block[k] = s;
            k += (s > 0.0 && s < 1.0) as usize;
        }
        for (z, &s) in block.iter_mut().zip(&s_block) {
            *z *= (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fills `out` with i.i.d. `N(0, std²)` samples in `f32` precision.
///
/// This is the exact operation of the paper's Algorithm 1 line 10
/// (`N(0, σ²I)` added to the sum of normalized momentum slots) and of the
/// Gaussian attack (which uploads pure noise).
pub fn fill_gaussian<R: Rng + ?Sized>(rng: &mut R, std: f64, out: &mut [f32]) {
    let mut z = [0.0f64; BLOCK];
    for block in out.chunks_mut(BLOCK) {
        let z = &mut z[..block.len()];
        fill_standard_normal(rng, z);
        for (x, &z) in block.iter_mut().zip(z.iter()) {
            *x = (z * std) as f32;
        }
    }
}

/// Returns a fresh length-`d` vector of i.i.d. `N(0, std²)` samples.
pub fn gaussian_vector<R: Rng + ?Sized>(rng: &mut R, std: f64, d: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; d];
    fill_gaussian(rng, std, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The one-variate polar loop every Gaussian draw used to make, one call
    /// per output, verbatim: the oracle for [`fill_standard_normal`].
    fn standard_normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Lengths around the block edges plus the two model dimensions the
    /// protocol runs at (the MLP used in tests, and the paper's MLP).
    const LENGTHS: [usize; 8] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 6_370, 25_450];

    /// Asserts that `fill_standard_normal` and `fill_gaussian` draw exactly
    /// the oracle's values at length `n` from `seed`, and leave the
    /// generator where the oracle leaves it.
    fn assert_fill_matches_oracle(seed: u64, n: usize) {
        let mut oracle = StdRng::seed_from_u64(seed);
        let want: Vec<f64> = (0..n).map(|_| standard_normal_sample(&mut oracle)).collect();
        let want_state: Vec<u64> = (0..4).map(|_| oracle.next_u64()).collect();
        let next4 = |rng: &mut StdRng| -> Vec<u64> { (0..4).map(|_| rng.next_u64()).collect() };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut got = vec![0.0f64; n];
        fill_standard_normal(&mut rng, &mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "fill_standard_normal, seed {seed}, n {n}");
        assert_eq!(next4(&mut rng), want_state, "fill_standard_normal state, seed {seed}, n {n}");

        let std = 0.05;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut got = vec![0.0f32; n];
        fill_gaussian(&mut rng, std, &mut got);
        let want: Vec<u32> = want.iter().map(|&z| ((z * std) as f32).to_bits()).collect();
        assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want, "fill_gaussian");
        assert_eq!(next4(&mut rng), want_state, "fill_gaussian state, seed {seed}, n {n}");
    }

    #[test]
    fn block_fill_matches_scalar_polar_loop_bitwise() {
        for n in LENGTHS {
            for seed in [0u64, 1, 7, 0xdead_beef] {
                assert_fill_matches_oracle(seed, n);
            }
        }
    }

    #[test]
    fn block_fill_through_dyn_rng_core_matches_oracle() {
        let n = 2 * BLOCK + 1;
        let mut oracle = StdRng::seed_from_u64(5);
        let want: Vec<u64> =
            (0..n).map(|_| standard_normal_sample(&mut oracle).to_bits()).collect();
        let mut concrete = StdRng::seed_from_u64(5);
        let rng: &mut dyn RngCore = &mut concrete;
        let mut got = vec![0.0f64; n];
        fill_standard_normal(rng, &mut got);
        assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        for _ in 0..4 {
            assert_eq!(rng.next_u64(), oracle.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn block_fill_matches_oracle_at_any_seed_and_length(
            seed in 0u64..u64::MAX,
            n in 0usize..3 * BLOCK + 2,
        ) {
            assert_fill_matches_oracle(seed, n);
        }
    }

    #[test]
    fn cdf_known_values() {
        let n = Normal::STANDARD;
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((n.cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((n.cdf(-1.96) - 0.024_997_895_148_220_43).abs() < 1e-10);
        // 68-95-99.7 rule, the paper's footnote 5.
        let within_3 = n.cdf(3.0) - n.cdf(-3.0);
        assert!((within_3 - 0.997_300_203_936_740).abs() < 1e-10);
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        let n = Normal::new(1.0, 2.0);
        // Trapezoid integration of the pdf over [-3, 3] vs cdf difference.
        let steps = 20_000;
        let (a, b) = (-3.0, 3.0);
        let h = (b - a) / steps as f64;
        let mut acc = 0.5 * (n.pdf(a) + n.pdf(b));
        for i in 1..steps {
            acc += n.pdf(a + i as f64 * h);
        }
        acc *= h;
        assert!((acc - (n.cdf(b) - n.cdf(a))).abs() < 1e-8);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(-2.0, 0.5);
        for &p in &[1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn quantile_known_values() {
        // z_{0.975} ≈ 1.959963984540054
        assert!((standard_normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-12);
        assert!((standard_normal_quantile(0.5)).abs() < 1e-14);
    }

    #[test]
    fn sampling_matches_first_two_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for z in gaussian_vector(&mut rng, 2.0, m) {
            let x = 3.0 + z as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / m as f64;
        let var = sum_sq / m as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.02, "mean={mean}");
        assert!((var - 4.0).abs() < 0.06, "var={var}");
    }

    #[test]
    fn gaussian_vector_norm_concentrates() {
        // ‖z‖² ~ σ²·χ²_d concentrates around σ²d — the basis of the paper's
        // first-stage norm test.
        let mut rng = StdRng::seed_from_u64(7);
        let d = 20_000;
        let sigma = 0.5;
        let v = gaussian_vector(&mut rng, sigma, d);
        let norm_sq: f64 = v.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let expected = sigma * sigma * d as f64;
        let std3 = 3.0 * sigma * sigma * (2.0 * d as f64).sqrt();
        assert!((norm_sq - expected).abs() < std3, "norm_sq={norm_sq} expected={expected}");
    }
}
