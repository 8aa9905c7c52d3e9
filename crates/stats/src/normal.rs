//! The Normal distribution: density, CDF, quantile, and sampling.
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
    pub const STANDARD: Normal = Normal { mean: 0.0, std: 1.0 };

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
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution `Φ((x − μ)/σ)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std * std::f64::consts::SQRT_2);
        0.5 * erfc(-z)
    }

    /// Survival function `1 − CDF(x)`, accurate in the upper tail.
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    ///
    /// Acklam's rational approximation refined by one Halley step, giving
    /// ~1e-15 relative accuracy.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mean + self.std * standard_normal_quantile(p)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal_sample(rng)
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

/// Draws one standard normal sample (Marsaglia polar method).
pub fn standard_normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fills `out` with i.i.d. `N(0, std²)` samples in `f32` precision.
///
/// This is the exact operation of the paper's Algorithm 1 line 10
/// (`N(0, σ²I)` added to the sum of normalized momentum slots) and of the
/// Gaussian attack (which uploads pure noise).
pub fn fill_gaussian<R: Rng + ?Sized>(rng: &mut R, std: f64, out: &mut [f32]) {
    for x in out {
        *x = (standard_normal_sample(rng) * std) as f32;
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let n = Normal::new(3.0, 2.0);
        let m = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..m {
            let x = n.sample(&mut rng);
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
