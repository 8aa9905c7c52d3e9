//! Linear `i16` quantization of gradient vectors.
//!
//! The two-stage defense fold retains every stage-1 survivor of the
//! round until selection resolves; at extreme cohort sizes the retained
//! tail dominates resident memory. [`QuantizedVec`] halves it: a vector is
//! stored as one `f32` scale plus `i16` codes, `value[i] ≈ scale · codes[i]`,
//! with the scale chosen so the largest magnitude maps to `i16::MAX`.
//!
//! Encoding is deterministic (a pure function of the input bits) but
//! **lossy**: a run that retains quantized uploads trades bit-parity with
//! exact retention for memory, which is why the retention mode is opt-in
//! per scenario and never used by the pinned paper grids.

/// A linearly quantized `f32` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVec {
    scale: f32,
    codes: Vec<i16>,
}

impl QuantizedVec {
    /// Quantizes `v` with a per-vector scale of `max|v| / i16::MAX`.
    ///
    /// Non-finite inputs encode as 0 (the same "reject, don't propagate"
    /// policy the server applies everywhere else); an all-zero or all-NaN
    /// vector round-trips to exact zeros.
    pub fn encode(v: &[f32]) -> Self {
        let max_abs = v.iter().filter(|x| x.is_finite()).fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / i16::MAX as f32 } else { 0.0 };
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let codes = v
            .iter()
            .map(|&x| {
                if x.is_finite() {
                    (x * inv).round().clamp(i16::MIN as f32 + 1.0, i16::MAX as f32) as i16
                } else {
                    0
                }
            })
            .collect();
        QuantizedVec { scale, codes }
    }

    /// Number of coordinates.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the vector has no coordinates.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dequantized value of coordinate `i`.
    pub fn get(&self, i: usize) -> f32 {
        self.codes[i] as f32 * self.scale
    }

    /// Iterates the dequantized coordinates in order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        self.codes.iter().map(move |&c| c as f32 * self.scale)
    }

    /// Dequantizes into a fresh vector.
    pub fn decode(&self) -> Vec<f32> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_within_half_a_step() {
        let v: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 0.01).collect();
        let q = QuantizedVec::encode(&v);
        let step = 0.01 / i16::MAX as f32;
        for (orig, deq) in v.iter().zip(q.iter()) {
            assert!((orig - deq).abs() <= 0.51 * step, "orig={orig} deq={deq}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let v: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 1e-4).collect();
        assert_eq!(QuantizedVec::encode(&v), QuantizedVec::encode(&v));
    }

    #[test]
    fn zero_vector_roundtrips_exactly() {
        let q = QuantizedVec::encode(&[0.0; 8]);
        assert!(q.decode().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn extremes_map_to_full_scale() {
        let q = QuantizedVec::encode(&[1.0, -1.0, 0.5]);
        assert_eq!(q.get(0), 1.0);
        assert_eq!(q.get(1), -1.0);
        assert!((q.get(2) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn non_finite_inputs_encode_as_zero() {
        let q = QuantizedVec::encode(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2.0]);
        assert_eq!(q.get(0), 0.0);
        assert_eq!(q.get(1), 0.0);
        assert_eq!(q.get(2), 0.0);
        assert_eq!(q.get(3), 2.0);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(QuantizedVec::encode(&[1.0, 2.0]).len(), 2);
        assert!(QuantizedVec::encode(&[]).is_empty());
    }
}
