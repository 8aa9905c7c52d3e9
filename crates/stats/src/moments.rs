//! Coordinate-wise moments of a set of uploads: the "A little" attack needs
//! the per-coordinate mean and standard deviation of the benign uploads.

/// Coordinate-wise mean and population standard deviation of a set of equal
/// length vectors, as needed by the "A little" attack (Baruch et al.).
///
/// Returns `(mean, std)` vectors, or `None` when `vectors` is empty.
pub fn coordinate_moments(vectors: &[&[f32]]) -> Option<(Vec<f64>, Vec<f64>)> {
    let first = vectors.first()?;
    let d = first.len();
    let n = vectors.len() as f64;
    let mut mean = vec![0.0f64; d];
    for v in vectors {
        debug_assert_eq!(v.len(), d);
        for (m, &x) in mean.iter_mut().zip(*v) {
            *m += x as f64;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; d];
    for v in vectors {
        for ((s, &x), m) in var.iter_mut().zip(*v).zip(&mean) {
            let delta = x as f64 - m;
            *s += delta * delta;
        }
    }
    let std = var.into_iter().map(|s| (s / n).sqrt()).collect();
    Some((mean, std))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_moments_hand_example() {
        let a = [1.0f32, 0.0];
        let b = [3.0f32, 0.0];
        let (mean, std) = coordinate_moments(&[&a, &b]).unwrap();
        assert_eq!(mean, vec![2.0, 0.0]);
        assert_eq!(std, vec![1.0, 0.0]);
        assert!(coordinate_moments(&[]).is_none());
    }
}
