//! Data-poisoning transforms used by Byzantine workers.

use crate::dataset::Dataset;

/// The paper's label-flipping attack (§2.3): label `I` becomes `H − 1 − I`.
/// The Byzantine worker then follows the honest protocol on poisoned data.
pub fn flip_labels(dataset: &mut Dataset) {
    let h = dataset.num_classes;
    for l in &mut dataset.labels {
        *l = h - 1 - *l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_the_papers_involution() {
        let mut d = Dataset::new("t", vec![0.0; 4], vec![0, 1, 2, 3], 1, 4);
        flip_labels(&mut d);
        assert_eq!(d.labels, vec![3, 2, 1, 0]);
        flip_labels(&mut d);
        assert_eq!(d.labels, vec![0, 1, 2, 3]);
    }
}
