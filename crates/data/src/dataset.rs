//! In-memory labelled dataset.

/// A dense, labelled classification dataset.
///
/// `features` stores examples back to back, each `example_len` floats
/// (channels-first for images). This is the layout `dpbfl_nn::Sequential`
/// consumes directly (that crate sits above this one in the chain).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Flat feature buffer, `len() · example_len` floats.
    pub features: Vec<f32>,
    /// One label per example, each `< num_classes`.
    pub labels: Vec<usize>,
    /// Floats per example.
    pub example_len: usize,
    /// Number of classes `H`.
    pub num_classes: usize,
    /// Human-readable name (e.g. `"mnist-like"`).
    pub name: String,
}

impl Dataset {
    /// Builds a dataset, validating buffer lengths and label ranges.
    pub fn new(
        name: impl Into<String>,
        features: Vec<f32>,
        labels: Vec<usize>,
        example_len: usize,
        num_classes: usize,
    ) -> Self {
        assert_eq!(features.len(), labels.len() * example_len, "features/labels length mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        Dataset { features, labels, example_len, num_classes, name: name.into() }
    }

    /// Number of examples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the dataset holds no examples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features of example `i`.
    #[inline]
    pub fn example(&self, i: usize) -> &[f32] {
        &self.features[i * self.example_len..(i + 1) * self.example_len]
    }

    /// Label of example `i`.
    #[inline]
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// New dataset holding the examples at `indices` (cloned).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut features = Vec::with_capacity(indices.len() * self.example_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            features.extend_from_slice(self.example(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            features,
            labels,
            example_len: self.example_len,
            num_classes: self.num_classes,
            name: self.name.clone(),
        }
    }

    /// Per-class example counts.
    #[cfg(test)]
    pub(crate) fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new("toy", vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], vec![0, 1, 0], 2, 2)
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.example(1), &[2.0, 3.0]);
        assert_eq!(d.label(2), 0);
        assert_eq!(d.class_counts(), vec![2, 1]);
    }

    #[test]
    fn subset_clones_selected_rows() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.example(0), &[4.0, 5.0]);
        assert_eq!(s.labels, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new("bad", vec![0.0, 1.0], vec![5], 2, 2);
    }
}
