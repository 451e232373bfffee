use snn_tensor::{Shape, Tensor};

/// A procedurally generated spiking dataset.
///
/// Samples are produced deterministically from `(dataset seed, index)`;
/// implementations hold no sample storage. Index ranges conventionally
/// split into train/test by the caller (e.g. the first 80% for training).
pub trait SpikeDataset {
    /// Number of samples the dataset exposes.
    fn len(&self) -> usize;

    /// `true` if the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    fn classes(&self) -> usize;

    /// Per-tick input shape (e.g. `[2×34×34]`).
    fn input_shape(&self) -> Shape;

    /// Nominal sample duration in simulation ticks — the unit of the
    /// paper's "test duration (samples)" metric.
    fn steps(&self) -> usize;

    /// Generates sample `idx`: a binary `[steps × features]` spike tensor
    /// and its class label.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    fn sample(&self, idx: usize) -> (Tensor, usize);
}

/// Materializes samples `range` of `ds` into memory as `(input, label)`
/// pairs.
///
/// # Panics
///
/// Panics if the range exceeds the dataset length.
pub fn materialize<D: SpikeDataset + ?Sized>(
    ds: &D,
    range: std::ops::Range<usize>,
) -> Vec<(Tensor, usize)> {
    range.map(|i| ds.sample(i)).collect()
}

/// Materializes the inputs only (labels dropped) — what detection
/// campaigns and criticality labelling consume.
///
/// # Panics
///
/// Panics if the range exceeds the dataset length.
pub fn materialize_inputs<D: SpikeDataset + ?Sized>(
    ds: &D,
    range: std::ops::Range<usize>,
) -> Vec<Tensor> {
    range.map(|i| ds.sample(i).0).collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;

    /// Minimal in-test dataset: one spike at (idx mod features).
    struct OneHot {
        n: usize,
        features: usize,
    }

    impl SpikeDataset for OneHot {
        fn len(&self) -> usize {
            self.n
        }
        fn classes(&self) -> usize {
            self.features
        }
        fn input_shape(&self) -> Shape {
            Shape::d1(self.features)
        }
        fn steps(&self) -> usize {
            1
        }
        fn sample(&self, idx: usize) -> (Tensor, usize) {
            assert!(idx < self.n);
            let mut t = Tensor::zeros(Shape::d2(1, self.features));
            let label = idx % self.features;
            t[[0, label]] = 1.0;
            (t, label)
        }
    }

    #[test]
    fn materialize_respects_range() {
        let ds = OneHot { n: 10, features: 3 };
        let v = materialize(&ds, 2..5);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].1, 2);
        assert_eq!(v[2].1, 4 % 3);
    }

    #[test]
    fn materialize_inputs_drops_labels() {
        let ds = OneHot { n: 4, features: 2 };
        let v = materialize_inputs(&ds, 0..4);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|t| t.sum() == 1.0));
    }

    #[test]
    fn is_empty_default() {
        let ds = OneHot { n: 0, features: 2 };
        assert!(ds.is_empty());
    }
}
