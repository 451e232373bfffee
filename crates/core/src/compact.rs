//! Post-generation test compaction.
//!
//! The generator's outer loop is greedy over iterations: an early chunk's
//! activation contribution may later be subsumed by chunks produced for
//! harder target sets. Since total test time is the paper's headline
//! metric (Eq. 8 counts every chunk *twice* — stimulus plus reset gap),
//! pruning redundant chunks directly shortens the test.
//! [`compact_by_activation`] drops chunks whose activated-neuron set is
//! covered by the union of the retained chunks. It is cheap (one forward
//! pass per chunk, no fault simulation) and conservative: neuron
//! activation is the proxy the generation loop itself optimizes. It
//! preserves chunk order (the test still runs oldest-first) and never
//! produces an empty test.

use crate::GeneratedTest;
use snn_model::{Network, RecordOptions};

/// Per-chunk set-cover pruning: `sets[j]` is the element set contributed
/// by chunk `j`; returns the kept chunk indices (in order). A chunk is
/// dropped when every element it contributes is also contributed by some
/// retained chunk. Chunks are considered for removal in ascending
/// contribution-size order, so small chunks go first.
fn prune_covered(sets: &[Vec<bool>]) -> Vec<usize> {
    let d = sets.len();
    if d <= 1 {
        return (0..d).collect();
    }
    let n = sets.first().map_or(0, |s| s.len());
    let mut kept: Vec<bool> = vec![true; d];
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by_key(|&j| sets[j].iter().filter(|&&b| b).count());
    for &candidate in &order {
        // Union of all other kept chunks.
        let mut covered = vec![false; n];
        for (j, set) in sets.iter().enumerate() {
            if j == candidate || !kept[j] {
                continue;
            }
            for (c, &s) in covered.iter_mut().zip(set.iter()) {
                *c |= s;
            }
        }
        let redundant =
            sets[candidate].iter().zip(covered.iter()).all(|(&own, &other)| !own || other);
        // Keep at least one chunk even if everything is redundant.
        if redundant && kept.iter().filter(|&&k| k).count() > 1 {
            kept[candidate] = false;
        }
    }
    (0..d).filter(|&j| kept[j]).collect()
}

fn rebuild(test: &GeneratedTest, keep: &[usize]) -> GeneratedTest {
    let chunks = keep.iter().map(|&j| test.chunks[j].clone()).collect();
    let mut out = GeneratedTest::from_chunks(chunks, test.input_features, test.activated.clone());
    out.runtime = test.runtime;
    out.iterations = keep.iter().filter_map(|&j| test.iterations.get(j).cloned()).collect();
    out
}

/// Removes chunks whose activated-neuron set (spike count ≥ `min_spikes`)
/// is covered by the remaining chunks. Returns the compacted test and the
/// indices of the retained chunks.
///
/// # Panics
///
/// Panics if the test has no chunks or chunk shapes mismatch `net`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{LifParams, NetworkBuilder};
/// use snn_testgen::{compact_by_activation, GeneratedTest};
/// use snn_tensor::{Shape, Tensor};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
/// // Duplicate chunks: compaction must drop one.
/// let chunk = Tensor::full(Shape::d2(10, 4), 1.0);
/// let test = GeneratedTest::from_chunks(vec![chunk.clone(), chunk], 4, vec![]);
/// let (compact, kept) = compact_by_activation(&net, &test, 1.0);
/// assert_eq!(kept.len(), 1);
/// assert!(compact.test_steps() < test.test_steps());
/// ```
pub fn compact_by_activation(
    net: &Network,
    test: &GeneratedTest,
    min_spikes: f32,
) -> (GeneratedTest, Vec<usize>) {
    assert!(!test.chunks.is_empty(), "cannot compact an empty test");
    let sets: Vec<Vec<bool>> = test
        .chunks
        .iter()
        .map(|chunk| {
            let trace = net.forward(chunk, RecordOptions::spikes_only());
            let mut mask = Vec::with_capacity(net.neuron_count());
            for (idx, layer) in net.layers().iter().enumerate() {
                if !layer.is_spiking() {
                    continue;
                }
                mask.extend(trace.layers[idx].spike_counts().into_iter().map(|c| c >= min_spikes));
            }
            mask
        })
        .collect();
    let keep = prune_covered(&sets);
    (rebuild(test, &keep), keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::{Shape, Tensor};

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 0, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng)
    }

    #[test]
    fn prune_keeps_complementary_sets() {
        let sets =
            vec![vec![true, false, false], vec![false, true, false], vec![false, false, true]];
        assert_eq!(prune_covered(&sets), vec![0, 1, 2]);
    }

    #[test]
    fn prune_drops_subsets_and_duplicates() {
        let sets = vec![
            vec![true, true, false],
            vec![true, false, false], // subset of 0
            vec![true, true, false],  // duplicate of 0
            vec![false, false, true],
        ];
        let kept = prune_covered(&sets);
        assert!(kept.contains(&3));
        // exactly one of {0, 2} survives, 1 never does
        assert!(!kept.contains(&1));
        assert_eq!(kept.iter().filter(|&&j| j == 0 || j == 2).count(), 1);
    }

    #[test]
    fn prune_never_empties_the_test() {
        let sets = vec![vec![false, false], vec![false, false]];
        let kept = prune_covered(&sets);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn activation_compaction_preserves_total_activation() {
        let n = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let chunks: Vec<Tensor> = (0..4)
            .map(|i| snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 6), 0.2 + 0.15 * i as f32))
            .collect();
        let test = GeneratedTest::from_chunks(chunks, 6, vec![]);
        let (compact, kept) = compact_by_activation(&n, &test, 1.0);
        assert!(!kept.is_empty());
        assert!(compact.test_steps() <= test.test_steps());

        // Union of activation over kept chunks equals union over all.
        let union = |t: &GeneratedTest| -> Vec<bool> {
            let mut u = vec![false; n.neuron_count()];
            for chunk in &t.chunks {
                let trace = n.forward(chunk, RecordOptions::spikes_only());
                let mut off = 0;
                for (idx, layer) in n.layers().iter().enumerate() {
                    if !layer.is_spiking() {
                        continue;
                    }
                    for (k, c) in trace.layers[idx].spike_counts().into_iter().enumerate() {
                        if c >= 1.0 {
                            u[off + k] = true;
                        }
                    }
                    off += layer.out_features();
                }
            }
            u
        };
        assert_eq!(union(&compact), union(&test));
    }

    #[test]
    #[should_panic(expected = "empty test")]
    fn compaction_rejects_empty_tests() {
        let n = net(5);
        let test = GeneratedTest::from_chunks(vec![], 6, vec![]);
        let _ = compact_by_activation(&n, &test, 1.0);
    }
}
