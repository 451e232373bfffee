//! Post-training weight edits: magnitude pruning.

use crate::Network;

/// Zeroes the `fraction` smallest-magnitude weights of `net` (global
/// magnitude pruning, ties broken by enumeration order). Returns the
/// number of weights newly set to zero. Used by `snn-mtfc new
/// --sparsity` to produce realistic sparse example networks.
pub fn magnitude_prune(net: &mut Network, fraction: f64) -> usize {
    let total = net.synapse_count();
    let clamped = fraction.clamp(0.0, 1.0);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        reason = "usize→f64→usize round-trip is exact for any real synapse count; the clamp keeps the index in range"
    )]
    let keep_cutoff = ((total as f64) * clamped).floor() as usize;
    let mut refs: Vec<(f32, usize)> =
        (0..total).map(|g| (net.weight(net.locate_weight(g)).abs(), g)).collect();
    refs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut zeroed = 0;
    for &(_, g) in refs.iter().take(keep_cutoff) {
        let r = net.locate_weight(g);
        if net.set_weight(r, 0.0) != 0.0 {
            zeroed += 1;
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LifParams, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn magnitude_prune_zeroes_the_requested_fraction_once() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net =
            NetworkBuilder::new(6, LifParams::default()).dense(8).dense(3).build(&mut rng);
        let total = net.synapse_count();
        let zeroed = magnitude_prune(&mut net, 0.5);
        assert_eq!(zeroed, total / 2); // Kaiming init: no pre-existing zeros
        let zeros = (0..total).filter(|&g| net.weight(net.locate_weight(g)) == 0.0).count();
        assert_eq!(zeros, total / 2);
        assert_eq!(magnitude_prune(&mut net, 0.5), 0, "idempotent on zeroes");
    }
}
