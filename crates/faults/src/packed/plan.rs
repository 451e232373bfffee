//! Fault planning and lane assignment: which faults the packed engine
//! can take, grouped into packs of at most 64 compatible variants.
//!
//! The packed sweep reads its verdict off binary output spikes, so it
//! takes a campaign when the network's last layer is spiking, and then
//! takes every fault that sits at a spiking layer — dense, conv or
//! recurrent, whatever follows it. Anything else (every fault of a
//! network that ends in a pooling layer; a hand-made fault addressed to a
//! pooling layer) is listed as **fallback** for the scalar engine.
//!
//! Packs group faults by their fault layer — every member of a pack
//! starts diverging at the same layer, so one sweep of the layers behind
//! it serves all of them. Lane assignment is positional: member `i` sits
//! at lane `i`, shifted up by one when the pack reserves lane 0 for the
//! golden self-check (packs with fewer than 64 members do; a full
//! 64-member pack uses every lane for variants).
//!
//! Packs are the unit threads claim, and their cost is far from uniform
//! (a conv-weight variant costs hundreds of dense ones), so a layer group
//! too small to give every thread a full pack is cut into one pack per
//! thread instead of one pack in all.

use crate::Fault;
use snn_model::{Layer, Network};
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::packed::LANES;

/// Index of the first layer of the network's trailing all-dense run:
/// the smallest `s` such that every layer in `s..len` is dense. Equals
/// `len` when the last layer is not dense.
///
/// The planner stopped using this when conv, pool-crossing and recurrent
/// sites became packable; it stays exported because the repo benchmark
/// defines its `batch.packable_share` probe by it.
pub fn dense_suffix_start(net: &Network) -> usize {
    let layers = net.layers();
    let mut s = layers.len();
    while s > 0 && matches!(layers[s - 1], Layer::Dense(_)) {
        s -= 1;
    }
    s
}

/// One pack: up to 64 fault variants confined to the same layer, each
/// assigned a bit lane of the packed spike words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pack {
    /// Layer every member fault is confined to.
    pub layer: usize,
    /// Member faults as indices into the campaign's fault slice, in lane
    /// order.
    pub members: Vec<usize>,
    /// `true` when lane 0 is reserved for a fault-free golden self-check
    /// (members then occupy lanes `1..=len`). Reserved whenever the pack
    /// is not full — the check costs nothing (golden bits are broadcast
    /// anyway) and lets debug builds assert the golden lane never
    /// diverges.
    pub golden_lane: bool,
}

impl Pack {
    /// Bit lane of member `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `i` is not a member index.
    pub fn lane(&self, i: usize) -> u32 {
        debug_assert!(i < self.members.len(), "member index out of range");
        // members.len() + golden ≤ 64, so the lane always fits.
        u32::try_from(i + usize::from(self.golden_lane)).unwrap_or(u32::MAX)
    }

    /// Occupied lanes: members plus the golden lane when reserved.
    pub fn lanes(&self) -> usize {
        self.members.len() + usize::from(self.golden_lane)
    }
}

/// The engine's split of a campaign fault list: packs for the packed
/// kernel plus the scalar-fallback remainder. Indices refer to the fault
/// slice the plan was built from; every index appears exactly once.
/// Outside the crate a plan is its three counts (what `verify` prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Packs in ascending fault-layer order, members in supplied order.
    pub(crate) packs: Vec<Pack>,
    /// Faults the packed kernel cannot take, in supplied order. A
    /// campaign with any runs on the scalar engine as a whole.
    pub(crate) fallback: Vec<usize>,
}

impl FaultPlan {
    /// Total faults assigned to packs.
    pub fn packed_faults(&self) -> usize {
        self.packs.iter().map(|p| p.members.len()).sum()
    }

    /// Number of packs.
    pub fn pack_count(&self) -> usize {
        self.packs.len()
    }

    /// Number of faults left to the scalar engine.
    pub fn fallback_count(&self) -> usize {
        self.fallback.len()
    }
}

/// Plans `faults` over `net` for a campaign on `threads` threads:
/// partitions into packable/fallback, groups packable faults by fault
/// layer, cuts each group into packs and assigns lanes. Records its two
/// stages into `local` as the `pack.plan` / `pack.assign` kernel phases.
pub fn plan(net: &Network, faults: &[Fault], threads: usize, local: &mut LocalPhases) -> FaultPlan {
    use snn_obs::clock::monotonic;

    // Stage 1 — partition by packability and group by fault layer.
    // Layer-indexed vectors (not a hash map) keep iteration order
    // deterministic.
    let plan_started = monotonic();
    let layers = net.layers();
    let spiking_output = layers.last().is_some_and(Layer::is_spiking);
    let mut by_layer: Vec<Vec<usize>> = vec![Vec::new(); layers.len()];
    let mut fallback = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let layer = fault.site.layer();
        if spiking_output && layers.get(layer).is_some_and(Layer::is_spiking) {
            by_layer[layer].push(i);
        } else {
            fallback.push(i);
        }
    }
    let assign_started = monotonic();
    local.add(Phase::PackPlan, assign_started.saturating_sub(plan_started));

    // Stage 2 — cut each layer group into packs and assign lanes: full
    // 64-wide packs while the group has one for every thread, an even
    // split across the threads below that.
    let mut packs = Vec::new();
    for (layer, group) in by_layer.iter().enumerate() {
        let width = group.len().div_ceil(threads.max(1)).clamp(1, LANES);
        for chunk in group.chunks(width) {
            packs.push(Pack { layer, members: chunk.to_vec(), golden_lane: chunk.len() < LANES });
        }
    }
    local.add(Phase::PackAssign, monotonic().saturating_sub(assign_started));

    FaultPlan { packs, fallback }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultUniverse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn dense_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng)
    }

    #[test]
    fn all_dense_network_packs_everything_exactly_once() {
        let net = dense_net();
        assert_eq!(dense_suffix_start(&net), 0);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), 1, &mut LocalPhases::new());
        assert!(p.fallback.is_empty());
        assert_eq!(p.packed_faults(), u.len());
        // Every index appears exactly once, and packs are ≤ 64 wide.
        let mut seen: Vec<usize> = p.packs.iter().flat_map(|pk| pk.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..u.len()).collect::<Vec<_>>());
        for pk in &p.packs {
            assert!(pk.members.len() <= LANES);
            assert_eq!(pk.golden_lane, pk.members.len() < LANES);
            assert!(pk.lanes() <= LANES);
        }
    }

    #[test]
    fn lane_assignment_shifts_past_the_golden_lane() {
        let partial = Pack { layer: 0, members: vec![5, 9], golden_lane: true };
        assert_eq!(partial.lane(0), 1);
        assert_eq!(partial.lane(1), 2);
        assert_eq!(partial.lanes(), 3);
        let full = Pack { layer: 0, members: (0..LANES).collect(), golden_lane: false };
        assert_eq!(full.lane(0), 0);
        assert_eq!(full.lane(63), 63);
        assert_eq!(full.lanes(), LANES);
    }

    #[test]
    fn conv_sites_pack_although_outside_the_dense_suffix() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .dense(5)
            .build(&mut rng);
        assert_eq!(dense_suffix_start(&net), 2);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), 1, &mut LocalPhases::new());
        assert!(p.fallback.is_empty());
        assert_eq!(p.packed_faults(), u.len());
        assert!(p.packs.iter().any(|pk| pk.layer == 0));
        assert!(p.packs.iter().all(|pk| pk.layer != 1), "a pooling layer has no fault site");
    }

    #[test]
    fn non_spiking_last_layer_packs_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), 1, &mut LocalPhases::new());
        assert!(p.packs.is_empty());
        assert_eq!(p.fallback, (0..u.len()).collect::<Vec<_>>());
    }

    #[test]
    fn packs_group_by_fault_layer() {
        let net = dense_net();
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), 2, &mut LocalPhases::new());
        for pk in &p.packs {
            for &i in &pk.members {
                assert_eq!(u.faults()[i].site.layer(), pk.layer);
            }
        }
    }

    #[test]
    fn a_group_too_small_for_every_thread_is_split_evenly() {
        let net = dense_net();
        let u = FaultUniverse::standard(&net);
        let last: Vec<Fault> = u.faults().iter().filter(|f| f.site.layer() == 0).copied().collect();
        let sizes = |count: usize, threads: usize| -> Vec<usize> {
            plan(&net, &last[..count], threads, &mut LocalPhases::new())
                .packs
                .iter()
                .map(|pk| pk.members.len())
                .collect()
        };
        assert!(last.len() >= 65);
        assert_eq!(sizes(55, 1), vec![55]);
        assert_eq!(sizes(65, 1), vec![64, 1]);
        assert_eq!(sizes(55, 2), vec![28, 27]);
        assert_eq!(sizes(55, 4), vec![14, 14, 14, 13]);
        assert_eq!(sizes(3, 8), vec![1, 1, 1]);
    }
}
