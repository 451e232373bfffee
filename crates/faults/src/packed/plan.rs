//! Fault planning: which faults the packed engine can take, grouped
//! into *runs* of consecutive faults of one fault layer.
//!
//! The packed sweep reads its verdict off binary output spikes, so it
//! takes a campaign when the network's last layer is spiking, and then
//! takes every fault that sits at a spiking layer — dense, conv or
//! recurrent, whatever follows it. Anything else (every fault of a
//! network that ends in a pooling layer; a hand-made fault addressed to a
//! pooling layer) is listed as **fallback** for the scalar engine.
//!
//! Runs group faults by their fault layer — every member of a run starts
//! diverging at the same layer, so the layers behind it can be swept once
//! for every distinct divergence among the members (`pack.rs`). A run is
//! wider than the 64 lanes a sweep carries: the universe lists a neuron's
//! synapse faults next to each other, and those are the faults that
//! diverge alike, so the wider the run the more of them are swept once.
//!
//! Runs are the unit threads claim, and their cost is far from uniform (a
//! conv-weight variant costs hundreds of dense ones). On one thread a run
//! is [`RUN_MAX`] faults of its group. On `T > 1` threads it is
//! `max(p, min(RUN_MAX, ⌈F / 8T⌉))` for a campaign of `F` faults, where
//! `p` is a 64-lane pack cut so that a group too small to give every
//! thread one holds one per thread: every thread keeps about eight runs,
//! and a run is never narrower than that pack.

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

/// Widest run, in faults.
pub(crate) const RUN_MAX: usize = 512;

/// One run: consecutive faults of one fault layer, claimed by a thread as
/// a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Run {
    /// Layer every member fault is confined to.
    pub layer: usize,
    /// Member faults as indices into the campaign's fault slice, in
    /// supplied order.
    pub members: Vec<usize>,
}

/// The engine's split of a campaign fault list: runs for the packed
/// kernel plus the scalar-fallback remainder. Indices refer to the fault
/// slice the plan was built from; every index appears exactly once.
/// Outside the crate a plan is its three counts (what `verify` prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Runs in ascending fault-layer order, members in supplied order.
    pub(crate) runs: Vec<Run>,
    /// Faults the packed kernel cannot take, in supplied order. A
    /// campaign with any runs on the scalar engine as a whole.
    pub(crate) fallback: Vec<usize>,
}

impl FaultPlan {
    /// Total faults assigned to runs.
    pub fn packed_faults(&self) -> usize {
        self.runs.iter().map(|r| r.members.len()).sum()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of faults left to the scalar engine.
    pub fn fallback_count(&self) -> usize {
        self.fallback.len()
    }
}

/// Plans `faults` over `net` for a campaign on `threads` threads:
/// partitions into packable/fallback, groups packable faults by fault
/// layer and cuts each group into runs. Records its two stages into
/// `local` as the `pack.plan` / `pack.assign` kernel phases.
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

    // Stage 2 — cut each layer group into runs.
    let threads = threads.max(1);
    let mut runs = Vec::new();
    for (layer, group) in by_layer.iter().enumerate() {
        let width = if threads == 1 {
            RUN_MAX
        } else {
            let pack = group.len().div_ceil(threads).clamp(1, LANES);
            pack.max(faults.len().div_ceil(8 * threads).min(RUN_MAX))
        };
        for chunk in group.chunks(width) {
            runs.push(Run { layer, members: chunk.to_vec() });
        }
    }
    local.add(Phase::PackAssign, monotonic().saturating_sub(assign_started));

    FaultPlan { runs, fallback }
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
        for threads in [1, 2] {
            let p = plan(&net, u.faults(), threads, &mut LocalPhases::new());
            assert!(p.fallback.is_empty());
            assert_eq!(p.packed_faults(), u.len());
            // Every index appears exactly once, in supplied order within
            // a run.
            let mut seen: Vec<usize> = p.runs.iter().flat_map(|r| r.members.clone()).collect();
            assert!(p.runs.iter().all(|r| r.members.is_sorted()));
            seen.sort_unstable();
            assert_eq!(seen, (0..u.len()).collect::<Vec<_>>());
        }
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
        assert!(p.runs.iter().any(|r| r.layer == 0));
        assert!(p.runs.iter().all(|r| r.layer != 1), "a pooling layer has no fault site");
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
        assert!(p.runs.is_empty());
        assert_eq!(p.fallback, (0..u.len()).collect::<Vec<_>>());
    }

    #[test]
    fn runs_group_by_fault_layer() {
        let net = dense_net();
        let u = FaultUniverse::standard(&net);
        let p = plan(&net, u.faults(), 2, &mut LocalPhases::new());
        for r in &p.runs {
            for &i in &r.members {
                assert_eq!(u.faults()[i].site.layer(), r.layer);
            }
        }
    }

    /// One thread takes runs of `RUN_MAX`; more threads keep about eight
    /// runs each, never narrower than a 64-lane pack cut once per thread.
    #[test]
    fn run_width_follows_the_campaign_and_the_thread_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(64, LifParams::default()).dense(48).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let first: Vec<Fault> =
            u.faults().iter().filter(|f| f.site.layer() == 0).copied().collect();
        let sizes = |count: usize, threads: usize| -> Vec<usize> {
            plan(&net, &first[..count], threads, &mut LocalPhases::new())
                .runs
                .iter()
                .map(|r| r.members.len())
                .collect()
        };
        assert!(first.len() > 16 * RUN_MAX);
        assert_eq!(sizes(55, 1), vec![55]);
        assert_eq!(sizes(600, 1), vec![512, 88]);
        // ⌈F / 8T⌉ below a pack: the pack wins.
        assert_eq!(sizes(55, 2), vec![28, 27]);
        assert_eq!(sizes(3, 8), vec![1, 1, 1]);
        assert_eq!(sizes(1000, 2), [&[64; 15][..], &[40]].concat());
        // Above it: ⌈F / 8T⌉, up to RUN_MAX.
        assert_eq!(sizes(2000, 2), [125; 16]);
        assert_eq!(sizes(8193, 1), [&[RUN_MAX; 16][..], &[1]].concat());
        assert_eq!(sizes(8193, 2), [&[RUN_MAX; 16][..], &[1]].concat());
    }
}
