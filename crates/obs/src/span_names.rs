//! The workspace span-name registry.
//!
//! Every `span!("…")` / [`crate::trace::enter_with_parent`] name used by
//! production code is declared here, so span names stay greppable, stable
//! across refactors, and consistent between the profile tree and any
//! external trace consumer. The `names` test of this crate checks both
//! directions: a span name used in `crates/*/src` but missing here fails
//! it, and so does a registry entry no instrumentation site uses.
//!
//! Naming convention: `<subsystem>[.<operation>]`, lowercase, dot-separated
//! (`generate.calibrate`, `cluster.chunk`). Nesting in the profile tree
//! comes from guard scopes at runtime, not from the name, but the dotted
//! prefix should still reflect the intended parent.
//!
//! *Synthetic* spans — records pushed wholesale via
//! [`Collector::push_synthetic`](crate::trace::Collector::push_synthetic)
//! rather than opened by a guard at an instrumentation site — are outside
//! this registry: their names are dynamic (`phase.inject`,
//! `phase.forward.l3`, `worker:<name>`), so there is no literal site for
//! the test to cross-check. The stable prefixes are `phase.` for
//! kernel-phase totals — including the packed engine's `phase.pack.plan`
//! / `phase.pack.assign` / `phase.pack.run` rows — and `worker:` for
//! per-worker trace subtrees.

/// Every production span name, grouped by subsystem, each group sorted.
pub const SPAN_NAMES: &[&str] = &[
    // snn-analyze: static pre-analysis of the network.
    "analyze",
    "analyze.intervals",
    // snn-faults, packed engine: the bit-packed fault-parallel campaign.
    "batch.plan",
    "batch.run",
    // snn-cluster + the service's worker-message handler.
    "cluster.campaign",
    "cluster.chunk",
    "cluster.worker_msg",
    // snn-faults: fault-simulation campaigns.
    "faultsim.baseline",
    "faultsim.campaign",
    "faultsim.worker",
    // snn-testgen: the two-stage test generator.
    "generate",
    "generate.calibrate",
    "generate.iteration",
    "stage.losses",
    "stage.noise",
    "stage.sample",
    "stage.soften",
    "stage.update",
    "stage.wait",
    "stage1",
    "stage2",
    // snn-reliability: reliability-impact campaigns.
    "reliability.chunk",
    "reliability.prepare",
    // snn-model: forward/backward simulation kernels.
    "snn.backward",
    "snn.forward",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_within_groups_and_duplicate_free() {
        let mut seen = std::collections::BTreeSet::new();
        for name in SPAN_NAMES {
            assert!(seen.insert(*name), "duplicate span name {name:?}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "span name {name:?} breaks the lowercase dotted convention"
            );
        }
    }
}
