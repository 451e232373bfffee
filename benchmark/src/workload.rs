//! The five workloads: which network each runs, how its test is
//! generated and which faults its campaign covers.
//!
//! Networks are fixtures: random weights from [`FIXTURE_SEED`] (the
//! default of `snn-mtfc new`), so every run of a workload tests the
//! same circuit. `--seed` is the seed a user passes to
//! `snn-mtfc generate` / `submit`: it drives the optimizer's random
//! stream and so changes every stimulus, verdict and digest — but not
//! the amount of work, because generation runs a fixed schedule
//! ([`fixed_schedule`]). A free-running `repro()` generation picks its
//! own duration and iteration count, and its wall time moves 10× from
//! seed to seed on the same network; a yardstick cannot.

use snn_mtfc::cluster::build_model;
use snn_mtfc::model::{LifParams, Network, NetworkBuilder};
use snn_mtfc::service::{JobSpec, ModelSpec};
use snn_mtfc::testgen::TestGenConfig;

/// Weight seed of every fixture network.
pub const FIXTURE_SEED: u64 = 42;

/// Campaign threads of the in-process workloads; the cluster workload
/// runs the same number of single-threaded workers.
pub const CAMPAIGN_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineDense,
    PipelineConv,
    PipelineRecurrent,
    CampaignDense,
    ClusterDense,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PipelineDense,
        Workload::PipelineConv,
        Workload::PipelineRecurrent,
        Workload::CampaignDense,
        Workload::ClusterDense,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineDense => "pipeline-dense",
            Workload::PipelineConv => "pipeline-conv",
            Workload::PipelineRecurrent => "pipeline-recurrent",
            Workload::CampaignDense => "campaign-dense",
            Workload::ClusterDense => "cluster-dense",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let known: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }
}

/// Sizes of one workload. `smoke` shrinks every network to `6 → 12 → 4`
/// and every schedule to a few steps, keeping all code paths.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub smoke: bool,
    /// Generation schedule of the direct (in-process) pipeline.
    pub gen: TestGenConfig,
    /// The campaign simulates every `fault_stride`-th fault of the
    /// standard universe.
    pub fault_stride: usize,
    /// Faults in the packed-vs-scalar digest check (strided sample).
    pub check_faults: usize,
}

impl Plan {
    pub fn new(workload: Workload, smoke: bool) -> Self {
        let (gen, fault_stride, check_faults) = if smoke {
            (fixed_schedule(TestGenConfig::fast(), 8, 4, 8, 2), 1, 64)
        } else {
            match workload {
                // Generation ~80% of the operation, campaign fully packable.
                Workload::PipelineDense => {
                    (fixed_schedule(TestGenConfig::repro(), 250, 125, 32, 2), 1, 1024)
                }
                // Conv kernels dominate generation; the campaign's conv
                // sites (11% of faults) run on the scalar engine and
                // dominate it, so it covers every 48th fault only.
                Workload::PipelineConv => {
                    (fixed_schedule(TestGenConfig::repro(), 30, 15, 32, 2), 48, 256)
                }
                // 89% of faults sit in the recurrent layer: neither packing
                // nor prefix caching applies, the scalar campaign dominates.
                Workload::PipelineRecurrent => {
                    (fixed_schedule(TestGenConfig::repro(), 250, 125, 32, 2), 8, 1024)
                }
                // The stimulus is made once, in set-up, on the schedule the
                // service follows for `cluster-dense` (see `job_spec`).
                Workload::CampaignDense | Workload::ClusterDense => {
                    (fixed_schedule(TestGenConfig::fast(), 60, 30, 20, 2), 1, 1024)
                }
            }
        };
        Self { workload, smoke, gen, fault_stride, check_faults }
    }

    /// The fixture network under test.
    pub fn build_net(&self) -> Network {
        let lif = LifParams::default();
        // The three example networks of the README and ci.sh.
        let builder = match self.workload {
            Workload::PipelineDense if !self.smoke => {
                NetworkBuilder::new_spatial(2, 16, 16, lif).avg_pool(2).dense(48).dense(10)
            }
            Workload::PipelineConv if !self.smoke => NetworkBuilder::new_spatial(2, 24, 24, lif)
                .avg_pool(2)
                .conv(6, 5, 1, 2)
                .avg_pool(2)
                .dense(32)
                .dense(11),
            Workload::PipelineRecurrent if !self.smoke => {
                NetworkBuilder::new(140, lif).recurrent(32).dense(20)
            }
            // Built by the function the job server and its workers build it
            // with, so `campaign-dense` and `cluster-dense` cannot drift apart.
            _ => {
                return build_model(&self.synthetic_model())
                    .expect("a synthetic model spec names no file and cannot fail to build")
            }
        };
        builder.build(&mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(FIXTURE_SEED))
    }

    /// The all-dense network `campaign-dense` simulates in-process and
    /// `cluster-dense` (and the service/cluster probe of every other
    /// workload) reaches through the job server.
    pub fn synthetic_model(&self) -> ModelSpec {
        let (inputs, hidden, outputs) =
            if self.smoke { (6, vec![12], 4) } else { (64, vec![64, 32], 10) };
        ModelSpec::Synthetic { inputs, hidden, outputs, seed: FIXTURE_SEED }
    }

    /// The coverage job `cluster-dense` submits.
    pub fn job_spec(&self, seed: u64) -> JobSpec {
        JobSpec {
            model: self.synthetic_model(),
            preset: "fast".into(),
            seed,
            // The service takes a preset and an iteration cap, nothing
            // finer. On this network the `fast` preset always needs both
            // iterations and never stalls into a duration growth, which
            // makes the cap a fixed schedule in effect.
            max_iterations: Some(2),
            t_limit_secs: None,
            evaluate_coverage: true,
            threads: CAMPAIGN_THREADS,
            reliability: None,
            engine: None,
        }
    }
}

/// `base` with the adaptive parts pinned: a given input duration instead
/// of calibration, no duration growth and a cap of `iterations` outer
/// iterations that these networks always reach, so every seed performs
/// the same number of optimizer steps over the same number of ticks.
fn fixed_schedule(
    base: TestGenConfig,
    stage1: usize,
    stage2: usize,
    t_in: usize,
    iterations: usize,
) -> TestGenConfig {
    TestGenConfig {
        stage1_steps: stage1,
        stage2_steps: stage2,
        t_in_min: Some(t_in),
        max_growths: 0,
        max_iterations: iterations,
        ..base
    }
}
