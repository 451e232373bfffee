//! The direct pipeline: model file in, verified test out, every stage a
//! call into one public function of the library, timed from outside.

use crate::span::Tracer;
use crate::workload::{Plan, CAMPAIGN_THREADS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_mtfc::batch::engine_detect;
use snn_mtfc::faults::{
    verdict_digest_hex, CampaignOutcome, CancelToken, Engine, Fault, FaultSimConfig, FaultUniverse,
    NullSink,
};
use snn_mtfc::model::Network;
use snn_mtfc::tensor::Tensor;
use snn_mtfc::testgen::{compact_by_activation, parse_events, TestGenerator};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Seconds each stage of one pipeline pass took.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    pub load: f64,
    pub generate: f64,
    pub compact: f64,
    pub events_io: f64,
    pub universe: f64,
    pub campaign: f64,
    pub digest: f64,
}

/// What a campaign over a fixed stimulus reports.
#[derive(Debug, Clone)]
pub struct Verdicts {
    pub digest: String,
    pub detected: usize,
    pub campaign_s: f64,
    pub digest_s: f64,
}

/// The outcome of one pipeline pass, with what the pass built kept for
/// the correctness checks and the layer probes.
pub struct Verified {
    pub net: Network,
    pub stimulus: Tensor,
    pub universe: FaultUniverse,
    /// The campaign's fault list: every `fault_stride`-th of the universe.
    pub faults: Vec<Fault>,
    pub verdicts: Verdicts,
    pub stages: StageSeconds,
    /// Length of the compacted test, Eq. (8).
    pub test_ticks: usize,
    pub iterations: usize,
    pub growths: usize,
    pub chunks: usize,
    pub chunks_kept: usize,
    pub activated_fraction: f64,
}

/// One workload's pipeline over files in its working directory.
pub struct Pipeline {
    plan: Plan,
    seed: u64,
    model_path: PathBuf,
    events_path: PathBuf,
}

impl Pipeline {
    /// Builds the fixture network and saves it as the model file every
    /// pass then starts from.
    pub fn create(plan: Plan, seed: u64, work_dir: &Path) -> Result<Self, String> {
        let model_path = work_dir.join("model.snn");
        let net = plan.build_net();
        let file = File::create(&model_path).map_err(|e| format!("{model_path:?}: {e}"))?;
        let mut w = BufWriter::new(file);
        net.save(&mut w).and_then(|()| w.flush()).map_err(|e| format!("{model_path:?}: {e}"))?;
        Ok(Self { plan, seed, model_path, events_path: work_dir.join("test.events") })
    }

    /// Load → generate → compact → write and re-read the event list →
    /// enumerate faults → campaign → digest.
    pub fn run(&self, tr: &mut Tracer) -> Result<Verified, String> {
        let cfg = &self.plan.gen;
        let mut stages = StageSeconds::default();

        let (net, s) = tr.time("model.load", |_| {
            let file = File::open(&self.model_path).map_err(|e| e.to_string())?;
            Network::load(&mut BufReader::new(file)).map_err(|e| e.to_string())
        });
        let net = net.map_err(|e| format!("cannot load {:?}: {e}", self.model_path))?;
        stages.load = s;

        let (test, s) = tr.time("testgen.generate", |_| {
            TestGenerator::new(&net, cfg.clone()).generate(&mut StdRng::seed_from_u64(self.seed))
        });
        stages.generate = s;
        if test.chunks.is_empty() {
            return Err("generation produced no chunk".into());
        }
        // Past the budget the generator stops early, and how early
        // depends on the clock: such a run cannot repeat.
        if test.runtime > cfg.t_limit / 2 {
            return Err(format!(
                "generation used {:?} of a {:?} budget",
                test.runtime, cfg.t_limit
            ));
        }

        let ((compact, kept), s) = tr.time("testgen.compact", |_| {
            compact_by_activation(&net, &test, cfg.activation_min_spikes)
        });
        stages.compact = s;

        let (stimulus, s) = tr.time("testgen.events_io", |_| -> Result<Tensor, String> {
            let mut w = BufWriter::new(File::create(&self.events_path).map_err(|e| e.to_string())?);
            compact.write_events(&mut w).and_then(|()| w.flush()).map_err(|e| e.to_string())?;
            drop(w);
            parse_events(&std::fs::read_to_string(&self.events_path).map_err(|e| e.to_string())?)
        });
        let stimulus = stimulus.map_err(|e| format!("event list {:?}: {e}", self.events_path))?;
        stages.events_io = s;

        let ((universe, faults), s) = tr.time("faults.universe", |_| {
            let universe = FaultUniverse::standard(&net);
            let faults = strided(universe.faults(), self.plan.fault_stride);
            (universe, faults)
        });
        stages.universe = s;

        let verdicts = campaign(&net, &universe, &faults, &stimulus, tr)?;
        stages.campaign = verdicts.campaign_s;
        stages.digest = verdicts.digest_s;

        Ok(Verified {
            stimulus,
            universe,
            faults,
            verdicts,
            stages,
            test_ticks: compact.test_steps(),
            iterations: test.iterations.len(),
            growths: test.iterations.iter().map(|i| i.growths).sum(),
            chunks: test.chunks.len(),
            chunks_kept: kept.len(),
            activated_fraction: test.activated_fraction(),
            net,
        })
    }
}

/// Every `stride`-th fault.
pub fn strided(faults: &[Fault], stride: usize) -> Vec<Fault> {
    faults.iter().step_by(stride.max(1)).copied().collect()
}

/// At most `n` faults, evenly strided over `faults`.
pub fn sample(faults: &[Fault], n: usize) -> Vec<Fault> {
    strided(faults, faults.len().div_ceil(n.max(1)))
}

fn detect_outcome(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    stimulus: &Tensor,
    engine: Engine,
    threads: usize,
) -> Result<CampaignOutcome, String> {
    engine_detect(
        net,
        FaultSimConfig { threads, engine: Some(engine), ..FaultSimConfig::default() },
        universe,
        faults,
        std::slice::from_ref(stimulus),
        &NullSink,
        &CancelToken::new(),
    )
    .map_err(|e| format!("campaign failed: {e}"))
}

/// Detection campaign of `faults` under `engine`; returns the verdict
/// digest.
pub fn detect(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    stimulus: &Tensor,
    engine: Engine,
    threads: usize,
) -> Result<String, String> {
    let outcome = detect_outcome(net, universe, faults, stimulus, engine, threads)?;
    Ok(verdict_digest_hex(&outcome.per_fault))
}

/// The verification campaign as the CLI's `verify` runs it (`Auto`
/// engine), then the verdict digest, as two spans.
pub fn campaign(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    stimulus: &Tensor,
    tr: &mut Tracer,
) -> Result<Verdicts, String> {
    let (outcome, campaign_s) = tr.time("batch.campaign", |_| {
        detect_outcome(net, universe, faults, stimulus, Engine::Auto, CAMPAIGN_THREADS)
    });
    let outcome = outcome?;
    let (digest, digest_s) = tr.time("faults.digest", |_| verdict_digest_hex(&outcome.per_fault));
    Ok(Verdicts { digest, detected: outcome.detected_count(), campaign_s, digest_s })
}

/// Checks on a pass's outputs that are not part of the timed work: the
/// stimulus has the network's input width and the compacted length, and
/// the packed and the scalar engine agree bit for bit on a strided
/// sample of the campaign.
pub fn check(v: &Verified, sample_faults: usize) -> Result<(), String> {
    let dims = v.stimulus.shape().dims();
    if dims != [v.test_ticks, v.net.input_features()] {
        return Err(format!(
            "stimulus is {dims:?}, expected [{}, {}]",
            v.test_ticks,
            v.net.input_features()
        ));
    }
    let subset = sample(&v.faults, sample_faults);
    let packed = detect(&v.net, &v.universe, &subset, &v.stimulus, Engine::Packed, 1)?;
    let scalar = detect(&v.net, &v.universe, &subset, &v.stimulus, Engine::Scalar, 1)?;
    if packed != scalar {
        return Err(format!("packed digest {packed} differs from scalar digest {scalar}"));
    }
    Ok(())
}
