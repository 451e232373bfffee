//! Deterministic campaign materialization: rebuilding the network, the
//! fault universe and the test stimuli of a [`CampaignSpec`] inside a
//! worker process, bit-identically to the coordinator's own view.

use crate::wire::{CampaignSpec, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_faults::progress::{CancelToken, NullSink};
use snn_faults::{CampaignError, ChunkCampaignError, FaultOutcome, FaultSimulator, FaultUniverse};
use snn_model::{LifParams, Network, NetworkBuilder};
use snn_reliability::ReliabilityEvaluator;
use snn_tensor::Tensor;
use std::io::BufReader;

/// Builds the network a campaign (or job) runs against.
///
/// `Synthetic` models are a pure function of their spec — every process
/// that builds one gets bit-identical weights. `Path` models are read
/// from the local filesystem.
///
/// # Errors
///
/// A one-line diagnostic when a `Path` model cannot be opened or parsed,
/// or a `Synthetic` one has an empty layer or input.
pub fn build_model(spec: &ModelSpec) -> Result<Network, String> {
    match spec {
        ModelSpec::Path(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open model {path:?}: {e}"))?;
            Network::load(&mut BufReader::new(file))
                .map_err(|e| format!("cannot load model {path:?}: {e}"))
        }
        ModelSpec::Synthetic { inputs, hidden, outputs, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut builder = NetworkBuilder::new(*inputs, LifParams::default());
            for &h in hidden {
                builder = builder.dense(h);
            }
            let net = builder.dense(*outputs).build(&mut rng);
            net.validate_widths().map_err(|e| format!("synthetic model: {e}"))?;
            Ok(net)
        }
    }
}

/// A campaign spec materialized for execution: the rebuilt network, its
/// standard fault universe and the decoded test stimuli. Workers build
/// one per campaign and reuse it across every leased chunk.
pub struct PreparedCampaign {
    /// Campaign id.
    pub id: u64,
    /// The rebuilt network under test.
    pub net: Network,
    /// The standard fault universe over `net` (the id space of every
    /// leased range).
    pub universe: FaultUniverse,
    /// The decoded test stimuli, `[T × input_features]` each.
    pub tests: Vec<Tensor>,
    /// Simulator configuration (threads already overridden, if asked).
    pub sim: snn_faults::FaultSimConfig,
    /// Present for reliability campaigns: leased ranges are fault-map
    /// configuration indices scored by this evaluator instead of
    /// universe fault ids run through detection.
    pub reliability: Option<ReliabilityEvaluator>,
}

impl PreparedCampaign {
    /// Materializes `spec`. `threads` overrides the spec's worker thread
    /// count when `Some` — thread count never changes verdicts.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic when the model cannot be built, or a
    /// stimulus fails to parse or is not as wide as the model's input.
    pub fn new(spec: &CampaignSpec, threads: Option<usize>) -> Result<Self, String> {
        let net = build_model(&spec.model)?;
        let universe = FaultUniverse::standard(&net);
        let tests = spec
            .events
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let test = snn_testgen::parse_events(text)
                    .map_err(|e| format!("campaign {} stimulus {i}: {e}", spec.id))?;
                let (width, expects) = (test.shape().dim(1), net.input_features());
                if width != expects {
                    return Err(format!(
                        "campaign {} stimulus {i}: {width} features, model expects {expects}",
                        spec.id
                    ));
                }
                Ok(test)
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Reliability campaigns generate their own evaluation inputs from
        // the spec, so they legitimately carry no detection stimuli.
        if tests.is_empty() && spec.reliability.is_none() {
            return Err(format!("campaign {} carries no test stimuli", spec.id));
        }
        let reliability = spec
            .reliability
            .as_ref()
            .map(|r| {
                ReliabilityEvaluator::new(net.clone(), r.clone())
                    .map_err(|e| format!("campaign {}: {e}", spec.id))
            })
            .transpose()?;
        let mut sim = spec.sim;
        if let Some(threads) = threads {
            sim.threads = threads;
        }
        Ok(Self { id: spec.id, net, universe, tests, sim, reliability })
    }

    /// Simulates one chunk: the id range of a lease, in order. Outcomes
    /// are bit-identical to the same ids inside a
    /// single-process whole-campaign run, whichever execution engine the
    /// spec's `sim.engine` selects — chunk verdicts are engine-invariant
    /// by the packed engine's bit-exactness contract.
    ///
    /// # Errors
    ///
    /// Propagates [`ChunkCampaignError`] (a range outside the universe,
    /// cancellation, ill-formed faults).
    pub fn run_chunk(
        &self,
        ids: std::ops::Range<usize>,
        cancel: &CancelToken,
    ) -> Result<Vec<FaultOutcome>, ChunkCampaignError> {
        if let Some(eval) = &self.reliability {
            return eval
                .evaluate_chunk(ids, self.sim.threads, cancel)
                .map_err(|_| ChunkCampaignError::Campaign(CampaignError::Cancelled));
        }
        FaultSimulator::new(&self.net, self.sim).detect_chunk_with(
            &self.universe,
            ids,
            &self.tests,
            &NullSink,
            cancel,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_faults::{Engine, FaultSimConfig};

    fn spec() -> CampaignSpec {
        let model = ModelSpec::Synthetic { inputs: 5, hidden: vec![8], outputs: 3, seed: 21 };
        let net = build_model(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let stim = snn_tensor::init::bernoulli(&mut rng, snn_tensor::Shape::d2(16, 5), 0.4);
        let test = snn_testgen::GeneratedTest::from_chunks(vec![stim], 5, vec![false; 11]);
        let mut events = Vec::new();
        test.write_events(&mut events).unwrap();
        let _ = net;
        CampaignSpec {
            id: 1,
            model,
            events: vec![String::from_utf8(events).unwrap()],
            sim: FaultSimConfig::default(),
            faults: 0,
            reliability: None,
        }
    }

    fn reliability_spec() -> CampaignSpec {
        use snn_reliability::{
            EvalSpec, FaultMapSpec, MitigationKind, ReliabilitySpec, WeightFaultModel,
        };
        let model = ModelSpec::Synthetic { inputs: 5, hidden: vec![8], outputs: 3, seed: 21 };
        let net = build_model(&model).unwrap();
        let rspec = ReliabilitySpec {
            map: FaultMapSpec::uniform(&net, 0.02, 0.01, 6, 33, WeightFaultModel::StuckSat, None),
            eval: EvalSpec { samples: 4, steps: 12, rate: 0.3, seed: 7 },
            mitigation: MitigationKind::RangeRestriction,
        };
        CampaignSpec {
            id: 2,
            model,
            events: Vec::new(),
            sim: FaultSimConfig { threads: 1, ..FaultSimConfig::default() },
            faults: rspec.map.configs,
            reliability: Some(rspec),
        }
    }

    #[test]
    fn synthetic_models_rebuild_bit_identically() {
        let spec = ModelSpec::Synthetic { inputs: 6, hidden: vec![10, 7], outputs: 4, seed: 9 };
        let a = build_model(&spec).unwrap();
        let b = build_model(&spec).unwrap();
        let mut wa = Vec::new();
        let mut wb = Vec::new();
        a.save(&mut wa).unwrap();
        b.save(&mut wb).unwrap();
        assert_eq!(wa, wb, "two builds of the same spec must serialize identically");
    }

    /// A synthetic model with an empty layer or input is one diagnostic,
    /// not a network the generator would panic on.
    #[test]
    fn synthetic_models_without_width_are_refused() {
        for (inputs, hidden, outputs, needle) in [
            (6, vec![10, 0], 4, "layer 1 (dense) has no outputs"),
            (6, vec![10], 0, "layer 1 (dense) has no outputs"),
            (0, vec![10], 4, "has no features"),
        ] {
            let spec = ModelSpec::Synthetic { inputs, hidden, outputs, seed: 9 };
            let err = build_model(&spec).map(|_| ()).unwrap_err();
            assert!(err.starts_with("synthetic model: ") && err.contains(needle), "{err}");
        }
    }

    #[test]
    fn prepared_campaign_chunks_match_direct_simulation() {
        let spec = spec();
        let prepared = PreparedCampaign::new(&spec, Some(1)).unwrap();
        assert_eq!(prepared.sim.threads, 1, "thread override applies");
        // The reference side: the scalar engine, whole list at once.
        let reference = FaultSimConfig { engine: Some(Engine::Scalar), ..prepared.sim };
        let whole = FaultSimulator::new(&prepared.net, reference).detect(
            &prepared.universe,
            prepared.universe.faults(),
            &prepared.tests,
        );
        let chunk = prepared.run_chunk(3..9, &CancelToken::new()).unwrap();
        assert_eq!(chunk.as_slice(), &whole.per_fault[3..9]);
    }

    #[test]
    fn reliability_campaign_runs_without_stimuli_and_chunks_exactly() {
        let spec = reliability_spec();
        let prepared = PreparedCampaign::new(&spec, Some(1)).unwrap();
        let eval = prepared.reliability.as_ref().unwrap();
        let whole = eval.evaluate_chunk(0..spec.faults, 1, &CancelToken::new()).unwrap();
        let mut stitched = Vec::new();
        for chunk in snn_faults::chunk::plan(spec.faults, 2) {
            stitched.extend(prepared.run_chunk(chunk.range(), &CancelToken::new()).unwrap());
        }
        assert_eq!(stitched, whole, "leased chunks must merge bit-identically");
    }

    #[test]
    fn bad_stimulus_and_empty_stimuli_are_diagnosed() {
        let mut broken = spec();
        broken.events[0] = "not an events file".into();
        let err = PreparedCampaign::new(&broken, None).map(|_| ()).unwrap_err();
        assert!(err.contains("stimulus 0"), "{err}");
        let mut wide = spec();
        let stim = Tensor::zeros(snn_tensor::Shape::d2(4, 6));
        let mut events = Vec::new();
        snn_testgen::GeneratedTest::from_chunks(vec![stim], 6, vec![false; 11])
            .write_events(&mut events)
            .unwrap();
        wide.events.push(String::from_utf8(events).unwrap());
        let err = PreparedCampaign::new(&wide, None).map(|_| ()).unwrap_err();
        assert_eq!(err, "campaign 1 stimulus 1: 6 features, model expects 5");
        let mut empty = spec();
        empty.events.clear();
        let err = PreparedCampaign::new(&empty, None).map(|_| ()).unwrap_err();
        assert!(err.contains("no test stimuli"), "{err}");
    }
}
