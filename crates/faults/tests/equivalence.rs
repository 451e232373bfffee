//! Satellite property: the packed engine is bit-identical to the scalar
//! engine — per-fault detection flags, distances, class diffs and the
//! FNV-1a [`verdict_digest`] match across random *topologies*
//! (dense/conv/pool/recurrent in every legal order), fault kinds (weight
//! / neuron / timing / bit-range), run sizes {1, 7, 64, 65}, thread
//! counts and half-pruned
//! networks, on random stimuli and on stimuli shaped like a compacted
//! test (spike chunks between equally long silences, two per campaign),
//! on a sparse stimulus most of whose input columns stay silent and on an
//! all-zero one — the reference shares no shortcut with the engine it
//! referees; plus dedicated lane-divergence tests — exactly one lane's membrane
//! crosses threshold; every lane of a full block diverges on every tick —
//! a run's dense weight members at inner and output layers, faults that
//! diverge alike swept once (full dense universes; two faults alike under
//! one test and not under the other), and the planner's shape on the
//! example networks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_faults::{
    verdict_digest, CampaignOutcome, Engine, Fault, FaultKind, FaultModelConfig, FaultPlan,
    FaultSimConfig, FaultSimulator, FaultSite, FaultUniverse, Injection,
};
use snn_model::{Layer, LifParams, Network, NetworkBuilder, RecordOptions, WeightRef};
use snn_tensor::{Shape, Tensor};

fn dense_net(seed: u64, inputs: usize, hidden: usize, outputs: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new(inputs, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(hidden)
        .dense(outputs)
        .build(&mut rng)
}

fn tests_for(net: &Network, seed: u64, count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(16, net.input_features()), 0.4))
        .collect()
}

fn cfg_for(engine: Engine) -> FaultSimConfig {
    FaultSimConfig { threads: 1, engine: Some(engine), record_class_diffs: true }
}

fn run(
    net: &Network,
    engine: Engine,
    u: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
) -> CampaignOutcome {
    FaultSimulator::new(net, cfg_for(engine)).detect(u, faults, tests)
}

/// The packed engine's plan of `faults` on `threads` threads.
fn plan(net: &Network, faults: &[Fault], threads: usize) -> FaultPlan {
    FaultSimulator::new(net, FaultSimConfig { threads, ..FaultSimConfig::default() }).plan(faults)
}

/// The bitwise contract: same fault ids, same detection flags, same
/// `f32` distances *to the bit*, same class diffs, same digest.
fn assert_bit_identical(scalar: &CampaignOutcome, packed: &CampaignOutcome) {
    assert_eq!(scalar.per_fault.len(), packed.per_fault.len());
    for (s, p) in scalar.per_fault.iter().zip(packed.per_fault.iter()) {
        assert_eq!(s.fault_id, p.fault_id);
        assert_eq!(s.detected, p.detected, "fault {}", s.fault_id);
        assert_eq!(s.distance.to_bits(), p.distance.to_bits(), "fault {}", s.fault_id);
        assert_eq!(s.class_diff, p.class_diff, "fault {}", s.fault_id);
    }
    assert_eq!(verdict_digest(&scalar.per_fault), verdict_digest(&packed.per_fault));
}

fn assert_engines_agree_on(net: &Network, u: &FaultUniverse, faults: &[Fault], tests: &[Tensor]) {
    let scalar = run(net, Engine::Scalar, u, faults, tests);
    let packed = run(net, Engine::Packed, u, faults, tests);
    assert_bit_identical(&scalar, &packed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random dense nets, as built and with half their weights pruned
    /// (a `SynapseDead` fault on a zero weight is a lane that never
    /// diverges), full extended universes (timing + bit-range faults
    /// alongside the standard weight/neuron kinds): identical verdicts
    /// bit-for-bit under both engines.
    #[test]
    fn packed_matches_scalar_over_random_extended_universes(
        seed in 0u64..1000,
        hidden in 6usize..12,
        timing in proptest::bool::ANY,
    ) {
        let mut net = dense_net(seed, 5, hidden, 4);
        for sparsity in [0.0, 0.5] {
            snn_model::magnitude_prune(&mut net, sparsity);
            let u = FaultUniverse::with_config(
                &net,
                FaultModelConfig::default(),
                timing,
                &[0, 3, 7],
            );
            let tests = tests_for(&net, seed ^ 0xbeef, 2);
            assert_engines_agree_on(&net, &u, u.faults(), &tests);
        }
    }
}

/// One stage of a random topology.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Conv { channels: usize, kernel: usize, stride: usize, padding: usize },
    Pool,
    Dense(usize),
    Recurrent(usize),
}

/// A 1–2 × 8 × 8 spatial input through `stages`, or a 7-wide flat input
/// when the first stage is flat. Refractory period, leak and weights
/// come from `rng`.
fn build(stages: &[Stage], rng: &mut StdRng) -> Network {
    let lif = LifParams {
        threshold: 1.0,
        leak: [0.8, 0.9, 1.0][rng.gen_range(0..3usize)],
        refrac_steps: rng.gen_range(0..3),
    };
    let mut b = match stages[0] {
        Stage::Dense(_) | Stage::Recurrent(_) => NetworkBuilder::new(7, lif),
        _ => NetworkBuilder::new_spatial(rng.gen_range(1..3), 8, 8, lif),
    };
    for stage in stages {
        b = match *stage {
            Stage::Conv { channels, kernel, stride, padding } => {
                b.conv(channels, kernel, stride, padding)
            }
            Stage::Pool => b.avg_pool(2),
            Stage::Dense(n) => b.dense(n),
            Stage::Recurrent(n) => b.recurrent(n),
        };
    }
    b.build(rng)
}

/// A random legal topology whose last layer is spiking: up to three
/// spatial stages (conv and pool in any order the extents allow,
/// pool→pool and conv→conv included), then up to three flat ones (dense
/// and recurrent in any order).
fn random_stages(rng: &mut StdRng) -> Vec<Stage> {
    let mut stages = Vec::new();
    if rng.gen_bool(0.75) {
        let mut extent = 8usize;
        for _ in 0..rng.gen_range(1..4) {
            if extent.is_multiple_of(2) && rng.gen_bool(0.4) {
                stages.push(Stage::Pool);
                extent /= 2;
            } else if extent >= 2 {
                let kernel = rng.gen_range(1..extent.min(3) + 1);
                let (stride, padding) = (rng.gen_range(1..3), rng.gen_range(0..2));
                stages.push(Stage::Conv { channels: rng.gen_range(1..3), kernel, stride, padding });
                extent = (extent + 2 * padding - kernel) / stride + 1;
            }
        }
    }
    let flat = rng.gen_range(0..4);
    for _ in 0..flat {
        let n = rng.gen_range(3..8);
        stages.push(if rng.gen_bool(0.4) { Stage::Recurrent(n) } else { Stage::Dense(n) });
    }
    if matches!(stages.last(), None | Some(Stage::Pool)) {
        stages.push(Stage::Dense(4));
    }
    stages
}

/// A stimulus shaped like a compacted test: two spike chunks, each
/// followed by a silence of its own length — 192 ticks in all. Lanes
/// reconverge in the silences and re-diverge in the second chunk, long
/// after the tick they were first materialized at.
fn compacted_like(net: &Network, density: f32, rng: &mut StdRng) -> Tensor {
    let (chunk, features) = (48, net.input_features());
    let mut data = Vec::with_capacity(4 * chunk * features);
    for _ in 0..2 {
        let spikes = snn_tensor::init::bernoulli(rng, Shape::d2(chunk, features), density);
        data.extend_from_slice(spikes.as_slice());
        data.resize(data.len() + chunk * features, 0.0);
    }
    Tensor::from_vec(Shape::d2(4 * chunk, features), data).unwrap()
}

/// Both engines over the extended universe of `net` (timing + bit-flip
/// faults, thinned to a few hundred), under options drawn from `rng`:
/// once on a few short random stimuli at a drawn thread count, once each
/// on a sparse and on an all-zero one, once on two compacted-test-shaped
/// ones at one and at two threads.
fn assert_engines_agree_on_topology(net: &Network, rng: &mut StdRng) {
    let u = FaultUniverse::with_config(net, FaultModelConfig::default(), true, &[0, 7]);
    let faults: Vec<Fault> = u.faults().iter().step_by(u.len().div_ceil(400)).copied().collect();
    let density = [0.1, 0.3, 0.6][rng.gen_range(0..3usize)];
    let short: Vec<Tensor> = (0..rng.gen_range(1..4))
        .map(|_| snn_tensor::init::bernoulli(rng, Shape::d2(14, net.input_features()), density))
        .collect();
    let compacted: Vec<Tensor> = (0..2).map(|_| compacted_like(net, density, rng)).collect();
    let cfg = FaultSimConfig {
        threads: rng.gen_range(1..3),
        record_class_diffs: rng.gen_bool(0.5),
        ..FaultSimConfig::default()
    };
    // Nothing of a network with a spiking last layer is left to the
    // scalar engine: the packed runs below really are packed.
    let p = plan(net, &faults, cfg.threads);
    assert!(p.fallback_count() == 0 && p.packed_faults() == faults.len());
    let run = |engine, threads, faults: &[Fault], tests: &[Tensor]| {
        let cfg = FaultSimConfig { engine: Some(engine), threads, ..cfg };
        FaultSimulator::new(net, cfg).detect(&u, faults, tests)
    };
    // Most input columns of the sparse stimulus never spike, and nothing
    // does under the silent one: faults on synapses without traffic and
    // dead faults on neurons that never fire, each campaign on its own so
    // that no other test input's distance covers a disagreement.
    let features = net.input_features();
    let sparse = snn_tensor::init::bernoulli(rng, Shape::d2(25, features), 0.08);
    let silent = Tensor::zeros(Shape::d2(14, features));
    for tests in [&short[..], &[sparse], &[silent]] {
        assert_bit_identical(
            &run(Engine::Scalar, cfg.threads, &faults, tests),
            &run(Engine::Packed, cfg.threads, &faults, tests),
        );
    }
    // 384 ticks a fault: every fourth one keeps the suite's run time.
    let thinned: Vec<Fault> = faults.iter().step_by(4).copied().collect();
    let scalar = run(Engine::Scalar, 2, &thinned, &compacted);
    for threads in [1, 2] {
        assert_bit_identical(&scalar, &run(Engine::Packed, threads, &thinned, &compacted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random topologies × timing + bit-flip faults × 1–3 tests × class
    /// diffs on and off × 1–2 threads.
    #[test]
    fn packed_matches_scalar_over_random_topologies(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stages = random_stages(&mut rng);
        let net = build(&stages, &mut rng);
        assert_engines_agree_on_topology(&net, &mut rng);
    }
}

/// The orders a random draw must not be trusted to hit: conv→conv,
/// dense→recurrent, a pool directly before the last dense layer,
/// pool→pool, recurrent→recurrent, and conv / recurrent output layers.
#[test]
fn named_layer_orders_are_bit_identical() {
    let conv = Stage::Conv { channels: 2, kernel: 3, stride: 1, padding: 1 };
    let strided = Stage::Conv { channels: 2, kernel: 2, stride: 2, padding: 1 };
    let orders: [&[Stage]; 8] = [
        &[conv, strided, Stage::Dense(4)],
        &[Stage::Dense(6), Stage::Recurrent(5), Stage::Dense(3)],
        &[conv, Stage::Pool, Stage::Dense(4)],
        &[Stage::Pool, Stage::Pool, Stage::Dense(5), Stage::Dense(3)],
        &[Stage::Recurrent(6), Stage::Recurrent(4)],
        &[Stage::Pool, conv],
        &[Stage::Pool, conv, Stage::Pool, Stage::Recurrent(5), Stage::Dense(3)],
        &[conv, Stage::Pool, conv, Stage::Recurrent(4)],
    ];
    for (i, stages) in orders.iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(100 * seed + u64::try_from(i).unwrap());
            let net = build(stages, &mut rng);
            assert_engines_agree_on_topology(&net, &mut rng);
        }
    }
}

/// Conv weight faults through both paths of the convolution kernel: a
/// 37-tick test is two 16-tick blocks and a five-row tail, a 101-tick one
/// a full call of the fault stage's tick block and the same again, both
/// dense enough that most windows carry traffic. A stride-2 padded conv
/// sits first, and behind a pool; every weight fault of its universe,
/// standard and bit-flip kinds.
#[test]
fn conv_weight_faults_over_blocks_and_a_tail_are_bit_identical() {
    let strided = Stage::Conv { channels: 3, kernel: 3, stride: 2, padding: 1 };
    let orders: [&[Stage]; 2] =
        [&[strided, Stage::Dense(4)], &[Stage::Pool, strided, Stage::Dense(4)]];
    for (i, stages) in orders.iter().enumerate() {
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(200 + 10 * seed + u64::try_from(i).unwrap());
            let net = build(stages, &mut rng);
            let conv = net.layers().iter().position(|l| matches!(l, Layer::Conv(_))).unwrap();
            let u = FaultUniverse::with_config(&net, FaultModelConfig::default(), false, &[0, 7]);
            let faults: Vec<Fault> = (u.faults().iter())
                .filter(|f| matches!(f.site, FaultSite::Synapse(at) if at.layer == conv))
                .copied()
                .collect();
            let features = net.input_features();
            let tests: Vec<Tensor> = [(37, 0.5), (101, 0.3)]
                .map(|(steps, density)| {
                    snn_tensor::init::bernoulli(&mut rng, Shape::d2(steps, features), density)
                })
                .into();
            let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
            let packed = run(&net, Engine::Packed, &u, &faults, &tests);
            assert_bit_identical(&scalar, &packed);
            let detected = packed.per_fault.iter().filter(|o| o.detected).count();
            assert!(0 < detected && detected < faults.len(), "{stages:?}: {detected} detected");
        }
    }
}

/// A two-channel spatial stimulus of `steps` ticks in which each input
/// channel falls silent on runs of its own — channel 0's first run
/// crosses the 16-tick block edge — and both do on ticks 24–29 and
/// 70–79; elsewhere a channel spikes at `density`.
fn channel_silences(net: &Network, steps: usize, density: f64, rng: &mut StdRng) -> Tensor {
    let features = net.input_features();
    let silent = |c: usize, t: usize| match c {
        _ if (24..30).contains(&t) || (70..80).contains(&t) => true,
        0 => (12..21).contains(&t) || t % 13 == 7 || (45..52).contains(&t),
        _ => (3..8).contains(&t) || t % 11 == 5 || (55..66).contains(&t),
    };
    let mut x = Tensor::zeros(Shape::d2(steps, features));
    for (t, row) in x.as_mut_slice().chunks_exact_mut(features).enumerate() {
        for (c, plane) in row.chunks_exact_mut(features / 2).enumerate() {
            for v in plane.iter_mut().filter(|_| !silent(c, t)) {
                *v = f32::from(u8::from(rng.gen_bool(density)));
            }
        }
    }
    x
}

/// A conv weight fault changes its channel only through its input
/// channel, so the fault stage convolves only the ticks on which that
/// channel carries traffic; and behind a pool a conv fault layer's lane
/// differs from golden in one channel, so only that channel is re-pooled.
/// Two input channels silent on runs of their own (one across a 16-tick
/// block edge, and stretches where both are), on 37- and 101-tick
/// stimuli; conv → pool → dense, conv → pool → conv → dense and a
/// pool → pool crossing; every conv weight and conv neuron fault, scalar
/// against packed at one and two threads.
#[test]
fn conv_faults_on_silent_ticks_and_across_a_pool_are_bit_identical() {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let spatial = || NetworkBuilder::new_spatial(2, 8, 8, lif).conv(3, 3, 1, 1).avg_pool(2);
    let nets = [
        ("conv → pool → dense", spatial().dense(4)),
        ("conv → pool → conv → dense", spatial().conv(2, 3, 1, 1).dense(4)),
        ("conv → pool → pool → dense", spatial().avg_pool(2).dense(4)),
    ];
    let mut rng = StdRng::seed_from_u64(83);
    for (kind, builder) in nets {
        let net = builder.build(&mut rng);
        let u = FaultUniverse::with_config(&net, FaultModelConfig::default(), false, &[0, 7]);
        let is_conv = |layer: usize| matches!(net.layers()[layer], Layer::Conv(_));
        let faults: Vec<Fault> =
            u.faults().iter().filter(|f| is_conv(f.site.layer())).copied().collect();
        let tests: Vec<Tensor> =
            [(37, 0.5), (101, 0.3)].map(|(t, p)| channel_silences(&net, t, p, &mut rng)).into();
        let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
        for threads in [1, 2] {
            let cfg = FaultSimConfig { threads, ..cfg_for(Engine::Packed) };
            let packed = FaultSimulator::new(&net, cfg).detect(&u, &faults, &tests);
            assert_bit_identical(&scalar, &packed);
        }
        let detected = scalar.per_fault.iter().filter(|o| o.detected).count();
        assert!(0 < detected && detected < faults.len(), "{kind}: {detected} detected");
    }
}

/// A run's dense weight members are simulated together, the members as
/// the vector axis. Per dense layer — two inner ones whose flips are
/// swept behind it, and the output layer, whose flips are the verdict
/// and its class diffs — and behind binary and behind pooled
/// (fractional) inputs: 64 weight faults, weight and neuron faults
/// alternating, and the layer's faults at a stride, so that a run's
/// members sit at many neurons.
/// The universe is the extended one: bit flips and timing faults.
#[test]
fn dense_weight_members_of_a_pack_are_bit_identical() {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let mut rng = StdRng::seed_from_u64(61);
    let binary = NetworkBuilder::new(7, lif).dense(12).dense(9).dense(4).build(&mut rng);
    let pooled = NetworkBuilder::new_spatial(2, 4, 4, lif).avg_pool(2).dense(12).dense(4);
    for net in [binary, pooled.build(&mut rng)] {
        let u = FaultUniverse::with_config(&net, FaultModelConfig::default(), true, &[0, 3, 7]);
        let tests = vec![
            snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, net.input_features()), 0.4),
            compacted_like(&net, 0.3, &mut rng),
        ];
        for (layer, _) in net.layers().iter().enumerate().filter(|(_, l)| l.is_spiking()) {
            let at_layer = |synapse: bool| -> Vec<Fault> {
                (u.faults().iter())
                    .filter(|f| {
                        f.site.layer() == layer
                            && matches!(f.site, FaultSite::Synapse(_)) == synapse
                    })
                    .copied()
                    .collect()
            };
            let (weights, neurons) = (at_layer(true), at_layer(false));
            let mixed: Vec<Fault> =
                weights.iter().zip(&neurons).flat_map(|(w, n)| [*w, *n]).take(40).collect();
            let strided: Vec<Fault> = weights.iter().step_by(7).copied().collect();
            for faults in [&weights[..64], &mixed[..], &strided[..]] {
                let p = plan(&net, faults, 1);
                assert_eq!((p.packed_faults(), p.run_count()), (faults.len(), 1), "layer {layer}");
                let scalar = run(&net, Engine::Scalar, &u, faults, &tests);
                let packed = run(&net, Engine::Packed, &u, faults, &tests);
                assert_bit_identical(&scalar, &packed);
                let detected = packed.per_fault.iter().filter(|o| o.detected).count();
                assert!(detected > 0, "layer {layer}: no member detected");
            }
        }
    }
}

/// A stimulus of `steps` ticks for `net` that is silent for its first
/// half; then the lower half of the features spikes at `density` and the
/// upper half only on the last tick, where every feature spikes.
fn half_silent(net: &Network, steps: usize, density: f64, rng: &mut StdRng) -> Tensor {
    let features = net.input_features();
    let mut x = Tensor::zeros(Shape::d2(steps, features));
    for (t, row) in x.as_mut_slice().chunks_exact_mut(features).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            let on =
                t + 1 == steps || (2 * t >= steps && 2 * c < features && rng.gen_bool(density));
            *v = f32::from(u8::from(on));
        }
    }
    x
}

/// The first tick at which `fault` makes its layer's spikes leave the
/// golden train under `test`, by whole-network forward passes — the
/// tick at which the lane's input to the next spiking layer first
/// differs.
fn first_divergence(
    net: &Network,
    u: &FaultUniverse,
    fault: &Fault,
    test: &Tensor,
) -> Option<usize> {
    let record = RecordOptions::spikes_only();
    let golden = net.forward(test, record);
    let faulty = match Injection::for_fault(net, u, fault).unwrap() {
        Injection::Weight { at, value } => {
            let mut patched = net.clone();
            patched.set_weight(at, value);
            patched.forward(test, record)
        }
        Injection::Neuron(map) => net.forward_faulty(test, record, &map),
    };
    let layer = fault.site.layer();
    let n = net.layers()[layer].out_features();
    let rows = |trace: &snn_model::Trace| trace.layers[layer].output.as_slice().to_vec();
    let (g, f) = (rows(&golden), rows(&faulty));
    g.chunks_exact(n).zip(f.chunks_exact(n)).position(|(g, f)| g != f)
}

/// Behind the fault layer a block's live lanes are stepped together,
/// which enters at the first tick at which any of them diverges: every
/// other lane rides along on the golden trajectory until its own first
/// divergent tick. One run per kind of layer behind the fault — dense and
/// recurrent behind a spiking layer, dense and conv behind a pool — of
/// faults at the first layer that diverge first at tick 0 (forced
/// neurons, on the silent half of the stimulus), mid-run and on the last
/// tick (weights of the features that spike only there), interleaved.
/// Per-fault verdicts equal the scalar engine's at one and two threads.
#[test]
fn lanes_entering_the_block_at_different_ticks_are_bit_identical() {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let nets = [
        ("dense", NetworkBuilder::new(7, lif).dense(12).dense(4)),
        ("recurrent", NetworkBuilder::new(7, lif).dense(12).recurrent(6).dense(3)),
        (
            "pool → dense",
            NetworkBuilder::new_spatial(2, 8, 8, lif).conv(3, 3, 1, 1).avg_pool(2).dense(4),
        ),
        (
            "pool → conv",
            NetworkBuilder::new_spatial(2, 8, 8, lif).conv(3, 3, 1, 1).avg_pool(2).conv(2, 3, 1, 1),
        ),
    ];
    let steps = 24;
    let mut rng = StdRng::seed_from_u64(71);
    for (kind, builder) in nets {
        let net = builder.build(&mut rng);
        let u = FaultUniverse::with_config(&net, FaultModelConfig::default(), false, &[0, 7]);
        let tests =
            vec![half_silent(&net, steps, 0.5, &mut rng), half_silent(&net, steps, 0.3, &mut rng)];
        // The first layer's faults that leave the golden train on the
        // first test, by the tick they do it at: 0, mid-run, last.
        let mut by_entry: [Vec<Fault>; 3] = Default::default();
        for f in u.faults().iter().filter(|f| f.site.layer() == 0) {
            if let Some(t0) = first_divergence(&net, &u, f, &tests[0]) {
                by_entry[usize::from(t0 > 0) + usize::from(t0 + 1 == steps)].push(*f);
            }
        }
        let counts = by_entry.each_ref().map(Vec::len);
        assert!(
            counts.iter().all(|&c| c > 0),
            "{kind}: lanes entering at 0 / mid / last: {counts:?}"
        );
        let faults: Vec<Fault> = (0..64)
            .flat_map(|i| by_entry.iter().filter_map(move |b| b.get(i).copied()))
            .take(64)
            .collect();
        assert_eq!(plan(&net, &faults, 1).run_count(), 1, "{kind}");
        let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
        for threads in [1, 2] {
            let cfg = FaultSimConfig { threads, ..cfg_for(Engine::Packed) };
            let packed = FaultSimulator::new(&net, cfg).detect(&u, &faults, &tests);
            assert_bit_identical(&scalar, &packed);
        }
        let detected = scalar.per_fault.iter().filter(|o| o.detected).count();
        assert!(0 < detected && detected < faults.len(), "{kind}: {detected} detected");
    }
}

/// The planner takes the full standard universe of all three example
/// networks (README, `ci.sh`) and nothing of a network whose output is
/// not spikes.
#[test]
fn example_networks_plan_without_fallback() {
    let mut rng = StdRng::seed_from_u64(51);
    let lif = LifParams::default();
    let nmnist = NetworkBuilder::new_spatial(2, 16, 16, lif).avg_pool(2).dense(48).dense(10);
    let ibm = NetworkBuilder::new_spatial(2, 24, 24, lif)
        .avg_pool(2)
        .conv(6, 5, 1, 2)
        .avg_pool(2)
        .dense(32)
        .dense(11);
    let shd = NetworkBuilder::new(140, lif).recurrent(32).dense(20);
    for builder in [nmnist, ibm, shd] {
        let net = builder.build(&mut rng);
        let u = FaultUniverse::standard(&net);
        for threads in [1, 2] {
            let p = plan(&net, u.faults(), threads);
            assert_eq!((p.packed_faults(), p.fallback_count()), (u.len(), 0));
        }
    }
    let pooled = NetworkBuilder::new_spatial(1, 8, 8, lif).conv(2, 3, 1, 1).avg_pool(2);
    let net = pooled.build(&mut rng);
    assert!(matches!(net.layers().last(), Some(Layer::Pool(_))));
    let u = FaultUniverse::standard(&net);
    let p = plan(&net, u.faults(), 2);
    assert_eq!((p.run_count(), p.fallback_count()), (0, u.len()));
}

/// Runs of 1, 7, 64 and 65 output-layer faults — all sliced from a
/// single layer, so that each is one run.
#[test]
fn run_sizes_are_bit_identical() {
    let net = dense_net(21, 6, 10, 4);
    let u = FaultUniverse::standard(&net);
    let last = net.layers().len() - 1;
    let last_layer: Vec<Fault> =
        u.faults().iter().filter(|f| f.site.layer() == last).copied().collect();
    assert!(last_layer.len() >= 65, "need ≥65 last-layer faults, got {}", last_layer.len());
    let tests = tests_for(&net, 22, 2);
    for k in [1usize, 7, 64, 65] {
        let subset = &last_layer[..k];
        // The plan must shape as intended (the planner's unit tests pin
        // the widths).
        let p = plan(&net, subset, 1);
        assert_eq!(p.fallback_count(), 0, "k={k}");
        assert_eq!((p.packed_faults(), p.run_count()), (k, 1), "k={k}");
        assert_engines_agree_on(&net, &u, subset, &tests);
    }
}

/// Hand-crafted two-fault run where exactly one lane's membrane crosses
/// threshold: a saturated synapse on a driven input diverges (and the
/// divergence propagates to the output), while the same fault kind on a
/// never-spiking input carries no traffic and stays on the golden
/// trajectory.
#[test]
fn exactly_one_lane_diverges() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut net = NetworkBuilder::new(2, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(2)
        .dense(2)
        .build(&mut rng);
    // Layer 0 (weights [out × in], offset = out·2 + in): each hidden
    // neuron listens to one input with a sub-threshold weight — the
    // geometric sum 0.05 / (1 − leak 0.9) = 0.5 stays below θ = 1.0, so
    // the golden run never fires.
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 0 }, 0.05); // h0 ← in0 (driven)
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 1 }, 0.0);
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 2 }, 0.0);
    net.set_weight(WeightRef { layer: 0, tensor: 0, offset: 3 }, 0.05); // h1 ← in1 (silent)
                                                                        // Layer 1: identity wiring at exactly threshold weight, so any
                                                                        // hidden spike propagates to the matching output.
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 0 }, 1.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 1 }, 0.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 2 }, 0.0);
    net.set_weight(WeightRef { layer: 1, tensor: 0, offset: 3 }, 1.0);

    // max|w| = 1.0 ⇒ SynapseSatPos sticks the weight at sat_factor × 1.0
    // = 2.0 ≥ θ, firing the faulty neuron on every driven tick.
    let u = FaultUniverse::standard(&net);
    let pick = |offset: usize| {
        u.faults()
            .iter()
            .find(|f| {
                f.kind == FaultKind::SynapseSatPos
                    && f.site == FaultSite::Synapse(WeightRef { layer: 0, tensor: 0, offset })
            })
            .copied()
            .unwrap()
    };
    let diverging = pick(0); // h0 ← in0: driven every tick
    let quiet = pick(3); // h1 ← in1: never sees a spike

    // Input 0 spikes every tick; input 1 never does.
    let mut stim = vec![0.0f32; 16 * 2];
    for t in 0..16 {
        stim[t * 2] = 1.0;
    }
    let tests = vec![Tensor::from_vec(Shape::d2(16, 2), stim).unwrap()];

    let faults = [diverging, quiet];
    let p = plan(&net, &faults, 1);
    assert_eq!(p.run_count(), 1, "both faults must share one run");

    let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
    let packed = run(&net, Engine::Packed, &u, &faults, &tests);
    assert_bit_identical(&scalar, &packed);
    assert!(packed.per_fault[0].detected, "saturated driven synapse must diverge");
    assert!(!packed.per_fault[1].detected, "saturated silent synapse must stay golden");
}

/// The other extreme: a full block (64 distinct divergences, no golden
/// self-check lane) in which every lane diverges on every tick. Layer 0
/// never fires in the golden run (its weights are zero), and each lane
/// saturates one of its 64 neurons, so every tick of every lane has a
/// divergent input row at layer 1 and no lane ever reads a recorded drive
/// there.
#[test]
fn every_lane_of_a_full_block_diverges_on_every_tick() {
    let mut rng = StdRng::seed_from_u64(43);
    let mut net = NetworkBuilder::new(3, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(64)
        .dense(9)
        .dense(5)
        .build(&mut rng);
    for offset in 0..64 * 3 {
        net.set_weight(WeightRef { layer: 0, tensor: 0, offset }, 0.0);
    }
    let u = FaultUniverse::standard(&net);
    let faults: Vec<Fault> = (u.faults().iter())
        .filter(|f| f.kind == FaultKind::NeuronSaturated && f.site.layer() == 0)
        .copied()
        .collect();
    let p = plan(&net, &faults, 1);
    assert_eq!((p.run_count(), p.packed_faults()), (1, 64), "one run of 64 distinct lanes");

    let tests = vec![
        snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, 3), 0.5),
        compacted_like(&net, 0.5, &mut rng),
    ];
    let scalar = run(&net, Engine::Scalar, &u, &faults, &tests);
    let packed = run(&net, Engine::Packed, &u, &faults, &tests);
    assert_bit_identical(&scalar, &packed);
    // A neuron firing on all 192 ticks where golden's never does reaches
    // the output through random weights for at least some lanes.
    assert!(packed.per_fault.iter().any(|o| o.detected));
}

/// A three-layer dense net and two stimuli on which many of its faults
/// diverge alike: saturated synapses of one neuron whose inputs spike
/// make that neuron fire on the same ticks.
fn alike_campaign() -> (Network, FaultUniverse, Vec<Tensor>) {
    let lif = LifParams { refrac_steps: 1, ..LifParams::default() };
    let mut rng = StdRng::seed_from_u64(91);
    let net = NetworkBuilder::new(12, lif).dense(16).dense(10).dense(4).build(&mut rng);
    let u = FaultUniverse::standard(&net);
    let tests = vec![
        snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, 12), 0.3),
        compacted_like(&net, 0.4, &mut rng),
    ];
    (net, u, tests)
}

/// Faults that diverge alike at their layer are swept once and share the
/// verdict: over full dense universes, with class diffs, at one thread
/// (runs of 512) and two (runs of ⌈F / 16⌉), every verdict equals the
/// scalar engine's.
#[test]
fn faults_that_diverge_alike_are_bit_identical() {
    let (net, u, tests) = alike_campaign();
    let scalar = run(&net, Engine::Scalar, &u, u.faults(), &tests);
    for threads in [1, 2] {
        let cfg = FaultSimConfig { threads, ..cfg_for(Engine::Packed) };
        assert_bit_identical(
            &scalar,
            &FaultSimulator::new(&net, cfg).detect(&u, u.faults(), &tests),
        );
    }
    let mut rng = StdRng::seed_from_u64(92);
    let pruned = {
        let mut net = dense_net(93, 8, 24, 5);
        snn_model::magnitude_prune(&mut net, 0.5);
        net
    };
    let u = FaultUniverse::standard(&pruned);
    let tests: Vec<Tensor> = (0..2).map(|_| compacted_like(&pruned, 0.3, &mut rng)).collect();
    let scalar = run(&pruned, Engine::Scalar, &u, u.faults(), &tests);
    for threads in [1, 2] {
        let cfg = FaultSimConfig { threads, ..cfg_for(Engine::Packed) };
        let packed = FaultSimulator::new(&pruned, cfg).detect(&u, u.faults(), &tests);
        assert_bit_identical(&scalar, &packed);
    }
}

/// The collapse is on: a dense campaign resolves diverged variants by
/// another variant's sweep (`snn_batch_lanes_shared_total` rises), so it
/// sweeps fewer lanes than it has diverged members.
#[test]
fn a_dense_campaign_sweeps_fewer_lanes_than_it_has_diverged_members() {
    let (net, u, tests) = alike_campaign();
    let shared = snn_obs::metrics::global().counter(
        "snn_batch_lanes_shared_total",
        "Diverged fault variants resolved by another variant's sweep, per test.",
    );
    let before = shared.get();
    run(&net, Engine::Packed, &u, u.faults(), &tests);
    assert!(shared.get() > before, "no diverged member took another's sweep");
}

/// Two saturated synapses of one neuron whose inputs spike on the same
/// ticks under test 0 diverge alike there; under test 1 their inputs
/// spike apart and so do the faults. Each test's verdict of a member is
/// its own — sharing under one test carries nothing into the other.
#[test]
fn faults_alike_under_one_test_and_not_the_other_keep_their_own_verdicts() {
    let mut rng = StdRng::seed_from_u64(95);
    let mut net = NetworkBuilder::new(3, LifParams { refrac_steps: 1, ..LifParams::default() })
        .dense(2)
        .dense(2)
        .build(&mut rng);
    // Layer 0 ([out × in], offset = out·3 + in): h0 listens to in0 and in1
    // below threshold (0.06 / (1 − leak 0.9) < θ), h1 to nothing; layer 1
    // wires h0 → o0 and h1 → o1 at θ, so max|w| = 1.0 and a saturated
    // synapse (2.0) fires h0 on every tick its input spikes.
    for (layer, offset, w) in [(0, 0, 0.03), (0, 1, 0.03), (1, 0, 1.0), (1, 3, 1.0)] {
        net.set_weight(WeightRef { layer, tensor: 0, offset }, w);
    }
    for (layer, offset) in [(0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2)] {
        net.set_weight(WeightRef { layer, tensor: 0, offset }, 0.0);
    }
    let u = FaultUniverse::standard(&net);
    let sat = |offset: usize| {
        let site = FaultSite::Synapse(WeightRef { layer: 0, tensor: 0, offset });
        (u.faults().iter())
            .find(|f| f.kind == FaultKind::SynapseSatPos && f.site == site)
            .copied()
            .unwrap()
    };
    let faults = [sat(0), sat(1)];
    let stimulus = |in0: fn(usize) -> bool, in1: fn(usize) -> bool| {
        let mut x = vec![0.0f32; 24 * 3];
        for t in 0..24 {
            x[t * 3] = f32::from(u8::from(in0(t)));
            x[t * 3 + 1] = f32::from(u8::from(in1(t)));
        }
        Tensor::from_vec(Shape::d2(24, 3), x).unwrap()
    };
    let tests = vec![stimulus(|t| t % 4 == 0, |t| t % 4 == 0), stimulus(|_| true, |t| t % 3 == 0)];
    // Each fault's verdict under each test alone, as (distance bits, class
    // diff).
    let alone = |k: usize| -> Vec<(u32, Option<Vec<f32>>)> {
        let out = run(&net, Engine::Scalar, &u, &faults, &tests[k..=k]).per_fault;
        out.into_iter().map(|o| (o.distance.to_bits(), o.class_diff)).collect()
    };
    let (first, second) = (alone(0), alone(1));
    assert_eq!(first[0], first[1], "alike under test 0");
    assert_ne!(second[0].0, second[1].0, "apart under test 1");
    assert!(second.iter().zip(&first).all(|(b, a)| f32::from_bits(b.0) > f32::from_bits(a.0)));
    for threads in [1, 2] {
        let cfg = FaultSimConfig { threads, ..cfg_for(Engine::Packed) };
        let packed = FaultSimulator::new(&net, cfg).detect(&u, &faults, &tests);
        assert_bit_identical(&run(&net, Engine::Scalar, &u, &faults, &tests), &packed);
        for (p, own) in packed.per_fault.iter().zip(&second) {
            assert_eq!(p.distance.to_bits(), own.0, "a member keeps its own test-1 verdict");
        }
    }
}
