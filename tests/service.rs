//! End-to-end test of the `snn-service` job server over real loopback TCP:
//! submit → progress stream → result, mid-run cancellation, job-store
//! persistence across a server restart, and a job's stimulus and
//! verdicts against the generator and the fault simulator run directly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_mtfc::faults::progress::Progress;
use snn_mtfc::faults::{verdict_digest_hex, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_mtfc::model::{magnitude_prune, LifParams, Network, NetworkBuilder};
use snn_mtfc::service::{
    Client, JobEventPayload, JobSpec, JobState, ModelSpec, Server, ServiceConfig,
};
use snn_mtfc::testgen::{parse_events, TestGenConfig, TestGenerator};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snn-service-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(state_dir: &PathBuf) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    boot_with(ServiceConfig::loopback(state_dir))
}

fn boot_with(config: ServiceConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// A server that expects a cluster worker nobody starts: its coverage
/// jobs ([`long_spec`]) generate, then park waiting for that worker.
fn coordinator_without_workers(state_dir: &PathBuf) -> ServiceConfig {
    ServiceConfig { expect_workers: 1, ..ServiceConfig::loopback(state_dir) }
}

/// One outer iteration of the paper preset on a small synthetic network,
/// so the lifecycle test finishes promptly — yet 3,000 optimizer steps
/// whatever the seed: 20 ms in a release build, two hundred loopback
/// round trips (one lies between `submit` and the `watch` behind it) and
/// twenty times the millisecond its timings are stamped in.
fn quick_spec(seed: u64) -> JobSpec {
    JobSpec {
        preset: "paper".into(),
        max_iterations: Some(1),
        t_limit_secs: Some(120),
        ..JobSpec::synthetic_repro(6, vec![12], 4, seed)
    }
}

/// Long by construction on a [`coordinator_without_workers`]: once
/// generated, its coverage campaign waits a minute for the first worker
/// — hundreds of times what a test here takes in a release build,
/// whatever the generator's speed. The tests cancel it.
fn long_spec(seed: u64) -> JobSpec {
    JobSpec { evaluate_coverage: true, ..JobSpec::synthetic_repro(6, vec![12], 4, seed) }
}

/// Polls `status` until the job leaves `Queued` (i.e. a worker picked it
/// up) or the deadline passes.
fn wait_until_running(client: &mut Client, job: u64, deadline: Duration) -> JobState {
    let start = Instant::now();
    loop {
        let state = client.status(job).expect("status").state;
        if state != JobState::Queued || start.elapsed() > deadline {
            return state;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn submit_watch_cancel_and_restart_over_tcp() {
    let state_dir = temp_state_dir("lifecycle");
    let (addr, server) = boot_with(coordinator_without_workers(&state_dir));

    let done_job;
    let cancelled_job;
    {
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.ping().expect("ping"), snn_mtfc::service::PROTOCOL_VERSION);

        // --- 1. A job runs to completion with live progress.
        done_job = client.submit(quick_spec(7)).expect("submit");
        let mut progress_events = 0usize;
        let mut state_events = Vec::new();
        let record = client
            .watch(done_job, |event| match &event.payload {
                JobEventPayload::Progress { .. } => progress_events += 1,
                JobEventPayload::State { state, .. } => state_events.push(*state),
            })
            .expect("watch to completion");
        assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
        assert!(progress_events >= 1, "no progress events observed");
        assert!(state_events.contains(&JobState::Done));
        let result = record.result.expect("done job carries a result");
        assert!(result.test_steps > 0);
        assert!(result.activated > 0);
        assert!(result.activation_coverage > 0.0);
        // The stimulus file persisted server-side and is parseable.
        let events_path = result.events_path.expect("events file recorded");
        let text = std::fs::read_to_string(&events_path).expect("events file exists");
        let stimulus = snn_mtfc::testgen::parse_events(&text).expect("events parse");
        assert_eq!(stimulus.shape().dim(0), result.test_steps);

        // --- 2. A long job cancels mid-run.
        cancelled_job = client.submit(long_spec(8)).expect("submit long job");
        let state = wait_until_running(&mut client, cancelled_job, Duration::from_secs(30));
        assert_eq!(state, JobState::Running, "unexpected state before cancel");
        client.cancel(cancelled_job).expect("cancel");
        let record = client.watch(cancelled_job, |_| {}).expect("watch cancelled job");
        assert_eq!(record.state, JobState::Cancelled, "error: {:?}", record.error);
        assert!(record.error.is_some(), "cancellation records a reason");

        // --- 3. Both jobs are visible in the listing.
        let jobs = client.list().expect("list");
        assert!(jobs.iter().any(|r| r.id == done_job && r.state == JobState::Done));
        assert!(jobs.iter().any(|r| r.id == cancelled_job && r.state == JobState::Cancelled));

        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");

    // --- 4. A restarted server over the same state dir still knows both
    // jobs, with the completed result intact.
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("reconnect");
        let record = client.status(done_job).expect("status after restart");
        assert_eq!(record.state, JobState::Done);
        assert!(record.result.expect("result survives restart").activated > 0);
        let record = client.status(cancelled_job).expect("cancelled status after restart");
        assert_eq!(record.state, JobState::Cancelled);
        client.shutdown().expect("second shutdown");
    }
    server.join().expect("server thread").expect("server run");

    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn bad_requests_get_one_line_errors() {
    let state_dir = temp_state_dir("errors");
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("connect");

        // Unknown job id.
        let err = client.status(999).expect_err("unknown job is an error");
        assert!(err.contains("no such job"), "got: {err}");

        // Unknown preset is rejected at submit time.
        let mut spec = JobSpec::synthetic_repro(4, vec![6], 2, 1);
        spec.preset = "warp-speed".into();
        let err = client.submit(spec).expect_err("bad preset rejected");
        assert!(err.contains("unknown preset"), "got: {err}");

        // Degenerate model shapes are rejected at submit time.
        let mut spec = JobSpec::synthetic_repro(4, vec![6], 2, 1);
        spec.model = ModelSpec::Synthetic { inputs: 0, hidden: vec![], outputs: 2, seed: 1 };
        let err = client.submit(spec).expect_err("empty layer rejected");
        assert!(err.contains("non-empty"), "got: {err}");

        // Errors are in-band responses; the connection keeps working.
        use snn_mtfc::service::{Request, Response};
        let resp = client.request(&Request::Status { job: 1 }).expect("still talking");
        assert!(
            matches!(&resp, Response::Error { message } if message.contains("no such job")),
            "got: {resp:?}"
        );
        let pong = client.request(&Request::Ping).expect("ping after errors");
        assert!(matches!(pong, Response::Pong { .. }));

        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A request line nested a million arrays deep is answered with an
/// error, not a stack overflow that takes the server down, and the
/// connection and the server go on serving.
#[test]
fn a_line_nested_a_million_levels_deep_gets_an_error_reply() {
    use std::io::{BufRead, BufReader, Write};
    let state_dir = temp_state_dir("deep");
    let (addr, server) = boot(&state_dir);
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut line = "[".repeat(1_000_000);
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("send the deep line");
        stream.write_all(b"\"Ping\"\n").expect("send a ping after it");
        let mut replies = BufReader::new(stream.try_clone().expect("clone")).lines();
        let reply = replies.next().expect("a reply").expect("read the reply");
        assert!(reply.contains("Error") && reply.contains("128 levels"), "got: {reply}");
        let reply = replies.next().expect("a reply").expect("read the reply");
        assert!(reply.contains("Pong"), "got: {reply}");

        let mut client = Client::connect(addr).expect("connect again");
        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn metrics_snapshot_reports_job_and_generator_series() {
    use snn_mtfc::obs::metrics::MetricValue;

    let state_dir = temp_state_dir("metrics");
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("connect");
        let mut spec = quick_spec(11);
        spec.evaluate_coverage = true;
        let net = snn_mtfc::cluster::build_model(&spec.model).expect("synthetic model");
        let universe = snn_mtfc::faults::FaultUniverse::standard(&net).len();
        let job = client.submit(spec).expect("submit");
        let mut tallies = Vec::new();
        let record = client
            .watch(job, |event| {
                if let JobEventPayload::Progress {
                    progress: Progress::FaultsSimulated { done, total, .. },
                    ..
                } = &event.payload
                {
                    tallies.push((*done, *total));
                }
            })
            .expect("watch");
        assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);

        // The campaign a watcher sees is the one the result counts: the
        // whole universe, its tally only ever rising, to the last fault.
        let result = record.result.expect("result");
        assert_eq!(result.faults_total, Some(universe));
        assert!(tallies.iter().all(|&(_, total)| total == universe), "{tallies:?}");
        assert!(tallies.windows(2).all(|w| w[0].0 < w[1].0), "{tallies:?}");
        assert_eq!(tallies.last().map(|t| t.0), Some(universe));

        // The result carries the per-phase timing breakdown.
        let timings = result.timings.expect("timings stamped into the result");
        assert!(timings.generation_ms > 0, "generation took measurable time: {timings:?}");
        assert!(
            timings.generation_ms.saturating_add(timings.fault_sim_ms) <= result.runtime_ms + 1,
            "phases fit inside the total: {timings:?} vs {} ms",
            result.runtime_ms
        );

        // The Metrics request returns a registry snapshot with a
        // non-zero job wall-time histogram and generator counters.
        let snapshot = client.metrics().expect("metrics");
        let find = |name: &str| {
            snapshot
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
        };
        match &find("snn_service_job_wall_seconds").value {
            MetricValue::Histogram(h) => {
                assert!(h.count >= 1, "at least one finished job observed");
                assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "buckets sum to count");
            }
            other => panic!("job wall time should be a histogram, got {other:?}"),
        }
        match &find("snn_testgen_iterations_total").value {
            MetricValue::Counter(v) => assert!(*v >= 1, "generator iterations counted"),
            other => panic!("iterations should be a counter, got {other:?}"),
        }
        match &find("snn_faultsim_faults_simulated_total").value {
            MetricValue::Counter(v) => assert!(*v >= 1, "faults simulated counted"),
            other => panic!("faults simulated should be a counter, got {other:?}"),
        }
        match &find("snn_service_jobs_done").value {
            MetricValue::Gauge(v) => assert!(*v >= 1.0, "done-jobs gauge tracks the job"),
            other => panic!("jobs-by-state should be a gauge, got {other:?}"),
        }
        // Every record append is timed: queued, running and done at least.
        match &find("snn_service_store_persist_seconds").value {
            MetricValue::Histogram(h) => assert!(h.count >= 3, "record appends timed: {h:?}"),
            other => panic!("record appends should be a histogram, got {other:?}"),
        }

        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn queued_jobs_cancel_without_running() {
    let state_dir = temp_state_dir("queued-cancel");
    // A single-worker server so a second submission must queue.
    let (addr, handle) =
        boot_with(ServiceConfig { workers: 1, ..coordinator_without_workers(&state_dir) });
    {
        let mut client = Client::connect(addr).expect("connect");
        // Occupy the only worker with a long job.
        let blocker = client.submit(long_spec(3)).expect("submit blocker");
        let queued = client.submit(quick_spec(4)).expect("submit queued");
        client.cancel(queued).expect("cancel queued job");
        let record = client.status(queued).expect("status");
        assert_eq!(record.state, JobState::Cancelled);
        assert!(record.error.unwrap().contains("queued"));
        assert!(!client.status(blocker).expect("blocker status").state.is_terminal());
        client.cancel(blocker).expect("cancel blocker");
        client.watch(blocker, |_| {}).expect("blocker terminal");
        client.shutdown().expect("shutdown");
    }
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Writes `net` to the model file at `path`.
fn save_model(net: &Network, path: &Path) {
    let mut file = std::fs::File::create(path).expect("create model file");
    net.save(&mut file).expect("write model file");
}

fn load_model(path: &Path) -> Network {
    Network::load(&mut std::fs::File::open(path).expect("open model file")).expect("load model")
}

/// A `fast` job over the model file at `path`.
fn path_spec(path: &Path, evaluate_coverage: bool) -> JobSpec {
    JobSpec {
        model: ModelSpec::Path(path.display().to_string()),
        preset: "fast".into(),
        evaluate_coverage,
        ..JobSpec::synthetic_repro(1, Vec::new(), 1, 7)
    }
}

/// A job reads its model file when it runs. Rewritten between two jobs
/// with a same-shape net of other weights, the second job's verdicts are
/// the new net's: each job's digest is the one a campaign over the file's
/// current net computes on that job's own stimulus.
#[test]
fn a_rewritten_model_file_is_read_afresh_by_the_next_job() {
    let state_dir = temp_state_dir("rewritten-model");
    let model_dir = temp_state_dir("rewritten-model-file");
    std::fs::create_dir_all(&model_dir).expect("model dir");
    let model = model_dir.join("model.snn");
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("connect");
        for weights_seed in [1, 2] {
            let net = NetworkBuilder::new(16, LifParams::default())
                .dense(24)
                .dense(6)
                .build(&mut StdRng::seed_from_u64(weights_seed));
            save_model(&net, &model);
            let job = client.submit(path_spec(&model, true)).expect("submit");
            let record = client.watch(job, |_| {}).expect("watch");
            assert_eq!(record.state, JobState::Done, "error: {:?}", record.error);
            let result = record.result.expect("done job carries a result");

            let events_path = result.events_path.expect("events file recorded");
            let text = std::fs::read_to_string(&events_path).expect("events file exists");
            let stimulus = parse_events(&text).expect("events parse");
            let net = load_model(&model);
            let universe = FaultUniverse::standard(&net);
            let campaign = FaultSimulator::new(&net, FaultSimConfig::default()).detect(
                &universe,
                universe.faults(),
                &[stimulus],
            );
            assert_eq!(
                result.verdict_digest,
                Some(verdict_digest_hex(&campaign.per_fault)),
                "the job over the net of weight seed {weights_seed}"
            );
        }
        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&model_dir);
}

/// A job's events file is byte for byte what `snn-mtfc generate` writes
/// for the same model, preset and seed, on the three example shapes of
/// `ci.sh`, half pruned as it prunes them.
#[test]
fn a_job_writes_the_stimulus_the_generator_writes() {
    let state_dir = temp_state_dir("cli-stimulus");
    let model_dir = temp_state_dir("cli-stimulus-models");
    std::fs::create_dir_all(&model_dir).expect("model dir");
    let lif = LifParams::default();
    let mut rng = StdRng::seed_from_u64(42);
    let nets = [
        (
            "nmnist",
            NetworkBuilder::new_spatial(2, 16, 16, lif)
                .avg_pool(2)
                .dense(48)
                .dense(10)
                .build(&mut rng),
        ),
        (
            "ibm",
            NetworkBuilder::new_spatial(2, 24, 24, lif)
                .avg_pool(2)
                .conv(6, 5, 1, 2)
                .avg_pool(2)
                .dense(32)
                .dense(11)
                .build(&mut rng),
        ),
        ("shd", NetworkBuilder::new(140, lif).recurrent(32).dense(20).build(&mut rng)),
    ];
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("connect");
        // All three are submitted first, so the server generates while
        // this thread does.
        let mut jobs = Vec::new();
        for (name, mut net) in nets {
            magnitude_prune(&mut net, 0.5);
            let model = model_dir.join(format!("{name}.snn"));
            save_model(&net, &model);
            let spec = path_spec(&model, false);
            let seed = spec.seed;
            jobs.push((name, model, seed, client.submit(spec).expect("submit")));
        }
        for (name, model, seed, job) in jobs {
            let cfg = TestGenConfig::preset("fast").expect("fast preset");
            let test = TestGenerator::new(&load_model(&model), cfg)
                .generate(&mut StdRng::seed_from_u64(seed));
            let mut generated = Vec::new();
            test.write_events(&mut generated).expect("encode events");

            let record = client.watch(job, |_| {}).expect("watch");
            assert_eq!(record.state, JobState::Done, "{name}: {:?}", record.error);
            let events_path = record.result.and_then(|r| r.events_path).expect("events file");
            let served = std::fs::read(events_path).expect("events file exists");
            assert!(served == generated, "{name}: the job's stimulus differs from the generator's");
        }
        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&model_dir);
}

/// A reliability job: eight fault maps of a 6-12-4 synthetic net, weight
/// and neuron faults live in ticks 3..9 of twelve — the windowed campaign
/// `ci.sh` gates.
fn reliability_spec() -> JobSpec {
    use snn_mtfc::faults::TransientWindow;
    use snn_mtfc::reliability::{
        EvalSpec, FaultMapSpec, MitigationKind, ReliabilitySpec, WeightFaultModel,
    };
    let spec = JobSpec { threads: 1, ..JobSpec::synthetic_repro(6, vec![12], 4, 11) };
    let net = snn_mtfc::cluster::build_model(&spec.model).expect("synthetic model");
    let window = Some(TransientWindow::new(3, 9));
    let map = FaultMapSpec::uniform(&net, 0.05, 0.05, 8, 11, WeightFaultModel::StuckSat, window);
    let eval = EvalSpec { samples: 6, steps: 12, rate: 0.3, seed: 7 };
    let mitigation = MitigationKind::RangeRestriction;
    JobSpec { reliability: Some(ReliabilitySpec { map, eval, mitigation }), ..spec }
}

/// A reliability job records one digest whether the server runs its
/// campaign or leases it to a cluster worker, and it is the digest of the
/// fault-map evaluator run directly.
#[test]
fn a_reliability_job_records_the_evaluator_digest_in_process_and_leased() {
    use snn_mtfc::cluster::{run_worker, WorkerConfig};
    use snn_mtfc::faults::CancelToken;
    use snn_mtfc::reliability::{ReliabilityEvaluator, ReliabilityReport};

    let spec = reliability_spec();
    let rspec = spec.reliability.clone().expect("reliability spec");
    let net = snn_mtfc::cluster::build_model(&spec.model).expect("synthetic model");
    let evaluator = ReliabilityEvaluator::new(net.clone(), rspec.clone()).expect("evaluator");
    let outcomes =
        evaluator.evaluate_chunk(0..rspec.map.configs, 1, &CancelToken::new()).expect("campaign");
    let expected = ReliabilityReport::build(&net, &rspec, &outcomes).expect("report").digest;
    assert_eq!(expected, "a33d2db16430582e", "the digest ci.sh pins for this campaign");

    for workers in [0, 1] {
        let state_dir = temp_state_dir(&format!("reliability-{workers}"));
        let (addr, server) = boot_with(ServiceConfig {
            expect_workers: workers,
            chunk_size: 3,
            ..ServiceConfig::loopback(&state_dir)
        });
        let worker = (workers == 1).then(|| {
            let cfg = WorkerConfig {
                addr: addr.to_string(),
                name: "reliability-w1".into(),
                threads: 1,
                trace: false,
            };
            std::thread::spawn(move || run_worker(&cfg).map(|_| ()).map_err(|e| e.to_string()))
        });
        let mut client = Client::connect(addr).expect("connect");
        let job = client.submit(spec.clone()).expect("submit");
        let record = client.watch(job, |_| {}).expect("watch");
        assert_eq!(record.state, JobState::Done, "{workers} worker(s): {:?}", record.error);
        let digest = record.result.and_then(|r| r.verdict_digest);
        assert_eq!(digest.as_deref(), Some(expected.as_str()), "{workers} worker(s)");
        // Leased as three chunks of at most three configurations, or not
        // leased at all.
        let leased = client.cluster_status().expect("cluster status").chunks_completed;
        assert_eq!(leased, if workers == 0 { 0 } else { 3 }, "{workers} worker(s)");

        client.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("server run");
        if let Some(worker) = worker {
            worker.join().expect("worker thread").expect("worker run");
        }
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

/// The fault-map evaluator runs no detection engine, so a reliability
/// job that names one is refused at submit and never stored.
#[test]
fn a_reliability_job_with_an_engine_is_refused() {
    let state_dir = temp_state_dir("reliability-engine");
    let (addr, server) = boot(&state_dir);
    {
        let mut client = Client::connect(addr).expect("connect");
        let spec = JobSpec { engine: Some(snn_mtfc::faults::Engine::Scalar), ..reliability_spec() };
        let err = client.submit(spec).expect_err("reliability with an engine is refused");
        assert_eq!(err, "reliability jobs do not take an engine");
        assert!(client.list().expect("list").is_empty(), "a refused job was stored");
        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A fault map that does not fit the job's model fails the job with one
/// line before any campaign starts: a server that leases campaigns checks
/// it too, rather than waiting for workers that could not run it.
#[test]
fn a_reliability_job_whose_map_misses_the_model_fails_before_leasing() {
    use snn_mtfc::reliability::{MemoryRegion, RegionSpec};
    let state_dir = temp_state_dir("reliability-misfit");
    let (addr, server) = boot_with(coordinator_without_workers(&state_dir));
    {
        let mut client = Client::connect(addr).expect("connect");
        let mut spec = reliability_spec();
        if let Some(r) = spec.reliability.as_mut() {
            r.map.regions.push(RegionSpec { region: MemoryRegion::Neurons { layer: 9 }, ber: 0.1 });
        }
        let job = client.submit(spec).expect("submit");
        let record = client.watch(job, |_| {}).expect("watch");
        assert_eq!(record.state, JobState::Failed);
        let error = record.error.unwrap_or_default();
        assert!(error.ends_with("layer 9 out of range") && !error.contains('\n'), "{error}");
        client.shutdown().expect("shutdown");
    }
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}
