//! Chaos test for distributed campaigns: one of two real worker
//! processes is SIGKILLed while it holds a chunk lease, and the
//! campaign must still complete with a verdict digest bit-identical to
//! the single-process path — the expired lease is re-issued under a
//! bumped epoch to the surviving worker, with no fault lost or counted
//! twice.

use snn_mtfc::faults::{verdict_digest_hex, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_mtfc::service::{Client, JobSpec, JobState, ModelSpec, Server, ServiceConfig};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKER_NAMES: [&str; 2] = ["chaos-a", "chaos-b"];

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snn-cluster-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The campaign under test: big enough that chunks take a few
/// milliseconds each, so a kill observed "holding a lease" usually
/// lands mid-chunk.
fn coverage_spec() -> JobSpec {
    JobSpec {
        model: ModelSpec::Synthetic { inputs: 16, hidden: vec![64], outputs: 10, seed: 5 },
        preset: "fast".into(),
        seed: 5,
        max_iterations: None,
        t_limit_secs: None,
        evaluate_coverage: true,
        threads: 1,
        reliability: None,
        engine: None,
    }
}

/// The reference digest for [`coverage_spec`]: what `snn-mtfc verify`
/// computes — one `FaultSimulator::detect` over the whole universe — for
/// the events file a job with no cluster workers wrote, which that job's
/// own digest must equal.
fn local_reference_digest() -> String {
    let state_dir = temp_state_dir("local");
    let server = Server::bind(ServiceConfig::loopback(&state_dir)).expect("bind local server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect local");
    let job = client.submit(coverage_spec()).expect("submit local");
    let record = client.watch(job, |_| {}).expect("watch local");
    assert_eq!(record.state, JobState::Done, "local error: {:?}", record.error);
    let result = record.result.expect("local result");
    let net = snn_mtfc::cluster::build_model(&record.spec.model).expect("model");
    let universe = FaultUniverse::standard(&net);
    let events = std::fs::read_to_string(result.events_path.expect("events file recorded"))
        .expect("events file exists");
    let stimulus = snn_mtfc::testgen::parse_events(&events).expect("events parse");
    let outcome = FaultSimulator::new(&net, FaultSimConfig::default()).detect(
        &universe,
        universe.faults(),
        std::slice::from_ref(&stimulus),
    );
    let digest = verdict_digest_hex(&outcome.per_fault);
    assert_eq!(
        result.verdict_digest.as_deref(),
        Some(digest.as_str()),
        "a job with no workers records the digest `verify` prints for its events file"
    );
    client.shutdown().expect("shutdown local");
    handle.join().expect("local server thread").expect("local server run");
    let _ = std::fs::remove_dir_all(&state_dir);
    digest
}

fn spawn_worker(addr: std::net::SocketAddr, name: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_snn-mtfc"))
        .args(["worker", "--addr", &addr.to_string(), "--name", name, "--threads", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker process")
}

/// One run of the scenario. `Ok` carries `chunks_reissued`; zero means
/// the kill raced a chunk boundary and the attempt is inconclusive.
fn run_scenario(attempt: usize, reference: &str) -> Result<u64, String> {
    let state_dir = temp_state_dir(&format!("run{attempt}"));
    let server = Server::bind(ServiceConfig {
        workers: 1,
        expect_workers: 2,
        chunk_size: 256,
        lease_ms: 1200,
        ..ServiceConfig::loopback(&state_dir)
    })
    .expect("bind cluster server");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut children: Vec<(String, Child)> =
        WORKER_NAMES.iter().map(|n| (n.to_string(), spawn_worker(addr, n))).collect();

    let mut client = Client::connect(addr).expect("connect");
    let job = client.submit(coverage_spec()).expect("submit");

    // Watch cluster state from a second connection until some worker
    // holds a lease, then SIGKILL exactly that worker.
    let mut status_client = Client::connect(addr).expect("status connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    let killed = loop {
        if Instant::now() > deadline {
            break None;
        }
        let status = status_client.cluster_status().expect("cluster status");
        let holder = status.workers.iter().find(|w| w.lease.is_some()).map(|w| w.name.clone());
        if let Some(name) = holder {
            let slot =
                children.iter_mut().find(|(n, _)| *n == name).expect("lease holder is one of ours");
            slot.1.kill().expect("SIGKILL worker");
            break Some(name);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let killed = killed.expect("a worker took a lease within the deadline");

    // The campaign must still complete — the surviving worker picks up
    // the dead worker's chunks after the lease expires.
    let record = client.watch(job, |_| {}).expect("watch");
    assert_eq!(record.state, JobState::Done, "job error after kill: {:?}", record.error);
    let result = record.result.expect("result");
    let digest = result.verdict_digest.expect("digest");
    assert_eq!(
        digest, reference,
        "distributed digest diverged from the local path after killing {killed}"
    );
    let total = result.faults_total.expect("fault total");
    let detected = result.faults_detected.expect("fault detected count");
    assert!(total > 0 && detected <= total, "implausible accounting: {detected}/{total}");

    let status = status_client.cluster_status().expect("final cluster status");
    client.shutdown().expect("shutdown");
    // Server::run joins every connection handler; both clients must be
    // dropped (closing their sockets) before the server thread can exit.
    drop(client);
    drop(status_client);
    server_thread.join().expect("server thread").expect("server run");
    for (_, mut child) in children {
        // The killed child is already dead; the survivor exits on the
        // coordinator's shutdown grant. Reap both.
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(status.chunks_reissued)
}

#[test]
fn killing_a_leased_worker_reissues_its_chunks_and_keeps_the_digest_exact() {
    let reference = local_reference_digest();

    // Every attempt must complete with the exact digest; the reissue
    // counter can legitimately be zero if the SIGKILL raced a chunk
    // boundary, so retry the scenario until a reissue is observed.
    const ATTEMPTS: usize = 4;
    for attempt in 0..ATTEMPTS {
        let reissued = run_scenario(attempt, &reference).expect("scenario");
        if reissued > 0 {
            return;
        }
        eprintln!("attempt {attempt}: kill raced a chunk boundary (0 reissues), retrying");
    }
    panic!("no lease reissue observed in {ATTEMPTS} attempts");
}
