//! Hostile and malformed input on the worker side of the listener, over
//! real loopback TCP: a hand-spoken worker whose `Result` columns do not
//! fit its lease, and a line that is not text at all.

use snn_cluster::wire::{read_line, write_line, ChunkOutcomes, CoordMsg, WorkerMsg};
use snn_cluster::PreparedCampaign;
use snn_faults::progress::{CancelToken, NullSink};
use snn_faults::{verdict_digest_hex, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_service::{
    Client, JobRecord, JobSpec, JobState, ModelSpec, Response, Server, ServiceConfig,
    PROTOCOL_VERSION,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snn-worker-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(
    tag: &str,
    expect_workers: usize,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>, PathBuf) {
    let state_dir = temp_state_dir(tag);
    let server = Server::bind(ServiceConfig {
        workers: 1,
        expect_workers,
        // One chunk per campaign: the whole fault list under one lease.
        chunk_size: usize::MAX,
        lease_ms: 60_000,
        ..ServiceConfig::loopback(&state_dir)
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()), state_dir)
}

fn coverage_spec() -> JobSpec {
    JobSpec {
        model: ModelSpec::Synthetic { inputs: 6, hidden: vec![10], outputs: 4, seed: 3 },
        preset: "fast".into(),
        seed: 3,
        max_iterations: None,
        t_limit_secs: None,
        evaluate_coverage: true,
        threads: 1,
        reliability: None,
        engine: None,
    }
}

fn run_to_done(addr: SocketAddr) -> JobRecord {
    let mut client = Client::connect(addr).expect("connect");
    let job = client.submit(coverage_spec()).expect("submit");
    let record = client.watch(job, |_| {}).expect("watch");
    assert_eq!(record.state, JobState::Done, "job error: {:?}", record.error);
    record
}

fn digest_of(record: &JobRecord) -> String {
    record.result.as_ref().and_then(|r| r.verdict_digest.clone()).expect("a verdict digest")
}

/// What `snn-mtfc verify` computes for the job's model and the events
/// file the job wrote: one campaign over the whole universe.
fn verify_digest(record: &JobRecord) -> String {
    let net = snn_cluster::build_model(&record.spec.model).expect("model");
    let universe = FaultUniverse::standard(&net);
    let path = record.result.as_ref().and_then(|r| r.events_path.clone()).expect("events file");
    let text = std::fs::read_to_string(path).expect("events file exists");
    let stimulus = snn_testgen::parse_events(&text).expect("events parse");
    let outcome = FaultSimulator::new(&net, FaultSimConfig::default()).detect(
        &universe,
        universe.faults(),
        std::slice::from_ref(&stimulus),
    );
    verdict_digest_hex(&outcome.per_fault)
}

/// A worker connection spoken by hand.
struct RawWorker {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawWorker {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        Self { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    fn ask(&mut self, msg: &WorkerMsg) -> CoordMsg {
        write_line(&mut self.writer, msg).expect("send");
        read_line::<CoordMsg>(&mut self.reader)
            .expect("a reply arrives")
            .expect("the server has not hung up")
            .expect("the reply decodes")
    }
}

#[test]
fn a_result_that_does_not_fit_its_lease_bounces_and_the_campaign_still_completes() {
    let (reference_addr, reference_server, reference_dir) = boot("reference", 0);
    let reference = run_to_done(reference_addr);
    assert_eq!(digest_of(&reference), verify_digest(&reference), "0 workers: the job is `verify`");
    Client::connect(reference_addr).expect("connect").shutdown().expect("shutdown");
    reference_server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&reference_dir);

    let (addr, server, state_dir) = boot("cluster", 1);
    let name = "by-hand".to_string();
    let mut worker = RawWorker::connect(addr);
    let welcome = worker.ask(&WorkerMsg::Hello { name: name.clone(), protocol: PROTOCOL_VERSION });
    assert!(matches!(welcome, CoordMsg::Welcome { .. }), "got {welcome:?}");

    let (finished, job_done) = std::sync::mpsc::channel();
    let job = std::thread::spawn(move || {
        let record = run_to_done(addr);
        finished.send(()).expect("main thread is listening");
        record
    });

    let mut prepared = None;
    let mut bounced = 0u64;
    while job_done.try_recv().is_err() {
        let grant = match worker.ask(&WorkerMsg::Lease { worker: name.clone() }) {
            CoordMsg::Granted(grant) => grant,
            CoordMsg::Idle { .. } => continue,
            other => panic!("expected a grant or Idle, got {other:?}"),
        };
        if prepared.is_none() {
            let fetch = WorkerMsg::Fetch { worker: name.clone(), campaign: grant.campaign };
            let CoordMsg::Campaign(spec) = worker.ask(&fetch) else { panic!("no payload") };
            prepared = Some(PreparedCampaign::new(&spec, Some(1)).expect("prepare"));
        }
        let campaign = prepared.as_ref().expect("prepared above");
        let rows =
            campaign.run_chunk(grant.chunk.range(), &NullSink, &CancelToken::new()).expect("chunk");
        let good = ChunkOutcomes::from_rows(rows.clone());
        let mut result = |outcomes: ChunkOutcomes| {
            worker.ask(&WorkerMsg::Result {
                worker: name.clone(),
                lease: grant.lease,
                campaign: grant.campaign,
                chunk: grant.chunk.index,
                epoch: grant.epoch,
                outcomes,
                spans: None,
            })
        };
        if bounced == 0 {
            // Columns that disagree in length, then a count that is not
            // the leased chunk's.
            let mut lopsided = good.clone();
            lopsided.distance.pop();
            let fewer = ChunkOutcomes::from_rows(rows[1..].to_vec());
            for bad in [lopsided, fewer] {
                assert_eq!(result(bad), CoordMsg::ResultAck { accepted: false });
                bounced += 1;
            }
        }
        // The lease outlived the bounces: the same chunk still lands.
        assert_eq!(result(good), CoordMsg::ResultAck { accepted: true });
    }

    let record = job.join().expect("job thread");
    assert_eq!(digest_of(&record), digest_of(&reference), "verdicts match the 0-worker run");
    assert_eq!(digest_of(&record), verify_digest(&record), "1 worker: the job is `verify`");
    let mut client = Client::connect(addr).expect("connect");
    let status = client.cluster_status().expect("cluster status");
    assert_eq!(status.results_stale, bounced);
    assert_eq!(bounced, 2);
    assert_eq!(status.chunks_reissued, 0);
    // The server joins its connection threads on the way down.
    drop(worker);
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A line the reader cannot hand to the parser — not UTF-8 here; one
/// past the length cap takes the same exit — is answered once and the
/// connection closed, since the stream is left mid-line.
#[test]
fn a_line_that_is_not_text_is_answered_and_the_connection_closed() {
    let (addr, server, state_dir) = boot("not-text", 0);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    stream.write_all(b"\"Ping\"\n\xff\xfe\xfd\n\"Ping\"\n").expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let pong = read_line::<Response>(&mut reader).expect("read").expect("a reply");
    assert_eq!(pong, Ok(Response::Pong { version: PROTOCOL_VERSION }));
    let refusal = read_line::<Response>(&mut reader).expect("read").expect("a reply");
    let Ok(Response::Error { message }) = refusal else { panic!("got {refusal:?}") };
    assert!(message.starts_with("bad message: "), "{message}");
    // The second Ping is never answered: the server hung up.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "nothing after the refusal, got {:?}", String::from_utf8_lossy(&rest));

    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&state_dir);
}
