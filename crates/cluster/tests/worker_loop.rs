//! The worker's side of the wire, against a scripted coordinator socket:
//! which lines it sends in which order, that a `Result` leaves together
//! with the next `Lease`, and what it does with each reply that can come
//! second in such a pair.

#![expect(clippy::unwrap_used, reason = "test-only shorthand")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_cluster::wire::{
    read_line, write_line, CampaignSpec, ChunkOutcomes, CoordMsg, LeaseGrant, ModelSpec, WorkerMsg,
    PROTOCOL_VERSION,
};
use snn_cluster::{run_worker, PreparedCampaign, WorkerConfig};
use snn_faults::progress::{CancelToken, NullSink};
use snn_faults::{ChunkRange, FaultSimConfig};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const CAMPAIGN: u64 = 1;
const CHUNK: usize = 5;

fn campaign_spec() -> CampaignSpec {
    let mut rng = StdRng::seed_from_u64(9);
    let stim = snn_tensor::init::bernoulli(&mut rng, snn_tensor::Shape::d2(12, 5), 0.4);
    let test = snn_testgen::GeneratedTest::from_chunks(vec![stim], 5, vec![false; 3]);
    let mut events = Vec::new();
    test.write_events(&mut events).unwrap();
    CampaignSpec {
        id: CAMPAIGN,
        model: ModelSpec::Synthetic { inputs: 5, hidden: vec![8], outputs: 3, seed: 21 },
        events: vec![String::from_utf8(events).unwrap()],
        sim: FaultSimConfig { threads: 1, ..FaultSimConfig::default() },
        faults: 3 * CHUNK,
        reliability: None,
    }
}

fn grant(index: usize) -> CoordMsg {
    let chunk = ChunkRange { index, start: index * CHUNK, len: CHUNK };
    CoordMsg::Granted(LeaseGrant {
        lease: 100 + index as u64,
        campaign: CAMPAIGN,
        chunk,
        epoch: 0,
        deadline_in_ms: 5000,
        trace: None,
    })
}

/// One end of the scripted coordinator's main connection.
struct Script {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Script {
    fn read(&mut self) -> WorkerMsg {
        read_line::<WorkerMsg>(&mut self.reader)
            .expect("the worker sends its next line (a read timeout means it is waiting instead)")
            .expect("the worker has not hung up")
            .expect("the line decodes")
    }

    fn reply(&mut self, msg: &CoordMsg) {
        write_line(&mut self.writer, msg).unwrap();
    }

    fn expect_lease(&mut self) {
        let msg = self.read();
        assert!(matches!(msg, WorkerMsg::Lease { .. }), "expected Lease, got {msg:?}");
    }

    /// Reads a `Result` **and** the `Lease` behind it before anything is
    /// answered: a worker that waited for its ack first would leave this
    /// blocked until the read timeout.
    fn expect_result_then_lease(&mut self, chunk: usize) -> ChunkOutcomes {
        let msg = self.read();
        let WorkerMsg::Result { lease, campaign, chunk: index, epoch, outcomes, spans, .. } = msg
        else {
            panic!("expected Result, got {msg:?}")
        };
        assert_eq!((lease, campaign, index, epoch), (100 + chunk as u64, CAMPAIGN, chunk, 0));
        assert_eq!(spans, None, "an untraced grant ships no spans");
        self.expect_lease();
        outcomes
    }
}

#[test]
fn the_worker_pairs_each_result_with_its_next_lease_request() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || {
        run_worker(&WorkerConfig { addr, name: "scripted".into(), threads: 1, trace: false })
    });

    // The worker's first connection is its main link, the second its
    // heartbeat link — acked until it closes.
    let (main, _) = listener.accept().unwrap();
    main.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut script = Script { reader: BufReader::new(main.try_clone().unwrap()), writer: main };
    let hello = script.read();
    assert_eq!(hello, WorkerMsg::Hello { name: "scripted".into(), protocol: PROTOCOL_VERSION });
    script.reply(&CoordMsg::Welcome {
        protocol: PROTOCOL_VERSION,
        lease_ms: 5000,
        heartbeat_ms: 25,
    });
    let (beats, _) = listener.accept().unwrap();
    let heartbeats = std::thread::spawn(move || {
        let mut reader = BufReader::new(beats.try_clone().unwrap());
        let mut writer = beats;
        while let Ok(Some(Ok(WorkerMsg::Heartbeat { .. }))) = read_line(&mut reader) {
            if write_line(&mut writer, &CoordMsg::HeartbeatAck { live: true }).is_err() {
                return;
            }
        }
    });

    // Idle in first position: the worker asks again at once.
    script.expect_lease();
    script.reply(&CoordMsg::Idle { retry_ms: 50 });
    script.expect_lease();
    script.reply(&grant(0));
    // Nothing is outstanding, so the payload is fetched now.
    let fetch = script.read();
    assert_eq!(fetch, WorkerMsg::Fetch { worker: "scripted".into(), campaign: CAMPAIGN });
    script.reply(&CoordMsg::Campaign(campaign_spec()));

    let mut got = Vec::new();
    got.push(script.expect_result_then_lease(0));
    script.reply(&CoordMsg::ResultAck { accepted: true });
    script.reply(&grant(1));
    // A stale ack, then Idle in second position: one more Lease.
    got.push(script.expect_result_then_lease(1));
    script.reply(&CoordMsg::ResultAck { accepted: false });
    script.reply(&CoordMsg::Idle { retry_ms: 50 });
    script.expect_lease();
    script.reply(&grant(2));
    // Shutdown in second position: the worker says goodbye.
    got.push(script.expect_result_then_lease(2));
    script.reply(&CoordMsg::ResultAck { accepted: true });
    script.reply(&CoordMsg::Shutdown);
    assert_eq!(script.read(), WorkerMsg::Bye { worker: "scripted".into() });

    let report = worker.join().unwrap().expect("a clean stop");
    heartbeats.join().unwrap();
    assert_eq!((report.chunks, report.faults, report.abandoned), (3, 3 * CHUNK as u64, 0));
    assert!(report.run_us > 0 && report.wire_us > 0, "{report:?}");

    // What travelled as columns is what a local run of the same ids says.
    let prepared = PreparedCampaign::new(&campaign_spec(), Some(1)).unwrap();
    for (index, columns) in got.into_iter().enumerate() {
        let ids = index * CHUNK..(index + 1) * CHUNK;
        let local = prepared.run_chunk(ids.clone(), &NullSink, &CancelToken::new()).unwrap();
        assert_eq!(columns.into_rows(ids), Some(local), "chunk {index}");
    }
}
