//! The worker runtime: connects to a coordinator, loops
//! lease → fetch → simulate → result, and heartbeats the held lease on
//! a second connection so a hung chunk is distinguishable from a hung
//! process.
//!
//! A chunk costs one blocking wait: its `Result` and the next `Lease`
//! leave in one write, and the coordinator — which answers a
//! connection's lines in order and parks a lease request until a chunk
//! is pending — replies with the ack and then the grant. The worker
//! never sleeps; it still holds at most one lease.
//!
//! A heartbeat answered with `live: false` means the lease expired and
//! the chunk has been (or will be) re-issued elsewhere: the worker
//! cancels the in-flight simulation and asks for fresh work instead of
//! finishing a result the coordinator would discard anyway.

use crate::campaign::PreparedCampaign;
use crate::lock_order::{mutex, Rank};
use crate::wire::{
    read_line, write_line, CampaignSpec, ChunkOutcomes, CoordMsg, WorkerMsg, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use snn_faults::progress::CancelToken;
use snn_faults::ChunkCampaignError;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Prepared campaigns a worker keeps around between leases.
const CAMPAIGN_CACHE: usize = 4;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, `host:port`.
    pub addr: String,
    /// Worker name reported to the coordinator (must be unique per
    /// coordinator; lease bookkeeping is keyed on it).
    pub name: String,
    /// Simulation threads per chunk (0 = one per core).
    pub threads: usize,
    /// Capture this worker's spans and ship them back with each chunk
    /// result of a traced campaign (`snn-mtfc worker --trace`).
    ///
    /// Installs a process-global trace collector for the duration of
    /// [`run_worker`], so it is meant for dedicated worker *processes* —
    /// enabling it on an in-process worker thread would hijack the host
    /// process's collector.
    pub trace: bool,
}

/// What a worker did before disconnecting, for CLI display.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Chunks simulated and submitted.
    pub chunks: u64,
    /// Faults simulated across those chunks.
    pub faults: u64,
    /// Chunks abandoned because the lease died mid-simulation.
    pub abandoned: u64,
    /// Microseconds materializing campaigns and simulating chunks.
    pub run_us: u64,
    /// Microseconds encoding and sending messages and blocked on replies
    /// that were due at once: result acks, grants, campaign payloads.
    pub wire_us: u64,
    /// Microseconds blocked on a lease request while the coordinator had
    /// nothing to hand out. With `run_us` and `wire_us` it adds up to
    /// the lease loop's wall-clock time.
    pub idle_us: u64,
}

/// Why a worker stopped.
#[derive(Debug)]
pub enum WorkerError {
    /// Connecting, reading or writing the coordinator link failed.
    Io(std::io::Error),
    /// The coordinator speaks a different protocol version.
    Protocol {
        /// Version the coordinator advertised.
        got: u64,
        /// Version this worker speaks.
        want: u64,
    },
    /// The coordinator sent a message this worker cannot decode, or an
    /// explicit error.
    Coordinator(String),
    /// A campaign could not be materialized or simulated locally.
    Campaign(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "coordinator link: {e}"),
            Self::Protocol { got, want } => {
                write!(f, "coordinator speaks protocol {got}, this worker speaks {want}")
            }
            Self::Coordinator(m) => write!(f, "coordinator: {m}"),
            Self::Campaign(m) => write!(f, "campaign: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Heartbeat-visible session state: which lease the main loop currently
/// holds, and the token the heartbeat thread trips when that lease dies.
struct Session(Mutex<SessionState>);

#[derive(Default)]
struct SessionState {
    current: Option<(u64, CancelToken)>,
    stop: bool,
}

impl Session {
    fn new() -> Self {
        Self(mutex(Rank::WorkerSession, SessionState::default()))
    }

    /// Sets (or, with `None`, clears) the lease the main loop holds.
    #[expect(clippy::disallowed_methods, reason = "sets one field")]
    fn hold(&self, current: Option<(u64, CancelToken)>) {
        self.0.lock().current = current;
    }

    /// Tells the heartbeat thread to exit.
    #[expect(clippy::disallowed_methods, reason = "sets one flag")]
    fn stop(&self) {
        self.0.lock().stop = true;
    }

    /// The lease to beat, or `Err` once the session is stopping.
    #[expect(clippy::disallowed_methods, reason = "clones the held lease out")]
    fn current(&self) -> Result<Option<(u64, CancelToken)>, ()> {
        let state = self.0.lock();
        if state.stop {
            Err(())
        } else {
            Ok(state.current.clone())
        }
    }
}

struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Link {
    fn connect(addr: &str) -> Result<Self, WorkerError> {
        let stream = TcpStream::connect(addr)?;
        // Every message is written whole and answered before more is
        // sent; Nagle's algorithm could only delay it.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: stream })
    }

    fn send(&mut self, msg: &WorkerMsg) -> Result<(), WorkerError> {
        write_line(&mut self.writer, msg).map_err(WorkerError::Io)
    }

    /// Sends two messages in one write; their replies come back in the
    /// same order.
    fn send_pair(&mut self, first: &WorkerMsg, second: &WorkerMsg) -> Result<(), WorkerError> {
        let mut lines = Vec::new();
        write_line(&mut lines, first)?;
        write_line(&mut lines, second)?;
        self.writer.write_all(&lines).map_err(WorkerError::Io)
    }

    fn recv(&mut self) -> Result<Option<CoordMsg>, WorkerError> {
        match read_line::<CoordMsg>(&mut self.reader)? {
            None => Ok(None),
            Some(Ok(msg)) => Ok(Some(msg)),
            Some(Err(e)) => Err(WorkerError::Coordinator(e)),
        }
    }
}

/// Runs a worker until the coordinator shuts down or the link drops.
///
/// # Errors
///
/// [`WorkerError`] on connection failure, protocol mismatch, undecodable
/// traffic or a campaign that cannot be materialized. A coordinator that
/// closes the link (or answers `Shutdown`) is a clean stop, not an error.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerReport, WorkerError> {
    let mut link = Link::connect(&cfg.addr)?;
    link.send(&WorkerMsg::Hello { name: cfg.name.clone(), protocol: PROTOCOL_VERSION })?;
    let (lease_ms, heartbeat_ms) = match link.recv()? {
        Some(CoordMsg::Welcome { protocol, lease_ms, heartbeat_ms }) => {
            if protocol != PROTOCOL_VERSION {
                return Err(WorkerError::Protocol { got: protocol, want: PROTOCOL_VERSION });
            }
            (lease_ms, heartbeat_ms)
        }
        Some(CoordMsg::Error { message }) => return Err(WorkerError::Coordinator(message)),
        Some(other) => {
            return Err(WorkerError::Coordinator(format!("expected welcome, got {other:?}")))
        }
        None => return Ok(WorkerReport::default()),
    };
    let _ = lease_ms;

    // A traced worker collects its own spans and ships them back with
    // each chunk result; the previous global collector (if any) is
    // restored on exit.
    let collector = cfg.trace.then(|| {
        let collector = Arc::new(snn_obs::Collector::new());
        let prev = snn_obs::trace::install(Arc::clone(&collector));
        (collector, prev)
    });

    let session = Arc::new(Session::new());
    let heartbeat = spawn_heartbeat(&cfg.addr, cfg.name.clone(), heartbeat_ms, &session);

    let result = lease_loop(cfg, &mut link, &session, collector.as_ref().map(|(c, _)| c));

    session.stop();
    let _ = link.send(&WorkerMsg::Bye { worker: cfg.name.clone() });
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }
    if let Some((_, prev)) = collector {
        match prev {
            Some(prev) => drop(snn_obs::trace::install(prev)),
            None => drop(snn_obs::trace::uninstall()),
        }
    }
    result
}

/// The heartbeat thread: on its own connection, beats the currently held
/// lease every `heartbeat_ms` and cancels the chunk when the coordinator
/// reports the lease dead. Heartbeat link failures are tolerated — the
/// main loop still makes progress, it just loses hang protection.
fn spawn_heartbeat(
    addr: &str,
    worker: String,
    heartbeat_ms: u64,
    session: &Arc<Session>,
) -> Option<std::thread::JoinHandle<()>> {
    let mut link = Link::connect(addr).ok()?;
    let session = Arc::clone(session);
    let period = Duration::from_millis(heartbeat_ms.max(10));
    let builder = std::thread::Builder::new().name("cluster-heartbeat".into());
    builder
        .spawn(move || loop {
            std::thread::sleep(period);
            let Ok(held) = session.current() else { return };
            let Some((lease, cancel)) = held else { continue };
            if link.send(&WorkerMsg::Heartbeat { worker: worker.clone(), lease }).is_err() {
                return;
            }
            match link.recv() {
                Ok(Some(CoordMsg::HeartbeatAck { live: false })) => cancel.cancel(),
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => return,
            }
        })
        .ok()
}

/// Microseconds since `mark`, which moves to now: consecutive laps
/// partition the lease loop's wall-clock time.
fn lap(mark: &mut Duration) -> u64 {
    let now = snn_obs::clock::monotonic();
    let us = u64::try_from(now.saturating_sub(*mark).as_micros()).unwrap_or(u64::MAX);
    *mark = now;
    us
}

fn lease_loop(
    cfg: &WorkerConfig,
    link: &mut Link,
    session: &Arc<Session>,
    collector: Option<&Arc<snn_obs::Collector>>,
) -> Result<WorkerReport, WorkerError> {
    let mut report = WorkerReport::default();
    let mut campaigns: BTreeMap<u64, PreparedCampaign> = BTreeMap::new();
    let lease = WorkerMsg::Lease { worker: cfg.name.clone() };
    let mut mark = snn_obs::clock::monotonic();
    // Exactly one lease request is outstanding at the top of the loop.
    // `reasked` marks one sent because the coordinator had nothing: the
    // wait for its answer is idle time whatever the answer is.
    link.send(&lease)?;
    let mut reasked = false;
    loop {
        let reply = link.recv()?;
        let waited = lap(&mut mark);
        if reasked || matches!(reply, Some(CoordMsg::Idle { .. })) {
            report.idle_us += waited;
        } else {
            report.wire_us += waited;
        }
        let grant = match reply {
            Some(CoordMsg::Granted(grant)) => grant,
            Some(CoordMsg::Idle { .. }) => {
                // The request already waited out the coordinator's
                // long-poll bound; ask again at once.
                link.send(&lease)?;
                reasked = true;
                continue;
            }
            Some(CoordMsg::Shutdown) | None => return Ok(report),
            Some(CoordMsg::Error { message }) => return Err(WorkerError::Coordinator(message)),
            Some(other) => {
                return Err(WorkerError::Coordinator(format!(
                    "expected a lease reply, got {other:?}"
                )))
            }
        };
        reasked = false;

        // The grant answered the last outstanding request, so the link
        // is free for a fetch.
        if !campaigns.contains_key(&grant.campaign) {
            if campaigns.len() >= CAMPAIGN_CACHE {
                campaigns.clear();
            }
            let spec = fetch_campaign(cfg, link, grant.campaign)?;
            report.wire_us += lap(&mut mark);
            let prepared =
                PreparedCampaign::new(&spec, Some(cfg.threads)).map_err(WorkerError::Campaign)?;
            campaigns.insert(grant.campaign, prepared);
        }
        #[expect(clippy::expect_used, reason = "inserted above when absent")]
        let prepared = campaigns.get(&grant.campaign).expect("cached above");

        let cancel = CancelToken::new();
        session.hold(Some((grant.lease, cancel.clone())));
        let mut span = snn_obs::span!("cluster.chunk");
        span.attr("lease", grant.lease);
        span.attr("chunk", grant.chunk.index);
        let outcome = prepared.run_chunk(grant.chunk.range(), &cancel);
        drop(span);
        session.hold(None);
        // Drain even when the grant is untraced or the chunk was
        // abandoned: the collector must not grow without bound.
        let drained = collector.map(|c| c.drain());
        let spans = if grant.trace.is_some() { drained } else { None };
        report.run_us += lap(&mut mark);

        match outcome {
            Ok(outcomes) => {
                report.chunks += 1;
                report.faults += outcomes.len() as u64;
                let result = WorkerMsg::Result {
                    worker: cfg.name.clone(),
                    lease: grant.lease,
                    campaign: grant.campaign,
                    chunk: grant.chunk.index,
                    epoch: grant.epoch,
                    outcomes: ChunkOutcomes::from_rows(outcomes),
                    spans,
                };
                link.send_pair(&result, &lease)?;
                match link.recv()? {
                    // Accepted or stale, the next lease is already asked
                    // for.
                    Some(CoordMsg::ResultAck { .. }) => {}
                    Some(CoordMsg::Error { message }) => {
                        return Err(WorkerError::Coordinator(message))
                    }
                    Some(other) => {
                        return Err(WorkerError::Coordinator(format!(
                            "expected result ack, got {other:?}"
                        )))
                    }
                    None => return Ok(report),
                }
                report.wire_us += lap(&mut mark);
            }
            Err(ChunkCampaignError::Campaign(snn_faults::CampaignError::Cancelled)) => {
                // Lease died mid-chunk; the coordinator re-issued it.
                // Drop the partial work and ask for more.
                report.abandoned += 1;
                link.send(&lease)?;
            }
            Err(e) => return Err(WorkerError::Campaign(e.to_string())),
        }
    }
}

fn fetch_campaign(
    cfg: &WorkerConfig,
    link: &mut Link,
    campaign: u64,
) -> Result<CampaignSpec, WorkerError> {
    link.send(&WorkerMsg::Fetch { worker: cfg.name.clone(), campaign })?;
    match link.recv()? {
        Some(CoordMsg::Campaign(spec)) => Ok(spec),
        Some(CoordMsg::Error { message }) => Err(WorkerError::Coordinator(message)),
        Some(other) => {
            Err(WorkerError::Coordinator(format!("expected campaign payload, got {other:?}")))
        }
        None => Err(WorkerError::Coordinator("link closed during campaign fetch".into())),
    }
}
