//! The job server: TCP accept loop, bounded job queue, worker pool,
//! cluster coordinator and graceful shutdown.
//!
//! One listener serves two populations: job clients speaking
//! [`Request`]/[`Response`] and cluster workers speaking
//! `snn_cluster::wire::WorkerMsg`/`CoordMsg`. Each incoming line is
//! parsed once and the value tried as a client request first and a
//! worker message second (the variant names are disjoint). With
//! `expect_workers > 0`, coverage
//! campaigns are sharded onto the worker pool through the
//! [`Coordinator`]; with the default `0`, the in-process path runs
//! unchanged — and both produce bit-identical verdicts and digests.

use crate::bus::EventBus;
use crate::protocol::{
    write_line, JobEventPayload, JobRecord, JobResult, JobSpec, JobState, JobTimings, ModelSpec,
    Request, Response, PROTOCOL_VERSION,
};
use crate::store::{now_ms, JobStore};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize as _;
use snn_cluster::build_model;
use snn_cluster::coordinator::{ClusterError, Coordinator, CoordinatorConfig, Grant};
use snn_cluster::lock_order::{mutex, Rank};
use snn_cluster::wire::{CampaignSpec, CoordMsg, TraceContext, WorkerMsg};
use snn_faults::progress::{CancelToken, Progress, ProgressSink};
use snn_faults::{verdict_digest_hex, FaultOutcome, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_model::Network;
use snn_testgen::{TestGenConfig, TestGenerator};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often a running job's progress snapshot is appended to its job file
/// (every event still updates memory and the event bus).
const PROGRESS_PERSIST_EVERY: Duration = Duration::from_millis(500);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address, e.g. `"127.0.0.1:7077"` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads executing jobs (0 = all cores).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submits are refused.
    pub queue_capacity: usize,
    /// Directory holding the persistent job store.
    pub state_dir: PathBuf,
    /// Cluster workers coverage campaigns wait for before sharding onto
    /// the pool. `0` (the default) keeps campaigns in-process.
    pub expect_workers: usize,
    /// Faults per distributed chunk.
    pub chunk_size: usize,
    /// Chunk lease lifetime in milliseconds; an unheartbeated lease is
    /// re-issued after this long.
    pub lease_ms: u64,
}

impl ServiceConfig {
    /// A loopback server on an OS-assigned port over `state_dir` — the
    /// defaults used by tests and `snn-mtfc serve`.
    pub fn loopback(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            state_dir: state_dir.into(),
            expect_workers: 0,
            chunk_size: 256,
            lease_ms: 5000,
        }
    }
}

/// Shared server state: store, event bus, queue and worker bookkeeping.
struct Inner {
    store: JobStore,
    bus: EventBus,
    queue: JobQueue,
    running: RunningJobs,
    /// The chunk scheduler for distributed coverage campaigns. Always
    /// present; it simply idles when no workers connect.
    coordinator: Coordinator,
    /// Workers a coverage campaign waits for before sharding; `0` keeps
    /// campaigns in-process.
    expect_workers: usize,
    shutdown: AtomicBool,
    /// The bound listen address — shutdown connects back to it once to
    /// wake the blocking accept loop.
    local_addr: SocketAddr,
}

/// The bounded queue of job ids waiting for a worker.
struct JobQueue {
    ids: Mutex<VecDeque<u64>>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(recovered: VecDeque<u64>, capacity: usize) -> Self {
        Self {
            ids: mutex(Rank::Queue, recovered),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The single registration site for the queue-depth gauge; every
    /// depth publication funnels through here.
    fn publish_depth(depth: usize) {
        snn_obs::gauge!("snn_service_queue_depth", "Jobs queued but not yet running.")
            .set(depth as f64);
    }

    #[expect(clippy::disallowed_methods, reason = "reads the queue length")]
    fn len(&self) -> usize {
        self.ids.lock().len()
    }

    /// The queue length when it is full.
    fn full(&self) -> Option<usize> {
        let len = self.len();
        (len >= self.capacity).then_some(len)
    }

    #[expect(clippy::disallowed_methods, reason = "appends one id and wakes one worker")]
    fn push(&self, id: u64) {
        self.ids.lock().push_back(id);
        self.ready.notify_one();
    }

    /// Blocks until a job is available or `shutdown` is set.
    #[expect(clippy::disallowed_methods, reason = "pops an id, parking on the queue's condvar")]
    fn pop(&self, shutdown: &AtomicBool) -> Option<u64> {
        let mut ids = self.ids.lock();
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = ids.pop_front() {
                Self::publish_depth(ids.len());
                return Some(id);
            }
            self.ready.wait_for(&mut ids, Duration::from_millis(100));
        }
    }

    /// Takes `id` out of the queue; `true` if it was queued.
    #[expect(clippy::disallowed_methods, reason = "filters the queue in memory")]
    fn remove(&self, id: u64) -> bool {
        let mut ids = self.ids.lock();
        let before = ids.len();
        ids.retain(|&q| q != id);
        ids.len() < before
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Cancellation tokens of currently running jobs. Tokens are cloned out
/// before they are tripped, so a cancellation never runs under the lock.
struct RunningJobs(Mutex<HashMap<u64, CancelToken>>);

impl RunningJobs {
    #[expect(clippy::disallowed_methods, reason = "one map insert")]
    fn insert(&self, id: u64, token: CancelToken) {
        self.0.lock().insert(id, token);
    }

    #[expect(clippy::disallowed_methods, reason = "one map remove")]
    fn remove(&self, id: u64) {
        self.0.lock().remove(&id);
    }

    #[expect(clippy::disallowed_methods, reason = "clones one token out")]
    fn token(&self, id: u64) -> Option<CancelToken> {
        self.0.lock().get(&id).cloned()
    }

    #[expect(clippy::disallowed_methods, reason = "clones every token out")]
    fn tokens(&self) -> Vec<CancelToken> {
        self.0.lock().values().cloned().collect()
    }
}

impl Inner {
    /// Moves a job through a state change: persists, then broadcasts.
    fn transition(&self, id: u64, f: impl FnOnce(&mut JobRecord)) -> Option<JobRecord> {
        let updated = self.store.update(id, f)?;
        // Metrics are updated before the broadcast so a client reacting to
        // the terminal event already sees this job in a Metrics snapshot.
        if updated.state.is_terminal() {
            if let Some(finished) = updated.finished_at_ms {
                let wall_ms = finished.saturating_sub(updated.submitted_at_ms);
                snn_obs::histogram!(
                    "snn_service_job_wall_seconds",
                    "Submit-to-terminal wall-clock time of finished jobs.",
                    snn_obs::metrics::DURATION_BUCKETS
                )
                .observe(wall_ms as f64 / 1000.0);
            }
        }
        self.refresh_gauges();
        self.bus.publish(JobEventPayload::State {
            job: id,
            state: updated.state,
            error: updated.error.clone(),
        });
        Some(updated)
    }

    /// Publishes the queue depth and per-state job counts as gauges.
    fn refresh_gauges(&self) {
        JobQueue::publish_depth(self.queue.len());
        let (mut queued, mut running, mut done, mut failed, mut cancelled) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for record in self.store.list() {
            match record.state {
                JobState::Queued => queued += 1,
                JobState::Running => running += 1,
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                JobState::Cancelled => cancelled += 1,
            }
        }
        snn_obs::gauge!("snn_service_jobs_queued", "Jobs in the Queued state.").set(queued as f64);
        snn_obs::gauge!("snn_service_jobs_running", "Jobs in the Running state.")
            .set(running as f64);
        snn_obs::gauge!("snn_service_jobs_done", "Jobs in the Done state.").set(done as f64);
        snn_obs::gauge!("snn_service_jobs_failed", "Jobs in the Failed state.").set(failed as f64);
        snn_obs::gauge!("snn_service_jobs_cancelled", "Jobs in the Cancelled state.")
            .set(cancelled as f64);
    }

    /// Accepts a job into the store and queue, or explains why not.
    fn submit(&self, spec: JobSpec) -> Result<JobRecord, String> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err("server is shutting down".into());
        }
        validate_spec(&spec)?;
        // Capacity is checked under its own short guard: `store.submit`
        // persists the record (a disk write) and must not run under
        // `service.queue`. Concurrent submits racing past the check can
        // overshoot `queue_capacity` by at most the number of racers —
        // the bound is backpressure, not an invariant.
        if let Some(waiting) = self.queue.full() {
            return Err(format!("queue full ({waiting} jobs waiting)"));
        }
        let record = self.store.submit(spec);
        self.queue.push(record.id);
        self.refresh_gauges();
        Ok(record)
    }

    /// Handles a cancel request for a queued, running or finished job.
    fn cancel(&self, id: u64) -> Response {
        let Some(record) = self.store.get(id) else {
            return Response::Error { message: format!("no such job: {id}") };
        };
        if record.state.is_terminal() {
            return Response::Error { message: format!("job {id} already {}", record.state) };
        }
        // Still queued: pull it out of the queue and finish it directly.
        if self.queue.remove(id) {
            self.transition(id, |r| {
                r.state = JobState::Cancelled;
                r.error = Some("cancelled while queued".into());
                r.finished_at_ms = Some(now_ms());
            });
            return Response::CancelRequested { job: id };
        }
        // Running: trip the token; the worker finishes the transition.
        if let Some(token) = self.running.token(id) {
            token.cancel();
        }
        Response::CancelRequested { job: id }
    }

    /// Begins shutdown: refuses new submits, cancels running jobs (queued
    /// ones stay queued so a restart resumes them) and wakes the workers
    /// and the accept loop.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for token in self.running.tokens() {
            token.cancel();
        }
        self.coordinator.shutdown();
        self.queue.wake_all();
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
    }
}

/// Streams a running job's progress into the store and event bus,
/// persisting to disk at most every [`PROGRESS_PERSIST_EVERY`].
struct ServiceSink {
    inner: Arc<Inner>,
    job: u64,
    /// When the record was last persisted (on the observability clock),
    /// and the highest campaign tally forwarded so far (a job runs one
    /// campaign).
    forwarded: Mutex<(Duration, usize)>,
}

impl ServiceSink {
    fn new(inner: Arc<Inner>, job: u64) -> Self {
        Self { inner, job, forwarded: mutex(Rank::Sink, (snn_obs::clock::monotonic(), 0)) }
    }

    /// Forwards `progress` to the in-memory record and the bus unless it
    /// is a stale tally; `true` when the record is due to be persisted.
    ///
    /// Campaign threads take their tally and then emit it, so two
    /// emissions can arrive crossed — and the later tally's thread can
    /// overtake the earlier one's again while that one waits for a
    /// lock. The stale-tally check and both in-memory forwards are
    /// therefore one critical section: the workspace's one nesting,
    /// sink → store → bus.
    #[expect(clippy::disallowed_methods, reason = "orders the in-memory forwards of one job")]
    fn forward(&self, progress: Progress) -> bool {
        let mut forwarded = self.forwarded.lock();
        if let Progress::FaultsSimulated { done, .. } = progress {
            if done <= forwarded.1 {
                return false;
            }
            forwarded.1 = done;
        }
        self.inner.store.update_progress_in_memory(self.job, progress.clone());
        self.inner.bus.publish(JobEventPayload::Progress { job: self.job, progress });
        let now = snn_obs::clock::monotonic();
        let due = now.saturating_sub(forwarded.0) >= PROGRESS_PERSIST_EVERY;
        if due {
            forwarded.0 = now;
        }
        due
    }
}

impl ProgressSink for ServiceSink {
    fn emit(&self, progress: Progress) {
        // Only the persisting `store.update` (a disk write) runs outside
        // `forward`'s critical section.
        if self.forward(progress) {
            // The record already holds the newest progress; a tally
            // captured above could be stale by now.
            self.inner.store.update(self.job, |_| {});
        }
    }
}

/// A bound, not-yet-running job server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    workers: usize,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listen socket and opens (or recovers) the job store.
    /// Jobs found `Queued` on disk are re-enqueued immediately.
    pub fn bind(config: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = JobStore::open(&config.state_dir)?;
        let recovered: VecDeque<u64> = store.recovered_queued().iter().copied().collect();
        let lease_ms = config.lease_ms.max(100);
        let coordinator = Coordinator::new(CoordinatorConfig {
            chunk_size: config.chunk_size,
            lease_ms,
            heartbeat_ms: (lease_ms / 4).clamp(25, 1000),
            idle_retry_ms: 50,
        });
        let inner = Arc::new(Inner {
            store,
            bus: EventBus::new(),
            queue: JobQueue::new(recovered, config.queue_capacity),
            running: RunningJobs(mutex(Rank::Running, HashMap::new())),
            coordinator,
            expect_workers: config.expect_workers,
            shutdown: AtomicBool::new(false),
            local_addr,
        });
        let workers = snn_faults::parallel::effective_threads(config.workers);
        Ok(Self { listener, local_addr, workers, inner })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the accept loop and worker pool until a `Shutdown` request
    /// arrives; returns once every worker has drained and state is
    /// persisted.
    pub fn run(self) -> io::Result<()> {
        let mut worker_handles = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let inner = Arc::clone(&self.inner);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("snn-worker-{w}"))
                    .spawn(move || worker_loop(inner))?,
            );
        }

        let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A thread that has ended keeps its stack until it is
                    // joined: join the connections that are over, so the
                    // server holds the live ones' only.
                    let (over, live): (Vec<_>, Vec<_>) =
                        conn_handles.into_iter().partition(|h| h.is_finished());
                    conn_handles = live;
                    for h in over {
                        let _ = h.join();
                    }
                    let inner = Arc::clone(&self.inner);
                    conn_handles.push(std::thread::spawn(move || {
                        let _ = handle_connection(inner, stream);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(_) => continue,
            }
        }

        for h in conn_handles {
            let _ = h.join();
        }
        for h in worker_handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Rejects obviously unusable specs before they enter the queue.
fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    preset_config(spec)?;
    if let Some(r) = &spec.reliability {
        // Model-dependent checks (region bounds etc.) run at execution
        // time via `ReliabilitySpec::validate`; these shape checks don't
        // need the network.
        if r.map.configs == 0 {
            return Err("reliability campaign needs at least one fault configuration".into());
        }
        if r.eval.samples == 0 || r.eval.steps == 0 {
            return Err("reliability evaluation set needs samples and steps".into());
        }
    }
    match &spec.model {
        ModelSpec::Path(p) if p.is_empty() => Err("model path is empty".into()),
        ModelSpec::Synthetic { inputs, outputs, hidden, .. } => {
            if *inputs == 0 || *outputs == 0 || hidden.contains(&0) {
                Err("synthetic model layers must be non-empty".into())
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

/// Resolves the spec's preset name plus overrides into a generator config.
fn preset_config(spec: &JobSpec) -> Result<TestGenConfig, String> {
    let mut cfg = TestGenConfig::preset(&spec.preset)?;
    if let Some(iters) = spec.max_iterations {
        cfg.max_iterations = iters;
    }
    if let Some(secs) = spec.t_limit_secs {
        cfg.t_limit = Duration::from_secs(secs);
    }
    Ok(cfg)
}

/// How one job execution ended.
enum JobOutcome {
    Done(Box<JobResult>),
    Cancelled(String),
    Failed(String),
}

/// Takes jobs off the queue until shutdown.
fn worker_loop(inner: Arc<Inner>) {
    while let Some(id) = inner.queue.pop(&inner.shutdown) {
        // The record may have been cancelled while queued by a racing
        // cancel; re-check before running.
        match inner.store.get(id) {
            Some(r) if r.state == JobState::Queued => {}
            _ => continue,
        }
        run_job(&inner, id);
    }
}

/// Executes one job end to end, including its lifecycle transitions.
fn run_job(inner: &Arc<Inner>, id: u64) {
    let token = CancelToken::new();
    inner.running.insert(id, token.clone());
    let record = inner.transition(id, |r| {
        r.state = JobState::Running;
        r.started_at_ms = Some(now_ms());
    });
    let Some(record) = record else {
        inner.running.remove(id);
        return;
    };

    let queue_wait_ms = record
        .started_at_ms
        .unwrap_or(record.submitted_at_ms)
        .saturating_sub(record.submitted_at_ms);
    let sink = ServiceSink::new(Arc::clone(inner), id);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(inner, &record.spec, id, queue_wait_ms, &sink, &token)
    }))
    .unwrap_or_else(|panic| JobOutcome::Failed(format!("job panicked: {}", panic_msg(&panic))));

    inner.running.remove(id);
    inner.transition(id, |r| {
        r.finished_at_ms = Some(now_ms());
        match outcome {
            JobOutcome::Done(result) => {
                r.state = JobState::Done;
                r.result = Some(*result);
            }
            JobOutcome::Cancelled(why) => {
                r.state = JobState::Cancelled;
                r.error = Some(why);
            }
            JobOutcome::Failed(why) => {
                r.state = JobState::Failed;
                r.error = Some(why);
            }
        }
    });
}

fn panic_msg(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Milliseconds elapsed since `start` on the observability clock.
fn ms_since(start: Duration) -> u64 {
    u64::try_from(snn_obs::clock::monotonic().saturating_sub(start).as_millis()).unwrap_or(u64::MAX)
}

/// The job body: build the model, generate the test, optionally measure
/// fault coverage, and persist the stimulus file.
fn execute(
    inner: &Arc<Inner>,
    spec: &JobSpec,
    id: u64,
    queue_wait_ms: u64,
    sink: &ServiceSink,
    token: &CancelToken,
) -> JobOutcome {
    let cancelled_why = |inner: &Inner| {
        if inner.shutdown.load(Ordering::SeqCst) {
            "cancelled by server shutdown".to_string()
        } else {
            "cancelled by request".to_string()
        }
    };

    let cfg = match preset_config(spec) {
        Ok(cfg) => cfg,
        Err(e) => return JobOutcome::Failed(e),
    };
    let net = match build_model(&spec.model) {
        Ok(net) => net,
        Err(e) => return JobOutcome::Failed(e),
    };

    // Reliability jobs replace the generate-then-cover pipeline entirely:
    // the spec's fault map is scored for accuracy impact instead.
    if let Some(rspec) = &spec.reliability {
        return execute_reliability(inner, spec, rspec, &net, queue_wait_ms, sink, token);
    }

    // The stimulus is `snn-mtfc generate`'s for the same model, preset
    // and seed.
    let started = snn_obs::clock::monotonic();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let generation_started = snn_obs::clock::monotonic();
    let test = match TestGenerator::new(&net, cfg).generate_with(&mut rng, sink, token) {
        Ok(test) => test,
        Err(_) => return JobOutcome::Cancelled(cancelled_why(inner)),
    };
    let generation_ms = ms_since(generation_started);

    // Persist the stimulus in the event format the CLI understands.
    let events_path = inner.store.result_path(id, "events");
    let events_path =
        match std::fs::File::create(&events_path).and_then(|mut f| test.write_events(&mut f)) {
            Ok(()) => Some(events_path.display().to_string()),
            Err(_) => None,
        };

    let mut result = JobResult {
        chunks: test.chunks.len(),
        test_steps: test.test_steps(),
        activated: test.activated_count(),
        total_neurons: test.activated.len(),
        activation_coverage: test.activated_fraction(),
        runtime_ms: ms_since(started),
        faults_total: None,
        faults_detected: None,
        fault_coverage: None,
        events_path,
        timings: Some(JobTimings { queue_wait_ms, analyze_ms: 0, generation_ms, fault_sim_ms: 0 }),
        verdict_digest: None,
        reliability: None,
        engine: None,
    };

    if spec.evaluate_coverage && !test.chunks.is_empty() {
        let universe_started = snn_obs::clock::monotonic();
        let universe = FaultUniverse::standard(&net);
        let analyze_ms = ms_since(universe_started);
        let fault_sim_started = snn_obs::clock::monotonic();
        let sim_cfg = FaultSimConfig {
            threads: spec.threads,
            engine: spec.engine,
            ..FaultSimConfig::default()
        };
        // One campaign over the whole universe, in-process or sharded:
        // the verdicts — and the digest — are what `snn-mtfc verify`
        // computes for the same model and events.
        let per_fault = if inner.expect_workers > 0 {
            match distributed_coverage(inner, spec, universe.len(), &test, sim_cfg, sink, token) {
                Ok(per_fault) => per_fault,
                Err(outcome) => return outcome,
            }
        } else {
            let assembled = test.assembled();
            let campaign = FaultSimulator::new(&net, sim_cfg).detect_with(
                &universe,
                universe.faults(),
                std::slice::from_ref(&assembled),
                sink,
                token,
            );
            match campaign {
                Ok(outcome) => outcome.per_fault,
                Err(snn_faults::CampaignError::Cancelled) => {
                    return JobOutcome::Cancelled(cancelled_why(inner));
                }
                Err(e) => return JobOutcome::Failed(e.to_string()),
            }
        };
        // Workers resolve `Auto` against a bit-identical rebuild of the
        // model, so the local resolution also names the distributed
        // engine.
        result.engine = Some(snn_faults::resolve_engine(&net, spec.engine).name().to_string());
        let total = universe.len();
        let detected = per_fault.iter().filter(|o| o.detected).count();
        result.faults_total = Some(total);
        result.faults_detected = Some(detected);
        result.fault_coverage = Some(if total == 0 { 1.0 } else { detected as f64 / total as f64 });
        result.verdict_digest = Some(verdict_digest_hex(&per_fault));
        result.runtime_ms = ms_since(started);
        if let Some(timings) = result.timings.as_mut() {
            // A distributed campaign on a small universe can finish inside
            // a millisecond; `0` is reserved for "no campaign ran".
            timings.fault_sim_ms = ms_since(fault_sim_started).max(1);
            timings.analyze_ms = analyze_ms;
        }
    }

    JobOutcome::Done(Box::new(result))
}

/// The reliability-job body: score every fault-map configuration for
/// accuracy impact — in-process, or sharded over the worker pool exactly
/// like coverage campaigns (leased ranges are configuration indices;
/// workers re-sample configurations from the spec, so the merged
/// outcomes and digest are bit-identical to the local path).
fn execute_reliability(
    inner: &Arc<Inner>,
    spec: &JobSpec,
    rspec: &snn_reliability::ReliabilitySpec,
    net: &Network,
    queue_wait_ms: u64,
    sink: &ServiceSink,
    token: &CancelToken,
) -> JobOutcome {
    let cancelled_why = |inner: &Inner| {
        if inner.shutdown.load(Ordering::SeqCst) {
            "cancelled by server shutdown".to_string()
        } else {
            "cancelled by request".to_string()
        }
    };

    let started = snn_obs::clock::monotonic();
    let outcomes = if inner.expect_workers > 0 {
        if let Err(e) =
            inner.coordinator.wait_for_workers(inner.expect_workers, token, Duration::from_secs(60))
        {
            return cluster_outcome(inner, e);
        }
        let payload = CampaignSpec {
            id: 0,
            model: spec.model.clone(),
            events: Vec::new(),
            sim: FaultSimConfig { threads: spec.threads, ..FaultSimConfig::default() },
            faults: rspec.map.configs,
            reliability: Some(rspec.clone()),
        };
        match run_distributed(inner, payload, sink, token) {
            Ok(outcomes) => outcomes,
            Err(outcome) => return outcome,
        }
    } else {
        let evaluator = match snn_reliability::ReliabilityEvaluator::new(net.clone(), rspec.clone())
        {
            Ok(evaluator) => evaluator,
            Err(e) => return JobOutcome::Failed(e),
        };
        match evaluator.evaluate_chunk(0..rspec.map.configs, spec.threads, token) {
            Ok(outcomes) => outcomes,
            Err(_) => return JobOutcome::Cancelled(cancelled_why(inner)),
        }
    };

    let report = match snn_reliability::ReliabilityReport::build(net, rspec, &outcomes) {
        Ok(report) => report,
        Err(e) => return JobOutcome::Failed(format!("reliability report: {e}")),
    };
    let impactful = outcomes.iter().filter(|o| o.detected).count();
    let fault_sim_ms = ms_since(started).max(1);

    JobOutcome::Done(Box::new(JobResult {
        chunks: 0,
        test_steps: rspec.eval.steps,
        activated: 0,
        total_neurons: 0,
        activation_coverage: 0.0,
        runtime_ms: ms_since(started),
        faults_total: Some(rspec.map.configs),
        faults_detected: Some(impactful),
        fault_coverage: None,
        events_path: None,
        timings: Some(JobTimings { queue_wait_ms, analyze_ms: 0, generation_ms: 0, fault_sim_ms }),
        verdict_digest: Some(report.digest.clone()),
        reliability: Some(report),
        engine: None,
    }))
}

/// Maps a cluster failure to the job outcome it should produce.
fn cluster_outcome(inner: &Inner, e: ClusterError) -> JobOutcome {
    match e {
        ClusterError::Cancelled | ClusterError::Shutdown => {
            if inner.shutdown.load(Ordering::SeqCst) {
                JobOutcome::Cancelled("cancelled by server shutdown".into())
            } else {
                JobOutcome::Cancelled("cancelled by request".into())
            }
        }
        other => JobOutcome::Failed(format!("distributed campaign: {other}")),
    }
}

/// Runs the coverage campaign on the worker pool: the universe's
/// `faults` ids are sharded into leased chunks and merged exactly —
/// bit-identical to the in-process path.
fn distributed_coverage(
    inner: &Inner,
    spec: &JobSpec,
    faults: usize,
    test: &snn_testgen::GeneratedTest,
    sim_cfg: FaultSimConfig,
    sink: &ServiceSink,
    token: &CancelToken,
) -> Result<Vec<FaultOutcome>, JobOutcome> {
    inner
        .coordinator
        .wait_for_workers(inner.expect_workers, token, Duration::from_secs(60))
        .map_err(|e| cluster_outcome(inner, e))?;

    // The events text format is an exact transport for spike tensors, so
    // workers re-parse to the very tensor `test.assembled()` yields here.
    let mut events = Vec::new();
    if let Err(e) = test.write_events(&mut events) {
        return Err(JobOutcome::Failed(format!("cannot encode stimulus: {e}")));
    }
    let events = match String::from_utf8(events) {
        Ok(text) => text,
        Err(e) => return Err(JobOutcome::Failed(format!("cannot encode stimulus: {e}"))),
    };
    let payload = CampaignSpec {
        id: 0,
        model: spec.model.clone(),
        events: vec![events],
        sim: sim_cfg,
        faults,
        reliability: None,
    };
    run_distributed(inner, payload, sink, token)
}

/// Submits one distributed campaign and waits for its merged outcomes,
/// relaying chunk completions as job progress.
fn run_distributed(
    inner: &Inner,
    payload: CampaignSpec,
    sink: &ServiceSink,
    token: &CancelToken,
) -> Result<Vec<FaultOutcome>, JobOutcome> {
    // The campaign span roots the merged trace: its id travels to the
    // workers inside every lease grant, and their shipped chunk spans
    // come back parented (via per-worker wrappers) under it.
    let mut span = snn_obs::span!("cluster.campaign");
    span.attr("faults", payload.faults);
    // The trace has no identity separate from its root span, so the
    // campaign span's id doubles as the trace id.
    let trace = span.id().map(|id| TraceContext { trace_id: id, parent_span_id: id });
    let campaign = inner.coordinator.submit(payload, trace);
    let merged = inner.coordinator.wait(campaign, token, |p| {
        sink.emit(Progress::FaultsSimulated { done: p.done, total: p.total, detected: p.detected });
    });
    drop(span);
    merged.map_err(|e| cluster_outcome(inner, e))
}

/// Serves one connection — client or cluster worker. Each line is
/// parsed once; the value is tried as a client [`Request`] first and a
/// [`WorkerMsg`] second (the variant names are disjoint). Requests are
/// answered by one [`Response`] (`Watch` by a response stream), worker
/// messages by one [`CoordMsg`] (`Bye` by none), strictly in the order
/// the lines arrived — a worker may send its next request before it has
/// read the previous reply.
fn handle_connection(inner: Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    // Replies are written whole, one per request; Nagle's algorithm
    // could only hold the second of two back-to-back replies for the
    // peer's delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    let bad = |e: &dyn std::fmt::Display| Response::Error { message: format!("bad message: {e}") };
    loop {
        let line = match snn_cluster::wire::read_raw_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            // An over-long or non-UTF-8 line leaves the stream mid-line:
            // say why, then close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return write_line(&mut writer, &bad(&e));
            }
            Err(e) => return Err(e),
        };
        let value = match serde::json::parse(line.trim()) {
            Ok(value) => value,
            Err(e) => {
                write_line(&mut writer, &bad(&e))?;
                continue;
            }
        };
        let request = match Request::deserialize(&value) {
            Ok(request) => request,
            Err(client_err) => {
                match WorkerMsg::deserialize(&value) {
                    Ok(msg) => {
                        if let Some(reply) = worker_reply(&inner, msg) {
                            write_line(&mut writer, &reply)?;
                        }
                    }
                    Err(_) => write_line(&mut writer, &bad(&client_err))?,
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                write_line(&mut writer, &Response::Pong { version: PROTOCOL_VERSION })?
            }
            Request::Metrics => {
                write_line(&mut writer, &Response::Metrics(snn_obs::metrics::global().snapshot()))?
            }
            Request::ClusterStatus => {
                write_line(&mut writer, &Response::Cluster(inner.coordinator.status()))?
            }
            Request::Submit(spec) => match inner.submit(*spec) {
                Ok(record) => write_line(&mut writer, &Response::Submitted { job: record.id })?,
                Err(message) => write_line(&mut writer, &Response::Error { message })?,
            },
            Request::Status { job } => match inner.store.get(job) {
                Some(record) => write_line(&mut writer, &Response::Status(Box::new(record)))?,
                None => write_line(
                    &mut writer,
                    &Response::Error { message: format!("no such job: {job}") },
                )?,
            },
            Request::List => write_line(&mut writer, &Response::Jobs(inner.store.list()))?,
            Request::Cancel { job } => write_line(&mut writer, &inner.cancel(job))?,
            Request::Watch { job } => watch(&inner, &mut writer, job)?,
            Request::Shutdown => {
                write_line(&mut writer, &Response::ShuttingDown)?;
                inner.begin_shutdown();
                return Ok(());
            }
        }
    }
}

/// Answers one cluster-worker message, delegating to the coordinator.
/// `None` for `Bye`, which gets no reply.
fn worker_reply(inner: &Inner, msg: WorkerMsg) -> Option<CoordMsg> {
    // A lease request parks in `grant` until a chunk is pending: that is
    // the worker's idle time, not message handling, so it gets no span.
    let _span =
        (!matches!(msg, WorkerMsg::Lease { .. })).then(|| snn_obs::span!("cluster.worker_msg"));
    Some(match msg {
        WorkerMsg::Hello { name, protocol } => {
            if protocol == PROTOCOL_VERSION {
                let (protocol, lease_ms, heartbeat_ms) = inner.coordinator.hello(&name);
                CoordMsg::Welcome { protocol, lease_ms, heartbeat_ms }
            } else {
                CoordMsg::Error {
                    message: format!(
                        "worker speaks protocol {protocol}, server speaks {PROTOCOL_VERSION}"
                    ),
                }
            }
        }
        WorkerMsg::Lease { worker } => match inner.coordinator.grant(&worker) {
            Grant::Lease(grant) => CoordMsg::Granted(grant),
            Grant::Idle { retry_ms } => CoordMsg::Idle { retry_ms },
            Grant::Shutdown => CoordMsg::Shutdown,
        },
        WorkerMsg::Fetch { worker: _, campaign } => match inner.coordinator.payload(campaign) {
            Some(spec) => CoordMsg::Campaign(spec),
            None => CoordMsg::Error { message: format!("no such campaign: {campaign}") },
        },
        WorkerMsg::Heartbeat { worker, lease } => {
            CoordMsg::HeartbeatAck { live: inner.coordinator.heartbeat(&worker, lease) }
        }
        WorkerMsg::Result { worker, lease, campaign, chunk, epoch, outcomes, spans } => {
            CoordMsg::ResultAck {
                accepted: inner
                    .coordinator
                    .result(&worker, lease, campaign, chunk, epoch, outcomes, spans),
            }
        }
        WorkerMsg::Bye { .. } => return None,
    })
}

/// Streams `job`'s snapshot and then its events until it is terminal.
/// The subscription ends with this call, however it returns: finished or
/// unknown job, terminal event, or a client that stopped reading.
fn watch(inner: &Arc<Inner>, writer: &mut TcpStream, job: u64) -> io::Result<()> {
    // Subscribe before snapshotting so no event between the two is lost.
    let rx = inner.bus.subscribe(Some(job));
    let Some(snapshot) = inner.store.get(job) else {
        return write_line(writer, &Response::Error { message: format!("no such job: {job}") });
    };
    let terminal_at_snapshot = snapshot.state.is_terminal();
    write_line(writer, &Response::Status(Box::new(snapshot)))?;
    if terminal_at_snapshot {
        return Ok(());
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(event) => {
                let done = matches!(
                    &event.payload,
                    JobEventPayload::State { state, .. } if state.is_terminal()
                );
                write_line(writer, &Response::Event(event))?;
                if done {
                    return Ok(());
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Fallback: the publisher may have raced our subscription.
                if let Some(r) = inner.store.get(job) {
                    if r.state.is_terminal() {
                        // Synthesized (not bus-delivered) terminal event;
                        // stamping still consumes a real sequence number.
                        return write_line(
                            writer,
                            &Response::Event(inner.bus.stamp(JobEventPayload::State {
                                job,
                                state: r.state,
                                error: r.error,
                            })),
                        );
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::BufRead;
    use std::sync::atomic::AtomicUsize;
    use std::thread::JoinHandle;

    /// A two-worker server on a fresh state directory, with a handle on
    /// its shared state. It expects a cluster worker that nobody starts,
    /// which is where [`long_spec`] jobs park.
    fn boot(tag: &str) -> (Arc<Inner>, SocketAddr, JoinHandle<io::Result<()>>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("snn-server-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { workers: 2, expect_workers: 1, ..ServiceConfig::loopback(&dir) };
        let server = Server::bind(config).unwrap();
        let (inner, addr) = (Arc::clone(&server.inner), server.local_addr());
        (inner, addr, std::thread::spawn(move || server.run()), dir)
    }

    fn halt(client: &mut Client, server: JoinHandle<io::Result<()>>, dir: &PathBuf) {
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Finishes in milliseconds.
    fn fast_spec(seed: u64) -> JobSpec {
        JobSpec { preset: "fast".into(), ..JobSpec::synthetic_repro(4, vec![6], 2, seed) }
    }

    /// Long by construction, whatever the generator's speed: streams
    /// progress through a dozen iterations, then waits a minute for the
    /// cluster worker its campaign needs — 200 times what the tests here
    /// take in a release build. They cancel it.
    fn long_spec() -> JobSpec {
        JobSpec { evaluate_coverage: true, ..JobSpec::synthetic_repro(34, vec![64], 10, 8) }
    }

    /// A connection that asks to watch `job` and has read the snapshot
    /// line the stream opens with.
    fn raw_watch(addr: SocketAddr, job: u64) -> BufReader<TcpStream> {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_line(&mut stream, &Request::Watch { job }).unwrap();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut String::new()).unwrap();
        reader
    }

    /// The server answers a connection's requests in order: once it has
    /// answered this ping, the watch before it has returned.
    fn watch_then_ping(client: &mut Client, job: u64) -> JobRecord {
        let record = client.watch(job, |_| {}).unwrap();
        client.ping().unwrap();
        record
    }

    #[test]
    fn a_watch_holds_its_subscription_only_while_it_runs() {
        let (inner, addr, server, dir) = boot("watch");
        let mut client = Client::connect(addr).unwrap();

        // To its terminal event, and again once it is finished.
        let job = client.submit(fast_spec(1)).unwrap();
        for _ in 0..2 {
            assert_eq!(watch_then_ping(&mut client, job).state, JobState::Done);
            assert_eq!(inner.bus.subscriber_count(), 0);
        }
        // A job that does not exist.
        assert!(client.watch(9_999, |_| {}).is_err());
        client.ping().unwrap();
        assert_eq!(inner.bus.subscriber_count(), 0);

        // A client that hangs up mid-run: the server finds out when it
        // next writes an event, long before the job ends.
        let long_job = client.submit(long_spec()).unwrap();
        drop(raw_watch(addr, long_job));
        let deadline = snn_obs::clock::monotonic() + Duration::from_secs(60);
        while inner.bus.subscriber_count() > 0 {
            assert!(snn_obs::clock::monotonic() < deadline, "hung-up watcher still subscribed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!client.status(long_job).unwrap().state.is_terminal());
        client.cancel(long_job).unwrap();
        assert_eq!(watch_then_ping(&mut client, long_job).state, JobState::Cancelled);
        assert_eq!(inner.bus.subscriber_count(), 0);

        halt(&mut client, server, &dir);
    }

    #[test]
    fn fifty_watched_jobs_leave_only_the_live_watcher_subscribed() {
        let (inner, addr, server, dir) = boot("fifty");
        let mut client = Client::connect(addr).unwrap();

        // One watcher stays live throughout, on a job of its own.
        let long_job = client.submit(long_spec()).unwrap();
        let mut live = raw_watch(addr, long_job);
        for seed in 0..50 {
            let job = client.submit(fast_spec(seed % 3)).unwrap();
            assert_eq!(watch_then_ping(&mut client, job).state, JobState::Done);
        }
        assert_eq!(inner.bus.subscriber_count(), 1);
        assert!(!client.status(long_job).unwrap().state.is_terminal());

        client.cancel(long_job).unwrap();
        // The live stream ends with the terminal event; the ping behind
        // it is answered once the server has left the watch.
        write_line(live.get_mut(), &Request::Ping).unwrap();
        let pong = live.lines().map(Result::unwrap).find(|line| line.contains("Pong"));
        assert!(pong.is_some());
        assert_eq!(inner.bus.subscriber_count(), 0);

        halt(&mut client, server, &dir);
    }

    /// Campaign threads take their tally and then emit it. One crossing
    /// is forced here (tally 1 leaves after tally 2 has been forwarded);
    /// the race for the sink's lock behind it makes more.
    #[test]
    fn crossed_campaign_tallies_are_forwarded_strictly_increasing_to_the_total() {
        const TOTAL: usize = 4000;
        let (inner, addr, server, dir) = boot("sink");
        let job = inner.store.submit(fast_spec(1)).id;
        let events = inner.bus.subscribe_with_capacity(Some(job), TOTAL);
        let sink = ServiceSink::new(Arc::clone(&inner), job);
        let taken = AtomicUsize::new(0);
        let emit_next = || {
            let done = taken.fetch_add(1, Ordering::Relaxed) + 1;
            if done <= TOTAL {
                sink.emit(Progress::FaultsSimulated { done, total: TOTAL, detected: 0 });
            }
            done < TOTAL
        };
        let (second_is_out, wait_for_second) = std::sync::mpsc::channel();
        std::thread::scope(|threads| {
            let (sink, taken, emit_next) = (&sink, &taken, &emit_next);
            threads.spawn(move || {
                let first = taken.fetch_add(1, Ordering::Relaxed) + 1;
                wait_for_second.recv().unwrap();
                sink.emit(Progress::FaultsSimulated { done: first, total: TOTAL, detected: 0 });
                while emit_next() {}
            });
            threads.spawn(move || {
                while taken.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                emit_next();
                second_is_out.send(()).unwrap();
                while emit_next() {}
            });
        });

        let forwarded: Vec<usize> = events
            .try_iter()
            .map(|event| match event.payload {
                JobEventPayload::Progress {
                    progress: Progress::FaultsSimulated { done, .. },
                    ..
                } => done,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(forwarded.first(), Some(&2), "tally 1 arrived after tally 2 and was dropped");
        assert!(forwarded.windows(2).all(|w| w[0] < w[1]), "a tally went backwards");
        assert_eq!(forwarded.last(), Some(&TOTAL));
        let stored = inner.store.get(job).unwrap().progress;
        assert_eq!(
            stored,
            Some(Progress::FaultsSimulated { done: TOTAL, total: TOTAL, detected: 0 })
        );

        drop(events);
        halt(&mut Client::connect(addr).unwrap(), server, &dir);
    }
}
