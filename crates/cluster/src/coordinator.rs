//! The campaign coordinator: shards fault lists into chunks, hands
//! chunks to workers as leases with heartbeats and deadlines, re-issues
//! expired leases under a bumped epoch, and merges accepted chunk
//! results into a campaign outcome bit-identical to a single-process
//! run.
//!
//! Execution is *at-least-once* (an expired lease's chunk runs again),
//! accounting is *exactly-once*: a result is merged only while its
//! `(lease, epoch)` pair matches the chunk's live lease, so the slow
//! original and the re-issued copy can never both count.
//!
//! The coordinator owns a single lock (`Rank::Coordinator`, ranked after
//! every service lock) and never calls out while holding it: every
//! method that locks returns owned values, and progress sinks are only
//! called by [`Coordinator::wait`], which takes no lock itself.

use crate::lock_order::{mutex, Rank};
use crate::wire::{
    CampaignSpec, ChunkOutcomes, ClusterStatus, HeldLease, LeaseGrant, TraceContext, WorkerStatus,
    PROTOCOL_VERSION,
};
use parking_lot::{Condvar, Mutex};
use snn_faults::chunk::{merge_chunks, plan, MergeError};
use snn_faults::progress::CancelToken;
use snn_faults::{ChunkRange, FaultOutcome};
use snn_obs::SpanRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Coordinator tunables.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Faults per chunk (0 is treated as 1).
    pub chunk_size: usize,
    /// Lease lifetime; a chunk whose lease sees no heartbeat for this
    /// long is re-issued.
    pub lease_ms: u64,
    /// Heartbeat cadence advertised to workers (workers beat at this
    /// rate; the lease outlives several missed beats).
    pub heartbeat_ms: u64,
    /// Longest a lease request parks inside [`Coordinator::grant`] while
    /// no chunk is pending before it is answered `Idle` (and asked again
    /// at once). Bounds how long a vanished worker's connection goes
    /// unnoticed, not how soon new work is handed out.
    pub idle_retry_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self { chunk_size: 256, lease_ms: 5000, heartbeat_ms: 1000, idle_retry_ms: 50 }
    }
}

/// Lifecycle of one chunk. `Pending → Leased → Done`, with
/// `Leased → Pending` (epoch bumped) on lease expiry.
enum ChunkState {
    /// Waiting for a worker; `epoch` counts prior expired leases.
    Pending { epoch: u64 },
    /// Under a lease until `deadline` (heartbeats extend it).
    Leased { epoch: u64, lease: u64, worker: String, deadline: Duration },
    /// Outcomes accepted — terminal.
    Done { outcomes: Vec<FaultOutcome> },
}

struct CampaignState {
    spec: CampaignSpec,
    chunks: Vec<ChunkRange>,
    states: Vec<ChunkState>,
    done: usize,
    /// Faults, and detected faults, in accepted chunks.
    done_faults: usize,
    detected: usize,
    /// Trace context stamped into every lease grant of this campaign.
    trace: Option<TraceContext>,
    /// Per-worker trace bookkeeping for a traced campaign, keyed by
    /// worker name so the merged tree is deterministic.
    worker_spans: BTreeMap<String, WorkerTrace>,
}

/// One worker's subtree in a traced campaign: the pre-allocated id of
/// its synthetic `worker:<name>` wrapper span, plus the chunk spans
/// accumulated under it.
struct WorkerTrace {
    wrapper: u64,
    busy: Duration,
    chunks: u64,
}

#[derive(Default)]
struct WorkerEntry {
    last_seen: Duration,
    chunks_completed: u64,
    busy_us: u64,
    /// `(lease, campaign, chunk, granted_at)` while one is held.
    lease: Option<(u64, u64, usize, Duration)>,
}

#[derive(Default)]
struct State {
    // BTreeMap (HashMap is banned in this crate) so that every
    // iteration — lease grants, gauge refreshes, status snapshots —
    // walks workers and campaigns in a deterministic order, with no
    // sorting at the use sites.
    workers: BTreeMap<String, WorkerEntry>,
    campaigns: BTreeMap<u64, CampaignState>,
    next_campaign: u64,
    next_lease: u64,
    shutdown: bool,
    chunks_completed: u64,
    chunks_reissued: u64,
    results_stale: u64,
    /// Busy microseconds not yet added to the whole-millisecond
    /// `snn_cluster_worker_busy_ms_total` counter.
    busy_carry_us: u64,
}

/// What a lease request gets.
#[derive(Debug, Clone, PartialEq)]
pub enum Grant {
    /// A chunk under a fresh lease.
    Lease(LeaseGrant),
    /// Nothing became pending within the long-poll bound; ask again.
    Idle {
        /// The bound that passed (`idle_retry_ms`).
        retry_ms: u64,
    },
    /// The coordinator is shutting down.
    Shutdown,
}

/// Error waiting for a campaign (or for workers) to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The caller's cancel token tripped.
    Cancelled,
    /// The coordinator shut down mid-wait.
    Shutdown,
    /// No such campaign.
    UnknownCampaign {
        /// The requested id.
        campaign: u64,
    },
    /// Fewer workers than expected registered within the wait budget.
    WorkersUnavailable {
        /// Workers the caller required.
        expected: usize,
        /// Workers that had registered when the budget ran out.
        seen: usize,
    },
    /// Chunk results did not reassemble (a coordinator invariant
    /// violation — should be unreachable).
    Merge(MergeError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cancelled => f.write_str("cluster campaign cancelled"),
            Self::Shutdown => f.write_str("coordinator shut down"),
            Self::UnknownCampaign { campaign } => write!(f, "no such campaign: {campaign}"),
            Self::WorkersUnavailable { expected, seen } => {
                write!(f, "expected {expected} worker(s), only {seen} registered")
            }
            Self::Merge(e) => write!(f, "chunk merge failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What [`Coordinator::poll`] found.
enum Poll {
    /// The campaign completed and left the coordinator.
    Done(Box<CampaignState>),
    /// The campaign moved.
    Progress(CampaignProgress),
}

/// Aggregate progress of one campaign, for progress streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Faults in accepted chunks.
    pub done: usize,
    /// Faults in the campaign's fault list.
    pub total: usize,
    /// Detected faults in accepted chunks.
    pub detected: usize,
}

/// The lease-based chunk scheduler. One per server; shared between the
/// accept loop (worker messages) and job workers (campaign submission).
pub struct Coordinator {
    cfg: CoordinatorConfig,
    state: Mutex<State>,
    cv: Condvar,
}

impl Coordinator {
    /// Creates a coordinator.
    pub fn new(cfg: CoordinatorConfig) -> Self {
        // Touch the gauge and histogram sites once so a metrics dump
        // lists them (at zero) before the first lease or heartbeat.
        Self::refresh_gauges(&State::default());
        Self::observe_heartbeat_gap(None);
        Self { cfg, state: mutex(Rank::Coordinator, State::default()), cv: Condvar::new() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.cfg
    }

    fn now() -> Duration {
        snn_obs::clock::monotonic()
    }

    /// Expires overdue leases: their chunks return to `Pending` under a
    /// bumped epoch and the holding workers' lease records are cleared.
    /// Called under the lock on every entry point, so expiry needs no
    /// reaper thread. Returns the number of leases expired.
    fn sweep(state: &mut State, now: Duration) -> u64 {
        let mut expired = 0u64;
        for campaign in state.campaigns.values_mut() {
            for chunk_state in &mut campaign.states {
                if let ChunkState::Leased { epoch, worker, deadline, .. } = chunk_state {
                    if *deadline < now {
                        let (epoch, worker) = (*epoch, worker.clone());
                        *chunk_state = ChunkState::Pending { epoch: epoch + 1 };
                        if let Some(entry) = state.workers.get_mut(&worker) {
                            entry.lease = None;
                        }
                        expired += 1;
                    }
                }
            }
        }
        state.chunks_reissued += expired;
        expired
    }

    fn record_expiries(expired: u64) {
        if expired > 0 {
            snn_obs::counter!(
                "snn_cluster_lease_expiries_total",
                "Leases that expired without a result."
            )
            .add(expired);
            snn_obs::counter!(
                "snn_cluster_chunks_reissued_total",
                "Chunks re-issued after a lease expiry."
            )
            .add(expired);
        }
    }

    fn refresh_gauges(state: &State) {
        let (mut pending, mut leased) = (0usize, 0usize);
        for campaign in state.campaigns.values() {
            for chunk_state in &campaign.states {
                match chunk_state {
                    ChunkState::Pending { .. } => pending += 1,
                    ChunkState::Leased { .. } => leased += 1,
                    ChunkState::Done { .. } => {}
                }
            }
        }
        let in_flight = state.workers.values().filter(|w| w.lease.is_some()).count();
        snn_obs::gauge!("snn_cluster_chunks_pending", "Chunks waiting for a lease.")
            .set(pending as f64);
        snn_obs::gauge!("snn_cluster_chunks_leased", "Chunks under a live lease.")
            .set(leased as f64);
        snn_obs::gauge!("snn_cluster_leases_in_flight", "Leases currently held by workers.")
            .set(in_flight as f64);
    }

    /// The single registration site for the heartbeat-latency histogram;
    /// `None` registers without observing.
    fn observe_heartbeat_gap(gap: Option<Duration>) {
        let hist = snn_obs::histogram!(
            "snn_cluster_heartbeat_gap_seconds",
            "Gap between consecutive sightings (heartbeat or result) of a worker.",
            snn_obs::metrics::DURATION_BUCKETS
        );
        if let Some(gap) = gap {
            hist.observe_duration(gap);
        }
    }

    /// Total duration of a span batch's roots — spans whose parent is
    /// absent or outside the batch — i.e. the worker-side wall clock the
    /// batch accounts for.
    fn root_total(batch: &[SpanRecord]) -> Duration {
        let ids: BTreeSet<u64> = batch.iter().map(|s| s.id).collect();
        batch
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !ids.contains(&p)))
            .map(|s| Duration::from_micros(s.end_us.saturating_sub(s.start_us)))
            .sum()
    }

    /// Registers a worker (idempotent) and returns the timing contract
    /// for its `Welcome`: `(protocol, lease_ms, heartbeat_ms)`.
    #[expect(clippy::disallowed_methods, reason = "stamps one worker entry")]
    pub fn hello(&self, name: &str) -> (u64, u64, u64) {
        let now = Self::now();
        {
            let mut state = self.state.lock();
            let entry = state.workers.entry(name.to_string()).or_default();
            entry.last_seen = now;
        }
        self.cv.notify_all();
        snn_obs::counter!("snn_cluster_workers_hello_total", "Worker registrations.").inc();
        (PROTOCOL_VERSION, self.cfg.lease_ms, self.cfg.heartbeat_ms)
    }

    /// Hands `worker` the next pending chunk (lowest campaign id,
    /// lowest chunk index) under a fresh lease. While nothing is pending
    /// the call parks on the coordinator's condvar — `submit`, an
    /// accepted result, `hello` and `shutdown` wake it — for at most
    /// `idle_retry_ms`, after which it answers `Idle`.
    #[expect(
        clippy::disallowed_methods,
        reason = "leases a chunk, parking on the condvar while none is pending"
    )]
    pub fn grant(&self, worker: &str) -> Grant {
        let bound = Duration::from_millis(self.cfg.idle_retry_ms);
        let asked = Self::now();
        let mut expired = 0u64;
        let mut state = self.state.lock();
        if let Some(entry) = state.workers.get_mut(worker) {
            entry.last_seen = asked;
        }
        let grant = loop {
            let now = Self::now();
            expired += Self::sweep(&mut state, now);
            if state.shutdown {
                break Grant::Shutdown;
            }
            if let Some(grant) = self.lease_next_pending(&mut state, worker, now) {
                break Grant::Lease(grant);
            }
            let parked = now.saturating_sub(asked);
            if parked >= bound {
                break Grant::Idle { retry_ms: self.cfg.idle_retry_ms };
            }
            self.cv.wait_for(&mut state, bound - parked);
        };
        Self::refresh_gauges(&state);
        drop(state);
        Self::record_expiries(expired);
        if matches!(grant, Grant::Lease(_)) {
            snn_obs::counter!("snn_cluster_chunks_issued_total", "Chunk leases granted.").inc();
        }
        grant
    }

    /// Leases the first pending chunk to `worker`, if there is one.
    fn lease_next_pending(
        &self,
        state: &mut State,
        worker: &str,
        now: Duration,
    ) -> Option<LeaseGrant> {
        let lease = state.next_lease;
        // BTreeMap iterates in ascending campaign id already.
        let grant = state.campaigns.iter_mut().find_map(|(&id, campaign)| {
            let (k, epoch) = campaign.states.iter().enumerate().find_map(|(k, s)| match s {
                ChunkState::Pending { epoch } => Some((k, *epoch)),
                _ => None,
            })?;
            let deadline = now + Duration::from_millis(self.cfg.lease_ms);
            campaign.states[k] =
                ChunkState::Leased { epoch, lease, worker: worker.to_string(), deadline };
            let chunk = campaign.chunks[k];
            Some(LeaseGrant {
                lease,
                campaign: id,
                chunk,
                epoch,
                deadline_in_ms: self.cfg.lease_ms,
                trace: campaign.trace,
            })
        })?;
        state.next_lease += 1;
        if let Some(entry) = state.workers.get_mut(worker) {
            entry.lease = Some((grant.lease, grant.campaign, grant.chunk.index, now));
        }
        Some(grant)
    }

    /// The payload of a campaign, for a worker's `Fetch`.
    #[expect(clippy::disallowed_methods, reason = "clones one campaign payload out")]
    pub fn payload(&self, campaign: u64) -> Option<CampaignSpec> {
        let state = self.state.lock();
        state.campaigns.get(&campaign).map(|c| c.spec.clone())
    }

    /// Extends `worker`'s lease if it is still live; `false` tells the
    /// worker its lease expired and the chunk will run elsewhere.
    #[expect(clippy::disallowed_methods, reason = "extends one lease in memory")]
    pub fn heartbeat(&self, worker: &str, lease: u64) -> bool {
        let now = Self::now();
        let mut state = self.state.lock();
        let expired = Self::sweep(&mut state, now);
        let mut gap = None;
        let held = match state.workers.get_mut(worker) {
            Some(entry) => {
                gap = Some(now.saturating_sub(entry.last_seen));
                entry.last_seen = now;
                entry.lease
            }
            None => None,
        };
        let mut live = false;
        if let Some((held_lease, campaign, chunk, _)) = held {
            if held_lease == lease {
                if let Some(campaign) = state.campaigns.get_mut(&campaign) {
                    if let Some(ChunkState::Leased { lease: l, deadline, .. }) =
                        campaign.states.get_mut(chunk)
                    {
                        if *l == lease {
                            *deadline = now + Duration::from_millis(self.cfg.lease_ms);
                            live = true;
                        }
                    }
                }
            }
        }
        drop(state);
        Self::record_expiries(expired);
        if let Some(gap) = gap {
            Self::observe_heartbeat_gap(Some(gap));
        }
        live
    }

    /// Accepts a chunk result iff `(lease, epoch)` matches the chunk's
    /// live lease — the exactly-once accounting gate. Stale results
    /// (expired lease, bumped epoch, already-done chunk, or columns that
    /// do not each hold one entry per leased fault) are discarded and
    /// reported with `false`. Accepted outcomes are stamped with the ids
    /// of the chunk's own range, so a result cannot speak for a fault it
    /// was not leased.
    ///
    /// For a traced campaign, `spans` (the worker's drained collector)
    /// are adopted into the coordinator's collector under the worker's
    /// synthetic wrapper span; stale results' spans are discarded with
    /// the outcomes so a re-issued chunk never appears twice in the
    /// merged tree.
    #[expect(clippy::too_many_arguments, reason = "mirrors the wire message's fields")]
    #[expect(clippy::disallowed_methods, reason = "merges one chunk's outcomes in memory")]
    pub fn result(
        &self,
        worker: &str,
        lease: u64,
        campaign: u64,
        chunk: usize,
        epoch: u64,
        outcomes: ChunkOutcomes,
        spans: Option<Vec<SpanRecord>>,
    ) -> bool {
        let now = Self::now();
        // Grab the collector handle and size up the batch before taking
        // the coordinator lock; under the lock only atomic id allocation
        // and bookkeeping happen, adoption itself runs after release.
        let collector = snn_obs::trace::installed();
        let batch = spans.filter(|b| !b.is_empty());
        let batch_busy = batch.as_deref().map(Self::root_total).unwrap_or_default();
        let mut adopt_under = None;
        let mut state = self.state.lock();
        let expired = Self::sweep(&mut state, now);
        if let Some(entry) = state.workers.get_mut(worker) {
            entry.last_seen = now;
        }
        let mut accepted = false;
        if let Some(campaign_state) = state.campaigns.get_mut(&campaign) {
            let live = matches!(
                campaign_state.states.get(chunk),
                Some(ChunkState::Leased { epoch: e, lease: l, .. }) if *l == lease && *e == epoch
            );
            if live {
                if let Some(outcomes) = outcomes.into_rows(campaign_state.chunks[chunk].range()) {
                    campaign_state.done_faults += outcomes.len();
                    campaign_state.detected += outcomes.iter().filter(|o| o.detected).count();
                    campaign_state.states[chunk] = ChunkState::Done { outcomes };
                    campaign_state.done += 1;
                    accepted = true;
                }
            }
        }
        if accepted {
            state.chunks_completed += 1;
            if let Some(entry) = state.workers.get_mut(worker) {
                entry.chunks_completed += 1;
                if let Some((held_lease, _, _, granted_at)) = entry.lease {
                    if held_lease == lease {
                        // Microseconds: a chunk lasts a millisecond or
                        // two, so whole milliseconds per chunk would
                        // drop up to half of the busy time.
                        let busy_us = u64::try_from(now.saturating_sub(granted_at).as_micros())
                            .unwrap_or(u64::MAX);
                        entry.busy_us += busy_us;
                        entry.lease = None;
                        state.busy_carry_us += busy_us;
                    }
                }
            }
            let busy_ms = state.busy_carry_us / 1000;
            state.busy_carry_us %= 1000;
            if let (Some(collector), Some(_)) = (&collector, &batch) {
                if let Some(campaign_state) = state.campaigns.get_mut(&campaign) {
                    if campaign_state.trace.is_some() {
                        let entry = campaign_state
                            .worker_spans
                            .entry(worker.to_string())
                            .or_insert_with(|| WorkerTrace {
                                wrapper: collector.allocate_id(),
                                busy: Duration::ZERO,
                                chunks: 0,
                            });
                        entry.busy += batch_busy;
                        entry.chunks += 1;
                        adopt_under = Some(entry.wrapper);
                    }
                }
            }
            Self::refresh_gauges(&state);
            drop(state);
            self.cv.notify_all();
            if let (Some(collector), Some(wrapper), Some(batch)) = (&collector, adopt_under, &batch)
            {
                collector.adopt(batch, Some(wrapper));
            }
            snn_obs::counter!("snn_cluster_chunks_completed_total", "Chunk results accepted.")
                .inc();
            snn_obs::counter!(
                "snn_cluster_worker_busy_ms_total",
                "Cumulative lease-to-result wall-clock across workers."
            )
            .add(busy_ms);
        } else {
            state.results_stale += 1;
            drop(state);
            snn_obs::counter!(
                "snn_cluster_results_stale_total",
                "Chunk results discarded by the exactly-once gate."
            )
            .inc();
        }
        Self::record_expiries(expired);
        accepted
    }

    /// Registers a campaign over the fault ids `0..spec.faults` (sharded
    /// per the configured chunk size) and returns its id, which
    /// overwrites `spec.id`. A `trace` context is stamped into every
    /// lease grant of the campaign and turns on worker-span collection
    /// for it.
    #[expect(clippy::disallowed_methods, reason = "registers one campaign in memory")]
    pub fn submit(&self, mut spec: CampaignSpec, trace: Option<TraceContext>) -> u64 {
        let chunks = plan(spec.faults, self.cfg.chunk_size);
        let states = chunks.iter().map(|_| ChunkState::Pending { epoch: 0 }).collect();
        let mut state = self.state.lock();
        let id = state.next_campaign;
        state.next_campaign += 1;
        spec.id = id;
        state.campaigns.insert(
            id,
            CampaignState {
                spec,
                chunks,
                states,
                done: 0,
                done_faults: 0,
                detected: 0,
                trace,
                worker_spans: BTreeMap::new(),
            },
        );
        Self::refresh_gauges(&state);
        drop(state);
        // Wakes lease requests parked in `grant` (and, for an empty
        // campaign, its waiter).
        self.cv.notify_all();
        id
    }

    /// Blocks until `campaign` completes, streaming progress through
    /// `on_progress`, and returns its merged outcomes in fault-id
    /// order — bit-identical to a single-process campaign over the same
    /// ids. The campaign is removed from the coordinator on return.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Cancelled`] when `cancel` trips,
    /// [`ClusterError::Shutdown`] when the coordinator stops first, and
    /// [`ClusterError::UnknownCampaign`] for a bad id.
    pub fn wait(
        &self,
        campaign: u64,
        cancel: &CancelToken,
        mut on_progress: impl FnMut(CampaignProgress),
    ) -> Result<Vec<FaultOutcome>, ClusterError> {
        let mut last = None;
        let campaign_state = loop {
            match self.poll(campaign, cancel, last)? {
                Poll::Done(campaign_state) => break campaign_state,
                Poll::Progress(progress) => {
                    on_progress(progress);
                    last = Some(progress);
                }
            }
        };
        // Emit the synthetic `worker:<name>` wrapper spans the adopted
        // chunk spans were parented under; the ids were pre-allocated at
        // adoption time, so the tree closes up regardless of record order.
        if let (Some(trace), Some(collector)) = (campaign_state.trace, snn_obs::trace::installed())
        {
            for (name, wt) in &campaign_state.worker_spans {
                collector.push_synthetic_with_id(
                    wt.wrapper,
                    &format!("worker:{name}"),
                    Some(trace.parent_span_id),
                    wt.busy,
                    vec![("chunks".to_string(), wt.chunks.to_string())],
                );
            }
        }
        let parts: Vec<Vec<FaultOutcome>> = campaign_state
            .states
            .into_iter()
            .map(|s| match s {
                ChunkState::Done { outcomes } => outcomes,
                _ => Vec::new(),
            })
            .collect();
        merge_chunks(&campaign_state.chunks, parts).map_err(ClusterError::Merge)
    }

    /// Parks until `campaign` completes (removing it) or its progress
    /// differs from `last`. A shut-down coordinator or a tripped
    /// `cancel` removes the campaign too.
    #[expect(clippy::disallowed_methods, reason = "parks on the condvar until a campaign moves")]
    fn poll(
        &self,
        campaign: u64,
        cancel: &CancelToken,
        last: Option<CampaignProgress>,
    ) -> Result<Poll, ClusterError> {
        let mut expired = 0u64;
        let mut state = self.state.lock();
        let polled = loop {
            expired += Self::sweep(&mut state, Self::now());
            if state.shutdown {
                state.campaigns.remove(&campaign);
                break Err(ClusterError::Shutdown);
            }
            let Some(campaign_state) = state.campaigns.get(&campaign) else {
                break Err(ClusterError::UnknownCampaign { campaign });
            };
            if campaign_state.done == campaign_state.chunks.len() {
                #[expect(
                    clippy::expect_used,
                    reason = "presence checked three lines up; remove cannot miss"
                )]
                let campaign_state = state.campaigns.remove(&campaign).expect("checked above");
                Self::refresh_gauges(&state);
                break Ok(Poll::Done(Box::new(campaign_state)));
            }
            if cancel.is_cancelled() {
                state.campaigns.remove(&campaign);
                break Err(ClusterError::Cancelled);
            }
            let progress = Self::progress_of(campaign_state);
            if last != Some(progress) {
                break Ok(Poll::Progress(progress));
            }
            // Checked and parked under one hold of the lock, so a result
            // landing in between cannot be slept through.
            self.cv.wait_for(&mut state, Duration::from_millis(100));
        };
        drop(state);
        Self::record_expiries(expired);
        polled
    }

    fn progress_of(campaign: &CampaignState) -> CampaignProgress {
        CampaignProgress {
            done: campaign.done_faults,
            total: campaign.spec.faults,
            detected: campaign.detected,
        }
    }

    /// Blocks until at least `expected` workers have registered (ever),
    /// under `cancel` and a wall-clock budget.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Cancelled`], [`ClusterError::Shutdown`] or
    /// [`ClusterError::WorkersUnavailable`] when the budget runs out.
    #[expect(
        clippy::disallowed_methods,
        reason = "parks on the condvar until enough workers registered"
    )]
    pub fn wait_for_workers(
        &self,
        expected: usize,
        cancel: &CancelToken,
        budget: Duration,
    ) -> Result<(), ClusterError> {
        let started = Self::now();
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return Err(ClusterError::Shutdown);
            }
            let seen = state.workers.len();
            if seen >= expected {
                return Ok(());
            }
            if cancel.is_cancelled() {
                return Err(ClusterError::Cancelled);
            }
            let waited = Self::now().saturating_sub(started);
            if waited >= budget {
                return Err(ClusterError::WorkersUnavailable { expected, seen });
            }
            // `hello` and `shutdown` notify; the cap is the cancel
            // token's poll interval.
            self.cv.wait_for(&mut state, (budget - waited).min(Duration::from_millis(100)));
        }
    }

    /// A point-in-time snapshot of workers and chunk bookkeeping.
    #[expect(clippy::disallowed_methods, reason = "snapshots the bookkeeping into owned values")]
    pub fn status(&self) -> ClusterStatus {
        let now = Self::now();
        let mut state = self.state.lock();
        let expired = Self::sweep(&mut state, now);
        let workers = state
            .workers
            .iter()
            .map(|(name, entry)| {
                let lease = entry.lease.and_then(|(lease, campaign, chunk, _)| {
                    let deadline =
                        state.campaigns.get(&campaign).and_then(|c| match c.states.get(chunk) {
                            Some(ChunkState::Leased { lease: l, deadline, .. }) if *l == lease => {
                                Some(*deadline)
                            }
                            _ => None,
                        })?;
                    Some(HeldLease {
                        lease,
                        campaign,
                        chunk,
                        expires_in_ms: u64::try_from(deadline.saturating_sub(now).as_millis())
                            .unwrap_or(u64::MAX),
                    })
                });
                WorkerStatus {
                    name: name.clone(),
                    last_seen_ms: u64::try_from(now.saturating_sub(entry.last_seen).as_millis())
                        .unwrap_or(u64::MAX),
                    chunks_completed: entry.chunks_completed,
                    busy_ms: entry.busy_us / 1000,
                    lease,
                }
            })
            .collect();
        let (mut pending, mut leased) = (0usize, 0usize);
        for campaign in state.campaigns.values() {
            for s in &campaign.states {
                match s {
                    ChunkState::Pending { .. } => pending += 1,
                    ChunkState::Leased { .. } => leased += 1,
                    ChunkState::Done { .. } => {}
                }
            }
        }
        let status = ClusterStatus {
            workers,
            campaigns_active: state.campaigns.len(),
            chunks_pending: pending,
            chunks_leased: leased,
            chunks_completed: state.chunks_completed,
            chunks_reissued: state.chunks_reissued,
            results_stale: state.results_stale,
        };
        drop(state);
        Self::record_expiries(expired);
        status
    }

    /// Stops the coordinator: waiters return [`ClusterError::Shutdown`]
    /// and workers receive [`Grant::Shutdown`] on their next lease
    /// request.
    #[expect(clippy::disallowed_methods, reason = "sets one flag")]
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
    }
}
