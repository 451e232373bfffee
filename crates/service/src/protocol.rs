//! The newline-delimited JSON wire protocol of the job server.
//!
//! Every message is one JSON value on one line (`\n`-terminated). Clients
//! send [`Request`] lines; the server answers each request with exactly one
//! [`Response`] line, except [`Request::Watch`] which answers with a
//! [`Response::Status`] snapshot followed by a stream of
//! [`Response::Event`] lines until the watched job reaches a terminal
//! state. Enum values are externally tagged, e.g. `"Ping"` or
//! `{"Status":{"job":3}}` — see `DESIGN.md` §8 for the full specification
//! and an example session.
//!
//! The same listener also serves cluster workers:
//! the server tries to decode each incoming line as a [`Request`] first
//! and as a `snn_cluster::wire::WorkerMsg` second (the variant names are
//! disjoint), so clients and workers share one port. The worker-side
//! messages are documented in `snn_cluster::wire` and `DESIGN.md` §12.

use serde::{Deserialize, Serialize};
use snn_faults::progress::Progress;

// The protocol's foundation — the version constant, the model spec and
// the line codec — lives in `snn-cluster`'s wire module, because worker
// processes speak the same newline-JSON framing on the same port.
// Re-exported here so service clients keep one import surface.
pub use snn_cluster::wire::{ClusterStatus, ModelSpec, PROTOCOL_VERSION};

/// A test-generation job description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Network under test.
    pub model: ModelSpec,
    /// Generation preset: `"fast"`, `"repro"` or `"paper"`.
    pub preset: String,
    /// RNG seed of the generation run.
    pub seed: u64,
    /// Override of the preset's outer-iteration cap.
    pub max_iterations: Option<usize>,
    /// Override of the preset's wall-clock budget, in seconds.
    pub t_limit_secs: Option<u64>,
    /// Also run a full fault-detection campaign on the generated test and
    /// report fault coverage.
    pub evaluate_coverage: bool,
    /// Worker threads for the coverage campaign (0 = all cores).
    pub threads: usize,
    /// Run a fault-map reliability campaign instead of test generation.
    /// The generation fields above are ignored except `model` and
    /// `threads`.
    pub reliability: Option<snn_reliability::ReliabilitySpec>,
    /// Execution engine of the coverage campaign: the bit-packed
    /// fault-parallel engine, the scalar engine, or `Auto`. `None` means
    /// `Auto`. Engine choice never changes verdicts, only execution
    /// strategy.
    pub engine: Option<snn_faults::Engine>,
}

impl JobSpec {
    /// A repro-preset job over a synthetic network — the typical
    /// smoke-test submission.
    pub fn synthetic_repro(inputs: usize, hidden: Vec<usize>, outputs: usize, seed: u64) -> Self {
        Self {
            model: ModelSpec::Synthetic { inputs, hidden, outputs, seed },
            preset: "repro".into(),
            seed,
            max_iterations: None,
            t_limit_secs: None,
            evaluate_coverage: false,
            threads: 0,
            reliability: None,
            engine: None,
        }
    }
}

/// Lifecycle state of a job: `Queued → Running → Done | Failed |
/// Cancelled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished successfully; the record carries a result.
    Done,
    /// Aborted with an error; the record carries the message.
    Failed,
    /// Stopped by a cancel request (or server shutdown) before finishing.
    Cancelled,
}

impl JobState {
    /// `true` for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed | Self::Cancelled)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Wall-clock breakdown of one job's phases, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobTimings {
    /// Time spent in the queue before a worker picked the job up.
    pub queue_wait_ms: u64,
    /// Time to build the job's fault universe; `0` when no campaign
    /// ran. (The name predates protocol v10, when it also timed a
    /// static analysis.)
    pub analyze_ms: u64,
    /// Test-generation time.
    pub generation_ms: u64,
    /// Fault-simulation (coverage campaign) time; `0` when no campaign
    /// ran, at least `1` when one did.
    pub fault_sim_ms: u64,
}

/// Outcome of a finished job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Chunks in the generated test.
    pub chunks: usize,
    /// Total ticks of the assembled test stimulus.
    pub test_steps: usize,
    /// Neurons the test activates.
    pub activated: usize,
    /// Spiking neurons in the network.
    pub total_neurons: usize,
    /// `activated / total_neurons`.
    pub activation_coverage: f64,
    /// Generation wall-clock, in milliseconds.
    pub runtime_ms: u64,
    /// Fault-universe size, when a coverage campaign ran.
    pub faults_total: Option<usize>,
    /// Detected faults, when a coverage campaign ran.
    pub faults_detected: Option<usize>,
    /// Fault coverage (Eq. 4), when a coverage campaign ran.
    pub fault_coverage: Option<f64>,
    /// Server-side path of the persisted `.events` stimulus file.
    pub events_path: Option<String>,
    /// Per-phase wall-clock breakdown.
    pub timings: Option<JobTimings>,
    /// FNV-1a digest of every per-fault verdict of the coverage
    /// campaign (16 hex chars) — identical for a local and a
    /// distributed run of the same job, which is exactly what CI gates
    /// on. `None` when no campaign ran.
    pub verdict_digest: Option<String>,
    /// Reliability-campaign report (drop distributions, region
    /// criticality ranking, mitigation recovery), when the job ran a
    /// fault-map campaign. `None` for generation jobs.
    pub reliability: Option<snn_reliability::ReliabilityReport>,
    /// Execution engine the coverage campaign actually ran under
    /// (`"packed"` or `"scalar"`, after `Auto` resolution). `None` when
    /// no campaign ran.
    pub engine: Option<String>,
}

/// Schema revision stamped into every [`JobRecord`] the server persists;
/// incremented whenever the record's encoding changes.
pub const JOB_SCHEMA_VERSION: u32 = 7;

/// Everything the server knows about one job. Each state change appends it
/// as one JSON line to `<state-dir>/jobs/job-<id>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Server-assigned id, unique within a state directory.
    pub id: u64,
    /// The submitted description.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Submission time, Unix milliseconds.
    pub submitted_at_ms: u64,
    /// Execution start time, Unix milliseconds.
    pub started_at_ms: Option<u64>,
    /// Terminal-state time, Unix milliseconds.
    pub finished_at_ms: Option<u64>,
    /// Most recent progress event, while running.
    pub progress: Option<Progress>,
    /// Result, once `Done`.
    pub result: Option<JobResult>,
    /// Failure message, once `Failed` (or cancellation detail).
    pub error: Option<String>,
    /// Persisted-record schema revision: [`JOB_SCHEMA_VERSION`] on every
    /// record this server writes.
    pub schema: Option<u32>,
}

/// A sequenced, timestamped notification streamed to watchers.
///
/// `seq` is a server-wide monotonic counter stamped at publish time:
/// consecutive events a subscriber receives normally have consecutive
/// sequence numbers, so a *gap* tells the subscriber that it was too
/// slow and events were dropped — loss is observable, never silent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Server-wide monotonic sequence number, assigned at publish time.
    pub seq: u64,
    /// Emission time, Unix milliseconds.
    pub at_ms: u64,
    /// What happened.
    pub payload: JobEventPayload,
}

impl JobEvent {
    /// The job this event concerns.
    pub fn job(&self) -> u64 {
        self.payload.job()
    }
}

/// The body of a [`JobEvent`]: a lifecycle change or a progress report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEventPayload {
    /// The job entered `state`.
    State {
        /// Job id.
        job: u64,
        /// New lifecycle state.
        state: JobState,
        /// Failure/cancellation detail, when entering such a state.
        error: Option<String>,
    },
    /// The running job reported algorithm progress.
    Progress {
        /// Job id.
        job: u64,
        /// The progress payload.
        progress: Progress,
    },
}

impl JobEventPayload {
    /// The job this event concerns.
    pub fn job(&self) -> u64 {
        match self {
            Self::State { job, .. } | Self::Progress { job, .. } => *job,
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job; answered with [`Response::Submitted`] or an error
    /// when the queue is full or the spec is invalid.
    Submit(Box<JobSpec>),
    /// Fetch a job's record.
    Status {
        /// Job id.
        job: u64,
    },
    /// Fetch every job record, ordered by id.
    List,
    /// Request cancellation of a queued or running job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Stream the job's events until it reaches a terminal state.
    Watch {
        /// Job id.
        job: u64,
    },
    /// Liveness probe.
    Ping,
    /// Fetch a snapshot of the server's metrics registry.
    Metrics,
    /// Fetch a snapshot of the worker pool and chunk bookkeeping.
    ClusterStatus,
    /// Graceful server shutdown: running jobs are cancelled, queued jobs
    /// stay queued (they resume on restart), state is persisted.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Job accepted under this id.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// One job's record (boxed: it dwarfs the other variants).
    Status(Box<JobRecord>),
    /// All job records.
    Jobs(Vec<JobRecord>),
    /// Cancellation acknowledged (delivery, not completion).
    CancelRequested {
        /// Job id.
        job: u64,
    },
    /// Liveness answer; carries [`PROTOCOL_VERSION`].
    Pong {
        /// Server protocol revision.
        version: u64,
    },
    /// Shutdown acknowledged.
    ShuttingDown,
    /// A snapshot of every registered counter, gauge and histogram.
    Metrics(snn_obs::MetricsSnapshot),
    /// The worker pool and chunk bookkeeping snapshot.
    Cluster(ClusterStatus),
    /// A streamed watch notification.
    Event(JobEvent),
    /// The request failed.
    Error {
        /// One-line diagnostic.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_cluster::wire::{read_line, write_line};

    /// Asserts that `v` encodes to exactly `json` — the pinned bytes a
    /// peer of this protocol version sends, or a record of this schema
    /// holds — and decodes back to itself.
    fn pinned<T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug>(v: &T, json: &str) {
        let s = serde::json::to_string(v);
        assert_eq!(
            s, json,
            "the wire encoding changed: bump `PROTOCOL_VERSION` (and `JOB_SCHEMA_VERSION` for \
             `JobRecord`), then update the pinned encoding"
        );
        let back: T = serde::json::from_str(&s).unwrap();
        assert_eq!(&back, v, "round trip of {s}");
    }

    /// A reliability job: the spec a `reliability` submission sends.
    fn reliability_spec() -> JobSpec {
        use snn_reliability::{
            EvalSpec, FaultMapSpec, MemoryRegion, MitigationKind, RegionSpec, ReliabilitySpec,
            WeightFaultModel,
        };
        let mut spec = JobSpec::synthetic_repro(4, vec![6], 2, 5);
        spec.reliability = Some(ReliabilitySpec {
            map: FaultMapSpec {
                regions: vec![RegionSpec {
                    region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                    ber: 0.01,
                }],
                configs: 8,
                seed: 42,
                weight_model: WeightFaultModel::BitFlip,
                window: Some(snn_faults::TransientWindow::new(2, 9)),
            },
            eval: EvalSpec { samples: 8, steps: 16, rate: 0.3, seed: 7 },
            mitigation: MitigationKind::FaultAwareMapping,
        });
        spec
    }

    #[test]
    fn requests_round_trip() {
        pinned(
            &Request::Submit(Box::new(JobSpec::synthetic_repro(6, vec![12], 4, 7))),
            r#"{"Submit":{"model":{"Synthetic":{"inputs":6,"hidden":[12],"outputs":4,"seed":7}},"preset":"repro","seed":7,"max_iterations":null,"t_limit_secs":null,"evaluate_coverage":false,"threads":0,"reliability":null,"engine":null}}"#,
        );
        pinned(&Request::Status { job: 3 }, r#"{"Status":{"job":3}}"#);
        pinned(&Request::List, r#""List""#);
        pinned(&Request::Cancel { job: 9 }, r#"{"Cancel":{"job":9}}"#);
        pinned(&Request::Watch { job: 0 }, r#"{"Watch":{"job":0}}"#);
        pinned(&Request::Ping, r#""Ping""#);
        pinned(&Request::Metrics, r#""Metrics""#);
        pinned(&Request::ClusterStatus, r#""ClusterStatus""#);
        pinned(&Request::Shutdown, r#""Shutdown""#);
    }

    #[test]
    fn responses_round_trip() {
        let record = JobRecord {
            id: 1,
            spec: JobSpec {
                model: ModelSpec::Path("model.snn".into()),
                preset: "fast".into(),
                seed: 1,
                max_iterations: Some(4),
                t_limit_secs: None,
                evaluate_coverage: true,
                threads: 2,
                reliability: None,
                engine: Some(snn_faults::Engine::Packed),
            },
            state: JobState::Done,
            submitted_at_ms: 1_700_000_000_000,
            started_at_ms: Some(1_700_000_000_100),
            finished_at_ms: Some(1_700_000_003_000),
            progress: Some(Progress::FaultsSimulated { done: 5, total: 9, detected: 4 }),
            result: Some(JobResult {
                chunks: 3,
                test_steps: 120,
                activated: 14,
                total_neurons: 16,
                activation_coverage: 0.875,
                runtime_ms: 2900,
                faults_total: Some(9),
                faults_detected: Some(7),
                fault_coverage: Some(7.0 / 9.0),
                events_path: Some("results/job-1.events".into()),
                timings: Some(JobTimings {
                    queue_wait_ms: 100,
                    analyze_ms: 20,
                    generation_ms: 2500,
                    fault_sim_ms: 380,
                }),
                verdict_digest: Some("cbf29ce484222325".into()),
                reliability: None,
                engine: Some("packed".into()),
            }),
            error: None,
            schema: Some(JOB_SCHEMA_VERSION),
        };
        pinned(&Response::Submitted { job: 1 }, r#"{"Submitted":{"job":1}}"#);
        pinned(
            &Response::Status(Box::new(record)),
            r#"{"Status":{"id":1,"spec":{"model":{"Path":"model.snn"},"preset":"fast","seed":1,"max_iterations":4,"t_limit_secs":null,"evaluate_coverage":true,"threads":2,"reliability":null,"engine":"Packed"},"state":"Done","submitted_at_ms":1700000000000,"started_at_ms":1700000000100,"finished_at_ms":1700000003000,"progress":{"FaultsSimulated":{"done":5,"total":9,"detected":4}},"result":{"chunks":3,"test_steps":120,"activated":14,"total_neurons":16,"activation_coverage":0.875,"runtime_ms":2900,"faults_total":9,"faults_detected":7,"fault_coverage":0.7777777777777778,"events_path":"results/job-1.events","timings":{"queue_wait_ms":100,"analyze_ms":20,"generation_ms":2500,"fault_sim_ms":380},"verdict_digest":"cbf29ce484222325","reliability":null,"engine":"packed"},"error":null,"schema":7}}"#,
        );
        let drop = snn_reliability::DropStats { mean: 0.25, p95: 0.5, worst: 0.75 };
        pinned(
            &Response::Jobs(vec![JobRecord {
                id: 2,
                spec: reliability_spec(),
                state: JobState::Done,
                submitted_at_ms: 1_700_000_004_000,
                started_at_ms: Some(1_700_000_004_010),
                finished_at_ms: Some(1_700_000_004_500),
                progress: None,
                result: Some(JobResult {
                    chunks: 0,
                    test_steps: 0,
                    activated: 0,
                    total_neurons: 8,
                    activation_coverage: 0.0,
                    runtime_ms: 490,
                    faults_total: None,
                    faults_detected: None,
                    fault_coverage: None,
                    events_path: None,
                    timings: None,
                    verdict_digest: None,
                    reliability: Some(snn_reliability::ReliabilityReport {
                        configs: 8,
                        samples: 8,
                        mitigation: "fault-aware-mapping".into(),
                        baseline_accuracy: 1.0,
                        faulty_accuracy: 0.75,
                        mitigated_accuracy: 0.875,
                        drop,
                        mitigated_drop: drop,
                        mean_spike_delta: 3.5,
                        regions: vec![snn_reliability::RegionCriticality {
                            region: "weights[L0.T0]".into(),
                            configs_hit: 8,
                            mean_drop: 0.25,
                        }],
                        digest: "cbf29ce484222325".into(),
                    }),
                    engine: None,
                }),
                error: None,
                schema: Some(JOB_SCHEMA_VERSION),
            }]),
            r#"{"Jobs":[{"id":2,"spec":{"model":{"Synthetic":{"inputs":4,"hidden":[6],"outputs":2,"seed":5}},"preset":"repro","seed":5,"max_iterations":null,"t_limit_secs":null,"evaluate_coverage":false,"threads":0,"reliability":{"map":{"regions":[{"region":{"Weights":{"layer":0,"tensor":0}},"ber":0.009999999776482582}],"configs":8,"seed":42,"weight_model":"BitFlip","window":{"start":2,"end":9}},"eval":{"samples":8,"steps":16,"rate":0.30000001192092896,"seed":7},"mitigation":"FaultAwareMapping"},"engine":null},"state":"Done","submitted_at_ms":1700000004000,"started_at_ms":1700000004010,"finished_at_ms":1700000004500,"progress":null,"result":{"chunks":0,"test_steps":0,"activated":0,"total_neurons":8,"activation_coverage":0,"runtime_ms":490,"faults_total":null,"faults_detected":null,"fault_coverage":null,"events_path":null,"timings":null,"verdict_digest":null,"reliability":{"configs":8,"samples":8,"mitigation":"fault-aware-mapping","baseline_accuracy":1,"faulty_accuracy":0.75,"mitigated_accuracy":0.875,"drop":{"mean":0.25,"p95":0.5,"worst":0.75},"mitigated_drop":{"mean":0.25,"p95":0.5,"worst":0.75},"mean_spike_delta":3.5,"regions":[{"region":"weights[L0.T0]","configs_hit":8,"mean_drop":0.25}],"digest":"cbf29ce484222325"},"engine":null},"error":null,"schema":7}]}"#,
        );
        pinned(&Response::CancelRequested { job: 1 }, r#"{"CancelRequested":{"job":1}}"#);
        pinned(&Response::Pong { version: PROTOCOL_VERSION }, r#"{"Pong":{"version":10}}"#);
        pinned(&Response::ShuttingDown, r#""ShuttingDown""#);
        pinned(
            &Response::Event(JobEvent {
                seq: 41,
                at_ms: 1_700_000_002_000,
                payload: JobEventPayload::State {
                    job: 1,
                    state: JobState::Cancelled,
                    error: Some("cancelled by user".into()),
                },
            }),
            r#"{"Event":{"seq":41,"at_ms":1700000002000,"payload":{"State":{"job":1,"state":"Cancelled","error":"cancelled by user"}}}}"#,
        );
        pinned(
            &Response::Event(JobEvent {
                seq: 42,
                at_ms: 1_700_000_002_500,
                payload: JobEventPayload::Progress {
                    job: 1,
                    progress: Progress::Iteration {
                        iteration: 0,
                        chunk_steps: 40,
                        newly_activated: 9,
                        activated: 9,
                        total_neurons: 16,
                        growths: 1,
                    },
                },
            }),
            r#"{"Event":{"seq":42,"at_ms":1700000002500,"payload":{"Progress":{"job":1,"progress":{"Iteration":{"iteration":0,"chunk_steps":40,"newly_activated":9,"activated":9,"total_neurons":16,"growths":1}}}}}}"#,
        );
        pinned(
            &Response::Error { message: "queue full".into() },
            r#"{"Error":{"message":"queue full"}}"#,
        );
        pinned(
            &Response::Metrics(snn_obs::MetricsSnapshot {
                metrics: vec![snn_obs::metrics::MetricSample {
                    name: "snn_job_seconds".into(),
                    help: "Job wall time.".into(),
                    value: snn_obs::metrics::MetricValue::Histogram(
                        snn_obs::metrics::HistogramSnapshot {
                            bounds: vec![0.5, 2.0],
                            buckets: vec![1, 0, 1],
                            count: 2,
                            sum: 3.25,
                        },
                    ),
                }],
            }),
            r#"{"Metrics":{"metrics":[{"name":"snn_job_seconds","help":"Job wall time.","value":{"Histogram":{"bounds":[0.5,2],"buckets":[1,0,1],"count":2,"sum":3.25}}}]}}"#,
        );
        pinned(
            &Response::Cluster(ClusterStatus {
                workers: Vec::new(),
                campaigns_active: 0,
                chunks_pending: 0,
                chunks_leased: 0,
                chunks_completed: 4,
                chunks_reissued: 1,
                results_stale: 1,
            }),
            r#"{"Cluster":{"workers":[],"campaigns_active":0,"chunks_pending":0,"chunks_leased":0,"chunks_completed":4,"chunks_reissued":1,"results_stale":1}}"#,
        );
    }

    #[test]
    fn reliability_job_spec_round_trips() {
        pinned(
            &Request::Submit(Box::new(reliability_spec())),
            r#"{"Submit":{"model":{"Synthetic":{"inputs":4,"hidden":[6],"outputs":2,"seed":5}},"preset":"repro","seed":5,"max_iterations":null,"t_limit_secs":null,"evaluate_coverage":false,"threads":0,"reliability":{"map":{"regions":[{"region":{"Weights":{"layer":0,"tensor":0}},"ber":0.009999999776482582}],"configs":8,"seed":42,"weight_model":"BitFlip","window":{"start":2,"end":9}},"eval":{"samples":8,"steps":16,"rate":0.30000001192092896,"seed":7},"mitigation":"FaultAwareMapping"},"engine":null}}"#,
        );
    }

    #[test]
    fn line_codec_round_trips_and_skips_blank_lines() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Ping).unwrap();
        buf.extend_from_slice(b"\n  \n");
        write_line(&mut buf, &Request::Status { job: 2 }).unwrap();

        let mut r = std::io::BufReader::new(buf.as_slice());
        assert_eq!(read_line::<Request>(&mut r).unwrap().unwrap().unwrap(), Request::Ping);
        assert_eq!(
            read_line::<Request>(&mut r).unwrap().unwrap().unwrap(),
            Request::Status { job: 2 }
        );
        assert!(read_line::<Request>(&mut r).unwrap().is_none(), "EOF");
    }

    #[test]
    fn malformed_lines_are_reported_not_fatal() {
        let mut r = std::io::BufReader::new(&b"{nonsense\n\"Ping\"\n"[..]);
        let bad = read_line::<Request>(&mut r).unwrap().unwrap();
        assert!(bad.is_err());
        let ok = read_line::<Request>(&mut r).unwrap().unwrap();
        assert_eq!(ok.unwrap(), Request::Ping);
    }

    #[test]
    fn terminal_states_are_exactly_done_failed_cancelled() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert_eq!(JobState::Cancelled.to_string(), "cancelled");
    }
}
