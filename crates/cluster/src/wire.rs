//! Protocol v10: the coordinator/worker messages of distributed
//! campaigns, plus the newline-JSON line codec both the job server and
//! the cluster share.
//!
//! Workers talk to the *same* TCP port as job clients: the server parses
//! each incoming line once and tries the value as a service `Request`
//! first and as a [`WorkerMsg`] second (the two enums have disjoint
//! variant names, so routing is unambiguous). Every [`WorkerMsg`] is
//! answered with exactly one [`CoordMsg`], in the order the lines
//! arrived. See `DESIGN.md` §12 for the chunk/lease state machine and an
//! example `nc` session.

use serde::{Deserialize, Serialize};
use snn_faults::{ChunkRange, FaultOutcome, FaultSimConfig};
use std::io::{BufRead, Read, Write};

/// Protocol revision; incremented on breaking wire changes. `Hello`
/// refuses any other version, so there is no compatibility decode and a
/// mixed cluster fails with a one-line error before its first lease.
pub const PROTOCOL_VERSION: u64 = 10;

/// Longest line [`read_raw_line`] accepts. The largest legitimate line
/// is a [`CampaignSpec`] carrying an events text.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The trace context a coordinator stamps into every [`LeaseGrant`] of a
/// traced campaign. Workers root their chunk spans at this context and
/// ship them back on [`WorkerMsg::Result`]; the coordinator re-parents
/// the batch under `parent_span_id`, merging all workers into one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Trace identifier, unique per coordinator process (the campaign
    /// span's id doubles as the trace id).
    pub trace_id: u64,
    /// Id of the coordinator-side span (`cluster.campaign`) that worker
    /// subtrees are merged under.
    pub parent_span_id: u64,
}

/// What network a campaign (or job) runs against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Load a model file (as written by `snn-mtfc new` /
    /// `Network::save`) from this path on the **server's** filesystem.
    /// Workers resolve the same path on their own filesystem, so
    /// distributed campaigns over `Path` models require a shared one.
    Path(String),
    /// Build a randomly initialized fully-connected network in-process:
    /// `inputs → hidden[0] → … → outputs`, seeded for reproducibility.
    /// Bit-identical on every process that builds it.
    Synthetic {
        /// Input features.
        inputs: usize,
        /// Hidden dense layer widths, in order.
        hidden: Vec<usize>,
        /// Output features (classes).
        outputs: usize,
        /// Weight-initialization seed.
        seed: u64,
    },
}

/// Everything a worker needs to execute any chunk of one campaign. Sent
/// once per campaign per worker (on [`WorkerMsg::Fetch`]) and cached
/// worker-side; leases then reference the campaign by id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Coordinator-assigned campaign id.
    pub id: u64,
    /// The network under test, rebuilt deterministically by each worker.
    pub model: ModelSpec,
    /// The test stimuli in the `.events` text format
    /// (`snn_testgen::parse_events`), one entry per test input. The
    /// format is an exact transport for spike tensors.
    pub events: Vec<String>,
    /// Simulator configuration. Workers override `threads` with their
    /// own `--threads` setting — thread count never changes verdicts.
    pub sim: FaultSimConfig,
    /// Faults in the campaign: its fault list is the ids `0..faults` of
    /// the standard universe (configuration indices for a reliability
    /// campaign), sharded into the [`ChunkRange`]s leases carry.
    pub faults: usize,
    /// Reliability-campaign payload. When present the
    /// campaign scores accuracy impact instead of detection: leased
    /// ranges are fault-*configuration* indices re-sampled
    /// worker-side from this spec, and `events` may be empty (the
    /// evaluation set is procedural). `None` means a plain detection
    /// campaign.
    pub reliability: Option<snn_reliability::ReliabilitySpec>,
}

/// One granted lease: the chunk — the range of fault ids to simulate —
/// and its fencing epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Unique lease id (never reused within a coordinator's lifetime).
    pub lease: u64,
    /// Campaign the chunk belongs to.
    pub campaign: u64,
    /// The chunk, as planned by `snn_faults::chunk::plan`.
    pub chunk: ChunkRange,
    /// Fencing epoch of the chunk: bumped every time the chunk is
    /// re-issued, so results from expired leases are recognizably stale.
    pub epoch: u64,
    /// Milliseconds until the lease expires unless heartbeats extend it.
    pub deadline_in_ms: u64,
    /// Trace context of a traced campaign. `None` means tracing is off
    /// and the worker ships no spans back.
    pub trace: Option<TraceContext>,
}

/// One chunk's outcomes as columns, in fault-id order. The ids
/// themselves stay behind: the coordinator holds the range it leased and
/// stamps it back on with [`into_rows`](Self::into_rows), so a result
/// can neither relabel a fault nor pay to repeat what both sides know.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkOutcomes {
    /// Detection bit per fault.
    pub detected: Vec<bool>,
    /// Output distance per fault (bit-exact over the wire).
    pub distance: Vec<f32>,
    /// Per-class output difference per fault; `None` when no row of the
    /// chunk recorded one, else one entry per row.
    pub class_diff: Option<Vec<Option<Vec<f32>>>>,
}

impl ChunkOutcomes {
    /// Splits `rows` into columns, dropping the fault ids.
    pub fn from_rows(rows: Vec<FaultOutcome>) -> Self {
        let mut detected = Vec::with_capacity(rows.len());
        let mut distance = Vec::with_capacity(rows.len());
        let any_diff = rows.iter().any(|o| o.class_diff.is_some());
        let mut class_diff = any_diff.then(|| Vec::with_capacity(rows.len()));
        for row in rows {
            detected.push(row.detected);
            distance.push(row.distance);
            if let Some(column) = &mut class_diff {
                column.push(row.class_diff);
            }
        }
        Self { detected, distance, class_diff }
    }

    /// Reassembles rows against the id range the chunk was leased under.
    /// `None` unless every column has exactly `ids.len()` entries.
    pub fn into_rows(self, ids: std::ops::Range<usize>) -> Option<Vec<FaultOutcome>> {
        let n = ids.len();
        if self.detected.len() != n
            || self.distance.len() != n
            || self.class_diff.as_ref().is_some_and(|column| column.len() != n)
        {
            return None;
        }
        let mut diffs = self.class_diff.map(Vec::into_iter);
        Some(
            ids.zip(self.detected)
                .zip(self.distance)
                .map(|((fault_id, detected), distance)| FaultOutcome {
                    fault_id,
                    detected,
                    distance,
                    class_diff: diffs.as_mut().and_then(Iterator::next).flatten(),
                })
                .collect(),
        )
    }
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// First message on a worker connection: announce the worker's name
    /// and protocol revision. Answered with [`CoordMsg::Welcome`].
    Hello {
        /// Worker name, unique per cluster (e.g. `worker-<pid>`).
        name: String,
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Ask for work. Answered with [`CoordMsg::Granted`] as soon as a
    /// chunk is pending, with [`CoordMsg::Idle`] when none became pending
    /// within the coordinator's long-poll bound, or with
    /// [`CoordMsg::Shutdown`].
    Lease {
        /// Worker name.
        worker: String,
    },
    /// Fetch a campaign's payload (model, stimuli, simulator config).
    /// Answered with [`CoordMsg::Campaign`].
    Fetch {
        /// Worker name.
        worker: String,
        /// Campaign id from a [`LeaseGrant`].
        campaign: u64,
    },
    /// Keep a lease alive. Answered with [`CoordMsg::HeartbeatAck`];
    /// `live: false` means the lease expired and the chunk was (or will
    /// be) re-issued — the worker should abandon it.
    Heartbeat {
        /// Worker name.
        worker: String,
        /// The lease being extended.
        lease: u64,
    },
    /// Deliver a chunk's outcomes. Answered with
    /// [`CoordMsg::ResultAck`]; `accepted: false` marks a stale result
    /// (expired lease / wrong epoch) that was discarded — exactly-once
    /// accounting keeps only the result matching the live lease.
    Result {
        /// Worker name.
        worker: String,
        /// The lease the work ran under.
        lease: u64,
        /// Campaign id.
        campaign: u64,
        /// Chunk index within the campaign.
        chunk: usize,
        /// The fencing epoch from the lease.
        epoch: u64,
        /// Per-fault outcomes, in the leased chunk's id order.
        outcomes: ChunkOutcomes,
        /// Finished trace spans of this chunk, present only
        /// when the lease carried a [`TraceContext`]. Span ids are local
        /// to the worker's collector; the coordinator remaps them on
        /// adoption.
        spans: Option<Vec<snn_obs::SpanRecord>>,
    },
    /// Polite disconnect. Answered with [`CoordMsg::Shutdown`].
    Bye {
        /// Worker name.
        worker: String,
    },
}

/// Coordinator → worker messages (one per [`WorkerMsg`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordMsg {
    /// Registration accepted; carries the cluster's timing contract.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`].
        protocol: u64,
        /// Lease lifetime granted per chunk, in milliseconds.
        lease_ms: u64,
        /// How often the worker should heartbeat, in milliseconds.
        heartbeat_ms: u64,
    },
    /// Work: one chunk under a lease.
    Granted(LeaseGrant),
    /// No chunk became pending while the lease request was parked; ask
    /// again at once.
    Idle {
        /// How long the request was parked for, in milliseconds (the
        /// coordinator's long-poll bound).
        retry_ms: u64,
    },
    /// A campaign payload (answer to [`WorkerMsg::Fetch`]).
    Campaign(CampaignSpec),
    /// Lease liveness: `false` means the lease expired.
    HeartbeatAck {
        /// Whether the heartbeated lease is still live.
        live: bool,
    },
    /// Result bookkeeping: `false` means the result was stale and
    /// discarded.
    ResultAck {
        /// Whether the result was merged into the campaign.
        accepted: bool,
    },
    /// The coordinator is shutting down (or acknowledged a `Bye`);
    /// the worker should exit.
    Shutdown,
    /// The request failed.
    Error {
        /// One-line diagnostic.
        message: String,
    },
}

/// A point-in-time view of the worker pool and chunk bookkeeping,
/// served over `Request::ClusterStatus` and printed by
/// `snn-mtfc cluster-status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterStatus {
    /// Every worker that ever said `Hello`, by name.
    pub workers: Vec<WorkerStatus>,
    /// Campaigns not yet fully merged.
    pub campaigns_active: usize,
    /// Chunks waiting for a lease, across campaigns.
    pub chunks_pending: usize,
    /// Chunks currently under a live lease.
    pub chunks_leased: usize,
    /// Chunks completed (exactly-once accounted) since start.
    pub chunks_completed: u64,
    /// Chunks re-issued after a lease expiry since start.
    pub chunks_reissued: u64,
    /// Stale results discarded since start.
    pub results_stale: u64,
}

/// One worker's view in a [`ClusterStatus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStatus {
    /// The name from its `Hello`.
    pub name: String,
    /// Milliseconds since the coordinator last heard from it.
    pub last_seen_ms: u64,
    /// Chunks this worker completed (accepted results).
    pub chunks_completed: u64,
    /// Cumulative lease-to-result wall-clock, in milliseconds — the
    /// coordinator-side view of worker busy time.
    pub busy_ms: u64,
    /// The lease it currently holds, if any.
    pub lease: Option<HeldLease>,
}

/// The chunk a worker currently holds, in a [`WorkerStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeldLease {
    /// Lease id.
    pub lease: u64,
    /// Campaign id.
    pub campaign: u64,
    /// Chunk index.
    pub chunk: usize,
    /// Milliseconds until the lease expires without a heartbeat.
    pub expires_in_ms: u64,
}

/// Writes `value` as one JSON line and flushes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_line<T: serde::Serialize>(w: &mut impl Write, value: &T) -> std::io::Result<()> {
    let mut line = serde::json::to_string(value);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one JSON line. `Ok(None)` on clean EOF; decode failures carry a
/// one-line diagnostic.
///
/// # Errors
///
/// Propagates I/O errors from `r`.
pub fn read_line<T: serde::Deserialize>(
    r: &mut impl BufRead,
) -> std::io::Result<Option<Result<T, String>>> {
    Ok(read_raw_line(r)?.map(|line| {
        serde::json::from_str::<T>(line.trim()).map_err(|e| format!("bad message: {e}"))
    }))
}

/// Reads one non-blank line without decoding it — the server's entry
/// point for dual-protocol routing. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O errors from `r`; a line longer than
/// [`MAX_LINE_BYTES`] is an [`InvalidData`](std::io::ErrorKind) error
/// (as is one that is not UTF-8), after which the stream is mid-line
/// and must be closed.
pub fn read_raw_line(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    read_capped_line(r, MAX_LINE_BYTES)
}

fn read_capped_line(r: &mut impl BufRead, cap: usize) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that
        // ends exactly at it.
        if r.by_ref().take(cap as u64 + 1).read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.len() > cap {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line longer than {cap} bytes"),
            ));
        }
        if !line.trim().is_empty() {
            return Ok(Some(line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `v` encodes to exactly `json` — the pinned bytes a
    /// peer of this protocol version sends — and decodes back to itself.
    fn pinned<T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug>(
        v: &T,
        json: &str,
    ) {
        let s = serde::json::to_string(v);
        assert_eq!(
            s, json,
            "the wire encoding changed: bump `PROTOCOL_VERSION` (and `JOB_SCHEMA_VERSION` for \
             `JobRecord`), then update the pinned encoding"
        );
        let back: T = serde::json::from_str(&s).unwrap();
        assert_eq!(&back, v, "round trip of {s}");
    }

    fn grant() -> LeaseGrant {
        LeaseGrant {
            lease: 7,
            campaign: 2,
            chunk: ChunkRange { index: 1, start: 64, len: 64 },
            epoch: 3,
            deadline_in_ms: 5000,
            trace: Some(TraceContext { trace_id: 11, parent_span_id: 11 }),
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        pinned(
            &WorkerMsg::Hello { name: "w1".into(), protocol: PROTOCOL_VERSION },
            r#"{"Hello":{"name":"w1","protocol":10}}"#,
        );
        pinned(&WorkerMsg::Lease { worker: "w1".into() }, r#"{"Lease":{"worker":"w1"}}"#);
        pinned(
            &WorkerMsg::Fetch { worker: "w1".into(), campaign: 2 },
            r#"{"Fetch":{"worker":"w1","campaign":2}}"#,
        );
        pinned(
            &WorkerMsg::Heartbeat { worker: "w1".into(), lease: 7 },
            r#"{"Heartbeat":{"worker":"w1","lease":7}}"#,
        );
        pinned(
            &WorkerMsg::Result {
                worker: "w1".into(),
                lease: 7,
                campaign: 2,
                chunk: 1,
                epoch: 3,
                outcomes: ChunkOutcomes {
                    detected: vec![true, false],
                    distance: vec![2.5, 0.0],
                    class_diff: Some(vec![Some(vec![1.0, -1.0]), None]),
                },
                spans: Some(vec![snn_obs::SpanRecord {
                    id: 4,
                    parent: None,
                    name: "cluster.chunk".into(),
                    start_us: 10,
                    end_us: 250,
                    attrs: vec![("lease".into(), "7".into())],
                }]),
            },
            r#"{"Result":{"worker":"w1","lease":7,"campaign":2,"chunk":1,"epoch":3,"outcomes":{"detected":[true,false],"distance":[2.5,0],"class_diff":[[1,-1],null]},"spans":[{"id":4,"parent":null,"name":"cluster.chunk","start_us":10,"end_us":250,"attrs":[["lease","7"]]}]}}"#,
        );
        pinned(&WorkerMsg::Bye { worker: "w1".into() }, r#"{"Bye":{"worker":"w1"}}"#);
    }

    #[test]
    fn coordinator_messages_round_trip() {
        pinned(
            &CoordMsg::Welcome { protocol: PROTOCOL_VERSION, lease_ms: 5000, heartbeat_ms: 1000 },
            r#"{"Welcome":{"protocol":10,"lease_ms":5000,"heartbeat_ms":1000}}"#,
        );
        pinned(
            &CoordMsg::Granted(grant()),
            r#"{"Granted":{"lease":7,"campaign":2,"chunk":{"index":1,"start":64,"len":64},"epoch":3,"deadline_in_ms":5000,"trace":{"trace_id":11,"parent_span_id":11}}}"#,
        );
        pinned(&CoordMsg::Idle { retry_ms: 50 }, r#"{"Idle":{"retry_ms":50}}"#);
        pinned(
            &CoordMsg::Campaign(CampaignSpec {
                id: 2,
                model: ModelSpec::Synthetic { inputs: 4, hidden: vec![6], outputs: 2, seed: 1 },
                events: vec!["# snn-mtfc test: 2 ticks x 4 features, 1 chunks\n0 1\n".into()],
                sim: FaultSimConfig {
                    threads: 2,
                    record_class_diffs: true,
                    engine: Some(snn_faults::Engine::Packed),
                },
                faults: 128,
                reliability: None,
            }),
            r##"{"Campaign":{"id":2,"model":{"Synthetic":{"inputs":4,"hidden":[6],"outputs":2,"seed":1}},"events":["# snn-mtfc test: 2 ticks x 4 features, 1 chunks\n0 1\n"],"sim":{"threads":2,"record_class_diffs":true,"engine":"Packed"},"faults":128,"reliability":null}}"##,
        );
        pinned(&CoordMsg::HeartbeatAck { live: false }, r#"{"HeartbeatAck":{"live":false}}"#);
        pinned(&CoordMsg::ResultAck { accepted: true }, r#"{"ResultAck":{"accepted":true}}"#);
        pinned(&CoordMsg::Shutdown, r#""Shutdown""#);
        pinned(
            &CoordMsg::Error { message: "unknown campaign".into() },
            r#"{"Error":{"message":"unknown campaign"}}"#,
        );
    }

    #[test]
    fn reliability_campaign_round_trips() {
        use snn_reliability::{
            EvalSpec, FaultMapSpec, MemoryRegion, MitigationKind, RegionSpec, ReliabilitySpec,
            WeightFaultModel,
        };
        pinned(
            &CampaignSpec {
                id: 3,
                model: ModelSpec::Synthetic { inputs: 4, hidden: vec![6], outputs: 2, seed: 1 },
                events: Vec::new(),
                sim: FaultSimConfig::default(),
                faults: 16,
                reliability: Some(ReliabilitySpec {
                    map: FaultMapSpec {
                        regions: vec![RegionSpec {
                            region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                            ber: 0.01,
                        }],
                        configs: 16,
                        seed: 42,
                        weight_model: WeightFaultModel::StuckSat,
                        window: Some(snn_faults::TransientWindow::new(2, 9)),
                    },
                    eval: EvalSpec { samples: 8, steps: 20, rate: 0.3, seed: 7 },
                    mitigation: MitigationKind::RangeRestriction,
                }),
            },
            r#"{"id":3,"model":{"Synthetic":{"inputs":4,"hidden":[6],"outputs":2,"seed":1}},"events":[],"sim":{"threads":0,"record_class_diffs":false,"engine":null},"faults":16,"reliability":{"map":{"regions":[{"region":{"Weights":{"layer":0,"tensor":0}},"ber":0.009999999776482582}],"configs":16,"seed":42,"weight_model":"StuckSat","window":{"start":2,"end":9}},"eval":{"samples":8,"steps":20,"rate":0.30000001192092896,"seed":7},"mitigation":"RangeRestriction"}}"#,
        );
    }

    #[test]
    fn status_round_trips() {
        pinned(
            &ClusterStatus {
                workers: vec![WorkerStatus {
                    name: "w1".into(),
                    last_seen_ms: 12,
                    chunks_completed: 4,
                    busy_ms: 880,
                    lease: Some(HeldLease { lease: 7, campaign: 2, chunk: 1, expires_in_ms: 4100 }),
                }],
                campaigns_active: 1,
                chunks_pending: 3,
                chunks_leased: 2,
                chunks_completed: 9,
                chunks_reissued: 1,
                results_stale: 1,
            },
            r#"{"workers":[{"name":"w1","last_seen_ms":12,"chunks_completed":4,"busy_ms":880,"lease":{"lease":7,"campaign":2,"chunk":1,"expires_in_ms":4100}}],"campaigns_active":1,"chunks_pending":3,"chunks_leased":2,"chunks_completed":9,"chunks_reissued":1,"results_stale":1}"#,
        );
    }

    /// A row as bit patterns, so that NaN payloads and signed zeros
    /// compare exactly.
    type RowBits = (usize, bool, u32, Option<Vec<u32>>);

    fn bits_of(rows: &[FaultOutcome]) -> Vec<RowBits> {
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
        rows.iter()
            .map(|o| {
                (o.fault_id, o.detected, o.distance.to_bits(), o.class_diff.as_ref().map(bits))
            })
            .collect()
    }

    /// The float JSON can carry exactly: finite, and not `-0.0` (integral
    /// values print as integers).
    fn wire_exact(bits: u32) -> f32 {
        let x = f32::from_bits(bits);
        if x.is_finite() && bits != 0x8000_0000 {
            x
        } else {
            f32::from_bits(bits & 0x3fff_ffff)
        }
    }

    fn over_the_wire(columns: &ChunkOutcomes) -> ChunkOutcomes {
        serde::json::from_str(&serde::json::to_string(columns)).unwrap()
    }

    /// The bit-identity guarantee rides on this: a fault outcome's f32
    /// distance survives the JSON wire with its exact bit pattern.
    #[test]
    fn outcome_distance_bits_survive_the_wire() {
        for bits in [0x3dcc_cccd_u32, 0x3f80_0001, 0x0000_0001, 0x7f7f_ffff] {
            let rows = vec![FaultOutcome {
                fault_id: 1,
                detected: true,
                distance: f32::from_bits(bits),
                class_diff: Some(vec![f32::from_bits(bits ^ 1)]),
            }];
            let sent = ChunkOutcomes::from_rows(rows.clone());
            let s = serde::json::to_string(&sent);
            let back = over_the_wire(&sent).into_rows(1..2).unwrap();
            assert_eq!(bits_of(&back), bits_of(&rows), "wire mangled {bits:#x} ({s})");
        }
    }

    proptest::proptest! {
        /// Columns are an exact transport for rows — no class diffs, one
        /// on every row, or a mix — in memory for any bit pattern and
        /// through JSON for every float JSON can carry.
        #[test]
        fn columns_round_trip_rows_bit_for_bit(
            start in 0usize..1_000_000,
            // (detected, distance bits, has diff, diff bits)
            drawn in proptest::collection::vec(
                (
                    proptest::bool::ANY,
                    0u32..u32::MAX,
                    proptest::bool::ANY,
                    proptest::collection::vec(0u32..u32::MAX, 0..4),
                ),
                0..24,
            ),
            diffs in 0usize..3,
        ) {
            let row = |float: fn(u32) -> f32| -> Vec<FaultOutcome> {
                drawn
                    .iter()
                    .enumerate()
                    .map(|(i, (detected, distance, has_diff, diff))| FaultOutcome {
                        fault_id: start + i,
                        detected: *detected,
                        distance: float(*distance),
                        // 0: none, 1: all, 2: mixed.
                        class_diff: (diffs == 1 || (diffs == 2 && *has_diff))
                            .then(|| diff.iter().map(|&b| float(b)).collect()),
                    })
                    .collect()
            };
            let ids = start..start + drawn.len();

            let raw = row(f32::from_bits);
            let columns = ChunkOutcomes::from_rows(raw.clone());
            proptest::prop_assert_eq!(
                columns.class_diff.is_some(),
                raw.iter().any(|o| o.class_diff.is_some())
            );
            proptest::prop_assert_eq!(bits_of(&columns.into_rows(ids.clone()).unwrap()), bits_of(&raw));

            let exact = row(wire_exact);
            let sent = ChunkOutcomes::from_rows(exact.clone());
            let back = over_the_wire(&sent).into_rows(ids).unwrap();
            proptest::prop_assert_eq!(bits_of(&back), bits_of(&exact));
        }
    }

    #[test]
    fn every_short_or_long_column_is_rejected() {
        let rows: Vec<FaultOutcome> = (0..3)
            .map(|i| FaultOutcome {
                fault_id: 10 + i,
                detected: i == 1,
                distance: i as f32,
                class_diff: Some(vec![0.5]),
            })
            .collect();
        let ids = 10..13;
        let good = ChunkOutcomes::from_rows(rows.clone());
        assert_eq!(good.clone().into_rows(ids.clone()), Some(rows));
        assert_eq!(good.clone().into_rows(10..12), None, "more rows than leased ids");
        assert_eq!(good.clone().into_rows(10..14), None, "fewer rows than leased ids");

        let breakers: [fn(&mut ChunkOutcomes); 6] = [
            |c| c.detected.truncate(2),
            |c| c.detected.push(true),
            |c| c.distance.truncate(2),
            |c| c.distance.push(0.0),
            |c| c.class_diff.as_mut().unwrap().truncate(2),
            |c| c.class_diff.as_mut().unwrap().push(None),
        ];
        for (i, break_it) in breakers.iter().enumerate() {
            let mut bad = good.clone();
            break_it(&mut bad);
            assert_eq!(bad.into_rows(ids.clone()), None, "breaker {i}");
        }

        let empty = ChunkOutcomes::from_rows(Vec::new());
        assert_eq!(empty.class_diff, None);
        assert_eq!(empty.into_rows(0..0), Some(Vec::new()));
    }

    #[test]
    fn raw_line_reader_skips_blanks_and_reports_eof() {
        let mut r = std::io::BufReader::new(&b"\n  \n{\"x\":1}\n"[..]);
        assert_eq!(read_raw_line(&mut r).unwrap().unwrap().trim(), "{\"x\":1}");
        assert!(read_raw_line(&mut r).unwrap().is_none());
    }

    /// A peer that never sends a newline gets an error after `cap`
    /// bytes, not an unbounded buffer.
    #[test]
    fn a_line_that_never_ends_is_refused_at_the_cap() {
        let mut endless = std::io::BufReader::new(std::io::repeat(b'x'));
        let err = read_capped_line(&mut endless, 1000).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line longer than 1000 bytes");

        // The cap counts the terminator: 1000 bytes pass, 1001 do not.
        let fits = format!("{}\n", "x".repeat(999));
        let mut r = std::io::BufReader::new(fits.as_bytes());
        assert_eq!(read_capped_line(&mut r, 1000).unwrap().unwrap(), fits);
        let over = format!("{}\n", "x".repeat(1000));
        let mut r = std::io::BufReader::new(over.as_bytes());
        assert!(read_capped_line(&mut r, 1000).is_err());
    }
}
