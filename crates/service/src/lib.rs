//! `snn-service` — a concurrent test-generation job server.
//!
//! Turns the single-shot `snn-mtfc generate` pipeline into a long-lived
//! daemon: clients submit test-generation jobs over TCP, a worker pool
//! (sized to the machine's cores) executes them, progress events stream
//! live to watchers, jobs can be cancelled cooperatively mid-run, and
//! every job record survives a server restart via a serde-JSON store
//! under `--state-dir`.
//!
//! # Architecture
//!
//! * [`protocol`] — the newline-delimited JSON wire protocol
//!   ([`Request`]/[`Response`]) plus the job model ([`JobSpec`],
//!   [`JobRecord`], [`JobState`], [`JobEvent`]).
//! * [`store`] — [`JobStore`], the persistent record map (one file per
//!   job, one JSON line appended per revision, the last complete line
//!   wins; restart recovery).
//! * [`bus`] — [`EventBus`], in-process fan-out of lifecycle and
//!   progress events to watch subscribers.
//! * [`server`] — [`Server`], the accept loop, bounded queue and worker
//!   pool; wires [`snn_faults::progress::ProgressSink`] and
//!   [`snn_faults::progress::CancelToken`] into the generator and fault
//!   simulator.
//! * [`client`] — [`Client`], a small blocking client used by the
//!   `snn-mtfc submit`/`status`/`watch`/`cancel` subcommands and the
//!   integration tests.
//!
//! A job's campaign — the coverage campaign over its generated test, or
//! its reliability fault map — runs through one function, in-process or
//! leased. With `ServiceConfig::expect_workers > 0` the server also acts
//! as a cluster coordinator: the campaign is sharded into leased chunks
//! and farmed out to `snn-mtfc worker` processes over the same listener
//! (see `snn_cluster`). With `0` the job runs the same
//! `snn_cluster::PreparedCampaign` a worker runs per chunk, over the
//! whole id range. The merged results are bit-identical either way.
//!
//! # Example
//!
//! ```
//! use snn_service::{Client, JobSpec, JobState, Server, ServiceConfig};
//!
//! let state_dir = std::env::temp_dir().join(format!("snn-svc-doc-{}", std::process::id()));
//! let server = Server::bind(ServiceConfig::loopback(&state_dir)).unwrap();
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let mut spec = JobSpec::synthetic_repro(4, vec![6], 2, 7);
//! spec.preset = "fast".into(); // doc-test scale
//! let job = client.submit(spec).unwrap();
//! let record = client.watch(job, |_event| {}).unwrap();
//! assert_eq!(record.state, JobState::Done);
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! let _ = std::fs::remove_dir_all(&state_dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// Locks are built on a `Rank` and taken only inside owner methods, and
// the clock is read through `snn_obs::clock` (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods)]

pub mod bus;
pub mod client;
pub mod protocol;
pub mod server;
pub mod store;

pub use bus::EventBus;
pub use client::Client;
pub use protocol::{
    ClusterStatus, JobEvent, JobEventPayload, JobRecord, JobResult, JobSpec, JobState, JobTimings,
    ModelSpec, Request, Response, PROTOCOL_VERSION,
};
pub use server::{Server, ServiceConfig};
pub use snn_cluster::lock_order;
pub use store::JobStore;
