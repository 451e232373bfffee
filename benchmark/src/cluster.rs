//! A job server with cluster workers, all inside this process and all
//! over real loopback TCP, driven by one closed-loop client: the next
//! job is submitted only when the previous one is `Done`.

use crate::span::Tracer;
use snn_mtfc::cluster::{run_worker, ClusterStatus, WorkerConfig};
use snn_mtfc::service::{Client, JobSpec, JobState, JobTimings, Server, ServiceConfig};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// Faults per leased chunk, as `bench_cluster.sh` and `cluster-bench` use.
const CHUNK_SIZE: usize = 128;

/// A finished coverage job as its client saw it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Submit sent → final record received.
    pub wall_s: f64,
    /// Submit sent → job id received.
    pub submit_rtt_s: f64,
    pub timings: JobTimings,
    pub faults_total: usize,
    pub detected: usize,
    pub digest: String,
    pub test_ticks: usize,
}

impl Job {
    pub fn fault_sim_s(&self) -> f64 {
        // The service reports whole milliseconds; a campaign of this
        // size never rounds to zero.
        self.timings.fault_sim_ms.max(1) as f64 / 1e3
    }

    /// Job wall time the service's own stage timings do not explain.
    pub fn overhead_ms(&self) -> f64 {
        let t = &self.timings;
        let stages = t.queue_wait_ms + t.analyze_ms + t.generation_ms + t.fault_sim_ms;
        self.wall_s * 1e3 - stages as f64
    }
}

/// One long-lived server with `workers` cluster workers (0 keeps
/// campaigns inside the server) and a connected client.
pub struct Session {
    pub workers: usize,
    client: Client,
    server: Option<JoinHandle<std::io::Result<()>>>,
    worker_threads: Vec<JoinHandle<Result<(), String>>>,
    state_dir: PathBuf,
}

impl Session {
    pub fn start(workers: usize, state_dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let config = ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 4,
            state_dir: state_dir.clone(),
            expect_workers: workers,
            chunk_size: CHUNK_SIZE,
            lease_ms: 10_000,
        };
        let server = Server::bind(config).map_err(|e| format!("cannot start server: {e}"))?;
        let addr = server.local_addr();
        let server = std::thread::spawn(move || server.run());
        let worker_threads = (0..workers)
            .map(|i| {
                let cfg = WorkerConfig {
                    addr: addr.to_string(),
                    name: format!("bench-{i}"),
                    threads: 1,
                    // A traced in-process worker would install a collector
                    // in this process; the harness measures from outside.
                    trace: false,
                };
                std::thread::spawn(move || run_worker(&cfg).map(|_| ()).map_err(|e| e.to_string()))
            })
            .collect();
        let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Self { workers, client, server: Some(server), worker_threads, state_dir })
    }

    /// Submits `spec` and waits for its final record.
    pub fn job(&mut self, spec: &JobSpec, tr: &mut Tracer) -> Result<Job, String> {
        let started = Instant::now();
        let (id, submit_rtt_s) = tr.time("service.submit", |_| self.client.submit(spec.clone()));
        let id = id?;
        let (record, _) = tr.time("service.watch", |_| self.client.watch(id, |_| {}));
        let wall_s = started.elapsed().as_secs_f64();
        let record = record?;
        if record.state != JobState::Done {
            return Err(format!(
                "job {id} ended {} ({})",
                record.state,
                record.error.unwrap_or_default()
            ));
        }
        let result = record.result.ok_or("job finished without a result")?;
        Ok(Job {
            wall_s,
            submit_rtt_s,
            timings: result.timings.ok_or("job has no timings")?,
            faults_total: result.faults_total.ok_or("job has no fault count")?,
            detected: result.faults_detected.ok_or("job has no detected count")?,
            digest: result.verdict_digest.ok_or("job has no verdict digest")?,
            test_ticks: result.test_steps,
        })
    }

    /// Median round trip of `n` pings, in microseconds.
    pub fn ping_rtt_us(&mut self, n: usize) -> Result<f64, String> {
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            self.client.ping()?;
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&rtts))
    }

    pub fn status(&mut self) -> Result<ClusterStatus, String> {
        self.client.cluster_status()
    }

    /// Shuts the server down and joins every thread this session
    /// started. Idempotent.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else { return Ok(()) };
        // A server that cannot be told to stop is not joined: the join
        // would never return.
        self.client.shutdown()?;
        let served = server.join().map_err(|_| "server thread panicked".to_string());
        let mut worked = Ok(());
        for t in self.worker_threads.drain(..) {
            let r = t.join().map_err(|_| "worker thread panicked".to_string()).and_then(|r| r);
            worked = worked.and(r);
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
        served?.map_err(|e| format!("server failed: {e}"))?;
        worked
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
