//! A blocking client for the job server's wire protocol, hardened for
//! flaky links: optional connect/read timeouts and bounded
//! exponential-backoff retry — applied to idempotent requests only, so a
//! retried line can never double-submit a job.

use crate::protocol::{
    read_line, write_line, ClusterStatus, JobEvent, JobRecord, JobSpec, Request, Response,
};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Link-resilience tunables. The [`Default`] is fully transparent — no
/// timeouts, no retries — matching the pre-hardening behaviour that the
/// e2e suites rely on.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt connect budget; `None` blocks until the OS gives up.
    pub connect_timeout: Option<Duration>,
    /// Per-response read budget; `None` blocks indefinitely. Cleared
    /// while a `watch` streams (events are legitimately sparse) and
    /// restored afterwards.
    pub read_timeout: Option<Duration>,
    /// Extra attempts for *idempotent* requests (ping, status, list,
    /// metrics, cluster status) after a transport failure. Submit,
    /// cancel, shutdown and watch never retry.
    pub retries: u32,
    /// Backoff before retry `n` is `backoff << n` (exponential).
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
        }
    }
}

impl ClientConfig {
    /// A sensible hardened profile for CLI use over real networks.
    pub fn resilient() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(30)),
            retries: 3,
            backoff: Duration::from_millis(100),
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One (auto-reconnecting) TCP connection to a job server.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
}

/// Why a request attempt failed — transport failures are retryable for
/// idempotent requests, anything the server *said* is not.
enum Attempt {
    /// Send/receive failed or the connection is gone; the link was
    /// dropped and the next attempt reconnects.
    Transport(String),
    /// The server answered, just not something decodable.
    Fatal(String),
}

impl Client {
    /// Connects to a server address such as `"127.0.0.1:7077"` with the
    /// transparent [`ClientConfig::default`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit link-resilience settings.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let conn = Self::open(&addr, &config)?;
        Ok(Self { addr, config, conn: Some(conn) })
    }

    fn open(addr: &SocketAddr, config: &ClientConfig) -> io::Result<Conn> {
        let stream = match config.connect_timeout {
            Some(budget) => TcpStream::connect_timeout(addr, budget)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(config.read_timeout)?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// The connection, reconnecting first when a previous attempt
    /// dropped it.
    #[expect(clippy::expect_used, reason = "populated two lines up when absent")]
    fn conn(&mut self) -> Result<&mut Conn, Attempt> {
        if self.conn.is_none() {
            let conn = Self::open(&self.addr, &self.config)
                .map_err(|e| Attempt::Transport(format!("reconnect failed: {e}")))?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("populated above"))
    }

    fn attempt(&mut self, request: &Request) -> Result<Response, Attempt> {
        let conn = self.conn()?;
        if let Err(e) = write_line(&mut conn.writer, request) {
            self.conn = None;
            return Err(Attempt::Transport(format!("send failed: {e}")));
        }
        match read_line::<Response>(&mut conn.reader) {
            Ok(Some(Ok(response))) => Ok(response),
            Ok(Some(Err(e))) => Err(Attempt::Fatal(e)),
            Ok(None) => {
                self.conn = None;
                Err(Attempt::Transport("server closed the connection".into()))
            }
            Err(e) => {
                self.conn = None;
                Err(Attempt::Transport(format!("receive failed: {e}")))
            }
        }
    }

    /// Sends one request and reads one response. Exactly one attempt —
    /// safe for any request.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.attempt(request).map_err(|e| match e {
            Attempt::Transport(m) | Attempt::Fatal(m) => m,
        })
    }

    /// Sends an idempotent request, retrying transport failures up to
    /// `config.retries` extra attempts with exponential backoff.
    fn request_idempotent(&mut self, request: &Request) -> Result<Response, String> {
        let mut attempt = 0u32;
        loop {
            match self.attempt(request) {
                Ok(response) => return Ok(response),
                Err(Attempt::Fatal(m)) => return Err(m),
                Err(Attempt::Transport(m)) => {
                    if attempt >= self.config.retries {
                        return Err(m);
                    }
                    let backoff = self.config.backoff.saturating_mul(1 << attempt.min(16));
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    /// Submits a job, returning its id. Never retried: a lost response
    /// leaves the submission status unknown, and a blind resend could
    /// run the job twice.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, String> {
        match self.request(&Request::Submit(Box::new(spec)))? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches one job's record (idempotent; retried).
    pub fn status(&mut self, job: u64) -> Result<JobRecord, String> {
        match self.request_idempotent(&Request::Status { job })? {
            Response::Status(record) => Ok(*record),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches every job record, ascending by id (idempotent; retried).
    pub fn list(&mut self) -> Result<Vec<JobRecord>, String> {
        match self.request_idempotent(&Request::List)? {
            Response::Jobs(records) => Ok(records),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests cancellation of a job (not retried).
    pub fn cancel(&mut self, job: u64) -> Result<(), String> {
        match self.request(&Request::Cancel { job })? {
            Response::CancelRequested { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe; returns the server's protocol version
    /// (idempotent; retried).
    pub fn ping(&mut self) -> Result<u64, String> {
        match self.request_idempotent(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a snapshot of the server's metrics registry (idempotent;
    /// retried).
    pub fn metrics(&mut self) -> Result<snn_obs::MetricsSnapshot, String> {
        match self.request_idempotent(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the worker-pool and chunk bookkeeping snapshot
    /// (idempotent; retried).
    pub fn cluster_status(&mut self) -> Result<ClusterStatus, String> {
        match self.request_idempotent(&Request::ClusterStatus)? {
            Response::Cluster(status) => Ok(status),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully (not retried).
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Watches a job: `on_event` sees every streamed [`JobEvent`]; returns
    /// the job's final record once it is terminal. Never retried (a
    /// reconnect would silently drop events mid-stream); the read
    /// timeout is lifted while the stream runs, since a healthy watch
    /// can be quiet for a long time.
    pub fn watch(
        &mut self,
        job: u64,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<JobRecord, String> {
        let streaming_guard = |conn: &Conn, timeout: Option<Duration>| {
            // Read timeouts live on the OS socket, shared by the reader
            // clone; failures here degrade to the previous behaviour.
            let _ = conn.writer.set_read_timeout(timeout);
        };
        let restore = self.config.read_timeout;
        let result = (|| {
            let conn = match self.conn() {
                Ok(conn) => conn,
                Err(Attempt::Transport(m) | Attempt::Fatal(m)) => return Err(m),
            };
            streaming_guard(conn, None);
            write_line(&mut conn.writer, &Request::Watch { job })
                .map_err(|e| format!("send failed: {e}"))?;
            // First line: the snapshot (or an error for unknown jobs).
            let snapshot = match self.read_streamed()? {
                Response::Status(record) => *record,
                Response::Error { message } => return Err(message),
                other => return Err(unexpected(&other)),
            };
            if snapshot.state.is_terminal() {
                return Ok(snapshot);
            }
            loop {
                match self.read_streamed()? {
                    Response::Event(event) => {
                        let terminal = matches!(
                            &event.payload,
                            crate::protocol::JobEventPayload::State { state, .. }
                                if state.is_terminal()
                        );
                        on_event(&event);
                        if terminal {
                            // The stream is over; fetch the final record.
                            break;
                        }
                    }
                    other => return Err(unexpected(&other)),
                }
            }
            if let Some(conn) = &self.conn {
                streaming_guard(conn, restore);
            }
            self.status(job)
        })();
        if let Some(conn) = &self.conn {
            streaming_guard(conn, restore);
        }
        result
    }

    fn read_streamed(&mut self) -> Result<Response, String> {
        let Some(conn) = self.conn.as_mut() else {
            return Err("connection lost mid-stream".into());
        };
        match read_line::<Response>(&mut conn.reader) {
            Ok(Some(Ok(response))) => Ok(response),
            Ok(Some(Err(e))) => Err(e),
            Ok(None) => {
                self.conn = None;
                Err("server closed the connection".into())
            }
            Err(e) => {
                self.conn = None;
                Err(format!("receive failed: {e}"))
            }
        }
    }
}

fn unexpected(response: &Response) -> String {
    match response {
        Response::Error { message } => message.clone(),
        other => format!("unexpected response: {}", serde::json::to_string(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Accepts `drops` connections and kills each immediately, then
    /// serves Pong forever on the next one. Returns the bound address
    /// and the accept counter.
    fn flaky_listener(drops: usize) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { return };
                counter.fetch_add(1, Ordering::SeqCst);
                if i < drops {
                    drop(stream); // half-open: accepted, then torn down
                    continue;
                }
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(Some(_)) = read_line::<Request>(&mut reader) {
                    if write_line(&mut writer, &Response::Pong { version: PROTOCOL_VERSION })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });
        (addr, accepts)
    }

    /// Accepts connections and never answers anything.
    fn silent_listener() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut parked = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                parked.push(stream); // keep the socket open, say nothing
            }
        });
        addr
    }

    #[test]
    fn read_timeout_turns_a_silent_server_into_an_error() {
        let addr = silent_listener();
        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(80)),
            ..ClientConfig::default()
        };
        let started = snn_obs::clock::monotonic();
        let err = Client::connect_with(addr, config).unwrap().ping().unwrap_err();
        assert!(err.contains("receive failed"), "{err}");
        assert!(
            snn_obs::clock::monotonic() - started < Duration::from_secs(5),
            "timed out promptly"
        );
    }

    #[test]
    fn idempotent_requests_retry_through_a_flaky_link() {
        let (addr, accepts) = flaky_listener(2);
        let config = ClientConfig {
            retries: 3,
            backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        // Attempt 1 dies on the torn-down first connection, attempt 2 on
        // the second; attempt 3 reconnects to the healthy listener.
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
        assert!(accepts.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn retries_are_bounded() {
        let (addr, _accepts) = flaky_listener(usize::MAX);
        let config = ClientConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        let err = client.ping().unwrap_err();
        // A torn-down connection surfaces as EOF or ECONNRESET depending
        // on timing; both are transport failures.
        assert!(err.contains("server closed") || err.contains("receive failed"), "{err}");
    }

    #[test]
    fn non_idempotent_requests_never_retry() {
        let (addr, accepts) = flaky_listener(usize::MAX);
        let config = ClientConfig {
            retries: 5,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        let err = client.submit(JobSpec::synthetic_repro(4, vec![6], 2, 1)).unwrap_err();
        assert!(err.contains("server closed") || err.contains("receive failed"), "{err}");
        // Exactly the initial connection: a submit must not reconnect.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "no retry connections for submit");
    }
}
