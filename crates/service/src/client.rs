//! A blocking client for the job server's wire protocol. A request is
//! sent once and never retried, so a lost response can never
//! double-submit a job; a connection that fails is dropped and the next
//! request reconnects.

use crate::protocol::{
    read_line, write_line, ClusterStatus, JobEvent, JobRecord, JobSpec, Request, Response,
};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One (auto-reconnecting) TCP connection to a job server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    /// Connects to a server address such as `"127.0.0.1:7077"`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let conn = Self::open(&addr)?;
        Ok(Self { addr, conn: Some(conn) })
    }

    fn open(addr: &SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// The connection, reconnecting first when a previous request
    /// dropped it.
    #[expect(clippy::expect_used, reason = "populated two lines up when absent")]
    fn conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            let conn = Self::open(&self.addr).map_err(|e| format!("reconnect failed: {e}"))?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("populated above"))
    }

    /// Sends one request and reads one response.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let conn = self.conn()?;
        if let Err(e) = write_line(&mut conn.writer, request) {
            self.conn = None;
            return Err(format!("send failed: {e}"));
        }
        self.read_response()
    }

    /// Submits a job, returning its id.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, String> {
        match self.request(&Request::Submit(Box::new(spec)))? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches one job's record.
    pub fn status(&mut self, job: u64) -> Result<JobRecord, String> {
        match self.request(&Request::Status { job })? {
            Response::Status(record) => Ok(*record),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches every job record, ascending by id.
    pub fn list(&mut self) -> Result<Vec<JobRecord>, String> {
        match self.request(&Request::List)? {
            Response::Jobs(records) => Ok(records),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests cancellation of a job.
    pub fn cancel(&mut self, job: u64) -> Result<(), String> {
        match self.request(&Request::Cancel { job })? {
            Response::CancelRequested { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u64, String> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a snapshot of the server's metrics registry.
    pub fn metrics(&mut self) -> Result<snn_obs::MetricsSnapshot, String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the worker-pool and chunk bookkeeping snapshot.
    pub fn cluster_status(&mut self) -> Result<ClusterStatus, String> {
        match self.request(&Request::ClusterStatus)? {
            Response::Cluster(status) => Ok(status),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Watches a job: `on_event` sees every streamed [`JobEvent`]; returns
    /// the job's final record once it is terminal.
    pub fn watch(
        &mut self,
        job: u64,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<JobRecord, String> {
        let conn = self.conn()?;
        if let Err(e) = write_line(&mut conn.writer, &Request::Watch { job }) {
            self.conn = None;
            return Err(format!("send failed: {e}"));
        }
        // First line: the snapshot (or an error for unknown jobs).
        let snapshot = match self.read_response()? {
            Response::Status(record) => *record,
            Response::Error { message } => return Err(message),
            other => return Err(unexpected(&other)),
        };
        if snapshot.state.is_terminal() {
            return Ok(snapshot);
        }
        loop {
            match self.read_response()? {
                Response::Event(event) => {
                    let terminal = matches!(
                        &event.payload,
                        crate::protocol::JobEventPayload::State { state, .. }
                            if state.is_terminal()
                    );
                    on_event(&event);
                    if terminal {
                        // The stream is over; fetch the final record.
                        return self.status(job);
                    }
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Reads one response line. A line that does not decode keeps the
    /// connection; a transport failure drops it.
    fn read_response(&mut self) -> Result<Response, String> {
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

    /// Accepts one connection and kills it immediately, then serves Pong
    /// forever on the next one.
    fn flaky_listener() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { return };
                if i == 0 {
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
        addr
    }

    #[test]
    fn a_failed_request_is_not_retried_and_the_next_one_reconnects() {
        let mut client = Client::connect(flaky_listener()).unwrap();
        let err = client.ping().unwrap_err();
        // A torn-down connection surfaces as EOF or ECONNRESET depending
        // on timing; both are transport failures.
        assert!(err.contains("server closed") || err.contains("receive failed"), "{err}");
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
    }
}
