//! One coordinator→shard connection: lazy connect, bounded retry with
//! linear backoff, request deadlines via [`Budget`], and reconnection
//! after any I/O fault.
//!
//! A [`ShardLink`] owns at most one [`TcpStream`] behind a [`Mutex`] —
//! frames on one link are serialized (the daemon's round-robin
//! multiplexing answers them in order), while the coordinator's scatter
//! runs different links concurrently. Every error string a link
//! produces is prefixed `shard <i> (<addr>):` so failures surface named
//! all the way up the coordinator's failure ladder.

use std::io;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use sbml_compose::guard::Site;
use sbml_compose::Budget;
use sbml_serve::protocol::{read_frame, write_frame, Request, Response};

/// How hard a [`ShardLink`] tries before declaring a shard dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (connect + roundtrip counts as one).
    pub attempts: u32,
    /// Base backoff between attempts; attempt `k` waits `k * backoff`.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 5, backoff_ms: 20 }
    }
}

/// A persistent, self-healing connection to one shard daemon.
#[derive(Debug)]
pub struct ShardLink {
    /// The shard index this link serves (`slot % shards == index`).
    pub index: usize,
    /// The daemon's address, as given to the coordinator.
    pub addr: String,
    retry: RetryPolicy,
    deadline_ms: Option<u64>,
    stream: Mutex<Option<TcpStream>>,
}

impl ShardLink {
    /// A link to shard `index` at `addr`. Nothing connects until the
    /// first [`ShardLink::request`].
    pub fn new(
        index: usize,
        addr: String,
        retry: RetryPolicy,
        deadline_ms: Option<u64>,
    ) -> ShardLink {
        ShardLink { index, addr, retry, deadline_ms, stream: Mutex::new(None) }
    }

    /// Send one request and decode the response, retrying (with a fresh
    /// connection) on any I/O fault up to the policy's attempts, all
    /// under the request deadline. The error names this shard.
    pub fn request(&self, request: &Request) -> Result<Response, String> {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline_ms(ms);
        }
        let meter = budget.start();
        let mut guard = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let mut last = "no attempts configured".to_owned();
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(
                    self.retry.backoff_ms.saturating_mul(u64::from(attempt)),
                ));
            }
            if let Err(e) = meter.check_deadline(Site::Shard(self.index)) {
                last = e.to_string();
                break;
            }
            if guard.is_none() {
                match TcpStream::connect(&self.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        if let Some(ms) = self.deadline_ms {
                            let timeout = Some(Duration::from_millis(ms.max(1)));
                            let _ = stream.set_read_timeout(timeout);
                            let _ = stream.set_write_timeout(timeout);
                        }
                        *guard = Some(stream);
                    }
                    Err(e) => {
                        last = format!("connect: {e}");
                        continue;
                    }
                }
            }
            let Some(stream) = guard.as_mut() else { continue };
            match roundtrip(stream, request) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    // The stream may be desynced mid-frame — never
                    // reuse it after a fault.
                    last = e.to_string();
                    *guard = None;
                }
            }
        }
        Err(format!("shard {} ({}): {last}", self.index, self.addr))
    }

    /// [`ShardLink::request`] with an `ERR` answer turned into an error
    /// naming this shard: the exit code and body of the `OK`.
    pub fn call(&self, request: &Request) -> Result<(u8, Vec<u8>), String> {
        match self.request(request)? {
            Response::Ok { code, body } => Ok((code, body)),
            Response::Err { kind, message } => {
                Err(format!("shard {} ({}): ERR {} {message}", self.index, self.addr, kind.token()))
            }
        }
    }

    /// Drop the cached connection (the next request reconnects).
    pub fn disconnect(&self) {
        *self.stream.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

fn roundtrip(stream: &mut TcpStream, request: &Request) -> io::Result<Response> {
    write_frame(stream, &request.encode())?;
    let payload = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
    })?;
    Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn never_up_shard_fails_named_after_retries() {
        // Bind-then-drop guarantees a port nothing listens on.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("probe addr").port()
        };
        let link = ShardLink::new(
            3,
            format!("127.0.0.1:{port}"),
            RetryPolicy { attempts: 2, backoff_ms: 1 },
            None,
        );
        let err = link.request(&Request::Stats).expect_err("nothing listens");
        assert!(err.starts_with("shard 3 (127.0.0.1:"), "names the shard: {err}");
        assert!(err.contains("connect:"), "carries the I/O detail: {err}");
    }

    #[test]
    fn deadline_bounds_the_retry_loop() {
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("probe addr").port()
        };
        // An absurd retry count, a tiny deadline: the budget must win.
        let link = ShardLink::new(
            0,
            format!("127.0.0.1:{port}"),
            RetryPolicy { attempts: 1_000_000, backoff_ms: 5 },
            Some(30),
        );
        let started = std::time::Instant::now();
        let err = link.request(&Request::Stats).expect_err("nothing listens");
        assert!(started.elapsed() < Duration::from_secs(5), "deadline cut the loop");
        assert!(err.starts_with("shard 0 ("), "names the shard: {err}");
    }
}
