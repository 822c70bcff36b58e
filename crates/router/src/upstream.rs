//! One replica's upstream: its address plus a small pool of idle
//! keep-alive connections around the shared [`bikron_serve::client`].
//!
//! Reusing pooled connections makes steady-state relays cost zero
//! connection setups. The client's retry policy (DESIGN.md §13) makes a
//! pooled socket the replica closed behind our back cost one fresh dial,
//! not an outage, while a genuinely dead replica fails fast, unanswered,
//! so the router can ask the next one.

use std::sync::Mutex;
use std::time::Duration;

use bikron_serve::client::{Client, ClientError, Conn, Pending, Response};

/// Idle connections pooled per replica; more concurrent checkouts than
/// this simply dial extra sockets that are dropped on check-in.
const POOL_CAP: usize = 16;

/// One replica's client plus its connection pool.
pub struct Upstream {
    client: Client,
    pool: Mutex<Vec<Conn>>,
}

impl Upstream {
    /// A client for `addr` (`host:port`). No connection is made until
    /// the first request.
    pub fn new(addr: String, connect_timeout: Duration, io_timeout: Duration) -> Upstream {
        Upstream {
            client: Client::new(addr, connect_timeout, io_timeout),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The replica's `host:port`.
    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    /// Issue one request on a pooled connection when one is idle; the
    /// connection returns to the pool unless the replica asked to close.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) -> Result<Response, ClientError> {
        let pending = self.send(method, target, body, traceparent)?;
        self.finish(pending)
    }

    /// Write one request on a pooled connection when one is idle (else a
    /// fresh dial) without reading the answer.
    pub fn send(
        &self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) -> Result<Pending, ClientError> {
        let pooled = self.pool.lock().expect("pool lock poisoned").pop();
        self.client.send(pooled, method, target, body, traceparent)
    }

    /// Read the answer to a [`send`](Upstream::send); the connection
    /// returns to the pool unless the replica asked to close.
    pub fn finish(&self, pending: Pending) -> Result<Response, ClientError> {
        let (resp, conn) = self.client.finish(pending)?;
        if let Some(conn) = conn {
            let mut pool = self.pool.lock().expect("pool lock poisoned");
            if pool.len() < POOL_CAP {
                pool.push(conn);
            }
        }
        Ok(resp)
    }
}
