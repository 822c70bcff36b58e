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
use bikron_serve::http::{content_type, Answer, Request};
use bikron_serve::Exchange;

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
            pool: Mutex::new(Vec::with_capacity(POOL_CAP)),
        }
    }

    /// The replica's `host:port`.
    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    /// An idle pooled connection, if there is one.
    fn checkout(&self) -> Option<Conn> {
        self.pool.lock().expect("pool lock poisoned").pop()
    }

    /// Return `conn` to the pool, unless the pool is full.
    fn checkin(&self, conn: Option<Conn>) {
        if let Some(conn) = conn {
            let mut pool = self.pool.lock().expect("pool lock poisoned");
            if pool.len() < POOL_CAP {
                pool.push(conn);
            }
        }
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
        self.client
            .send(self.checkout(), method, target, body, traceparent)
    }

    /// Read the answer to a [`send`](Upstream::send); the connection
    /// returns to the pool unless the replica asked to close.
    pub fn finish(&self, pending: Pending) -> Result<Response, ClientError> {
        let (resp, conn) = self.client.finish(pending)?;
        self.checkin(conn);
        Ok(resp)
    }

    /// Relay `run` to the replica as one run on a pooled connection
    /// (else a fresh dial): each request whole, a `POST` body verbatim,
    /// with its trace context as `traceparent`. The answers are read in
    /// order straight into the exchanges, status, content type and body
    /// verbatim, and `answered` runs as each answer is in. An answer
    /// whose `Content-Type` is not one a bikron server emits is a replica
    /// fault ([`ClientError::ContentType`]), never relabelled. On a
    /// failure, returns how many answers were read and the error; the
    /// exchanges from there on hold no answer.
    pub fn relay(
        &self,
        run: &mut [Exchange],
        mut answered: impl FnMut(),
    ) -> Result<(), (usize, ClientError)> {
        let mut pending = self
            .client
            .send_run(self.checkout(), |requests| {
                for x in run.iter() {
                    let body = (x.req.method() == "POST").then_some(x.req.body());
                    requests.push(
                        x.req.method(),
                        |out| write_target(out, &x.req),
                        body,
                        Some(x.ctx.traceparent_into(&mut [0; 55])),
                    );
                }
            })
            .map_err(|e| (0, e))?;
        for (k, x) in run.iter_mut().enumerate() {
            x.body.clear();
            // The type as sent, kept only when it is not in the table.
            let mut sent = Err(String::new());
            let answer = self
                .client
                .read_answer(&mut pending, &mut x.body, |name, value| {
                    if name.eq_ignore_ascii_case("content-type") {
                        sent = content_type(value).ok_or_else(|| value.to_string());
                    }
                })
                .and_then(|head| {
                    Ok(Answer {
                        status: head.status,
                        content_type: sent.map_err(ClientError::ContentType)?,
                    })
                });
            match answer {
                Ok(answer) => x.answer = answer,
                Err(e) => {
                    x.body.clear();
                    return Err((k, e));
                }
            }
            answered();
        }
        self.checkin(pending.into_conn());
        Ok(())
    }
}

/// Write the request target (`path?query`) for relay. The path survives
/// verbatim (relayed paths are ASCII segment names and indices); query
/// values are re-encoded conservatively.
fn write_target(out: &mut Vec<u8>, req: &Request) {
    out.extend_from_slice(req.path().as_bytes());
    for (i, (k, v)) in req.query_pairs().enumerate() {
        out.push(if i == 0 { b'?' } else { b'&' });
        encode_component(out, k);
        out.push(b'=');
        encode_component(out, v);
    }
}

/// Percent-encode everything outside the unreserved set.
fn encode_component(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => out.push(b),
            _ => out.extend_from_slice(&[b'%', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(raw: &str) -> String {
        let raw = format!("GET {raw} HTTP/1.1\r\n\r\n");
        let req = bikron_serve::http::parse_request(&mut raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_target(&mut out, &req);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn target_rendering_roundtrips_queries() {
        assert_eq!(
            target("/v1/neighbors/5?offset=2&limit=10"),
            "/v1/neighbors/5?offset=2&limit=10"
        );
        assert_eq!(target("/v1/neighbors/5"), "/v1/neighbors/5");
        assert_eq!(target("/v1/x?a=b%20c"), "/v1/x?a=b%20c");
        assert_eq!(target("/v1/x?k=%C3%A9+%2F"), "/v1/x?k=%C3%A9%20%2F");
    }
}
