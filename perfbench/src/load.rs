//! Closed- and open-loop load over a fixed set of keep-alive connections.
//!
//! Each connection has its own client thread and walks the trace with a
//! stride of the connection count, continuing where the previous phase
//! left off and wrapping at the end. Every answer is checked against the
//! hash of its expected body; a 200 with any other body is a wrong answer.
//!
//! The closed loop keeps [`PIPELINE_DEPTH`] requests in flight on each
//! connection (HTTP/1.1 pipelining), so it measures how many queries the
//! servers answer per second when work is always queued. With one request
//! in flight it would mostly measure how fast client and server threads
//! wake each other on a 2-core machine, which varied by ±30% from run to
//! run where pipelined throughput varied by about a third of that.

use std::time::{Duration, Instant};

use crate::client::Client;
use crate::stats::{drive_open_loop, Clock, Schedule};
use crate::truth::{body_hash, Request, Trace, Truth};

/// Client threads, each with one keep-alive connection.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in the closed loop.
pub const PIPELINE_DEPTH: usize = 8;
/// How many failed requests each connection describes on stderr.
const REPORTED_FAILURES: u64 = 3;
/// Sleep overshoot on this class of machine is ~55 µs (the default timer
/// slack), so the open loop sleeps until this long before a due time and
/// yields the rest of the way.
const SPIN_NS: u64 = 80_000;

/// Totals of one phase on all connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// HTTP requests sent.
    pub requests: u64,
    /// Queries in them (a batch counts each line).
    pub queries: u64,
    /// Queries whose request failed: wrong body, non-200, or transport error.
    pub failed: u64,
    /// Requests answered 200 with a wrong body.
    pub wrong: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Open loop, per request: latency from its due time, in ns.
    pub latency_ns: Vec<u64>,
    /// Open loop, per request: how late the sender issued it, in ns.
    pub late_ns: Vec<u64>,
}

impl Phase {
    /// Fold another phase's counts and samples into this one.
    pub fn merge(&mut self, other: Phase) {
        self.requests += other.requests;
        self.queries += other.queries;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
    }

    /// Queries answered correctly per second of the phase.
    pub fn verified_per_s(&self) -> f64 {
        (self.queries - self.failed) as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean open-loop latency from the send (not the due time), in µs.
    pub fn mean_send_latency_us(&self) -> f64 {
        let sum: u64 = self
            .latency_ns
            .iter()
            .zip(&self.late_ns)
            .map(|(l, late)| l - late)
            .sum();
        sum as f64 / self.latency_ns.len().max(1) as f64 / 1e3
    }
}

/// One connection and its position in the trace.
struct Conn {
    addr: String,
    client: Option<Client>,
    /// Next trace index this connection sends.
    next: usize,
    /// Pipelined requests, concatenated.
    out: Vec<u8>,
    reported: u64,
}

impl Conn {
    fn new(addr: &str, first: usize) -> Conn {
        Conn {
            addr: addr.to_string(),
            client: None,
            next: first,
            out: Vec::new(),
            reported: 0,
        }
    }

    /// Send the next `depth` requests of the trace back to back, then read
    /// and check their answers, accounting for each in `phase`.
    fn exchange(&mut self, trace: &Trace, truth: &Truth, phase: &mut Phase, depth: usize) {
        let n = trace.requests.len();
        let first = self.next;
        let indices = (0..depth).map(|k| (first + k * CONNECTIONS) % n);
        self.next = (first + depth * CONNECTIONS) % n;
        self.out.clear();
        for i in indices.clone() {
            let r = &trace.requests[i];
            self.out.extend_from_slice(&r.bytes);
            phase.requests += 1;
            phase.queries += r.queries.len() as u64;
        }
        if self.client.is_none() {
            self.client = Client::connect(&self.addr).ok();
        }
        let sent = match self.client.as_mut() {
            Some(client) => client.send(&self.out).map_err(|e| e.to_string()),
            None => Err(format!("cannot connect to {}", self.addr)),
        };
        let mut broken = sent.err();
        for i in indices {
            let request = &trace.requests[i];
            let queries = request.queries.len() as u64;
            if broken.is_some() {
                phase.failed += queries;
                continue;
            }
            let client = self
                .client
                .as_mut()
                .expect("connected when the send succeeded");
            match client.read_response() {
                Ok((200, body)) if body_hash(body) == request.expect => {}
                Ok((status, body)) => {
                    phase.failed += queries;
                    if status == 200 {
                        phase.wrong += 1;
                    }
                    if self.reported < REPORTED_FAILURES {
                        self.reported += 1;
                        report_mismatch(trace, truth, request, status, body);
                    }
                }
                Err(e) => {
                    phase.failed += queries;
                    broken = Some(e.to_string());
                }
            }
        }
        if let Some(e) = broken {
            if self.reported < REPORTED_FAILURES {
                self.reported += 1;
                eprintln!("perfbench: requests to {} failed: {e}", self.addr);
            }
            // The connection's framing is lost; the next exchange starts a
            // fresh one.
            self.client = None;
        }
    }
}

fn report_mismatch(trace: &Trace, truth: &Truth, request: &Request, status: u16, body: &[u8]) {
    let expected = match trace.queries_of(request) {
        [single] => truth
            .render(single)
            .unwrap_or_else(|| "(a /v1/stats body; checked field by field)".into()),
        batch => truth.render_batch(batch),
    };
    let head = |s: &str| s.chars().take(400).collect::<String>();
    eprintln!(
        "perfbench: WRONG ANSWER to `{}`: HTTP {status}\n  got:      {}\n  expected: {}",
        head(
            String::from_utf8_lossy(&request.bytes)
                .lines()
                .next()
                .unwrap_or("")
        ),
        head(&String::from_utf8_lossy(body)),
        head(&expected),
    );
}

/// Load generator over [`CONNECTIONS`] connections to one address.
pub struct Load<'a> {
    trace: &'a Trace,
    truth: &'a Truth,
    conns: Vec<Conn>,
}

impl<'a> Load<'a> {
    /// Open the connections. Connection `i` starts at trace index `i`.
    pub fn connect(addr: &str, trace: &'a Trace, truth: &'a Truth) -> Result<Load<'a>, String> {
        let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|i| Conn::new(addr, i)).collect();
        for conn in &mut conns {
            conn.client =
                Some(Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?);
        }
        Ok(Load {
            trace,
            truth,
            conns,
        })
    }

    /// Close the connections, freeing the server workers they hold; the
    /// next exchange on each opens a fresh one.
    pub fn disconnect(&mut self) {
        for conn in &mut self.conns {
            conn.client = None;
        }
    }

    /// Closed loop for `duration`: each connection sends its next
    /// [`PIPELINE_DEPTH`] requests as soon as the previous ones are
    /// answered. With `spans`, every exchange is also recorded as a span
    /// in the process tracer.
    pub fn closed(&mut self, duration: Duration, spans: bool) -> Phase {
        let (trace, truth) = (self.trace, self.truth);
        let started = Instant::now();
        let deadline = started + duration;
        let mut total = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    s.spawn(move || {
                        let mut phase = Phase::default();
                        loop {
                            let t0 = Instant::now();
                            if t0 >= deadline {
                                return phase;
                            }
                            conn.exchange(trace, truth, &mut phase, PIPELINE_DEPTH);
                            if spans {
                                let ns = t0.elapsed().as_nanos() as u64;
                                bikron_obs::trace::tracer().record_span("client.exchange", t0, ns);
                            }
                        }
                    })
                })
                .collect();
            let mut total = Phase::default();
            for h in handles {
                total.merge(h.join().expect("closed-loop client thread"));
            }
            total
        });
        total.elapsed = started.elapsed();
        total
    }

    /// Open loop: `rate` requests per second in total, spread evenly over
    /// the connections, one in flight each, for `duration`. Latency runs
    /// from each request's due time.
    pub fn open(&mut self, duration: Duration, rate: f64) -> Phase {
        let (trace, truth) = (self.trace, self.truth);
        let n = self.conns.len() as u64;
        let gap_ns = (1e9 / rate) as u64;
        let started = Instant::now();
        let mut total = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let schedule = Schedule {
                        interval_ns: gap_ns * n,
                        offset_ns: gap_ns * i as u64,
                    };
                    s.spawn(move || {
                        let mut phase = Phase::default();
                        let samples = drive_open_loop(
                            schedule,
                            duration.as_nanos() as u64,
                            &mut RealClock { start: started },
                            |_| conn.exchange(trace, truth, &mut phase, 1),
                        );
                        phase.latency_ns = samples.latency_ns;
                        phase.late_ns = samples.late_ns;
                        phase
                    })
                })
                .collect();
            let mut total = Phase::default();
            for h in handles {
                total.merge(h.join().expect("open-loop client thread"));
            }
            total
        });
        total.elapsed = started.elapsed();
        total
    }
}

/// Wall clock for the open loop: sleeps until [`SPIN_NS`] before a due
/// time, then yields until it, so requests leave on time without keeping
/// a server thread off a core.
struct RealClock {
    start: Instant,
}

impl Clock for RealClock {
    fn now_ns(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::Mix;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A stand-in server that answers each request with the next of
    /// `bodies`, except that the `corrupt`-th body has one digit changed.
    fn fake_server(bodies: Vec<String>, corrupt: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut pending = Vec::new();
            let mut buf = [0u8; 64 * 1024];
            for (i, body) in bodies.iter().enumerate() {
                // Wait for the next complete request (head plus body).
                loop {
                    if let Some(end) = complete_request(&pending) {
                        pending.drain(..end);
                        break;
                    }
                    let n = s.read(&mut buf).unwrap();
                    assert!(n > 0, "client hung up");
                    pending.extend_from_slice(&buf[..n]);
                }
                let mut body = body.clone().into_bytes();
                if i == corrupt {
                    let at = body.iter().position(u8::is_ascii_digit).unwrap();
                    body[at] = if body[at] == b'9' { b'8' } else { body[at] + 1 };
                }
                let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                s.write_all(head.as_bytes()).unwrap();
                s.write_all(&body).unwrap();
            }
        });
        (addr, handle)
    }

    /// Length of the first complete request in `buf`, if there is one.
    fn complete_request(buf: &[u8]) -> Option<usize> {
        let head = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let text = String::from_utf8_lossy(&buf[..head]).to_ascii_lowercase();
        let body: usize = text
            .split("content-length: ")
            .nth(1)
            .and_then(|t| t.split("\r\n").next())
            .map_or(0, |v| v.parse().unwrap());
        (buf.len() >= head + body).then_some(head + body)
    }

    #[test]
    fn one_wrong_body_fails_the_run() {
        let truth = Truth::table1();
        let trace = Trace::generate(&truth, Mix::Batch { lines: 3 }, 11, 16);
        let bodies: Vec<String> = trace
            .requests
            .iter()
            .map(|r| truth.render_batch(trace.queries_of(r)))
            .collect();
        let (addr, server) = fake_server(bodies, 5);
        let mut conn = Conn::new(&addr, 0);
        let mut phase = Phase::default();
        for i in 0..trace.requests.len() {
            conn.next = i;
            conn.exchange(&trace, &truth, &mut phase, 1);
        }
        server.join().unwrap();
        assert_eq!(phase.requests, 16);
        // The wrong body fails its request's three queries.
        assert_eq!((phase.wrong, phase.failed), (1, 3));
        let outcome = crate::Outcome {
            attempted: phase.queries,
            failed: phase.failed,
            wrong: phase.wrong,
            metrics: Vec::new(),
        };
        assert_eq!(outcome.exit_code(), 1);
        let clean = crate::Outcome {
            failed: 0,
            wrong: 0,
            ..outcome
        };
        assert_eq!(clean.exit_code(), 0);
    }

    #[test]
    fn pipelined_exchanges_check_every_answer() {
        let truth = Truth::table1();
        let trace = Trace::generate(&truth, Mix::Batch { lines: 2 }, 5, 16);
        // The connection strides the trace by CONNECTIONS, so with depth
        // 4 from index 0 it sends 0, 2, 4, 6, then 8, 10, 12, 14.
        let bodies: Vec<String> = (0..8)
            .map(|k| truth.render_batch(trace.queries_of(&trace.requests[k * CONNECTIONS])))
            .collect();
        let (addr, server) = fake_server(bodies, 6);
        let mut conn = Conn::new(&addr, 0);
        let mut phase = Phase::default();
        conn.exchange(&trace, &truth, &mut phase, 4);
        conn.exchange(&trace, &truth, &mut phase, 4);
        server.join().unwrap();
        assert_eq!((phase.requests, phase.queries), (8, 16));
        assert_eq!((phase.wrong, phase.failed), (1, 2));
        assert_eq!(conn.next, 0);
    }
}
