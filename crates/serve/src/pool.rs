//! The one transport loop: a fixed thread-pool acceptor with a bounded
//! pending-connection queue, shared by `bikron serve` and `bikron router`.
//!
//! One acceptor thread (the caller of [`Server::run`]) pulls connections
//! off the listener and offers them to a bounded queue; `threads` workers
//! drain it, each running a keep-alive request loop against the shared
//! [`Handler`]. When the queue is full the acceptor *sheds load*: it
//! writes a `503 Service Unavailable` (with `Retry-After`) directly on
//! the fresh socket and closes it, so clients get an immediate, explicit
//! signal instead of an unbounded accept backlog. Memory is therefore
//! bounded by `threads + queue_capacity` sockets regardless of offered
//! load, and time by [`REQUEST_DEADLINE`]: once a request's first byte
//! arrives, its head and body must follow within that deadline or the
//! worker answers `408` and closes the connection.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bikron_obs::{Gauge, SpanRecorder, SpanSink, TraceContext};

use crate::http::{
    parse_request, write_response, write_response_traced, HttpError, Request, Response,
};
use crate::state::{self, ServeState};

/// How long the nonblocking acceptor sleeps between polls before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a request may take to arrive, head and body together, once
/// its first byte has. A client trickling bytes just inside the per-read
/// timeout can hold a worker no longer than this. Idle keep-alive time
/// before the first byte falls under [`ServerConfig::read_timeout`]
/// instead.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Server configuration (transport-level knobs only; request behaviour
/// lives in the [`Handler`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker thread count (min 1).
    pub threads: usize,
    /// Bounded pending-connection queue; beyond it, connections are shed
    /// with 503.
    pub queue_capacity: usize,
    /// Per-socket read timeout — bounds how long an idle keep-alive
    /// client can pin a worker, and caps each read inside a request.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// What the transport loop needs from a server: an answer, plus the
/// bookkeeping that differs between a shard ([`ServeState`]) and the
/// router. Framing, keep-alive, shedding, the request deadline, trace
/// identity and profiler phases stay in the loop.
pub trait Handler: Send + Sync + 'static {
    /// Answer one parsed request under its trace context (adopted from
    /// the request's `traceparent` as a child span, or newly minted).
    fn respond(&self, req: &Request, ctx: &TraceContext) -> Response;
    /// Whether the accept loop and its workers should stop.
    fn shutdown_requested(&self) -> bool;
    /// Where finished per-request span trees go; `None` records none.
    fn spans(&self) -> Option<&SpanSink> {
        None
    }
    /// Publish one access-log event. `shape` is the request's
    /// [`path_shape`](state::path_shape); `cache` its cache outcome.
    #[allow(clippy::too_many_arguments)]
    fn log_access(
        &self,
        _method: &str,
        _shape: &str,
        _status: u16,
        _latency_ns: u64,
        _bytes: u64,
        _cache: Option<bool>,
        _trace_id: Option<&str>,
    ) {
    }
    /// Record one answered request (status, bytes written, latency).
    fn record(&self, status: u16, bytes: u64, ns: u64);
    /// Record a connection shed with 503 at the accept gate.
    fn record_shed(&self, bytes: u64);
    /// Count an accepted connection.
    fn connection_opened(&self);
    /// The in-flight request gauge.
    fn inflight(&self) -> &Gauge;
}

/// A bound, not-yet-running server.
pub struct Server<H: Handler = ServeState> {
    listener: TcpListener,
    handler: Arc<H>,
    config: ServerConfig,
}

impl<H: Handler> Server<H> {
    /// Bind the listener. Fails fast (before any thread spawns) on a bad
    /// or busy address.
    pub fn bind(config: ServerConfig, handler: Arc<H>) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            handler,
            config,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on the calling thread until the handler
    /// requests shutdown (admin endpoint or signal), then drain and join
    /// the workers.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            handler,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        // The bounded pending-connection queue; workers take turns
        // waiting on its one receiver.
        let (queue, pending) = sync_channel(config.queue_capacity.max(1));
        let pending = Arc::new(Mutex::new(pending));

        let workers: Vec<_> = (0..config.threads.max(1))
            .map(|n| {
                let pending = Arc::clone(&pending);
                let handler = Arc::clone(&handler);
                let read_timeout = config.read_timeout;
                std::thread::Builder::new()
                    .name(format!("http-worker-{n}"))
                    .spawn(move || worker_loop(&pending, &*handler, read_timeout))
                    .expect("spawn worker thread")
            })
            .collect();

        while !handler.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    handler.connection_opened();
                    if let Err(TrySendError::Full(shed) | TrySendError::Disconnected(shed)) =
                        queue.try_send(stream)
                    {
                        shed_connection(shed, &*handler);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Closing the queue wakes idle workers; busy ones finish their
        // in-flight request, then see the flag.
        drop(queue);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Write the 503 load-shed response on a fresh socket and close it.
fn shed_connection(mut stream: TcpStream, handler: &impl Handler) {
    let resp = Response::error(503, "pending-connection queue is full; retry shortly");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let bytes = write_response(&mut stream, &resp, false).unwrap_or(0);
    let _ = stream.flush();
    handler.record_shed(bytes);
}

/// Worker: pull connections until the acceptor closes the queue,
/// serving each keep-alive session to completion.
fn worker_loop(pending: &Mutex<Receiver<TcpStream>>, handler: &impl Handler, idle: Duration) {
    loop {
        let next = pending.lock().expect("queue lock poisoned").recv();
        match next {
            Ok(stream) => serve_connection(stream, handler, idle),
            Err(_) => return,
        }
    }
}

/// The socket's read side under [`REQUEST_DEADLINE`]: a read waits up
/// to `idle` for a request's first byte, later ones no longer than the
/// request's deadline.
struct DeadlineReader {
    stream: TcpStream,
    idle: Duration,
    /// The timeout set on the socket; a request that arrives within one
    /// idle-length read costs no extra `setsockopt`.
    timeout: Duration,
    /// When the current request must be complete; `None` before its
    /// first byte.
    deadline: Option<Instant>,
    /// A read failed because the deadline ran out.
    expired: bool,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()));
        let timeout = left.map_or(self.idle, |left| left.min(self.idle));
        self.expired = left.is_some_and(|left| left <= self.idle);
        if timeout.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        if timeout != self.timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        // `expired` survives only a failed read.
        let n = self.stream.read(buf)?;
        self.expired = false;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + REQUEST_DEADLINE);
        }
        Ok(n)
    }
}

/// One keep-alive session: parse → respond → write, recording metrics,
/// one access-log event, and (when the handler has an enabled span sink)
/// one span tree per request, until close/error/timeout/shutdown.
fn serve_connection(stream: TcpStream, handler: &impl Handler, read_timeout: Duration) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        idle: read_timeout,
        timeout: read_timeout,
        deadline: None,
        expired: false,
    });
    loop {
        // The recorder's clock is based here, before the read, so the
        // `accept` span shows real time spent pulling the request off
        // the wire. On keep-alive connections this includes idle time
        // between requests — acceptable for a diagnostic span, and kept
        // out of the latency metrics below.
        let io_started = Instant::now();
        // A pipelined request already in the buffer has had its first byte.
        let pipelined = !reader.buffer().is_empty();
        reader.get_mut().deadline = pipelined.then(|| io_started + REQUEST_DEADLINE);
        // The profiler's `accept` frame covers the blocking read (and,
        // on keep-alive connections, idle time between requests — the
        // sampler attributes a quiet server to `accept`, which is true:
        // the worker really is parked in the socket read).
        let accept_frame = bikron_obs::profile::phase("accept");
        let parsed = parse_request(&mut reader);
        drop(accept_frame);
        // Parse failures and timeouts are answered, then the connection
        // is closed: after a framing error the byte stream can't be
        // trusted, and a client that missed the deadline gets no more.
        let parsed = match parsed {
            Ok(req) => Ok(req),
            Err(HttpError::Io(_)) if reader.get_ref().expired => Err(Response::error(
                408,
                &format!(
                    "request not complete within {} s of its first byte",
                    REQUEST_DEADLINE.as_secs()
                ),
            )),
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(e) => Err(Response::error(e.status(), &e.detail())),
        };
        // The latency clock starts once a full request has been read, so
        // keep-alive idle time between requests never pollutes the
        // windowed p99 the health endpoint alarms on (nor the slow-trace
        // capture decision, which uses the same total).
        let started = Instant::now();
        // Held through handling AND the response write: the live gauge a
        // dashboard polls must count requests still being flushed.
        let _inflight = handler.inflight().enter();
        state::reset_cache_outcome();
        // Every request gets a trace identity, recorder or not: adopt
        // the client's `traceparent` when one parses (our root span
        // becomes a child in the caller's trace), otherwise mint ids.
        let (ctx, remote_parent) = match parsed
            .as_ref()
            .ok()
            .and_then(|req| req.header("traceparent"))
            .and_then(TraceContext::parse_traceparent)
        {
            Some(remote) => (TraceContext::child_of(remote), remote.span_id),
            None => (TraceContext::generate(), 0),
        };
        let trace_hex = ctx.trace_id_hex();
        let recorder = handler
            .spans()
            .filter(|sink| sink.enabled())
            .map(|_| Arc::new(SpanRecorder::with_start(ctx, remote_parent, io_started)));
        if let Some(rec) = &recorder {
            // `accept` retroactively covers the socket read; `parse` is
            // a zero-width marker (parsing happens inside the read).
            let accept = rec.begin_at("accept", None, 0);
            rec.end(accept);
            let parse = rec.begin("parse", None);
            rec.end(parse);
        }
        let (resp, keep_alive, req) = match parsed {
            Ok(req) => {
                // Install the recorder thread-locally for the duration
                // of handling so handlers can hang cache/serialize (and
                // per-batch-item) child spans off the evaluate span.
                let evaluate = recorder.as_ref().and_then(|rec| {
                    let tok = rec.begin("evaluate", None)?;
                    state::set_current_recorder(Arc::clone(rec), tok);
                    Some(tok)
                });
                let evaluate_frame = bikron_obs::profile::phase("evaluate");
                let resp = handler.respond(&req, &ctx);
                drop(evaluate_frame);
                state::take_current_recorder();
                if let Some(rec) = &recorder {
                    rec.end(evaluate);
                }
                let keep = !req.wants_close();
                (resp, keep, Some(req))
            }
            Err(resp) => (resp, false, None),
        };
        // Error bodies carry the trace id so a client pasting a failure
        // into a bug report hands over the lookup key; success bodies
        // stay byte-identical to the untraced server (the id travels in
        // the `x-bikron-trace-id` header instead).
        let resp = if resp.status >= 400 {
            resp.with_trace_id(&trace_hex)
        } else {
            resp
        };
        let status = resp.status;
        let write = recorder.as_ref().and_then(|rec| rec.begin("write", None));
        let write_frame = bikron_obs::profile::phase("write");
        let wrote = write_response_traced(&mut writer, &resp, keep_alive, Some(&trace_hex));
        drop(write_frame);
        let Ok(bytes) = wrote else { return };
        if let Some(rec) = &recorder {
            rec.end(write);
        }
        let ns = started.elapsed().as_nanos() as u64;
        handler.record(status, bytes, ns);
        let (method, shape) = match &req {
            Some(req) => (req.method.as_str(), state::path_shape(&req.path)),
            None if status == 408 => ("-", "timeout".to_string()),
            None => ("-", "malformed".to_string()),
        };
        let cache = state::cache_outcome();
        handler.log_access(method, &shape, status, ns, bytes, cache, Some(&trace_hex));
        if let (Some(rec), Some(sink)) = (recorder, handler.spans()) {
            // Sole owner now that the thread-local clone is dropped;
            // offer the finished tree for tail capture.
            if let Ok(rec) = Arc::try_unwrap(rec) {
                sink.offer(rec, method, &shape, status, bytes, ns);
            }
        }
        if !keep_alive || handler.shutdown_requested() {
            return;
        }
    }
}
