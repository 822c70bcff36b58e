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
//! worker answers `408` and closes the connection. Answers leave the
//! same way: a flush that cannot finish within the deadline (a client
//! that pipelines but never reads) closes the connection.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bikron_obs::window::{WindowedCounter, WindowedHistogram};
use bikron_obs::{
    Counter, Gauge, LocalHistogram, Registry, Report, SpanSink, TraceContext, WindowRegistry,
};

use crate::http::{
    render_answer, request_is_buffered, stamp_trace_id, status_index, write_response, Answer,
    HttpError, Refusal, Request, Response, STATUSES,
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

/// How many rendered bytes a connection may hold back while more
/// pipelined requests wait in its read buffer; at this size they are
/// flushed even mid-burst.
const MAX_PENDING_OUTPUT: usize = 64 * 1024;

/// The most requests one burst holds: the first, read with a blocking
/// read, and those already whole in the read buffer behind it.
const MAX_BURST: usize = 16;

/// A connection's read buffer, bytes: room for a pipelined burst of
/// eight 64-line batches, so it arrives as one burst, and far below a
/// socket buffer, so a run the router relays on it (at most one request
/// plus this many bytes) is never left half written (DESIGN.md §13).
const READ_BUFFER: usize = 16 << 10;

/// The largest capacity a connection's request, body and output buffers
/// keep between requests; a buffer that one large request or answer grew
/// past this is released after it.
const MAX_RETAINED: usize = 64 * 1024;

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

/// One request of a burst and its answer: the parsed request, its trace
/// context, and the body and head a [`Handler`] answers it with. A
/// connection keeps one per burst slot and reuses its buffers.
pub struct Exchange {
    /// The parsed request.
    pub req: Request,
    /// The request's trace context: adopted from its `traceparent` as a
    /// child span, or newly minted.
    pub ctx: TraceContext,
    /// The answer's body; empty when the handler is called.
    pub body: String,
    /// The answer's status and content type, set by the handler.
    pub answer: Answer,
}

impl Exchange {
    /// An exchange for `req` under a newly minted trace context.
    pub fn new(req: Request) -> Exchange {
        Exchange {
            req,
            ctx: TraceContext::generate(),
            body: String::new(),
            answer: Answer::json(500),
        }
    }
}

impl Default for Exchange {
    fn default() -> Exchange {
        Exchange::new(Request::default())
    }
}

/// What the transport loop needs from a server: answers, the
/// [`Transport`] it keeps for the server, and the request bookkeeping
/// only a serve process does. Framing, keep-alive, shedding, the request
/// deadline, trace identity, profiler phases, the transport metrics and
/// the shutdown flag stay in the loop and its [`Transport`].
pub trait Handler: Send + Sync + 'static {
    /// Answer a burst of parsed requests, each under its own trace
    /// context: render every exchange's body onto its `body` and set its
    /// `answer`. The answers leave in burst order.
    fn respond(&self, burst: &mut [Exchange]);
    /// The server's transport metrics and shutdown flag.
    fn transport(&self) -> &Transport;
    /// Where finished per-request span trees go; `None` records none.
    fn spans(&self) -> Option<&SpanSink> {
        None
    }
    /// Publish one access-log event for `req` (`None`: the request did
    /// not parse, or timed out). [`request_shape`] names it.
    fn log_access(
        &self,
        _req: Option<&Request>,
        _status: u16,
        _latency_ns: u64,
        _bytes: u64,
        _trace_id: &str,
    ) {
    }
}

/// What every bikron server keeps about its transport, whatever it
/// answers: the request series `{prefix}.requests` and
/// `{prefix}.request_ns` (windowed), its 5xx counter (windowed),
/// `{prefix}.bytes_out`, `.inflight`, `.connections`, `.shed`,
/// `.timeouts` and `.status.{code}`, and the shutdown flag. Every
/// handle is resolved once, so recording never takes the registry's
/// name-lookup mutex for a status in [`STATUSES`].
pub struct Transport {
    registry: Arc<Registry>,
    prefix: &'static str,
    windows: WindowRegistry,
    requests: Arc<WindowedCounter>,
    request_ns: Arc<WindowedHistogram>,
    errors: Arc<WindowedCounter>,
    bytes_out: Arc<Counter>,
    inflight: Arc<Gauge>,
    connections: Arc<Counter>,
    shed: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// `{prefix}.status.{code}`, one per [`STATUSES`] entry.
    status: Vec<Arc<Counter>>,
    shutdown: AtomicBool,
}

impl Transport {
    /// Resolve the series `{prefix}.*` in `registry`, with 5xx answers
    /// counted under `errors`: `serve.errors_5xx` on a serve process,
    /// and on the router `router.errors`, which also counts its failed
    /// upstream attempts.
    pub fn new(registry: Arc<Registry>, prefix: &'static str, errors: &str) -> Transport {
        let windows = WindowRegistry::new();
        let name = |series: &str| format!("{prefix}.{series}");
        Transport {
            requests: windows.counter(&registry, &name("requests")),
            request_ns: windows.histogram(&registry, &name("request_ns")),
            errors: windows.counter(&registry, errors),
            bytes_out: registry.counter(&name("bytes_out")),
            inflight: registry.gauge(&name("inflight")),
            connections: registry.counter(&name("connections")),
            shed: registry.counter(&name("shed")),
            timeouts: registry.counter(&name("timeouts")),
            status: STATUSES
                .iter()
                .map(|&(code, _)| registry.counter(&name(&format!("status.{code}"))))
                .collect(),
            shutdown: AtomicBool::new(false),
            windows,
            registry,
            prefix,
        }
    }

    /// The registry the series live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A snapshot of the registry with the windowed series attached.
    pub fn report(&self) -> Report {
        let mut report = self.registry.snapshot();
        self.windows.snapshot_into(&mut report);
        report
    }

    /// Answered requests (windowed).
    pub fn requests(&self) -> &WindowedCounter {
        &self.requests
    }

    /// Request latency, in nanoseconds (windowed).
    pub fn request_ns(&self) -> &WindowedHistogram {
        &self.request_ns
    }

    /// The 5xx counter (windowed); the router also counts failed
    /// upstream attempts here.
    pub fn errors(&self) -> &WindowedCounter {
        &self.errors
    }

    /// Record answered requests: one update per metric, however many
    /// requests the tally holds. A 408 is the loop's request deadline
    /// firing, so it also counts a timeout.
    pub fn record(&self, tally: &RequestTally) {
        if tally.requests() == 0 {
            return;
        }
        self.requests.add(tally.requests());
        let errors = tally.errors_5xx();
        if errors > 0 {
            self.errors.add(errors);
        }
        let timeouts = tally.count(408);
        if timeouts > 0 {
            self.timeouts.add(timeouts);
        }
        self.bytes_out.add(tally.bytes());
        self.request_ns.record_local(tally.latency_ns());
        for (counter, &n) in self.status.iter().zip(&tally.listed) {
            if n > 0 {
                counter.add(n);
            }
        }
        for &status in &tally.unlisted {
            self.registry
                .counter(&format!("{}.status.{status}", self.prefix))
                .inc();
        }
    }

    /// Whether the accept loop and its workers should stop: shutdown
    /// was requested, or the process got SIGINT/SIGTERM.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::ctrl_c_received()
    }

    /// Ask the server to stop (admin endpoint, tests, orderly teardown).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// How an access-log line or a captured trace names a request: its
/// method and [`path_shape`](state::path_shape), or `-` and `timeout`
/// (a 408) or `malformed` for one that did not parse.
pub fn request_shape(req: Option<&Request>, status: u16) -> (&str, String) {
    match req {
        Some(req) => (req.method(), state::path_shape(req.path())),
        None if status == 408 => ("-", "timeout".to_string()),
        None => ("-", "malformed".to_string()),
    }
}

/// The metrics of a run of answered requests, folded on the worker that
/// answered them and handed to [`Transport::record`] in one call: request
/// and byte totals, per-status counts, and the latency distribution.
#[derive(Debug, Clone, Default)]
pub struct RequestTally {
    /// Requests per [`STATUSES`] entry.
    listed: [u64; STATUSES.len()],
    /// One entry per request whose status is not in [`STATUSES`].
    unlisted: Vec<u16>,
    bytes: u64,
    latency_ns: LocalHistogram,
}

impl RequestTally {
    /// Count one answered request.
    pub fn add(&mut self, status: u16, bytes: u64, ns: u64) {
        match status_index(status) {
            Some(i) => self.listed[i] += 1,
            None => self.unlisted.push(status),
        }
        self.bytes += bytes;
        self.latency_ns.record(ns);
    }

    /// Requests counted.
    pub fn requests(&self) -> u64 {
        self.latency_ns.count()
    }

    /// Requests answered with `status`.
    pub fn count(&self, status: u16) -> u64 {
        match status_index(status) {
            Some(i) => self.listed[i],
            None => self.unlisted.iter().filter(|&&s| s == status).count() as u64,
        }
    }

    /// Requests answered with a 5xx status.
    pub fn errors_5xx(&self) -> u64 {
        let listed: u64 = STATUSES
            .iter()
            .zip(&self.listed)
            .filter(|((code, _), _)| *code >= 500)
            .map(|(_, n)| n)
            .sum();
        listed + self.unlisted.iter().filter(|&&s| s >= 500).count() as u64
    }

    /// Response bytes written.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Request latencies, in nanoseconds.
    pub fn latency_ns(&self) -> &LocalHistogram {
        &self.latency_ns
    }

    /// Empty it again, keeping its capacity.
    pub fn clear(&mut self) {
        self.listed = [0; STATUSES.len()];
        self.unlisted.clear();
        self.bytes = 0;
        self.latency_ns.clear();
    }
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

        let transport = handler.transport();
        while !transport.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    transport.connections.inc();
                    if let Err(TrySendError::Full(shed) | TrySendError::Disconnected(shed)) =
                        queue.try_send(stream)
                    {
                        shed_connection(shed, transport);
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
fn shed_connection(mut stream: TcpStream, transport: &Transport) {
    let resp = Response::error(503, "pending-connection queue is full; retry shortly");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let bytes = write_response(&mut stream, &resp, false).unwrap_or(0);
    let _ = stream.flush();
    transport.shed.inc();
    let mut tally = RequestTally::default();
    tally.add(503, bytes, 0);
    transport.record(&tally);
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

/// One connection's socket: reads under [`REQUEST_DEADLINE`] (a read
/// waits up to `idle` for a request's first byte, later ones no longer
/// than the request's deadline), and the answers rendered but not yet
/// written, with their requests' metrics, which go out (and are
/// recorded) before the next blocking read.
struct DeadlineReader<'h, H: Handler> {
    handler: &'h H,
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
    /// Rendered answers not yet written; cleared only by a flush that
    /// wrote all of them, so bytes left here after an error mean the
    /// write failed, not the read.
    out: Vec<u8>,
    /// The requests answered since the last flush.
    tally: RequestTally,
    /// Whether this connection holds one count of the in-flight gauge.
    inflight: bool,
}

impl<H: Handler> DeadlineReader<'_, H> {
    /// Write every pending answer, then record their requests.
    fn flush(&mut self) -> io::Result<()> {
        let written = self.write_out();
        self.record();
        written
    }

    /// Write every pending answer in one `write(2)`, within
    /// [`REQUEST_DEADLINE`]. The socket's write timeout is the deadline,
    /// so only a write the peer's full buffers cut short (a client that
    /// does not read) shortens it, and costs a `setsockopt`.
    fn write_out(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + REQUEST_DEADLINE;
        let mut sent = 0;
        let mut shortened = false;
        while sent < self.out.len() {
            match self.stream.write(&self.out[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if sent < self.out.len() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                self.stream.set_write_timeout(Some(left))?;
                shortened = true;
            }
        }
        if shortened {
            self.stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
        }
        self.out.clear();
        if self.out.capacity() > MAX_RETAINED {
            self.out = Vec::new();
        }
        Ok(())
    }

    /// Record the answered requests' metrics in one call and give back
    /// the in-flight count: the flush that writes a burst's answers (or
    /// fails to) ends it.
    fn record(&mut self) {
        let transport = self.handler.transport();
        if self.tally.requests() > 0 {
            transport.record(&self.tally);
            self.tally.clear();
        }
        if self.inflight {
            transport.inflight.lower(1);
            self.inflight = false;
        }
    }
}

impl<H: Handler> Drop for DeadlineReader<'_, H> {
    fn drop(&mut self) {
        self.record();
    }
}

impl<H: Handler> Read for DeadlineReader<'_, H> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // No answer waits behind a read. This runs inside the `accept`
        // frame, so the nested `write` frame keeps write time apart (and
        // shows as a `write` child of the next request's `accept` span).
        if !self.out.is_empty() {
            let _write_frame = bikron_obs::phase("write");
            self.flush()?;
        }
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

/// A flush failed and the connection closes: count it as a timeout
/// when the deadline ran out rather than the peer going away.
fn flush_failed(handler: &impl Handler, e: &io::Error) {
    if matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    ) {
        handler.transport().timeouts.inc();
    }
}

/// One keep-alive session: read a burst → respond → render, until
/// close/error/timeout/shutdown.
///
/// A burst is the next request, read with a blocking read, plus every
/// request behind it that is already whole in the read buffer
/// ([`request_is_buffered`]), up to [`MAX_BURST`]; a request asking to
/// close the connection, or one that does not parse, ends it. So no read
/// blocks while a request of the burst waits for its answer, and the
/// handler sees the burst at once: the router relays it as one run. A
/// server that records span trees reads bursts of one, so each tree
/// holds its own request's phases.
///
/// Bookkeeping stays per request: each gets its own trace context, is
/// counted in the connection's [`RequestTally`] (recorded by the flush
/// that writes its answer), and gets one access-log event and (when the
/// handler has an enabled span sink) one span tree.
///
/// A burst's answers are written at once when no further request bytes
/// are buffered, when the connection is about to close, or when
/// [`MAX_PENDING_OUTPUT`] bytes are pending; otherwise they wait for the
/// answers to the next burst, and all of them leave in one write before
/// the next blocking read.
///
/// The burst's requests, bodies and the output are reused for the whole
/// connection, so a steady run of bursts allocates nothing; a buffer
/// grown past [`MAX_RETAINED`] is released after its request.
fn serve_connection<H: Handler>(stream: TcpStream, handler: &H, read_timeout: Duration) {
    if stream.set_read_timeout(Some(read_timeout)).is_err()
        || stream.set_write_timeout(Some(REQUEST_DEADLINE)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = BufReader::with_capacity(
        READ_BUFFER,
        DeadlineReader {
            handler,
            stream,
            idle: read_timeout,
            timeout: read_timeout,
            deadline: None,
            expired: false,
            out: Vec::new(),
            tally: RequestTally::default(),
            inflight: false,
        },
    );
    let mut burst = vec![Exchange::default()];
    let mut bytes = [0u64; MAX_BURST];
    loop {
        // On keep-alive connections the `accept` frame includes idle
        // time between requests — acceptable for a diagnostic span and
        // for the profiler (a quiet server really is parked in the
        // socket read), and kept out of the latency metrics below.
        let io_started = Instant::now();
        // A pipelined request already in the buffer has had its first byte.
        let pipelined = !reader.buffer().is_empty();
        reader.get_mut().deadline = pipelined.then(|| io_started + REQUEST_DEADLINE);
        // With tracing on, every phase this worker opens until the answer
        // is written records a span in the request's tree; the first,
        // `accept`, starts the tree's clock at the socket read.
        let request = handler
            .spans()
            .is_some_and(SpanSink::enabled)
            .then(bikron_obs::attach_request);
        let accept_frame = bikron_obs::phase("accept");
        let parsed = burst[0].req.read_from(&mut reader);
        drop(accept_frame);
        // `parse` is a zero-width marker: parsing happens inside the read.
        drop(bikron_obs::child_span(|| "parse".to_string()));
        // Parse failures and timeouts are answered, then the connection
        // is closed: after a framing error the byte stream can't be
        // trusted, and a client that missed the deadline gets no more.
        let mut refused = match parsed {
            Ok(()) => None,
            // The flush before a read failed: the answers cannot go out.
            Err(HttpError::Io(e)) if !reader.get_ref().out.is_empty() => {
                return flush_failed(handler, &e);
            }
            Err(HttpError::Io(_)) if reader.get_ref().expired => Some(Refusal::new(
                408,
                format!(
                    "request not complete within {} s of its first byte",
                    REQUEST_DEADLINE.as_secs()
                ),
            )),
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(e) => Some(e.refusal()),
        };
        // Further requests join the burst only when already whole in the
        // buffer; a traced request is read alone, so its span tree holds
        // its own phases.
        let cap = if request.is_some() { 1 } else { MAX_BURST };
        let mut len = usize::from(refused.is_none());
        while len > 0
            && len < cap
            && !burst[len - 1].req.wants_close()
            && request_is_buffered(reader.buffer())
        {
            if burst.len() == len {
                burst.push(Exchange::default());
            }
            match burst[len].req.read_from(&mut reader) {
                Ok(()) => len += 1,
                Err(e) => {
                    refused = Some(e.refusal());
                    break;
                }
            }
        }
        // The latency clock starts once the burst has been read, so
        // keep-alive idle time between requests never pollutes the
        // windowed p99 the health endpoint alarms on (nor the slow-trace
        // capture decision, which uses the same total).
        let started = Instant::now();
        // Held from the first answer of a burst to the flush that writes
        // it: the live gauge a dashboard polls must count work in flight.
        let conn = reader.get_mut();
        if !conn.inflight {
            handler.transport().inflight.raise(1);
            conn.inflight = true;
        }
        // Every request gets a trace identity, traced or not; a refused
        // one, in the slot after the parsed ones, gets a new one.
        let answered = len + usize::from(refused.is_some());
        for (i, x) in burst[..answered].iter_mut().enumerate() {
            let (ctx, remote_parent) = trace_context((i < len).then_some(&x.req));
            x.ctx = ctx;
            x.body.clear();
            if let Some(request) = &request {
                request.set_context(ctx, remote_parent);
            }
        }
        if len > 0 {
            let evaluate_frame = bikron_obs::phase("evaluate");
            handler.respond(&mut burst[..len]);
            drop(evaluate_frame);
        }
        let keep_alive = match refused {
            Some(refusal) => {
                let x = &mut burst[len];
                x.answer = refusal.answer(&mut x.body);
                false
            }
            None => !burst[len - 1].req.wants_close(),
        };
        let last = !keep_alive || handler.transport().shutdown_requested();
        let write_frame = bikron_obs::phase("write");
        let buffered = !reader.buffer().is_empty();
        let conn = reader.get_mut();
        // Error bodies carry the trace id so a client pasting a failure
        // into a bug report hands over the lookup key; success bodies
        // stay byte-identical to the untraced server (the id travels in
        // the `x-bikron-trace-id` header instead).
        for (i, x) in burst[..answered].iter_mut().enumerate() {
            let mut trace_buf = [0; 32];
            let trace_hex = x.ctx.trace_id_hex_into(&mut trace_buf);
            stamp_trace_id(x.answer, &mut x.body, trace_hex);
            let closes = last && i + 1 == answered;
            bytes[i] = render_answer(&mut conn.out, x.answer, &x.body, !closes, Some(trace_hex));
        }
        let flush_now = last || conn.out.len() >= MAX_PENDING_OUTPUT || !buffered;
        let written = if flush_now { conn.write_out() } else { Ok(()) };
        drop(write_frame);
        let ns = started.elapsed().as_nanos() as u64;
        for (x, &sent) in burst[..answered].iter().zip(&bytes) {
            conn.tally.add(x.answer.status, sent, ns);
        }
        if flush_now {
            conn.record();
        }
        if let Err(e) = written {
            return flush_failed(handler, &e);
        }
        for (i, (x, &sent)) in burst[..answered].iter().zip(&bytes).enumerate() {
            let mut trace_buf = [0; 32];
            let trace_hex = x.ctx.trace_id_hex_into(&mut trace_buf);
            let parsed = (i < len).then_some(&x.req);
            handler.log_access(parsed, x.answer.status, ns, sent, trace_hex);
        }
        if let (Some(request), Some(sink)) = (request, handler.spans()) {
            // Offer the finished tree for tail capture: a traced burst
            // holds one request, answered or refused.
            let (parsed, status) = ((len == 1).then_some(&burst[0].req), burst[0].answer.status);
            let (method, shape) = request_shape(parsed, status);
            sink.offer(request.finish(), method, &shape, status, bytes[0], ns);
        }
        if last {
            return;
        }
        for x in &mut burst[..len] {
            if x.body.capacity() > MAX_RETAINED {
                x.body = String::new();
            }
            x.req.release_over(MAX_RETAINED);
        }
    }
}

/// A request's trace context and its remote parent span id: adopted
/// from the request's `traceparent` when one parses (our root span
/// becomes a child in the caller's trace), otherwise minted, with
/// remote parent 0.
fn trace_context(req: Option<&Request>) -> (TraceContext, u64) {
    match req
        .and_then(|req| req.header("traceparent"))
        .and_then(TraceContext::parse_traceparent)
    {
        Some(remote) => (TraceContext::child_of(remote), remote.span_id),
        None => (TraceContext::generate(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tally counts listed and unlisted statuses, 5xx and bytes, and
    /// starts over when cleared.
    #[test]
    fn tally_counts_statuses_bytes_and_latency() {
        let mut tally = RequestTally::default();
        for (status, bytes, ns) in [(200, 10, 5), (503, 20, 7), (418, 30, 9), (408, 1, 1)] {
            tally.add(status, bytes, ns);
        }
        assert_eq!(tally.requests(), 4);
        assert_eq!(
            (tally.count(200), tally.count(418), tally.count(408)),
            (1, 1, 1)
        );
        assert_eq!(tally.errors_5xx(), 1);
        assert_eq!(tally.bytes(), 61);
        assert_eq!(tally.latency_ns().count(), 4);
        tally.clear();
        assert_eq!(
            (tally.requests(), tally.count(418), tally.bytes()),
            (0, 0, 0)
        );
    }

    /// Every status with a reason phrase has a pre-resolved counter, so
    /// no emitted status (408 included) takes the registry mutex; a
    /// status outside [`STATUSES`] is still counted, by name.
    #[test]
    fn every_named_status_has_a_preresolved_counter() {
        let registry = Arc::new(Registry::new());
        let transport = Transport::new(Arc::clone(&registry), "t", "t.errors");
        assert_eq!(transport.status.len(), STATUSES.len());
        let mut tally = RequestTally::default();
        for &(code, _) in &STATUSES {
            tally.add(code, 0, 0);
        }
        assert!(status_index(408).is_some());
        assert!(status_index(418).is_none());
        tally.add(418, 0, 0);
        transport.record(&tally);
        let report = transport.report();
        for &(code, _) in &STATUSES {
            assert_eq!(report.counter(&format!("t.status.{code}")), Some(1));
        }
        assert_eq!(report.counter("t.status.418"), Some(1));
        assert_eq!(
            report.counter("t.requests"),
            Some(STATUSES.len() as u64 + 1)
        );
        assert_eq!(report.counter("t.timeouts"), Some(1));
        let fives = STATUSES.iter().filter(|(code, _)| *code >= 500).count();
        assert_eq!(report.counter("t.errors"), Some(fives as u64));
        assert_eq!(
            report.window("t.errors").map(|w| w.w1m.count),
            Some(fives as u64)
        );
    }
}
