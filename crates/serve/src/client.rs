//! The one keep-alive HTTP/1.1 client of the router's upstreams,
//! `loadgen`, `replay`, `monitor`, `trace` and `profile`. Every response
//! dimension is bounded (head lines, header count, body), the body is
//! read as it arrives rather than allocated from its `Content-Length`,
//! and each violation is a named [`ClientError`].
//!
//! The unit of work is a **run**: requests written on one connection in
//! one `write`, then their answers read in order
//! ([`send_run`](Client::send_run), then
//! [`read_answer`](Client::read_answer) once per request).
//! [`send`](Client::send) and [`finish`](Client::finish) are the run of
//! one, [`request`](Client::request) is the two back to back, and a
//! fan-out sends to every server before finishing any. One deadline,
//! `io_timeout` after the send, bounds the whole run, retry included. A
//! run is rendered into its connection's reused buffer and each answer's
//! head is parsed where it lies in the read buffer, so a warm
//! connection relays a run without allocating.
//!
//! Framing rule: an answer before the last of a run is accepted only if
//! the bytes after its body begin an `HTTP/1.` status line (or nothing
//! follows it); the last answer only if no bytes beyond its body have
//! arrived. A server whose `Content-Length` undercounts therefore gives
//! a named [`ClientError::Malformed`], never a shorter body.
//!
//! Retry policy (DESIGN.md §13): at most one retry per run, on a fresh
//! dial, and only when the run failed in transport before its first
//! response byte (the server may have closed an idle connection behind
//! our back) and before the deadline. All bikron queries are pure reads,
//! so `POST /v1/batch` may retry too. A failure that survives the retry
//! says whether any byte of the failing answer arrived
//! ([`ClientError::unanswered`]), so a caller with another server to ask
//! knows which requests of the run it may send there.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bikron_obs::json::u64_digits;

/// Longest accepted response status or header line, bytes.
pub const MAX_HEAD_LINE: usize = 8192;
/// Most header lines accepted in one response head.
pub const MAX_HEAD_LINES: usize = 64;
/// Largest accepted response body (bikron's largest are `/metrics`).
pub const MAX_RESPONSE_BODY: usize = 64 << 20;

/// A connection's read buffer, bytes: room for the longest head line,
/// so every head line is parsed where it lies.
const READ_BUFFER: usize = 16 << 10;

/// How every answer of a run after the first must begin.
const STATUS_PREFIX: &[u8] = b"HTTP/1.";

/// Everything that can go wrong in one exchange.
#[derive(Debug)]
pub enum ClientError {
    /// A timeout, or a read that failed after the response began.
    Io(io::Error),
    /// Connect, write or read failed before any response byte arrived,
    /// and not by timing out: the server sent nothing.
    Unanswered(io::Error),
    /// The server closed the connection before sending a status line.
    Closed,
    /// A status or header line is longer than [`MAX_HEAD_LINE`].
    HeadLineTooLong,
    /// The head has more than [`MAX_HEAD_LINES`] header lines.
    TooManyHeaders,
    /// The declared `Content-Length` exceeds [`MAX_RESPONSE_BODY`].
    BodyTooLarge(u64),
    /// The status line is not `HTTP/1.x CODE ...`.
    NotHttp(String),
    /// A bad header, no `Content-Length`, non-UTF-8, EOF in the head, or
    /// bytes after the body that break the framing rule.
    Malformed(&'static str),
    /// The connection closed after `got` of the `expected` body bytes.
    Truncated {
        /// Declared `Content-Length`.
        expected: usize,
        /// Body bytes received before EOF.
        got: usize,
    },
    /// A relayed answer's `Content-Type` (empty when it had none) is not
    /// one a bikron server emits ([`CONTENT_TYPES`](crate::http::CONTENT_TYPES)).
    ContentType(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::Unanswered(e) => write!(f, "no response: {e}"),
            ClientError::Closed => write!(f, "connection closed before a response"),
            ClientError::HeadLineTooLong => write!(f, "head line over {MAX_HEAD_LINE} bytes"),
            ClientError::TooManyHeaders => write!(f, "over {MAX_HEAD_LINES} header lines"),
            ClientError::BodyTooLarge(n) => {
                write!(f, "Content-Length {n} over {MAX_RESPONSE_BODY}")
            }
            ClientError::NotHttp(line) => write!(f, "not an HTTP/1.x status line: {line:?}"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
            ClientError::Truncated { expected, got } => {
                write!(f, "connection closed after {got} of {expected} body bytes")
            }
            ClientError::ContentType(t) if t.is_empty() => write!(f, "no Content-Type"),
            ClientError::ContentType(t) => {
                write!(f, "Content-Type {t:?} is not one a bikron server emits")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether the exchange failed before any response byte arrived, and
    /// not by timing out: the server sent nothing, so the same request
    /// may go to another server.
    pub fn unanswered(&self) -> bool {
        matches!(self, ClientError::Unanswered(_) | ClientError::Closed)
    }
}

/// Classify a failure that happened before any response byte: a timeout
/// stays [`ClientError::Io`] (the server is slow, not gone, so asking
/// again would only wait again), anything else is
/// [`ClientError::Unanswered`].
fn before_response(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ClientError::Io(e),
        _ => ClientError::Unanswered(e),
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One response: the status, the headers bikron callers read, and the
/// body verbatim.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value (defaults to [`JSON_TYPE`](crate::http::JSON_TYPE)).
    pub content_type: String,
    /// `x-bikron-trace-id` value, if sent.
    pub trace_id: Option<String>,
    /// Whether the server sent `Connection: close`.
    pub close: bool,
    /// The body, exactly as sent.
    pub body: String,
}

/// What [`Client::read_answer`] returns besides the body: the status,
/// and whether the server asked to close the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// HTTP status code.
    pub status: u16,
    /// Whether the server sent `Connection: close`.
    pub close: bool,
}

/// One open connection: the socket, its read buffer, and the run it
/// sends next (kept for the one retry). Reads stop at the deadline of
/// the run in flight on it.
pub struct Conn {
    stream: TcpStream,
    deadline: Instant,
    /// The read timeout set on the socket. It never reaches past the
    /// deadline when a read starts, so it changes (one `setsockopt`)
    /// only when less time is left than it allows.
    timeout: Duration,
    /// Received bytes; `buf[start..end]` are not yet consumed.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// The requests of the run, rendered.
    run: Vec<u8>,
}

impl fmt::Debug for Conn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conn")
            .field("peer", &self.stream.peer_addr().ok())
            .field("buffered", &(self.end - self.start))
            .finish_non_exhaustive()
    }
}

impl Conn {
    /// Write the rendered run in one piece; reads of its answers end at
    /// `deadline`.
    fn send(&mut self, deadline: Instant) -> io::Result<()> {
        self.deadline = deadline;
        self.stream.write_all(&self.run)
    }

    /// Read more bytes after those held, under the deadline; `Ok(0)` at
    /// EOF. A read the socket timeout ends early is read again.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        loop {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            if self.timeout > left {
                // Lowered a little further than needed, so the following
                // reads of this run cost no `setsockopt`.
                self.timeout = left - left / 16;
                self.stream.set_read_timeout(Some(self.timeout))?;
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Wait for the first byte of an answer; [`ClientError::Closed`] on
    /// EOF.
    fn first_byte(&mut self) -> Result<(), ClientError> {
        if self.start == self.end && self.fill().map_err(before_response)? == 0 {
            return Err(ClientError::Closed);
        }
        Ok(())
    }

    /// The next head line, bounded: the range of its text in `buf` (line
    /// ending stripped) and where the line after it starts. `None` on EOF
    /// before its first byte.
    fn head_line(&mut self) -> Result<Option<(usize, usize, usize)>, ClientError> {
        let mut scanned = 0;
        loop {
            let held = &self.buf[self.start + scanned..self.end];
            if let Some(at) = held.iter().position(|&b| b == b'\n') {
                let nl = self.start + scanned + at;
                if nl + 1 - self.start > MAX_HEAD_LINE + 2 {
                    return Err(ClientError::HeadLineTooLong);
                }
                let mut text_end = nl;
                while text_end > self.start && self.buf[text_end - 1] == b'\r' {
                    text_end -= 1;
                }
                return Ok(Some((self.start, text_end, nl + 1)));
            }
            scanned = self.end - self.start;
            if scanned > MAX_HEAD_LINE + 2 {
                return Err(ClientError::HeadLineTooLong);
            }
            if self.fill()? == 0 {
                if scanned == 0 {
                    return Ok(None);
                }
                return Err(ClientError::Malformed("EOF inside the head"));
            }
        }
    }

    /// Read one `Content-Length`-framed answer: its body is appended to
    /// `body`, each header other than `Content-Length` and `Connection`
    /// goes to `header`, and the framing rule is applied; `last` says
    /// whether it ends the run.
    fn read_answer(
        &mut self,
        body: &mut String,
        header: &mut impl FnMut(&str, &str),
        last: bool,
    ) -> Result<Head, ClientError> {
        let (start, end, next) = self.head_line()?.ok_or(ClientError::Closed)?;
        let status_line = std::str::from_utf8(&self.buf[start..end])
            .map_err(|_| ClientError::Malformed("non-UTF-8 head"))?;
        let mut parts = status_line.split_whitespace();
        if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
            return Err(ClientError::NotHttp(status_line.chars().take(64).collect()));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ClientError::Malformed("missing status code"))?;
        self.start = next;
        let mut head = Head {
            status,
            close: false,
        };
        let mut length = None;
        for lines in 0.. {
            let (start, end, next) = self
                .head_line()?
                .ok_or(ClientError::Malformed("EOF inside the head"))?;
            if start == end {
                self.start = next;
                break;
            }
            if lines == MAX_HEAD_LINES {
                return Err(ClientError::TooManyHeaders);
            }
            let line = std::str::from_utf8(&self.buf[start..end])
                .map_err(|_| ClientError::Malformed("non-UTF-8 head"))?;
            let (name, value) = line
                .split_once(':')
                .ok_or(ClientError::Malformed("header line without a colon"))?;
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                let n: u64 = value
                    .parse()
                    .map_err(|_| ClientError::Malformed("unparsable Content-Length"))?;
                if n > MAX_RESPONSE_BODY as u64 {
                    return Err(ClientError::BodyTooLarge(n));
                }
                length = Some(n as usize);
            } else if name.eq_ignore_ascii_case("connection") {
                head.close = value.eq_ignore_ascii_case("close");
            } else {
                header(name, value);
            }
            self.start = next;
        }
        let expected = length.ok_or(ClientError::Malformed("missing Content-Length"))?;
        self.read_body(body, expected)?;
        if last {
            // Bytes already read past the last body mean the server's
            // `Content-Length` undercounted.
            if self.start != self.end {
                return Err(ClientError::Malformed("bytes beyond Content-Length"));
            }
        } else {
            // A failed read leaves the judgement to what arrived; the
            // next answer's read meets the failure itself.
            while self.end - self.start < STATUS_PREFIX.len()
                && matches!(self.fill(), Ok(n) if n > 0)
            {}
            let after = &self.buf[self.start..self.end.min(self.start + STATUS_PREFIX.len())];
            if !STATUS_PREFIX.starts_with(after) {
                return Err(ClientError::Malformed("bytes beyond Content-Length"));
            }
        }
        Ok(head)
    }

    /// Append `expected` body bytes to `body` as they arrive: the buffer
    /// grows with the bytes, never with the claim.
    fn read_body(&mut self, body: &mut String, expected: usize) -> Result<(), ClientError> {
        let mut left = expected;
        loop {
            let held = &self.buf[self.start..self.end.min(self.start + left)];
            let taken = match std::str::from_utf8(held) {
                Ok(text) => {
                    body.push_str(text);
                    held.len()
                }
                // A character cut by the end of the buffer is completed
                // by the next read.
                Err(e) if e.error_len().is_none() && held.len() < left => {
                    let valid = e.valid_up_to();
                    body.push_str(std::str::from_utf8(&held[..valid]).expect("valid prefix"));
                    valid
                }
                Err(_) => return Err(ClientError::Malformed("non-UTF-8 body")),
            };
            self.start += taken;
            left -= taken;
            if left == 0 {
                return Ok(());
            }
            if self.fill()? == 0 {
                let got = expected - left + (self.end - self.start);
                return Err(ClientError::Truncated { expected, got });
            }
        }
    }
}

/// A run [`send_run`](Client::send_run) wrote whose answers
/// [`read_answer`](Client::read_answer) has yet to read.
#[derive(Debug)]
pub struct Pending {
    conn: Conn,
    /// Set at send time: the whole run, retry included, ends by then.
    deadline: Instant,
    /// Whether the one retry has been spent.
    retried: bool,
    /// Answers not yet read.
    left: usize,
    /// Whether an answer has been read: the run is then past retrying.
    begun: bool,
    /// Whether the connection can carry another run: no answer failed
    /// or asked to close it.
    reusable: bool,
}

impl Pending {
    /// The connection, for another run, once every answer was read and
    /// none failed or asked to close it.
    pub fn into_conn(self) -> Option<Conn> {
        (self.left == 0 && self.reusable).then_some(self.conn)
    }
}

/// The requests of one run, rendered onto its connection's reused
/// buffer; [`Client::send_run`] hands it to the caller to fill.
pub struct Requests<'a> {
    out: &'a mut Vec<u8>,
    host: &'a str,
    count: usize,
}

impl Requests<'_> {
    /// Add one request, its target written by `target`. The body goes out
    /// verbatim, framed by `Content-Length`.
    pub fn push(
        &mut self,
        method: &str,
        target: impl FnOnce(&mut Vec<u8>),
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) {
        let out = &mut *self.out;
        out.extend_from_slice(method.as_bytes());
        out.push(b' ');
        target(out);
        out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
        out.extend_from_slice(self.host.as_bytes());
        out.extend_from_slice(b"\r\n");
        if let Some(tp) = traceparent {
            out.extend_from_slice(b"traceparent: ");
            out.extend_from_slice(tp.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if let Some(body) = body {
            out.extend_from_slice(b"Content-Length: ");
            out.extend_from_slice(u64_digits(body.len() as u64, &mut [0; 20]));
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body.unwrap_or_default());
        self.count += 1;
    }
}

/// A client for one address. It holds no connections: callers pass their
/// idle one to [`request`](Client::request) and get a reusable one back.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`); nothing is dialled yet.
    /// `io_timeout` bounds each run from its send to the last body
    /// byte, and each request write.
    pub fn new(addr: impl Into<String>, connect_timeout: Duration, io_timeout: Duration) -> Client {
        Client {
            addr: addr.into(),
            connect_timeout,
            io_timeout,
        }
    }

    /// The server's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a fresh connection: `TCP_NODELAY` (Nagle would hold each
    /// small request for the peer's delayed ACK) plus both timeouts. Every
    /// failure, a connect timeout included, is
    /// [`ClientError::Unanswered`]: nothing was sent.
    pub fn dial(&self) -> Result<Conn, ClientError> {
        self.open().map_err(ClientError::Unanswered)
    }

    fn open(&self) -> io::Result<Conn> {
        let sock = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&sock, self.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        Ok(Conn {
            stream,
            deadline: Instant::now() + self.io_timeout,
            timeout: self.io_timeout,
            buf: vec![0; READ_BUFFER].into_boxed_slice(),
            start: 0,
            end: 0,
            run: Vec::new(),
        })
    }

    /// A fresh connection carrying `stale`'s rendered run.
    fn redial(&self, stale: &mut Conn) -> Result<Conn, ClientError> {
        let mut fresh = self.dial()?;
        std::mem::swap(&mut fresh.run, &mut stale.run);
        Ok(fresh)
    }

    /// One request over `conn` (dialling when `None`) under the retry
    /// policy; returns the response and, unless closed, the connection.
    /// Exactly [`send`](Client::send) then [`finish`](Client::finish).
    pub fn request(
        &self,
        conn: Option<Conn>,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) -> Result<(Response, Option<Conn>), ClientError> {
        let pending = self.send(conn, method, target, body, traceparent)?;
        self.finish(pending)
    }

    /// Write one request over `conn` (dialling when `None`) and return
    /// without reading the answer, so a caller can have requests to
    /// several servers in flight at once: the run of one.
    pub fn send(
        &self,
        conn: Option<Conn>,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) -> Result<Pending, ClientError> {
        self.send_run(conn, |run| {
            run.push(
                method,
                |out| out.extend_from_slice(target.as_bytes()),
                body,
                traceparent,
            );
        })
    }

    /// Render a run with `render` onto `conn` (dialling when `None`) and
    /// write it in one piece, without reading any answer. A failed write
    /// or dial is retried once on a fresh dial.
    pub fn send_run(
        &self,
        conn: Option<Conn>,
        render: impl FnOnce(&mut Requests<'_>),
    ) -> Result<Pending, ClientError> {
        let deadline = Instant::now() + self.io_timeout;
        let (mut conn, mut retried) = match conn.map_or_else(|| self.dial(), Ok) {
            Ok(conn) => (conn, false),
            Err(_) => (self.dial()?, true),
        };
        conn.run.clear();
        let mut requests = Requests {
            out: &mut conn.run,
            host: &self.addr,
            count: 0,
        };
        render(&mut requests);
        let left = requests.count;
        if let Err(e) = conn.send(deadline) {
            if retried {
                return Err(before_response(e));
            }
            conn = self.redial(&mut conn)?;
            conn.send(deadline).map_err(before_response)?;
            retried = true;
        }
        Ok(Pending {
            conn,
            deadline,
            retried,
            left,
            begun: false,
            reusable: true,
        })
    }

    /// Read the next answer of `run`: its body is appended to `body`,
    /// and each of its headers but `Content-Length` and `Connection` goes
    /// to `header` as a (name, value) pair. When the connection fails
    /// before the run's first response byte, and neither the retry nor
    /// the deadline is spent, the whole run goes once more over a fresh
    /// dial. Once a byte has arrived, every failure is final, and ends
    /// the run.
    ///
    /// # Panics
    ///
    /// When every answer of the run has been read, or one failed.
    pub fn read_answer(
        &self,
        run: &mut Pending,
        body: &mut String,
        mut header: impl FnMut(&str, &str),
    ) -> Result<Head, ClientError> {
        assert!(run.left > 0, "no answer of the run is left to read");
        let result = self.next_answer(run, body, &mut header);
        match &result {
            Ok(head) => {
                run.left -= 1;
                run.begun = true;
                run.reusable &= !head.close;
            }
            Err(_) => {
                run.left = 0;
                run.reusable = false;
            }
        }
        result
    }

    fn next_answer(
        &self,
        run: &mut Pending,
        body: &mut String,
        header: &mut impl FnMut(&str, &str),
    ) -> Result<Head, ClientError> {
        if let Err(e) = run.conn.first_byte() {
            if run.begun || run.retried || !e.unanswered() {
                return Err(e);
            }
            run.conn = self.redial(&mut run.conn)?;
            run.retried = true;
            run.conn.send(run.deadline).map_err(before_response)?;
            run.conn.first_byte()?;
        }
        run.conn.read_answer(body, header, run.left == 1)
    }

    /// Read the answer to a run of one; returns the response and,
    /// unless closed, the connection.
    pub fn finish(&self, mut pending: Pending) -> Result<(Response, Option<Conn>), ClientError> {
        let mut resp = Response {
            status: 0,
            content_type: crate::http::JSON_TYPE.to_string(),
            trace_id: None,
            close: false,
            body: String::new(),
        };
        let head = self.read_answer(&mut pending, &mut resp.body, |name, value| {
            if name.eq_ignore_ascii_case("content-type") {
                resp.content_type = value.to_string();
            } else if name.eq_ignore_ascii_case("x-bikron-trace-id") {
                resp.trace_id = Some(value.to_string());
            }
        })?;
        resp.status = head.status;
        resp.close = head.close;
        Ok((resp, pending.into_conn()))
    }
}
