//! The one keep-alive HTTP/1.1 client of the router's upstreams,
//! `loadgen`, `replay`, `monitor`, `trace` and `profile`. Every response
//! dimension is bounded (head lines, header count, body), the body is
//! read as it arrives rather than allocated from its `Content-Length`,
//! and each violation is a named [`ClientError`].
//!
//! A request is a [`send`](Client::send) followed by a
//! [`finish`](Client::finish); [`request`](Client::request) is the two
//! back to back, and a fan-out sends to every server before finishing
//! any. One deadline, `io_timeout` after the send, bounds the whole
//! exchange, retry included.
//!
//! Retry policy (DESIGN.md §13): at most one retry per request, on a
//! fresh dial, and only when the attempt failed in transport before any
//! response byte (the server may have closed an idle connection behind
//! our back) and before the deadline. All bikron queries are pure reads,
//! so `POST /v1/batch` may retry too. A failure that survives the retry
//! says whether any response byte arrived
//! ([`ClientError::unanswered`]), so a caller with another server to
//! ask knows when asking it is safe.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Longest accepted response status or header line, bytes.
pub const MAX_HEAD_LINE: usize = 8192;
/// Most header lines accepted in one response head.
pub const MAX_HEAD_LINES: usize = 64;
/// Largest accepted response body (bikron's largest are `/metrics`).
pub const MAX_RESPONSE_BODY: usize = 64 << 20;

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
    /// A bad header, no `Content-Length`, non-UTF-8, or EOF in the head.
    Malformed(&'static str),
    /// The connection closed after `got` of the `expected` body bytes.
    Truncated {
        /// Declared `Content-Length`.
        expected: usize,
        /// Body bytes received before EOF.
        got: usize,
    },
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
    /// `Content-Type` value (defaults to `application/json`).
    pub content_type: String,
    /// `x-bikron-trace-id` value, if sent.
    pub trace_id: Option<String>,
    /// Whether the server sent `Connection: close`.
    pub close: bool,
    /// The body, exactly as sent.
    pub body: String,
}

/// One open connection. Reads stop at the deadline of the request in
/// flight on it.
#[derive(Debug)]
pub struct Conn(BufReader<DeadlineStream>);

/// The socket, with every read's timeout cut to what remains before
/// `deadline` (the pattern of the server's request deadline in `pool`).
#[derive(Debug)]
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// A request [`send`](Client::send) wrote and [`finish`](Client::finish)
/// has yet to read the answer to.
#[derive(Debug)]
pub struct Pending {
    conn: Conn,
    req: Vec<u8>,
    /// Set at send time: the whole exchange, retry included, ends by then.
    deadline: Instant,
    /// Whether the one retry has been spent.
    retried: bool,
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
    /// `io_timeout` bounds each exchange from its send to the last body
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
        Ok(Conn(BufReader::new(DeadlineStream {
            stream,
            deadline: Instant::now() + self.io_timeout,
        })))
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
    /// several servers in flight at once. A failed write or dial is
    /// retried once on a fresh dial. The body goes out verbatim.
    pub fn send(
        &self,
        conn: Option<Conn>,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
        traceparent: Option<&str>,
    ) -> Result<Pending, ClientError> {
        let deadline = Instant::now() + self.io_timeout;
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if let Some(tp) = traceparent {
            head.push_str(&format!("traceparent: {tp}\r\n"));
        }
        if let Some(b) = body {
            head.push_str(&format!("Content-Length: {}\r\n", b.len()));
        }
        head.push_str("\r\n");
        let mut req = head.into_bytes();
        req.extend_from_slice(body.unwrap_or_default());
        let first = match conn {
            Some(conn) => Ok(conn),
            None => self.dial(),
        };
        let (conn, retried) = match first.and_then(|conn| write_request(conn, &req, deadline)) {
            Ok(conn) => (conn, false),
            Err(_) => (write_request(self.dial()?, &req, deadline)?, true),
        };
        Ok(Pending {
            conn,
            req,
            deadline,
            retried,
        })
    }

    /// Read the answer to `pending`; returns the response and, unless
    /// closed, the connection. When the connection fails before any
    /// response byte arrives, and neither the retry nor the deadline is
    /// spent, the request goes once more over a fresh dial. Once a byte
    /// has arrived, every failure is final.
    pub fn finish(&self, pending: Pending) -> Result<(Response, Option<Conn>), ClientError> {
        let Pending {
            mut conn,
            req,
            deadline,
            retried,
        } = pending;
        if let Err(e) = first_byte(&mut conn) {
            if retried || !e.unanswered() {
                return Err(e);
            }
            conn = write_request(self.dial()?, &req, deadline)?;
            first_byte(&mut conn)?;
        }
        let resp = read_response(&mut conn.0)?;
        // The server answers one request at a time, so bytes already
        // read past the body mean its `Content-Length` undercounted: the
        // body would be a prefix of what it sent.
        if !conn.0.buffer().is_empty() {
            return Err(ClientError::Malformed("bytes beyond Content-Length"));
        }
        let reuse = (!resp.close).then_some(conn);
        Ok((resp, reuse))
    }
}

/// Write `req` in one piece (a separate body write would leave as its
/// own segment); reads of the answer end at `deadline`.
fn write_request(mut conn: Conn, req: &[u8], deadline: Instant) -> Result<Conn, ClientError> {
    let sock = conn.0.get_mut();
    sock.deadline = deadline;
    sock.stream.write_all(req).map_err(before_response)?;
    Ok(conn)
}

/// Wait for the first response byte; [`ClientError::Closed`] on EOF.
fn first_byte(conn: &mut Conn) -> Result<(), ClientError> {
    if conn.0.fill_buf().map_err(before_response)?.is_empty() {
        return Err(ClientError::Closed);
    }
    Ok(())
}

/// Read one `Content-Length`-framed response off `r`.
fn read_response(r: &mut impl BufRead) -> Result<Response, ClientError> {
    let status_line = read_head_line(r)?.ok_or(ClientError::Closed)?;
    let mut parts = status_line.split_whitespace();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(ClientError::NotHttp(status_line.chars().take(64).collect()));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ClientError::Malformed("missing status code"))?;
    let mut resp = Response {
        status,
        content_type: "application/json".to_string(),
        trace_id: None,
        close: false,
        body: String::new(),
    };
    let mut length = None;
    for lines in 0.. {
        let line = read_head_line(r)?.ok_or(ClientError::Malformed("EOF inside the head"))?;
        if line.is_empty() {
            break;
        }
        if lines == MAX_HEAD_LINES {
            return Err(ClientError::TooManyHeaders);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ClientError::Malformed("header line without a colon"))?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| ClientError::Malformed("unparsable Content-Length"))?;
                if n > MAX_RESPONSE_BODY as u64 {
                    return Err(ClientError::BodyTooLarge(n));
                }
                length = Some(n as usize);
            }
            "content-type" => resp.content_type = value.to_string(),
            "x-bikron-trace-id" => resp.trace_id = Some(value.to_string()),
            "connection" => resp.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let expected = length.ok_or(ClientError::Malformed("missing Content-Length"))?;
    // Grows with the bytes that arrive, never with the claim.
    let mut buf = Vec::with_capacity(expected.min(64 << 10));
    r.take(expected as u64).read_to_end(&mut buf)?;
    if buf.len() < expected {
        let got = buf.len();
        return Err(ClientError::Truncated { expected, got });
    }
    resp.body = String::from_utf8(buf).map_err(|_| ClientError::Malformed("non-UTF-8 body"))?;
    Ok(resp)
}

/// Read one CRLF-terminated head line, bounded; `None` on EOF before its
/// first byte.
fn read_head_line(r: &mut impl BufRead) -> Result<Option<String>, ClientError> {
    let mut buf = Vec::with_capacity(64);
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(ClientError::Malformed("EOF inside the head"));
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > MAX_HEAD_LINE + 2 {
            return Err(ClientError::HeadLineTooLong);
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ClientError::Malformed("non-UTF-8 head"))
}
