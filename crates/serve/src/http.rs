//! A minimal, bounded HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled on `std::io` for the same reason `bikron-obs` hand-rolls
//! its JSON: the service speaks a tiny, fixed dialect (GET plus `POST
//! /v1/batch` with a small newline-delimited body, small JSON responses)
//! and the offline build cannot pull in `hyper`. Every input dimension
//! is **bounded before allocation** — request-line length, header-line
//! length, header count, body length — and overflow maps to a specific
//! status (413 for an oversized request line or body, 431 for header
//! overflow) instead of unbounded buffering. That bounding is what keeps
//! per-request memory O(1): the parser never holds more than one line
//! plus at most [`MAX_BODY`] body bytes.
//!
//! A connection parses every request into one [`Request`]
//! ([`Request::read_from`]) and renders every answer head with
//! [`render_answer`]; neither allocates once the connection's buffers
//! have grown to its requests' size.
//!
//! This module also holds what both bikron servers, `serve` and the
//! router, agree on about answering:
//!
//! - **the route grammar**: [`Route::parse`] names the endpoint of a
//!   method and path, or the 404/405 [`Refusal`] for it, and
//!   [`Route::relayed`] names the queries a router relays to a replica;
//! - **the answer form**: every endpoint renders its body onto the
//!   exchange's `&mut String` and returns an [`Answer`] (status and
//!   content type); a refusal is one [`Refusal`] value whose body
//!   [`write_error`] renders;
//! - **the content types** the servers emit ([`CONTENT_TYPES`]), so a
//!   router passes on exactly the type a replica sent.
//!
//! [`Response`] is the owned form of an answer, for
//! `ServeState::handle`-style wrappers and [`write_response`].

use std::fmt;
use std::io::{self, BufRead, Write};

use bikron_obs::json::escape_into;
use bikron_obs::JsonWriter;

/// Longest accepted request line (method + URI + version), bytes.
pub const MAX_REQUEST_LINE: usize = 8192;
/// Longest accepted single header line, bytes.
pub const MAX_HEADER_LINE: usize = 8192;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes. Batch requests carry their
/// newline-delimited queries here; on GET the (stray) body is still
/// drained so keep-alive framing stays intact.
pub const MAX_BODY: usize = 65536;

/// Every status this server emits with a reason phrase: the table
/// behind [`status_text`] and the pre-resolved per-status counters.
pub const STATUSES: [(u16, &str); 12] = [
    (200, "OK"),
    (400, "Bad Request"),
    (403, "Forbidden"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (408, "Request Timeout"),
    (409, "Conflict"),
    (413, "Payload Too Large"),
    (431, "Request Header Fields Too Large"),
    (500, "Internal Server Error"),
    (501, "Not Implemented"),
    (503, "Service Unavailable"),
];

/// Position of `code` in [`STATUSES`].
pub fn status_index(code: u16) -> Option<usize> {
    STATUSES.iter().position(|&(c, _)| c == code)
}

/// `Content-Type` of every JSON answer: all but the three below.
pub const JSON_TYPE: &str = "application/json";
/// `Content-Type` of a `?format=csv` scatter page.
pub const CSV_TYPE: &str = "text/csv; charset=utf-8";
/// `Content-Type` of the Prometheus text exposition of `/metrics`.
pub const PROMETHEUS_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
/// `Content-Type` of a `?format=folded` profile.
pub const FOLDED_TYPE: &str = "text/plain; charset=utf-8";

/// Every `Content-Type` a bikron server emits.
pub const CONTENT_TYPES: [&str; 4] = [JSON_TYPE, CSV_TYPE, PROMETHEUS_TYPE, FOLDED_TYPE];

/// The entry of [`CONTENT_TYPES`] equal to `value`, if there is one.
pub fn content_type(value: &str) -> Option<&'static str> {
    CONTENT_TYPES.iter().copied().find(|&t| t == value)
}

/// Everything that can go wrong while reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or percent-encoding → 400.
    BadRequest(String),
    /// Syntactically valid but unsupported method (PUT, DELETE, …) → 405.
    MethodNotAllowed(String),
    /// Request line or declared body exceeds its bound → 413.
    TooLarge(&'static str),
    /// Header line too long or too many headers → 431.
    HeadersTooLarge(&'static str),
    /// Clean EOF before the first byte of a request (keep-alive close).
    Closed,
    /// Transport error (includes read timeouts).
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps to (`Closed`/`Io` get 400 as
    /// a formality; callers normally drop the connection instead).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::MethodNotAllowed(_) => 405,
            HttpError::TooLarge(_) => 413,
            HttpError::HeadersTooLarge(_) => 431,
            HttpError::Closed | HttpError::Io(_) => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::MethodNotAllowed(m) => {
                format!("method {m} not allowed (GET, or POST on /v1/batch)")
            }
            HttpError::TooLarge(what) => format!("{what} exceeds the configured bound"),
            HttpError::HeadersTooLarge(what) => format!("{what} exceeds the configured bound"),
            HttpError::Closed => "connection closed".to_string(),
            HttpError::Io(e) => format!("io: {e}"),
        }
    }

    /// The refusal that answers this error.
    pub fn refusal(&self) -> Refusal {
        Refusal::new(self.status(), self.detail())
    }
}

/// What a request asks for, by method and path: one variant per
/// endpoint, holding the path segments it takes as operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route<'a> {
    /// `POST /v1/batch`.
    Batch,
    /// `GET /v1/stats`.
    Stats,
    /// `GET /v1/vertex/{p}`.
    Vertex(&'a str),
    /// `GET /v1/edge/{p}/{q}`.
    Edge(&'a str, &'a str),
    /// `GET /v1/neighbors/{p}`.
    Neighbors(&'a str),
    /// `GET /v1/clustering/{p}/{q}`.
    Clustering(&'a str, &'a str),
    /// `GET /v1/edges/{part}/{parts}`.
    Edges(&'a str, &'a str),
    /// `GET /v1/community`.
    Community,
    /// `GET /v1/scatter/degree-squares`.
    Scatter,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/health`.
    Health,
    /// `GET /v1/shutdown`.
    Shutdown,
    /// `GET /v1/admin/stall`.
    AdminStall,
    /// `GET /v1/admin/traces`.
    AdminTraces,
    /// `GET /v1/admin/profile`.
    AdminProfile,
}

impl<'a> Route<'a> {
    /// The route of `method` and `path`, or the refusal for a request
    /// that has none: 405 for a `POST` anywhere but `/v1/batch` and for
    /// a `GET` of `/v1/batch`, 404 for any other path. Empty segments
    /// are skipped, and a path of more segments than the longest route
    /// (four) matches nothing.
    pub fn parse(method: &str, path: &'a str) -> Result<Route<'a>, Refusal> {
        let (segs, len) = first_n::<5>(path.split('/').filter(|s| !s.is_empty()));
        Ok(match (method, &segs[..len]) {
            ("POST", ["v1", "batch"]) => Route::Batch,
            ("POST", _) => return Err(Refusal::new(405, "POST is only accepted on /v1/batch")),
            (_, ["v1", "batch"]) => return Err(Refusal::new(405, "batch requires POST")),
            (_, ["v1", "stats"]) => Route::Stats,
            (_, ["v1", "vertex", p]) => Route::Vertex(p),
            (_, ["v1", "edge", p, q]) => Route::Edge(p, q),
            (_, ["v1", "neighbors", p]) => Route::Neighbors(p),
            (_, ["v1", "clustering", p, q]) => Route::Clustering(p, q),
            (_, ["v1", "edges", part, parts]) => Route::Edges(part, parts),
            (_, ["v1", "community"]) => Route::Community,
            (_, ["v1", "scatter", "degree-squares"]) => Route::Scatter,
            (_, ["metrics"]) => Route::Metrics,
            (_, ["v1", "health"]) => Route::Health,
            (_, ["v1", "shutdown"]) => Route::Shutdown,
            (_, ["v1", "admin", "stall"]) => Route::AdminStall,
            (_, ["v1", "admin", "traces"]) => Route::AdminTraces,
            (_, ["v1", "admin", "profile"]) => Route::AdminProfile,
            _ => return Err(Refusal::no_route(path)),
        })
    }

    /// The route of `req` ([`Route::parse`]).
    pub fn of(req: &'a Request) -> Result<Route<'a>, Refusal> {
        Route::parse(req.method(), req.path())
    }

    /// Whether a router relays this route to a replica: every query is
    /// relayed, since every replica answers every query from the same
    /// factors. Metrics, health and the admin endpoints are each
    /// process's own.
    pub fn relayed(self) -> bool {
        matches!(
            self,
            Route::Batch
                | Route::Stats
                | Route::Vertex(_)
                | Route::Edge(..)
                | Route::Neighbors(_)
                | Route::Clustering(..)
                | Route::Edges(..)
                | Route::Community
                | Route::Scatter
        )
    }
}

/// The first `N` items of `items` and how many there were (at most
/// `N`) — path segments and batch tokens, split without a `Vec`.
pub fn first_n<'a, const N: usize>(items: impl Iterator<Item = &'a str>) -> ([&'a str; N], usize) {
    let mut out = [""; N];
    let mut len = 0;
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item;
        len += 1;
    }
    (out, len)
}

/// A byte range of [`Request`]'s text.
type Span = (usize, usize);

/// One parsed request: method (`GET` or `POST`), percent-decoded path,
/// decoded query pairs, lower-cased headers, and the (bounded) body.
///
/// The decoded strings live back to back in one buffer, so a
/// connection that parses every request into the same `Request`
/// ([`Request::read_from`]) allocates nothing once its buffers fit.
#[derive(Clone, Default)]
pub struct Request {
    /// `"GET"` or `"POST"`; empty before the first parse.
    method: &'static str,
    /// The path, query keys and values, header names and values.
    text: String,
    path: Span,
    query: Vec<(Span, Span)>,
    headers: Vec<(Span, Span)>,
    body: Vec<u8>,
    /// The line being read.
    line: Vec<u8>,
}

impl Request {
    /// The request method (only `GET` and `POST` survive parsing).
    pub fn method(&self) -> &str {
        self.method
    }

    /// Percent-decoded path, query stripped (e.g. `/v1/vertex/17`).
    pub fn path(&self) -> &str {
        self.at(self.path)
    }

    /// Decoded `key=value` query pairs in order of appearance.
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.query.iter().map(|&(k, v)| (self.at(k), self.at(v)))
    }

    /// Headers with lower-cased names and original-case values, in order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.headers.iter().map(|&(k, v)| (self.at(k), self.at(v)))
    }

    /// Raw body bytes, at most [`MAX_BODY`] of them.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn at(&self, (start, end): Span) -> &str {
        &self.text[start..end]
    }

    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query_pairs().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// First header value for the lower-case `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Release each buffer whose capacity grew past `max` bytes, so one
    /// large request does not pin its memory for the connection's life.
    pub fn release_over(&mut self, max: usize) {
        if self.text.capacity() > max {
            self.text = String::new();
        }
        for buf in [&mut self.body, &mut self.line] {
            if buf.capacity() > max {
                *buf = Vec::new();
            }
        }
        for pairs in [&mut self.query, &mut self.headers] {
            if pairs.capacity() * std::mem::size_of::<(Span, Span)>() > max {
                *pairs = Vec::new();
            }
        }
    }

    /// Parse the next request from `r` into `self`, replacing what it
    /// held and reusing its buffers. Blocks until a full head arrives,
    /// the configured bounds trip, or the transport errors. Any declared
    /// body up to [`MAX_BODY`] is drained so the next keep-alive request
    /// starts at a clean frame boundary. After an error `self` holds
    /// no request worth reading.
    pub fn read_from<R: BufRead>(&mut self, r: &mut R) -> Result<(), HttpError> {
        let Request {
            method: out_method,
            text,
            path: out_path,
            query,
            headers,
            body,
            line,
        } = self;
        text.clear();
        text.reserve(INITIAL_CAPACITY);
        query.clear();
        headers.clear();
        body.clear();
        let first = read_line_bounded(r, line, MAX_REQUEST_LINE, || {
            HttpError::TooLarge("request line")
        })?
        .ok_or(HttpError::Closed)?;
        if first.is_empty() {
            return Err(HttpError::BadRequest("empty request line".into()));
        }
        let mut parts = first.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) => (m, t, v),
                _ => {
                    return Err(HttpError::BadRequest(format!(
                        "malformed request line {first:?}"
                    )))
                }
            };
        *out_method = match method {
            "GET" => "GET",
            "POST" => "POST",
            _ if KNOWN_METHODS.contains(&method) => {
                return Err(HttpError::MethodNotAllowed(method.to_string()))
            }
            _ => return Err(HttpError::BadRequest(format!("unknown method {method:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequest(format!(
                "unsupported version {version:?}"
            )));
        }
        if !target.starts_with('/') {
            return Err(HttpError::BadRequest(format!(
                "request target must be absolute, got {target:?}"
            )));
        }

        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        *out_path = decode_span(text, raw_path, false)?;
        if let Some(q) = raw_query {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.push((decode_span(text, k, true)?, decode_span(text, v, true)?));
            }
        }

        let mut content_length = 0usize;
        loop {
            let header = read_line_bounded(r, line, MAX_HEADER_LINE, || {
                HttpError::HeadersTooLarge("header line")
            })?
            .ok_or_else(|| HttpError::BadRequest("EOF inside headers".into()))?;
            if header.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::HeadersTooLarge("header count"));
            }
            let (name, value) = header.split_once(':').ok_or_else(|| {
                HttpError::BadRequest(format!("header without colon: {header:?}"))
            })?;
            let name = push_span(text, name.trim());
            text.as_mut_str()[name.0..name.1].make_ascii_lowercase();
            let value = value.trim();
            if &text[name.0..name.1] == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest("bad content-length".into()))?;
            }
            let value = push_span(text, value);
            headers.push((name, value));
        }

        if content_length > MAX_BODY {
            return Err(HttpError::TooLarge("request body"));
        }
        // Read the (bounded) body: batch requests use it, and on GET the
        // drain keeps keep-alive framing intact for stray payloads.
        body.reserve(content_length);
        let mut remaining = content_length;
        while remaining > 0 {
            let chunk = r.fill_buf().map_err(HttpError::Io)?;
            if chunk.is_empty() {
                return Err(HttpError::BadRequest("EOF inside body".into()));
            }
            let take = chunk.len().min(remaining);
            body.extend_from_slice(&chunk[..take]);
            r.consume(take);
            remaining -= take;
        }
        Ok(())
    }
}

impl PartialEq for Request {
    fn eq(&self, other: &Request) -> bool {
        self.method == other.method
            && self.path() == other.path()
            && self.query_pairs().eq(other.query_pairs())
            && self.headers().eq(other.headers())
            && self.body == other.body
    }
}

impl Eq for Request {}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
            .field("method", &self.method)
            .field("path", &self.path())
            .field("query", &self.query_pairs().collect::<Vec<_>>())
            .field("headers", &self.headers().collect::<Vec<_>>())
            .field("body", &String::from_utf8_lossy(&self.body))
            .finish()
    }
}

/// Bytes a new request's line and text buffers start with: one
/// allocation each holds a typical request.
const INITIAL_CAPACITY: usize = 128;

/// Methods we recognise as valid HTTP but do not serve → 405. Anything
/// else on the method position is a malformed request → 400.
const KNOWN_METHODS: [&str; 7] = [
    "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS", "TRACE", "CONNECT",
];

/// Read one `\n`-terminated line of at most `limit` bytes (excluding the
/// terminator) into `buf`, stripping `\r\n`/`\n`. Returns `Ok(None)` on
/// immediate EOF; an overlong line is reported via `over` without
/// draining the rest (the connection is torn down anyway).
fn read_line_bounded<'b, R: BufRead>(
    r: &mut R,
    buf: &'b mut Vec<u8>,
    limit: usize,
    over: impl FnOnce() -> HttpError,
) -> Result<Option<&'b str>, HttpError> {
    buf.clear();
    buf.reserve(INITIAL_CAPACITY);
    loop {
        let chunk = r.fill_buf().map_err(HttpError::Io)?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::BadRequest("unterminated line at EOF".into()))
            };
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > limit + 2 {
            return Err(over());
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("request is not valid UTF-8".into()))
}

/// Append `s` to `text`, returning where it landed.
fn push_span(text: &mut String, s: &str) -> Span {
    let start = text.len();
    text.push_str(s);
    (start, text.len())
}

/// Percent-decode `s` onto `text`, returning where it landed.
fn decode_span(text: &mut String, s: &str, plus_space: bool) -> Result<Span, HttpError> {
    let start = text.len();
    decode_into(text, s, plus_space)?;
    Ok((start, text.len()))
}

/// Percent-decode `s` onto `out`; `plus_space` additionally maps `+` →
/// space (query semantics). Text with nothing to decode is copied as
/// is. Rejects truncated or non-hex escapes and encoded NUL.
fn decode_into(out: &mut String, s: &str, plus_space: bool) -> Result<(), HttpError> {
    if !s.bytes().any(|b| b == b'%' || (plus_space && b == b'+')) {
        out.push_str(s);
        return Ok(());
    }
    let bytes = s.as_bytes();
    let mut decoded: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| HttpError::BadRequest("truncated percent-escape".into()))?;
                let hi = (hex[0] as char)
                    .to_digit(16)
                    .ok_or_else(|| HttpError::BadRequest("bad percent-escape digit".into()))?;
                let lo = (hex[1] as char)
                    .to_digit(16)
                    .ok_or_else(|| HttpError::BadRequest("bad percent-escape digit".into()))?;
                let b = (hi * 16 + lo) as u8;
                if b == 0 {
                    return Err(HttpError::BadRequest("encoded NUL rejected".into()));
                }
                decoded.push(b);
                i += 3;
            }
            b'+' if plus_space => {
                decoded.push(b' ');
                i += 1;
            }
            b => {
                decoded.push(b);
                i += 1;
            }
        }
    }
    let decoded = std::str::from_utf8(&decoded)
        .map_err(|_| HttpError::BadRequest("decoded path is not UTF-8".into()))?;
    out.push_str(decoded);
    Ok(())
}

/// Parse one request from `r` into a new [`Request`] (see
/// [`Request::read_from`], which a connection uses to reuse one).
pub fn parse_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
    let mut req = Request::default();
    req.read_from(r)?;
    Ok(req)
}

/// Whether `bytes` begin with a whole request: a head that ends in an
/// empty line, followed by all of the body its `Content-Length`
/// declares. For such bytes [`Request::read_from`] returns without
/// another read, whether the request parses or not. A connection takes
/// further requests into a burst only when this holds, so no read
/// blocks while an earlier request of the burst waits for its answer.
pub fn request_is_buffered(bytes: &[u8]) -> bool {
    let mut content_length = 0usize;
    let mut rest = bytes;
    let mut first = true;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        let mut line = &rest[..nl];
        rest = &rest[nl + 1..];
        while let [kept @ .., b'\r'] = line {
            line = kept;
        }
        // The parser refuses the request at a line that is not UTF-8, an
        // empty request line and an unparsable length, reading no more.
        let Ok(line) = std::str::from_utf8(line) else {
            return true;
        };
        if std::mem::take(&mut first) {
            if line.is_empty() {
                return true;
            }
            continue;
        }
        if line.is_empty() {
            return content_length > MAX_BODY || rest.len() >= content_length;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                match value.trim().parse() {
                    Ok(n) => content_length = n,
                    Err(_) => return true,
                }
            }
        }
    }
    false
}

/// The head of an answer whose body was rendered into a caller's
/// buffer: what [`render_answer`] needs besides the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value, one of [`CONTENT_TYPES`].
    pub content_type: &'static str,
}

impl Answer {
    /// A JSON answer.
    pub fn json(status: u16) -> Answer {
        Answer {
            status,
            content_type: JSON_TYPE,
        }
    }
}

/// A JSON answer of `status` whose value `render` writes with a
/// [`JsonWriter`] onto `body`, ended with the newline every body
/// carries.
pub fn json_answer(body: &mut String, status: u16, render: impl FnOnce(&mut JsonWriter)) -> Answer {
    write_json(body, render);
    body.push('\n');
    Answer::json(status)
}

/// Run `render` on a [`JsonWriter`] that appends to `out`, and return
/// what it returns. The writer borrows `out`'s buffer, so nothing is
/// allocated once it has grown to the value's size.
pub fn write_json<T>(out: &mut String, render: impl FnOnce(&mut JsonWriter) -> T) -> T {
    let mut w = JsonWriter::with_buffer(std::mem::take(out));
    let result = render(&mut w);
    *out = w.into_buffer();
    result
}

/// A refused request: the status and detail of its error body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// HTTP status code.
    pub status: u16,
    /// What was refused, and why.
    pub detail: String,
}

impl Refusal {
    /// A refusal with `status` and `detail`.
    pub fn new(status: u16, detail: impl Into<String>) -> Refusal {
        Refusal {
            status,
            detail: detail.into(),
        }
    }

    /// The 404 for a path that names no endpoint.
    pub fn no_route(path: &str) -> Refusal {
        Refusal::new(404, format!("no route for {path}"))
    }

    /// Answer with the error body ([`write_error`]), rendered onto
    /// `body`.
    pub fn answer(&self, body: &mut String) -> Answer {
        json_answer(body, self.status, |w| {
            write_error(w, self.status, &self.detail)
        })
    }
}

/// An answer in one owned value: what `ServeState::handle` and
/// `RouterState::handle` return and [`write_response`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body, already serialised.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: JSON_TYPE,
            body,
        }
    }

    /// A canned JSON error body `{"error": status, "detail": …}`.
    pub fn error(status: u16, detail: &str) -> Self {
        let mut body = String::new();
        let answer = Refusal::new(status, detail).answer(&mut body);
        Response::json(answer.status, body)
    }

    /// Its status and content type.
    pub fn answer(&self) -> Answer {
        Answer {
            status: self.status,
            content_type: self.content_type,
        }
    }
}

/// Append a `"trace_id"` field to a JSON error body — error statuses
/// only. The connection loop applies this to every answer it serves, so
/// live error bodies are self-correlating (headers alone don't survive
/// copy-paste into a bug report) while success bodies, batch item
/// bodies, and direct-`handle()` test responses keep their byte-exact
/// contracts. Stamping is idempotent: a body whose last field is
/// already this trace id (an error a replica stamped, relayed by the
/// router under the same trace) is left as it is.
pub fn stamp_trace_id(answer: Answer, body: &mut String, trace_id: &str) {
    if answer.status < 400 || answer.content_type != JSON_TYPE {
        return;
    }
    let Some(brace) = body.rfind('}') else {
        return;
    };
    let cut = body[..brace].trim_end_matches('\n').len();
    let stamped = body[..cut]
        .strip_suffix('"')
        .and_then(|rest| rest.strip_suffix(trace_id))
        .is_some_and(|rest| rest.ends_with("\"trace_id\": \""));
    if stamped {
        return;
    }
    let mut field = String::with_capacity(trace_id.len() + 24);
    field.push_str(",\n  \"trace_id\": \"");
    escape_into(&mut field, trace_id);
    field.push_str("\"\n");
    body.replace_range(cut..brace, &field);
}

/// Write the error object `{"error": status, "status": text, "detail": …}`
/// into `w`: the body of every [`Refusal`], a failed batch item's
/// included.
pub fn write_error(w: &mut JsonWriter, status: u16, detail: &str) {
    w.open_object();
    w.u64_field("error", status as u64);
    w.string_field("status", status_text(status));
    w.string_field("detail", detail);
    w.close_object();
}

/// Reason phrase for the status codes this server emits ([`STATUSES`]);
/// `Unknown` for any other.
pub fn status_text(code: u16) -> &'static str {
    status_index(code).map_or("Unknown", |i| STATUSES[i].1)
}

/// Serialise `resp` to `w` in one `write_all`. Returns the total bytes
/// written. The `Connection` header reflects `keep_alive`; 503s
/// additionally carry `Retry-After: 1` so well-behaved clients back off
/// a shed, not a failure.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, keep_alive: bool) -> io::Result<u64> {
    let mut out = Vec::with_capacity(resp.body.len() + 128);
    let n = render_answer(&mut out, resp.answer(), &resp.body, keep_alive, None);
    w.write_all(&out)?;
    w.flush()?;
    Ok(n)
}

/// Append the answer, head and body, to `out`, returning the bytes
/// appended. Same bytes as [`write_response`], plus an optional
/// `x-bikron-trace-id` header: the serving path always has a trace id
/// (propagated from an inbound `traceparent` or generated), so every
/// live response is correlatable even when the span ring is disabled.
/// The header is additive and the body untouched, preserving the
/// byte-exact body contract the batch and differential suites assert on.
pub fn render_answer(
    out: &mut Vec<u8>,
    answer: Answer,
    body: &str,
    keep_alive: bool,
    trace_id: Option<&str>,
) -> u64 {
    let start = out.len();
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, u64::from(answer.status));
    out.push(b' ');
    out.extend_from_slice(status_text(answer.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(answer.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    out.extend_from_slice(b"\r\n");
    if answer.status == 503 {
        out.extend_from_slice(b"Retry-After: 1\r\n");
    }
    if let Some(id) = trace_id {
        out.extend_from_slice(b"x-bikron-trace-id: ");
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    out.extend_from_slice(body.as_bytes());
    (out.len() - start) as u64
}

/// Append the decimal digits of `value` to `out`.
fn push_decimal(out: &mut Vec<u8>, value: u64) {
    let mut buf = [0u8; 20];
    out.extend_from_slice(bikron_obs::json::u64_digits(value, &mut buf));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_simple_get() {
        let req = parse("GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/v1/stats");
        assert_eq!(req.query_pairs().count(), 0);
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_query_and_percent_encoding() {
        let req =
            parse("GET /v1/nei%67hbors/5?offset=2&limit=10&x=a%2Bb+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/v1/neighbors/5");
        assert_eq!(req.query_param("offset"), Some("2"));
        assert_eq!(req.query_param("limit"), Some("10"));
        assert_eq!(req.query_param("x"), Some("a+b c"));
    }

    #[test]
    fn known_method_is_405_unknown_is_400() {
        assert_eq!(parse("HEAD /x HTTP/1.1\r\n\r\n").unwrap_err().status(), 405);
        assert_eq!(parse("PUT /x HTTP/1.1\r\n\r\n").unwrap_err().status(), 405);
        assert_eq!(parse("BLAH /x HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
    }

    /// The 405 detail names both served methods: `POST /v1/batch` is
    /// served too, so "GET only" would mislead.
    #[test]
    fn method_not_allowed_detail_names_get_and_batch_post() {
        let err = parse("PUT /v1/batch HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(
            err.detail(),
            "method PUT not allowed (GET, or POST on /v1/batch)"
        );
    }

    /// The status table is the one source of reason phrases.
    #[test]
    fn status_table_drives_status_text() {
        for (i, &(code, text)) in STATUSES.iter().enumerate() {
            assert_eq!(status_index(code), Some(i));
            assert_eq!(status_text(code), text);
        }
        assert_eq!(status_text(408), "Request Timeout");
        assert_eq!(status_index(299), None);
        assert_eq!(status_text(299), "Unknown");
    }

    #[test]
    fn post_parses_with_body() {
        let raw = "POST /v1/batch HTTP/1.1\r\nContent-Length: 9\r\n\r\nvertex 42";
        let req = parse(raw).unwrap();
        assert_eq!(req.method(), "POST");
        assert_eq!(req.path(), "/v1/batch");
        assert_eq!(req.body(), b"vertex 42");
    }

    #[test]
    fn post_without_body_is_empty_body() {
        let req = parse("POST /v1/batch HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body().is_empty());
    }

    #[test]
    fn truncated_and_malformed_are_400() {
        assert_eq!(parse("GET /x\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(
            parse("GET /x HTTP/2 extra HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            parse("GET /%zz HTTP/1.1\r\n\r\n").unwrap_err().status(),
            400
        );
        assert_eq!(parse("GET /%2 HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse("GET x HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
        // Headers cut off mid-request.
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nHost: y\r\n")
                .unwrap_err()
                .status(),
            400
        );
    }

    #[test]
    fn oversized_request_line_is_413() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(&raw).unwrap_err(), HttpError::TooLarge(_)));
    }

    #[test]
    fn oversized_headers_are_431() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nBig: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        assert!(matches!(
            parse(&raw).unwrap_err(),
            HttpError::HeadersTooLarge(_)
        ));
        let many = "X-H: 1\r\n".repeat(MAX_HEADERS + 1);
        let raw = format!("GET /x HTTP/1.1\r\n{many}\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(&raw).unwrap_err(),
            HttpError::TooLarge("request body")
        ));
    }

    #[test]
    fn small_body_is_drained_for_keep_alive() {
        let raw = "GET /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        assert_eq!(parse_request(&mut r).unwrap().path(), "/a");
        assert_eq!(parse_request(&mut r).unwrap().path(), "/b");
        assert!(matches!(
            parse_request(&mut r).unwrap_err(),
            HttpError::Closed
        ));
    }

    /// One request of a random pipelined stream, spelled by `(kind, a,
    /// b)`: well-formed GETs and batch POSTs, refused methods, percent
    /// escapes good and bad, and every bound at, just under and just
    /// over its limit.
    fn stream_request(kind: u32, a: u32, b: u32) -> Vec<u8> {
        const PATHS: [&str; 5] = [
            "/v1/vertex/17",
            "/v1/edge/3/9",
            "/v1/neighbors/5",
            "/v1/stats",
            "/",
        ];
        let near = |limit: usize| limit + (a % 5) as usize - 2; // limit-2 ..= limit+2
        let mut headers = String::new();
        for i in 0..b % 4 {
            headers.push_str(&format!("X-H{i}: v{a}\r\n"));
        }
        match kind % 10 {
            0..=4 => {
                let mut target = PATHS[(a % 5) as usize].to_string();
                for i in 0..b % 3 {
                    target.push(if i == 0 { '?' } else { '&' });
                    target.push_str(&format!("k{i}=v{}", a + i));
                }
                let close = if a.is_multiple_of(7) {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                format!("GET {target} HTTP/1.1\r\nHost: x\r\n{headers}{close}\r\n").into_bytes()
            }
            5 => {
                let body = "vertex 1\n".repeat((a % 5) as usize);
                format!(
                    "POST /v1/batch HTTP/1.1\r\n{headers}Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
            6 => {
                let method = ["PUT", "BLAH", "get", "DELETE"][(a % 4) as usize];
                format!("{method} /x HTTP/1.1\r\n\r\n").into_bytes()
            }
            7 => {
                let target = [
                    "/v1/nei%67hbors/5?x=a%2Bb+c",
                    "/%zz",
                    "/%2",
                    "/a%00b",
                    "/%C3%A9?q=%FF",
                ][(a % 5) as usize];
                format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes()
            }
            8 => match b % 4 {
                // Request line: "GET " + path + " HTTP/1.1".
                0 => {
                    let path = format!("/{}", "a".repeat(near(MAX_REQUEST_LINE) - 14));
                    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
                }
                // One header line: "X-Pad: " + value.
                1 => {
                    let value = "v".repeat(near(MAX_HEADER_LINE) - 7);
                    format!("GET / HTTP/1.1\r\nX-Pad: {value}\r\n\r\n").into_bytes()
                }
                2 => {
                    let many = "X-H: 1\r\n".repeat(near(MAX_HEADERS));
                    format!("GET / HTTP/1.1\r\n{many}\r\n").into_bytes()
                }
                _ => {
                    let len = near(MAX_BODY);
                    let mut raw =
                        format!("POST /v1/batch HTTP/1.1\r\nContent-Length: {len}\r\n\r\n")
                            .into_bytes();
                    raw.resize(raw.len() + len, b'x');
                    raw
                }
            },
            _ => match a % 3 {
                0 => b"GET /x\r\n\r\n".to_vec(),
                1 => b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
                _ => b"GET /x HTTP/1.1\r\nContent-Length: 1x\r\n\r\n".to_vec(),
            },
        }
    }

    /// Everything a parse outcome shows: the request, or the error's
    /// status and detail.
    fn outcome(result: Result<&Request, &HttpError>) -> Result<Request, (u16, String)> {
        result.cloned().map_err(|e| (e.status(), e.detail()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A pipelined stream parsed through one reused `Request` gives
        /// the same requests, and the same error at every bound, as a
        /// fresh `parse_request` per request, whatever the read-buffer
        /// size.
        #[test]
        fn a_reused_request_parses_like_a_fresh_one(
            specs in proptest::collection::vec((0u32..10, 0u32..1000, 0u32..1000), 1..8),
            capacity in 1usize..300,
        ) {
            let stream: Vec<u8> = specs
                .iter()
                .flat_map(|&(kind, a, b)| stream_request(kind, a, b))
                .collect();
            let mut fresh_reader = BufReader::with_capacity(capacity, &stream[..]);
            let mut reused_reader = BufReader::with_capacity(capacity, &stream[..]);
            let mut reused = Request::default();
            loop {
                let fresh = parse_request(&mut fresh_reader);
                let again = reused.read_from(&mut reused_reader);
                let fresh = outcome(fresh.as_ref());
                let again = outcome(again.as_ref().map(|()| &reused));
                proptest::prop_assert_eq!(&fresh, &again);
                if fresh.is_err() {
                    break;
                }
            }
        }
    }

    /// A request whose headers grew the text buffer past the bound
    /// releases it, and the same `Request` parses the next one.
    #[test]
    fn release_over_frees_only_grown_buffers() {
        let big = "X-Pad: ".to_string() + &"v".repeat(4000) + "\r\n";
        let raw = format!(
            "GET /a HTTP/1.1\r\n{}\r\nGET /b HTTP/1.1\r\n\r\n",
            big.repeat(20)
        );
        let mut r = BufReader::new(raw.as_bytes());
        let mut req = Request::default();
        req.read_from(&mut r).unwrap();
        assert_eq!(req.headers().count(), 20);
        assert!(req.text.capacity() > 64 * 1024);
        let line = req.line.capacity();
        req.release_over(64 * 1024);
        assert_eq!(req.text.capacity(), 0);
        assert_eq!(req.line.capacity(), line, "a small buffer is kept");
        req.read_from(&mut r).unwrap();
        assert_eq!(req.path(), "/b");
        assert_eq!(req.headers().count(), 0);

        // A request line of thousands of `&`-separated pairs grows the
        // query list past the bound, though its text stays small.
        let target = "/?".to_string() + &"a&".repeat(4000);
        let raw = format!("GET {target} HTTP/1.1\r\n\r\nGET /c?k=v HTTP/1.1\r\n\r\n");
        let mut r = BufReader::new(raw.as_bytes());
        req.read_from(&mut r).unwrap();
        assert_eq!(req.query_pairs().count(), 4000);
        assert!(req.query.capacity() * std::mem::size_of::<(Span, Span)>() > 64 * 1024);
        let headers = req.headers.capacity();
        req.release_over(64 * 1024);
        assert_eq!(req.query.capacity(), 0);
        assert_eq!(req.headers.capacity(), headers, "a small list is kept");
        req.read_from(&mut r).unwrap();
        assert_eq!(req.path(), "/c");
        assert_eq!(req.query_param("k"), Some("v"));
    }

    #[test]
    fn eof_before_request_is_closed() {
        assert!(matches!(parse("").unwrap_err(), HttpError::Closed));
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn response_serialises_with_length_and_connection() {
        let mut buf = Vec::new();
        let n = write_response(&mut buf, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(n as usize, text.len());
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut buf2 = Vec::new();
        write_response(&mut buf2, &Response::error(503, "shed"), false).unwrap();
        let text2 = String::from_utf8(buf2).unwrap();
        assert!(text2.contains("Retry-After: 1\r\n"));
        assert!(text2.contains("Connection: close\r\n"));
        assert!(text2.contains("\"error\": 503"));
    }

    fn render_response(
        out: &mut Vec<u8>,
        resp: &Response,
        keep_alive: bool,
        trace_id: Option<&str>,
    ) -> u64 {
        render_answer(out, resp.answer(), &resp.body, keep_alive, trace_id)
    }

    fn with_trace_id(mut resp: Response, trace_id: &str) -> Response {
        stamp_trace_id(resp.answer(), &mut resp.body, trace_id);
        resp
    }

    #[test]
    fn with_trace_id_extends_error_bodies_only() {
        let err = with_trace_id(
            Response::error(404, "no route for /nope"),
            "0af7651916cd43dd8448eb211c80319c",
        );
        assert!(
            err.body
                .contains(",\n  \"trace_id\": \"0af7651916cd43dd8448eb211c80319c\"\n}"),
            "{}",
            err.body
        );
        assert!(err.body.contains("\"detail\": \"no route for /nope\""));
        // A relayed error comes stamped already; it is stamped once.
        let again = with_trace_id(err.clone(), "0af7651916cd43dd8448eb211c80319c");
        assert_eq!(again.body, err.body);
        let other = with_trace_id(err.clone(), "1");
        assert_eq!(other.body.matches("\"trace_id\"").count(), 2);
        // Success bodies are byte-exact contracts; never touched.
        let ok = Response::json(200, "{\n  \"vertex\": 1\n}\n".to_string());
        let body_before = ok.body.clone();
        assert_eq!(with_trace_id(ok, "deadbeef").body, body_before);
    }

    #[test]
    fn traced_response_carries_the_trace_id_header() {
        let resp = Response::json(200, "{}".into());
        let mut buf = Vec::new();
        let n = render_response(
            &mut buf,
            &resp,
            true,
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(n as usize, text.len());
        assert!(text.contains("x-bikron-trace-id: 0af7651916cd43dd8448eb211c80319c\r\n"));
        // The body is untouched — only the head grows.
        assert!(text.ends_with("\r\n\r\n{}"));
        // And the untraced writer emits no such header.
        let mut plain = Vec::new();
        write_response(&mut plain, &resp, true).unwrap();
        assert!(!String::from_utf8(plain)
            .unwrap()
            .contains("x-bikron-trace-id"));
    }

    /// The two-write serialiser the single-buffer renderer replaced,
    /// kept as the byte-level reference.
    fn head_then_body(resp: &Response, keep_alive: bool, trace_id: Option<&str>) -> Vec<u8> {
        let retry = if resp.status == 503 {
            "Retry-After: 1\r\n"
        } else {
            ""
        };
        let trace = match trace_id {
            Some(id) => format!("x-bikron-trace-id: {id}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: {}\r\n\r\n",
            resp.status,
            status_text(resp.status),
            resp.content_type,
            resp.body.len(),
            retry,
            trace,
            if keep_alive { "keep-alive" } else { "close" },
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(resp.body.as_bytes());
        out
    }

    #[test]
    fn renderer_matches_head_then_body_bytes() {
        let responses = [
            Response::json(200, "{\n  \"vertex\": 17\n}\n".into()),
            Response::error(404, "vertex 99 out of range"),
            Response::error(503, "shard 1 is unavailable"),
        ];
        for resp in &responses {
            for trace_id in [None, Some("0af7651916cd43dd8448eb211c80319c")] {
                for keep_alive in [true, false] {
                    // Rendering appends: earlier bytes in the buffer stay.
                    let mut out = b"earlier".to_vec();
                    let n = render_response(&mut out, resp, keep_alive, trace_id);
                    let want = head_then_body(resp, keep_alive, trace_id);
                    assert_eq!(&out[..7], b"earlier");
                    assert_eq!(out[7..], want[..], "{} {trace_id:?}", resp.status);
                    assert_eq!(n as usize, want.len());
                }
            }
        }
        let mut shed = Vec::new();
        render_response(&mut shed, &responses[2], false, None);
        assert!(String::from_utf8(shed)
            .unwrap()
            .contains("Retry-After: 1\r\n"));
    }

    /// Counts `write` calls and the bytes they carry.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_response_makes_one_write_call() {
        for resp in [
            Response::json(200, "{}".into()),
            Response::error(503, "shed"),
        ] {
            let mut w = CountingWriter::default();
            let n = write_response(&mut w, &resp, true).unwrap();
            assert_eq!(w.writes, 1);
            assert_eq!(n as usize, w.bytes);
            assert_eq!(w.bytes, head_then_body(&resp, true, None).len());
        }
    }

    /// A reader that fails every read: parsing that reaches it would
    /// have blocked on a socket.
    struct WouldBlock;

    impl io::Read for WouldBlock {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    /// Every prefix the burst check accepts parses without another read,
    /// and each whole request is accepted.
    #[test]
    fn a_buffered_request_parses_without_another_read() {
        let huge = format!(
            "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let requests = [
            "GET /v1/vertex/3 HTTP/1.1\r\nHost: x\r\n\r\n",
            "POST /v1/batch HTTP/1.1\r\ncontent-LENGTH:  9 \r\n\r\nvertex 1\n",
            "GET /v1/stats HTTP/1.1\nHost: x\n\n",
            "POST /v1/batch HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            "BLAH / HTTP/1.1\r\n\r\n",
            "\r\nGET / HTTP/1.1\r\n\r\n",
            &huge,
        ];
        for raw in requests {
            let raw = raw.as_bytes();
            let whole = raw.len();
            assert!(
                request_is_buffered(raw),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
            for end in 0..=whole {
                if !request_is_buffered(&raw[..end]) {
                    continue;
                }
                let mut r = BufReader::new(io::Read::chain(&raw[..end], WouldBlock));
                let parsed = Request::default().read_from(&mut r);
                assert!(
                    !matches!(parsed, Err(HttpError::Io(_))),
                    "{end} of {whole} bytes of {:?}",
                    String::from_utf8_lossy(raw)
                );
            }
        }
        let get = b"GET / HTTP/1.1\r\n\r\n";
        assert!(!request_is_buffered(&get[..get.len() - 1]));
        let post = b"POST /v1/batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nabc";
        assert!(!request_is_buffered(post));
    }
}
