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

use std::io::{self, BufRead, Write};

use bikron_obs::json::escape_into;

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

/// Everything that can go wrong while reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or percent-encoding → 400.
    BadRequest(String),
    /// Syntactically valid but unsupported method (POST, PUT, …) → 405.
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
            HttpError::MethodNotAllowed(m) => format!("method {m} not allowed (GET only)"),
            HttpError::TooLarge(what) => format!("{what} exceeds the configured bound"),
            HttpError::HeadersTooLarge(what) => format!("{what} exceeds the configured bound"),
            HttpError::Closed => "connection closed".to_string(),
            HttpError::Io(e) => format!("io: {e}"),
        }
    }
}

/// One parsed request: method (`GET` or `POST` on success),
/// percent-decoded path, raw query pairs, lower-cased headers, and the
/// (bounded) body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (only `GET` and `POST` survive parsing).
    pub method: String,
    /// Percent-decoded path, query stripped (e.g. `/v1/vertex/17`).
    pub path: String,
    /// Decoded `key=value` query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, original-case values.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes, at most [`MAX_BODY`] of them.
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header value for the lower-case `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Methods we recognise as valid HTTP but do not serve → 405. Anything
/// else on the method position is a malformed request → 400.
const KNOWN_METHODS: [&str; 7] = [
    "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS", "TRACE", "CONNECT",
];

/// Read one `\n`-terminated line of at most `limit` bytes (excluding the
/// terminator), stripping `\r\n`/`\n`. Returns `Ok(None)` on immediate
/// EOF; an overlong line is reported via `over` without draining the
/// rest (the connection is torn down anyway).
fn read_line_bounded<R: BufRead>(
    r: &mut R,
    limit: usize,
    over: impl FnOnce() -> HttpError,
) -> Result<Option<String>, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(128);
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
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("request is not valid UTF-8".into()))
}

/// Percent-decode `s`; `plus_space` additionally maps `+` → space (query
/// semantics). Rejects truncated or non-hex escapes and encoded NUL.
pub fn percent_decode(s: &str, plus_space: bool) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
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
                out.push(b);
                i += 3;
            }
            b'+' if plus_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("decoded path is not UTF-8".into()))
}

/// Parse one request from `r`. Blocks until a full head arrives, the
/// configured bounds trip, or the transport errors. Any declared body up
/// to [`MAX_BODY`] is drained so the next keep-alive request starts at a
/// clean frame boundary.
pub fn parse_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
    let line = match read_line_bounded(r, MAX_REQUEST_LINE, || HttpError::TooLarge("request line"))?
    {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    if line.is_empty() {
        return Err(HttpError::BadRequest("empty request line".into()));
    }
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {line:?}"
            )))
        }
    };
    if method != "GET" && method != "POST" {
        return if KNOWN_METHODS.contains(&method) {
            Err(HttpError::MethodNotAllowed(method.to_string()))
        } else {
            Err(HttpError::BadRequest(format!("unknown method {method:?}")))
        };
    }
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
    let path = percent_decode(raw_path, false)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line_bounded(r, MAX_HEADER_LINE, || {
            HttpError::HeadersTooLarge("header line")
        })?
        .ok_or_else(|| HttpError::BadRequest("EOF inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without colon: {line:?}")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest("bad content-length".into()))?;
        }
        headers.push((name, value));
    }

    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge("request body"));
    }
    // Read the (bounded) body: batch requests use it, and on GET the
    // drain keeps keep-alive framing intact for stray payloads.
    let mut body = Vec::with_capacity(content_length);
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

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// A response ready for serialisation.
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
            content_type: "application/json",
            body,
        }
    }

    /// A canned JSON error body `{"error": status, "detail": …}`.
    pub fn error(status: u16, detail: &str) -> Self {
        let mut w = bikron_obs::JsonWriter::new();
        w.open_object();
        w.u64_field("error", status as u64);
        w.string_field("status", status_text(status));
        w.string_field("detail", detail);
        w.close_object();
        Response::json(status, w.finish())
    }

    /// Append a `"trace_id"` field to this response's JSON body — error
    /// statuses only. The connection loop applies this to the *outermost*
    /// response it serves, so live error bodies are self-correlating
    /// (headers alone don't survive copy-paste into a bug report) while
    /// success bodies, batch item bodies, and direct-`handle()` test
    /// responses keep their byte-exact contracts.
    pub fn with_trace_id(mut self, trace_id: &str) -> Response {
        if self.status < 400 || self.content_type != "application/json" {
            return self;
        }
        let Some(brace) = self.body.rfind('}') else {
            return self;
        };
        let mut body = String::with_capacity(self.body.len() + trace_id.len() + 24);
        body.push_str(self.body[..brace].trim_end_matches('\n'));
        body.push_str(",\n  \"trace_id\": \"");
        escape_into(&mut body, trace_id);
        body.push_str("\"\n");
        body.push_str(&self.body[brace..]);
        self.body = body;
        self
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialise `resp` to `w`. Returns the total bytes written. The
/// `Connection` header reflects `keep_alive`; 503s additionally carry
/// `Retry-After: 1` so well-behaved clients back off a shed, not a
/// failure.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, keep_alive: bool) -> io::Result<u64> {
    write_response_traced(w, resp, keep_alive, None)
}

/// [`write_response`] plus an optional `x-bikron-trace-id` header — the
/// serving path always has a trace id (propagated from an inbound
/// `traceparent` or generated), so every live response is correlatable
/// even when the span ring is disabled. The header is additive and the
/// body untouched, preserving the byte-exact body contract the batch
/// and differential suites assert on.
pub fn write_response_traced<W: Write>(
    w: &mut W,
    resp: &Response,
    keep_alive: bool,
    trace_id: Option<&str>,
) -> io::Result<u64> {
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
    w.write_all(head.as_bytes())?;
    w.write_all(resp.body.as_bytes())?;
    w.flush()?;
    Ok((head.len() + resp.body.len()) as u64)
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
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/stats");
        assert!(req.query.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_query_and_percent_encoding() {
        let req =
            parse("GET /v1/nei%67hbors/5?offset=2&limit=10&x=a%2Bb+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/neighbors/5");
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

    #[test]
    fn post_parses_with_body() {
        let raw = "POST /v1/batch HTTP/1.1\r\nContent-Length: 9\r\n\r\nvertex 42";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/batch");
        assert_eq!(req.body, b"vertex 42");
    }

    #[test]
    fn post_without_body_is_empty_body() {
        let req = parse("POST /v1/batch HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
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
        assert_eq!(parse_request(&mut r).unwrap().path, "/a");
        assert_eq!(parse_request(&mut r).unwrap().path, "/b");
        assert!(matches!(
            parse_request(&mut r).unwrap_err(),
            HttpError::Closed
        ));
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

    #[test]
    fn with_trace_id_extends_error_bodies_only() {
        let err = Response::error(404, "no route for /nope")
            .with_trace_id("0af7651916cd43dd8448eb211c80319c");
        assert!(
            err.body
                .contains(",\n  \"trace_id\": \"0af7651916cd43dd8448eb211c80319c\"\n}"),
            "{}",
            err.body
        );
        assert!(err.body.contains("\"detail\": \"no route for /nope\""));
        // Success bodies are byte-exact contracts; never touched.
        let ok = Response::json(200, "{\n  \"vertex\": 1\n}\n".to_string());
        let body_before = ok.body.clone();
        assert_eq!(ok.with_trace_id("deadbeef").body, body_before);
    }

    #[test]
    fn traced_response_carries_the_trace_id_header() {
        let resp = Response::json(200, "{}".into());
        let mut buf = Vec::new();
        let n = write_response_traced(
            &mut buf,
            &resp,
            true,
            Some("0af7651916cd43dd8448eb211c80319c"),
        )
        .unwrap();
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
}
