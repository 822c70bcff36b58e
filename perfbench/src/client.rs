//! Keep-alive HTTP/1.1 client for the load loops.
//!
//! One client owns one TCP_NODELAY connection. Requests are sent as
//! pre-rendered bytes, several at a time when pipelining, and each
//! response is handed back as a borrowed body slice, so the timed loops
//! allocate nothing per request.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest response head accepted.
const MAX_HEAD: usize = 64 * 1024;
/// Largest response body accepted (a `/metrics` scrape of a cluster is the
/// biggest body the benchmark reads).
const MAX_BODY: usize = 16 * 1024 * 1024;
/// How long a read or write may block before the request counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Unread bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        })
    }

    /// Send one complete request and read its response: status and body.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.send(request)?;
        self.read_response()
    }

    /// Send complete requests without waiting for answers (pipelining).
    pub fn send(&mut self, requests: &[u8]) -> io::Result<()> {
        self.stream.write_all(requests)
    }

    /// `GET path`, with the body decoded as UTF-8 (for control requests
    /// outside the timed loops).
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        let (status, body) = self.call(request.as_bytes())?;
        let body = String::from_utf8(body.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((status, body))
    }

    /// Read the next response: status and body.
    pub fn read_response(&mut self) -> io::Result<(u16, &[u8])> {
        let head_len = loop {
            if let Some(at) = find(&self.buf[self.start..self.end], b"\r\n\r\n") {
                break at + 4;
            }
            if self.end - self.start >= MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            self.fill()?;
        };
        let head = &self.buf[self.start..self.start + head_len];
        let status = parse_status(head)?;
        let body_len = content_length(head)?;
        if body_len > MAX_BODY {
            return Err(invalid("response body too large"));
        }
        // `fill` may move the unread bytes to the front, so positions are
        // taken from `self.start` afresh after every read.
        while self.end - (self.start + head_len) < body_len {
            self.fill()?;
        }
        let body_start = self.start + head_len;
        self.start = body_start + body_len;
        Ok((status, &self.buf[body_start..self.start]))
    }

    /// Read more bytes, first moving unread ones to the front and growing
    /// the buffer when it is full.
    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).min(MAX_HEAD + MAX_BODY);
            if grown == self.buf.len() {
                return Err(invalid("response exceeds the buffer limit"));
            }
            self.buf.resize(grown, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Status code from `HTTP/1.1 200 OK`.
fn parse_status(head: &[u8]) -> io::Result<u16> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let code = line
        .split(|&b| b == b' ')
        .nth(1)
        .ok_or_else(|| invalid("malformed status line"))?;
    std::str::from_utf8(code)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status code"))
}

/// The `Content-Length` header's value (the server always sends one).
fn content_length(head: &[u8]) -> io::Result<usize> {
    const NAME: &[u8] = b"content-length:";
    for line in head.split(|&b| b == b'\n') {
        if line.len() > NAME.len() && line[..NAME.len()].eq_ignore_ascii_case(NAME) {
            return std::str::from_utf8(&line[NAME.len()..])
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| invalid("malformed Content-Length"));
        }
    }
    Err(invalid("response has no Content-Length"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_heads() {
        let head =
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: x\r\nContent-length: 12\r\n\r\n";
        assert_eq!(parse_status(head).unwrap(), 503);
        assert_eq!(content_length(head).unwrap(), 12);
        assert!(content_length(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_status(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn reads_pipelined_and_split_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut req = [0u8; 256];
            let _ = s.read(&mut req).unwrap();
            // Two responses in one write, then a third split mid-head.
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno")
                .unwrap();
            let _ = s.read(&mut req).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nConte").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"nt-Length: 5\r\n\r\nhello").unwrap();
            // A whole response plus the start of the next one's body, then
            // the rest: the second body completes only after unread bytes
            // have been moved to the front of the buffer, and it is
            // longer than the response before it.
            let _ = s.read(&mut req).unwrap();
            let mut first = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx".to_vec();
            first.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nsp");
            s.write_all(&first).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(&[b'!'; 98]).unwrap();
        });
        let mut c = Client::connect(&addr).unwrap();
        let (status, body) = c.call(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!((status, body), (200, &b"abc"[..]));
        let (status, body) = c.read_response().unwrap();
        assert_eq!((status, body), (404, &b"no"[..]));
        let (status, body) = c.get("/b").unwrap();
        assert_eq!((status, body.as_str()), (200, "hello"));
        let (status, body) = c.call(b"GET /c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!((status, body), (200, &b"x"[..]));
        let (status, body) = c.read_response().unwrap();
        assert_eq!(status, 200);
        assert_eq!(&body[..2], b"sp");
        assert_eq!(body.len(), 100);
        server.join().unwrap();
    }
}
