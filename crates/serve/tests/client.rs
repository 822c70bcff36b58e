//! The shared HTTP/1.1 client against fake servers: keep-alive reuse,
//! the one-retry-on-a-fresh-dial policy, and hostile responses. Each
//! hostile case must end in a named [`ClientError`] without allocating
//! the size the server claimed — checked by a global allocator that
//! records the largest single allocation made on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bikron_serve::client::{Client, ClientError, MAX_HEAD_LINE};

struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only updates a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Run `f` and return its result plus the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn client(addr: String) -> Client {
    Client::new(addr, Duration::from_secs(1), Duration::from_secs(5))
}

/// Read one request head off `reader` (GETs only, so no body). `false`
/// on EOF.
fn drain_head(reader: &mut impl BufRead) -> bool {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return false;
        }
        if line == "\r\n" || line == "\n" {
            return true;
        }
    }
}

/// A fake server that accepts one connection, reads one request head,
/// writes `raw` verbatim and hangs up. Dropping the listener afterwards
/// makes any retry dial fail, so a named error proves no retry ran.
fn one_shot(raw: Vec<u8>) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        drain_head(&mut reader);
        let mut w = stream;
        // The client may hang up mid-write on an oversized head.
        let _ = w.write_all(&raw);
        let _ = w.flush();
    });
    (addr, handle)
}

fn ok_response(body: &str, extra: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}\r\n{body}",
        body.len()
    )
}

#[test]
fn reuses_the_returned_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut served = 0usize;
        for body in ["{\"a\":1}", "{\"a\":2}"] {
            if !drain_head(&mut reader) {
                break;
            }
            let mut w = stream.try_clone().unwrap();
            w.write_all(ok_response(body, "x-bikron-trace-id: abc\r\n").as_bytes())
                .unwrap();
            served += 1;
        }
        served
    });
    let c = client(addr);
    let (r1, conn) = c.request(None, "GET", "/x", None, None).unwrap();
    assert_eq!(r1.status, 200);
    assert_eq!(r1.body, "{\"a\":1}");
    assert_eq!(r1.trace_id.as_deref(), Some("abc"));
    assert!(!r1.close);
    let (r2, conn) = c.request(conn, "GET", "/x", None, None).unwrap();
    assert_eq!(r2.body, "{\"a\":2}");
    drop(conn);
    // Both requests travelled over the single accepted connection.
    assert_eq!(handle.join().unwrap(), 2);
}

#[test]
fn retries_once_on_a_stale_connection() {
    // Each accepted connection serves one request, then the server closes
    // it: the connection handed back after the first request is stale by
    // the second, which must succeed on a fresh dial.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        for body in ["first", "second"] {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            drain_head(&mut reader);
            let mut w = stream;
            w.write_all(ok_response(body, "").as_bytes()).unwrap();
        }
    });
    let c = client(addr);
    let (r1, conn) = c.request(None, "GET", "/a", None, None).unwrap();
    assert_eq!(r1.body, "first");
    assert!(conn.is_some());
    let (r2, _) = c.request(conn, "GET", "/b", None, None).unwrap();
    assert_eq!(r2.body, "second");
    handle.join().unwrap();
}

#[test]
fn connection_close_is_honoured() {
    let (addr, handle) = one_shot(ok_response("{}", "Connection: close\r\n").into_bytes());
    let (resp, conn) = client(addr).request(None, "GET", "/", None, None).unwrap();
    assert!(resp.close);
    assert!(
        conn.is_none(),
        "a closing server's connection is not reusable"
    );
    handle.join().unwrap();
}

#[test]
fn dead_server_is_unanswered() {
    // Bind then drop to find a port with nothing listening.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let c = Client::new(
        format!("127.0.0.1:{port}"),
        Duration::from_millis(200),
        Duration::from_millis(200),
    );
    let err = c.request(None, "GET", "/x", None, None).unwrap_err();
    assert!(matches!(err, ClientError::Unanswered(_)), "{err:?}");
    assert!(err.unanswered());
}

#[test]
fn huge_content_length_is_refused_before_allocation() {
    let claimed: u64 = 1 << 40;
    let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {claimed}\r\n\r\nshort");
    let (addr, handle) = one_shot(raw.into_bytes());
    let c = client(addr);
    let (result, largest) = largest_allocation(|| c.request(None, "GET", "/", None, None));
    match result {
        Err(ClientError::BodyTooLarge(len)) => assert_eq!(len, claimed),
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }
    assert!(largest < 1 << 20, "largest allocation {largest} bytes");
    handle.join().unwrap();
}

#[test]
fn body_cut_short_is_truncated_without_allocating_the_claim() {
    let claimed = 32 << 20;
    let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {claimed}\r\n\r\n0123456789");
    let (addr, handle) = one_shot(raw.into_bytes());
    let c = client(addr);
    let (result, largest) = largest_allocation(|| c.request(None, "GET", "/", None, None));
    match result {
        Err(ref e @ ClientError::Truncated { expected, got }) => {
            assert_eq!(expected, claimed);
            assert_eq!(got, 10);
            assert!(!e.unanswered());
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(largest < claimed / 8, "largest allocation {largest} bytes");
    handle.join().unwrap();
}

#[test]
fn an_undercounted_content_length_is_malformed_not_a_prefix() {
    // The server sends 10 body bytes but declares 5. Reading only the
    // declared 5 would hand back a prefix as if it were the answer.
    let raw = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n0123456789";
    let (addr, handle) = one_shot(raw.as_bytes().to_vec());
    let err = client(addr)
        .request(None, "GET", "/", None, None)
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Malformed("bytes beyond Content-Length")),
        "{err:?}"
    );
    assert!(!err.unanswered());
    handle.join().unwrap();
}

#[test]
fn oversized_head_line_is_refused() {
    let raw = format!(
        "HTTP/1.1 200 OK\r\nX-Long: {}\r\nContent-Length: 2\r\n\r\n{{}}",
        "a".repeat(4 * MAX_HEAD_LINE)
    );
    let (addr, handle) = one_shot(raw.into_bytes());
    let c = client(addr);
    let (result, largest) = largest_allocation(|| c.request(None, "GET", "/", None, None));
    assert!(
        matches!(result, Err(ClientError::HeadLineTooLong)),
        "{result:?}"
    );
    assert!(
        largest < 4 * MAX_HEAD_LINE,
        "largest allocation {largest} bytes"
    );
    handle.join().unwrap();
}

#[test]
fn non_http_status_line_is_refused() {
    for status_line in ["SSH-2.0-OpenSSH_9.6", "HTTP/2 200", "200 OK"] {
        let raw = format!("{status_line}\r\nContent-Length: 2\r\n\r\n{{}}");
        let (addr, handle) = one_shot(raw.into_bytes());
        let err = client(addr)
            .request(None, "GET", "/", None, None)
            .unwrap_err();
        assert!(
            matches!(err, ClientError::NotHttp(_)),
            "{status_line}: {err:?}"
        );
        handle.join().unwrap();
    }
}

#[test]
fn post_bodies_are_framed_with_content_length() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let req =
            bikron_serve::http::parse_request(&mut BufReader::new(stream.try_clone().unwrap()))
                .unwrap();
        let mut w: TcpStream = stream;
        let body = String::from_utf8(req.body().to_vec()).unwrap();
        w.write_all(ok_response(&body, "").as_bytes()).unwrap();
        req
    });
    let (resp, _) = client(addr)
        .request(
            None,
            "POST",
            "/v1/batch",
            Some("vertex 1\nvertex 2".as_bytes()),
            Some("00-tp"),
        )
        .unwrap();
    assert_eq!(resp.body, "vertex 1\nvertex 2");
    let req = handle.join().unwrap();
    assert_eq!(req.method(), "POST");
    assert_eq!(req.path(), "/v1/batch");
    assert_eq!(req.header("traceparent"), Some("00-tp"));
}

#[test]
fn a_stall_after_the_status_line_is_not_retried() {
    // The server answers a status line, then goes silent past the
    // client's deadline. A byte has arrived, so the timeout is final: the
    // listener stays open for a second and must see no second dial.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let handle = std::thread::spawn(move || {
        let mut held = Vec::new();
        let watch_until = Instant::now() + Duration::from_secs(1);
        while Instant::now() < watch_until {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    drain_head(&mut BufReader::new(stream.try_clone().unwrap()));
                    let mut w = stream.try_clone().unwrap();
                    w.write_all(b"HTTP/1.1 200 OK\r\n").unwrap();
                    held.push(stream);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        held.len()
    });
    let c = Client::new(addr, Duration::from_secs(1), Duration::from_millis(200));
    let started = Instant::now();
    let err = c.request(None, "GET", "/", None, None).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err:?}");
    assert!(started.elapsed() < Duration::from_millis(900));
    assert_eq!(handle.join().unwrap(), 1, "accepted connections");
}

#[test]
fn send_then_finish_overlaps_two_servers() {
    // Both requests are written before either answer is read; each
    // server answers only once the other has its request, so a client
    // that read the first answer before sending the second would stall.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let servers: Vec<_> = ["one", "two"]
        .into_iter()
        .map(|body| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let barrier = barrier.clone();
            let handle = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                drain_head(&mut BufReader::new(stream.try_clone().unwrap()));
                barrier.wait();
                let mut w = stream;
                w.write_all(ok_response(body, "").as_bytes()).unwrap();
            });
            (client(addr), handle)
        })
        .collect();
    let pending: Vec<_> = servers
        .iter()
        .map(|(c, _)| c.send(None, "GET", "/x", None, None).unwrap())
        .collect();
    let bodies: Vec<String> = servers
        .iter()
        .zip(pending)
        .map(|((c, _), p)| c.finish(p).unwrap().0.body)
        .collect();
    assert_eq!(bodies, ["one", "two"]);
    for (_, h) in servers {
        h.join().unwrap();
    }
}
