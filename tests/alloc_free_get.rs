//! The steady-state keep-alive GET path allocates nothing.
//!
//! An in-process pair server for the Table-I product `(A+I)⊗A` answers
//! one keep-alive connection. After 1,000 warm-up requests have grown
//! the connection's buffers, 10,000 pipelined vertex, edge, neighbors
//! and stats GETs (the same cycle of requests, in the same bursts) must
//! cause zero heap allocations anywhere in the process, and every body
//! must equal the one `ServeState::handle` renders for the same request.
//!
//! A counting global allocator sees every thread, so the client side of
//! the measured window allocates nothing either: the bursts are rendered
//! in advance, and answers are read into one preallocated buffer and
//! parsed in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bikron_core::SelfLoopMode;
use bikron_generators::unicode_like::unicode_like;
use bikron_serve::http::parse_request;
use bikron_serve::{ServeState, Server, ServerConfig};

/// Counts every allocation and reallocation in the process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose implementation upholds the `GlobalAlloc` contract; the only
// other effect is a relaxed counter increment, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: usize = 1_000;
const MEASURED: usize = 10_000;
/// Requests per pipelined burst (one `write` from the client).
const BURST: usize = 8;
/// Distinct requests in the repeated cycle; a multiple of `BURST`, so
/// every measured burst is one the warm-up already sent.
const CYCLE: usize = 200;

/// The cycle of request targets: vertex, edge, neighbors (default and
/// explicit pages) and stats, over keys spread across the product.
fn targets(n: usize) -> Vec<String> {
    (0..CYCLE)
        .map(|i| {
            let p = (i * 7_919 + 13) % n;
            let q = (i * 104_729 + 1) % n;
            match i % 5 {
                0 | 1 => format!("/v1/vertex/{p}"),
                2 => format!("/v1/edge/{p}/{q}"),
                3 if i % 2 == 0 => format!("/v1/neighbors/{p}"),
                3 => format!("/v1/neighbors/{p}?offset=1&limit=16"),
                _ => "/v1/stats".to_string(),
            }
        })
        .collect()
}

/// Read `expected.len()` answers from `stream` into `buf` (reused, never
/// grown) and check each is a 200 whose body equals its expected body.
fn read_answers(stream: &mut TcpStream, buf: &mut [u8], expected: &[&[u8]]) {
    let (mut filled, mut at) = (0, 0);
    for want in expected {
        let (head_end, body_len) = loop {
            if let Some(framed) = frame(&buf[at..filled]) {
                break framed;
            }
            let n = stream.read(&mut buf[filled..]).expect("read answers");
            assert!(n > 0, "server closed the connection");
            filled += n;
        };
        while filled < at + head_end + body_len {
            let n = stream.read(&mut buf[filled..]).expect("read body");
            assert!(n > 0, "server closed the connection mid-body");
            filled += n;
        }
        assert!(
            buf[at..].starts_with(b"HTTP/1.1 200 OK\r\n"),
            "not a 200: {:?}",
            String::from_utf8_lossy(&buf[at..at + head_end])
        );
        let body = &buf[at + head_end..at + head_end + body_len];
        assert!(
            body == *want,
            "body differs from ServeState::handle's: {:?}",
            String::from_utf8_lossy(body)
        );
        at += head_end + body_len;
    }
    assert_eq!(at, filled, "bytes beyond the expected answers");
}

/// The head length (through the blank line) and `Content-Length` of the
/// answer at the start of `bytes`, once its head is complete.
fn frame(bytes: &[u8]) -> Option<(usize, usize)> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    const KEY: &[u8] = b"Content-Length: ";
    let key = bytes[..head_end]
        .windows(KEY.len())
        .position(|w| w == KEY)
        .expect("Content-Length header")
        + KEY.len();
    let len = bytes[key..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0usize, |acc, &d| acc * 10 + usize::from(d - b'0'));
    Some((head_end, len))
}

#[test]
fn steady_state_pipelined_gets_allocate_nothing() {
    let a = unicode_like();
    let state = Arc::new(
        ServeState::build(a.clone(), a, SelfLoopMode::FactorA, None).expect("Table-I pair"),
    );
    let targets = targets(state.num_vertices());
    let raw: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes())
        .collect();
    let expected: Vec<Vec<u8>> = raw
        .iter()
        .map(|r| {
            let resp = state.handle(&parse_request(&mut &r[..]).expect("parse"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body.into_bytes()
        })
        .collect();
    let expected: Vec<&[u8]> = expected.iter().map(Vec::as_slice).collect();
    // Every burst of the cycle, rendered once.
    let bursts: Vec<Vec<u8>> = raw.chunks(BURST).map(|c| c.concat()).collect();

    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let running = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; 1 << 20];
    let mut send = |stream: &mut TcpStream, requests: usize| {
        for k in 0..requests / BURST {
            let b = k % bursts.len();
            stream.write_all(&bursts[b]).expect("write burst");
            read_answers(stream, &mut buf, &expected[b * BURST..(b + 1) * BURST]);
        }
    };
    send(&mut stream, WARM_UP);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    send(&mut stream, MEASURED);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;

    drop(stream);
    state.request_shutdown();
    running.join().expect("server thread");
    assert_eq!(
        allocations, 0,
        "{MEASURED} steady-state GETs allocated {allocations} times"
    );
}
