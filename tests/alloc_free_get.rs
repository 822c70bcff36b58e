//! The steady-state keep-alive GET and batch paths allocate nothing.
//!
//! An in-process pair server for the Table-I product `(A+I)⊗A` answers
//! one keep-alive connection. After 1,000 warm-up requests have grown
//! the connection's buffers, 10,000 pipelined vertex, edge, neighbors
//! and stats GETs (the same cycle of requests, in the same bursts) must
//! cause zero heap allocations anywhere in the process, and every body
//! must equal the one `ServeState::handle` renders for the same request.
//! The same holds for 1,000 pipelined `POST /v1/batch` requests of 64
//! queries each, in the Table-I batch mix (vertex 60%, edge 25%,
//! neighbors 15%).
//!
//! The same holds through the router: an in-process router over two
//! in-process Table-I replicas relays 1,000 pipelined batches, each
//! burst as one run, without an allocation in any of the three servers.
//!
//! A counting global allocator sees every thread, so the client side of
//! the measured window allocates nothing either: the bursts are rendered
//! in advance, and answers are read into one preallocated buffer and
//! parsed in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bikron_core::SelfLoopMode;
use bikron_generators::unicode_like::unicode_like;
use bikron_router::{RouterOptions, RouterState};
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

/// The counter sees every thread, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// The body `ServeState::handle` renders for each of `requests`, all 200s.
fn expected_bodies(state: &ServeState, requests: &[Vec<u8>]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .map(|r| {
            let resp = state.handle(&parse_request(&mut &r[..]).expect("parse"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body.into_bytes()
        })
        .collect()
}

/// Send `requests` (rendered once each) to `addr` on one keep-alive
/// connection, pipelined `burst` at a time, and return how many
/// allocations the process made over the `measured` requests that follow
/// `warm_up` requests of the same cycle. Every body must equal its
/// `expected` one.
fn count_allocations(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    burst: usize,
    warm_up: usize,
    measured: usize,
) -> u64 {
    let expected: Vec<&[u8]> = expected.iter().map(Vec::as_slice).collect();
    // Every burst of the cycle, rendered once.
    let bursts: Vec<Vec<u8>> = requests.chunks(burst).map(|c| c.concat()).collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; 1 << 20];
    let mut send = |stream: &mut TcpStream, requests: usize| {
        for k in 0..requests / burst {
            let b = k % bursts.len();
            stream.write_all(&bursts[b]).expect("write burst");
            read_answers(stream, &mut buf, &expected[b * burst..(b + 1) * burst]);
        }
    };
    send(&mut stream, warm_up);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    send(&mut stream, measured);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Serve `state` on a one-worker server of its own: its address and the
/// server thread, which ends after `state.request_shutdown()`.
fn serve(state: &Arc<ServeState>, threads: usize) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServerConfig::default()
        },
        Arc::clone(state),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    (
        addr,
        std::thread::spawn(move || server.run().expect("server run")),
    )
}

/// [`count_allocations`] against one node serving `state`.
fn count_node_allocations(
    state: Arc<ServeState>,
    requests: &[Vec<u8>],
    burst: usize,
    warm_up: usize,
    measured: usize,
) -> u64 {
    let expected = expected_bodies(&state, requests);
    let (addr, running) = serve(&state, 1);
    let allocations = count_allocations(addr, requests, &expected, burst, warm_up, measured);
    state.request_shutdown();
    running.join().expect("server thread");
    allocations
}

fn table1_state() -> Arc<ServeState> {
    let a = unicode_like();
    Arc::new(ServeState::build(a.clone(), a, SelfLoopMode::FactorA, None).expect("Table-I pair"))
}

#[test]
fn steady_state_pipelined_gets_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let state = table1_state();
    let requests: Vec<Vec<u8>> = targets(state.num_vertices())
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes())
        .collect();
    let allocations = count_node_allocations(state, &requests, BURST, WARM_UP, MEASURED);
    assert_eq!(
        allocations, 0,
        "{MEASURED} steady-state GETs allocated {allocations} times"
    );
}

/// Queries per batch, as in the benchmark's batch workloads.
const BATCH_LINES: usize = 64;
/// Distinct batches in the repeated cycle; a multiple of `BATCH_BURST`.
const BATCHES: usize = 16;
/// Batches per pipelined burst.
const BATCH_BURST: usize = 4;
const BATCH_WARM_UP: usize = 100;
const BATCH_MEASURED: usize = 1_000;

/// One 64-line batch body in the Table-I mix: vertex 60%, edge 25% (half
/// of them known edges), neighbors 15% at offsets and limits of 1 to 64.
fn batch_body(state: &ServeState, batch: usize) -> String {
    let n = state.num_vertices();
    let mut body = String::new();
    for line in 0..BATCH_LINES {
        let i = batch * BATCH_LINES + line;
        let p = (i * 7_919 + 13) % n;
        let q = (i * 104_729 + 1) % n;
        let query = match i % 20 {
            0..=11 => format!("vertex {p}"),
            12..=13 => format!("edge {p} {q}"),
            14..=16 => match first_neighbor(state, p) {
                Some(q) => format!("edge {p} {q}"),
                None => format!("vertex {p}"),
            },
            _ => format!("neighbors {p} {} {}", i % 3, 1 + i % 64),
        };
        body.push_str(&query);
        body.push('\n');
    }
    body
}

/// The first neighbor of `p`, if any, read from its neighbors answer.
fn first_neighbor(state: &ServeState, p: usize) -> Option<usize> {
    let raw = format!("GET /v1/neighbors/{p}?limit=1 HTTP/1.1\r\n\r\n");
    let body = state
        .handle(&parse_request(&mut raw.as_bytes()).expect("parse"))
        .body;
    const KEY: &str = "\"neighbors\": [";
    let list = &body[body.find(KEY).expect("neighbors member") + KEY.len()..];
    list.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
}

#[test]
fn steady_state_pipelined_batches_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let state = table1_state();
    let requests = batch_requests(&state, BATCHES);
    let allocations =
        count_node_allocations(state, &requests, BATCH_BURST, BATCH_WARM_UP, BATCH_MEASURED);
    assert_eq!(
        allocations, 0,
        "{BATCH_MEASURED} steady-state batches of {BATCH_LINES} allocated {allocations} times"
    );
}

/// The first `count` batch requests of the cycle, rendered.
fn batch_requests(state: &ServeState, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|b| {
            let body = batch_body(state, b);
            format!(
                "POST /v1/batch HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// Distinct batches the relay test cycles through: three bursts, so the
/// round robin over two replicas sends each burst to both during the
/// warm-up, and every buffer on either side has grown to its size.
const RELAYED_BATCHES: usize = 12;

/// The router relays each pipelined burst of batches as one run to one
/// of two Table-I replicas, all in this process: after warm-up, neither
/// the router nor the replicas allocate, and every body is the one
/// `ServeState::handle` renders.
#[test]
fn steady_state_relayed_batches_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let replicas = [table1_state(), table1_state()];
    let (urls, threads): (Vec<String>, Vec<_>) = replicas
        .iter()
        .map(|state| {
            let (addr, thread) = serve(state, 2);
            (addr.to_string(), thread)
        })
        .unzip();
    let router = Arc::new(RouterState::connect(&urls, RouterOptions::default()).expect("router"));
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&router),
    )
    .expect("bind router");
    let addr = server.local_addr().expect("router addr");
    let running = std::thread::spawn(move || server.run().expect("router run"));

    let requests = batch_requests(&replicas[0], RELAYED_BATCHES);
    let expected = expected_bodies(&replicas[0], &requests);
    let allocations = count_allocations(
        addr,
        &requests,
        &expected,
        BATCH_BURST,
        BATCH_WARM_UP,
        BATCH_MEASURED,
    );

    router.request_shutdown();
    running.join().expect("router thread");
    for (state, thread) in replicas.iter().zip(threads) {
        state.request_shutdown();
        thread.join().expect("replica thread");
    }
    assert_eq!(
        allocations, 0,
        "{BATCH_MEASURED} relayed batches of {BATCH_LINES} allocated {allocations} times"
    );
}
