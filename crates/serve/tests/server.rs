//! End-to-end tests over real TCP: concurrent keep-alive clients checked
//! byte-exact against the closed-form truth, and load shedding under a
//! saturated bounded queue.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

/// Minimal keep-alive HTTP client for the tests.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        write!(self.writer, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("write request");
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, String) {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h).expect("header line");
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length value");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }
}

/// Start a server on port 0 and return (address, state handle).
fn start(config: ServerConfig) -> (std::net::SocketAddr, Arc<ServeState>) {
    start_with(
        config,
        ServeOptions {
            admin_token: Some("tok".to_string()),
            ..ServeOptions::default()
        },
    )
}

/// Start a server with explicit [`ServeOptions`] (SLO thresholds, access
/// log, …) on port 0.
fn start_with(
    config: ServerConfig,
    options: ServeOptions,
) -> (std::net::SocketAddr, Arc<ServeState>) {
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            options,
        )
        .expect("build state"),
    );
    let server = Server::bind(config, Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, state)
}

#[test]
fn concurrent_clients_get_byte_exact_truth() {
    let (addr, state) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    // Expected bodies computed directly from the closed forms.
    let a = cycle(5);
    let b = complete_bipartite(2, 3);
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
    let sa = FactorStats::compute(&a).unwrap();
    let sb = FactorStats::compute(&b).unwrap();
    let n = prod.num_vertices();
    let expected: Vec<String> = (0..n)
        .map(|p| {
            let (i, k) = prod.indexer().split(p);
            format!(
                "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p),
            )
        })
        .collect();
    let edges: Vec<(usize, usize, u64)> = (0..n)
        .flat_map(|p| (0..n).map(move |q| (p, q)))
        .filter_map(|(p, q)| edge_squares_at(&prod, &sa, &sb, p, q).map(|s| (p, q, s)))
        .collect();
    let expected = Arc::new(expected);
    let edges = Arc::new(edges);

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let expected = Arc::clone(&expected);
            let edges = Arc::clone(&edges);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Every vertex, on one keep-alive connection.
                for p in 0..expected.len() {
                    let (status, body) = client.get(&format!("/v1/vertex/{p}"));
                    assert_eq!(status, 200, "thread {t} vertex {p}");
                    assert_eq!(body, expected[p], "thread {t} vertex {p}");
                }
                // A slice of the edge set, offset by thread id.
                for (p, q, s) in edges.iter().skip(t).step_by(8) {
                    let (status, body) = client.get(&format!("/v1/edge/{p}/{q}"));
                    assert_eq!(status, 200);
                    assert!(body.contains("\"edge\": true"), "({p},{q}): {body}");
                    assert!(
                        body.contains(&format!("\"squares\": {s}")),
                        "({p},{q}): {body}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Stats endpoint agrees with the product-level truth.
    let mut client = Client::connect(addr);
    let (status, body) = client.get("/v1/stats");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"vertices\": {n}")));
    assert!(body.contains(&format!("\"edges\": {}", prod.num_edges())));
    assert!(body.contains("\"mode\": \"loops-a\""));

    // Metrics saw the traffic.
    let (status, body) = client.get("/metrics");
    assert_eq!(status, 200);
    let report = bikron_obs::Report::from_json(&body).expect("metrics parse");
    assert!(report.counter("serve.requests").unwrap_or(0) >= (8 * n) as u64);

    state.request_shutdown();
}

#[test]
fn health_flips_to_degraded_under_injected_stall() {
    let (addr, state) = start_with(
        ServerConfig::default(),
        ServeOptions {
            admin_token: Some("tok".to_string()),
            slo_p99_ms: 50,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(addr);

    // Fast traffic first: health is ok.
    for p in 0..5 {
        let (status, _) = client.get(&format!("/v1/vertex/{p}"));
        assert_eq!(status, 200);
    }
    let (status, body) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // Inject a 200ms stall — far past the 50ms SLO. Its latency is
    // recorded like any other request's, so windowed p99 spikes.
    let (status, body) = client.get("/v1/admin/stall?ms=200&token=tok");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"stalled_ms\": 200"));

    let (status, body) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"degraded\""), "{body}");
    assert!(body.contains("\"ok\": false"), "{body}");

    state.request_shutdown();
}

#[test]
fn prometheus_scrape_is_valid_exposition() {
    let (addr, state) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    for p in 0..3 {
        client.get(&format!("/v1/vertex/{p}"));
    }
    let (status, body) = client.get("/metrics?format=prometheus");
    assert_eq!(status, 200);
    bikron_obs::prom::check_exposition(&body).expect("exposition validates");
    assert!(
        body.contains("# TYPE bikron_serve_requests counter"),
        "{body}"
    );
    assert!(body.contains("bikron_serve_request_ns_bucket"), "{body}");
    // Live gauge and high-water mark are distinct series.
    assert!(body.contains("\nbikron_serve_inflight "), "{body}");
    assert!(body.contains("\nbikron_serve_inflight_peak "), "{body}");
    // Windowed series carry the window label.
    assert!(body.contains("window=\"1m\""), "{body}");
    state.request_shutdown();
}

#[test]
fn access_log_captures_every_request() {
    let log_path = std::env::temp_dir().join(format!(
        "bikron-server-test-access-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let (addr, state) = start_with(
        ServerConfig::default(),
        ServeOptions {
            admin_token: Some("tok".to_string()),
            access_log: Some(log_path.display().to_string()),
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(addr);
    client.get("/v1/vertex/4");
    client.get("/v1/vertex/4");
    client.get("/nope/404");
    // The worker logs each access after writing its response, so the last
    // line can trail the client's read: flush and re-read, bounded.
    let mut text = String::new();
    for _ in 0..50 {
        state.flush_logs();
        text = std::fs::read_to_string(&log_path).expect("access log exists");
        if text.lines().count() >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"path\": \"/v1/vertex/{n}\""), "{text}");
    assert!(lines[2].contains("\"status\": 404"), "{text}");
    assert!(lines.iter().all(|l| l.contains("\"latency_ns\": ")));
    assert!(lines.iter().all(|l| !l.contains("\"cache\"")), "{text}");

    state.request_shutdown();
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn graceful_shutdown_via_admin_token() {
    let (addr, state) = start(ServerConfig::default());
    let mut client = Client::connect(addr);
    let (status, _) = client.get("/v1/shutdown");
    assert_eq!(status, 403);
    assert!(!state.shutdown_requested());
    let (status, body) = client.get("/v1/shutdown?token=tok");
    assert_eq!(status, 200);
    assert!(body.contains("\"shutting_down\": true"));
    assert!(state.shutdown_requested());
}

#[test]
fn saturated_queue_sheds_with_503() {
    let (addr, state) = start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        ..ServerConfig::default()
    });

    // Occupy the single worker: a connection with a half-sent request
    // pins it in `parse_request` until we finish or the timeout fires.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.write_all(b"GET /v1/stats HTTP/1.1\r\n").unwrap();
    slow.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Fill the one queue slot.
    let _queued = TcpStream::connect(addr).expect("queued connect");
    std::thread::sleep(Duration::from_millis(300));

    // Every further connection must be shed with an immediate 503.
    let mut shed_seen = 0;
    for _ in 0..3 {
        let mut c = Client::connect(addr);
        let (status, body) = c.read_response();
        assert_eq!(status, 503, "expected load shed, body: {body}");
        assert!(body.contains("queue is full"), "{body}");
        shed_seen += 1;
    }
    assert_eq!(shed_seen, 3);

    // The pinned client can still finish its request afterwards — the
    // shed path never touches established sessions.
    slow.write_all(b"\r\n").unwrap();
    slow.flush().unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut first = [0u8; 15];
    let mut reader = BufReader::new(slow);
    reader.read_exact(&mut first).expect("slow response");
    assert_eq!(&first, b"HTTP/1.1 200 OK");

    state.request_shutdown();
}
