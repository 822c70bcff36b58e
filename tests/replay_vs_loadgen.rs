//! Replay determinism, end to end: record a real access log from a live
//! server, replay it (dry-run and live), and check the two contracts the
//! `bikron replay` tool exists for:
//!
//! 1. **Multiset fidelity** — the requests a live replay issues are
//!    exactly the replayable lines of the recorded log (same path-shape
//!    multiset), verified by recording the *target* server's access log
//!    and diffing it against the source log.
//! 2. **Key range** — `{n}` holes are filled from the *product's* vertex
//!    count, not the first factor's.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bikron_cli::replay::{parse_access_log, ReplayConfig};
use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::{Exchange, Handler, ServeOptions, ServeState, Server, ServerConfig, Transport};

/// Minimal keep-alive HTTP client (same shape as the serve test suite's).
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

/// Start a server on port 0, optionally recording an access log.
fn start(access_log: Option<String>) -> (std::net::SocketAddr, Arc<ServeState>) {
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions {
                access_log,
                ..ServeOptions::default()
            },
        )
        .expect("build state"),
    );
    let server = Server::bind(ServerConfig::default(), Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, state)
}

fn temp_log(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "bikron-replay-test-{tag}-{}.log",
            std::process::id()
        ))
        .display()
        .to_string()
}

/// Multiset of path shapes, for order-insensitive comparison.
fn shape_counts(shapes: impl IntoIterator<Item = String>) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for s in shapes {
        *counts.entry(s).or_insert(0) += 1;
    }
    counts
}

fn replay_config(log: &str, addr: std::net::SocketAddr, seed: u64) -> ReplayConfig {
    ReplayConfig::parse(&[
        log.to_string(),
        format!("{}:{}", addr.ip(), addr.port()),
        "--seed".to_string(),
        seed.to_string(),
    ])
    .expect("replay config")
}

#[test]
fn replay_reissues_the_recorded_multiset() {
    // ---- Record: drive a deterministic workload on the source server.
    let source_log = temp_log("source");
    let _ = std::fs::remove_file(&source_log);
    let (src_addr, src_state) = start(Some(source_log.clone()));
    let mut client = Client::connect(src_addr);
    let n = src_state.num_vertices();
    for round in 0..3 {
        for p in 0..n {
            client.get(&format!("/v1/vertex/{p}"));
        }
        if round == 0 {
            for p in 0..4 {
                client.get(&format!("/v1/edge/{p}/{}", p + 1));
                client.get(&format!("/v1/neighbors/{p}?limit=4"));
            }
        }
    }
    client.get("/v1/stats");
    client.get("/nope/missing"); // 404s replay too (they are not errors)
                                 // Access events are logged after the response is written; flush and
                                 // re-read until the tail line lands.
    let mut lines = Vec::new();
    let mut skipped = 0;
    for _ in 0..50 {
        src_state.flush_logs();
        let text = std::fs::read_to_string(&source_log).expect("source log exists");
        (lines, skipped) = parse_access_log(&text);
        if lines.len() >= 3 * n + 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    // 3n vertex + 4 edge + 4 neighbors + stats + the 404 line.
    assert_eq!(lines.len(), 3 * n + 10);
    assert_eq!(skipped, 0);
    let recorded = shape_counts(lines.iter().map(|l| l.path_shape.clone()));

    // ---- Dry-run: plans without a server, reports the replayable count.
    let mut dry_cfg = replay_config(&source_log, src_addr, 7);
    dry_cfg.dry_run = true;
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&dry_cfg, &mut out).expect("dry-run"));
    let dry = String::from_utf8(out).unwrap();
    assert!(
        dry.contains(&format!("{} replayable request(s)", lines.len())),
        "{dry}"
    );

    // ---- Live replay onto a fresh server that records its own log.
    let target_log = temp_log("target");
    let _ = std::fs::remove_file(&target_log);
    let (target_addr, target_state) = start(Some(target_log.clone()));
    let cfg = replay_config(&source_log, target_addr, 7);
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).expect("live replay"));
    let summary = String::from_utf8(out).unwrap();
    assert!(
        summary.contains(&format!("{} replayed, 0 skipped, 0 error(s)", lines.len())),
        "{summary}"
    );
    // The worker logs each access *after* writing the response, so the
    // final line can trail the client's read by a beat — flush and
    // re-read until the log is complete (bounded, so a genuine loss
    // still fails the multiset assertion below).
    let expected_target_lines = lines.len() + 1; // + the /v1/stats handshake
    let mut target_lines = Vec::new();
    for _ in 0..50 {
        target_state.flush_logs();
        let target_text = std::fs::read_to_string(&target_log).expect("target log exists");
        (target_lines, _) = parse_access_log(&target_text);
        if target_lines.len() >= expected_target_lines {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }

    // Multiset fidelity: the target saw exactly the recorded shapes,
    // plus the one /v1/stats handshake replay issues to learn the
    // vertex count.
    let mut replayed = shape_counts(target_lines.iter().map(|l| l.path_shape.clone()));
    let stats_seen = replayed.get_mut("/v1/stats").expect("handshake recorded");
    *stats_seen -= 1;
    if *stats_seen == 0 {
        replayed.remove("/v1/stats");
    }
    let mut expected = recorded.clone();
    expected.retain(|_, c| *c > 0);
    replayed.retain(|_, c| *c > 0);
    assert_eq!(replayed, expected, "replayed multiset diverged from log");

    for path in [&source_log, &target_log] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn replay_respects_count_and_exits_nonzero_on_errors() {
    // A log whose lines all 404 on the target is replayable (404 is an
    // answer, not an error)…
    let log = temp_log("count");
    let mut lines = String::new();
    for i in 0..10 {
        lines.push_str(&format!(
            "{{\"ts_ms\": {i}, \"target\": \"access\", \"method\": \"GET\", \
             \"path\": \"/v1/vertex/{{n}}\", \"status\": 200, \"latency_ns\": 10, \
             \"bytes\": 1, \"trace_id\": \"t\"}}\n"
        ));
    }
    std::fs::write(&log, &lines).unwrap();

    let (addr, _state) = start(None);
    let mut cfg = replay_config(&log, addr, 3);
    cfg.count = 4;
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).expect("limited replay"));
    let summary = String::from_utf8(out).unwrap();
    assert!(summary.contains("4 replayed"), "{summary}");

    // …while a dead target is a hard error, not a silent zero-count run.
    // Grab a free port and close it again so nothing is listening there.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let cfg = replay_config(&log, dead_addr, 3);
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&cfg, &mut out).is_err());

    let _ = std::fs::remove_file(&log);
}

/// A pair server that records every request path it answers.
struct Recording {
    state: ServeState,
    paths: Mutex<Vec<String>>,
}

impl Handler for Recording {
    fn respond(&self, burst: &mut [Exchange]) {
        let mut paths = self.paths.lock().unwrap();
        paths.extend(burst.iter().map(|x| x.req.path().to_string()));
        drop(paths);
        self.state.respond(burst)
    }
    fn transport(&self) -> &Transport {
        self.state.transport()
    }
}

#[test]
fn replay_keys_span_the_product_not_the_first_factor() {
    // C5 ⊗ K_{2,3} under loops-a: /v1/stats lists factor A's 5 vertices
    // before the product's 25.
    let (n_a, n_c) = (5u64, 25u64);
    let state = ServeState::build_with(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::FactorA,
        ServeOptions::default(),
    )
    .expect("build state");
    assert_eq!(state.num_vertices() as u64, n_c);
    let handler = Arc::new(Recording {
        state,
        paths: Mutex::new(Vec::new()),
    });
    let server = Server::bind(ServerConfig::default(), Arc::clone(&handler)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));

    let log = temp_log("range");
    let lines: String = (0..200)
        .map(|i| {
            format!(
                "{{\"ts_ms\": {i}, \"target\": \"access\", \"method\": \"GET\", \
                 \"path\": \"/v1/vertex/{{n}}\", \"status\": 200}}\n"
            )
        })
        .collect();
    std::fs::write(&log, lines).unwrap();
    let mut out = Vec::new();
    assert!(bikron_cli::replay::run(&replay_config(&log, addr, 11), &mut out).expect("replay"));
    let _ = std::fs::remove_file(&log);

    let keys: Vec<u64> = handler
        .paths
        .lock()
        .unwrap()
        .iter()
        .filter_map(|p| p.strip_prefix("/v1/vertex/"))
        .map(|k| k.parse().expect("numeric vertex key"))
        .collect();
    assert_eq!(keys.len(), 200);
    assert!(
        keys.iter().all(|&k| k < n_c),
        "a key reached past n_C: {keys:?}"
    );
    assert!(
        keys.iter().any(|&k| k >= n_a),
        "every key stayed below n_A = {n_a}: {keys:?}"
    );
}
