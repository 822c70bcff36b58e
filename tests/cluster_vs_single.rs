//! Differential test: a cluster of serve replicas behind the router
//! against a single-node server over the same program.
//!
//! The cluster contract is *byte identity*: any successful response a
//! client gets from the router must be exactly the bytes a single
//! `bikron serve` would have produced — same JSON spacing, same field
//! order, same pagination framing. This suite stands up real TCP
//! clusters (2 and 3 replicas, each a `Server` over a full `ServeState`,
//! fronted by a `RouterServer`) and compares 100% of vertices, 100% of
//! ordered pairs, every neighbors page, the partitioned edge stream, and
//! relayed batch bodies against the in-process single-node answer. It
//! also writes pipelined bursts of 10 mixed requests in one write each
//! (batches, GETs, `/v1/stats`, JSON and CSV scatter pages, a 404 the
//! router answers and a 400 a replica answers), whose every status,
//! `Content-Type` and body, error bodies included, must match the
//! single node's.
//!
//! A separate test kills one replica and asserts no request fails: the
//! requests that pick the dead replica go to the next one, every key
//! keeps answering byte-identically, and `/v1/health` reports
//! `degraded` naming exactly the dead replica.

use std::io::{BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_router::{RouterOptions, RouterState};
use bikron_serve::http::{parse_request, stamp_trace_id};
use bikron_serve::pool::{Server, ServerConfig};
use bikron_serve::pool::{Server as RouterServer, ServerConfig as RouterConfig};
use bikron_serve::{ServeOptions, ServeState};

const N: usize = 25; // cycle(5) ⊗ K_{2,3}

/// The single-node reference: same program, driven in-process (its
/// `handle()` bodies are what the wire carries for 200s).
fn single_node() -> ServeState {
    ServeState::build_with(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::None,
        ServeOptions::default(),
    )
    .unwrap()
}

fn single_get(state: &ServeState, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
    let resp = state.handle(&req);
    (resp.status, resp.body)
}

fn single_post(state: &ServeState, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
    let resp = state.handle(&req);
    (resp.status, resp.body)
}

/// Minimal keep-alive HTTP client. One connection serves the whole test
/// run — both because that is how real clients talk to the router and
/// because a fresh dial per request would pay the accept-loop poll
/// interval thousands of times over.
struct Client {
    addr: SocketAddr,
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            addr,
            reader: std::io::BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Send one request and read the Content-Length-framed response:
    /// `(status, head, body)`. Reconnects if the server closed the
    /// previous exchange.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        use std::io::BufRead as _;
        let extra = if body.is_empty() {
            String::new()
        } else {
            format!("Content-Length: {}\r\n", body.len())
        };
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n{body}"
        )
        .expect("send");
        if self.reader.fill_buf().expect("read answer").is_empty() {
            // Server closed the idle connection; redial and retry.
            *self = Client::connect(self.addr);
            return self.request(method, path, body);
        }
        let response = self.read_response();
        if response.1.lines().any(|l| l == "Connection: close") {
            *self = Client::connect(self.addr);
        }
        response
    }

    /// Read one Content-Length-framed response: `(status, head, body)`.
    fn read_response(&mut self) -> (u16, String, String) {
        use std::io::BufRead as _;
        let mut head = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read header");
            assert!(n > 0, "connection closed mid-response:\n{head}");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .trim()
            .parse()
            .expect("length");
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf).expect("read body");
        (status, head, String::from_utf8(buf).expect("utf-8 body"))
    }

    fn get(&mut self, path: &str) -> (u16, String, String) {
        self.request("GET", path, "")
    }

    /// Send `requests` in one write and read their answers in order:
    /// `(status, content type, body)` each.
    fn burst(&mut self, requests: &[Query]) -> Vec<(u16, String, String)> {
        let raw: String = requests.iter().map(Query::render).collect();
        self.writer.write_all(raw.as_bytes()).expect("send burst");
        requests
            .iter()
            .map(|_| {
                let (status, head, body) = self.read_response();
                assert!(!head.contains("Connection: close"), "{head}");
                let content_type = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Type: "))
                    .expect("Content-Type");
                (status, content_type.to_string(), body)
            })
            .collect()
    }
}

/// One request of a pipelined burst, with a `traceparent` of its own,
/// so the trace id every error body carries is known in advance.
struct Query {
    method: &'static str,
    path: String,
    body: String,
    trace_id: u128,
}

impl Query {
    fn render(&self) -> String {
        format!(
            "{} {} HTTP/1.1\r\nHost: t\r\n\
             traceparent: 00-{:032x}-00f067aa0ba902b7-01\r\n\
             Content-Length: {}\r\n\r\n{}",
            self.method,
            self.path,
            self.trace_id,
            self.body.len(),
            self.body
        )
    }

    /// The single node's answer: its `handle()` status, content type
    /// and body, with the trace id stamped into an error body as the
    /// transport stamps it.
    fn single_answer(&self, state: &ServeState) -> (u16, String, String) {
        let req = parse_request(&mut self.render().as_bytes()).unwrap();
        let resp = state.handle(&req);
        let mut body = resp.body.clone();
        stamp_trace_id(resp.answer(), &mut body, &format!("{:032x}", self.trace_id));
        (resp.status, resp.content_type.to_string(), body)
    }
}

/// Burst `k` of 10: two whole-space batches, vertex, edge and neighbors
/// GETs, `/v1/stats`, a JSON and a CSV scatter page, a 404 the router
/// answers itself and a 400 a replica answers.
fn mixed_burst(k: usize) -> Vec<Query> {
    let get = |path: String| ("GET", path, String::new());
    let batch = ("POST", "/v1/batch".to_string(), whole_space_batch());
    let p = k % N;
    [
        batch.clone(),
        get(format!("/v1/vertex/{p}")),
        get(format!("/v1/edge/{p}/{}", (p * 7 + 3) % N)),
        get(format!("/v1/neighbors/{p}?offset=1&limit=3")),
        get("/v1/stats".to_string()),
        get(format!("/v1/scatter/degree-squares?offset={p}&limit=4")),
        get(format!("/nope/{k}")),
        batch,
        get(format!(
            "/v1/scatter/degree-squares?format=csv&offset={p}&limit=4"
        )),
        get("/v1/vertex/banana".to_string()),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (method, path, body))| Query {
        method,
        path,
        body,
        trace_id: (k * 10 + i + 1) as u128,
    })
    .collect()
}

/// Every answer to a pipelined burst through the router, error bodies
/// included, is byte-identical to the single node's, under the same
/// `Content-Type`.
fn assert_bursts_match(single: &ServeState, client: &mut Client, bursts: usize) {
    for k in 0..bursts {
        let queries = mixed_burst(k);
        let got = client.burst(&queries);
        for (query, got) in queries.iter().zip(got) {
            let want = query.single_answer(single);
            assert_eq!(got, want, "burst {k}: {} {}", query.method, query.path);
        }
    }
}

/// Serve `state` on an ephemeral loopback port; returns its URL and the
/// server thread, which ends after `state.request_shutdown()`.
fn start_replica(state: Arc<ServeState>) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            // Short idle timeout so a dead replica's workers notice
            // shutdown quickly even with pooled router connections
            // parked on them.
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
        state,
    )
    .unwrap();
    let url = format!("http://{}", server.local_addr().unwrap());
    (url, std::thread::spawn(move || server.run().unwrap()))
}

/// One running cluster: `count` serve replicas plus the router, each
/// on its own thread, all bound to ephemeral loopback ports.
struct Cluster {
    router_addr: SocketAddr,
    router_state: Arc<RouterState>,
    replica_states: Vec<Arc<ServeState>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    fn start(count: usize) -> Cluster {
        let mut replica_states = Vec::new();
        let mut threads = Vec::new();
        let mut urls = Vec::new();
        for _ in 0..count {
            let state = Arc::new(single_node());
            let (url, thread) = start_replica(Arc::clone(&state));
            urls.push(url);
            replica_states.push(state);
            threads.push(thread);
        }
        let router_state = Arc::new(
            RouterState::connect(
                &urls,
                RouterOptions {
                    upstream_timeout: Duration::from_secs(5),
                    ..RouterOptions::default()
                },
            )
            .unwrap(),
        );
        let router = RouterServer::bind(
            RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 4,
                ..RouterConfig::default()
            },
            Arc::clone(&router_state),
        )
        .unwrap();
        let router_addr = router.local_addr().unwrap();
        threads.push(std::thread::spawn(move || router.run().unwrap()));
        Cluster {
            router_addr,
            router_state,
            replica_states,
            threads,
        }
    }

    /// Stop one replica and wait for its listener to close, so
    /// subsequent dials are refused — the closest in-process stand-in
    /// for SIGKILL.
    fn kill_replica(&mut self, index: usize) {
        self.replica_states[index].request_shutdown();
        self.threads.remove(index).join().unwrap();
    }

    fn shutdown(mut self) {
        self.router_state.request_shutdown();
        for s in &self.replica_states {
            s.request_shutdown();
        }
        for t in self.threads.drain(..) {
            t.join().unwrap();
        }
    }
}

/// Every path whose single-node answer is a 200 must come back from the
/// router byte-identical. (Error bodies get per-request trace ids
/// stamped at the transport layer, so for non-200s only the status is
/// compared.)
fn assert_same(single: &ServeState, client: &mut Client, path: &str) {
    let (want_status, want_body) = single_get(single, path);
    let (status, _, body) = client.get(path);
    assert_eq!(status, want_status, "{path}");
    if want_status == 200 {
        assert_eq!(body, want_body, "{path}");
    }
}

#[test]
fn cluster_answers_byte_identical_to_single_node() {
    let single = single_node();
    for count in [2usize, 3] {
        let cluster = Cluster::start(count);
        let mut client = Client::connect(cluster.router_addr);

        // 100% of vertices and every neighbors page.
        for p in 0..N {
            assert_same(&single, &mut client, &format!("/v1/vertex/{p}"));
            let degree = {
                let (_, body) = single_get(&single, &format!("/v1/vertex/{p}"));
                body.split("\"degree\": ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .trim()
                    .parse::<u64>()
                    .unwrap()
            };
            let mut offset = 0u64;
            loop {
                assert_same(
                    &single,
                    &mut client,
                    &format!("/v1/neighbors/{p}?offset={offset}&limit=4"),
                );
                offset += 4;
                if offset >= degree {
                    break;
                }
            }
        }

        // 100% of ordered pairs, plus clustering on a grid.
        for p in 0..N {
            for q in 0..N {
                assert_same(&single, &mut client, &format!("/v1/edge/{p}/{q}"));
            }
            for q in [0usize, 7, 24] {
                assert_same(&single, &mut client, &format!("/v1/clustering/{p}/{q}"));
            }
        }

        // The partitioned edge stream: each part goes whole to one
        // replica.
        for part in 0..6 {
            assert_same(
                &single,
                &mut client,
                &format!("/v1/edges/{part}/6?limit=11"),
            );
        }

        // Relayed singletons and canonical errors.
        assert_same(&single, &mut client, "/v1/stats");
        assert_same(&single, &mut client, "/v1/vertex/banana");
        assert_same(&single, &mut client, &format!("/v1/vertex/{N}"));
        assert_same(&single, &mut client, "/v1/edge/0/999");

        // Relayed batches over the whole key space, byte-identical to the
        // single-node array; one per replica, round-robin.
        let body = whole_space_batch();
        let (want_status, want_body) = single_post(&single, "/v1/batch", &body);
        assert_eq!(want_status, 200);
        for _ in 0..count {
            let (status, _, got) = client.request("POST", "/v1/batch", &body);
            assert_eq!(status, 200, "{count}-replica batch");
            assert_eq!(got, want_body, "{count}-replica batch diverged");
        }

        // Pipelined bursts of 10 in one write: each run of relayed
        // requests goes to one replica, and every answer matches.
        assert_bursts_match(&single, &mut client, 2 * N);

        // Cluster health: ok verdict, one detail row per replica.
        let (status, _, health) = client.get("/v1/health");
        assert_eq!(status, 200);
        assert!(health.contains("\"status\": \"ok\""), "{health}");
        assert!(health.contains("\"role\": \"router\""), "{health}");
        assert!(
            health.contains(&format!("\"replicas\": {count}")),
            "{health}"
        );

        cluster.shutdown();
    }
}

/// A batch over every vertex, plus edges and a neighbors page.
fn whole_space_batch() -> String {
    let mut lines: Vec<String> = (0..N).map(|p| format!("vertex {p}")).collect();
    lines.push(format!("edge 0 {}", N - 1));
    lines.push(format!("edge {} 0", N - 1));
    lines.push("neighbors 12 0 4".to_string());
    lines.reverse();
    lines.join("\n") + "\n"
}

#[test]
fn killing_one_replica_fails_no_request() {
    let single = single_node();
    let mut cluster = Cluster::start(3);
    let mut client = Client::connect(cluster.router_addr);
    cluster.kill_replica(1);

    // Every key answers 200, byte-identical, including the block
    // [9, 18) a key-range shard 1 of 3 used to own. Round-robin picks
    // the dead replica for every third request; those go to the next.
    for p in 0..N {
        for path in [format!("/v1/vertex/{p}"), format!("/v1/edge/{p}/12")] {
            let (status, _, body) = client.get(&path);
            assert_eq!(status, 200, "{path}: {body}");
            assert_eq!(body, single_get(&single, &path).1, "{path}");
        }
    }

    // Batches over the whole key space, three in a row so one of them
    // picks the dead replica.
    let body = whole_space_batch();
    let (_, want) = single_post(&single, "/v1/batch", &body);
    for turn in 0..3 {
        let (status, _, got) = client.request("POST", "/v1/batch", &body);
        assert_eq!(status, 200, "batch {turn}: {got}");
        assert_eq!(got, want, "batch {turn} diverged");
    }

    // Pipelined bursts: the runs that pick the dead replica go whole to
    // the next one.
    assert_bursts_match(&single, &mut client, 2 * N);

    // Health degrades and names exactly the dead replica.
    let (status, _, health) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\": \"degraded\""), "{health}");
    let detail = |i: usize| {
        health
            .split(&format!("\"replica\": {i},"))
            .nth(1)
            .and_then(|rest| rest.split("\"status\": \"").nth(1))
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(
        [detail(0), detail(1), detail(2)],
        ["ok", "down", "ok"],
        "{health}"
    );

    cluster.shutdown();
}

/// A replica booted from a snapshot reports `"snapshot": "warm"` in
/// `/v1/stats` and a cold one `"cold"`; the handshake compares the bodies
/// without that member, so the two form one cluster, while a replica of
/// another program is still refused.
#[test]
fn a_warm_and_a_cold_replica_of_one_program_form_a_cluster() {
    let cold = Arc::new(single_node());
    let (warm, _) = ServeState::build_from_snapshot(cold.to_snapshot(), ServeOptions::default())
        .expect("warm boot");
    let warm = Arc::new(warm);
    assert!(single_get(&warm, "/v1/stats")
        .1
        .contains("\"snapshot\": \"warm\""));
    let other = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions::default(),
        )
        .unwrap(),
    );
    let replicas = [&cold, &warm, &other];
    let (urls, threads): (Vec<String>, Vec<_>) = replicas
        .iter()
        .map(|state| start_replica(Arc::clone(state)))
        .unzip();

    let router = RouterState::connect(&urls[..2], RouterOptions::default());
    assert_eq!(router.map(|r| r.num_replicas()), Ok(2));
    let refused = RouterState::connect(
        &[urls[0].clone(), urls[2].clone()],
        RouterOptions::default(),
    );
    let other_addr = urls[2].trim_start_matches("http://");
    assert_eq!(
        refused.err(),
        Some(format!(
            "replica 1 ({other_addr}) serves a different program than replica 0 \
             (its /v1/stats body differs)"
        ))
    );

    for (state, thread) in replicas.iter().zip(threads) {
        state.request_shutdown();
        thread.join().unwrap();
    }
}
