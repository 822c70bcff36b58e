//! Differential test: a sharded serve cluster behind the scatter-gather
//! router against a single-node server over the same program.
//!
//! The cluster contract is *byte identity*: any successful response a
//! client gets from the router must be exactly the bytes a single
//! unsharded `bikron serve` would have produced — same JSON spacing,
//! same field order, same pagination framing. This suite stands up real
//! TCP clusters (2 and 3 shards, each shard a `Server` with a
//! `--shard`-style `ServeState`, fronted by a `RouterServer`) and
//! compares 100% of vertices, 100% of ordered pairs, every neighbors
//! page, the partitioned edge stream, and scatter-gathered batch bodies
//! against the in-process single-node answer.
//!
//! A separate test kills one shard and asserts the failure stays scoped:
//! keys in the dead shard's block 503 with a range-stamped message while
//! every other key keeps answering byte-identically, and `/v1/health`
//! reports `degraded` naming exactly the dead shard.

use std::io::{BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_router::{RouterOptions, RouterState};
use bikron_serve::http::parse_request;
use bikron_serve::pool::{Server, ServerConfig};
use bikron_serve::pool::{Server as RouterServer, ServerConfig as RouterConfig};
use bikron_serve::{ServeOptions, ServeState};

const N: usize = 25; // cycle(5) ⊗ K_{2,3}

/// The single-node reference: same program, no sharding, driven
/// in-process (its `handle()` bodies are what the wire carries for 200s).
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
        let mut head = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read header");
            if n == 0 && head.is_empty() {
                // Server closed the idle connection; redial and retry.
                *self = Client::connect(self.addr);
                return self.request(method, path, body);
            }
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
        let closing = head.lines().any(|l| l == "Connection: close");
        if closing {
            *self = Client::connect(self.addr);
        }
        (status, head, String::from_utf8(buf).expect("utf-8 body"))
    }

    fn get(&mut self, path: &str) -> (u16, String, String) {
        self.request("GET", path, "")
    }
}

/// One running cluster: `count` sharded serves plus the router, each on
/// its own thread, all bound to ephemeral loopback ports.
struct Cluster {
    router_addr: SocketAddr,
    router_state: Arc<RouterState>,
    shard_states: Vec<Arc<ServeState>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    fn start(count: usize) -> Cluster {
        let mut shard_states = Vec::new();
        let mut threads = Vec::new();
        let mut urls = Vec::new();
        for index in 0..count {
            let state = Arc::new(
                ServeState::build_with(
                    cycle(5),
                    complete_bipartite(2, 3),
                    SelfLoopMode::None,
                    ServeOptions {
                        shard: Some((index, count)),
                        ..ServeOptions::default()
                    },
                )
                .unwrap(),
            );
            let server = Server::bind(
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    threads: 2,
                    // Short idle timeout so a dead shard's workers notice
                    // shutdown quickly even with pooled router
                    // connections parked on them.
                    read_timeout: Duration::from_millis(500),
                    ..ServerConfig::default()
                },
                Arc::clone(&state),
            )
            .unwrap();
            urls.push(format!("http://{}", server.local_addr().unwrap()));
            shard_states.push(state);
            threads.push(std::thread::spawn(move || server.run().unwrap()));
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
            shard_states,
            threads,
        }
    }

    /// Stop one shard and wait for its listener to close, so subsequent
    /// dials are refused — the closest in-process stand-in for SIGKILL.
    fn kill_shard(&mut self, index: usize) {
        self.shard_states[index].request_shutdown();
        self.threads.remove(index).join().unwrap();
    }

    fn shutdown(mut self) {
        self.router_state.request_shutdown();
        for s in &self.shard_states {
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

        // The partitioned edge stream: the router routes each part to
        // the shard owning its slice of the part space.
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

        // Scatter-gathered batch: lines spanning every shard, reassembled
        // in request order, byte-identical to the single-node array.
        let mut lines = Vec::new();
        for p in 0..N {
            lines.push(format!("vertex {p}"));
        }
        lines.push(format!("edge 0 {}", N - 1));
        lines.push(format!("edge {} 0", N - 1));
        lines.push("neighbors 12 0 4".to_string());
        // Interleave so consecutive lines hit different shards.
        lines.reverse();
        let body = lines.join("\n") + "\n";
        let (want_status, want_body) = single_post(&single, "/v1/batch", &body);
        assert_eq!(want_status, 200);
        let (status, _, got) = client.request("POST", "/v1/batch", &body);
        assert_eq!(status, 200, "{count}-shard batch");
        assert_eq!(got, want_body, "{count}-shard batch diverged");

        // Cluster health: ok verdict, one detail row per shard.
        let (status, _, health) = client.get("/v1/health");
        assert_eq!(status, 200);
        assert!(health.contains("\"status\": \"ok\""), "{health}");
        assert!(health.contains("\"role\": \"router\""), "{health}");
        assert!(health.contains(&format!("\"shards\": {count}")), "{health}");

        cluster.shutdown();
    }
}

#[test]
fn killing_one_shard_scopes_failures_to_its_key_range() {
    let single = single_node();
    let mut cluster = Cluster::start(3);
    let mut client = Client::connect(cluster.router_addr);
    // 25 vertices over 3 shards: blocks [0,9), [9,18), [18,25).
    cluster.kill_shard(1);

    // Keys in the dead block: 503 with the owned range named, plus a
    // Retry-After hint; the other blocks keep answering byte-identically.
    for p in 9..18 {
        let (status, head, body) = client.get(&format!("/v1/vertex/{p}"));
        assert_eq!(status, 503, "vertex {p}");
        assert!(body.contains("shard 1"), "{body}");
        assert!(
            body.contains("vertices 9..18 are temporarily unserved"),
            "{body}"
        );
        assert!(head.contains("Retry-After: 1"), "{head}");
    }
    for p in (0..9).chain(18..25) {
        assert_same(&single, &mut client, &format!("/v1/vertex/{p}"));
        assert_same(&single, &mut client, &format!("/v1/edge/{p}/12"));
    }

    // A batch spanning dead and live blocks still returns the array,
    // with the dead slots carrying the scoped error and the live slots
    // byte-identical to the single-node bodies.
    let (status, _, got) = client.request("POST", "/v1/batch", "vertex 3\nvertex 12\nvertex 20\n");
    assert_eq!(status, 200);
    let (_, want3) = single_get(&single, "/v1/vertex/3");
    let (_, want20) = single_get(&single, "/v1/vertex/20");
    assert!(got.contains(want3.trim_end()), "{got}");
    assert!(got.contains(want20.trim_end()), "{got}");
    assert!(got.contains("temporarily unserved"), "{got}");

    // Health degrades and names exactly the dead shard.
    let (status, _, health) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\": \"degraded\""), "{health}");
    assert!(health.contains("\"shard\": 1"), "{health}");
    assert_eq!(health.matches("\"down\"").count(), 1, "{health}");
    assert_eq!(health.matches("\"ok\"").count(), 2, "{health}");

    cluster.shutdown();
}
