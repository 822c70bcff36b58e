//! `loadgen` — closed-loop load generator and correctness checker for
//! `bikron serve`.
//!
//! Spawns `--threads` clients, each with one keep-alive connection,
//! issuing a mixed workload (vertex / known-edge / random-pair /
//! neighbors / stats queries) against a running server. Every response is
//! verified against the same closed-form ground truth the server computes
//! from — a mismatch is a correctness bug, not noise — and latencies are
//! aggregated into RPS + percentiles written as a `bikron-obs/4` report.
//!
//! `--batch K` switches to `POST /v1/batch` with K newline-delimited
//! queries per request; each item of the returned JSON array is verified
//! individually (byte-exact for vertex items). `--zipf S` draws query
//! keys from a Zipf(S) distribution instead of uniform, so a few hot
//! keys dominate. `--label L` namespaces the emitted metrics as
//! `loadgen.L.*` and `--append` folds the counters of an existing
//! `--out` file into the new report, so sequential runs (single /
//! batch) accumulate into one benchmark file.
//!
//! `--cluster` points the same workload at a `bikron router` front for a
//! cluster of serve replicas. The checks don't change — the router's contract is
//! byte-transparency, so every vertex body must still be byte-exact and
//! every batch array identical to a single node's — but the run first
//! verifies the target's `/v1/health` identifies as a router (guarding
//! against benchmarking a single node by mistake) and stamps the replica
//! count into the report meta.
//!
//! `loadgen --expr "EXPR" NAME=SPEC...` targets an expression server
//! (`bikron serve --expr`). The workload adds /v1/clustering and
//! /v1/community probes, and every answer is checked against a
//! **materialised replica** of the chain — the product graph is built
//! locally and 4-cycle counts recounted with the direct butterfly
//! algorithms, so server and checker share no closed-form code path.
//! /v1/stats must report the canonicalised expression.
//!
//! ```sh
//! bikron serve unicode unicode loops-a --addr 127.0.0.1:7474 &
//! cargo run --release -p bikron-bench --bin loadgen -- \
//!     unicode unicode loops-a --addr 127.0.0.1:7474 \
//!     --requests 2000 --threads 4 --out BENCH_serve.json
//! ```
//!
//! Exits non-zero if any response mismatched the local truth.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bikron_analytics::{butterflies_per_edge, butterflies_per_vertex, EdgeButterflies};
use bikron_bench::serve_load::{
    field_str, field_u64, field_u64_last, slow_trace_lines, split_json_array, track_slow,
    LoadgenSummary, Zipf,
};
use bikron_cli::client::{self, ClientError, Conn};
use bikron_cli::{parse_factor, parse_mode};
use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KronChain, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    a_spec: String,
    b_spec: String,
    mode: SelfLoopMode,
    /// Non-empty selects expression mode: the served program's source
    /// text, with `bindings` holding its `NAME=SPEC` factor bindings.
    expr: String,
    bindings: Vec<String>,
    addr: String,
    requests: u64,
    threads: usize,
    out: String,
    seed: u64,
    batch: usize,
    zipf: f64,
    label: String,
    append: bool,
    /// Fire `--stall-count` stall injections of this many ms after the
    /// workload (requires `--admin-token`), exercising the server's SLO
    /// machinery.
    stall_ms: u64,
    stall_count: u64,
    admin_token: String,
    /// Expected `/v1/health` status after the run (`ok` | `degraded`);
    /// empty skips the check. A mismatch fails the run.
    check_health: String,
    /// `--cluster`: the target is a `bikron router` front. The workload
    /// is unchanged — the router must be byte-transparent — but the run
    /// first verifies the target really is a router (its `/v1/health`
    /// reports `"role": "router"`), records the replica count, and stamps
    /// the report meta, so a cluster benchmark can't silently point at a
    /// single node.
    cluster: bool,
    /// Replica count learned from the router handshake (0 = not cluster).
    cluster_shards: u64,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.len() < 3 {
        eprintln!(
            "usage: loadgen A_SPEC B_SPEC MODE [--addr HOST:PORT] [--requests N] \
             [--threads N] [--out FILE] [--seed S] [--batch K] [--zipf S] \
             [--label NAME] [--append] [--stall MS] [--stall-count K] \
             [--admin-token TOK] [--check-health ok|degraded] [--cluster]\n\
             \x20      loadgen --expr \"EXPR\" NAME=SPEC... [same flags, no --batch]"
        );
        std::process::exit(2);
    }
    let (a_spec, b_spec, mode, expr, bindings) = if raw[0] == "--expr" {
        let mut bindings = Vec::new();
        let mut i = 2;
        while i < raw.len() && !raw[i].starts_with("--") {
            bindings.push(raw[i].clone());
            i += 1;
        }
        (
            String::new(),
            String::new(),
            SelfLoopMode::None,
            raw[1].clone(),
            bindings,
        )
    } else {
        (
            raw[0].clone(),
            raw[1].clone(),
            parse_mode(&raw[2]).expect("bad MODE"),
            String::new(),
            Vec::new(),
        )
    };
    let flag = |name: &str, default: &str| {
        raw.iter()
            .position(|x| x == name)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    Args {
        a_spec,
        b_spec,
        mode,
        expr,
        bindings,
        addr: flag("--addr", "127.0.0.1:7474"),
        requests: flag("--requests", "2000").parse().expect("bad --requests"),
        threads: flag("--threads", "4").parse().expect("bad --threads"),
        out: flag("--out", "BENCH_serve.json"),
        seed: flag("--seed", "42").parse().expect("bad --seed"),
        batch: flag("--batch", "0").parse().expect("bad --batch"),
        zipf: flag("--zipf", "0").parse().expect("bad --zipf"),
        label: flag("--label", ""),
        append: raw.iter().any(|x| x == "--append"),
        stall_ms: flag("--stall", "0").parse().expect("bad --stall"),
        stall_count: flag("--stall-count", "1")
            .parse()
            .expect("bad --stall-count"),
        admin_token: flag("--admin-token", ""),
        check_health: flag("--check-health", ""),
        cluster: raw.iter().any(|x| x == "--cluster"),
        cluster_shards: 0,
    }
}

/// `--cluster` handshake: the target's `/v1/health` must identify as a
/// router. Returns the replica count. Exits loudly when the target is a
/// plain server — a "cluster" benchmark against a single node would
/// silently measure the wrong thing.
fn cluster_handshake(addr: &str) -> u64 {
    let mut client = Client::connect(addr, 3).expect("connect for cluster handshake");
    let (status, body) = client.get("/v1/health").expect("router health request");
    let role = field_str(&body, "role").unwrap_or("");
    if status != 200 || role != "router" {
        eprintln!(
            "loadgen: --cluster target {addr} is not a router \
             (health role {role:?}, HTTP {status}); point --addr at `bikron router`"
        );
        std::process::exit(2);
    }
    let replicas = field_u64(&body, "replicas").unwrap_or(0);
    println!("loadgen: cluster target confirmed — router fronting {replicas} replica(s)");
    replicas
}

/// Local replica of the truth the server answers from.
struct Truth {
    a: Graph,
    b: Graph,
    mode: SelfLoopMode,
    stats_a: FactorStats,
    stats_b: FactorStats,
}

impl Truth {
    fn product(&self) -> KroneckerProduct<'_> {
        KroneckerProduct::new(&self.a, &self.b, self.mode).expect("valid product")
    }
}

/// Keep-alive client over the shared `bikron_cli::client`. Every request
/// carries a fresh client-minted W3C `traceparent`; the server must echo
/// the trace id in its `x-bikron-trace-id` response header (id
/// propagation is part of the contract the load test verifies, so echo
/// failures count as mismatches via [`Client::echo_failures`]).
struct Client {
    http: client::Client,
    conn: Option<Conn>,
    /// xorshift64* state for trace-id minting.
    rng: u64,
    /// Trace id (32 hex chars) sent with the in-flight/last request.
    sent_trace_id: String,
    /// Echo failures observed so far (fold into the mismatch count).
    echo_failures: u64,
}

impl Client {
    fn connect(addr: &str, seed: u64) -> Result<Client, ClientError> {
        let timeout = Duration::from_secs(30);
        let http = client::Client::new(addr, timeout, timeout);
        Ok(Client {
            conn: Some(http.dial()?),
            http,
            // Golden-ratio mix before the nonzero clamp: adjacent seeds
            // (thread t vs t+1) must not collapse to one xorshift stream.
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            sent_trace_id: String::new(),
            echo_failures: 0,
        })
    }

    fn draw(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Mint the next `traceparent` header value, remembering its trace id
    /// for the echo check.
    fn next_traceparent(&mut self) -> String {
        let hi = self.draw();
        let lo = self.draw().max(1);
        let span = self.draw().max(1);
        self.sent_trace_id = format!("{hi:016x}{lo:016x}");
        format!("00-{}-{span:016x}-01", self.sent_trace_id)
    }

    /// The trace id sent with the last request (for mismatch reports).
    fn trace_id(&self) -> &str {
        &self.sent_trace_id
    }

    fn get(&mut self, path: &str) -> Result<(u16, String), ClientError> {
        self.request("GET", path, None)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let traceparent = self.next_traceparent();
        let (resp, conn) = self.http.request(
            self.conn.take(),
            method,
            path,
            body.map(str::as_bytes),
            Some(&traceparent),
        )?;
        self.conn = conn;
        let echoed = resp.trace_id.as_deref().unwrap_or_default();
        if echoed != self.sent_trace_id {
            self.echo_failures += 1;
            eprintln!(
                "MISMATCH traceparent echo: sent {}, server echoed {echoed:?}",
                self.sent_trace_id
            );
        }
        Ok((resp.status, resp.body))
    }
}

/// Draw a product vertex: Zipf-skewed when a sampler is present, uniform
/// otherwise.
fn pick_vertex(rng: &mut StdRng, zipf: Option<&Zipf>, n: usize) -> usize {
    match zipf {
        Some(z) => z.sample(rng.gen::<f64>()),
        None => rng.gen_range(0..n),
    }
}

/// The exact single-endpoint body for `/v1/vertex/{p}` (byte-level
/// contract shared with the server and the differential test suite).
fn expected_vertex_body(truth: &Truth, prod: &KroneckerProduct<'_>, p: usize) -> String {
    let (i, k) = prod.indexer().split(p);
    format!(
        "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \
         \"degree\": {},\n  \"squares\": {}\n}}\n",
        prod.degree(p),
        vertex_squares_at(prod, &truth.stats_a, &truth.stats_b, p),
    )
}

/// Verify one neighbors body (single endpoint or batch item) against the
/// local enumeration.
fn neighbors_body_ok(
    prod: &KroneckerProduct<'_>,
    body: &str,
    p: usize,
    offset: u64,
    limit: usize,
) -> bool {
    let expect = prod.neighbors_page(p, offset, limit);
    let got: Vec<usize> = body
        .split("\"neighbors\": [")
        .nth(1)
        .map(|tail| {
            tail.split(']')
                .next()
                .unwrap_or("")
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .filter_map(|s| s.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    got == expect
        && field_u64(body, "degree") == Some(prod.degree(p))
        && field_u64(body, "count") == Some(expect.len() as u64)
}

/// Verify one edge body against Thm 5 (`expected = None` means non-edge).
fn edge_body_ok(body: &str, expected: Option<u64>) -> bool {
    match expected {
        Some(s) => body.contains("\"edge\": true") && field_u64(body, "squares") == Some(s),
        None => body.contains("\"edge\": false") && body.contains("\"squares\": null"),
    }
}

/// One single-query worker: `count` requests of the mixed workload on a
/// single keep-alive connection. Returns (latencies_ns, mismatches,
/// slowest-request trace ids).
fn worker(
    truth: &Truth,
    addr: &str,
    count: u64,
    seed: u64,
    zipf: Option<&Zipf>,
) -> (Vec<u64>, u64, Vec<(u64, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr, seed ^ 0x5EED).expect("connect to server");
    let prod = truth.product();
    let n = prod.num_vertices();
    let mut latencies = Vec::with_capacity(count as usize);
    let mut slowest = Vec::new();
    let mut mismatches = 0u64;
    let mut check = |ok: bool, what: &str, path: &str, body: &str, trace: &str| {
        if !ok {
            mismatches += 1;
            eprintln!("MISMATCH {what} at {path} [trace {trace}]: {body}");
        }
    };
    for _ in 0..count {
        let dice = rng.gen_range(0u32..100);
        let started = Instant::now();
        if dice < 40 {
            // Vertex query: byte-exact against Thm 3/4.
            let p = pick_vertex(&mut rng, zipf, n);
            let path = format!("/v1/vertex/{p}");
            let (status, body) = client.get(&path).expect("vertex request");
            let expect = expected_vertex_body(truth, &prod, p);
            check(
                status == 200 && body == expect,
                "vertex",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 65 {
            // Known edge: pick a random neighbor of a random non-isolated
            // vertex, so the server must answer `edge: true` + Thm 5.
            let mut p = pick_vertex(&mut rng, zipf, n);
            for _ in 0..64 {
                if prod.degree(p) > 0 {
                    break;
                }
                p = rng.gen_range(0..n);
            }
            let d = prod.degree(p);
            if d == 0 {
                continue;
            }
            let off = rng.gen_range(0..d);
            let q = prod.neighbors_page(p, off, 1)[0];
            let s = edge_squares_at(&prod, &truth.stats_a, &truth.stats_b, p, q)
                .expect("sampled pair is an edge");
            let path = format!("/v1/edge/{p}/{q}");
            let (status, body) = client.get(&path).expect("edge request");
            check(
                status == 200 && edge_body_ok(&body, Some(s)),
                "edge",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 75 {
            // Random pair: usually a non-edge; existence must agree.
            let p = pick_vertex(&mut rng, zipf, n);
            let q = pick_vertex(&mut rng, zipf, n);
            let expected = edge_squares_at(&prod, &truth.stats_a, &truth.stats_b, p, q);
            let path = format!("/v1/edge/{p}/{q}");
            let (status, body) = client.get(&path).expect("pair request");
            check(
                status == 200 && edge_body_ok(&body, expected),
                "pair",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 95 {
            // Neighbors page: contents must equal the local enumeration.
            let p = pick_vertex(&mut rng, zipf, n);
            let d = prod.degree(p);
            let offset = if d == 0 { 0 } else { rng.gen_range(0..d) };
            let limit = rng.gen_range(1usize..=64);
            let path = format!("/v1/neighbors/{p}?offset={offset}&limit={limit}");
            let (status, body) = client.get(&path).expect("neighbors request");
            check(
                status == 200 && neighbors_body_ok(&prod, &body, p, offset, limit),
                "neighbors",
                &path,
                &body,
                client.trace_id(),
            );
        } else {
            // Table-I stats: totals must match the product descriptor.
            let (status, body) = client.get("/v1/stats").expect("stats request");
            let ok = status == 200
                && field_u64_last(&body, "vertices") == Some(n as u64)
                && field_u64_last(&body, "edges") == Some(prod.num_edges());
            check(ok, "stats", "/v1/stats", &body, client.trace_id());
        }
        let ns = started.elapsed().as_nanos() as u64;
        latencies.push(ns);
        track_slow(&mut slowest, ns, client.trace_id(), 3);
    }
    (latencies, mismatches + client.echo_failures, slowest)
}

/// One query of a batch request: the line sent plus what to check the
/// returned item against.
enum BatchSpec {
    Vertex(usize),
    Edge(usize, usize),
    Neighbors(usize, u64, usize),
}

impl BatchSpec {
    fn line(&self) -> String {
        match *self {
            BatchSpec::Vertex(p) => format!("vertex {p}"),
            BatchSpec::Edge(p, q) => format!("edge {p} {q}"),
            BatchSpec::Neighbors(p, off, lim) => format!("neighbors {p} {off} {lim}"),
        }
    }
}

/// One batch worker: issues `queries` total queries in `POST /v1/batch`
/// requests of up to `batch` lines, verifying every item of every
/// returned array. Returns (latencies_ns, verified_queries, mismatches,
/// slowest-request trace ids).
fn batch_worker(
    truth: &Truth,
    addr: &str,
    queries: u64,
    batch: usize,
    seed: u64,
    zipf: Option<&Zipf>,
) -> (Vec<u64>, u64, u64, Vec<(u64, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr, seed ^ 0x5EED).expect("connect to server");
    let prod = truth.product();
    let n = prod.num_vertices();
    let mut latencies = Vec::new();
    let mut slowest = Vec::new();
    let mut verified = 0u64;
    let mut mismatches = 0u64;
    let mut remaining = queries;
    while remaining > 0 {
        let k = (remaining as usize).min(batch);
        remaining -= k as u64;
        let specs: Vec<BatchSpec> = (0..k)
            .map(|_| {
                let dice = rng.gen_range(0u32..100);
                let p = pick_vertex(&mut rng, zipf, n);
                if dice < 60 {
                    BatchSpec::Vertex(p)
                } else if dice < 85 {
                    BatchSpec::Edge(p, pick_vertex(&mut rng, zipf, n))
                } else {
                    let d = prod.degree(p);
                    let offset = if d == 0 { 0 } else { rng.gen_range(0..d) };
                    BatchSpec::Neighbors(p, offset, rng.gen_range(1usize..=64))
                }
            })
            .collect();
        let body: String = specs
            .iter()
            .map(|s| s.line() + "\n")
            .collect::<Vec<_>>()
            .concat();

        let started = Instant::now();
        let (status, response) = client
            .request("POST", "/v1/batch", Some(&body))
            .expect("batch request");
        let ns = started.elapsed().as_nanos() as u64;
        latencies.push(ns);
        track_slow(&mut slowest, ns, client.trace_id(), 3);

        if status != 200 {
            mismatches += k as u64;
            eprintln!(
                "MISMATCH batch [trace {}]: status {status}: {response}",
                client.trace_id()
            );
            continue;
        }
        let items = match split_json_array(&response) {
            Some(items) if items.len() == k => items,
            other => {
                mismatches += k as u64;
                eprintln!(
                    "MISMATCH batch [trace {}]: expected array of {k} items, got {:?} in {response}",
                    client.trace_id(),
                    other.map(|i| i.len()),
                );
                continue;
            }
        };
        for (spec, item) in specs.iter().zip(&items) {
            let ok = match *spec {
                // Vertex items are byte-exact: the batch array holds the
                // single-endpoint body with its trailing newline trimmed.
                BatchSpec::Vertex(p) => {
                    item.as_str() == expected_vertex_body(truth, &prod, p).trim_end()
                }
                BatchSpec::Edge(p, q) => edge_body_ok(
                    item,
                    edge_squares_at(&prod, &truth.stats_a, &truth.stats_b, p, q),
                ),
                BatchSpec::Neighbors(p, off, lim) => neighbors_body_ok(&prod, item, p, off, lim),
            };
            if ok {
                verified += 1;
            } else {
                mismatches += 1;
                eprintln!(
                    "MISMATCH batch item `{}` [trace {}]: {item}",
                    spec.line(),
                    client.trace_id()
                );
            }
        }
    }
    (
        latencies,
        verified,
        mismatches + client.echo_failures,
        slowest,
    )
}

/// Truth replica for expression mode: the chain **materialised** plus
/// direct (non-closed-form) 4-cycle recounts, so the checker shares no
/// evaluator code with the server.
struct ExprTruth {
    chain: KronChain,
    g: Graph,
    squares_v: Vec<u64>,
    squares_e: EdgeButterflies,
    level_sizes: Vec<usize>,
}

impl ExprTruth {
    fn build(expr: &str, bindings: &[String]) -> ExprTruth {
        let parsed = bikron_sparse::parse_expr(expr).unwrap_or_else(|e| {
            eprintln!("loadgen: --expr parse failed at {e}");
            std::process::exit(2);
        });
        let graphs: Vec<(String, Graph)> = bindings
            .iter()
            .map(|b| {
                let (name, spec) = b
                    .split_once('=')
                    .unwrap_or_else(|| panic!("expected NAME=SPEC binding, got {b:?}"));
                (name.to_string(), parse_factor(spec).expect("bad SPEC"))
            })
            .collect();
        let levels: Vec<(String, bool)> = parsed
            .levels
            .iter()
            .map(|l| (l.name.clone(), l.plus_identity))
            .collect();
        let chain = KronChain::new(graphs, &levels).expect("valid chain");
        let g = chain.materialize();
        let squares_v = butterflies_per_vertex(&g);
        let squares_e = butterflies_per_edge(&g);
        let level_sizes = (0..chain.num_levels())
            .map(|i| chain.level_info(i).1.num_vertices())
            .collect();
        ExprTruth {
            chain,
            g,
            squares_v,
            squares_e,
            level_sizes,
        }
    }
}

/// The exact chain-backend body for `/v1/vertex/{p}` (coords replace the
/// pair backend's alpha/beta).
fn expected_chain_vertex_body(t: &ExprTruth, p: usize) -> String {
    let coords: Vec<String> = t
        .chain
        .split(p)
        .iter()
        .map(|c| format!("    {c}"))
        .collect();
    format!(
        "{{\n  \"vertex\": {p},\n  \"coords\": [\n{}\n  ],\n  \
         \"degree\": {},\n  \"squares\": {}\n}}\n",
        coords.join(",\n"),
        t.g.degree(p),
        t.squares_v[p],
    )
}

/// Verify a chain neighbors body against the materialised adjacency.
fn chain_neighbors_ok(t: &ExprTruth, body: &str, p: usize, offset: u64, limit: usize) -> bool {
    let all = t.g.neighbors(p);
    let start = (offset as usize).min(all.len());
    let end = all.len().min(start + limit);
    let expect = &all[start..end];
    let got: Vec<usize> = body
        .split("\"neighbors\": [")
        .nth(1)
        .map(|tail| {
            tail.split(']')
                .next()
                .unwrap_or("")
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .filter_map(|s| s.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    got == expect
        && field_u64(body, "degree") == Some(t.g.degree(p) as u64)
        && field_u64(body, "count") == Some(expect.len() as u64)
}

/// Extract a float field; `None` for a missing key or a JSON `null`.
fn field_f64(body: &str, key: &str) -> Option<f64> {
    let tail = body.split(&format!("\"{key}\": ")).nth(1)?;
    let raw = tail.split([',', '\n', '}']).next()?.trim();
    if raw == "null" {
        return None;
    }
    raw.parse().ok()
}

/// Verify a `/v1/clustering/{p}/{q}` body: squares recounted directly,
/// Γ recomputed from Eq. 5 on the replica, and — when the server claims
/// a Thm 6 bound — the bound must actually lower-bound Γ.
fn clustering_ok(t: &ExprTruth, body: &str, p: usize, q: usize) -> bool {
    let squares = t.squares_e.get(p, q);
    let (dp, dq) = (t.g.degree(p) as u64, t.g.degree(q) as u64);
    let mut ok = body.contains(&format!("\"edge\": {}", squares.is_some()))
        && field_u64(body, "degree_p") == Some(dp)
        && field_u64(body, "degree_q") == Some(dq);
    match squares {
        Some(s) => {
            ok &= field_u64(body, "squares") == Some(s);
            if dp > 1 && dq > 1 {
                let gamma = s as f64 / ((dp - 1) * (dq - 1)) as f64;
                ok &= field_f64(body, "gamma")
                    .is_some_and(|g| (g - gamma).abs() <= 1e-9 * gamma.max(1.0));
                if let Some(b) = field_f64(body, "bound") {
                    ok &= b <= gamma + 1e-9;
                }
            }
        }
        None => ok &= body.contains("\"squares\": null"),
    }
    ok
}

/// Verify a `/v1/community` body by brute-forcing `m_in`/`m_out` for the
/// per-level sets over the materialised replica.
fn community_ok(t: &ExprTruth, body: &str, sets: &[Vec<usize>]) -> bool {
    let mut coords_list: Vec<Vec<usize>> = vec![Vec::new()];
    for s in sets {
        let mut next = Vec::with_capacity(coords_list.len() * s.len());
        for c in &coords_list {
            for &v in s {
                let mut c2 = c.clone();
                c2.push(v);
                next.push(c2);
            }
        }
        coords_list = next;
    }
    let ids: Vec<usize> = coords_list.iter().map(|c| t.chain.combine(c)).collect();
    let idset: std::collections::HashSet<usize> = ids.iter().copied().collect();
    let (mut m_in2, mut m_out) = (0u64, 0u64);
    for &p in &ids {
        for &q in t.g.neighbors(p) {
            if idset.contains(&q) {
                m_in2 += 1;
            } else {
                m_out += 1;
            }
        }
    }
    field_u64(body, "size") == Some(ids.len() as u64)
        && field_u64(body, "m_in") == Some(m_in2 / 2)
        && field_u64(body, "m_out") == Some(m_out)
}

/// One expression-mode worker: the mixed workload plus clustering,
/// community and stats-expr probes. Returns (latencies_ns, mismatches,
/// slowest-request trace ids).
fn expr_worker(
    truth: &ExprTruth,
    addr: &str,
    count: u64,
    seed: u64,
    zipf: Option<&Zipf>,
) -> (Vec<u64>, u64, Vec<(u64, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr, seed ^ 0x5EED).expect("connect to server");
    let n = truth.g.num_vertices();
    let mut latencies = Vec::with_capacity(count as usize);
    let mut slowest = Vec::new();
    let mut mismatches = 0u64;
    let mut check = |ok: bool, what: &str, path: &str, body: &str, trace: &str| {
        if !ok {
            mismatches += 1;
            eprintln!("MISMATCH {what} at {path} [trace {trace}]: {body}");
        }
    };
    for _ in 0..count {
        let dice = rng.gen_range(0u32..100);
        let started = Instant::now();
        if dice < 25 {
            // Vertex: byte-exact against the materialised recount.
            let p = pick_vertex(&mut rng, zipf, n);
            let path = format!("/v1/vertex/{p}");
            let (status, body) = client.get(&path).expect("vertex request");
            let expect = expected_chain_vertex_body(truth, p);
            check(
                status == 200 && body == expect,
                "vertex",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 45 {
            // Known edge from the replica's adjacency.
            let mut p = pick_vertex(&mut rng, zipf, n);
            for _ in 0..64 {
                if truth.g.degree(p) > 0 {
                    break;
                }
                p = rng.gen_range(0..n);
            }
            let nbrs = truth.g.neighbors(p);
            if nbrs.is_empty() {
                continue;
            }
            let q = nbrs[rng.gen_range(0..nbrs.len())];
            let s = truth.squares_e.get(p, q).expect("sampled pair is an edge");
            let path = format!("/v1/edge/{p}/{q}");
            let (status, body) = client.get(&path).expect("edge request");
            check(
                status == 200 && edge_body_ok(&body, Some(s)),
                "edge",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 55 {
            // Random pair: existence and count must agree with the replica.
            let p = pick_vertex(&mut rng, zipf, n);
            let q = pick_vertex(&mut rng, zipf, n);
            let expected = truth.squares_e.get(p, q);
            let path = format!("/v1/edge/{p}/{q}");
            let (status, body) = client.get(&path).expect("pair request");
            check(
                status == 200 && edge_body_ok(&body, expected),
                "pair",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 70 {
            let p = pick_vertex(&mut rng, zipf, n);
            let d = truth.g.degree(p) as u64;
            let offset = if d == 0 { 0 } else { rng.gen_range(0..d) };
            let limit = rng.gen_range(1usize..=64);
            let path = format!("/v1/neighbors/{p}?offset={offset}&limit={limit}");
            let (status, body) = client.get(&path).expect("neighbors request");
            check(
                status == 200 && chain_neighbors_ok(truth, &body, p, offset, limit),
                "neighbors",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 82 {
            // Clustering on a known edge (falls back to a random pair on
            // isolated picks): the Thm 6 surface.
            let p = pick_vertex(&mut rng, zipf, n);
            let nbrs = truth.g.neighbors(p);
            let q = if nbrs.is_empty() {
                rng.gen_range(0..n)
            } else {
                nbrs[rng.gen_range(0..nbrs.len())]
            };
            let path = format!("/v1/clustering/{p}/{q}");
            let (status, body) = client.get(&path).expect("clustering request");
            check(
                status == 200 && clustering_ok(truth, &body, p, q),
                "clustering",
                &path,
                &body,
                client.trace_id(),
            );
        } else if dice < 94 {
            // Community: small random per-level sets, brute-forced locally.
            let sets: Vec<Vec<usize>> = truth
                .level_sizes
                .iter()
                .map(|&ni| {
                    let k = rng.gen_range(1..=ni.min(3));
                    let mut s: Vec<usize> = (0..k).map(|_| rng.gen_range(0..ni)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let query: Vec<String> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let ids: Vec<String> = s.iter().map(usize::to_string).collect();
                    format!("s{i}={}", ids.join(","))
                })
                .collect();
            let path = format!("/v1/community?{}", query.join("&"));
            let (status, body) = client.get(&path).expect("community request");
            check(
                status == 200 && community_ok(truth, &body, &sets),
                "community",
                &path,
                &body,
                client.trace_id(),
            );
        } else {
            // Stats: totals from the replica, plus the canonicalised
            // expression the server must advertise.
            let (status, body) = client.get("/v1/stats").expect("stats request");
            let ok = status == 200
                && field_u64_last(&body, "vertices") == Some(n as u64)
                && field_u64_last(&body, "edges") == Some(truth.g.num_edges() as u64)
                && field_u64_last(&body, "global_squares")
                    == Some(truth.squares_v.iter().sum::<u64>() / 4)
                && body.contains(&format!("\"expr\": \"{}\"", truth.chain.canonical()));
            check(ok, "stats", "/v1/stats", &body, client.trace_id());
        }
        let ns = started.elapsed().as_nanos() as u64;
        track_slow(&mut slowest, ns, client.trace_id(), 3);
        latencies.push(ns);
    }
    (latencies, mismatches + client.echo_failures, slowest)
}

fn main() {
    let mut args = parse_args();
    if args.cluster {
        args.cluster_shards = cluster_handshake(&args.addr);
    }
    let args = args;
    if !args.expr.is_empty() {
        if args.batch > 0 {
            eprintln!("loadgen: --batch is not supported with --expr");
            std::process::exit(2);
        }
        let truth = Arc::new(ExprTruth::build(&args.expr, &args.bindings));
        let zipf = if args.zipf > 0.0 {
            Some(Arc::new(Zipf::new(truth.g.num_vertices(), args.zipf)))
        } else {
            None
        };
        let threads = args.threads.max(1);
        let per_thread = args.requests / threads as u64;
        let started = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let truth = Arc::clone(&truth);
                let zipf = zipf.clone();
                let addr = args.addr.clone();
                let seed = args.seed.wrapping_add(t as u64);
                std::thread::spawn(move || {
                    expr_worker(&truth, &addr, per_thread, seed, zipf.as_deref())
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::new();
        let mut mismatches = 0u64;
        let mut slowest: Vec<(u64, String)> = Vec::new();
        for h in handles {
            let (l, m, s) = h.join().expect("worker thread");
            latencies.extend(l);
            mismatches += m;
            slowest.extend(s);
        }
        let elapsed = started.elapsed();
        let queries = latencies.len() as u64;
        let workload = format!("--expr {}", truth.chain.canonical());
        finish(
            &args, latencies, queries, mismatches, elapsed, &workload, slowest,
        );
    }
    let a = parse_factor(&args.a_spec).expect("bad A_SPEC");
    let b = parse_factor(&args.b_spec).expect("bad B_SPEC");
    let truth = Arc::new(Truth {
        stats_a: FactorStats::compute(&a).expect("factor stats A"),
        stats_b: FactorStats::compute(&b).expect("factor stats B"),
        a,
        b,
        mode: args.mode,
    });
    let zipf = if args.zipf > 0.0 {
        Some(Arc::new(Zipf::new(
            truth.product().num_vertices(),
            args.zipf,
        )))
    } else {
        None
    };

    let threads = args.threads.max(1);
    let per_thread = args.requests / threads as u64;
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let truth = Arc::clone(&truth);
            let zipf = zipf.clone();
            let addr = args.addr.clone();
            let seed = args.seed.wrapping_add(t as u64);
            let batch = args.batch;
            std::thread::spawn(move || {
                if batch > 0 {
                    batch_worker(&truth, &addr, per_thread, batch, seed, zipf.as_deref())
                } else {
                    let (l, m, s) = worker(&truth, &addr, per_thread, seed, zipf.as_deref());
                    let q = l.len() as u64;
                    (l, q, m, s)
                }
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::new();
    let mut queries = 0u64;
    let mut mismatches = 0u64;
    let mut slowest: Vec<(u64, String)> = Vec::new();
    for h in handles {
        let (l, q, m, s) = h.join().expect("worker thread");
        latencies.extend(l);
        queries += q;
        mismatches += m;
        slowest.extend(s);
    }
    let elapsed = started.elapsed();
    let workload = format!("{} {} {:?}", args.a_spec, args.b_spec, args.mode);
    finish(
        &args, latencies, queries, mismatches, elapsed, &workload, slowest,
    );
}

/// Post-workload tail shared by the pair and expression paths: stall
/// injection, health assertion, summary + report emission, process exit.
fn finish(
    args: &Args,
    latencies: Vec<u64>,
    queries: u64,
    mismatches: u64,
    elapsed: Duration,
    workload: &str,
    slowest: Vec<(u64, String)>,
) -> ! {
    let http_requests = latencies.len() as u64;

    // Post-workload SLO exercise: inject stalls, then assert the health
    // verdict. This is the end-to-end proof that windowed p99 drives
    // `/v1/health` — a server with a tight --slo-p99-ms must report
    // `degraded` after the stalls, and `ok` without them.
    if args.stall_ms > 0 {
        let mut client = Client::connect(&args.addr, 7).expect("connect for stall injection");
        for _ in 0..args.stall_count.max(1) {
            let path = format!(
                "/v1/admin/stall?ms={}&token={}",
                args.stall_ms, args.admin_token
            );
            let (status, body) = client.get(&path).expect("stall request");
            assert_eq!(status, 200, "stall injection failed: {body}");
        }
    }
    let mut health_failed = false;
    if !args.check_health.is_empty() {
        let mut client = Client::connect(&args.addr, 11).expect("connect for health check");
        let (status, body) = client.get("/v1/health").expect("health request");
        let got = body
            .split("\"status\": \"")
            .nth(1)
            .and_then(|tail| tail.split('"').next())
            .unwrap_or("");
        if status != 200 || got != args.check_health {
            health_failed = true;
            eprintln!(
                "loadgen: HEALTH MISMATCH — expected {:?}, got {got:?} (HTTP {status}): {body}",
                args.check_health
            );
        } else {
            println!("loadgen: health is {got:?} as expected");
        }
    }

    let summary = LoadgenSummary::new(
        args.label.clone(),
        queries,
        http_requests,
        mismatches,
        elapsed,
        latencies,
    );
    summary.emit();

    let obs = bikron_obs::global();
    // --append folds a previous run's counters into this report, so the
    // single / batch rows of a benchmark sweep land in one
    // file (namespace the runs with distinct --label values; appended
    // histograms and gauges are not carried over).
    if args.append {
        match std::fs::read_to_string(&args.out) {
            Ok(prev) => match bikron_obs::Report::from_json(&prev) {
                Ok(report) => {
                    for (key, value) in report.counters() {
                        obs.counter(key).add(value);
                    }
                }
                Err(e) => eprintln!("loadgen: --append: ignoring unparseable {}: {e}", args.out),
            },
            Err(e) => eprintln!("loadgen: --append: no previous {}: {e}", args.out),
        }
    }

    let mut report = obs.snapshot();
    report.set_meta("tool", "bikron-loadgen");
    report.set_meta("workload", workload);
    report.set_meta("addr", args.addr.clone());
    report.set_meta("threads", args.threads.to_string());
    if args.batch > 0 {
        report.set_meta("batch", args.batch.to_string());
    }
    if args.zipf > 0.0 {
        report.set_meta("zipf", args.zipf.to_string());
    }
    if !args.label.is_empty() {
        report.set_meta("label", args.label.clone());
    }
    if args.cluster {
        report.set_meta("cluster", "router");
        report.set_meta("cluster_shards", args.cluster_shards.to_string());
    }
    report
        .write_to_file(std::path::Path::new(&args.out))
        .expect("write report");

    println!(
        "loadgen{}: {queries} queries ({http_requests} HTTP requests) in {:.2}s → {:.0} req/s \
         (p50 {:.1}µs, p99 {:.1}µs), {mismatches} mismatch(es); report: {}",
        if args.label.is_empty() {
            String::new()
        } else {
            format!(" [{}]", args.label)
        },
        elapsed.as_secs_f64(),
        summary.rps(),
        summary.p50_ns() as f64 / 1e3,
        summary.p99_ns() as f64 / 1e3,
        args.out,
    );
    for line in slow_trace_lines(&slowest, summary.p99_ns()) {
        println!("{line}");
    }
    if !summary.ok() {
        eprintln!("loadgen: FAILED — {mismatches} response(s) disagreed with closed-form truth");
    }
    let code = if health_failed {
        1
    } else {
        summary.exit_code() as i32
    };
    std::process::exit(code);
}
