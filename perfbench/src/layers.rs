//! Per-layer metrics, measured from outside the program.
//!
//! The **sweep** runs in every traced run, whatever the workload: it times
//! the public entry points of each in-process layer — the product kernels
//! behind `materialize` and the stream, the closed-form evaluators (pair
//! and chained), the result cache, and HTTP parse/handle/write through a
//! `ServeState` — on the workload's own request trace. The **live**
//! readings come from the servers a serve workload runs: `/metrics`
//! deltas, `/v1/admin/profile` and `/proc`, taken around a closed-loop
//! and an open-loop window, plus the router's split and
//! `RouterState::handle` against the live shards. Nothing here adds
//! instrumentation to the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{GroundTruth, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use bikron_obs::{parse_json, JsonValue, ProfileSnapshot, Report};
use bikron_serve::http::{parse_request, write_response};
use bikron_serve::{CacheKey, ServeOptions, ServeState, ShardedCache};
use bikron_sparse::semiring::Times;

use crate::client::Client;
use crate::kron::stream_checksum;
use crate::load::Phase;
use crate::procs::{Deployment, ADMIN_TOKEN};
use crate::stats::median;
use crate::truth::{body_hash, Query, Trace, Truth};

/// One per-layer reading and the end-to-end metric it should move.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

fn row(name: &'static str, value: f64, unit: &'static str, moves: &'static str) -> Row {
    Row {
        name,
        value,
        unit,
        moves,
    }
}

/// Kernel passes whose median is reported.
const KERNEL_REPEATS: usize = 3;
/// Evaluator passes over the trace's keys whose median is reported.
const EVAL_REPEATS: usize = 3;

/// Requests or batches of the trace the in-process replay covers.
pub fn replay_len(trace: &Trace) -> usize {
    let batch = trace.requests.first().is_some_and(|r| r.queries.len() > 1);
    trace.requests.len().min(if batch { 2_000 } else { 20_000 })
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The in-process sweep. Every row it returns is a `per_layer` metric of
/// every workload.
/// The returned phase counts the replayed requests and wrong answers.
pub fn sweep(truth: &Truth, trace: &Trace) -> Result<(Vec<Row>, Phase), String> {
    let mut rows = kernels(truth)?;
    let (serve_rows, tally) = serve_replay(truth, trace)?;
    rows.extend(serve_rows);
    rows.extend(cache_probe(trace));
    rows.extend(evaluators(truth, trace));
    Ok((rows, tally))
}

fn counter(name: &str) -> u64 {
    bikron_obs::global().snapshot().counter(name).unwrap_or(0)
}

/// The steps of `materialize` called one by one, `materialize` itself,
/// the ground truth and the parallel stream.
fn kernels(truth: &Truth) -> Result<Vec<Row>, String> {
    let obs = bikron_obs::global();
    let prod = KroneckerProduct::new(&truth.a, &truth.a, SelfLoopMode::FactorA)
        .map_err(|e| e.to_string())?;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut output_nnz, mut csr_bytes, mut rows_multiplied) = (0, 0, 0);
    for _ in 0..KERNEL_REPEATS {
        let t = Instant::now();
        let ea = obs.time("bench.core.effective_a", || prod.effective_a());
        samples.entry("effective_a").or_default().push(ms(t));

        let (nnz0, bytes0) = (counter("kron.output_nnz"), counter("kron.csr_bytes"));
        let t = Instant::now();
        let c = obs
            .time("bench.sparse.kron", || {
                bikron_sparse::kron(&Times, &ea, truth.a.adjacency())
            })
            .map_err(|e| e.to_string())?;
        samples.entry("kron").or_default().push(ms(t));
        output_nnz = counter("kron.output_nnz") - nnz0;
        csr_bytes = counter("kron.csr_bytes") - bytes0;

        let t = Instant::now();
        let g = obs
            .time("bench.graph.from_adjacency", || Graph::from_adjacency(c))
            .map_err(|e| e.to_string())?;
        samples.entry("from_adjacency").or_default().push(ms(t));
        drop(g);

        let t = Instant::now();
        let g = obs.time("bench.core.materialize", || prod.materialize());
        samples.entry("materialize").or_default().push(ms(t));
        drop(g);

        let rows0 = counter("spgemm.rows_multiplied");
        let t = Instant::now();
        let squares = obs
            .time("bench.core.ground_truth", || {
                GroundTruth::new(prod.clone()).and_then(|gt| gt.global_squares())
            })
            .map_err(|e| e.to_string())?;
        samples.entry("ground_truth").or_default().push(ms(t));
        rows_multiplied = counter("spgemm.rows_multiplied") - rows0;
        if squares != crate::truth::TABLE1_SQUARES {
            return Err(format!("ground truth gave {squares} 4-cycles"));
        }

        let t = Instant::now();
        let (entries, _) = obs.time("bench.core.par_stream", || stream_checksum(&prod));
        samples.entry("par_stream").or_default().push(ms(t));
        if entries != prod.nnz() {
            return Err(format!(
                "stream gave {entries} entries, want {}",
                prod.nnz()
            ));
        }
    }
    let m = |k: &str| median(&samples[k]);
    let parts = m("effective_a") + m("kron") + m("from_adjacency");
    let gap_pct = 100.0 * (m("materialize") - parts).abs() / m("materialize");
    eprintln!(
        "perfbench: materialize {:.1} ms vs its steps {:.1} ms (gap {gap_pct:.1}%{})",
        m("materialize"),
        parts,
        if gap_pct <= 10.0 { "" } else { ", over 10%" }
    );
    Ok(vec![
        row(
            "core.effective_a_ms",
            m("effective_a"),
            "ms",
            "kron_table1 p50_us",
        ),
        row("sparse.kron_ms", m("kron"), "ms", "kron_table1 p50_us"),
        row(
            "graph.from_adjacency_ms",
            m("from_adjacency"),
            "ms",
            "kron_table1 p50_us",
        ),
        row(
            "core.materialize_ms",
            m("materialize"),
            "ms",
            "kron_table1 p50_us",
        ),
        row(
            "core.ground_truth_ms",
            m("ground_truth"),
            "ms",
            "kron_table1 setup_s",
        ),
        row(
            "core.par_stream_ms",
            m("par_stream"),
            "ms",
            "kron_table1 p50_us",
        ),
        row(
            "sparse.kron.output_nnz",
            output_nnz as f64,
            "count",
            "kron_table1 p50_us",
        ),
        row(
            "sparse.kron.csr_bytes",
            csr_bytes as f64,
            "B",
            "kron_table1 p50_us",
        ),
        row(
            "sparse.spgemm.rows_multiplied",
            rows_multiplied as f64,
            "count",
            "setup_s",
        ),
    ])
}

/// Replay the head of the trace through one single-threaded `ServeState`:
/// parse, handle and write each request, and check every answer.
fn serve_replay(truth: &Truth, trace: &Trace) -> Result<(Vec<Row>, Phase), String> {
    let state = ServeState::build_with(
        truth.a.clone(),
        truth.a.clone(),
        SelfLoopMode::FactorA,
        ServeOptions {
            batch_threads: 1,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let n = replay_len(trace);
    let (mut parse_ns, mut handle_ns, mut write_ns) = (0u64, 0u64, 0u64);
    let mut tally = Phase::default();
    let mut out = Vec::with_capacity(64 * 1024);
    let _span = bikron_obs::global().phase("bench.serve.replay");
    for r in &trace.requests[..n] {
        let t0 = Instant::now();
        let req = parse_request(&mut &r.bytes[..]).map_err(|e| format!("{e:?}"))?;
        let t1 = Instant::now();
        let resp = state.handle(&req);
        let t2 = Instant::now();
        out.clear();
        write_response(&mut out, &resp, true).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        parse_ns += (t1 - t0).as_nanos() as u64;
        handle_ns += (t2 - t1).as_nanos() as u64;
        write_ns += (t3 - t2).as_nanos() as u64;
        let queries = trace.queries_of(r);
        tally.requests += 1;
        tally.queries += queries.len() as u64;
        let ok = resp.status == 200
            && match queries {
                [Query::Stats] => truth.check_stats(&resp.body).is_ok(),
                _ => body_hash(resp.body.as_bytes()) == r.expect,
            };
        if !ok {
            tally.wrong += 1;
            tally.failed += queries.len() as u64;
        }
    }
    let per = |ns: u64| ns as f64 / n as f64;
    Ok((
        vec![
            row(
                "serve.http.parse_ns",
                per(parse_ns),
                "ns",
                "p50_us, ops_per_s",
            ),
            row("serve.handle_ns", per(handle_ns), "ns", "ops_per_s"),
            row(
                "serve.http.write_ns",
                per(write_ns),
                "ns",
                "p50_us, ops_per_s",
            ),
        ],
        tally,
    ))
}

fn cache_key(q: &Query) -> Option<CacheKey> {
    match *q {
        Query::Vertex(p) => Some(CacheKey::Vertex(p)),
        Query::Edge(p, q) => Some(CacheKey::Edge(p, q)),
        Query::Neighbors(p, o, l) => Some(CacheKey::Neighbors(p, o, l)),
        Query::Stats => None,
    }
}

/// Look every keyed query of the replayed head up in a default-sized
/// result cache, inserting on a miss, as the server does.
fn cache_probe(trace: &Trace) -> Vec<Row> {
    let cache = ShardedCache::new(
        bikron_serve::DEFAULT_CACHE_ENTRIES,
        bikron_serve::DEFAULT_CACHE_SHARDS,
    );
    let value = Arc::new(String::from("{}\n"));
    let n = replay_len(trace);
    let keys: Vec<CacheKey> = trace.requests[..n]
        .iter()
        .flat_map(|r| trace.queries_of(r).iter().filter_map(cache_key))
        .collect();
    let (mut get_ns, mut insert_ns, mut inserts) = (0u64, 0u64, 0u64);
    let _span = bikron_obs::global().phase("bench.serve.cache");
    for key in &keys {
        let t0 = Instant::now();
        let hit = cache.get(key);
        get_ns += t0.elapsed().as_nanos() as u64;
        if hit.is_none() {
            let t1 = Instant::now();
            cache.insert(key.clone(), Arc::clone(&value));
            insert_ns += t1.elapsed().as_nanos() as u64;
            inserts += 1;
        }
    }
    let gets = keys.len().max(1) as f64;
    vec![
        row(
            "serve.cache.get_ns",
            get_ns as f64 / gets,
            "ns",
            "ops_per_s node_get_zipf",
        ),
        row(
            "serve.cache.insert_ns",
            insert_ns as f64 / inserts.max(1) as f64,
            "ns",
            "ops_per_s node_batch_uniform",
        ),
        row(
            "serve.cache.hit_pct",
            100.0 * (keys.len() as u64 - inserts) as f64 / gets,
            "%",
            "ops_per_s node_get_zipf",
        ),
    ]
}

/// Median ns per call of `f` over `keys`, across [`EVAL_REPEATS`] passes.
fn per_call<K>(keys: &[K], mut f: impl FnMut(&K) -> u64) -> f64 {
    let passes: Vec<f64> = (0..EVAL_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for k in keys {
                acc = acc.wrapping_add(f(black_box(k)));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

/// The closed-form evaluators on the replayed head's keys: the pair
/// evaluators a pair server answers with, and the chained ones.
fn evaluators(truth: &Truth, trace: &Trace) -> Vec<Row> {
    let prod =
        KroneckerProduct::new(&truth.a, &truth.a, SelfLoopMode::FactorA).expect("validated factor");
    let stats = FactorStats::compute(&truth.a).expect("factor statistics");
    let n = replay_len(trace);
    let (mut vertices, mut edges, mut pages) = (Vec::new(), Vec::new(), Vec::new());
    for q in trace.requests[..n].iter().flat_map(|r| trace.queries_of(r)) {
        match *q {
            Query::Vertex(p) => vertices.push(p),
            Query::Edge(p, q) => edges.push((p, q)),
            Query::Neighbors(p, o, l) => pages.push((p, o, l)),
            Query::Stats => {}
        }
    }
    let chain = &truth.chain;
    let _span = bikron_obs::global().phase("bench.core.evaluators");
    vec![
        row(
            "core.vertex_squares_ns",
            per_call(&vertices, |&p| vertex_squares_at(&prod, &stats, &stats, p)),
            "ns",
            "ops_per_s node_batch_uniform",
        ),
        row(
            "core.edge_squares_ns",
            per_call(&edges, |&(p, q)| {
                edge_squares_at(&prod, &stats, &stats, p, q).unwrap_or(0)
            }),
            "ns",
            "ops_per_s node_batch_uniform",
        ),
        row(
            "core.neighbors_page_ns",
            per_call(&pages, |&(p, o, l)| {
                prod.neighbors_page(p, o, l).len() as u64
            }),
            "ns",
            "ops_per_s node_batch_uniform",
        ),
        row(
            "core.chain.vertex_squares_ns",
            per_call(&vertices, |&p| chain.vertex_squares_at(p)),
            "ns",
            "none today (parity for a chain-only evaluator)",
        ),
        row(
            "core.chain.edge_squares_ns",
            per_call(&edges, |&(p, q)| chain.edge_squares_at(p, q).unwrap_or(0)),
            "ns",
            "none today (parity for a chain-only evaluator)",
        ),
    ]
}

/// One reading of every live process: `/metrics` from the front, the
/// cumulative profile of every process, and CPU seconds.
pub struct Scrape {
    /// Raw `/metrics` body of the front (the router's merges its shards').
    pub metrics_body: String,
    metrics: Report,
    serve_cpu_s: f64,
    router_cpu_s: f64,
    harness_cpu_s: f64,
}

fn fetch(addr: &str, path: &str) -> Result<String, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match c.get(path) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("GET {path} from {addr}: HTTP {status}: {body}")),
        Err(e) => Err(format!("GET {path} from {addr}: {e}")),
    }
}

/// A profile from the `bikron-profile/1` JSON document.
fn parse_profile(body: &str) -> Result<ProfileSnapshot, String> {
    let doc = parse_json(body).map_err(|e| format!("profile JSON: {e:?}"))?;
    let stacks = doc
        .get("stacks")
        .and_then(JsonValue::as_object)
        .map(|map| {
            map.iter()
                .filter_map(|(k, v)| match v {
                    JsonValue::Num(n) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(ProfileSnapshot {
        hz: doc.num_of("hz").unwrap_or(0),
        samples: doc.num_of("samples").unwrap_or(0),
        dropped: doc.num_of("dropped_samples").unwrap_or(0),
        idle: doc.num_of("idle_samples").unwrap_or(0),
        stacks,
    })
}

/// `/metrics` from the front, and the CPU time of every process. A
/// server gives each keep-alive connection a worker until it closes, so
/// the caller closes its load connections first.
pub fn scrape(dep: &Deployment) -> Result<Scrape, String> {
    let metrics_body = fetch(&dep.front, "/metrics")?;
    let metrics = Report::from_json(&metrics_body).map_err(|e| format!("/metrics: {e:?}"))?;
    Ok(Scrape {
        metrics_body,
        metrics,
        serve_cpu_s: dep.serve_cpu_s().unwrap_or(0.0),
        router_cpu_s: dep.router.as_ref().and_then(|r| r.cpu_s()).unwrap_or(0.0),
        harness_cpu_s: crate::procs::cpu_s("/proc/self/stat").unwrap_or(0.0),
    })
}

/// The cumulative sampled profile of each serve process (`node`, or
/// `shard0` and `shard1`). Shards are reachable only once nothing else
/// holds their workers — in a cluster, after the router has stopped.
pub fn profiles(dep: &Deployment) -> Result<Vec<(String, ProfileSnapshot)>, String> {
    let names: &[&str] = if dep.servers.len() > 1 {
        &["shard0", "shard1"]
    } else {
        &["node"]
    };
    dep.servers
        .iter()
        .zip(names)
        .map(|(p, name)| {
            let body = fetch(&p.addr, &format!("/v1/admin/profile?token={ADMIN_TOKEN}"))?;
            Ok((name.to_string(), parse_profile(&body)?))
        })
        .collect()
}

/// Self-time shares of the serve processes' request phases, summed over
/// the given profiles.
pub fn profile_rows(profiles: &[(String, ProfileSnapshot)]) -> Vec<Row> {
    let mut self_samples: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut samples, mut idle) = (0u64, 0u64);
    for (_, p) in profiles {
        samples += p.samples;
        idle += p.idle;
        for (stack, n) in &p.stacks {
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            *self_samples.entry(leaf_name(leaf)).or_default() += n;
        }
    }
    let total = (samples + idle).max(1) as f64;
    let mut rows: Vec<Row> = [
        ("profile.accept_pct", "accept"),
        ("profile.evaluate_pct", "evaluate"),
        ("profile.cache_lookup_pct", "cache_lookup"),
        ("profile.serialize_pct", "serialize"),
        ("profile.write_pct", "write"),
    ]
    .into_iter()
    .map(|(name, leaf)| {
        let n = self_samples.get(leaf).copied().unwrap_or(0);
        row(name, 100.0 * n as f64 / total, "%", "p50_us, ops_per_s")
    })
    .collect();
    rows.push(row(
        "profile.idle_pct",
        100.0 * idle as f64 / total,
        "%",
        "p50_us, ops_per_s",
    ));
    rows
}

/// A stretch of load between two scrapes.
pub struct Window<'a> {
    /// Scrape at its start.
    pub before: &'a Scrape,
    /// Scrape at its end.
    pub after: &'a Scrape,
    /// Queries the client sent in it.
    pub queries: u64,
}

impl Window<'_> {
    fn counter(&self, name: &str) -> f64 {
        let a = self.after.metrics.counter(name).unwrap_or(0);
        let b = self.before.metrics.counter(name).unwrap_or(0);
        a.saturating_sub(b) as f64
    }

    /// Summed `(sum, count)` growth of histograms `names`.
    fn histogram(&self, names: &[String]) -> (f64, f64) {
        names.iter().fold((0.0, 0.0), |(sum, count), name| {
            match (
                self.after.metrics.histogram(name),
                self.before.metrics.histogram(name),
            ) {
                (Some(a), Some(b)) => (
                    sum + a.sum.saturating_sub(b.sum) as f64,
                    count + a.count.saturating_sub(b.count) as f64,
                ),
                _ => (sum, count),
            }
        })
    }

    /// Mean of histograms `names` over the window, ns → µs.
    fn mean_us(&self, names: &[String]) -> f64 {
        let (sum, count) = self.histogram(names);
        sum / count.max(1.0) / 1e3
    }

    fn per_kq(&self, amount: f64) -> f64 {
        amount / (self.queries as f64 / 1e3).max(1e-9)
    }
}

/// Live per-layer readings: work and CPU from a closed-loop window;
/// request latencies from an open-loop window, whose mean send-to-answer
/// latency the client measured as `client_us`.
pub fn live(closed: &Window, open: &Window, client_us: f64, cluster: bool) -> Vec<Row> {
    // Serve-process series: the node's own, or both shards' under the
    // router's `shard{i}.` prefixes.
    let prefixes: &[&str] = if cluster {
        &["shard0.", "shard1."]
    } else {
        &[""]
    };
    let serve =
        |name: &str| -> Vec<String> { prefixes.iter().map(|p| format!("{p}{name}")).collect() };
    let serve_delta =
        |w: &Window, name: &str| -> f64 { serve(name).iter().map(|n| w.counter(n)).sum() };
    let hits = serve_delta(closed, "serve.cache.hits");
    let lookups = hits + serve_delta(closed, "serve.cache.misses");
    let server_us = open.mean_us(&serve("serve.request_ns"));
    let front_us = if cluster {
        open.mean_us(&["router.request_ns".to_string()])
    } else {
        server_us
    };
    let cpu = |p: fn(&Scrape) -> f64| 1e3 * (p(closed.after) - p(closed.before));
    let bytes_out = if cluster {
        closed.counter("router.bytes_out")
    } else {
        serve_delta(closed, "serve.bytes_out")
    };
    let mut rows = vec![
        row(
            "serve.cache.hit_pct_live",
            100.0 * hits / lookups.max(1.0),
            "%",
            "ops_per_s node_get_zipf",
        ),
        row(
            "serve.cache.evictions_per_kq",
            closed.per_kq(serve_delta(closed, "serve.cache.evictions")),
            "1/kq",
            "ops_per_s node_batch_uniform",
        ),
        row("serve.request_us", server_us, "us", "p50_us"),
        row(
            "serve.pool.wire_us",
            client_us - front_us,
            "us",
            "p50_us node_get_zipf",
        ),
        row(
            "serve.shed",
            serve_delta(closed, "serve.shed")
                + serve_delta(open, "serve.shed")
                + closed.counter("router.shed")
                + open.counter("router.shed"),
            "count",
            "failed",
        ),
        row(
            "serve.bytes_out_per_q",
            bytes_out / closed.queries.max(1) as f64,
            "B",
            "ops_per_s",
        ),
        row(
            "serve.cpu_ms_per_kq",
            closed.per_kq(cpu(|s| s.serve_cpu_s)),
            "ms",
            "ops_per_s",
        ),
        row(
            "harness.cpu_ms_per_kq",
            closed.per_kq(cpu(|s| s.harness_cpu_s)),
            "ms",
            "must stay flat across commits",
        ),
    ];
    if cluster {
        let request_us = open.mean_us(&["router.request_ns".to_string()]);
        let upstream_us = open.mean_us(&["router.upstream_ns".to_string()]);
        let (fanout_sum, fanouts) = closed.histogram(&["router.fanout_size".to_string()]);
        let imbalance = closed
            .after
            .metrics
            .gauge("router.load_imbalance")
            .map_or(0.0, |(v, _)| v as f64);
        rows.extend([
            row(
                "router.request_us",
                request_us,
                "us",
                "p50_us cluster_batch_uniform",
            ),
            row(
                "router.upstream_us",
                upstream_us,
                "us",
                "p50_us cluster_batch_uniform",
            ),
            // Upstream calls of one batch run concurrently, so this is an
            // upper bound on the router's own time per request.
            row(
                "router.self_us",
                request_us - upstream_us,
                "us",
                "p50_us cluster_batch_uniform",
            ),
            row(
                "router.fanout_mean",
                fanout_sum / fanouts.max(1.0),
                "count",
                "failed",
            ),
            row("router.load_imbalance_pct", imbalance, "%", "failed"),
            row(
                "router.errors",
                closed.counter("router.errors") + open.counter("router.errors"),
                "count",
                "failed",
            ),
            row(
                "router.cpu_ms_per_kq",
                closed.per_kq(cpu(|s| s.router_cpu_s)),
                "ms",
                "ops_per_s cluster_batch_uniform",
            ),
            row(
                "shards.cpu_ms_per_kq",
                closed.per_kq(cpu(|s| s.serve_cpu_s)),
                "ms",
                "ops_per_s cluster_batch_uniform",
            ),
        ]);
    }
    rows
}

/// Interned leaf names, so the share table can key by `&'static str`.
fn leaf_name(leaf: &str) -> &'static str {
    match leaf {
        "accept" => "accept",
        "evaluate" => "evaluate",
        "cache_lookup" => "cache_lookup",
        "serialize" => "serialize",
        "write" => "write",
        _ => "other",
    }
}

/// The router in-process: `RouterState::handle` against the live shards
/// on the head of the batch trace, and `split_batch_items` on the shard
/// answers it reassembles.
pub fn router_probe(
    dep: &Deployment,
    truth: &Truth,
    trace: &Trace,
) -> Result<(Vec<Row>, Phase), String> {
    let shards: Vec<String> = dep.servers.iter().map(|p| p.addr.clone()).collect();
    let state =
        bikron_router::RouterState::connect(&shards, bikron_router::RouterOptions::default())?;
    let n = replay_len(trace);
    let mut tally = Phase::default();
    let mut handle_ns = 0u64;
    let _span = bikron_obs::global().phase("bench.router.handle");
    for r in &trace.requests[..n] {
        let req = parse_request(&mut &r.bytes[..]).map_err(|e| format!("{e:?}"))?;
        let t = Instant::now();
        let resp = state.handle(&req, None);
        handle_ns += t.elapsed().as_nanos() as u64;
        let queries = trace.queries_of(r).len() as u64;
        tally.requests += 1;
        tally.queries += queries;
        if resp.status != 200 || body_hash(resp.body.as_bytes()) != r.expect {
            tally.wrong += 1;
            tally.failed += queries;
        }
    }
    let bodies: Vec<String> = trace.requests[..n]
        .iter()
        .map(|r| truth.render_batch(trace.queries_of(r)))
        .collect();
    let t = Instant::now();
    let mut items = 0usize;
    for b in &bodies {
        items += bikron_router::split_batch_items(black_box(b)).map_or(0, |v| v.len());
    }
    let split_ns = t.elapsed().as_nanos() as f64 / items.max(1) as f64;
    Ok((
        vec![
            row(
                "router.handle_us",
                handle_ns as f64 / n.max(1) as f64 / 1e3,
                "us",
                "p50_us cluster_batch_uniform",
            ),
            row(
                "router.split_items_ns",
                split_ns,
                "ns",
                "ops_per_s cluster_batch_uniform",
            ),
        ],
        tally,
    ))
}
