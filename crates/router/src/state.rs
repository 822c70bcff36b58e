//! Router state: the shard ownership map, per-request routing, batch
//! scatter-gather, and the aggregated `/metrics` + `/v1/health` views.
//!
//! Every fan-out is one [`gather`](RouterState::gather) on the worker
//! that read the request: send to every involved shard, then read each
//! answer in shard order. No thread starts per request.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bikron_obs::window::{WindowRegistry, WindowedCounter, WindowedHistogram};
use bikron_obs::{Counter, Gauge, Histogram, JsonWriter, Registry, Report, TraceContext};
use bikron_serve::batch::{parse_batch, BatchQuery};
use bikron_serve::client::{self, json_u64_field_last, ClientError};
use bikron_serve::http::{Request, Response};
use bikron_serve::Handler;

use crate::aggregate::{shard_labelled_exposition, split_batch_items};
use crate::upstream::Upstream;

/// How long [`RouterState::connect`] keeps re-dialling a not-yet-up
/// shard before failing startup. Covers the "router launched in the
/// same script as its shards" race without masking a truly absent one.
const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);
/// Pause between startup handshake attempts.
const CONNECT_RETRY_PAUSE: Duration = Duration::from_millis(250);

/// Behavioural knobs for [`RouterState::connect`]. Transport-level
/// knobs (bind address, pool size, queue) live in
/// [`ServerConfig`](bikron_serve::ServerConfig).
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Serve `/v1/stats` from the copy fetched at startup instead of
    /// proxying each request to a shard. The stats body is immutable
    /// per served program, so the replica can never go stale.
    pub replicate_stats: bool,
    /// Maximum queries accepted per `POST /v1/batch` (mirrors the
    /// shard-side cap; the router validates with the same grammar).
    pub batch_max: usize,
    /// Upstream TCP connect timeout.
    pub connect_timeout: Duration,
    /// Upstream read/write timeout — bounds how long one slow shard can
    /// pin a router worker before the 503-scoped failure path runs.
    pub upstream_timeout: Duration,
    /// Token gating the router's own admin endpoints
    /// (`/v1/admin/profile`); `None` disables them. Independent of the
    /// shards' tokens — the router profiles *itself*, not its upstreams.
    pub admin_token: Option<String>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            replicate_stats: false,
            batch_max: bikron_serve::DEFAULT_BATCH_MAX,
            connect_timeout: Duration::from_secs(1),
            upstream_timeout: Duration::from_secs(10),
            admin_token: None,
        }
    }
}

/// Per-shard verdict as seen from the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Shard reachable and reporting `"status": "ok"`.
    Ok,
    /// Shard reachable but reporting `"status": "degraded"`.
    Degraded,
    /// Shard unreachable (connect/read failure after the retry).
    Down,
}

impl ShardHealth {
    /// Stable string for JSON bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Ok => "ok",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Down => "down",
        }
    }

    /// Gauge encoding (0 ok / 1 degraded / 2 down) for
    /// `router.shard{i}.health`.
    pub fn as_gauge(self) -> u64 {
        match self {
            ShardHealth::Ok => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Down => 2,
        }
    }
}

/// Pre-resolved handles for the router's own metrics, on a **private**
/// registry (a router process may share an address space with shard
/// states in tests; private registries keep their series apart). Names
/// follow the ISSUE surface: `router.requests`, `router.fanout_size`,
/// `router.upstream_ns`, `router.errors`, `router.load_imbalance`, plus
/// the transport series every bikron server exports.
pub struct RouterMetrics {
    registry: Arc<Registry>,
    windows: WindowRegistry,
    requests: Arc<WindowedCounter>,
    request_ns: Arc<WindowedHistogram>,
    errors: Arc<Counter>,
    bytes_out: Arc<Counter>,
    fanout_size: Arc<Histogram>,
    upstream_ns: Arc<Histogram>,
    shard_requests: Vec<Arc<Counter>>,
    shard_health: Vec<Arc<Gauge>>,
    load_imbalance: Arc<Gauge>,
    inflight: Arc<Gauge>,
    connections: Arc<Counter>,
    shed: Arc<Counter>,
    timeouts: Arc<Counter>,
    status: Vec<(u16, Arc<Counter>)>,
}

impl RouterMetrics {
    fn new(num_shards: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let windows = WindowRegistry::new();
        let status = [200u16, 400, 404, 405, 413, 421, 431, 500, 503]
            .iter()
            .map(|&c| (c, registry.counter(&format!("router.status.{c}"))))
            .collect();
        let shard_requests = (0..num_shards)
            .map(|i| registry.counter(&format!("router.shard{i}.requests")))
            .collect();
        let shard_health = (0..num_shards)
            .map(|i| registry.gauge(&format!("router.shard{i}.health")))
            .collect();
        registry.gauge("router.shards").set(num_shards as u64);
        RouterMetrics {
            requests: windows.counter(&registry, "router.requests"),
            request_ns: windows.histogram(&registry, "router.request_ns"),
            errors: registry.counter("router.errors"),
            bytes_out: registry.counter("router.bytes_out"),
            fanout_size: registry.histogram("router.fanout_size"),
            upstream_ns: registry.histogram("router.upstream_ns"),
            shard_requests,
            shard_health,
            load_imbalance: registry.gauge("router.load_imbalance"),
            inflight: registry.gauge("router.inflight"),
            connections: registry.counter("router.connections"),
            shed: registry.counter("router.shed"),
            timeouts: registry.counter("router.timeouts"),
            status,
            registry,
            windows,
        }
    }

    /// One upstream exchange with `shard` took `ns`, from its send to
    /// the end of its finish.
    fn record_upstream(&self, shard: usize, ns: u64) {
        self.upstream_ns.record(ns);
        self.shard_requests[shard].inc();
    }

    /// Recompute `router.load_imbalance` (max/mean percent, 100 =
    /// balanced) from the live per-shard request counters — the same
    /// [`bikron_core::partition::imbalance_pct`] arithmetic distsim
    /// publishes for simulated ranks.
    fn refresh_imbalance(&self) {
        let counts: Vec<u64> = self.shard_requests.iter().map(|c| c.get()).collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = counts.iter().sum::<u64>() / counts.len().max(1) as u64;
        if let Some(pct) = bikron_core::partition::imbalance_pct(max, mean) {
            self.load_imbalance.set(pct);
        }
    }
}

/// Everything a router worker needs to answer one request. Send + Sync;
/// shared via `Arc` across the pool.
pub struct RouterState {
    shards: Vec<Upstream>,
    /// Product vertex count, discovered from `/v1/stats` at startup —
    /// the `n` in the ownership map `owner(p) = p / ceil(n / shards)`.
    num_vertices: usize,
    stats_json: String,
    replicate_stats: bool,
    batch_max: usize,
    admin_token: Option<String>,
    metrics: RouterMetrics,
    shutdown: AtomicBool,
    started: Instant,
    rr: AtomicUsize,
}

impl RouterState {
    /// Connect to `urls` (in shard order), handshake each shard, and
    /// build the ownership map.
    ///
    /// The handshake pins down the two ways a cluster can be silently
    /// miswired: each shard's `/v1/health` must self-identify as
    /// `"shard": "I/N"` matching its position in the list (catching a
    /// shuffled `--shards`), and every shard's `/v1/stats` body must be
    /// byte-identical to shard 0's (catching shards serving different
    /// programs). Shards still starting up are retried for a few
    /// seconds.
    pub fn connect(urls: &[String], options: RouterOptions) -> Result<RouterState, String> {
        if urls.is_empty() {
            return Err("need at least one shard URL".into());
        }
        let shards: Vec<Upstream> = urls
            .iter()
            .map(|u| {
                parse_shard_url(u).map(|addr| {
                    Upstream::new(addr, options.connect_timeout, options.upstream_timeout)
                })
            })
            .collect::<Result<_, _>>()?;
        let count = shards.len();
        let deadline = Instant::now() + CONNECT_RETRY_WINDOW;
        let mut stats_json = String::new();
        for (index, shard) in shards.iter().enumerate() {
            let health = loop {
                match shard.request("GET", "/v1/health", None, None) {
                    Ok(resp) => break resp,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(CONNECT_RETRY_PAUSE);
                    }
                    Err(e) => {
                        return Err(format!(
                            "shard {index} ({}) is unreachable: {e}",
                            shard.addr()
                        ))
                    }
                }
            };
            let claimed = json_string_field(&health.body, "shard").ok_or_else(|| {
                format!(
                    "shard {index} ({}) does not report a shard identity — \
                     is it running with --shard {index}/{count}?",
                    shard.addr()
                )
            })?;
            let expected = format!("{index}/{count}");
            if claimed != expected {
                return Err(format!(
                    "shard order mismatch: position {index} ({}) identifies as shard {claimed}, \
                     expected {expected} — check the --shards list order",
                    shard.addr()
                ));
            }
            let stats = shard
                .request("GET", "/v1/stats", None, None)
                .map_err(|e| format!("shard {index} ({}) stats fetch: {e}", shard.addr()))?;
            if index == 0 {
                stats_json = stats.body;
            } else if stats.body != stats_json {
                return Err(format!(
                    "shard {index} ({}) serves a different program than shard 0 \
                     (its /v1/stats body differs)",
                    shard.addr()
                ));
            }
        }
        // The *product* vertex count is the last "vertices" field in the
        // stats body (the factor sections list theirs first).
        let num_vertices = json_u64_field_last(&stats_json, "vertices")
            .ok_or("shard /v1/stats body has no \"vertices\" field")?
            as usize;
        if num_vertices == 0 {
            return Err("shard reports an empty product (0 vertices)".into());
        }
        Ok(RouterState {
            metrics: RouterMetrics::new(count),
            shards,
            num_vertices,
            stats_json,
            replicate_stats: options.replicate_stats,
            batch_max: options.batch_max.max(1),
            admin_token: options.admin_token,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            rr: AtomicUsize::new(0),
        })
    }

    /// Number of shards fronted.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Product vertex count discovered at startup.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The shard addresses, in ownership order.
    pub fn shard_addrs(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.addr()).collect()
    }

    /// The router's own metric handles.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Request shutdown programmatically (tests, orderly teardown).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The shard owning product vertex `p`. Out-of-range keys clamp to
    /// the last vertex's owner: any shard answers them with the same
    /// 404 body (shards range-check before the ownership gate), so
    /// routing them anywhere preserves byte-identity.
    fn owner(&self, p: usize) -> usize {
        bikron_core::partition::owner_of(
            self.num_vertices,
            self.shards.len(),
            p.min(self.num_vertices - 1),
        )
    }

    /// Route and answer one request. Upstream I/O happens here;
    /// `traceparent` (the router's own span context, rendered) is
    /// forwarded so shard spans hang off the router's trace.
    pub fn handle(&self, req: &Request, traceparent: Option<&str>) -> Response {
        let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        if req.method == "POST" {
            return match segs.as_slice() {
                ["v1", "batch"] => self.batch(req, traceparent),
                _ => Response::error(405, "POST is only accepted on /v1/batch"),
            };
        }
        match segs.as_slice() {
            ["metrics"] => self.metrics_response(req, traceparent),
            ["v1", "health"] => self.health_response(traceparent),
            ["v1", "stats"] if self.replicate_stats => Response::json(200, self.stats_json.clone()),
            ["v1", "stats"] | ["v1", "community"] | ["v1", "scatter", "degree-squares"] => {
                // Not keyed by a product vertex; every shard answers
                // identically from factor-sized state, so spread load.
                let shard = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                self.relay(shard, req, traceparent)
            }
            ["v1", "vertex", p]
            | ["v1", "neighbors", p]
            | ["v1", "edge", p, _]
            | ["v1", "clustering", p, _] => {
                // Route by the first index. A malformed index goes to
                // shard 0 — every shard rejects it with the identical
                // canned 400, so the owner is irrelevant.
                let shard = match p.parse::<usize>() {
                    Ok(p) => self.owner(p),
                    Err(_) => 0,
                };
                self.relay(shard, req, traceparent)
            }
            ["v1", "edges", part, parts] => {
                // The edge-partition space is tiled across shards with
                // the same block arithmetic as the vertex space
                // (mirroring the shard-side 421 gate). Malformed values
                // go to shard 0 for the canonical 400.
                let shard = match (part.parse::<usize>(), parts.parse::<usize>()) {
                    (Ok(part), Ok(parts)) if part < parts => {
                        bikron_core::partition::owner_of(parts, self.shards.len(), part)
                    }
                    _ => 0,
                };
                self.relay(shard, req, traceparent)
            }
            ["v1", "batch"] => Response::error(405, "batch requires POST"),
            // The router answers this itself (it shares the process-wide
            // profiler and the serve-side endpoint logic): a profile of
            // the router process attributes scatter-gather and relay
            // time, not shard-side evaluation.
            ["v1", "admin", "profile"] => self.profile_endpoint(req),
            _ => Response::error(404, &format!("no route for {}", req.path)),
        }
    }

    /// `GET /v1/admin/profile` (token-gated): the router's own sampled
    /// CPU profile. Same contract as the shard-side endpoint
    /// ([`bikron_serve::profile_response`]).
    fn profile_endpoint(&self, req: &Request) -> Response {
        let Some(expected) = &self.admin_token else {
            return Response::error(
                403,
                "admin endpoints are disabled; restart with --admin-token",
            );
        };
        let presented = req
            .query_param("token")
            .or_else(|| req.header("x-admin-token"));
        if presented != Some(expected.as_str()) {
            return Response::error(403, "missing or invalid admin token");
        }
        bikron_serve::profile_response(req)
    }

    /// Relay `req` to `shard` and return its response byte-identically.
    /// Failure scoping (DESIGN.md §13): after the upstream client's one
    /// retry on a re-opened connection, the error becomes a 503 naming
    /// the dead shard and its owned key range — keys owned by live
    /// shards are unaffected.
    fn relay(&self, shard: usize, req: &Request, traceparent: Option<&str>) -> Response {
        let target = render_target(req);
        let started = Instant::now();
        let result = self.shards[shard].request(&req.method, &target, None, traceparent);
        self.metrics
            .record_upstream(shard, started.elapsed().as_nanos() as u64);
        match result {
            Ok(up) => Response {
                status: up.status,
                content_type: static_content_type(&up.content_type),
                body: up.body,
            },
            Err(e) => {
                self.metrics.errors.inc();
                self.shard_unavailable(shard, &e.to_string())
            }
        }
    }

    /// The scoped 503 for a dead shard: names the shard, its address,
    /// and the half-open key range that is temporarily unserved.
    /// `write_response_traced` adds `Retry-After: 1` to every 503.
    fn shard_unavailable(&self, shard: usize, detail: &str) -> Response {
        let (lo, hi) =
            bikron_core::partition::block_range(self.num_vertices, self.shards.len(), shard);
        Response::error(
            503,
            &format!(
                "shard {shard} ({}) is unavailable ({detail}); vertices {lo}..{hi} are \
                 temporarily unserved, other key ranges keep answering",
                self.shards[shard].addr()
            ),
        )
    }

    /// `POST /v1/batch`: validate with the shard-shared grammar, split
    /// lines per owning shard, gather their answers, and reassemble the
    /// JSON array in original line order — byte-identical to a
    /// single-node server's answer (DESIGN.md §13).
    fn batch(&self, req: &Request, traceparent: Option<&str>) -> Response {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "batch body is not valid UTF-8"),
        };
        let queries = match parse_batch(body, self.batch_max) {
            Ok(qs) => qs,
            Err(e) => return e.response(),
        };
        // Group query lines by owning shard, remembering each line's
        // original position for order-preserving reassembly.
        let mut groups: Vec<(Vec<usize>, String)> =
            vec![(Vec::new(), String::new()); self.shards.len()];
        for (pos, q) in queries.iter().enumerate() {
            let p = match q {
                BatchQuery::Vertex(p) | BatchQuery::Edge(p, _) | BatchQuery::Neighbors(p, _, _) => {
                    *p
                }
            };
            let (slots, lines) = &mut groups[self.owner(p)];
            slots.push(pos);
            if !lines.is_empty() {
                lines.push('\n');
            }
            match q {
                BatchQuery::Vertex(p) => lines.push_str(&format!("vertex {p}")),
                BatchQuery::Edge(p, q) => lines.push_str(&format!("edge {p} {q}")),
                BatchQuery::Neighbors(p, offset, limit) => {
                    lines.push_str(&format!("neighbors {p} {offset} {limit}"))
                }
            }
        }
        let involved: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !groups[i].0.is_empty())
            .collect();
        self.metrics.fanout_size.record(involved.len() as u64);

        let replies = self.gather(
            &involved,
            "POST",
            "/v1/batch",
            |shard| Some(groups[shard].1.as_str()),
            traceparent,
        );

        // Place each shard's items back at their original line positions;
        // a failed shard's lines carry the scoped 503 error object (the
        // overall array still answers — failure is confined to that
        // shard's keys, like the single-endpoint path).
        let mut items: Vec<Option<String>> = vec![None; queries.len()];
        for (&shard, (result, ns)) in involved.iter().zip(replies) {
            self.metrics.record_upstream(shard, ns);
            let slots = &groups[shard].0;
            let outcome = match result {
                Ok(up) if up.status == 200 => match split_batch_items(&up.body) {
                    Some(parts) if parts.len() == slots.len() => Ok(parts),
                    _ => Err("malformed upstream batch body".to_string()),
                },
                Ok(up) => Err(format!("upstream answered {}", up.status)),
                Err(e) => Err(e.to_string()),
            };
            match outcome {
                Ok(parts) => {
                    for (slot, item) in slots.iter().zip(parts) {
                        items[*slot] = Some(item);
                    }
                }
                Err(detail) => {
                    self.metrics.errors.inc();
                    let error_item = self.shard_unavailable(shard, &detail).body;
                    for slot in slots {
                        items[*slot] = Some(error_item.trim_end().to_string());
                    }
                }
            }
        }

        // Reassemble with exactly the shard-side array framing.
        let mut out = String::new();
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(item.as_deref().expect("every line answered").trim_end());
        }
        out.push_str("\n]\n");
        Response::json(200, out)
    }

    /// `GET /v1/health`: cluster verdict = worst shard verdict, with a
    /// per-shard detail array naming each shard's address, owned key
    /// range, and verdict — a dead shard is identified, not averaged
    /// away.
    fn health_response(&self, traceparent: Option<&str>) -> Response {
        let verdicts = self.shard_verdicts(traceparent);
        let degraded = verdicts.iter().any(|&v| v != ShardHealth::Ok);
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("status", if degraded { "degraded" } else { "ok" });
        w.string_field("role", "router");
        w.u64_field("shards", self.shards.len() as u64);
        w.u64_field("vertices", self.num_vertices as u64);
        w.u64_field("uptime_ms", self.started.elapsed().as_millis() as u64);
        w.key("detail");
        w.open_array();
        for (index, verdict) in verdicts.iter().enumerate() {
            let (lo, hi) =
                bikron_core::partition::block_range(self.num_vertices, self.shards.len(), index);
            w.array_element();
            w.open_object();
            w.u64_field("shard", index as u64);
            w.string_field("addr", self.shards[index].addr());
            w.string_field("status", verdict.as_str());
            w.u64_field("owned_lo", lo as u64);
            w.u64_field("owned_hi", hi as u64);
            w.close_object();
        }
        w.close_array();
        w.close_object();
        Response::json(200, w.finish())
    }

    /// `GET /metrics[?format=prometheus]`: the router's own series plus
    /// every reachable shard's report — prefixed `shard{i}.` in the
    /// JSON schema, re-emitted with a `shard="i"` label in the
    /// Prometheus exposition. One scrape reads the whole cluster.
    fn metrics_response(&self, req: &Request, traceparent: Option<&str>) -> Response {
        // Scrape every shard's JSON report, then its health.
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let scrapes: Vec<Option<Report>> = self
            .gather(&all, "GET", "/metrics", |_| None, traceparent)
            .into_iter()
            .map(|(result, _)| match result {
                Ok(up) if up.status == 200 => Report::from_json(&up.body).ok(),
                _ => None,
            })
            .collect();
        self.shard_verdicts(traceparent);
        self.metrics.refresh_imbalance();
        self.metrics
            .registry
            .gauge("router.uptime_ms")
            .set(self.started.elapsed().as_millis() as u64);

        let mut report = self.metrics.registry.snapshot();
        self.metrics.windows.snapshot_into(&mut report);
        // The profiler is process-wide (unlike the router's private
        // metric registry), so its attribution rides the router report
        // when a sampler is running.
        let prof = bikron_obs::profile::profiler();
        if prof.sampler_hz() > 0 {
            report.set_profile(prof.snapshot());
        }
        report.set_meta("tool", "bikron-router");
        report.set_meta("shards", self.shards.len().to_string());
        for (index, shard) in self.shards.iter().enumerate() {
            report.set_meta(&format!("shard{index}.addr"), shard.addr());
        }
        match req.query_param("format") {
            None | Some("json") => {
                for (index, shard_report) in scrapes.iter().enumerate() {
                    if let Some(r) = shard_report {
                        report.merge_prefixed(&format!("shard{index}."), r);
                    }
                }
                Response::json(200, report.to_json())
            }
            Some("prometheus") => {
                let mut out = bikron_obs::prom::to_prometheus(&report);
                let labelled: Vec<(usize, &Report)> = scrapes
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
                    .collect();
                out.push_str(&shard_labelled_exposition(&labelled));
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: out,
                }
            }
            Some(other) => Response::error(
                400,
                &format!("unknown metrics format {other:?} (json|prometheus)"),
            ),
        }
    }

    /// Every shard's `/v1/health` verdict, in shard order, also set on
    /// the `router.shard{i}.health` gauges.
    fn shard_verdicts(&self, traceparent: Option<&str>) -> Vec<ShardHealth> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let verdicts: Vec<ShardHealth> = self
            .gather(&all, "GET", "/v1/health", |_| None, traceparent)
            .into_iter()
            .map(|(result, _)| match result {
                Ok(up) if json_string_field(&up.body, "status").as_deref() == Some("ok") => {
                    ShardHealth::Ok
                }
                Ok(_) => ShardHealth::Degraded,
                Err(_) => ShardHealth::Down,
            })
            .collect();
        for (gauge, verdict) in self.metrics.shard_health.iter().zip(&verdicts) {
            gauge.set(verdict.as_gauge());
        }
        verdicts
    }

    /// The one fan-out (DESIGN.md §13): send to every shard in
    /// `involved` before reading any answer, then finish each in shard
    /// order. Every deadline starts before the first finish, so k hung
    /// shards cost one `upstream_timeout`. Each result comes with its
    /// time from send to the end of its finish.
    fn gather<'b>(
        &self,
        involved: &[usize],
        method: &str,
        target: &str,
        body: impl Fn(usize) -> Option<&'b str>,
        traceparent: Option<&str>,
    ) -> Vec<(Result<client::Response, ClientError>, u64)> {
        let sent: Vec<_> = involved
            .iter()
            .map(|&shard| {
                let started = Instant::now();
                let pending = self.shards[shard].send(method, target, body(shard), traceparent);
                (started, pending)
            })
            .collect();
        involved
            .iter()
            .zip(sent)
            .map(|(&shard, (started, pending))| {
                let result = pending.and_then(|p| self.shards[shard].finish(p));
                (result, started.elapsed().as_nanos() as u64)
            })
            .collect()
    }
}

impl Handler for RouterState {
    /// Route under the request's own context: its rendered
    /// `traceparent` travels upstream so shard spans join the trace.
    fn respond(&self, req: &Request, ctx: &TraceContext) -> Response {
        self.handle(req, Some(&ctx.to_traceparent()))
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || bikron_serve::signal::ctrl_c_received()
    }

    /// A 408 is the transport's request deadline firing, so it also
    /// counts a timeout.
    fn record(&self, status: u16, bytes: u64, ns: u64) {
        let m = &self.metrics;
        m.requests.inc();
        m.bytes_out.add(bytes);
        m.request_ns.record(ns);
        if status >= 500 {
            m.errors.inc();
        }
        if status == 408 {
            m.timeouts.inc();
        }
        if let Some((_, c)) = m.status.iter().find(|(s, _)| *s == status) {
            c.inc();
        } else {
            m.registry.counter(&format!("router.status.{status}")).inc();
        }
    }

    fn record_shed(&self, bytes: u64) {
        self.metrics.shed.inc();
        self.record(503, bytes, 0);
    }

    fn connection_opened(&self) {
        self.metrics.connections.inc();
    }

    fn inflight(&self) -> &Gauge {
        &self.metrics.inflight
    }
}

/// Accept `http://host:port` or bare `host:port`; reject anything else
/// (https, paths, userinfo) loudly rather than misdialling.
pub fn parse_shard_url(url: &str) -> Result<String, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") || url.starts_with("https://") {
        return Err(format!("{url:?}: https upstreams are not supported"));
    }
    let rest = rest.strip_suffix('/').unwrap_or(rest);
    if rest.is_empty() || rest.contains('/') || rest.contains('@') {
        return Err(format!("{url:?}: expected http://host:port or host:port"));
    }
    let Some((host, port)) = rest.rsplit_once(':') else {
        return Err(format!("{url:?}: a shard URL needs an explicit port"));
    };
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(format!("{url:?}: bad host or port"));
    }
    Ok(rest.to_string())
}

/// Rebuild the request target (`path?query`) for upstream relay. The
/// path survives verbatim (shard-routed paths are ASCII segment names
/// and indices); query values are re-encoded conservatively.
fn render_target(req: &Request) -> String {
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        encode_component(&mut target, k);
        target.push('=');
        encode_component(&mut target, v);
    }
    target
}

/// Percent-encode everything outside the unreserved set.
fn encode_component(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
}

/// Map an upstream `Content-Type` onto the static strings [`Response`]
/// carries. Shards only emit these two; anything else degrades to JSON.
fn static_content_type(ct: &str) -> &'static str {
    if ct.starts_with("text/plain") {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "application/json"
    }
}

/// First `"key": "value"` string field in a flat JSON body. Good enough
/// for the handshake and health probes: both bodies are emitted by our
/// own `JsonWriter` with this exact spacing.
pub(crate) fn json_string_field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')?;
    Some(body[start..start + end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_url_parsing() {
        assert_eq!(
            parse_shard_url("http://127.0.0.1:7474").unwrap(),
            "127.0.0.1:7474"
        );
        assert_eq!(parse_shard_url("localhost:80").unwrap(), "localhost:80");
        assert_eq!(parse_shard_url("http://h:1/").unwrap(), "h:1");
        assert!(parse_shard_url("https://h:1").is_err());
        assert!(parse_shard_url("h").is_err());
        assert!(parse_shard_url("http://h:1/path").is_err());
        assert!(parse_shard_url("h:notaport").is_err());
        assert!(parse_shard_url("").is_err());
    }

    #[test]
    fn json_field_extraction() {
        let body = "{\n  \"status\": \"ok\",\n  \"shard\": \"1/3\",\n  \"vertices\": 25\n}\n";
        assert_eq!(json_string_field(body, "status").as_deref(), Some("ok"));
        assert_eq!(json_string_field(body, "shard").as_deref(), Some("1/3"));
        assert_eq!(json_string_field(body, "missing"), None);
    }

    #[test]
    fn target_rendering_roundtrips_queries() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/neighbors/5".into(),
            query: vec![("offset".into(), "2".into()), ("limit".into(), "10".into())],
            headers: vec![],
            body: vec![],
        };
        assert_eq!(render_target(&req), "/v1/neighbors/5?offset=2&limit=10");
        let plain = Request {
            query: vec![],
            ..req
        };
        assert_eq!(render_target(&plain), "/v1/neighbors/5");
    }
}
