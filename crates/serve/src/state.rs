//! Shared server state and the request router.
//!
//! [`ServeState`] is the whole memory footprint of the service: one
//! [`KronChain`] (the factor graphs and their
//! [`FactorStats`](bikron_core::truth::FactorStats)) and one cached
//! `/v1/stats` body. Nothing product-sized is ever built, and no
//! answer is remembered: each request evaluates the closed-form theorems
//! against factor-sized state and renders the answer straight into its
//! response body, so a server describing a graph with millions of
//! vertices holds only factor-sized state and each request allocates at
//! most `O(limit + Σ|factor|)` — `O(batch_max × limit)` for a batch.
//!
//! Every program is served by the one chain evaluator. The classic
//! **pair** server (`bikron serve A B MODE`, built by
//! [`ServeState::build_with`]) is the 2-level chain `(A+I)⊗B` or `A⊗B`;
//! the **expression** server (`--expr`, built by
//! [`ServeState::build_expr`]) runs any chain. A `pair_form` bit, fixed
//! at construction, keeps the pair wire format where it differs: pair
//! vertex bodies report `"alpha"`/`"beta"` where expression servers
//! report per-level `"coords"`, the `/v1/stats` body is the Table-I
//! summary, and community sets are `?a=&b=` (with Cor 1–2 densities)
//! instead of `?s0=…`. Every server streams `/v1/edges` from the chain
//! ([`EdgeStream`]).

use std::sync::Arc;
use std::time::Instant;

use bikron_core::stream::EdgeStream;
use bikron_core::truth::community::{product_community, FactorCommunity};
use bikron_core::truth::squares_vertex::global_squares_with;
use bikron_core::{
    pair_levels, predict_structure, ChainError, KronChain, KroneckerProduct, SelfLoopMode,
};
use bikron_graph::{bipartition, Graph};
use bikron_obs::span::DEFAULT_TRACE_CAPACITY;
use bikron_obs::{Counter, EventLogger, Histogram, JsonWriter, LogEvent, Report, SpanSink};

use crate::http::{
    json_answer, Answer, Refusal, Request, Response, Route, CSV_TYPE, FOLDED_TYPE, PROMETHEUS_TYPE,
};
use crate::pool::{request_shape, Exchange, Handler, Transport};

/// Default page size for `/v1/neighbors` and `/v1/edges`.
pub const DEFAULT_LIMIT: usize = 100;
/// Hard cap on a single page — the "sublinear memory per request"
/// guarantee: no query can make the server materialise more than this
/// many items.
pub const MAX_LIMIT: usize = 10_000;
/// Upper bound on the partition count a client may request.
pub const MAX_PARTS: usize = 1 << 20;
/// Default cap on queries per `POST /v1/batch` request
/// (`--batch-max` overrides).
pub const DEFAULT_BATCH_MAX: usize = 256;
/// Default windowed-p99 SLO threshold in milliseconds
/// (`--slo-p99-ms` overrides).
pub const DEFAULT_SLO_P99_MS: u64 = 500;
/// Default windowed error-rate SLO threshold in whole percent
/// (`--slo-err-pct` overrides).
pub const DEFAULT_SLO_ERR_PCT: u64 = 5;
/// Access-log queue capacity (events buffered between the request path
/// and the writer thread before drops begin).
pub const ACCESS_LOG_QUEUE: usize = 4096;
/// Upper bound on `/v1/admin/stall?ms=` — the injected stall can spike
/// windowed latency but never pin a worker for more than this.
pub const MAX_STALL_MS: u64 = 2_000;
/// Upper bound on `/v1/admin/profile?seconds=` — a capture window holds
/// a worker thread (snapshot, sleep, snapshot) for its whole duration.
pub const MAX_PROFILE_SECONDS: u64 = 30;

/// The opening brace and first member key of a keyed answer (`{`, a
/// newline, a two-space indent, `"key": `), as one constant piece.
macro_rules! first_member {
    ($key:literal) => {
        concat!("{\n  \"", $key, "\": ")
    };
}

/// The separator and key of a later top-level member (`,`, a newline, a
/// two-space indent, `"key": `), as one constant piece.
macro_rules! member {
    ($key:literal) => {
        concat!(",\n  \"", $key, "\": ")
    };
}

/// The newline and brace that close a keyed answer.
const CLOSE_OBJECT: &str = "\n}";

/// Behavioural knobs for [`ServeState::build_with`]. Transport-level
/// knobs (address, pool size, queue) stay in
/// [`ServerConfig`](crate::ServerConfig).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Token gating `/v1/shutdown`; `None` disables admin endpoints.
    pub admin_token: Option<String>,
    /// Maximum queries accepted per batch request.
    pub batch_max: usize,
    /// Ignored: every batch evaluates in order on the pool worker that
    /// read it. Kept only so existing struct literals still compile; it
    /// goes away in the next change that edits those literals.
    pub batch_threads: usize,
    /// Append one JSON-lines access event per request to this file
    /// (`--access-log`); `None` disables access logging.
    pub access_log: Option<String>,
    /// Keep every Nth access event per target (`--log-sample`; 1 keeps
    /// all).
    pub log_sample: u64,
    /// `/v1/health` flips to `degraded` when a windowed p99 exceeds this
    /// many milliseconds.
    pub slo_p99_ms: u64,
    /// `/v1/health` flips to `degraded` when a windowed 5xx rate exceeds
    /// this percentage of requests.
    pub slo_err_pct: u64,
    /// Tail-sample any request slower than this many milliseconds into
    /// the span ring (`--trace-slow-ms`; 0 disables tail sampling).
    pub trace_slow_ms: u64,
    /// Additionally head-sample 1-in-N requests into the span ring
    /// (`--trace-sample`; 0 disables head sampling). Tracing is fully
    /// off — no span arena attached per request — when both this and
    /// `trace_slow_ms` are 0.
    pub trace_sample: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            admin_token: None,
            batch_max: DEFAULT_BATCH_MAX,
            batch_threads: 4,
            access_log: None,
            log_sample: 1,
            slo_p99_ms: DEFAULT_SLO_P99_MS,
            slo_err_pct: DEFAULT_SLO_ERR_PCT,
            trace_slow_ms: 0,
            trace_sample: 0,
        }
    }
}

/// The serve-only series, `serve.batch_size` and `serve.batch.items`,
/// pre-resolved; the transport series live in the pool's
/// [`Transport`].
pub struct ServeMetrics {
    batch_size: Arc<Histogram>,
    batch_items: Arc<Counter>,
}

impl ServeMetrics {
    fn new() -> Self {
        let obs = bikron_obs::global();
        ServeMetrics {
            batch_size: obs.histogram("serve.batch_size"),
            batch_items: obs.counter("serve.batch.items"),
        }
    }

    /// Record one accepted batch of `items` queries.
    pub fn record_batch(&self, items: u64) {
        self.batch_size.record(items);
        self.batch_items.add(items);
    }
}

/// Everything a worker needs to answer queries. Send + Sync; shared via
/// `Arc` across the pool.
pub struct ServeState {
    /// The served program; its canonical spelling is the `expr` that
    /// `/v1/stats` and snapshots report.
    chain: KronChain,
    /// Set only by the pair constructors (and kind-0 snapshots): render
    /// the two-factor wire format (module docs).
    pair_form: bool,
    stats_json: String,
    admin_token: Option<String>,
    batch_max: usize,
    transport: Transport,
    metrics: ServeMetrics,
    logger: Option<EventLogger>,
    /// Captured slow/sampled request traces (per server instance, so
    /// multi-server tests and processes never cross-contaminate).
    spans: SpanSink,
    slo_p99_ms: u64,
    slo_err_pct: u64,
    started: Instant,
}

/// Collapse a request path to a bounded-cardinality shape for access
/// logs: purely numeric segments become `{n}`, so `/v1/vertex/17` and
/// `/v1/vertex/23` aggregate under one key instead of exploding the
/// log's value space.
pub fn path_shape(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for seg in path.split('/').filter(|s| !s.is_empty()) {
        out.push('/');
        if seg.bytes().all(|b| b.is_ascii_digit()) {
            out.push_str("{n}");
        } else {
            out.push_str(seg);
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

/// What a warm boot cost — surfaced in the startup banner and the
/// `serve.snapshot.load_ns` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmInfo {
    /// Wall-clock nanoseconds spent rebuilding state from the snapshot.
    pub load_ns: u64,
}

/// Insert `"snapshot": "warm"|"cold"` as the last member of the cached
/// `/v1/stats` body. The body is a `JsonWriter` object, so its final
/// close brace is the only `\n}` at indent zero.
fn with_snapshot_field(stats_json: &str, warm: bool) -> String {
    let state = if warm { "warm" } else { "cold" };
    match stats_json.rfind("\n}") {
        Some(at) => format!(
            "{},\n  \"snapshot\": \"{state}\"{}",
            &stats_json[..at],
            &stats_json[at..]
        ),
        None => stats_json.to_string(),
    }
}

/// Strip the `"snapshot": "warm"|"cold"` member that every served
/// `/v1/stats` body carries, leaving the body that identifies the
/// program. Snapshots persist this bare body, so a file captured warm
/// and one captured cold are byte-identical, and the router compares
/// replicas by it, so a warm replica joins cold ones.
pub fn without_snapshot_field(stats_json: &str) -> String {
    const NEEDLE: &str = ",\n  \"snapshot\": \"";
    match stats_json.rfind(NEEDLE) {
        Some(start) => {
            let vstart = start + NEEDLE.len();
            match stats_json[vstart..].find('"') {
                Some(q) => format!("{}{}", &stats_json[..start], &stats_json[vstart + q + 1..]),
                None => stats_json.to_string(),
            }
        }
        None => stats_json.to_string(),
    }
}

impl ServeState {
    /// Build the service state with default [`ServeOptions`] apart from
    /// the admin token. See [`ServeState::build_with`].
    pub fn build(
        a: Graph,
        b: Graph,
        mode: SelfLoopMode,
        admin_token: Option<String>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        Self::build_with(
            a,
            b,
            mode,
            ServeOptions {
                admin_token,
                ..ServeOptions::default()
            },
        )
    }

    /// Build a **pair** server: the 2-level chain
    /// [`pair_levels`]`(mode)` over factors `A` and `B`, with the pair
    /// wire format. Validates the product, computes both factor
    /// statistics once, and caches the `/v1/stats` body.
    pub fn build_with(
        a: Graph,
        b: Graph,
        mode: SelfLoopMode,
        options: ServeOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        // The two-factor checks first, so their errors name factor A or B.
        KroneckerProduct::new(&a, &b, mode)?;
        let chain = KronChain::new(
            vec![("A".to_string(), a), ("B".to_string(), b)],
            &pair_levels(mode),
        )?;
        let stats_json = pair_stats_body(&chain)?;
        Self::assemble(chain, true, stats_json, options, false)
    }

    /// Build an **expression** server: an arbitrary Kronecker program
    /// over named factor graphs (`bikron serve --expr`). `levels` is the
    /// flattened chain from [`bikron_sparse::parse_expr`]; `bindings`
    /// maps each referenced name to its graph.
    pub fn build_expr(
        bindings: Vec<(String, Graph)>,
        levels: &[(String, bool)],
        options: ServeOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        let chain = KronChain::new(bindings, levels)?;
        let stats_json = stats_body_chain(&chain);
        Self::assemble(chain, false, stats_json, options, false)
    }

    /// Rebuild a server from a decoded snapshot: factor stats come from
    /// the file instead of `FactorStats::compute`, the `/v1/stats` body
    /// is the captured one (skipping the O(product) degree histogram and
    /// global square count on pair servers). `/v1/stats` reports
    /// `"snapshot": "warm"` and the `serve.snapshot.*` gauges record the
    /// load cost. Callers are expected to have validated the snapshot
    /// against the requested program first ([`Snapshot::validate`]).
    ///
    /// [`Snapshot::validate`]: crate::snapshot::Snapshot::validate
    pub fn build_from_snapshot(
        snap: crate::snapshot::Snapshot,
        options: ServeOptions,
    ) -> Result<(Self, WarmInfo), Box<dyn std::error::Error>> {
        let _phase = bikron_obs::global().phase("serve.build");
        let t0 = Instant::now();
        let chain = KronChain::with_stats(snap.bindings, &snap.levels)?;
        let state = Self::assemble(chain, snap.pair_form, snap.stats_json, options, true)?;
        let info = WarmInfo {
            load_ns: t0.elapsed().as_nanos() as u64,
        };
        bikron_obs::global()
            .gauge("serve.snapshot.load_ns")
            .set(info.load_ns);
        Ok((state, info))
    }

    /// Capture this server's state as a [`crate::snapshot::Snapshot`].
    pub fn to_snapshot(&self) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot {
            expr: self.expr().to_string(),
            pair_form: self.pair_form,
            bindings: (0..self.chain.num_atoms())
                .map(|i| {
                    let (name, g, s) = self.chain.atom_info(i);
                    (name.to_string(), g.clone(), s.clone())
                })
                .collect(),
            levels: self.chain.level_spec(),
            stats_json: without_snapshot_field(&self.stats_json),
        }
    }

    fn assemble(
        chain: KronChain,
        pair_form: bool,
        stats_json: String,
        options: ServeOptions,
        warm: bool,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let logger = match &options.access_log {
            Some(path) => Some(EventLogger::to_file(
                std::path::Path::new(path),
                ACCESS_LOG_QUEUE,
                options.log_sample,
            )?),
            None => None,
        };
        // Advertise the boot path in `/v1/stats` (the single injection
        // point keeps warm and cold bodies byte-identical everywhere
        // else) and in the `serve.snapshot.warm` gauge so `monitor` can
        // surface it. Cold boots zero the load-time gauge so the key
        // always exists in a metrics report.
        let stats_json = with_snapshot_field(&stats_json, warm);
        let obs = bikron_obs::global();
        obs.gauge("serve.snapshot.warm").set(u64::from(warm));
        if !warm {
            obs.gauge("serve.snapshot.load_ns").set(0);
        }
        Ok(ServeState {
            chain,
            pair_form,
            stats_json,
            admin_token: options.admin_token,
            batch_max: options.batch_max.max(1),
            transport: Transport::new(bikron_obs::global_shared(), "serve", "serve.errors_5xx"),
            metrics: ServeMetrics::new(),
            logger,
            spans: SpanSink::new(
                DEFAULT_TRACE_CAPACITY,
                options.trace_slow_ms,
                options.trace_sample,
            ),
            slo_p99_ms: options.slo_p99_ms.max(1),
            slo_err_pct: options.slo_err_pct.min(100),
            started: Instant::now(),
        })
    }

    /// The canonicalised expression string this server reports.
    pub fn expr(&self) -> &str {
        self.chain.canonical()
    }

    /// The serve-only metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The configured per-batch query cap.
    pub fn batch_max(&self) -> usize {
        self.batch_max
    }

    /// Whether shutdown has been requested (admin endpoint or signal).
    pub fn shutdown_requested(&self) -> bool {
        self.transport.shutdown_requested()
    }

    /// Request shutdown programmatically.
    pub fn request_shutdown(&self) {
        self.transport.request_shutdown();
    }

    /// Product vertex count.
    pub fn num_vertices(&self) -> usize {
        self.chain.num_vertices()
    }

    /// Route and answer one request. Pure: no I/O, no blocking — the
    /// pool owns transport and metrics. The body [`ServeState::answer`]
    /// renders, as a [`Response`].
    pub fn handle(&self, req: &Request) -> Response {
        let mut body = String::with_capacity(256);
        let answer = self.answer(req, &mut body);
        Response {
            status: answer.status,
            content_type: answer.content_type,
            body,
        }
    }

    /// Route and answer one request, rendering its body onto `body`.
    pub fn answer(&self, req: &Request, body: &mut String) -> Answer {
        let route = match Route::of(req) {
            Ok(route) => route,
            Err(refusal) => return refusal.answer(body),
        };
        match route {
            Route::Batch => self.batch(req, body),
            Route::Stats => {
                body.push_str(&self.stats_json);
                Answer::json(200)
            }
            Route::Vertex(p) => self.vertex(p, body),
            Route::Edge(p, q) => self.edge(p, q, body),
            Route::Neighbors(p) => self.neighbors(p, req, body),
            Route::Clustering(p, q) => self.clustering(p, q, body),
            Route::Edges(part, parts) => self.edges(part, parts, req, body),
            Route::Community => self.community(req, body),
            Route::Scatter => self.scatter_degree_squares(req, body),
            Route::Metrics => self.metrics_endpoint(req, body),
            Route::Health => self.health(body),
            Route::Shutdown => self.shutdown_endpoint(req, body),
            Route::AdminStall => self.stall_endpoint(req, body),
            Route::AdminTraces => self.traces_endpoint(req, body),
            Route::AdminProfile => self.profile_endpoint(req, body),
        }
    }

    fn batch(&self, req: &Request, out: &mut String) -> Answer {
        let Ok(body) = std::str::from_utf8(req.body()) else {
            return Refusal::new(400, "batch body is not valid UTF-8").answer(out);
        };
        let batch = match crate::batch::parse_batch(body, self.batch_max) {
            Ok(batch) => batch,
            Err(e) => return e.answer(out),
        };
        self.metrics.record_batch(batch.num_queries() as u64);
        crate::batch::eval_batch(self, &batch, out)
    }

    fn vertex(&self, raw: &str, body: &mut String) -> Answer {
        let rendered =
            parse_index(raw, self.num_vertices()).and_then(|p| self.vertex_into(body, p));
        keyed_answer(body, rendered)
    }

    /// Render the `GET /v1/vertex/{p}` body for an already-parsed index
    /// onto `out`, without its newline, or refuse it before writing a
    /// byte (shared with the batch evaluator — both produce identical
    /// bytes). Pair
    /// servers report the two coordinates as `"alpha"`/`"beta"`;
    /// expression servers report the per-level `"coords"` array.
    pub(crate) fn vertex_into(&self, out: &mut String, p: usize) -> Result<(), Refusal> {
        check_range(p, self.num_vertices())?;
        let truth = self.chain.vertex_at(p);
        out.push_str(first_member!("vertex"));
        push_u64(out, p as u64);
        if self.pair_form {
            let keys = [member!("alpha"), member!("beta")];
            for (key, c) in keys.into_iter().zip(self.chain.coords(p)) {
                out.push_str(key);
                push_u64(out, c as u64);
            }
        } else {
            out.push_str(member!("coords"));
            let mut coords = IntArray::open(out);
            for c in self.chain.coords(p) {
                coords.push(c as u64);
            }
            coords.close();
        }
        out.push_str(member!("degree"));
        push_u64(out, truth.degree);
        out.push_str(member!("squares"));
        push_u64(out, truth.squares);
        out.push_str(CLOSE_OBJECT);
        Ok(())
    }

    fn edge(&self, raw_p: &str, raw_q: &str, body: &mut String) -> Answer {
        let n = self.num_vertices();
        let rendered = parse_index(raw_p, n)
            .and_then(|p| Ok((p, parse_index(raw_q, n)?)))
            .and_then(|(p, q)| self.edge_into(body, p, q));
        keyed_answer(body, rendered)
    }

    /// Render the `GET /v1/edge/{p}/{q}` body for already-parsed indices
    /// onto `out`, without its newline.
    pub(crate) fn edge_into(&self, out: &mut String, p: usize, q: usize) -> Result<(), Refusal> {
        let n = self.num_vertices();
        check_range(p, n)?;
        check_range(q, n)?;
        let edge = self.chain.edge_at(p, q);
        out.push_str(first_member!("p"));
        push_u64(out, p as u64);
        out.push_str(member!("q"));
        push_u64(out, q as u64);
        out.push_str(match edge.squares {
            Some(_) => concat!(member!("edge"), "true"),
            None => concat!(member!("edge"), "false"),
        });
        out.push_str(member!("degree_p"));
        push_u64(out, edge.degree_p);
        out.push_str(member!("degree_q"));
        push_u64(out, edge.degree_q);
        out.push_str(member!("squares"));
        push_u64_or_null(out, edge.squares);
        out.push_str(CLOSE_OBJECT);
        Ok(())
    }

    fn neighbors(&self, raw: &str, req: &Request, body: &mut String) -> Answer {
        let rendered = parse_index(raw, self.num_vertices())
            .and_then(|p| Ok((p, parse_page(req)?)))
            .and_then(|(p, (offset, limit))| self.neighbors_into(body, p, offset, limit));
        keyed_answer(body, rendered)
    }

    /// Render the `GET /v1/neighbors/{p}?offset&limit` body for
    /// already-parsed values onto `out`, without its newline (`limit`
    /// must respect [`MAX_LIMIT`]; both entry points enforce it). The
    /// page goes straight from the chain into the body.
    pub(crate) fn neighbors_into(
        &self,
        out: &mut String,
        p: usize,
        offset: u64,
        limit: usize,
    ) -> Result<(), Refusal> {
        check_range(p, self.num_vertices())?;
        let degree = self.chain.degree(p);
        let count = degree.saturating_sub(offset).min(limit as u64);
        let next = offset + count;
        out.push_str(first_member!("vertex"));
        push_u64(out, p as u64);
        out.push_str(member!("degree"));
        push_u64(out, degree);
        out.push_str(member!("offset"));
        push_u64(out, offset);
        out.push_str(member!("count"));
        push_u64(out, count);
        out.push_str(member!("next_offset"));
        push_u64_or_null(out, (next < degree && count > 0).then_some(next));
        out.push_str(member!("neighbors"));
        let mut page = IntArray::open(out);
        self.chain
            .for_each_neighbor(p, offset, limit, |q| page.push(q as u64));
        page.close();
        out.push_str(CLOSE_OBJECT);
        Ok(())
    }

    fn edges(&self, raw_part: &str, raw_parts: &str, req: &Request, body: &mut String) -> Answer {
        let parts: usize = match raw_parts.parse() {
            Ok(v) if (1..=MAX_PARTS).contains(&v) => v,
            _ => {
                return Refusal::new(
                    400,
                    format!("parts must be an integer in 1..={MAX_PARTS}, got {raw_parts:?}"),
                )
                .answer(body)
            }
        };
        let part: usize = match raw_part.parse() {
            Ok(v) if v < parts => v,
            _ => {
                return Refusal::new(
                    400,
                    format!("part must be an integer below parts={parts}, got {raw_part:?}"),
                )
                .answer(body)
            }
        };
        let (offset, limit) = match parse_page(req) {
            Ok(v) => v,
            Err(refusal) => return refusal.answer(body),
        };
        let annotate = matches!(req.query_param("annotate"), Some("1") | Some("true"));
        let stream = EdgeStream::new(&self.chain, parts);
        let total = stream.part_len(part);
        let page = stream.edges_page(part, offset, limit);
        json_answer(body, 200, |w| {
            w.open_object();
            w.u64_field("part", part as u64);
            w.u64_field("parts", parts as u64);
            w.u64_field("part_edges", total);
            w.u64_field("offset", offset);
            w.u64_field("count", page.len() as u64);
            let next = offset + page.len() as u64;
            if next < total && !page.is_empty() {
                w.u64_field("next_offset", next);
            } else {
                w.null_field("next_offset");
            }
            w.key("edges");
            w.open_array();
            for &(p, q) in &page {
                w.array_element();
                w.open_array();
                w.u64_element(p as u64);
                w.u64_element(q as u64);
                if annotate {
                    let edge = self.chain.edge_at(p, q);
                    w.u64_element(edge.degree_p);
                    w.u64_element(edge.degree_q);
                    w.u64_element(edge.squares.expect("streamed pairs are edges"));
                }
                w.close_array();
            }
            w.close_array();
            w.close_object();
        })
    }

    /// `GET /v1/clustering/{p}/{q}`: the Thm 6 surface — exact edge
    /// clustering coefficient `Γ_C(p,q)` (Eq. 5) plus the scaling-law
    /// lower bound `ψ·Γ_A·Γ_B` (Thm 6) where defined. `gamma` is exact
    /// for every served program; `bound`/`psi` are only defined on
    /// identity-free programs with all factor degrees ≥ 2 (the theorem's
    /// hypotheses), and are `null` otherwise.
    fn clustering(&self, raw_p: &str, raw_q: &str, body: &mut String) -> Answer {
        let n = self.num_vertices();
        let (p, q) = match (parse_index(raw_p, n), parse_index(raw_q, n)) {
            (Ok(p), Ok(q)) => (p, q),
            (Err(refusal), _) | (_, Err(refusal)) => return refusal.answer(body),
        };
        let c = self.chain.clustering_at(p, q);
        json_answer(body, 200, |w| {
            w.open_object();
            w.u64_field("p", p as u64);
            w.u64_field("q", q as u64);
            w.bool_field("edge", c.squares.is_some());
            w.u64_field("degree_p", c.degree_p);
            w.u64_field("degree_q", c.degree_q);
            match c.squares {
                Some(s) => w.u64_field("squares", s),
                None => w.null_field("squares"),
            }
            for (key, value) in [("gamma", c.gamma), ("bound", c.bound), ("psi", c.psi)] {
                match value {
                    Some(v) => w.f64_field(key, v),
                    None => w.null_field(key),
                }
            }
            w.close_object();
        })
    }

    /// `GET /v1/community`: the Thm 7 / Cor 1–2 surface. Pair servers
    /// take `?a=<ids>&b=<ids>` (comma-separated factor-vertex sets);
    /// expression servers take one `?s{i}=<ids>` per level. `m_in` and
    /// `m_out` are **exact** for every program (Thm 7, chained); the
    /// density fields `rho_in` / `rho_in_lower_bound` (Cor 1) /
    /// `rho_out_upper_bound` (Cor 2) are two-factor statements, reported
    /// on pair servers with bipartite factors and `null` otherwise.
    fn community(&self, req: &Request, body: &mut String) -> Answer {
        let levels = self.chain.num_levels();
        let set_name = |i: usize| {
            if self.pair_form {
                ["a", "b"][i].to_string()
            } else {
                format!("s{i}")
            }
        };
        let mut sets = Vec::with_capacity(levels);
        for i in 0..levels {
            let name = set_name(i);
            let Some(raw) = req.query_param(&name) else {
                let usage = if self.pair_form {
                    "community requires ?a=<ids>&b=<ids> (comma-separated factor vertices)"
                        .to_string()
                } else {
                    format!(
                        "community on a {levels}-level expression requires ?s0=…&s{}=<ids>",
                        levels - 1
                    )
                };
                return Refusal::new(400, usage).answer(body);
            };
            match parse_id_list(&name, raw) {
                Ok(set) => sets.push(set),
                Err(refusal) => return refusal.answer(body),
            }
        }
        let truth = match self.chain.community(&sets) {
            Ok(t) => t,
            Err(ChainError::CommunityVertex { level, factor, .. }) if self.pair_form => {
                let set = set_name(level);
                return Refusal::new(
                    404,
                    format!("{set} contains a vertex outside factor {factor}"),
                )
                .answer(body);
            }
            Err(e) => {
                return Refusal::new(404, format!("community sets rejected: {e}")).answer(body)
            }
        };
        let density = if self.pair_form {
            let prod = pair_product(&self.chain);
            let (a, b) = (prod.factor_a(), prod.factor_b());
            // Cor 1–2 need the factor bipartitions (community sides).
            match (bipartition(a), bipartition(b)) {
                (Some(bip_a), Some(bip_b)) => {
                    let com_a = FactorCommunity::measure(a, &bip_a, &sets[0]);
                    let com_b = FactorCommunity::measure(b, &bip_b, &sets[1]);
                    product_community(&prod, &com_a, &com_b, &bip_a, &bip_b)
                }
                _ => None,
            }
        } else {
            None
        };
        json_answer(body, 200, |w| {
            w.open_object();
            w.string_field("theorem", "thm7");
            w.u64_field("size", truth.size);
            w.u64_field("m_in", truth.m_in);
            w.u64_field("m_out", truth.m_out);
            for (key, value) in [
                ("rho_in", density.as_ref().and_then(|d| d.rho_in)),
                (
                    "rho_in_lower_bound",
                    density.as_ref().and_then(|d| d.rho_in_lower_bound),
                ),
                (
                    "rho_out_upper_bound",
                    density.as_ref().and_then(|d| d.rho_out_upper_bound),
                ),
            ] {
                match value {
                    Some(v) => w.f64_field(key, v),
                    None => w.null_field(key),
                }
            }
            w.close_object();
        })
    }

    /// `GET /v1/scatter/degree-squares?offset&limit&format=json|csv`: the
    /// Fig. 5 export — one `(vertex, degree, squares)` row per product
    /// vertex, paged under the same [`MAX_LIMIT`] bound as every other
    /// endpoint so the sublinear-memory contract holds.
    fn scatter_degree_squares(&self, req: &Request, body: &mut String) -> Answer {
        let (offset, limit) = match parse_page(req) {
            Ok(v) => v,
            Err(refusal) => return refusal.answer(body),
        };
        let n = self.num_vertices() as u64;
        let start = offset.min(n);
        let end = n.min(offset.saturating_add(limit as u64));
        let row = |p: u64| {
            let truth = self.chain.vertex_at(p as usize);
            (truth.degree, truth.squares)
        };
        match req.query_param("format") {
            None | Some("json") => json_answer(body, 200, |w| {
                w.open_object();
                w.u64_field("offset", offset);
                w.u64_field("count", end - start);
                if end < n && end > start {
                    w.u64_field("next_offset", end);
                } else {
                    w.null_field("next_offset");
                }
                w.key("rows");
                w.open_array();
                for p in start..end {
                    let (d, s) = row(p);
                    w.array_element();
                    w.open_array();
                    w.u64_element(p);
                    w.u64_element(d);
                    w.u64_element(s);
                    w.close_array();
                }
                w.close_array();
                w.close_object();
            }),
            Some("csv") => {
                body.push_str("vertex,degree,squares\n");
                for p in start..end {
                    let (d, s) = row(p);
                    for (value, sep) in [(p, ','), (d, ','), (s, '\n')] {
                        push_u64(body, value);
                        body.push(sep);
                    }
                }
                Answer {
                    status: 200,
                    content_type: CSV_TYPE,
                }
            }
            Some(other) => {
                Refusal::new(400, format!("unknown scatter format {other:?} (json|csv)"))
                    .answer(body)
            }
        }
    }

    fn metrics_endpoint(&self, req: &Request, body: &mut String) -> Answer {
        // uptime_ms lets scrapers derive the cumulative (since-boot)
        // request rate without a second endpoint.
        let obs = bikron_obs::global();
        obs.gauge("serve.uptime_ms")
            .set(self.started.elapsed().as_millis() as u64);
        // Mirror the per-instance trace/log loss counters into the
        // report so dropped telemetry is observable (monitor flags them
        // when nonzero) instead of only being countable in principle.
        obs.gauge("serve.trace.seen").set(self.spans.seen());
        obs.gauge("serve.trace.captured").set(self.spans.captured());
        obs.gauge("serve.trace.dropped_spans")
            .set(self.spans.dropped_spans());
        obs.gauge("serve.log.dropped_lines")
            .set(self.logger.as_ref().map_or(0, EventLogger::dropped));
        let mut report = self.transport.report();
        report.set_meta("tool", "bikron-serve");
        report.set_meta("endpoint", "/metrics");
        // Ride the cumulative profile along when a sampler is running,
        // so `--metrics-out` files and scrapes carry attribution too.
        let prof = bikron_obs::profile::profiler();
        if prof.sampler_hz() > 0 {
            report.set_profile(prof.snapshot());
        }
        metrics_response(req, report, &[], body)
    }

    /// `GET /v1/health`: readiness plus windowed SLO signals. `degraded`
    /// when any window that saw traffic violates either threshold.
    fn health(&self, body: &mut String) -> Answer {
        let requests = self.transport.requests().snapshot();
        let errors = self.transport.errors().snapshot();
        let latency = self.transport.request_ns().snapshot();
        let windows = [
            ("1m", requests.w1m, errors.w1m, latency.w1m),
            ("5m", requests.w5m, errors.w5m, latency.w5m),
        ];
        // Pre-pass: evaluate every window so `status` can lead the body.
        let rows: Vec<_> = windows
            .into_iter()
            .map(|(label, req, err, lat)| {
                let err_pct = (err.count * 100).checked_div(req.count).unwrap_or(0);
                let p99_ms = lat.p99 / 1_000_000;
                let ok =
                    req.count == 0 || (err_pct <= self.slo_err_pct && p99_ms <= self.slo_p99_ms);
                (label, req, err, err_pct, p99_ms, ok)
            })
            .collect();
        let degraded = rows.iter().any(|&(.., ok)| !ok);

        json_answer(body, 200, |w| {
            w.open_object();
            w.string_field("status", if degraded { "degraded" } else { "ok" });
            w.u64_field("uptime_ms", self.started.elapsed().as_millis() as u64);
            w.key("slo");
            w.open_object();
            w.u64_field("p99_ms", self.slo_p99_ms);
            w.u64_field("err_pct", self.slo_err_pct);
            w.close_object();
            w.key("windows");
            w.open_object();
            for (label, req, err, err_pct, p99_ms, ok) in rows {
                w.key(label);
                w.open_object();
                w.u64_field("requests", req.count);
                w.u64_field("rate_per_sec", req.rate_per_sec);
                w.u64_field("errors_5xx", err.count);
                w.u64_field("err_pct", err_pct);
                w.u64_field("p99_ms", p99_ms);
                w.bool_field("ok", ok);
                w.close_object();
            }
            w.close_object();
            w.close_object();
        })
    }

    /// `GET /v1/admin/stall?ms=N` (token-gated): sleep `N` ms inside the
    /// request path. The debug lever behind the ISSUE's injected-stall
    /// test — latency recorded for this request spikes the windowed p99
    /// so `/v1/health` demonstrably flips to `degraded`.
    fn stall_endpoint(&self, req: &Request, body: &mut String) -> Answer {
        if let Err(refusal) = check_admin(self.admin_token.as_deref(), req) {
            return refusal.answer(body);
        }
        let ms: u64 = match req.query_param("ms").map(str::parse) {
            Some(Ok(v)) => v,
            _ => return Refusal::new(400, "stall requires ?ms=N").answer(body),
        };
        let ms = ms.min(MAX_STALL_MS);
        std::thread::sleep(std::time::Duration::from_millis(ms));
        json_answer(body, 200, |w| {
            w.open_object();
            w.u64_field("stalled_ms", ms);
            w.close_object();
        })
    }

    /// `GET /v1/admin/traces[?min_ms=N]` (token-gated): the captured
    /// span trees, newest first, plus the sink's policy and counters —
    /// what `bikron trace` renders as waterfalls.
    fn traces_endpoint(&self, req: &Request, body: &mut String) -> Answer {
        if let Err(refusal) = check_admin(self.admin_token.as_deref(), req) {
            return refusal.answer(body);
        }
        let min_ms: u64 = match req.query_param("min_ms").map(str::parse) {
            None => 0,
            Some(Ok(v)) => v,
            Some(Err(_)) => return Refusal::new(400, "min_ms must be an integer").answer(body),
        };
        let traces = self.spans.snapshot(min_ms.saturating_mul(1_000_000));
        json_answer(body, 200, |w| {
            w.open_object();
            w.string_field("schema", "bikron-traces/1");
            w.bool_field("enabled", self.spans.enabled());
            w.u64_field("slow_ms", self.spans.slow_ms());
            w.u64_field("seen", self.spans.seen());
            w.u64_field("captured", self.spans.captured());
            w.u64_field("dropped_spans", self.spans.dropped_spans());
            w.u64_field("count", traces.len() as u64);
            w.key("traces");
            w.open_array();
            for t in &traces {
                w.array_element();
                t.write_json(w);
            }
            w.close_array();
            w.close_object();
        })
    }

    /// `GET /v1/admin/profile[?seconds=N][&format=folded]` (token-gated):
    /// a sample-on-demand window over the process-wide continuous
    /// profiler. See [`profile_response`] for the contract.
    fn profile_endpoint(&self, req: &Request, body: &mut String) -> Answer {
        match check_admin(self.admin_token.as_deref(), req) {
            Ok(()) => profile_response(req, body),
            Err(refusal) => refusal.answer(body),
        }
    }

    /// Block until all published access-log events are on disk (tests
    /// and orderly shutdown).
    pub fn flush_logs(&self) {
        if let Some(logger) = &self.logger {
            logger.flush();
        }
    }

    fn shutdown_endpoint(&self, req: &Request, body: &mut String) -> Answer {
        if let Err(refusal) = check_admin(self.admin_token.as_deref(), req) {
            return refusal.answer(body);
        }
        self.request_shutdown();
        json_answer(body, 200, |w| {
            w.open_object();
            w.bool_field("shutting_down", true);
            w.close_object();
        })
    }
}

/// Answer with the keyed body a `*_into` renderer wrote onto `body`,
/// ended with its newline, or with the refusal it returned instead.
fn keyed_answer(body: &mut String, rendered: Result<(), Refusal>) -> Answer {
    match rendered {
        Ok(()) => {
            body.push('\n');
            Answer::json(200)
        }
        Err(refusal) => refusal.answer(body),
    }
}

/// Append the decimal digits of `value` to `out`.
fn push_u64(out: &mut String, value: u64) {
    let mut buf = [0u8; 20];
    let digits = bikron_obs::json::u64_digits(value, &mut buf);
    out.extend(digits.iter().map(|&d| char::from(d)));
}

/// Append `value`'s digits, or `null` for `None`.
fn push_u64_or_null(out: &mut String, value: Option<u64>) {
    match value {
        Some(v) => push_u64(out, v),
        None => out.push_str("null"),
    }
}

/// An array of integers that is the value of a top-level member of a
/// keyed answer, written in [`JsonWriter`]'s layout: one element per
/// line, indented two levels, and `[]` when empty.
struct IntArray<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> IntArray<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('[');
        IntArray { out, empty: true }
    }

    fn push(&mut self, value: u64) {
        self.out
            .push_str(if self.empty { "\n    " } else { ",\n    " });
        self.empty = false;
        push_u64(self.out, value);
    }

    fn close(self) {
        self.out.push_str(if self.empty { "]" } else { "\n  ]" });
    }
}

/// Parse a vertex index; 400 on malformed input, 404 on out-of-range.
fn parse_index(raw: &str, n: usize) -> Result<usize, Refusal> {
    let p: usize = raw
        .parse()
        .map_err(|_| Refusal::new(400, format!("not a vertex index: {raw:?}")))?;
    check_range(p, n)?;
    Ok(p)
}

/// 404 for an index beyond the product — the shared range gate for the
/// path-segment and batch entry points.
fn check_range(p: usize, n: usize) -> Result<(), Refusal> {
    if p >= n {
        return Err(Refusal::new(
            404,
            format!("vertex {p} out of range (product has {n} vertices)"),
        ));
    }
    Ok(())
}

/// Parse `offset` / `limit` query params with defaults and the MAX_LIMIT
/// cap.
fn parse_page(req: &Request) -> Result<(u64, usize), Refusal> {
    let offset = match req.query_param("offset") {
        None => 0,
        Some(raw) => raw
            .parse()
            .map_err(|_| Refusal::new(400, format!("bad offset {raw:?}")))?,
    };
    let limit = match req.query_param("limit") {
        None => DEFAULT_LIMIT,
        Some(raw) => {
            let l: usize = raw
                .parse()
                .map_err(|_| Refusal::new(400, format!("bad limit {raw:?}")))?;
            if l > MAX_LIMIT {
                return Err(Refusal::new(
                    400,
                    format!("limit {l} exceeds the cap of {MAX_LIMIT}"),
                ));
            }
            l
        }
    };
    Ok((offset, limit))
}

/// Parse a comma-separated factor-vertex set (`?a=0,2,5`). Bounded at
/// [`MAX_LIMIT`] members so a community query obeys the same per-request
/// memory cap as a page. Sorted and deduplicated on return.
fn parse_id_list(name: &str, raw: &str) -> Result<Vec<usize>, Refusal> {
    let mut out = Vec::new();
    for piece in raw.split(',').filter(|s| !s.is_empty()) {
        let v: usize = piece
            .parse()
            .map_err(|_| Refusal::new(400, format!("{name} has a non-integer id {piece:?}")))?;
        out.push(v);
        if out.len() > MAX_LIMIT {
            return Err(Refusal::new(
                400,
                format!("{name} exceeds the {MAX_LIMIT}-member cap"),
            ));
        }
    }
    if out.is_empty() {
        return Err(Refusal::new(400, format!("{name} is an empty set")));
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// A pair server's chain as the two-factor product it spells: level 0's
/// factor as `A` (lifted under [`SelfLoopMode::FactorA`]), level 1's as
/// `B`. O(1) over factors the chain already validated.
fn pair_product(chain: &KronChain) -> KroneckerProduct<'_> {
    let (_, a, lifted) = chain.level_info(0);
    let (_, b, _) = chain.level_info(1);
    let mode = if lifted {
        SelfLoopMode::FactorA
    } else {
        SelfLoopMode::None
    };
    KroneckerProduct::new(a, b, mode).expect("the chain validated both factors")
}

/// Build a pair server's cached Table-I-style `/v1/stats` body.
fn pair_stats_body(chain: &KronChain) -> Result<String, Box<dyn std::error::Error>> {
    let prod = pair_product(chain);
    let st = predict_structure(&prod);
    let hist = bikron_core::truth::degrees::degree_histogram(&prod);
    let mut w = JsonWriter::new();
    w.open_object();
    w.string_field("schema", "bikron-serve/1");
    w.key("metrics_schemas");
    w.open_array();
    for schema in [
        bikron_obs::SCHEMA_V1,
        bikron_obs::SCHEMA_V2,
        bikron_obs::SCHEMA_V3,
        bikron_obs::SCHEMA,
    ] {
        w.string_element(schema);
    }
    w.close_array();
    w.string_field(
        "mode",
        match prod.mode() {
            SelfLoopMode::None => "none",
            SelfLoopMode::FactorA => "loops-a",
        },
    );
    w.string_field("expr", chain.canonical());
    for (key, g) in [("factor_a", prod.factor_a()), ("factor_b", prod.factor_b())] {
        w.key(key);
        w.open_object();
        w.u64_field("vertices", g.num_vertices() as u64);
        w.u64_field("edges", g.num_edges() as u64);
        w.close_object();
    }
    w.u64_field("vertices", prod.num_vertices() as u64);
    w.u64_field("edges", prod.num_edges());
    w.bool_field("bipartite", st.bipartite);
    match st.parts {
        Some((u, wn)) => {
            w.u64_field("part_u", u as u64);
            w.u64_field("part_w", wn as u64);
        }
        None => {
            w.null_field("part_u");
            w.null_field("part_w");
        }
    }
    w.bool_field("connected", st.connected);
    match st.num_components {
        Some(c) => w.u64_field("components", c as u64),
        None => w.null_field("components"),
    }
    w.u64_field(
        "global_squares",
        global_squares_with(&prod, chain.level_stats(0), chain.level_stats(1))?,
    );
    w.u64_field("max_degree", bikron_core::truth::degrees::max_degree(&prod));
    w.u64_field("distinct_degrees", hist.len() as u64);
    w.close_object();
    Ok(w.finish())
}

/// The `/v1/stats` body for an expression server: the canonicalised
/// program, one entry per level, and the chained global counts. The
/// pair-only structure predictions (bipartiteness, connectivity — Thms
/// 1–2 are two-factor statements) are intentionally absent.
fn stats_body_chain(chain: &KronChain) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.string_field("schema", "bikron-serve/1");
    w.key("metrics_schemas");
    w.open_array();
    for schema in [
        bikron_obs::SCHEMA_V1,
        bikron_obs::SCHEMA_V2,
        bikron_obs::SCHEMA_V3,
        bikron_obs::SCHEMA,
    ] {
        w.string_element(schema);
    }
    w.close_array();
    w.string_field("expr", chain.canonical());
    w.key("levels");
    w.open_array();
    for i in 0..chain.num_levels() {
        let (name, g, plus_identity) = chain.level_info(i);
        w.array_element();
        w.open_object();
        w.string_field("name", name);
        w.u64_field("vertices", g.num_vertices() as u64);
        w.u64_field("edges", g.num_edges() as u64);
        w.bool_field("plus_identity", plus_identity);
        w.close_object();
    }
    w.close_array();
    w.u64_field("vertices", chain.num_vertices() as u64);
    w.u64_field("edges", chain.num_edges());
    w.u64_field("global_squares", chain.global_squares());
    w.u64_field("max_degree", chain.max_degree());
    w.close_object();
    w.finish()
}

/// The admin gate of every bikron server: `req` must present `token`
/// as `?token=` or `x-admin-token`. `None` (no `--admin-token`)
/// disables the admin endpoints. The refusal is a 403 naming which.
pub fn check_admin(token: Option<&str>, req: &Request) -> Result<(), Refusal> {
    let Some(expected) = token else {
        return Err(Refusal::new(
            403,
            "admin endpoints are disabled; restart with --admin-token",
        ));
    };
    let presented = req
        .query_param("token")
        .or_else(|| req.header("x-admin-token"));
    if presented != Some(expected) {
        return Err(Refusal::new(403, "missing or invalid admin token"));
    }
    Ok(())
}

/// Answer `GET /metrics[?format=json|prometheus]` with `report` onto
/// `body`: the one format switch of every bikron server. The router
/// passes one scrape per replica in `shards` (`None` for a replica that
/// gave none); each is merged under the prefix `shard{i}.` into the
/// JSON report, or follows the server's own series in the Prometheus
/// exposition with a `shard="i"` label. Replica series
/// (`bikron_serve_*`) are disjoint from the router's own
/// (`bikron_router_*`), so the labelled families need no second `TYPE`
/// line; replica meta is dropped, since a second `bikron_report_info`
/// would be one. Any other format is a 400 naming it.
pub fn metrics_response(
    req: &Request,
    mut report: Report,
    shards: &[Option<Report>],
    body: &mut String,
) -> Answer {
    match req.query_param("format") {
        None | Some("json") => {
            for (index, shard) in shards.iter().enumerate() {
                if let Some(shard) = shard {
                    report.merge_prefixed(&format!("shard{index}."), shard);
                }
            }
            body.push_str(&report.to_json());
            Answer::json(200)
        }
        Some("prometheus") => {
            body.push_str(&bikron_obs::prom::to_prometheus(&report));
            let labelled: Vec<(String, &Report)> = shards
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((format!("shard=\"{i}\""), r.as_ref()?)))
                .collect();
            bikron_obs::prom::write_families(body, &labelled);
            Answer {
                status: 200,
                content_type: PROMETHEUS_TYPE,
            }
        }
        Some(other) => Refusal::new(
            400,
            format!("unknown metrics format {other:?} (json|prometheus)"),
        )
        .answer(body),
    }
}

/// Answer a (pre-authorised) `/v1/admin/profile` request against the
/// process-wide sampling profiler onto `body`. Shared by the serve
/// process and the cluster router, which gate it behind their own admin
/// tokens.
///
/// `?seconds=N` (capped at [`MAX_PROFILE_SECONDS`], default 0) scopes
/// the profile to an on-demand window: snapshot, sleep N seconds while
/// the sampler keeps running, snapshot again, return the difference.
/// `seconds=0` returns the cumulative profile since the sampler started.
/// `?format=folded` returns flamegraph-ready folded text instead of the
/// `bikron-profile/1` JSON (collapsed stacks plus a per-frame
/// self-vs-cumulative split). Answers 409 when no sampler is running —
/// the process was started with `--profile-hz 0`.
pub fn profile_response(req: &Request, body: &mut String) -> Answer {
    let prof = bikron_obs::profile::profiler();
    if prof.sampler_hz() == 0 {
        return Refusal::new(
            409,
            "profiling is disabled; restart with --profile-hz N (default 99)",
        )
        .answer(body);
    }
    let seconds: u64 = match req.query_param("seconds").map(str::parse) {
        None => 0,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Refusal::new(400, "seconds must be an integer").answer(body),
    };
    let seconds = seconds.min(MAX_PROFILE_SECONDS);
    let snap = if seconds == 0 {
        prof.snapshot()
    } else {
        let base = prof.snapshot();
        std::thread::sleep(std::time::Duration::from_secs(seconds));
        prof.snapshot().since(&base)
    };
    match req.query_param("format") {
        Some("folded") => {
            body.push_str(&snap.to_folded());
            Answer {
                status: 200,
                content_type: FOLDED_TYPE,
            }
        }
        None | Some("json") => json_answer(body, 200, |w| {
            w.open_object();
            w.string_field("schema", bikron_obs::profile::PROFILE_SCHEMA);
            w.u64_field("hz", snap.hz);
            w.u64_field("seconds", seconds);
            w.u64_field("samples", snap.samples);
            w.u64_field("dropped_samples", snap.dropped);
            w.u64_field("idle_samples", snap.idle);
            w.key("stacks");
            w.open_object();
            for (stack, count) in &snap.stacks {
                w.u64_field(stack, *count);
            }
            w.close_object();
            w.key("frames");
            w.open_object();
            for (path, stat) in bikron_obs::profile::frame_totals(&snap.stacks) {
                w.key(&path);
                w.open_object();
                w.u64_field("self", stat.self_samples);
                w.u64_field("total", stat.total);
                w.close_object();
            }
            w.close_object();
            w.close_object();
        }),
        Some(other) => Refusal::new(
            400,
            format!("unknown profile format {other:?} (json|folded)"),
        )
        .answer(body),
    }
}

/// The serve side of the transport loop: span trees and the access log
/// are serve-only bookkeeping.
impl Handler for ServeState {
    /// Each request of the burst is answered on its own, as
    /// [`ServeState::answer`] answers it.
    fn respond(&self, burst: &mut [Exchange]) {
        for x in burst {
            x.answer = self.answer(&x.req, &mut x.body);
        }
    }

    fn transport(&self) -> &Transport {
        &self.transport
    }

    fn spans(&self) -> Option<&SpanSink> {
        Some(&self.spans)
    }

    /// One access-log event per request (no-op without `--access-log`).
    /// The trace id makes every access line joinable against captured
    /// span trees and upstream traces.
    fn log_access(
        &self,
        req: Option<&Request>,
        status: u16,
        latency_ns: u64,
        bytes: u64,
        trace_id: &str,
    ) {
        let Some(logger) = &self.logger else {
            return;
        };
        let (method, shape) = request_shape(req, status);
        logger.publish(
            LogEvent::new("access")
                .field("method", method)
                .field("path", shape.as_str())
                .field("status", status as u64)
                .field("latency_ns", latency_ns)
                .field("bytes", bytes)
                .field("trace_id", trace_id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_core::truth::clustering::{product_gamma, scaling_law_at};
    use bikron_core::truth::squares_edge::edge_squares_at;
    use bikron_core::truth::squares_vertex::vertex_squares_at;
    use bikron_core::truth::FactorStats;
    use bikron_generators::{complete_bipartite, crown, cycle};

    /// Record one answered request, as the pool's flush does.
    fn record(st: &ServeState, status: u16, bytes: u64, ns: u64) {
        let mut tally = crate::pool::RequestTally::default();
        tally.add(status, bytes, ns);
        st.transport().record(&tally);
    }

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    fn state() -> ServeState {
        ServeState::build(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            Some("sesame".into()),
        )
        .unwrap()
    }

    #[test]
    fn vertex_response_is_byte_exact() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        for p in 0..prod.num_vertices() {
            let resp = st.handle(&get(&format!("/v1/vertex/{p}")));
            assert_eq!(resp.status, 200);
            let (i, k) = prod.indexer().split(p);
            let expect = format!(
                "{{\n  \"vertex\": {p},\n  \"alpha\": {i},\n  \"beta\": {k},\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p),
            );
            assert_eq!(resp.body, expect);
        }
    }

    #[test]
    fn vertex_error_statuses() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/vertex/banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/vertex/25")).status, 404);
        assert_eq!(st.handle(&get("/v1/vertex/24")).status, 200);
        assert_eq!(st.handle(&get("/v2/vertex/1")).status, 404);
    }

    #[test]
    fn edge_matches_ground_truth_both_ways() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let g = prod.materialize();
        for p in 0..g.num_vertices() {
            for q in 0..g.num_vertices() {
                let resp = st.handle(&get(&format!("/v1/edge/{p}/{q}")));
                assert_eq!(resp.status, 200);
                if g.has_edge(p, q) {
                    let s = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
                    assert!(resp.body.contains("\"edge\": true"), "({p},{q})");
                    assert!(resp.body.contains(&format!("\"squares\": {s}")));
                } else {
                    assert!(resp.body.contains("\"edge\": false"), "({p},{q})");
                    assert!(resp.body.contains("\"squares\": null"));
                }
            }
        }
    }

    #[test]
    fn neighbors_pages_cover_degree() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let g = prod.materialize();
        let p = 7;
        let mut collected: Vec<usize> = Vec::new();
        let mut offset = 0;
        loop {
            let resp = st.handle(&get(&format!("/v1/neighbors/{p}?offset={offset}&limit=2")));
            assert_eq!(resp.status, 200);
            let body = &resp.body;
            let inside = body
                .split("\"neighbors\": [")
                .nth(1)
                .unwrap()
                .split(']')
                .next()
                .unwrap();
            let page: Vec<usize> = inside
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            if page.is_empty() {
                break;
            }
            offset += page.len();
            collected.extend(page);
            if body.contains("\"next_offset\": null") {
                break;
            }
        }
        assert_eq!(collected, g.neighbors(p));
    }

    #[test]
    fn neighbors_limit_cap_enforced() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/neighbors/0?limit=10001")).status, 400);
        assert_eq!(st.handle(&get("/v1/neighbors/0?limit=banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/neighbors/0?offset=-1")).status, 400);
    }

    #[test]
    fn edges_pages_are_resumable_and_complete() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let mut collected = 0u64;
        for part in 0..3 {
            let mut offset = 0u64;
            loop {
                let resp = st.handle(&get(&format!("/v1/edges/{part}/3?offset={offset}&limit=7")));
                assert_eq!(resp.status, 200);
                let count: u64 = resp
                    .body
                    .split("\"count\": ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                collected += count;
                offset += count;
                if resp.body.contains("\"next_offset\": null") {
                    break;
                }
            }
        }
        assert_eq!(collected, prod.num_edges());
    }

    #[test]
    fn edges_validation() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/edges/0/0")).status, 400);
        assert_eq!(st.handle(&get("/v1/edges/3/3")).status, 400);
        assert_eq!(st.handle(&get("/v1/edges/0/1")).status, 200);
        assert_eq!(
            st.handle(&get(&format!("/v1/edges/0/{}", MAX_PARTS + 1)))
                .status,
            400
        );
    }

    #[test]
    fn annotated_edges_match_truth() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let resp = st.handle(&get("/v1/edges/0/1?limit=5&annotate=1"));
        assert_eq!(resp.status, 200);
        let stream = EdgeStream::new(&st.chain, 1);
        for (n, (p, q)) in stream.edges_page(0, 0, 5).into_iter().enumerate() {
            let s = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
            let row = format!(
                "[\n      {p},\n      {q},\n      {},\n      {},\n      {s}\n    ]",
                prod.degree(p),
                prod.degree(q)
            );
            assert!(resp.body.contains(&row), "row {n}: missing {row:?}");
        }
    }

    #[test]
    fn stats_is_cached_and_consistent() {
        let st = state();
        let r1 = st.handle(&get("/v1/stats"));
        let r2 = st.handle(&get("/v1/stats"));
        assert_eq!(r1, r2);
        assert!(r1.body.contains("\"vertices\": 25"));
        assert!(r1.body.contains("\"edges\": 60"));
        assert!(r1.body.contains("\"bipartite\": true"));
        assert!(r1.body.contains("\"global_squares\": "));
    }

    #[test]
    fn metrics_endpoint_returns_obs_report() {
        let st = state();
        // Record a request as the pool would, so the windowed series
        // carry a sample.
        record(&st, 200, 64, 1_000_000);
        let resp = st.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"schema\": \"bikron-obs/4\""));
        assert!(resp.body.contains("\"tool\": \"bikron-serve\""));
        assert!(resp.body.contains("\"windows\""));
        let parsed = bikron_obs::Report::from_json(&resp.body).unwrap();
        assert_eq!(parsed.meta("endpoint"), Some("/metrics"));
        // The windowed series ride the same report as the cumulative ones.
        let win = parsed.window("serve.request_ns").expect("windowed latency");
        assert!(win.w1m.count >= 1, "recorded request in the 1m window");
    }

    #[test]
    fn metrics_format_param_selects_prometheus() {
        let st = state();
        st.handle(&get("/v1/vertex/3"));
        let resp = st.handle(&get("/metrics?format=prometheus"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, PROMETHEUS_TYPE);
        bikron_obs::prom::check_exposition(&resp.body).expect("valid exposition");
        assert!(resp.body.contains("bikron_serve_requests"));
        // Satellite: live gauge and high-water mark export as distinct series.
        assert!(resp.body.contains("bikron_serve_inflight "));
        assert!(resp.body.contains("bikron_serve_inflight_peak "));

        assert_eq!(st.handle(&get("/metrics?format=json")).status, 200);
        assert_eq!(st.handle(&get("/metrics?format=xml")).status, 400);
    }

    #[test]
    fn stats_advertises_metrics_schemas() {
        let st = state();
        let resp = st.handle(&get("/v1/stats"));
        assert!(resp.body.contains("\"metrics_schemas\""));
        for schema in [
            "bikron-obs/1",
            "bikron-obs/2",
            "bikron-obs/3",
            "bikron-obs/4",
        ] {
            assert!(resp.body.contains(&format!("\"{schema}\"")), "{schema}");
        }
    }

    #[test]
    fn health_starts_ok_and_degrades_on_slo_breach() {
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                slo_p99_ms: 50,
                slo_err_pct: 10,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        // No traffic yet: windows are empty, which is healthy, not degraded.
        let resp = st.handle(&get("/v1/health"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

        // Fast, successful traffic stays ok.
        for _ in 0..10 {
            record(&st, 200, 100, 1_000_000); // 1ms
        }
        let resp = st.handle(&get("/v1/health"));
        assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

        // One 200ms outlier pushes windowed p99 past the 50ms SLO.
        record(&st, 200, 100, 200_000_000);
        let resp = st.handle(&get("/v1/health"));
        assert!(
            resp.body.contains("\"status\": \"degraded\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"ok\": false"));
    }

    #[test]
    fn health_degrades_on_error_budget_breach() {
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                slo_p99_ms: 10_000,
                slo_err_pct: 5,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        for _ in 0..9 {
            record(&st, 200, 100, 1_000_000);
        }
        assert!(st.handle(&get("/v1/health")).body.contains("\"ok\": true"));
        // 1 error in 10 requests = 10% > the 5% budget.
        record(&st, 500, 100, 1_000_000);
        let resp = st.handle(&get("/v1/health"));
        assert!(
            resp.body.contains("\"status\": \"degraded\""),
            "{}",
            resp.body
        );
    }

    #[test]
    fn stall_endpoint_is_token_gated_and_validated() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/admin/stall?ms=1")).status, 403);
        assert_eq!(
            st.handle(&get("/v1/admin/stall?ms=1&token=wrong")).status,
            403
        );
        assert_eq!(st.handle(&get("/v1/admin/stall?token=sesame")).status, 400);
        assert_eq!(
            st.handle(&get("/v1/admin/stall?ms=banana&token=sesame"))
                .status,
            400
        );
        let resp = st.handle(&get("/v1/admin/stall?ms=2&token=sesame"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"stalled_ms\": 2"));
    }

    #[test]
    fn profile_endpoint_is_token_gated_and_samples_on_demand() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/admin/profile")).status, 403);
        assert_eq!(st.handle(&get("/v1/admin/profile?token=wrong")).status, 403);
        // With no sampler running the endpoint must say so, not serve
        // zeros: a 409 Conflict, head and body.
        let refused_while_disabled = || {
            if bikron_obs::profile::profiler().sampler_hz() == 0 {
                let resp = st.handle(&get("/v1/admin/profile?token=sesame"));
                assert_eq!(resp.status, 409);
                assert!(resp.body.contains("profiling is disabled"));
                assert!(
                    resp.body.contains("\"status\": \"Conflict\""),
                    "{}",
                    resp.body
                );
                let mut head = Vec::new();
                crate::http::write_response(&mut head, &resp, false).unwrap();
                assert!(head.starts_with(b"HTTP/1.1 409 Conflict\r\n"));
            }
        };
        match bikron_obs::profile::start_sampler(500) {
            // No sampler could start (hz race with a concurrent test).
            None => refused_while_disabled(),
            Some(sampler) => {
                // Generate some attributable work, then read the
                // cumulative profile (seconds=0: no capture sleep).
                for _ in 0..50 {
                    st.handle(&get("/v1/vertex/3"));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let resp = st.handle(&get("/v1/admin/profile?token=sesame"));
                assert_eq!(resp.status, 200);
                assert!(resp.body.contains("\"schema\": \"bikron-profile/1\""));
                assert!(resp.body.contains("\"hz\": 500"));
                assert!(resp.body.contains("\"stacks\""));
                assert!(resp.body.contains("\"frames\""));
                let folded = st.handle(&get("/v1/admin/profile?token=sesame&format=folded"));
                assert_eq!(folded.status, 200);
                assert_eq!(folded.content_type, FOLDED_TYPE);
                assert_eq!(
                    st.handle(&get("/v1/admin/profile?token=sesame&format=svg"))
                        .status,
                    400
                );
                assert_eq!(
                    st.handle(&get("/v1/admin/profile?token=sesame&seconds=x"))
                        .status,
                    400
                );
                sampler.stop();
                refused_while_disabled();
            }
        }
    }

    #[test]
    fn path_shape_collapses_numeric_segments() {
        assert_eq!(path_shape("/v1/vertex/17"), "/v1/vertex/{n}");
        assert_eq!(path_shape("/v1/edge/0/13"), "/v1/edge/{n}/{n}");
        assert_eq!(path_shape("/v1/stats"), "/v1/stats");
        assert_eq!(path_shape("/"), "/");
        assert_eq!(path_shape(""), "/");
        assert_eq!(path_shape("/metrics"), "/metrics");
    }

    #[test]
    fn access_log_round_trips_through_file() {
        let path = std::env::temp_dir().join(format!(
            "bikron-serve-access-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let st = ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions {
                access_log: Some(path.display().to_string()),
                admin_token: Some("sesame".into()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        st.log_access(
            Some(&get("/v1/vertex/17")),
            200,
            1_234,
            99,
            "00f067aa0ba902b7deadbeefcafef00d",
        );
        st.log_access(None, 408, 5_678, 400, "0af7651916cd43dd8448eb211c80319c");
        st.flush_logs();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"target\": \"access\""));
        assert!(lines[0].contains("\"method\": \"GET\""));
        assert!(lines[0].contains("\"path\": \"/v1/vertex/{n}\""));
        assert!(lines[0].contains("\"trace_id\": \"00f067aa0ba902b7deadbeefcafef00d\""));
        assert!(lines[1].contains("\"method\": \"-\""));
        assert!(lines[1].contains("\"path\": \"timeout\""));
        assert!(lines[1].contains("\"trace_id\": \"0af7651916cd43dd8448eb211c80319c\""));
        assert!(lines.iter().all(|l| !l.contains("\"cache\"")), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_gating() {
        let st = state();
        assert!(!st.shutdown_requested());
        assert_eq!(st.handle(&get("/v1/shutdown")).status, 403);
        assert_eq!(st.handle(&get("/v1/shutdown?token=wrong")).status, 403);
        assert!(!st.shutdown_requested());
        let resp = st.handle(&get("/v1/shutdown?token=sesame"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"shutting_down\": true"));
        assert!(st.shutdown_requested());

        let no_admin = ServeState::build(crown(3), crown(3), SelfLoopMode::FactorA, None).unwrap();
        assert_eq!(
            no_admin.handle(&get("/v1/shutdown?token=sesame")).status,
            403
        );
    }

    #[test]
    fn batch_matches_singles() {
        let st = state();
        let singles: Vec<String> = vec![
            st.handle(&get("/v1/vertex/9")).body,
            st.handle(&get("/v1/edge/10/13")).body,
            st.handle(&get("/v1/neighbors/12?offset=1&limit=2")).body,
            st.handle(&get("/v1/vertex/999")).body, // embedded 404 body
            st.handle(&get("/v1/vertex/3")).body,
        ];
        let resp = st.handle(&post(
            "/v1/batch",
            "vertex 9\nedge 10 13\nneighbors 12 1 2\nvertex 999\nvertex 3\n",
        ));
        assert_eq!(resp.status, 200);
        let expected = format!(
            "[\n{}\n]\n",
            singles
                .iter()
                .map(|b| b.trim_end())
                .collect::<Vec<_>>()
                .join(",\n")
        );
        assert_eq!(resp.body, expected);
    }

    #[test]
    fn batch_requires_post_and_post_is_batch_only() {
        let st = state();
        assert_eq!(st.handle(&get("/v1/batch")).status, 405);
        assert_eq!(st.handle(&post("/v1/vertex/1", "")).status, 405);
        assert_eq!(st.handle(&post("/v1/stats", "x")).status, 405);
    }

    #[test]
    fn malformed_batch_is_400_with_line_index() {
        let st = state();
        let resp = st.handle(&post("/v1/batch", "vertex 1\nfrob 9\n"));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 1"), "{}", resp.body);
        let resp = st.handle(&post("/v1/batch", ""));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 0"));
        let resp = st.handle(&post("/v1/batch", "vertex \u{fffd}"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn header_token_accepted() {
        let st = state();
        let raw = "GET /v1/shutdown HTTP/1.1\r\nX-Admin-Token: sesame\r\n\r\n";
        let req = crate::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(st.handle(&req).status, 200);
    }

    /// `(A+I)⊗B` as an expression server — same program as the pair
    /// server in `FactorA` mode, so truth values must agree even though
    /// the backends differ.
    fn chain_state() -> ServeState {
        ServeState::build_expr(
            vec![
                ("A".into(), cycle(5)),
                ("B".into(), complete_bipartite(2, 3)),
            ],
            &[("A".into(), true), ("B".into(), false)],
            ServeOptions::default(),
        )
        .unwrap()
    }

    fn chain_truth() -> KronChain {
        KronChain::new(
            vec![
                ("A".into(), cycle(5)),
                ("B".into(), complete_bipartite(2, 3)),
            ],
            &[("A".into(), true), ("B".into(), false)],
        )
        .unwrap()
    }

    #[test]
    fn expr_vertex_reports_coords_and_matches_pair_truth() {
        let st = chain_state();
        let pair = ServeState::build(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            None,
        )
        .unwrap();
        let chain = chain_truth();
        for p in 0..chain.num_vertices() {
            let resp = st.handle(&get(&format!("/v1/vertex/{p}")));
            assert_eq!(resp.status, 200);
            let coords = chain.split(p);
            let expect = format!(
                "{{\n  \"vertex\": {p},\n  \"coords\": [\n    {},\n    {}\n  ],\n  \
                 \"degree\": {},\n  \"squares\": {}\n}}\n",
                coords[0],
                coords[1],
                chain.degree(p),
                chain.vertex_squares_at(p),
            );
            assert_eq!(resp.body, expect);
            // Same program as the pair server: numbers must agree.
            let pair_body = pair.handle(&get(&format!("/v1/vertex/{p}"))).body;
            let tail = |b: &str| b.split("\"degree\"").nth(1).map(str::to_owned).unwrap();
            assert_eq!(tail(&resp.body), tail(&pair_body), "vertex {p}");
        }
        assert_eq!(st.handle(&get("/v1/vertex/25")).status, 404);
    }

    #[test]
    fn expr_stats_reports_canonical_expression() {
        let pair = state();
        assert!(
            pair.handle(&get("/v1/stats"))
                .body
                .contains("\"expr\": \"A⊗B\""),
            "pair stats expr"
        );
        let st = chain_state();
        assert_eq!(st.expr(), "(A+I)⊗B");
        let resp = st.handle(&get("/v1/stats"));
        assert!(resp.body.contains("\"expr\": \"(A+I)⊗B\""), "{}", resp.body);
        assert!(resp.body.contains("\"levels\""));
        assert!(resp.body.contains("\"plus_identity\": true"));
        let chain = chain_truth();
        assert!(resp
            .body
            .contains(&format!("\"global_squares\": {}", chain.global_squares())));
    }

    #[test]
    fn expr_batch_matches_singles() {
        let st = chain_state();
        let singles: Vec<String> = vec![
            st.handle(&get("/v1/vertex/7")).body,
            st.handle(&get("/v1/edge/0/2")).body,
            st.handle(&get("/v1/neighbors/7?offset=1&limit=2")).body,
        ];
        let resp = st.handle(&post("/v1/batch", "vertex 7\nedge 0 2\nneighbors 7 1 2\n"));
        assert_eq!(resp.status, 200);
        let expected = format!(
            "[\n{}\n]\n",
            singles
                .iter()
                .map(|b| b.trim_end())
                .collect::<Vec<_>>()
                .join(",\n")
        );
        assert_eq!(resp.body, expected);
    }

    #[test]
    fn clustering_matches_truth_and_validates() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let g = prod.materialize();
        for p in 0..g.num_vertices() {
            for q in 0..g.num_vertices() {
                let resp = st.handle(&get(&format!("/v1/clustering/{p}/{q}")));
                assert_eq!(resp.status, 200);
                if g.has_edge(p, q) {
                    assert!(resp.body.contains("\"edge\": true"), "({p},{q})");
                    match product_gamma(&prod, &sa, &sb, p, q) {
                        Some(v) => {
                            assert!(resp.body.contains(&format!("\"gamma\": {v}")), "({p},{q})")
                        }
                        None => assert!(resp.body.contains("\"gamma\": null")),
                    }
                    match scaling_law_at(&prod, &sa, &sb, p, q) {
                        Some(s) => {
                            assert!(resp.body.contains(&format!("\"bound\": {}", s.bound)));
                            assert!(resp.body.contains(&format!("\"psi\": {}", s.psi)));
                        }
                        None => assert!(resp.body.contains("\"bound\": null")),
                    }
                } else {
                    assert!(resp.body.contains("\"edge\": false"), "({p},{q})");
                    assert!(resp.body.contains("\"squares\": null"));
                    assert!(resp.body.contains("\"gamma\": null"));
                }
            }
        }
        assert_eq!(st.handle(&get("/v1/clustering/0/banana")).status, 400);
        assert_eq!(st.handle(&get("/v1/clustering/0/25")).status, 404);
        assert_eq!(st.handle(&get("/v1/clustering/25/0")).status, 404);
    }

    #[test]
    fn clustering_chain_bound_present_only_when_thm6_applies() {
        // Bare chain of degree-≥2 factors: Thm 6 hypotheses hold, so an
        // edge must carry a non-null bound ≤ gamma.
        let bare = ServeState::build_expr(
            vec![("A".into(), cycle(3)), ("B".into(), cycle(4))],
            &[("A".into(), false), ("B".into(), false)],
            ServeOptions::default(),
        )
        .unwrap();
        // cycle(3)⊗cycle(4): (0,0)–(1,1) is an edge, i.e. 0–5.
        let resp = bare.handle(&get("/v1/clustering/0/5"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"edge\": true"), "{}", resp.body);
        assert!(!resp.body.contains("\"gamma\": null"), "{}", resp.body);
        assert!(!resp.body.contains("\"bound\": null"), "{}", resp.body);

        // A lifted level breaks the hypotheses: bound/psi must be null.
        let lifted = chain_state();
        let resp = lifted.handle(&get("/v1/clustering/0/2"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"edge\": true"), "{}", resp.body);
        assert!(resp.body.contains("\"bound\": null"), "{}", resp.body);
        assert!(resp.body.contains("\"psi\": null"), "{}", resp.body);
    }

    #[test]
    fn community_pair_matches_brute_force() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let g = prod.materialize();
        let set_a = [0usize, 1, 3];
        let set_b = [0usize, 2, 4];
        let member = |p: usize| {
            let (i, k) = prod.indexer().split(p);
            set_a.contains(&i) && set_b.contains(&k)
        };
        let (mut m_in, mut m_out) = (0u64, 0u64);
        for p in 0..g.num_vertices() {
            if !member(p) {
                continue;
            }
            for &q in g.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        m_in /= 2;
        let resp = st.handle(&get("/v1/community?a=0,1,3&b=0,2,4"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"size\": 9"), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"m_in\": {m_in}")),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains(&format!("\"m_out\": {m_out}")),
            "{}",
            resp.body
        );
        // cycle(5) is an odd cycle — no bipartition, so Cor 1–2 are null.
        assert!(resp.body.contains("\"rho_in\": null"));
    }

    #[test]
    fn community_pair_reports_density_on_bipartite_factors() {
        let st = ServeState::build(crown(3), crown(3), SelfLoopMode::None, None).unwrap();
        // Sets straddling both sides of each crown's bipartition.
        let resp = st.handle(&get("/v1/community?a=0,3&b=1,2,4"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"theorem\": \"thm7\""));
        assert!(!resp.body.contains("\"rho_in\": null"), "{}", resp.body);
    }

    /// `path` answers `status` with the error body for `detail`.
    fn assert_error(st: &ServeState, path: &str, status: u16, detail: &str) {
        let resp = st.handle(&get(path));
        assert_eq!(resp.status, status, "{path}");
        assert_eq!(resp.body, Response::error(status, detail).body, "{path}");
    }

    #[test]
    fn community_validation_statuses() {
        let st = state();
        let usage = "community requires ?a=<ids>&b=<ids> (comma-separated factor vertices)";
        assert_error(&st, "/v1/community", 400, usage);
        assert_error(&st, "/v1/community?a=0,1", 400, usage);
        assert_error(
            &st,
            "/v1/community?a=zero&b=0",
            400,
            "a has a non-integer id \"zero\"",
        );
        assert_error(&st, "/v1/community?a=&b=0", 400, "a is an empty set");
        assert_error(
            &st,
            "/v1/community?a=99&b=0",
            404,
            "a contains a vertex outside factor A",
        );
        assert_error(
            &st,
            "/v1/community?a=0&b=99",
            404,
            "b contains a vertex outside factor B",
        );
    }

    #[test]
    fn community_chain_matches_brute_force() {
        let st = chain_state();
        let chain = chain_truth();
        let g = chain.materialize();
        let s0 = [0usize, 2, 4];
        let s1 = [1usize, 3];
        let member = |p: usize| {
            let c = chain.split(p);
            s0.contains(&c[0]) && s1.contains(&c[1])
        };
        let (mut m_in, mut m_out) = (0u64, 0u64);
        for p in 0..g.num_vertices() {
            if !member(p) {
                continue;
            }
            for &q in g.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        m_in /= 2;
        let resp = st.handle(&get("/v1/community?s0=0,2,4&s1=1,3"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"size\": 6"), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"m_in\": {m_in}")),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains(&format!("\"m_out\": {m_out}")),
            "{}",
            resp.body
        );
        // Density corollaries are pair-only statements.
        assert!(resp.body.contains("\"rho_in\": null"));

        let usage = "community on a 2-level expression requires ?s0=…&s1=<ids>";
        assert_error(&st, "/v1/community?s0=0,2,4", 400, usage);
        assert_error(&st, "/v1/community?a=0&b=0", 400, usage);
        assert_error(
            &st,
            "/v1/community?s0=99&s1=0",
            404,
            "community sets rejected: level 0 set contains vertex 99, but factor 'A' has 5 \
             vertices",
        );
        assert_error(
            &st,
            "/v1/community?s0=0&s1=5",
            404,
            "community sets rejected: level 1 set contains vertex 5, but factor 'B' has 5 \
             vertices",
        );
    }

    #[test]
    fn scatter_pages_cover_all_vertices_and_match_truth() {
        let st = state();
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let mut rows = 0u64;
        let mut offset = 0u64;
        loop {
            let resp = st.handle(&get(&format!(
                "/v1/scatter/degree-squares?offset={offset}&limit=10"
            )));
            assert_eq!(resp.status, 200);
            let count: u64 = resp
                .body
                .split("\"count\": ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            rows += count;
            offset += count;
            if resp.body.contains("\"next_offset\": null") {
                break;
            }
        }
        assert_eq!(rows, 25);

        let csv = st.handle(&get("/v1/scatter/degree-squares?format=csv&limit=25"));
        assert_eq!(csv.status, 200);
        assert_eq!(csv.content_type, CSV_TYPE);
        let lines: Vec<&str> = csv.body.lines().collect();
        assert_eq!(lines[0], "vertex,degree,squares");
        assert_eq!(lines.len(), 26);
        for (p, line) in lines[1..].iter().enumerate() {
            let expect = format!(
                "{p},{},{}",
                prod.degree(p),
                vertex_squares_at(&prod, &sa, &sb, p)
            );
            assert_eq!(*line, expect);
        }

        assert_eq!(
            st.handle(&get("/v1/scatter/degree-squares?format=xml"))
                .status,
            400
        );
        assert_eq!(
            st.handle(&get("/v1/scatter/degree-squares?limit=10001"))
                .status,
            400
        );
    }

    #[test]
    fn scatter_chain_rows_match_chain_truth() {
        let st = chain_state();
        let chain = chain_truth();
        let csv = st.handle(&get("/v1/scatter/degree-squares?format=csv&limit=25"));
        assert_eq!(csv.status, 200);
        for (p, line) in csv.body.lines().skip(1).enumerate() {
            let expect = format!("{p},{},{}", chain.degree(p), chain.vertex_squares_at(p));
            assert_eq!(line, expect);
        }
    }
}
