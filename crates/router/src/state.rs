//! Router state: the relay of runs to replicas, and the three fan-outs
//! that remain: the startup handshake and the aggregated `/metrics` and
//! `/v1/health` views.
//!
//! The transport loop hands the router a client's pipelined burst at
//! once. Each maximal run of consecutive relayed requests in it goes, as
//! one run, to the next replica in round-robin order: written on one
//! pooled connection in one `write`, its answers read back in order,
//! verbatim, straight into the burst's answer bodies. Requests the
//! router answers itself (`/metrics`, `/v1/health`,
//! `/v1/admin/profile`, 404 and 405) keep their place between runs. The
//! requests of a run whose answers had not begun when its replica sent
//! nothing more go once, as one run, to the next replica (DESIGN.md
//! §13). A fan-out is one `gather` on the worker that read the request:
//! send to every replica, then read each answer in replica order. No
//! thread starts per request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bikron_obs::{flat_str_field, Counter, Gauge, Histogram, Registry, Report, TraceContext};
use bikron_serve::client::{self, ClientError};
use bikron_serve::http::{json_answer, Answer, Refusal, Request, Response, Route};
use bikron_serve::{
    check_admin, metrics_response, profile_response, without_snapshot_field, Exchange, Handler,
    Transport,
};

use crate::upstream::Upstream;

/// How long [`RouterState::connect`] keeps re-dialling a not-yet-up
/// replica before failing startup. Covers the "router launched in the
/// same script as its replicas" race without masking a truly absent one.
const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);
/// Pause between startup handshake attempts.
const CONNECT_RETRY_PAUSE: Duration = Duration::from_millis(250);

/// Behavioural knobs for [`RouterState::connect`]. Transport-level
/// knobs (bind address, pool size, queue) live in
/// [`ServerConfig`](bikron_serve::ServerConfig).
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Upstream TCP connect timeout.
    pub connect_timeout: Duration,
    /// Upstream read/write timeout: bounds how long one slow replica can
    /// pin a router worker before the request fails with a 503.
    pub upstream_timeout: Duration,
    /// Token gating the router's own admin endpoints
    /// (`/v1/admin/profile`); `None` disables them. Independent of the
    /// replicas' tokens: the router profiles *itself*, not its upstreams.
    pub admin_token: Option<String>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            connect_timeout: Duration::from_secs(1),
            upstream_timeout: Duration::from_secs(10),
            admin_token: None,
        }
    }
}

/// Per-replica verdict as seen from the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Replica reachable and reporting `"status": "ok"`.
    Ok,
    /// Replica reachable but reporting `"status": "degraded"`.
    Degraded,
    /// Replica unreachable (connect/read failure after the retry).
    Down,
}

impl ReplicaHealth {
    /// Stable string for JSON bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaHealth::Ok => "ok",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Down => "down",
        }
    }

    /// Gauge encoding (0 ok / 1 degraded / 2 down) for
    /// `router.shard{i}.health`.
    pub fn as_gauge(self) -> u64 {
        match self {
            ReplicaHealth::Ok => 0,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Down => 2,
        }
    }
}

/// Pre-resolved handles for the router's own series: the fan-out
/// (`router.fanout_size`), upstream (`router.upstream_ns`) and
/// per-replica ones. They live in the same **private** registry as the
/// router's [`Transport`] (a router process may share an address space
/// with serve states in tests; private registries keep their series
/// apart). Per-replica series keep their `router.shard{i}.*` names,
/// which `bikron monitor` and the benchmark read.
pub struct RouterMetrics {
    fanout_size: Arc<Histogram>,
    upstream_ns: Arc<Histogram>,
    replica_requests: Vec<Arc<Counter>>,
    replica_health: Vec<Arc<Gauge>>,
    load_imbalance: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &Registry, num_replicas: usize) -> Self {
        registry.gauge("router.shards").set(num_replicas as u64);
        RouterMetrics {
            fanout_size: registry.histogram("router.fanout_size"),
            upstream_ns: registry.histogram("router.upstream_ns"),
            replica_requests: (0..num_replicas)
                .map(|i| registry.counter(&format!("router.shard{i}.requests")))
                .collect(),
            replica_health: (0..num_replicas)
                .map(|i| registry.gauge(&format!("router.shard{i}.health")))
                .collect(),
            load_imbalance: registry.gauge("router.load_imbalance"),
        }
    }

    /// One upstream exchange with `replica` took `ns`, from its send to
    /// the end of its finish.
    fn record_upstream(&self, replica: usize, ns: u64) {
        self.upstream_ns.record(ns);
        self.replica_requests[replica].inc();
    }

    /// Recompute `router.load_imbalance` (max/mean percent, 100 =
    /// balanced) from the live per-replica request counters — the same
    /// [`bikron_core::partition::imbalance_pct`] arithmetic distsim
    /// publishes for simulated ranks.
    fn refresh_imbalance(&self) {
        let counts: Vec<u64> = self.replica_requests.iter().map(|c| c.get()).collect();
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
    replicas: Vec<Upstream>,
    upstream_timeout: Duration,
    admin_token: Option<String>,
    transport: Transport,
    metrics: RouterMetrics,
    started: Instant,
    /// Round-robin cursor: each relay starts at the next replica.
    rr: AtomicUsize,
}

impl RouterState {
    /// Connect to the replicas at `urls` and handshake them.
    ///
    /// Every replica's `/v1/stats` body must be byte-identical to
    /// replica 0's once the `"snapshot": "warm"|"cold"` member is
    /// removed ([`without_snapshot_field`]). The rest of the body is the
    /// program's identity, so this catches replicas serving different
    /// programs before the first client request, while a replica booted
    /// from a snapshot joins cold ones. Replicas still starting up are
    /// retried for a few seconds.
    pub fn connect(urls: &[String], options: RouterOptions) -> Result<RouterState, String> {
        if urls.is_empty() {
            return Err("need at least one replica URL".into());
        }
        let replicas: Vec<Upstream> = urls
            .iter()
            .map(|u| {
                parse_replica_url(u).map(|addr| {
                    Upstream::new(addr, options.connect_timeout, options.upstream_timeout)
                })
            })
            .collect::<Result<_, _>>()?;
        let deadline = Instant::now() + CONNECT_RETRY_WINDOW;
        let stats = loop {
            let answers: Result<Vec<client::Response>, String> =
                gather(&replicas, "/v1/stats", None)
                    .into_iter()
                    .zip(&replicas)
                    .enumerate()
                    .map(|(index, ((result, _), replica))| {
                        result.map_err(|e| {
                            format!("replica {index} ({}) is unreachable: {e}", replica.addr())
                        })
                    })
                    .collect();
            match answers {
                Ok(stats) => break stats,
                Err(_) if Instant::now() < deadline => std::thread::sleep(CONNECT_RETRY_PAUSE),
                Err(e) => return Err(e),
            }
        };
        let program = without_snapshot_field(&stats[0].body);
        if let Some(index) = stats
            .iter()
            .position(|s| without_snapshot_field(&s.body) != program)
        {
            return Err(format!(
                "replica {index} ({}) serves a different program than replica 0 \
                 (its /v1/stats body differs)",
                replicas[index].addr()
            ));
        }
        Ok(RouterState::new(
            replicas,
            options.upstream_timeout,
            options.admin_token,
        ))
    }

    /// A router over `replicas`, with its metrics in a fresh private
    /// registry.
    fn new(
        replicas: Vec<Upstream>,
        upstream_timeout: Duration,
        admin_token: Option<String>,
    ) -> RouterState {
        let registry = Arc::new(Registry::new());
        RouterState {
            metrics: RouterMetrics::new(&registry, replicas.len()),
            transport: Transport::new(registry, "router", "router.errors"),
            replicas,
            upstream_timeout,
            admin_token,
            started: Instant::now(),
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of replicas fronted.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica addresses, in `--shards` order.
    pub fn replica_addrs(&self) -> Vec<&str> {
        self.replicas.iter().map(|s| s.addr()).collect()
    }

    /// The router's own metric handles.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Request shutdown programmatically (tests, orderly teardown).
    pub fn request_shutdown(&self) {
        self.transport.request_shutdown();
    }

    /// Route and answer one request: a burst of one. `traceparent` (the
    /// router's own span context, rendered) is forwarded so replica
    /// spans hang off the router's trace; without one, a fresh context is
    /// forwarded.
    pub fn handle(&self, req: &Request, traceparent: Option<&str>) -> Response {
        let mut x = Exchange::new(req.clone());
        if let Some(ctx) = traceparent.and_then(TraceContext::parse_traceparent) {
            x.ctx = ctx;
        }
        self.respond(std::slice::from_mut(&mut x));
        Response {
            status: x.answer.status,
            content_type: x.answer.content_type,
            body: x.body,
        }
    }

    /// Answer a request the router does not relay: its own metrics,
    /// health and profile, and for anything else the 404 or 405 a
    /// replica would give. The router answers `/v1/admin/profile` itself
    /// (it shares the process-wide profiler and the serve-side endpoint
    /// logic): a profile of the router process attributes relay and
    /// fan-out time, not replica-side evaluation.
    fn answer_locally(&self, x: &mut Exchange) -> Answer {
        let mut traceparent = [0; 55];
        let traceparent = Some(x.ctx.traceparent_into(&mut traceparent));
        let (req, body) = (&x.req, &mut x.body);
        match Route::of(req) {
            Ok(Route::Metrics) => self.metrics_endpoint(req, traceparent, body),
            Ok(Route::Health) => self.health(traceparent, body),
            Ok(Route::AdminProfile) => match check_admin(self.admin_token.as_deref(), req) {
                Ok(()) => profile_response(req, body),
                Err(refusal) => refusal.answer(body),
            },
            Ok(_) => Refusal::no_route(req.path()).answer(body),
            Err(refusal) => refusal.answer(body),
        }
    }

    /// Relay `run`, consecutive requests of one burst, as one run to the
    /// next replica in round-robin order, and hand back its answers
    /// verbatim, in order.
    ///
    /// Retry rule (DESIGN.md §13): the requests whose answers had not
    /// begun when that replica failed without timing out
    /// ([`ClientError::unanswered`]) go once, as one run, to the next
    /// replica, while the first attempt's deadline has time left. Any
    /// other failure is final. Each request that gets no answer is a 503
    /// naming every failed attempt, never a partial body.
    fn relay(&self, run: &mut [Exchange]) {
        for _ in 0..run.len() {
            self.metrics.fanout_size.record(1);
        }
        let first = self.rr.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + self.upstream_timeout;
        let mut done = 0;
        let mut failures = String::new();
        for attempt in 0..self.replicas.len().min(2) {
            let index = (first + attempt) % self.replicas.len();
            let replica = &self.replicas[index];
            let started = Instant::now();
            let upstream_ns = || started.elapsed().as_nanos() as u64;
            let result = replica.relay(&mut run[done..], || {
                self.metrics.record_upstream(index, upstream_ns());
            });
            let Err((answered, e)) = result else {
                return;
            };
            done += answered;
            for _ in done..run.len() {
                self.metrics.record_upstream(index, upstream_ns());
            }
            self.transport.errors().add((run.len() - done) as u64);
            if !failures.is_empty() {
                failures.push_str("; ");
            }
            failures.push_str(&format!("replica {index} ({}): {e}", replica.addr()));
            if !e.unanswered() || Instant::now() >= deadline {
                break;
            }
        }
        // The head of every 503 carries `Retry-After: 1`.
        let refused = Refusal::new(503, format!("no replica answered ({failures})"));
        for x in &mut run[done..] {
            x.body.clear();
            x.answer = refused.answer(&mut x.body);
        }
    }

    /// `GET /v1/health`: cluster verdict = worst replica verdict, with a
    /// per-replica detail array naming each replica's address and
    /// verdict — a dead replica is identified, not averaged away.
    fn health(&self, traceparent: Option<&str>, body: &mut String) -> Answer {
        let verdicts = self.replica_verdicts(traceparent);
        let degraded = verdicts.iter().any(|&v| v != ReplicaHealth::Ok);
        json_answer(body, 200, |w| {
            w.open_object();
            w.string_field("status", if degraded { "degraded" } else { "ok" });
            w.string_field("role", "router");
            w.u64_field("replicas", self.replicas.len() as u64);
            w.u64_field("uptime_ms", self.started.elapsed().as_millis() as u64);
            w.key("detail");
            w.open_array();
            for (index, (replica, verdict)) in self.replicas.iter().zip(&verdicts).enumerate() {
                w.array_element();
                w.open_object();
                w.u64_field("replica", index as u64);
                w.string_field("addr", replica.addr());
                w.string_field("status", verdict.as_str());
                w.close_object();
            }
            w.close_array();
            w.close_object();
        })
    }

    /// `GET /metrics[?format=prometheus]`: the router's own series plus
    /// every reachable replica's report ([`metrics_response`]). One
    /// scrape reads the whole cluster.
    fn metrics_endpoint(
        &self,
        req: &Request,
        traceparent: Option<&str>,
        body: &mut String,
    ) -> Answer {
        // Scrape every replica's JSON report, then its health.
        let scrapes: Vec<Option<Report>> = gather(&self.replicas, "/metrics", traceparent)
            .into_iter()
            .map(|(result, _)| match result {
                Ok(up) if up.status == 200 => Report::from_json(&up.body).ok(),
                _ => None,
            })
            .collect();
        self.replica_verdicts(traceparent);
        self.metrics.refresh_imbalance();
        self.transport
            .registry()
            .gauge("router.uptime_ms")
            .set(self.started.elapsed().as_millis() as u64);

        let mut report = self.transport.report();
        // The profiler is process-wide (unlike the router's private
        // metric registry), so its attribution rides the router report
        // when a sampler is running.
        let prof = bikron_obs::profile::profiler();
        if prof.sampler_hz() > 0 {
            report.set_profile(prof.snapshot());
        }
        report.set_meta("tool", "bikron-router");
        report.set_meta("shards", self.replicas.len().to_string());
        for (index, replica) in self.replicas.iter().enumerate() {
            report.set_meta(&format!("shard{index}.addr"), replica.addr());
        }
        metrics_response(req, report, &scrapes, body)
    }

    /// Every replica's `/v1/health` verdict, in replica order, also set
    /// on the `router.shard{i}.health` gauges.
    fn replica_verdicts(&self, traceparent: Option<&str>) -> Vec<ReplicaHealth> {
        let verdicts: Vec<ReplicaHealth> = gather(&self.replicas, "/v1/health", traceparent)
            .into_iter()
            .map(|(result, _)| match result {
                Ok(up) if flat_str_field(&up.body, "status") == Some("ok") => ReplicaHealth::Ok,
                Ok(_) => ReplicaHealth::Degraded,
                Err(_) => ReplicaHealth::Down,
            })
            .collect();
        for (gauge, verdict) in self.metrics.replica_health.iter().zip(&verdicts) {
            gauge.set(verdict.as_gauge());
        }
        verdicts
    }
}

/// The one fan-out (DESIGN.md §13): send `GET target` to every replica
/// before reading any answer, then finish each in replica order. Every
/// deadline starts before the first finish, so k hung replicas cost one
/// `upstream_timeout`. Each result comes with its time from send to the
/// end of its finish.
fn gather(
    replicas: &[Upstream],
    target: &str,
    traceparent: Option<&str>,
) -> Vec<(Result<client::Response, ClientError>, u64)> {
    let sent: Vec<_> = replicas
        .iter()
        .map(|replica| {
            let started = Instant::now();
            (started, replica.send("GET", target, None, traceparent))
        })
        .collect();
    replicas
        .iter()
        .zip(sent)
        .map(|(replica, (started, pending))| {
            let result = pending.and_then(|p| replica.finish(p));
            (result, started.elapsed().as_nanos() as u64)
        })
        .collect()
}

impl Handler for RouterState {
    /// Answer the burst in order. Each maximal run of consecutive
    /// [`Route::relayed`] requests goes to one replica as one run
    /// ([`Self::relay`]); every other request is answered here, in its
    /// place ([`Self::answer_locally`]). Every request's own context
    /// travels upstream as its `traceparent`, so replica spans join its
    /// trace.
    fn respond(&self, burst: &mut [Exchange]) {
        let mut rest = burst;
        while !rest.is_empty() {
            let relayed = rest
                .iter()
                .take_while(|x| Route::of(&x.req).is_ok_and(Route::relayed))
                .count();
            let (now, later) = rest.split_at_mut(relayed.max(1));
            if relayed > 0 {
                self.relay(now);
            } else {
                now[0].answer = self.answer_locally(&mut now[0]);
            }
            rest = later;
        }
    }

    fn transport(&self) -> &Transport {
        &self.transport
    }
}

/// Accept `http://host:port` or bare `host:port`; reject anything else
/// (https, paths, userinfo) loudly rather than misdialling.
pub fn parse_replica_url(url: &str) -> Result<String, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") || url.starts_with("https://") {
        return Err(format!("{url:?}: https upstreams are not supported"));
    }
    let rest = rest.strip_suffix('/').unwrap_or(rest);
    if rest.is_empty() || rest.contains('/') || rest.contains('@') {
        return Err(format!("{url:?}: expected http://host:port or host:port"));
    }
    let Some((host, port)) = rest.rsplit_once(':') else {
        return Err(format!("{url:?}: a replica URL needs an explicit port"));
    };
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(format!("{url:?}: bad host or port"));
    }
    Ok(rest.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_url_parsing() {
        assert_eq!(
            parse_replica_url("http://127.0.0.1:7474").unwrap(),
            "127.0.0.1:7474"
        );
        assert_eq!(parse_replica_url("localhost:80").unwrap(), "localhost:80");
        assert_eq!(parse_replica_url("http://h:1/").unwrap(), "h:1");
        assert!(parse_replica_url("https://h:1").is_err());
        assert!(parse_replica_url("h").is_err());
        assert!(parse_replica_url("http://h:1/path").is_err());
        assert!(parse_replica_url("h:notaport").is_err());
        assert!(parse_replica_url("").is_err());
    }
}
