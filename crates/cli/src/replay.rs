//! `bikron replay ACCESS_LOG URL`: re-issue a recorded access log
//! against a live server.
//!
//! The input is the JSON-lines file `bikron serve --access-log` writes.
//! Paths were normalised to bounded-cardinality *shapes* at record time
//! (`/v1/vertex/17` → `/v1/vertex/{n}`), so replay re-materialises each
//! `{n}` with a deterministic, seeded sample drawn from the target
//! server's own vertex count (`/v1/stats`). That keeps the replayed
//! *workload mix* — endpoint shapes, their proportions, and optionally
//! their recorded arrival rhythm — faithful to production, which is
//! what cache warming and capacity planning need; the exact key values
//! are intentionally not reconstructible from a shape log.
//!
//! Rate control (DESIGN.md §14): `--speed X` scales the recorded
//! inter-arrival gaps (2 = twice as fast; 0, the default, replays at
//! full speed), `--max-rps N` imposes a hard rate cap on top, and
//! `--count K` stops after K replayed requests. `--dry-run` parses and
//! plans without opening a socket — CI uses it to check a log is
//! replayable before spending the traffic.
//!
//! Lines that cannot be replayed are *skipped*, never errored: non-GET
//! methods (batch POST bodies are not recorded), admin and shutdown
//! endpoints, and non-access log lines. Transport failures and 5xx
//! responses count as errors; the process exits non-zero if any
//! occurred.

use std::io::Write;
use std::time::{Duration, Instant};

use bikron_serve::client::{json_u64_field_last, Client};

use crate::monitor::{http_get, parse_host_port, FETCH_TIMEOUT};

/// Parsed `bikron replay` invocation.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Path of the recorded JSON-lines access log.
    pub log_path: String,
    /// Target host.
    pub host: String,
    /// Target port.
    pub port: u16,
    /// Recorded-gap multiplier; 0 disables pacing entirely.
    pub speed: f64,
    /// Hard requests-per-second cap (applied after `speed`); 0 = none.
    pub max_rps: u64,
    /// Stop after this many replayed requests; 0 = the whole log.
    pub count: u64,
    /// Parse and plan only; do not connect.
    pub dry_run: bool,
    /// Seed for the deterministic `{n}` materialiser.
    pub seed: u64,
    /// Label folded into `replay.{label}.*` metric names.
    pub label: String,
    /// Write a `BENCH_`-style metrics report here after the run.
    pub out: Option<String>,
}

impl ReplayConfig {
    /// Parse `ACCESS_LOG URL [--speed X] [--max-rps N] [--count K]
    /// [--seed N] [--label NAME] [--out FILE] [--dry-run]`.
    pub fn parse(args: &[String]) -> Result<ReplayConfig, String> {
        let mut positional: Vec<&String> = Vec::new();
        let mut cfg = ReplayConfig {
            log_path: String::new(),
            host: String::new(),
            port: 0,
            speed: 0.0,
            max_rps: 0,
            count: 0,
            dry_run: false,
            seed: 0x5eed,
            label: String::new(),
            out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let need_value = |i: usize| {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("replay: {} requires a value", args[i]))
            };
            match args[i].as_str() {
                "--dry-run" => {
                    cfg.dry_run = true;
                    i += 1;
                    continue;
                }
                "--speed" => {
                    let v = need_value(i)?;
                    cfg.speed = v
                        .parse()
                        .map_err(|e| format!("replay: bad --speed {v:?}: {e}"))?;
                    if cfg.speed < 0.0 {
                        return Err(format!("replay: --speed must be ≥ 0, got {v}"));
                    }
                }
                "--max-rps" => {
                    let v = need_value(i)?;
                    cfg.max_rps = v
                        .parse()
                        .map_err(|e| format!("replay: bad --max-rps {v:?}: {e}"))?;
                }
                "--count" => {
                    let v = need_value(i)?;
                    cfg.count = v
                        .parse()
                        .map_err(|e| format!("replay: bad --count {v:?}: {e}"))?;
                }
                "--seed" => {
                    let v = need_value(i)?;
                    cfg.seed = v
                        .parse()
                        .map_err(|e| format!("replay: bad --seed {v:?}: {e}"))?;
                }
                "--label" => cfg.label = need_value(i)?,
                "--out" => cfg.out = Some(need_value(i)?),
                other if other.starts_with("--") => {
                    return Err(format!("replay: unknown argument {other:?}"))
                }
                _ => {
                    positional.push(&args[i]);
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        match positional.as_slice() {
            [log, url] => {
                cfg.log_path = (*log).clone();
                let (host, port) = parse_host_port(url)?;
                cfg.host = host;
                cfg.port = port;
                Ok(cfg)
            }
            _ => Err("replay: expected ACCESS_LOG URL".to_string()),
        }
    }
}

/// One replayable request recovered from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessLine {
    /// Millisecond timestamp the request was recorded at.
    pub ts_ms: u64,
    /// The normalised path shape, e.g. `/v1/vertex/{n}`.
    pub path_shape: String,
}

/// Split a recorded access log into replayable lines and a skip count.
///
/// Skipped (by design, not error): blank lines, non-`access` events,
/// non-GET methods, and the `/v1/shutdown` / `/v1/admin/*` endpoints —
/// replaying a recorded shutdown would be a remarkable footgun.
pub fn parse_access_log(text: &str) -> (Vec<AccessLine>, u64) {
    let mut lines = Vec::new();
    let mut skipped = 0u64;
    for raw in text.lines() {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let is_access = json_str_field(raw, "target") == Some("access");
        let method = json_str_field(raw, "method");
        let path = json_str_field(raw, "path");
        let ts_ms = json_u64_field_last(raw, "ts_ms");
        match (is_access, method, path, ts_ms) {
            (true, Some("GET"), Some(p), Some(ts))
                if !p.starts_with("/v1/shutdown") && !p.starts_with("/v1/admin") =>
            {
                lines.push(AccessLine {
                    ts_ms: ts,
                    path_shape: p.to_string(),
                });
            }
            _ => skipped += 1,
        }
    }
    (lines, skipped)
}

/// Extract a string field from one flat JSON log line
/// (`"key": "value"` with the exact spacing `LogEvent` emits).
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// xorshift64* — deterministic `{n}` sampling, seeded per run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Fill a path shape's `{n}` holes with sampled vertices in `[0, n)`.
///
/// `/v1/edges/{part}/{parts}` is special-cased to the full single-part
/// page (`0/1`): its holes are a partition index, not vertices, and a
/// random pair would usually be out of range.
fn materialize(shape: &str, n: u64, rng: &mut Rng) -> String {
    if shape.starts_with("/v1/edges/") {
        return "/v1/edges/0/1".to_string();
    }
    let mut out = String::with_capacity(shape.len());
    let mut rest = shape;
    while let Some(at) = rest.find("{n}") {
        out.push_str(&rest[..at]);
        out.push_str(&(rng.next() % n.max(1)).to_string());
        rest = &rest[at + 3..];
    }
    out.push_str(rest);
    out
}

/// Outcome of a replay run, for summaries and the metrics report.
pub struct ReplaySummary {
    /// Requests actually issued (or planned, under `--dry-run`).
    pub replayed: u64,
    /// Log lines that were not replayable.
    pub skipped: u64,
    /// Transport failures plus 5xx responses.
    pub errors: u64,
    /// Wall-clock duration of the replay loop.
    pub elapsed: Duration,
    /// Sorted per-request latencies (empty under `--dry-run`).
    pub latencies_ns: Vec<u64>,
}

impl ReplaySummary {
    /// Replayed requests per second.
    pub fn rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.replayed as f64 / self.elapsed.as_secs_f64()
    }

    /// Median request latency (nearest-rank) in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.latencies_ns, 0.50)
    }

    /// 99th-percentile request latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.latencies_ns, 0.99)
    }

    /// `replay.{key}` or `replay.{label}.{key}` — same labelling scheme
    /// as loadgen reports, so perfdiff can watch either.
    pub fn metric_name(&self, label: &str, key: &str) -> String {
        if label.is_empty() {
            format!("replay.{key}")
        } else {
            format!("replay.{label}.{key}")
        }
    }

    /// Record the headline numbers into the global metrics registry.
    pub fn emit(&self, label: &str) {
        let obs = bikron_obs::global();
        obs.counter(&self.metric_name(label, "replayed"))
            .add(self.replayed);
        obs.counter(&self.metric_name(label, "skipped"))
            .add(self.skipped);
        obs.counter(&self.metric_name(label, "errors"))
            .add(self.errors);
        obs.counter(&self.metric_name(label, "rps"))
            .add(self.rps().round() as u64);
        obs.counter(&self.metric_name(label, "p50_ns"))
            .add(self.p50_ns());
        obs.counter(&self.metric_name(label, "p99_ns"))
            .add(self.p99_ns());
        obs.counter(&self.metric_name(label, "elapsed_ms"))
            .add(self.elapsed.as_millis() as u64);
        let hist = obs.histogram(&self.metric_name(label, "request_ns"));
        for &ns in &self.latencies_ns {
            hist.record(ns);
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the replay. Returns `Ok(true)` when every replayed request got a
/// non-5xx response, `Ok(false)` otherwise (mapped to exit code 2).
pub fn run(cfg: &ReplayConfig, out: &mut dyn Write) -> Result<bool, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(&cfg.log_path)
        .map_err(|e| format!("replay: {}: {e}", cfg.log_path))?;
    let (mut lines, skipped) = parse_access_log(&text);
    if cfg.count > 0 {
        lines.truncate(cfg.count as usize);
    }

    if cfg.dry_run {
        let summary = ReplaySummary {
            replayed: lines.len() as u64,
            skipped,
            errors: 0,
            elapsed: Duration::ZERO,
            latencies_ns: Vec::new(),
        };
        writeln!(
            out,
            "replay (dry-run): {} replayable request(s), {} skipped line(s) in {}",
            summary.replayed, summary.skipped, cfg.log_path
        )?;
        finish(cfg, &summary)?;
        return Ok(true);
    }

    // The target's product vertex count bounds the `{n}` samples.
    let (status, stats) = http_get(&cfg.host, cfg.port, "/v1/stats", FETCH_TIMEOUT)
        .map_err(|e| format!("replay: GET /v1/stats: {e}"))?;
    if status != 200 {
        return Err(format!("replay: GET /v1/stats returned {status}").into());
    }
    let n = json_u64_field_last(&stats, "vertices")
        .ok_or("replay: /v1/stats did not report a vertex count")?;

    let mut rng = Rng(cfg.seed);
    // One keep-alive connection for the whole loop: a fresh dial per
    // request would distort the latency tail.
    let client = Client::new(
        format!("{}:{}", cfg.host, cfg.port),
        FETCH_TIMEOUT,
        FETCH_TIMEOUT,
    );
    let mut conn = Some(client.dial().map_err(|e| format!("replay: connect: {e}"))?);
    let mut replayed = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::with_capacity(lines.len());
    let base_ts = lines.first().map(|l| l.ts_ms).unwrap_or(0);
    let started = Instant::now();
    for line in &lines {
        // Pacing: recorded rhythm first, hard rate cap second.
        if cfg.speed > 0.0 {
            let target_ms = (line.ts_ms.saturating_sub(base_ts)) as f64 / cfg.speed;
            let target = Duration::from_millis(target_ms as u64);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        // checked_div doubles as the off switch: --max-rps 0 → None.
        if let Some(floor_ms) = (replayed * 1000).checked_div(cfg.max_rps) {
            let floor = Duration::from_millis(floor_ms);
            let elapsed = started.elapsed();
            if floor > elapsed {
                std::thread::sleep(floor - elapsed);
            }
        }
        let path = materialize(&line.path_shape, n, &mut rng);
        let t0 = Instant::now();
        match client.request(conn.take(), "GET", &path, None, None) {
            Ok((resp, reuse)) => {
                latencies.push(t0.elapsed().as_nanos() as u64);
                replayed += 1;
                if resp.status >= 500 {
                    errors += 1;
                }
                conn = reuse;
            }
            Err(_) => {
                // The client already retried once on a fresh dial; one
                // more reconnect per failure, so a dead server fails
                // fast because the reconnect itself errors.
                errors += 1;
                let fresh = client.dial();
                conn = Some(fresh.map_err(|e| format!("replay: reconnect failed: {e}"))?);
            }
        }
    }
    latencies.sort_unstable();
    let summary = ReplaySummary {
        replayed,
        skipped,
        errors,
        elapsed: started.elapsed(),
        latencies_ns: latencies,
    };
    writeln!(
        out,
        "replay{}: {} replayed, {} skipped, {} error(s) in {:.2}s → {:.0} req/s \
         (p50 {:.1}µs, p99 {:.1}µs)",
        if cfg.label.is_empty() {
            String::new()
        } else {
            format!(" [{}]", cfg.label)
        },
        summary.replayed,
        summary.skipped,
        summary.errors,
        summary.elapsed.as_secs_f64(),
        summary.rps(),
        summary.p50_ns() as f64 / 1e3,
        summary.p99_ns() as f64 / 1e3,
    )?;
    finish(cfg, &summary)?;
    Ok(summary.errors == 0)
}

/// Emit metrics and write the report file when `--out` was given.
fn finish(cfg: &ReplayConfig, summary: &ReplaySummary) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = &cfg.out else {
        return Ok(());
    };
    summary.emit(&cfg.label);
    let mut report = bikron_obs::global().snapshot();
    report.set_meta("tool", "bikron-replay");
    report.set_meta("log", cfg.log_path.clone());
    report.set_meta("addr", format!("{}:{}", cfg.host, cfg.port));
    if cfg.speed > 0.0 {
        report.set_meta("speed", cfg.speed.to_string());
    }
    if cfg.max_rps > 0 {
        report.set_meta("max_rps", cfg.max_rps.to_string());
    }
    if cfg.dry_run {
        report.set_meta("dry_run", "true");
    }
    if !cfg.label.is_empty() {
        report.set_meta("label", cfg.label.clone());
    }
    report.write_to_file(std::path::Path::new(path))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ts: u64, method: &str, path: &str) -> String {
        format!(
            "{{\"ts_ms\": {ts}, \"target\": \"access\", \"method\": \"{method}\", \
             \"path\": \"{path}\", \"status\": 200, \"latency_ns\": 1000, \"bytes\": 10, \
             \"cache\": \"miss\", \"trace_id\": \"abc\"}}"
        )
    }

    #[test]
    fn parses_gets_and_skips_everything_else() {
        let log = [
            line(1, "GET", "/v1/vertex/{n}"),
            line(2, "POST", "/v1/batch"),
            line(3, "GET", "/v1/shutdown"),
            line(4, "GET", "/v1/admin/traces"),
            line(5, "GET", "/v1/edge/{n}/{n}"),
            "{\"ts_ms\": 6, \"target\": \"log\", \"dropped\": 3}".to_string(),
            String::new(),
        ]
        .join("\n");
        let (lines, skipped) = parse_access_log(&log);
        assert_eq!(
            lines,
            vec![
                AccessLine {
                    ts_ms: 1,
                    path_shape: "/v1/vertex/{n}".into()
                },
                AccessLine {
                    ts_ms: 5,
                    path_shape: "/v1/edge/{n}/{n}".into()
                },
            ]
        );
        assert_eq!(skipped, 4);
    }

    #[test]
    fn materialize_is_deterministic_and_in_range() {
        let mut a = Rng(42);
        let mut b = Rng(42);
        let pa = materialize("/v1/edge/{n}/{n}", 30, &mut a);
        let pb = materialize("/v1/edge/{n}/{n}", 30, &mut b);
        assert_eq!(pa, pb);
        for seg in pa.trim_start_matches("/v1/edge/").split('/') {
            let v: u64 = seg.parse().expect("numeric segment");
            assert!(v < 30);
        }
        // Non-hole segments pass through untouched.
        assert_eq!(materialize("/v1/stats", 30, &mut a), "/v1/stats");
        // Edge-stream shapes page the whole set instead of guessing parts.
        assert_eq!(
            materialize("/v1/edges/{n}/{n}", 30, &mut a),
            "/v1/edges/0/1"
        );
    }

    #[test]
    fn config_parses_flags_and_positionals() {
        let args: Vec<String> = [
            "access.log",
            "http://127.0.0.1:7475",
            "--speed",
            "2.5",
            "--count",
            "100",
            "--dry-run",
            "--label",
            "warm",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = ReplayConfig::parse(&args).unwrap();
        assert_eq!(cfg.log_path, "access.log");
        assert_eq!(cfg.host, "127.0.0.1");
        assert_eq!(cfg.port, 7475);
        assert_eq!(cfg.speed, 2.5);
        assert_eq!(cfg.count, 100);
        assert!(cfg.dry_run);
        assert_eq!(cfg.label, "warm");

        assert!(ReplayConfig::parse(&["onlylog".to_string()]).is_err());
        assert!(ReplayConfig::parse(&[
            "a".to_string(),
            "b:1".to_string(),
            "--speed".to_string(),
            "-1".to_string()
        ])
        .is_err());
    }

    #[test]
    fn summary_percentiles_and_metric_names() {
        let s = ReplaySummary {
            replayed: 4,
            skipped: 1,
            errors: 0,
            elapsed: Duration::from_millis(500),
            latencies_ns: vec![10, 20, 30, 40],
        };
        assert_eq!(s.p50_ns(), 20);
        assert_eq!(s.p99_ns(), 40);
        assert_eq!(s.rps(), 8.0);
        assert_eq!(s.metric_name("", "rps"), "replay.rps");
        assert_eq!(s.metric_name("warm", "rps"), "replay.warm.rps");
    }
}
