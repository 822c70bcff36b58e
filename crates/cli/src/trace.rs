//! `bikron trace URL`: fetch the span trees a running `bikron serve`
//! captured (tail-based slow-request sampling plus optional 1-in-N head
//! sampling) from `GET /v1/admin/traces` and render each as an indented
//! waterfall — span tree on the left, a proportional timeline bar on the
//! right. The admin endpoint is token-gated, so `--token` (or a server
//! without `--admin-token`, which refuses the endpoint entirely) is
//! required in practice.
//!
//! Everything except the socket I/O is pure (`parse_dump`,
//! `render_traces`), so the JSON decoding and waterfall layout are
//! unit-testable without a server. JSON decoding uses the workspace's
//! shared reader ([`bikron_obs::parse_json`]).

use bikron_obs::{parse_json, JsonValue};

use crate::monitor::{admin_get, fmt_ns, AdminArgs, FETCH_TIMEOUT};

/// Default number of traces rendered.
pub const DEFAULT_TOP: usize = 5;
/// Width of the waterfall bar in characters.
const BAR_WIDTH: usize = 24;

/// Parsed `bikron trace` invocation.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Server host.
    pub host: String,
    /// TCP port.
    pub port: u16,
    /// Only show traces at least this slow (server-side filter).
    pub min_ms: u64,
    /// How many traces to render (newest first).
    pub top: usize,
    /// Admin token for the gated endpoint.
    pub token: Option<String>,
}

impl TraceConfig {
    /// Parse `URL [--min-ms N] [--top K] [--token TOKEN]`.
    pub fn parse(args: &[String]) -> Result<TraceConfig, String> {
        let a = AdminArgs::parse("trace", "--min-ms", DEFAULT_TOP, args)?;
        Ok(TraceConfig {
            host: a.host,
            port: a.port,
            min_ms: a.value,
            top: a.top,
            token: a.token,
        })
    }
}

/// One span row of a captured trace.
#[derive(Debug, Clone)]
pub struct SpanEntry {
    /// Span name (`evaluate`, `batch[3] vertex`, ...).
    pub name: String,
    /// Span id, 16 hex chars.
    pub span_id: String,
    /// Parent span id, 16 hex chars (the root span for top-level spans).
    pub parent_id: String,
    /// Start offset from the request's span clock, nanoseconds.
    pub start_ns: u64,
    /// End offset, nanoseconds.
    pub end_ns: u64,
    /// Cache outcome annotation, if the span touched the result cache.
    pub cache: Option<bool>,
}

/// One captured request trace.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// 32-hex-char trace id.
    pub trace_id: String,
    /// Root span id (the implicit request-level span).
    pub root_span_id: String,
    /// Remote parent span id when the client sent a `traceparent`.
    pub remote_parent: Option<String>,
    /// Request method.
    pub method: String,
    /// Bounded path shape.
    pub path: String,
    /// Response status.
    pub status: u64,
    /// Response body bytes.
    pub bytes: u64,
    /// Total latency in nanoseconds.
    pub total_ns: u64,
    /// Why the trace was kept (`slow` or `head`).
    pub sampled: String,
    /// The span rows, in begin order.
    pub spans: Vec<SpanEntry>,
}

/// The decoded `/v1/admin/traces` payload.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// Whether any sampling policy is active on the server.
    pub enabled: bool,
    /// The server's `--trace-slow-ms` threshold (0 = tail sampling off).
    pub slow_ms: u64,
    /// Requests completed while tracing was enabled.
    pub seen: u64,
    /// Traces retained (including ones since overwritten in the ring).
    pub captured: u64,
    /// Spans lost to the per-request cap.
    pub dropped_spans: u64,
    /// Retained traces, newest first.
    pub traces: Vec<TraceEntry>,
}

/// Decode the `bikron-traces/1` JSON payload.
pub fn parse_dump(body: &str) -> Result<TraceDump, String> {
    let root = parse_json(body).map_err(|e| e.to_string())?;
    match root.str_of("schema") {
        Some("bikron-traces/1") => {}
        other => return Err(format!("unexpected traces schema {other:?}")),
    }
    let field = |key: &str| {
        root.num_of(key)
            .ok_or_else(|| format!("traces payload is missing integer field {key:?}"))
    };
    let mut traces = Vec::new();
    if let Some(JsonValue::Arr(items)) = root.get("traces") {
        for item in items {
            let s = |key: &str| {
                item.str_of(key)
                    .map(str::to_string)
                    .ok_or_else(|| format!("trace is missing string field {key:?}"))
            };
            let n = |key: &str| {
                item.num_of(key)
                    .ok_or_else(|| format!("trace is missing integer field {key:?}"))
            };
            let mut spans = Vec::new();
            if let Some(JsonValue::Arr(rows)) = item.get("spans") {
                for row in rows {
                    spans.push(SpanEntry {
                        name: row.str_of("name").unwrap_or("?").to_string(),
                        span_id: row.str_of("span_id").unwrap_or("?").to_string(),
                        parent_id: row.str_of("parent_id").unwrap_or("?").to_string(),
                        start_ns: row.num_of("start_ns").unwrap_or(0),
                        end_ns: row.num_of("end_ns").unwrap_or(0),
                        cache: match row.get("cache") {
                            Some(JsonValue::Str(s)) => Some(s == "hit"),
                            _ => None,
                        },
                    });
                }
            }
            traces.push(TraceEntry {
                trace_id: s("trace_id")?,
                root_span_id: s("root_span_id")?,
                remote_parent: item.str_of("remote_parent").map(str::to_string),
                method: s("method")?,
                path: s("path")?,
                status: n("status")?,
                bytes: n("bytes")?,
                total_ns: n("total_ns")?,
                sampled: s("sampled")?,
                spans,
            });
        }
    }
    Ok(TraceDump {
        enabled: root.bool_of("enabled").unwrap_or(false),
        slow_ms: field("slow_ms")?,
        seen: field("seen")?,
        captured: field("captured")?,
        dropped_spans: field("dropped_spans")?,
        traces,
    })
}

/// The `[start, end)` timeline bar for one span, on a `scale_ns`-wide
/// axis. At least one `#` so instantaneous spans stay visible.
fn bar(start_ns: u64, end_ns: u64, scale_ns: u64) -> String {
    let scale = scale_ns.max(1);
    let from = (start_ns.min(scale) as usize * BAR_WIDTH) / scale as usize;
    let to = (end_ns.min(scale) as usize * BAR_WIDTH) / scale as usize;
    let from = from.min(BAR_WIDTH - 1);
    let to = to.clamp(from + 1, BAR_WIDTH);
    let mut out = String::with_capacity(BAR_WIDTH + 2);
    out.push('[');
    for i in 0..BAR_WIDTH {
        out.push(if (from..to).contains(&i) { '#' } else { ' ' });
    }
    out.push(']');
    out
}

/// Append one span row and, recursively, its children (in begin order).
fn render_span(out: &mut String, spans: &[SpanEntry], parent: &str, depth: usize, scale_ns: u64) {
    for s in spans.iter().filter(|s| s.parent_id == parent) {
        let label = match s.cache {
            Some(true) => format!("{} (hit)", s.name),
            Some(false) => format!("{} (miss)", s.name),
            None => s.name.clone(),
        };
        let indent = "  ".repeat(depth + 1);
        out.push_str(&format!(
            "{indent}{label:<w$} {dur:>8} @{at:<8} {bar}\n",
            w = 30usize.saturating_sub(2 * depth),
            dur = fmt_ns(s.end_ns.saturating_sub(s.start_ns)),
            at = fmt_ns(s.start_ns),
            bar = bar(s.start_ns, s.end_ns, scale_ns),
        ));
        // Guard against id cycles (impossible from our recorder, cheap
        // to refuse anyway): a span is never its own ancestor.
        if s.span_id != parent {
            render_span(out, spans, &s.span_id, depth + 1, scale_ns);
        }
    }
}

/// Render up to `top` traces as waterfalls. Pure — no I/O.
pub fn render_traces(dump: &TraceDump, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "captured {} of {} requests (slow_ms {}, dropped spans {})\n",
        dump.captured, dump.seen, dump.slow_ms, dump.dropped_spans
    ));
    if !dump.enabled {
        out.push_str(
            "tracing is disabled on this server (start it with --trace-slow-ms or --trace-sample)\n",
        );
        return out;
    }
    if dump.traces.is_empty() {
        out.push_str("no traces captured (yet) — lower --min-ms or the server's --trace-slow-ms\n");
        return out;
    }
    for t in dump.traces.iter().take(top) {
        let parent = t
            .remote_parent
            .as_deref()
            .map_or(String::new(), |p| format!("  parent {p}"));
        out.push_str(&format!(
            "\ntrace {}  {} {}  status {}  {}  [{}]{}\n",
            t.trace_id,
            t.method,
            t.path,
            t.status,
            fmt_ns(t.total_ns),
            t.sampled,
            parent,
        ));
        // Bars are scaled by the larger of the request total and the
        // last span end: the recorder's clock starts at socket read, so
        // span offsets can exceed the post-parse total.
        let scale = t
            .spans
            .iter()
            .map(|s| s.end_ns)
            .chain([t.total_ns])
            .max()
            .unwrap_or(1);
        render_span(&mut out, &t.spans, &t.root_span_id, 0, scale);
    }
    if dump.traces.len() > top {
        out.push_str(&format!(
            "\n({} more captured; raise --top to see them)\n",
            dump.traces.len() - top
        ));
    }
    out
}

/// Fetch, decode and render. Returns `Ok(false)` when the server refused
/// the admin endpoint (bad/missing token).
pub fn run(
    config: &TraceConfig,
    out: &mut impl std::io::Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    let path = format!("/v1/admin/traces?min_ms={}", config.min_ms);
    let token = config.token.as_deref();
    let (host, port) = (&config.host, config.port);
    let Some((status, body)) = admin_get("trace", host, port, &path, token, FETCH_TIMEOUT, out)?
    else {
        return Ok(false);
    };
    if status != 200 {
        return Err(format!("GET /v1/admin/traces returned {status}: {body}").into());
    }
    let dump = parse_dump(&body).map_err(|e| format!("parse /v1/admin/traces: {e}"))?;
    write!(out, "{}", render_traces(&dump, config.top))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let cfg = TraceConfig::parse(&[
            "http://h:7475".into(),
            "--min-ms".into(),
            "250".into(),
            "--top".into(),
            "2".into(),
            "--token".into(),
            "ci".into(),
        ])
        .unwrap();
        assert_eq!((cfg.host.as_str(), cfg.port), ("h", 7475));
        assert_eq!(cfg.min_ms, 250);
        assert_eq!(cfg.top, 2);
        assert_eq!(cfg.token.as_deref(), Some("ci"));
        assert!(TraceConfig::parse(&[]).is_err());
        assert!(TraceConfig::parse(&["h:1".into(), "--frob".into()]).is_err());
        assert!(TraceConfig::parse(&["h:1".into(), "--min-ms".into(), "x".into()]).is_err());
    }

    fn sample_dump() -> &'static str {
        r#"{
  "schema": "bikron-traces/1",
  "enabled": true,
  "slow_ms": 50,
  "seen": 120,
  "captured": 2,
  "dropped_spans": 0,
  "count": 1,
  "traces": [
    {
      "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736",
      "root_span_id": "00f067aa0ba902b7",
      "remote_parent": "b7ad6b7169203331",
      "method": "GET",
      "path": "/v1/clustering/{p}/{q}",
      "status": 200,
      "bytes": 180,
      "total_ns": 300400000,
      "sampled": "slow",
      "unix_ms": 1700000000000,
      "spans": [
        {"name": "accept", "span_id": "aaaaaaaaaaaaaaa1", "parent_id": "00f067aa0ba902b7", "start_ns": 0, "end_ns": 120000, "cache": null},
        {"name": "evaluate", "span_id": "aaaaaaaaaaaaaaa2", "parent_id": "00f067aa0ba902b7", "start_ns": 130000, "end_ns": 300300000, "cache": null},
        {"name": "cache", "span_id": "aaaaaaaaaaaaaaa3", "parent_id": "aaaaaaaaaaaaaaa2", "start_ns": 140000, "end_ns": 150000, "cache": "miss"},
        {"name": "write", "span_id": "aaaaaaaaaaaaaaa4", "parent_id": "00f067aa0ba902b7", "start_ns": 300310000, "end_ns": 300400000, "cache": null}
      ]
    }
  ]
}
"#
    }

    #[test]
    fn dump_round_trips_and_renders_a_waterfall() {
        let dump = parse_dump(sample_dump()).unwrap();
        assert!(dump.enabled);
        assert_eq!((dump.seen, dump.captured), (120, 2));
        assert_eq!(dump.traces.len(), 1);
        let t = &dump.traces[0];
        assert_eq!(t.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(t.remote_parent.as_deref(), Some("b7ad6b7169203331"));
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[2].cache, Some(false));

        let text = render_traces(&dump, 5);
        assert!(text.contains("captured 2 of 120 requests"), "{text}");
        assert!(
            text.contains("trace 4bf92f3577b34da6a3ce929d0e0e4736"),
            "{text}"
        );
        assert!(text.contains("[slow]"), "{text}");
        assert!(text.contains("parent b7ad6b7169203331"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let eval = lines
            .iter()
            .position(|l| l.trim_start().starts_with("evaluate"))
            .expect("evaluate row");
        // The cache child is indented one level deeper than evaluate.
        let cache = lines[eval + 1];
        assert!(cache.contains("cache (miss)"), "{text}");
        assert!(
            cache.find("cache").unwrap() > lines[eval].find("evaluate").unwrap(),
            "{text}"
        );
        // The evaluate span dominates the waterfall: its bar is the
        // widest on the screen.
        let width = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(width(lines[eval]) > width(cache), "{text}");
        assert!(width(lines[eval]) > width(lines[eval + 2]), "{text}");
        // awk-able: the duration is column 2 of the evaluate row.
        let dur = lines[eval].split_whitespace().nth(1).unwrap();
        assert_eq!(dur, "300.1ms", "{text}");
    }

    #[test]
    fn disabled_and_empty_states_are_explained() {
        let disabled = parse_dump(
            r#"{"schema": "bikron-traces/1", "enabled": false, "slow_ms": 0, "seen": 0, "captured": 0, "dropped_spans": 0, "count": 0, "traces": []}"#,
        )
        .unwrap();
        let text = render_traces(&disabled, 5);
        assert!(text.contains("tracing is disabled"), "{text}");

        let mut empty = disabled.clone();
        empty.enabled = true;
        let text = render_traces(&empty, 5);
        assert!(text.contains("no traces captured"), "{text}");

        assert!(parse_dump(r#"{"schema": "bikron-else/9"}"#).is_err());
    }

    #[test]
    fn top_limits_rendered_traces() {
        let mut dump = parse_dump(sample_dump()).unwrap();
        let second = dump.traces[0].clone();
        dump.traces.push(second);
        let text = render_traces(&dump, 1);
        assert_eq!(text.matches("trace 4bf92f").count(), 1, "{text}");
        assert!(text.contains("1 more captured"), "{text}");
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(0, 0, 0), format!("[#{}]", " ".repeat(BAR_WIDTH - 1)));
        let full = bar(0, 100, 100);
        assert_eq!(full.matches('#').count(), BAR_WIDTH);
        // Past-the-end spans clamp instead of panicking.
        let clamped = bar(150, 200, 100);
        assert_eq!(clamped.matches('#').count(), 1);
        assert!(clamped.ends_with("#]"), "{clamped}");
    }
}
