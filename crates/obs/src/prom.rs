//! Prometheus text exposition (format 0.0.4) for [`Report`] snapshots,
//! plus a small grammar checker used by CI to validate what the serve
//! endpoint actually emits.
//!
//! The JSON schema stays the source of truth; this module is a pure
//! renderer over a [`Report`], so `/metrics?format=prometheus` costs one
//! snapshot plus string formatting. Mapping:
//!
//! * every metric name is sanitised (`[^a-zA-Z0-9_:]` → `_`) and
//!   prefixed `bikron_`;
//! * report `meta` becomes a single `bikron_report_info{...} 1` gauge
//!   with escaped label values — the idiomatic way to attach build/
//!   workload labels without exploding every series;
//! * counters → `counter`; gauges → two `gauge` series, live value and
//!   `_peak` high-water mark (distinct series so dashboards can plot
//!   both); timers → `_count` / `_ns_total` counters;
//! * histograms → classic `_bucket{le="..."}` cumulative buckets with a
//!   closing `le="+Inf"`, plus `_sum` and `_count`;
//! * `windows` entries → gauges labelled `window="1m"|"5m"`:
//!   `_rate_per_sec` and `_window_count` for every kind, and
//!   `_window_p50/_p90/_p99` for histogram-kind entries.
//!
//! One family renderer, [`write_families`], does the mapping for any
//! number of reports at once, each with its own label: no label for a
//! process's own report ([`to_prometheus`]), `shard="i"` for each
//! replica report the cluster router scrapes.

use std::collections::BTreeSet;

use crate::report::{Report, TimerSnapshot};
use crate::window::{WindowKind, WindowStats};

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline get backslash escapes; everything else passes
/// through.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitise a report metric name into a Prometheus metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and the
/// result is prefixed `bikron_` (which also guarantees a legal leading
/// character).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("bikron_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Sanitise a meta key into a label name (`[a-zA-Z0-9_]`, digit-safe
/// because meta keys are identifiers in practice; a leading digit gets a
/// `_` prefix).
fn sanitize_label(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn type_line(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// One sample line: `{name}{suffix}`, then the label set made of
/// `first` and `label` (each a `key="value"` pair or empty; no braces
/// when both are), then the value.
fn sample(out: &mut String, name: &str, suffix: &str, first: &str, label: &str, value: u64) {
    out.push_str(name);
    out.push_str(suffix);
    if !first.is_empty() || !label.is_empty() {
        out.push('{');
        out.push_str(first);
        if !first.is_empty() && !label.is_empty() {
            out.push(',');
        }
        out.push_str(label);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Reads one sample's value off a series' snapshot.
type Pick<T> = fn(&T) -> u64;

/// Render a [`Report`] in Prometheus text exposition format 0.0.4: the
/// `bikron_report_info` gauge carrying its meta, then its families
/// unlabelled ([`write_families`]).
pub fn to_prometheus(report: &Report) -> String {
    let mut out = String::new();

    // meta → one info gauge with all pairs as labels (sorted: BTreeMap).
    let labels = report
        .meta_pairs()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label(k), escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    type_line(&mut out, "bikron_report_info", "gauge");
    sample(&mut out, "bikron_report_info", "", &labels, "", 1);

    write_families(&mut out, &[(String::new(), report)]);
    out
}

/// Append the metric families of `reports` to `out`, each report's
/// samples carrying its label (a `key="value"` pair, or empty for
/// none). A family present in several reports gets one `# TYPE` line
/// followed by one sample per report that has it, in `reports` order,
/// since the format allows each family exactly one `# TYPE`. Families
/// come in name order within each kind: counters, gauges, timers,
/// histograms, windows. Meta is not rendered here (see
/// [`to_prometheus`]).
pub fn write_families(out: &mut String, reports: &[(String, &Report)]) {
    /// Every name of one kind across `reports`, sorted.
    fn names<'r>(
        reports: &[(String, &'r Report)],
        kind: fn(&'r Report) -> Vec<&'r str>,
    ) -> BTreeSet<&'r str> {
        reports.iter().flat_map(|&(_, r)| kind(r)).collect()
    }

    for name in names(reports, |r| r.counters().map(|(n, _)| n).collect()) {
        let n = sanitize_name(name);
        type_line(out, &n, "counter");
        for (label, r) in reports {
            if let Some(v) = r.counter(name) {
                sample(out, &n, "", "", label, v);
            }
        }
    }

    for name in names(reports, |r| r.gauges().map(|(n, _)| n).collect()) {
        let n = sanitize_name(name);
        let picks: [(&str, Pick<(u64, u64)>); 2] = [("", |g| g.0), ("_peak", |g| g.1)];
        for (suffix, pick) in picks {
            let family = format!("{n}{suffix}");
            type_line(out, &family, "gauge");
            for (label, r) in reports {
                if let Some(g) = r.gauge(name) {
                    sample(out, &family, "", "", label, pick(&g));
                }
            }
        }
    }

    for name in names(reports, |r| r.timers().map(|(n, _)| n).collect()) {
        let n = sanitize_name(name);
        let picks: [(&str, Pick<TimerSnapshot>); 2] =
            [("_count", |t| t.count), ("_ns_total", |t| t.total_ns)];
        for (suffix, pick) in picks {
            let family = format!("{n}{suffix}");
            type_line(out, &family, "counter");
            for (label, r) in reports {
                if let Some(t) = r.timer(name) {
                    sample(out, &family, "", "", label, pick(t));
                }
            }
        }
    }

    for name in names(reports, |r| r.histograms().map(|(n, _)| n).collect()) {
        let n = sanitize_name(name);
        type_line(out, &n, "histogram");
        for (label, r) in reports {
            let Some(h) = r.histogram(name) else {
                continue;
            };
            let mut cumulative = 0u64;
            for &(le, count) in &h.buckets {
                cumulative += count;
                sample(
                    out,
                    &n,
                    "_bucket",
                    &format!("le=\"{le}\""),
                    label,
                    cumulative,
                );
            }
            sample(out, &n, "_bucket", "le=\"+Inf\"", label, h.count);
            sample(out, &n, "_sum", "", label, h.sum);
            sample(out, &n, "_count", "", label, h.count);
        }
    }

    for name in names(reports, |r| r.windows().map(|(n, _)| n).collect()) {
        let n = sanitize_name(name);
        // Percentile families exist when any report keeps a
        // distribution under this name.
        let distribution = reports
            .iter()
            .filter_map(|(_, r)| r.window(name))
            .any(|w| w.kind == WindowKind::Histogram);
        let picks: [(&str, Pick<WindowStats>); 5] = [
            ("_rate_per_sec", |s| s.rate_per_sec),
            ("_window_count", |s| s.count),
            ("_window_p50", |s| s.p50),
            ("_window_p90", |s| s.p90),
            ("_window_p99", |s| s.p99),
        ];
        for (suffix, pick) in &picks[..if distribution { 5 } else { 2 }] {
            let family = format!("{n}{suffix}");
            type_line(out, &family, "gauge");
            for (label, r) in reports {
                let Some(w) = r.window(name) else {
                    continue;
                };
                for (window, stats) in [("window=\"1m\"", &w.w1m), ("window=\"5m\"", &w.w5m)] {
                    sample(out, &family, "", window, label, pick(stats));
                }
            }
        }
    }
}

/// Validate `text` against the exposition-format grammar this module
/// emits: every line is a comment (`# HELP`/`# TYPE` with a valid type)
/// or a `name{labels} value` sample with legal metric/label names,
/// properly escaped label values, and an unsigned-integer / `+Inf` /
/// `NaN` value; samples appear only after a `# TYPE` for their family
/// (histogram samples match via their `_bucket`/`_sum`/`_count` suffix);
/// and every histogram family closes with an `le="+Inf"` bucket.
///
/// Returns `Err` with a `line N: ...` message on the first violation.
/// CI runs this over a live `/metrics?format=prometheus` scrape.
pub fn check_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut inf_seen: BTreeMap<String, bool> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without metric name"))?;
                check_metric_name(name).map_err(|e| format!("line {lineno}: {e}"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
            } else if !rest.starts_with("HELP ") && !rest.is_empty() {
                // Other comments are legal in the format; accept them.
            }
            continue;
        }

        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
        let name = &line[..name_end];
        check_metric_name(name).map_err(|e| format!("line {lineno}: {e}"))?;

        let mut rest = &line[name_end..];
        let mut le_value: Option<String> = None;
        if let Some(stripped) = rest.strip_prefix('{') {
            let close = find_label_close(stripped)
                .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
            let labels = &stripped[..close];
            le_value = check_labels(labels).map_err(|e| format!("line {lineno}: {e}"))?;
            rest = &stripped[close + 1..];
        }
        let value = rest.trim_start();
        if value.is_empty() {
            return Err(format!("line {lineno}: sample has no value"));
        }
        let numeric = value.parse::<u64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN")
            || value.parse::<f64>().is_ok();
        if !numeric {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }

        // TYPE-before-sample: histogram child series strip their suffix.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!(
                "line {lineno}: sample {name} has no preceding TYPE"
            ));
        }
        if types.get(family).map(String::as_str) == Some("histogram") && name.ends_with("_bucket") {
            match le_value {
                Some(le) => {
                    let entry = inf_seen.entry(family.to_string()).or_insert(false);
                    *entry |= le == "+Inf";
                }
                None => {
                    return Err(format!("line {lineno}: {name} bucket without le label"));
                }
            }
        }
    }

    for (family, kind) in &types {
        if kind == "histogram" && !inf_seen.get(family).copied().unwrap_or(false) {
            return Err(format!("histogram {family} has no le=\"+Inf\" bucket"));
        }
    }
    Ok(())
}

fn check_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return Err(format!("bad metric name {name:?}")),
    }
    if chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        Ok(())
    } else {
        Err(format!("bad metric name {name:?}"))
    }
}

/// Find the index of the closing `}` of a label set, skipping quoted
/// values (which may contain escaped quotes and literal `}`).
fn find_label_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Validate `k="v",k2="v2"` and return the value of an `le` label if one
/// is present.
fn check_labels(labels: &str) -> Result<Option<String>, String> {
    let mut rest = labels;
    let mut le = None;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {labels:?}"))?;
        let key = &rest[..eq];
        let legal_first = key
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !legal_first || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label {key:?} value is not quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        let mut consumed = 0;
        for (i, c) in rest.char_indices() {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("bad escape '\\{c}' in label {key:?}"));
                }
                value.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                consumed = i + 1;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("unterminated value for label {key:?}"));
        }
        if key == "le" {
            le = Some(value);
        }
        rest = &rest[consumed..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("expected ',' between labels in {labels:?}"));
        }
    }
    Ok(le)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::window::WindowRegistry;

    fn sample_report() -> Report {
        let base = Registry::new();
        let win = WindowRegistry::new();
        base.counter("serve.requests").add(10);
        base.gauge("serve.inflight").raise(3);
        base.gauge("serve.inflight").lower(2);
        base.histogram("serve.request_ns").record(1000);
        base.histogram("serve.request_ns").record(2000);
        {
            let _t = base.phase("serve.build");
        }
        win.counter(&base, "win.requests").add_at(0, 60);
        win.histogram(&base, "win.request_ns").record_at(0, 500);
        let mut r = base.snapshot();
        win.snapshot_into(&mut r);
        r.set_meta("tool", "bikron-serve");
        r.set_meta("edge", "a\\b \"q\"\nline");
        r
    }

    #[test]
    fn output_passes_own_checker() {
        let text = to_prometheus(&sample_report());
        check_exposition(&text).unwrap();
    }

    #[test]
    fn renders_expected_series() {
        let text = to_prometheus(&sample_report());
        assert!(text.contains("# TYPE bikron_serve_requests counter"));
        assert!(text.contains("bikron_serve_requests 10"));
        // Gauge exports both live value and peak as distinct series.
        assert!(text.contains("bikron_serve_inflight 1"));
        assert!(text.contains("bikron_serve_inflight_peak 3"));
        // Histogram closes with +Inf and exposes sum/count.
        assert!(text.contains("bikron_serve_request_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bikron_serve_request_ns_sum 3000"));
        // Windowed series carry the window label.
        assert!(text.contains("bikron_win_requests_rate_per_sec{window=\"1m\"} 1"));
        assert!(text.contains("bikron_win_request_ns_window_p99{window=\"5m\"}"));
        // Meta labels are escaped.
        assert!(text.contains("edge=\"a\\\\b \\\"q\\\"\\nline\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut r = Report::default();
        r.insert_histogram(
            "h".to_string(),
            crate::histogram::HistogramSnapshot {
                count: 6,
                sum: 60,
                min: 1,
                max: 30,
                buckets: vec![(1, 1), (3, 2), (31, 3)],
            },
        );
        let text = to_prometheus(&r);
        assert!(text.contains("bikron_h_bucket{le=\"1\"} 1"));
        assert!(text.contains("bikron_h_bucket{le=\"3\"} 3"));
        assert!(text.contains("bikron_h_bucket{le=\"31\"} 6"));
        assert!(text.contains("bikron_h_bucket{le=\"+Inf\"} 6"));
        check_exposition(&text).unwrap();
    }

    #[test]
    fn profiler_series_export_and_validate() {
        // The sampler thread accounts for itself on the registry it is
        // given: sample/drop counters plus a scheduling-lag histogram.
        // Mirror those series on a private registry (the global one is
        // shared across tests) and confirm the exposition CI scrapes is
        // well-formed and carries all three.
        let base = Registry::new();
        base.counter("profile.samples").add(297);
        base.counter("profile.dropped_samples").add(3);
        let lag = base.histogram("profile.sampler_lag_ns");
        lag.record(40_000);
        lag.record(1_200_000);
        let text = to_prometheus(&base.snapshot());
        check_exposition(&text).unwrap();
        assert!(text.contains("# TYPE bikron_profile_samples counter"));
        assert!(text.contains("bikron_profile_samples 297"));
        assert!(text.contains("bikron_profile_dropped_samples 3"));
        assert!(text.contains("# TYPE bikron_profile_sampler_lag_ns histogram"));
        assert!(text.contains("bikron_profile_sampler_lag_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bikron_profile_sampler_lag_ns_count 2"));
    }

    #[test]
    fn checker_rejects_bad_exposition() {
        // Sample without a preceding TYPE.
        assert!(check_exposition("orphan 1\n").is_err());
        // Unknown type.
        assert!(check_exposition("# TYPE x meter\nx 1\n").is_err());
        // Bad metric name.
        assert!(check_exposition("# TYPE 9x gauge\n9x 1\n").is_err());
        // Unquoted label value.
        assert!(check_exposition("# TYPE x gauge\nx{l=1} 1\n").is_err());
        // Histogram family missing its +Inf bucket.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(check_exposition(no_inf).is_err());
        // Bad value.
        assert!(check_exposition("# TYPE x gauge\nx one\n").is_err());
    }

    #[test]
    fn name_sanitisation() {
        assert_eq!(sanitize_name("serve.request_ns"), "bikron_serve_request_ns");
        assert_eq!(sanitize_name("a-b/c"), "bikron_a_b_c");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }
}
