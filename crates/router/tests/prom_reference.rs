//! The one Prometheus renderer against the two it replaced.
//!
//! `bikron_obs::prom::write_families` renders a router's own report
//! (through `to_prometheus`) and its replicas' reports with a
//! `shard="i"` label. Before it, the router carried a second renderer
//! for the labelled families. Both old renderers are kept here,
//! frozen, as the oracle: over random reports the new output must be
//! byte-identical to theirs, and must pass `check_exposition`.

use bikron_obs::prom::{
    check_exposition, escape_label_value, sanitize_name, to_prometheus, write_families,
};
use bikron_obs::window::{WindowKind, WindowRegistry, WindowStats};
use bikron_obs::{Registry, Report, TimerSnapshot};
use proptest::prelude::*;

/// The renderers as they were before `write_families`, unchanged but
/// for the names of their line helpers.
mod reference {
    use super::*;
    use std::collections::BTreeSet;

    fn type_decl(out: &mut String, name: &str, kind: &str) {
        out.push_str("# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
    }

    fn sample_line(out: &mut String, name: &str, labels: &str, value: u64) {
        out.push_str(name);
        out.push_str(labels);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    fn window_gauge(
        out: &mut String,
        name: &str,
        pick: impl Fn(&WindowStats) -> u64,
        windows: [(&str, &WindowStats); 2],
    ) {
        type_decl(out, name, "gauge");
        for (label, stats) in windows {
            sample_line(out, name, &format!("{{window=\"{label}\"}}"), pick(stats));
        }
    }

    fn sanitize_label(name: &str) -> String {
        let mut out: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            out.insert(0, '_');
        }
        out
    }

    /// `bikron_obs::prom::to_prometheus` before the change.
    pub fn to_prometheus(report: &Report) -> String {
        let mut out = String::new();
        let meta: Vec<(String, String)> = report
            .meta_pairs()
            .map(|(k, v)| (sanitize_label(k), escape_label_value(v)))
            .collect();
        type_decl(&mut out, "bikron_report_info", "gauge");
        if meta.is_empty() {
            sample_line(&mut out, "bikron_report_info", "", 1);
        } else {
            let labels = meta
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect::<Vec<_>>()
                .join(",");
            sample_line(&mut out, "bikron_report_info", &format!("{{{labels}}}"), 1);
        }
        for (name, value) in report.counters() {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "counter");
            sample_line(&mut out, &n, "", value);
        }
        for (name, (value, peak)) in report.gauges() {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "gauge");
            sample_line(&mut out, &n, "", value);
            let peak_name = format!("{n}_peak");
            type_decl(&mut out, &peak_name, "gauge");
            sample_line(&mut out, &peak_name, "", peak);
        }
        for (name, t) in report.timers() {
            let n = sanitize_name(name);
            let count_name = format!("{n}_count");
            type_decl(&mut out, &count_name, "counter");
            sample_line(&mut out, &count_name, "", t.count);
            let total_name = format!("{n}_ns_total");
            type_decl(&mut out, &total_name, "counter");
            sample_line(&mut out, &total_name, "", t.total_ns);
        }
        for (name, h) in report.histograms() {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "histogram");
            let mut cumulative = 0u64;
            for &(le, count) in &h.buckets {
                cumulative += count;
                sample_line(&mut out, &n, &format!("_bucket{{le=\"{le}\"}}"), cumulative);
            }
            sample_line(&mut out, &n, "_bucket{le=\"+Inf\"}", h.count);
            sample_line(&mut out, &n, "_sum", h.sum);
            sample_line(&mut out, &n, "_count", h.count);
        }
        for (name, w) in report.windows() {
            let n = sanitize_name(name);
            let windows = [("1m", &w.w1m), ("5m", &w.w5m)];
            window_gauge(
                &mut out,
                &format!("{n}_rate_per_sec"),
                |s| s.rate_per_sec,
                windows,
            );
            window_gauge(&mut out, &format!("{n}_window_count"), |s| s.count, windows);
            if w.kind == WindowKind::Histogram {
                for (suffix, pick) in [
                    (
                        "_window_p50",
                        (|s: &WindowStats| s.p50) as fn(&WindowStats) -> u64,
                    ),
                    ("_window_p90", |s| s.p90),
                    ("_window_p99", |s| s.p99),
                ] {
                    window_gauge(&mut out, &format!("{n}{suffix}"), pick, windows);
                }
            }
        }
        out
    }

    type TimerPick = fn(&TimerSnapshot) -> u64;
    type WindowPick = fn(&WindowStats) -> u64;

    /// `bikron_router::shard_labelled_exposition` before the change.
    pub fn shard_labelled_exposition(shards: &[(usize, &Report)]) -> String {
        let mut out = String::new();
        let labels = |shard: usize| format!("{{shard=\"{shard}\"}}");

        let mut names: BTreeSet<&str> = BTreeSet::new();
        names.extend(
            shards
                .iter()
                .flat_map(|(_, r)| r.counters().map(|(n, _)| n)),
        );
        for name in std::mem::take(&mut names) {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "counter");
            for (shard, report) in shards {
                if let Some(v) = report.counter(name) {
                    sample_line(&mut out, &n, &labels(*shard), v);
                }
            }
        }

        names.extend(shards.iter().flat_map(|(_, r)| r.gauges().map(|(n, _)| n)));
        for name in std::mem::take(&mut names) {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "gauge");
            for (shard, report) in shards {
                if let Some((v, _)) = report.gauge(name) {
                    sample_line(&mut out, &n, &labels(*shard), v);
                }
            }
            let peak_name = format!("{n}_peak");
            type_decl(&mut out, &peak_name, "gauge");
            for (shard, report) in shards {
                if let Some((_, peak)) = report.gauge(name) {
                    sample_line(&mut out, &peak_name, &labels(*shard), peak);
                }
            }
        }

        names.extend(shards.iter().flat_map(|(_, r)| r.timers().map(|(n, _)| n)));
        for name in std::mem::take(&mut names) {
            let n = sanitize_name(name);
            let picks: [(&str, TimerPick); 2] =
                [("_count", |t| t.count), ("_ns_total", |t| t.total_ns)];
            for (suffix, pick) in picks {
                let family = format!("{n}{suffix}");
                type_decl(&mut out, &family, "counter");
                for (shard, report) in shards {
                    if let Some(t) = report.timer(name) {
                        sample_line(&mut out, &family, &labels(*shard), pick(t));
                    }
                }
            }
        }

        names.extend(
            shards
                .iter()
                .flat_map(|(_, r)| r.histograms().map(|(n, _)| n)),
        );
        for name in std::mem::take(&mut names) {
            let n = sanitize_name(name);
            type_decl(&mut out, &n, "histogram");
            for (shard, report) in shards {
                let Some(h) = report.histogram(name) else {
                    continue;
                };
                let mut cumulative = 0u64;
                for &(le, count) in &h.buckets {
                    cumulative += count;
                    sample_line(
                        &mut out,
                        &n,
                        &format!("_bucket{{le=\"{le}\",shard=\"{shard}\"}}"),
                        cumulative,
                    );
                }
                sample_line(
                    &mut out,
                    &n,
                    &format!("_bucket{{le=\"+Inf\",shard=\"{shard}\"}}"),
                    h.count,
                );
                sample_line(&mut out, &format!("{n}_sum"), &labels(*shard), h.sum);
                sample_line(&mut out, &format!("{n}_count"), &labels(*shard), h.count);
            }
        }

        names.extend(shards.iter().flat_map(|(_, r)| r.windows().map(|(n, _)| n)));
        for name in std::mem::take(&mut names) {
            let n = sanitize_name(name);
            let any_histogram = shards
                .iter()
                .filter_map(|(_, r)| r.window(name))
                .any(|w| w.kind == WindowKind::Histogram);
            let mut families: Vec<(String, WindowPick)> = vec![
                (format!("{n}_rate_per_sec"), |s| s.rate_per_sec),
                (format!("{n}_window_count"), |s| s.count),
            ];
            if any_histogram {
                families.push((format!("{n}_window_p50"), |s| s.p50));
                families.push((format!("{n}_window_p90"), |s| s.p90));
                families.push((format!("{n}_window_p99"), |s| s.p99));
            }
            for (family, pick) in families {
                type_decl(&mut out, &family, "gauge");
                for (shard, report) in shards {
                    let Some(w) = report.window(name) else {
                        continue;
                    };
                    for (label, stats) in [("1m", &w.w1m), ("5m", &w.w5m)] {
                        sample_line(
                            &mut out,
                            &family,
                            &format!("{{window=\"{label}\",shard=\"{shard}\"}}"),
                            pick(stats),
                        );
                    }
                }
            }
        }

        out
    }
}

/// One recorded value: `(kind, name, value)`. Kinds: counter, gauge
/// (set), gauge (raised then lowered, so its peak differs), timer,
/// histogram, windowed counter, windowed histogram. Each kind has its
/// own names, so no two families collide within one report.
type Op = (u64, u64, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..7, 0u64..4, 0u64..2_000_000), 0..=24)
}

/// A report of the series `ops` records, each named under `prefix`.
fn report_of(prefix: &str, ops: &[Op]) -> Report {
    let base = Registry::new();
    let windows = WindowRegistry::new();
    for &(kind, name, value) in ops {
        // One name per kind needs sanitising (`-` → `_`).
        let name = if name == 3 {
            "x-y".to_string()
        } else {
            name.to_string()
        };
        match kind {
            0 => base.counter(&format!("{prefix}.c{name}")).add(value),
            1 => base.gauge(&format!("{prefix}.g{name}")).set(value),
            2 => {
                let gauge = base.gauge(&format!("{prefix}.g{name}"));
                gauge.raise(value);
                gauge.lower(value / 2);
            }
            3 => base.timer(&format!("{prefix}.t{name}")).record_ns(value),
            4 => base.histogram(&format!("{prefix}.h{name}")).record(value),
            5 => windows
                .counter(&base, &format!("{prefix}.wc{name}"))
                .add(value),
            _ => windows
                .histogram(&base, &format!("{prefix}.wh{name}"))
                .record(value),
        }
    }
    let mut report = base.snapshot();
    windows.snapshot_into(&mut report);
    report
}

/// The new rendering of a router scrape: the router's own report, then
/// every reachable replica's families labelled `shard="i"`.
fn render(own: &Report, shards: &[(usize, &Report)]) -> String {
    let mut out = to_prometheus(own);
    let labelled: Vec<(String, &Report)> = shards
        .iter()
        .map(|&(i, r)| (format!("shard=\"{i}\""), r))
        .collect();
    write_families(&mut out, &labelled);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random own and replica reports, some replicas unreachable and
    /// every family missing from some replicas: the one renderer emits
    /// exactly the bytes of the two it replaced, and they parse.
    #[test]
    fn one_renderer_matches_the_two_it_replaced(
        own_ops in arb_ops(),
        shard_ops in proptest::collection::vec((0u64..4, arb_ops()), 0..=4),
        meta in 0u64..3,
    ) {
        let mut own = report_of("router", &own_ops);
        if meta > 0 {
            own.set_meta("tool", "bikron-router");
        }
        if meta > 1 {
            own.set_meta("shard0.addr", "a\\b \"q\"\nline");
        }
        let reports: Vec<(usize, Report)> = shard_ops
            .iter()
            .enumerate()
            // One replica in four is unreachable: no report, no samples.
            .filter(|(_, (down, _))| *down != 0)
            .map(|(i, (_, ops))| (i, report_of("serve", ops)))
            .collect();
        let shards: Vec<(usize, &Report)> = reports.iter().map(|(i, r)| (*i, r)).collect();

        prop_assert_eq!(to_prometheus(&own), reference::to_prometheus(&own));
        let text = render(&own, &shards);
        let mut expected = reference::to_prometheus(&own);
        expected.push_str(&reference::shard_labelled_exposition(&shards));
        prop_assert_eq!(&text, &expected);
        if let Err(e) = check_exposition(&text) {
            return Err(TestCaseError::fail(format!("{e}\n{text}")));
        }
    }
}

/// A worked example: two replicas after the router's own series.
#[test]
fn labelled_families_follow_the_router_own_and_pass_the_checker() {
    let replica = |requests: u64| {
        let ops = [(5, 0, requests), (6, 1, 1000), (1, 2, 2)];
        report_of("serve", &ops)
    };
    let (a, b) = (replica(10), replica(20));
    let mut own = report_of("router", &[(0, 0, 1)]);
    own.set_meta("tool", "bikron-router");
    let text = render(&own, &[(0, &a), (1, &b)]);
    check_exposition(&text).unwrap();
    assert!(text.contains("bikron_serve_wc0{shard=\"0\"} 10"));
    assert!(text.contains("bikron_serve_wc0{shard=\"1\"} 20"));
    assert!(text.contains("bikron_serve_wh1_bucket{le=\"+Inf\",shard=\"1\"} 1"));
    assert!(text.contains("bikron_serve_wc0_rate_per_sec{window=\"1m\",shard=\"0\"}"));
    // Exactly one TYPE line per family across both replicas.
    assert_eq!(text.matches("# TYPE bikron_serve_wc0 counter").count(), 1);
}
