//! `perfbench` — one benchmark for bikron, end to end and layer by layer.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
//! bash perfbench/run.sh summarize RUNS.jsonl...
//! ```
//!
//! One invocation runs one workload (see [`WORKLOADS`]) and prints each
//! metric as `workload metric value unit`, then, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! ([`END_TO_END`]); with `--trace 1` they are the per-layer sweep
//! ([`PER_LAYER`]), and the run also writes the workload's full layer
//! table, its `/metrics` readings, folded profiles and a Chrome
//! trace to `.bench_trace/WORKLOAD-seedN/`. Every answer is checked; the
//! exit code is 1 when any was wrong or failed, 2 when the run could not
//! be set up. `summarize` prints the median and quartiles of each metric
//! over files of saved result lines. See `perfbench/BENCHMARK.md`.

mod client;
mod kron;
mod layers;
mod load;
mod procs;
mod stats;
mod truth;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Row;
use load::Load;
use procs::{Topology, SERVER_THREADS};
use truth::{body_hash, Mix, Trace, Truth, TABLE1_EDGES};

/// End-to-end metrics: every workload reports each, with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics: the in-process sweep every workload reports with
/// `--trace 1`. Live-server readings go to the trace directory only,
/// since not every workload runs a server or a router.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("core.effective_a_ms", "ms"),
    ("sparse.kron_ms", "ms"),
    ("graph.from_adjacency_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.ground_truth_ms", "ms"),
    ("core.par_stream_ms", "ms"),
    ("sparse.kron.output_nnz", "count"),
    ("sparse.kron.csr_bytes", "B"),
    ("sparse.spgemm.rows_multiplied", "count"),
    ("serve.http.parse_ns", "ns"),
    ("serve.handle_ns", "ns"),
    ("serve.http.write_ns", "ns"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.cache.hit_pct", "%"),
    ("core.vertex_squares_ns", "ns"),
    ("core.edge_squares_ns", "ns"),
    ("core.neighbors_page_ns", "ns"),
    ("core.chain.vertex_squares_ns", "ns"),
    ("core.chain.edge_squares_ns", "ns"),
];

/// How a workload drives bikron.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// In-process generation of the Table-I product.
    Kron,
    /// HTTP traffic against live servers.
    Serve {
        topology: Topology,
        mix: Mix,
        /// Requests in the generated trace (the loops wrap around it).
        trace_len: usize,
        /// Open-loop rate, requests per second.
        rate: f64,
    },
}

/// A named workload.
struct Workload {
    name: &'static str,
    kind: Kind,
}

/// The workloads. Open-loop rates are fixed, so that latency at a given
/// offered load compares across commits. On a 2-core machine the closed
/// loop answered 70k–120k GETs/s, 4,300 node batches/s and 2,600 cluster
/// batches/s; the batch rates are a quarter of that. The GET rate is
/// lower: at 20,000/s the open-loop sender, one request in flight per
/// connection, fell 60 ms behind whenever the machine slowed.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kron_table1",
        kind: Kind::Kron,
    },
    Workload {
        name: "node_get_zipf",
        kind: Kind::Serve {
            topology: Topology::Node,
            mix: Mix::Get { zipf: 1.1 },
            trace_len: 1 << 18,
            rate: 10_000.0,
        },
    },
    Workload {
        name: "node_batch_uniform",
        kind: Kind::Serve {
            topology: Topology::Node,
            mix: Mix::Batch { lines: 64 },
            trace_len: 1 << 13,
            rate: 1_000.0,
        },
    },
    Workload {
        name: "cluster_batch_uniform",
        kind: Kind::Serve {
            topology: Topology::Cluster,
            mix: Mix::Batch { lines: 64 },
            trace_len: 1 << 13,
            rate: 600.0,
        },
    },
];

/// Cold boots per serve run; their median is `setup_s`.
const SETUP_BOOTS: usize = 11;
/// The measured time of a serve run alternates closed- and open-loop
/// slices of this length, so both loops see the same stretch of a shared
/// machine, and each metric is the median over its slices.
const SLICE: Duration = Duration::from_secs(1);
/// Closed-loop warm-up before anything is measured.
const WARM_UP: Duration = Duration::from_secs(2);
/// Minimum timed iterations of `kron_table1`, however short `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answers, refusals, transport errors.
    pub failed: u64,
    /// Requests answered 200 with a wrong body.
    pub wrong: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// 0 when every operation succeeded with the right answer, else 1.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0 || self.wrong > 0)
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a run reports: the outcome plus, for traced runs, the full
/// layer table and the files for the trace directory.
struct Report {
    outcome: Outcome,
    /// Extra facts for `--out`: sample counts and the like.
    notes: Vec<(String, String)>,
    layers: Vec<Row>,
    files: Vec<(String, String)>,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
       perfbench summarize RUNS.jsonl...
workloads: kron_table1 node_get_zipf node_batch_uniform cluster_batch_uniform";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (42, 20, false, None);
    let mut i = 0;
    while i < raw.len() {
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", raw[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} expects a whole number, got {value:?}", raw[i]))
        };
        match raw[i].as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            // At least one closed and one open slice.
            "--seconds" => seconds = number()?.max(2),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u);
    Metric { name, value, unit }
}

/// Nearest-rank `p`-th percentile of nanosecond samples, in µs.
fn percentile_us(ns: &[u64], p: f64) -> (f64, stats::Percentile) {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let pct = stats::nearest_rank(&sorted, p).expect("at least one sample");
    (pct.value as f64 / 1e3, pct)
}

/// A percentile as `value (N samples, M beyond)`.
fn describe(value: f64, pct: stats::Percentile) -> String {
    format!("{value} ({} samples, {} beyond)", pct.samples, pct.beyond)
}

fn kron_run(args: &Args) -> Result<Report, String> {
    let truth = Truth::table1();
    if args.trace {
        // kron_table1 sends no requests; its sweep replays uniform GETs.
        let trace = Trace::generate(&truth, Mix::Get { zipf: 0.0 }, args.seed, 20_000);
        let (rows, tally) = layers::sweep(&truth, &trace)?;
        return Ok(Report {
            outcome: Outcome {
                attempted: tally.queries,
                failed: tally.failed,
                wrong: tally.wrong,
                metrics: sweep_metrics(&rows),
            },
            notes: Vec::new(),
            layers: rows,
            files: Vec::new(),
        });
    }
    let setups = (0..kron::SETUP_REPEATS)
        .map(|_| kron::time_to_ground_truth().map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    let prod =
        bikron_core::KroneckerProduct::new(&truth.a, &truth.a, bikron_core::SelfLoopMode::FactorA)
            .map_err(|e| e.to_string())?;
    kron::iterate(&prod)?; // warm-up
    let started = Instant::now();
    let mut iterations = Vec::new();
    while iterations.len() < MIN_ITERATIONS || started.elapsed() < Duration::from_secs(args.seconds)
    {
        iterations.push(kron::iterate(&prod)?);
    }
    let busy: f64 = iterations
        .iter()
        .map(|i| (i.build + i.stream).as_secs_f64())
        .sum();
    let latency: Vec<u64> = iterations
        .iter()
        .map(|i| (i.build + i.stream).as_nanos() as u64)
        .collect();
    let builds: Vec<f64> = iterations.iter().map(|i| i.build.as_secs_f64()).collect();
    let streams: Vec<f64> = iterations.iter().map(|i| i.stream.as_secs_f64()).collect();
    let (p50, _) = percentile_us(&latency, 50.0);
    let (p99, tail) = percentile_us(&latency, 99.0);
    let rss = procs::peak_rss_kib("/proc/self/status").ok_or("reading VmHWM")? as f64 / 1024.0;
    Ok(Report {
        outcome: Outcome {
            attempted: (kron::SETUP_REPEATS + 1 + iterations.len()) as u64,
            failed: 0,
            wrong: 0,
            metrics: vec![
                metric("setup_s", stats::median(&setups)),
                metric(
                    "ops_per_s",
                    TABLE1_EDGES as f64 * iterations.len() as f64 / busy,
                ),
                metric("p50_us", p50),
                metric("rss_mb", rss),
            ],
        },
        notes: vec![
            ("iterations".into(), iterations.len().to_string()),
            ("build_s_median".into(), stats::median(&builds).to_string()),
            (
                "stream_s_median".into(),
                stats::median(&streams).to_string(),
            ),
            ("iteration_p99_us".into(), describe(p99, tail)),
        ],
        layers: Vec::new(),
        files: Vec::new(),
    })
}

fn sweep_metrics(rows: &[Row]) -> Vec<Metric> {
    rows.iter()
        .filter(|r| PER_LAYER.iter().any(|(n, _)| *n == r.name))
        .map(|r| Metric {
            name: r.name,
            value: r.value,
            unit: r.unit,
        })
        .collect()
}

fn serve_run(
    args: &Args,
    topology: Topology,
    mix: Mix,
    trace_len: usize,
    rate: f64,
) -> Result<Report, String> {
    let truth = Truth::table1();
    let mut trace = Trace::generate(&truth, mix, args.seed, trace_len);
    let bin = procs::bikron_binary()?;
    if args.trace {
        return serve_traced(args, topology, &truth, trace, &bin, rate);
    }
    let mut boots = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUP_BOOTS {
        let (dep, took) = procs::boot(&bin, topology, &truth)?;
        boots.push(took.as_secs_f64());
        deployment = Some(dep); // the previous boot is torn down here
    }
    let dep = deployment.expect("at least one boot");
    trace.set_stats_hash(body_hash(dep.stats_body.as_bytes()));
    let mut load = Load::connect(&dep.front, &trace, &truth)?;
    let mut total = load.closed(WARM_UP, false);
    let (mut throughput, mut p50s) = (Vec::new(), Vec::new());
    let mut open = load::Phase::default();
    for slice in 0..args.seconds {
        if slice % 2 == 0 {
            let closed = load.closed(SLICE, false);
            throughput.push(closed.verified_per_s());
            total.merge(closed);
        } else {
            let phase = load.open(SLICE, rate);
            p50s.push(percentile_us(&phase.latency_ns, 50.0).0);
            open.merge(phase);
        }
    }
    let rss = dep.peak_rss_mib().ok_or("reading the servers' VmHWM")?;
    drop(load);
    drop(dep);
    let (p99, tail) = percentile_us(&open.latency_ns, 99.0);
    let (late_p99, late_tail) = percentile_us(&open.late_ns, 99.0);
    let notes = vec![
        ("open_loop_rate".to_string(), rate.to_string()),
        (
            "slices".into(),
            format!("{} closed, {} open", throughput.len(), p50s.len()),
        ),
        ("open_loop_p99_us".into(), describe(p99, tail)),
        ("harness_late_p99_us".into(), describe(late_p99, late_tail)),
    ];
    total.merge(open);
    Ok(Report {
        outcome: Outcome {
            attempted: total.queries,
            failed: total.failed,
            wrong: total.wrong,
            metrics: vec![
                metric("setup_s", stats::median(&boots)),
                metric("ops_per_s", stats::median(&throughput)),
                metric("p50_us", stats::median(&p50s)),
                metric("rss_mb", rss),
            ],
        },
        notes,
        layers: Vec::new(),
        files: Vec::new(),
    })
}

/// A traced serve run: the in-process sweep, then one boot with live
/// readings taken around a closed loop and an open loop, and a closed
/// loop that records a span per exchange (for the tracing overhead).
fn serve_traced(
    args: &Args,
    topology: Topology,
    truth: &Truth,
    mut trace: Trace,
    bin: &PathBuf,
    rate: f64,
) -> Result<Report, String> {
    let (mut rows, sweep) = layers::sweep(truth, &trace)?;
    let metrics = sweep_metrics(&rows);
    let (mut dep, _) = procs::boot(bin, topology, truth)?;
    let cluster = topology == Topology::Cluster;
    trace.set_stats_hash(body_hash(dep.stats_body.as_bytes()));
    let quarter = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let mut load = Load::connect(&dep.front, &trace, truth)?;
    let mut total = load.closed(WARM_UP, false);
    // Each server worker keeps one keep-alive connection until it closes,
    // so the load connections are closed before every reading.
    load.disconnect();
    let a = layers::scrape(&dep)?;
    let profile_a = if cluster {
        Vec::new()
    } else {
        layers::profiles(&dep)?
    };
    let closed = load.closed(quarter, false);
    load.disconnect();
    let b = layers::scrape(&dep)?;
    let profile_b = if cluster {
        Vec::new()
    } else {
        layers::profiles(&dep)?
    };
    let open = load.open(quarter, rate);
    load.disconnect();
    let c = layers::scrape(&dep)?;
    // Tracing overhead: untraced and traced closed-loop slices alternate,
    // so both see the same stretch of the machine.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for slice in 0..(args.seconds / 4).max(2) {
        let phase = load.closed(SLICE, slice % 2 == 1);
        let per_s = phase.verified_per_s();
        if slice % 2 == 1 {
            &mut traced
        } else {
            &mut plain
        }
        .push(per_s);
        total.merge(phase);
    }
    drop(load);
    rows.extend(layers::live(
        &layers::Window {
            before: &a,
            after: &b,
            queries: closed.queries,
        },
        &layers::Window {
            before: &b,
            after: &c,
            queries: open.queries,
        },
        open.mean_send_latency_us(),
        cluster,
    ));
    // The node's profile covers the closed loop alone. The shards are
    // reachable only once the router is gone, so theirs covers the run.
    let profiles = if cluster {
        dep.stop_router();
        layers::profiles(&dep)?
    } else {
        profile_b
            .iter()
            .zip(&profile_a)
            .map(|((name, after), (_, before))| (name.clone(), after.since(before)))
            .collect()
    };
    rows.extend(layers::profile_rows(&profiles));
    let (p99, tail) = percentile_us(&open.latency_ns, 99.0);
    let (late_p99, _) = percentile_us(&open.late_ns, 99.0);
    rows.extend([
        Row {
            name: "open_loop.p99_us",
            value: p99,
            unit: "us",
            moves: "tail latency; too noisy here to bound (see BENCHMARK.md)",
        },
        Row {
            name: "open_loop.p99_beyond",
            value: tail.beyond as f64,
            unit: "count",
            moves: "samples the p99 rests on",
        },
        Row {
            name: "harness.late_p99_us",
            value: late_p99,
            unit: "us",
            moves: "sender lateness, charged to p50_us and the p99",
        },
        Row {
            name: "harness.trace_overhead_pct",
            value: 100.0 * (1.0 - stats::median(&traced) / stats::median(&plain)),
            unit: "%",
            moves: "must stay near 0",
        },
    ]);
    if cluster {
        let (router_rows, probe) = layers::router_probe(&dep, truth, &trace)?;
        rows.extend(router_rows);
        total.merge(probe);
    }
    let mut files = vec![
        (
            "metrics_a_before_closed.json".to_string(),
            a.metrics_body.clone(),
        ),
        (
            "metrics_b_after_closed.json".to_string(),
            b.metrics_body.clone(),
        ),
        (
            "metrics_c_after_open.json".to_string(),
            c.metrics_body.clone(),
        ),
    ];
    for (name, profile) in &profiles {
        files.push((format!("profile_{name}.folded"), profile.to_folded()));
    }
    drop(dep);
    total.merge(closed);
    total.merge(open);
    total.merge(sweep);
    Ok(Report {
        outcome: Outcome {
            attempted: total.queries,
            failed: total.failed,
            wrong: total.wrong,
            metrics,
        },
        notes: vec![("open_loop_rate".into(), rate.to_string())],
        layers: rows,
        files,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        bikron_obs::trace::tracer().enable();
    }
    let report = match args.workload.kind {
        Kind::Kron => kron_run(args)?,
        Kind::Serve {
            topology,
            mix,
            trace_len,
            rate,
        } => serve_run(args, topology, mix, trace_len, rate)?,
    };
    // The result line must carry exactly the benchmark's metric names.
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = report.outcome.metrics.iter().map(|m| m.name).collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "internal: reported metrics {got:?}, expected {want:?}"
        ));
    }
    if let Some(m) = report.outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("internal: {} measured as {}", m.name, m.value));
    }
    Ok(report)
}

/// Write the traced run's files to `.bench_trace/WORKLOAD-seedN/`.
fn write_trace_dir(args: &Args, report: &Report) -> Result<PathBuf, String> {
    let dir =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}", args.workload.name, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: &str, body: &str| {
        std::fs::write(dir.join(name), body).map_err(|e| format!("writing {name}: {e}"))
    };
    let mut table = String::from("metric\tvalue\tunit\tmoves\n");
    for r in &report.layers {
        table.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            r.name, r.value, r.unit, r.moves
        ));
    }
    write("layers.tsv", &table)?;
    for (name, body) in &report.files {
        write(name, body)?;
    }
    bikron_obs::trace::tracer()
        .write_chrome_trace(&dir.join("trace.json"))
        .map_err(|e| format!("writing trace.json: {e}"))?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run as a JSON document, with the conditions it ran under.
fn out_document(args: &Args, report: &Report) -> String {
    let mut w = bikron_obs::JsonWriter::new();
    w.open_object();
    w.key("meta");
    w.open_object();
    w.string_field("workload", args.workload.name);
    w.u64_field("seed", args.seed);
    w.u64_field("seconds", args.seconds);
    w.bool_field("trace", args.trace);
    w.u64_field(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    w.u64_field("client_threads", load::CONNECTIONS as u64);
    w.u64_field("connections", load::CONNECTIONS as u64);
    w.u64_field("server_threads", SERVER_THREADS as u64);
    w.string_field("rustc", &command_line("rustc", &["--version"]));
    w.string_field("git_revision", &command_line("git", &["rev-parse", "HEAD"]));
    for (k, v) in &report.notes {
        w.string_field(k, v);
    }
    w.close_object();
    w.bool_field("correct", report.outcome.wrong == 0);
    w.u64_field("attempted", report.outcome.attempted);
    w.u64_field("failed", report.outcome.failed);
    w.f64_field(
        "error_pct",
        stats::error_pct(report.outcome.attempted, report.outcome.failed),
    );
    w.key("metrics");
    w.open_object();
    for m in &report.outcome.metrics {
        w.key(m.name);
        w.open_object();
        w.f64_field("value", m.value);
        w.string_field("unit", m.unit);
        w.close_object();
    }
    w.close_object();
    w.key("layers");
    w.open_array();
    for r in &report.layers {
        w.array_element();
        w.open_object();
        w.string_field("name", r.name);
        w.f64_field("value", r.value);
        w.string_field("unit", r.unit);
        w.string_field("moves", r.moves);
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Metric values of one result line, by name.
fn parse_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    let metrics = line
        .strip_prefix("{\"correct\": ")?
        .split_once("\"metrics\": {")?
        .1;
    metrics
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .trim_start_matches(", ")
                .split_once(": {\"value\": ")?;
            let value = rest.split(',').next()?.trim().parse().ok()?;
            Some((name.trim_matches('"').to_string(), value))
        })
        .collect()
}

/// `summarize FILE...`: for each file of saved result lines (one
/// workload's runs), the median, quartiles and spread of every metric.
fn summarize(files: &[String]) -> Result<(), String> {
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let runs: Vec<Vec<(String, f64)>> = text.lines().filter_map(parse_result_line).collect();
        println!("{file}: {} run(s)", runs.len());
        if runs.len() < 2 {
            continue;
        }
        for (name, _) in &runs[0] {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            println!(
                "  {name:<32} median {:>14.4}  q1 {:>14.4}  q3 {:>14.4}  spread {:>6.2}%",
                stats::median(&values),
                q1,
                q3,
                100.0 * stats::spread(&values),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("summarize") {
        return match summarize(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    if args.trace {
        match write_trace_dir(&args, &report) {
            Ok(dir) => eprintln!("perfbench: layer table and trace in {}", dir.display()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, out_document(&args, &report)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let name = args.workload.name;
    for (k, v) in &report.notes {
        eprintln!("perfbench: {name} {k} {v}");
    }
    eprintln!(
        "perfbench: {name} error_pct {} ({} of {} failed)",
        stats::error_pct(report.outcome.attempted, report.outcome.failed),
        report.outcome.failed,
        report.outcome.attempted
    );
    for m in &report.outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for r in report
        .layers
        .iter()
        .filter(|r| !PER_LAYER.iter().any(|(n, _)| *n == r.name))
    {
        println!("{name} {} {} {}", r.name, r.value, r.unit);
    }
    println!("{}", report.outcome.json());
    ExitCode::from(report.outcome.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        // The file holds float bounds, which the repository's JSON reader
        // does not take; each list is flat, so scan it as text.
        let names = |key: &str| -> Vec<(String, String)> {
            let list = text
                .split_once(&format!("\"{key}\": ["))
                .and_then(|(_, rest)| rest.split_once(']'))
                .expect(key)
                .0;
            let string = |entry: &str, field: &str| {
                entry
                    .split_once(&format!("\"{field}\": \""))
                    .and_then(|(_, rest)| rest.split_once('"'))
                    .map_or(String::new(), |(v, _)| v.to_string())
            };
            list.split('}')
                .filter(|entry| entry.contains("\"name\""))
                .map(|entry| (string(entry, "name"), string(entry, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let own_workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn result_lines_round_trip() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            wrong: 0,
            metrics: vec![metric("setup_s", 0.8127), metric("p50_us", 31.5)],
        };
        let line = outcome.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"p50_us\": {\"value\": 31.5, \"unit\": \"us\"}}}"
        );
        assert_eq!(
            parse_result_line(&line).unwrap(),
            vec![
                ("setup_s".to_string(), 0.8127),
                ("p50_us".to_string(), 31.5)
            ]
        );
        assert!(parse_result_line("node_get_zipf p50_us 31.5 us").is_none());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&raw(
            "--workload node_get_zipf --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("node_get_zipf", 7, 3, true)
        );
        assert!(parse_args(&raw("--workload nope")).is_err());
        assert!(parse_args(&raw("--seed 1")).is_err());
        assert!(parse_args(&raw("--workload kron_table1 --trace 2")).is_err());
        assert!(parse_args(&raw("--workload kron_table1 --seed")).is_err());
    }
}
