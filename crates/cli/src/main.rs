//! The `bikron` command-line tool.
//!
//! ```text
//! bikron stats    A_SPEC B_SPEC MODE
//! bikron factor   SPEC
//! bikron generate A_SPEC B_SPEC MODE --out PREFIX [--parts N] [--annotate]
//! bikron validate A_SPEC B_SPEC MODE CLAIMED_GLOBAL_4CYCLES
//! bikron parts    A_SPEC B_SPEC MODE
//! bikron serve    A_SPEC B_SPEC MODE [--addr HOST:PORT] [--threads N] [--queue N] [--admin-token TOK]
//! bikron serve    --expr "EXPR" NAME=SPEC... [same flags]
//! bikron router   --shards URL,URL,... [--addr HOST:PORT] [--replicate-stats]
//! bikron promcheck FILE
//! bikron monitor  URL [--interval SEC] [--once] [--top K]
//! bikron trace    URL [--min-ms N] [--top K] [--token TOKEN]
//! bikron profile  URL [--seconds N] [--top K] [--token TOKEN]
//! bikron perfdiff BASELINE.json CANDIDATE.json [--threshold PCT] [--warn-only] [--watch P1,P2]
//! bikron perfdiff --profile BASE.folded CAND.folded [--threshold PCT] [--warn-only] [--watch F1,F2]
//! bikron --version
//! ```
//!
//! `MODE` is `none` (`C = A ⊗ B`, Assump. 1(i)) or `loops-a`
//! (`C = (A+I_A) ⊗ B`, Assump. 1(ii)). See `bikron help` for factor specs.

use std::process::ExitCode;

use bikron_cli::{commands, split_global_flags, Outcome, PerfDiffConfig};
use bikron_cli::{parse_factor, parse_mode, perfdiff_files, write_observability};

const USAGE: &str = "\
bikron — bipartite Kronecker graphs with ground truth

USAGE:
  bikron stats    A_SPEC B_SPEC MODE
  bikron factor   SPEC
  bikron generate A_SPEC B_SPEC MODE --out PREFIX [--parts N] [--annotate]
  bikron validate A_SPEC B_SPEC MODE CLAIMED_COUNT
  bikron parts    A_SPEC B_SPEC MODE
  bikron verify-file FILE.tsv
  bikron serve    A_SPEC B_SPEC MODE [--addr HOST:PORT] [--threads N]
                  [--queue N] [--admin-token TOKEN] [--cache-entries N]
                  [--cache-shards N] [--batch-max K] [--access-log FILE]
                  [--log-sample N] [--slo-p99-ms MS] [--slo-err-pct PCT]
                  [--trace-slow-ms MS] [--trace-sample N]
                  [--snapshot-in FILE] [--snapshot-out FILE]
                  [--snapshot-lenient]
  bikron serve    --expr \"EXPR\" NAME=SPEC... [same flags as serve]
  bikron replay   ACCESS_LOG URL [--speed X] [--max-rps N] [--count K]
                  [--seed N] [--label NAME] [--out FILE] [--dry-run]
  bikron router   --shards URL[,URL...] [--addr HOST:PORT] [--threads N]
                  [--queue N] [--batch-max K] [--replicate-stats]
                  [--upstream-timeout-ms MS] [--admin-token TOKEN]
  bikron promcheck FILE
  bikron monitor  URL [--interval SEC] [--once] [--top K]
  bikron trace    URL [--min-ms N] [--top K] [--token TOKEN]
  bikron profile  URL [--seconds N] [--top K] [--token TOKEN]
  bikron perfdiff BASELINE.json CANDIDATE.json
                  [--threshold PCT] [--warn-only] [--watch PHASE[,PHASE...]]
  bikron perfdiff --profile BASE.folded CAND.folded
                  [--threshold PCT] [--warn-only] [--watch FRAME[,FRAME...]]
  bikron --version | -V

GLOBAL OPTIONS (any position, --flag VALUE or --flag=VALUE, last wins):
  --metrics-out FILE   write a bikron-obs/4 JSON metrics report (phase
                       timers, counters, gauges, histograms, rolling
                       windows, sampled profile) after the command
                       completes
  --trace-out FILE     record phase spans and write a Chrome trace_event
                       JSON file, viewable in chrome://tracing or
                       https://ui.perfetto.dev
  --profile-out FILE   write the sampled CPU profile as a folded
                       flamegraph file on exit (feed to flamegraph.pl or
                       speedscope; implies sampling at the default rate)
  --profile-hz N       wall-clock sampling rate. serve and router sample
                       at 99 Hz by default; batch commands only sample
                       when --profile-out or --profile-hz is given.
                       0 disables sampling everywhere

SERVE:
  Runs a long-lived HTTP/1.1 ground-truth query service over the factor
  graphs (default 127.0.0.1:7474). Endpoints: /v1/vertex/{p},
  /v1/edge/{p}/{q}, /v1/neighbors/{p}, POST /v1/batch (newline-delimited
  `vertex P` / `edge P Q` / `neighbors P [OFFSET [LIMIT]]` lines, up to
  --batch-max per request, answered as one JSON array), /v1/stats,
  /v1/edges/{part}/{parts}, /metrics, and /v1/shutdown (requires
  --admin-token). A sharded LRU result cache (--cache-entries, default
  65536; 0 disables) fronts the per-vertex/per-edge/neighbors answers —
  they are immutable ground truth, so cached entries never go stale.
  /metrics serves JSON (add ?format=prometheus for text exposition);
  /v1/health reports ok|degraded from rolling 1m/5m SLO windows
  (--slo-p99-ms, --slo-err-pct). --access-log FILE appends one JSON
  line per request (--log-sample N keeps every Nth per target).
  Stop with ctrl-c.

  Every request gets a trace id: an inbound W3C `traceparent` header is
  adopted (the server's root span joins the caller's trace), otherwise
  ids are minted. The id is echoed in the `x-bikron-trace-id` response
  header and embedded in error bodies. --trace-slow-ms MS additionally
  captures the full span tree of every request slower than MS
  (tail-based sampling); --trace-sample N head-samples 1-in-N requests.
  Captured traces are served by the token-gated GET /v1/admin/traces
  and rendered by `bikron trace`. A 99 Hz wall-clock sampler (see
  --profile-hz) attributes CPU time to request phases; the token-gated
  GET /v1/admin/profile serves the accumulated (or ?seconds=N windowed)
  profile as JSON or ?format=folded flamegraph stacks, rendered by
  `bikron profile`.

  With --expr, the server answers queries about an arbitrary Kronecker
  program instead of a single pair: EXPR is a chain of named factors
  joined by `⊗` (or `kron`/`*`), with `(NAME+I)` lifting one level by
  the identity and `NAME^{⊗k}` abbreviating a k-fold tower. Every name
  in EXPR must be bound by a NAME=SPEC argument. Expression servers add
  /v1/clustering/{p}/{q} (Thm 6), /v1/community?s0=..&s1=.. (Thm 7) and
  /v1/scatter/degree-squares, and report the canonicalised expression
  in /v1/stats. Example:
    bikron serve --expr \"(A+I)⊗B⊗C\" A=cycle:5 B=kmn:2x3 C=crown:3

ROUTER:
  Fronts a sharded serve cluster (default 127.0.0.1:7070). Start N shard
  processes over the SAME factors, each with --shard I/N, then point the
  router at them in shard order:
    bikron serve A B MODE --shard 0/3 --addr 127.0.0.1:7481 &
    bikron serve A B MODE --shard 1/3 --addr 127.0.0.1:7482 &
    bikron serve A B MODE --shard 2/3 --addr 127.0.0.1:7483 &
    bikron router --shards 127.0.0.1:7481,127.0.0.1:7482,127.0.0.1:7483
  Shard I owns product vertices [I*ceil(n/N), (I+1)*ceil(n/N)). Keyed
  reads relay to the owner byte-identically; POST /v1/batch is split per
  owning shard, fanned out concurrently, and reassembled in request
  order; /metrics aggregates every shard's report (shard{i}.* keys in
  JSON, shard=\"i\" labels in ?format=prometheus); /v1/health reports the
  worst shard verdict with a per-shard detail array. A dead shard yields
  503 (with Retry-After) only for its own key range after one retry on a
  fresh connection. --replicate-stats serves /v1/stats from a copy
  fetched at startup instead of proxying. At startup each shard must
  self-identify as shard I/N via /v1/health (catching a shuffled
  --shards list) and serve identical /v1/stats (catching mismatched
  factors).

SNAPSHOTS (bikron-snap/1):
  --snapshot-out FILE writes a versioned binary snapshot (factor CSRs,
  FactorStats, the /v1/stats body, and the hottest result-cache
  entries, each section checksummed) after a graceful shutdown.
  --snapshot-in FILE warm-starts from one: factor statistics are
  decoded instead of recomputed and the cache boots primed; /v1/stats
  reports \"snapshot\": \"warm\". A snapshot for a different expression,
  different factor graphs, a future schema version, or a corrupted
  file is rejected at boot — pass --snapshot-lenient to log the
  rejection and boot cold instead. Works with --shard I/N (restored
  cache entries are filtered to the shard's owned keys).

REPLAY:
  Re-issues a recorded access log (the JSON-lines file --access-log
  writes) against a live server — for cache warming after a deploy,
  capacity planning, or realistic benchmarking. Numeric path segments
  were normalised to {n} at record time; replay re-materialises them
  with seeded, deterministic vertex samples drawn from the target's
  /v1/stats vertex count. --speed X scales recorded inter-arrival
  gaps (2 = twice as fast; 0 = no pacing); --max-rps N caps the rate;
  --count K stops after K requests; --dry-run parses and plans
  without connecting. Reports replayed/skipped/error counts and
  p50/p99 latency, and with --out writes a BENCH_-style metrics
  report (replay.* keys).

PROMCHECK:
  Validates a Prometheus text-exposition file (e.g. a saved /metrics
  scrape) against the format rules this workspace emits; exits non-zero
  with a line-numbered error on the first violation. CI runs this over
  live single-node and cluster scrapes.

MONITOR:
  Polls URL/metrics every --interval seconds (default 2) and redraws a
  live dashboard: windowed + cumulative request rates, p50/p90/p99
  latency, status mix, cache hit-rate, in-flight requests, profile
  sample counts, dropped spans/log lines/profile samples (flagged when
  nonzero), hottest histograms (--top K). --once prints one
  machine-readable `key value` snapshot and exits.

TRACE:
  Fetches the span trees a server captured (see --trace-slow-ms /
  --trace-sample above) from GET /v1/admin/traces and renders each as
  an indented waterfall: accept → parse → evaluate (with cache /
  serialize / per-batch-item children and their hit/miss outcomes) →
  write. --min-ms N keeps only traces at least that slow; --top K
  limits how many are shown (newest first). The endpoint is gated by
  the server's --admin-token; pass it with --token.

PROFILE:
  Fetches a sampled CPU profile from the token-gated
  GET /v1/admin/profile (serve or router — the router profiles itself)
  and renders a top-table: self and cumulative sample share per phase
  path, hottest self time first. --seconds N asks the server to sample
  a fresh N-second window (max 30); the default 0 returns everything
  since the sampler started. Servers sample at 99 Hz unless started
  with --profile-hz 0. Add ?format=folded to the endpoint (e.g. via
  curl) for raw flamegraph-ready folded stacks.

PERFDIFF:
  Compares two metrics reports (schema v1 through v4) and exits
  non-zero when a watched phase's total wall-clock regressed beyond the
  threshold (default 25%). Counters and histogram tails are shown as
  context. With --profile, compares two folded-flamegraph files (from
  --profile-out or /v1/admin/profile?format=folded) by per-frame
  self-time *share* instead, so differently-long runs diff cleanly;
  a watched frame growing beyond the threshold (and by at least one
  percentage point) fails the gate.

MODE: none | loops-a

FACTOR SPECS:
  path:N cycle:N star:N complete:N kmn:MxN crown:N hypercube:D
  grid:MxN wheel:N petersen unicode[:SEED] powerlaw:SEED
  file:PATH konect:PATH
";

fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, opts) = split_global_flags(&raw)?;
    if opts.trace_out.is_some() {
        bikron_obs::trace::tracer().enable();
    }
    // Sampler lifecycle: long-running servers profile by default (the
    // publication path costs one atomic store per phase transition, and
    // nothing is rendered until someone scrapes /v1/admin/profile);
    // batch commands sample only when asked. --profile-hz 0 forces off
    // everywhere. The handle's Drop stops the thread after the
    // observability files (which read the accumulated table) are
    // written.
    let default_on = matches!(
        args.first().map(String::as_str),
        Some("serve") | Some("router")
    );
    let hz = opts.profile_hz.unwrap_or(if default_on || opts.profile_out.is_some() {
        bikron_obs::profile::DEFAULT_HZ
    } else {
        0
    });
    let _sampler = (hz > 0)
        .then(|| bikron_obs::profile::start_sampler(hz))
        .flatten();
    let result = dispatch(&args);
    // Write the report on the error path too (stamped `outcome: error`):
    // a failed run's timers and counters are debugging evidence, not
    // something to discard. An observability write failure must not mask
    // the command's own error.
    let outcome = if result.is_ok() {
        Outcome::Ok
    } else {
        Outcome::Error
    };
    match write_observability(&opts, &raw, outcome) {
        Ok(()) => result,
        Err(obs_err) => match result {
            Ok(_) => Err(obs_err),
            Err(e) => {
                eprintln!("warning: observability output failed: {obs_err}");
                Err(e)
            }
        },
    }
}

/// Parse `serve`'s flags from its argument tail.
fn parse_serve_config(
    args: &[String],
) -> Result<
    (
        bikron_serve::ServerConfig,
        bikron_serve::ServeOptions,
        commands::SnapshotOptions,
    ),
    Box<dyn std::error::Error>,
> {
    let mut config = bikron_serve::ServerConfig {
        addr: "127.0.0.1:7474".to_string(),
        ..bikron_serve::ServerConfig::default()
    };
    let mut options = bikron_serve::ServeOptions::default();
    let mut snapshot = commands::SnapshotOptions::default();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("serve: {} requires a value", args[i]))
        };
        let parse_num = |i: usize, what: &str| -> Result<usize, String> {
            need_value(i)?
                .parse()
                .map_err(|e| format!("serve: bad {what}: {e}"))
        };
        match args[i].as_str() {
            "--addr" => config.addr = need_value(i)?,
            "--threads" => config.threads = parse_num(i, "--threads")?,
            "--queue" => config.queue_capacity = parse_num(i, "--queue")?,
            "--admin-token" => options.admin_token = Some(need_value(i)?),
            "--cache-entries" => options.cache_entries = parse_num(i, "--cache-entries")?,
            "--cache-shards" => options.cache_shards = parse_num(i, "--cache-shards")?,
            "--batch-max" => options.batch_max = parse_num(i, "--batch-max")?,
            "--access-log" => options.access_log = Some(need_value(i)?),
            "--log-sample" => options.log_sample = parse_num(i, "--log-sample")? as u64,
            "--slo-p99-ms" => options.slo_p99_ms = parse_num(i, "--slo-p99-ms")? as u64,
            "--slo-err-pct" => options.slo_err_pct = parse_num(i, "--slo-err-pct")? as u64,
            "--trace-slow-ms" => options.trace_slow_ms = parse_num(i, "--trace-slow-ms")? as u64,
            "--trace-sample" => options.trace_sample = parse_num(i, "--trace-sample")? as u64,
            "--shard" => {
                let v = need_value(i)?;
                let (index, count) = v
                    .split_once('/')
                    .ok_or_else(|| format!("serve: --shard expects I/N, got {v:?}"))?;
                let index: usize = index
                    .parse()
                    .map_err(|e| format!("serve: bad --shard index: {e}"))?;
                let count: usize = count
                    .parse()
                    .map_err(|e| format!("serve: bad --shard count: {e}"))?;
                options.shard = Some((index, count));
            }
            "--snapshot-in" => snapshot.snapshot_in = Some(need_value(i)?),
            "--snapshot-out" => snapshot.snapshot_out = Some(need_value(i)?),
            "--snapshot-lenient" => {
                snapshot.lenient = true;
                i += 1;
                continue;
            }
            other => return Err(format!("serve: unknown argument {other:?}").into()),
        }
        i += 2;
    }
    Ok((config, options, snapshot))
}

/// Parse `router`'s flags from its argument tail. Returns the shard URL
/// list (in ownership order) plus transport and routing options.
fn parse_router_config(
    args: &[String],
) -> Result<
    (
        Vec<String>,
        bikron_serve::ServerConfig,
        bikron_router::RouterOptions,
    ),
    Box<dyn std::error::Error>,
> {
    let mut shards: Vec<String> = Vec::new();
    let mut config = bikron_serve::ServerConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..bikron_serve::ServerConfig::default()
    };
    let mut options = bikron_router::RouterOptions::default();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("router: {} requires a value", args[i]))
        };
        let parse_num = |i: usize, what: &str| -> Result<usize, String> {
            need_value(i)?
                .parse()
                .map_err(|e| format!("router: bad {what}: {e}"))
        };
        match args[i].as_str() {
            "--shards" => {
                shards = need_value(i)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--addr" => config.addr = need_value(i)?,
            "--threads" => config.threads = parse_num(i, "--threads")?,
            "--queue" => config.queue_capacity = parse_num(i, "--queue")?,
            "--admin-token" => options.admin_token = Some(need_value(i)?),
            "--batch-max" => options.batch_max = parse_num(i, "--batch-max")?,
            "--upstream-timeout-ms" => {
                options.upstream_timeout =
                    std::time::Duration::from_millis(parse_num(i, "--upstream-timeout-ms")? as u64)
            }
            "--replicate-stats" => {
                options.replicate_stats = true;
                i += 1;
                continue;
            }
            other => return Err(format!("router: unknown argument {other:?}").into()),
        }
        i += 2;
    }
    if shards.is_empty() {
        return Err("router requires --shards URL[,URL...]".into());
    }
    Ok((shards, config, options))
}

/// Parse `perfdiff`'s own flags from its argument tail.
fn parse_perfdiff_config(args: &[String]) -> Result<PerfDiffConfig, Box<dyn std::error::Error>> {
    let mut cfg = PerfDiffConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--warn-only" => i += 1,
            "--threshold" | "--watch" => i += 2,
            other => return Err(format!("perfdiff: unknown argument {other:?}").into()),
        }
    }
    if args.iter().any(|a| a == "--warn-only") {
        cfg.warn_only = true;
    }
    let flag_val = |name: &str| {
        args.iter()
            .rposition(|x| x == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(t) = flag_val("--threshold") {
        cfg.threshold_pct = t
            .parse()
            .map_err(|e| format!("perfdiff: bad --threshold {t:?}: {e}"))?;
    }
    if let Some(w) = flag_val("--watch") {
        cfg.watch = Some(w.split(',').map(|s| s.trim().to_string()).collect());
    }
    Ok(cfg)
}

fn dispatch(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let mut out = std::io::stdout().lock();
    match args.first().map(String::as_str) {
        Some("stats") if args.len() >= 4 => {
            let a = parse_factor(&args[1])?;
            let b = parse_factor(&args[2])?;
            commands::stats(&a, &b, parse_mode(&args[3])?, &mut out)?;
            Ok(true)
        }
        Some("factor") if args.len() >= 2 => {
            let g = parse_factor(&args[1])?;
            commands::factor_report(&g, &mut out)?;
            Ok(true)
        }
        Some("generate") if args.len() >= 4 => {
            let a = parse_factor(&args[1])?;
            let b = parse_factor(&args[2])?;
            let mode = parse_mode(&args[3])?;
            let flag_val = |name: &str| {
                args.iter()
                    .position(|x| x == name)
                    .and_then(|i| args.get(i + 1))
                    .cloned()
            };
            let prefix = flag_val("--out").ok_or("generate requires --out PREFIX")?;
            let parts: usize = flag_val("--parts").map_or(Ok(1), |s| s.parse())?;
            let annotate = args.iter().any(|x| x == "--annotate");
            let total = commands::generate(&a, &b, mode, parts, &prefix, annotate, &mut out)?;
            println!("total: {total} edges");
            Ok(true)
        }
        Some("validate") if args.len() >= 5 => {
            let a = parse_factor(&args[1])?;
            let b = parse_factor(&args[2])?;
            let mode = parse_mode(&args[3])?;
            let claimed: u64 = args[4].parse()?;
            commands::validate(&a, &b, mode, claimed, &mut out)
        }
        Some("parts") if args.len() >= 4 => {
            let a = parse_factor(&args[1])?;
            let b = parse_factor(&args[2])?;
            commands::parts(&a, &b, parse_mode(&args[3])?, &mut out)?;
            Ok(true)
        }
        Some("verify-file") if args.len() >= 2 => {
            let tsv = std::fs::read_to_string(&args[1])?;
            commands::verify_file(&tsv, &mut out)
        }
        // Dispatched before the positional form: `serve --expr EXPR
        // NAME=SPEC...` also has ≥ 4 arguments.
        Some("serve") if args.get(1).map(String::as_str) == Some("--expr") => {
            let expr = args
                .get(2)
                .ok_or("serve --expr requires an expression argument")?;
            let mut bindings = Vec::new();
            let mut rest = 3;
            while let Some(arg) = args.get(rest) {
                if arg.starts_with("--") {
                    break;
                }
                let (name, spec) = arg.split_once('=').ok_or_else(|| {
                    format!("serve --expr: expected NAME=SPEC binding, got {arg:?}")
                })?;
                bindings.push((name.to_string(), parse_factor(spec)?));
                rest += 1;
            }
            let (config, options, snapshot) = parse_serve_config(&args[rest..])?;
            commands::serve_expr(expr, bindings, config, options, snapshot, &mut out)?;
            Ok(true)
        }
        Some("serve") if args.len() >= 4 => {
            let a = parse_factor(&args[1])?;
            let b = parse_factor(&args[2])?;
            let mode = parse_mode(&args[3])?;
            let (config, options, snapshot) = parse_serve_config(&args[4..])?;
            commands::serve(a, b, mode, config, options, snapshot, &mut out)?;
            Ok(true)
        }
        Some("replay") if args.len() >= 3 => {
            let cfg = bikron_cli::replay::ReplayConfig::parse(&args[1..])?;
            bikron_cli::replay::run(&cfg, &mut out)
        }
        Some("router") => {
            let (shards, config, options) = parse_router_config(&args[1..])?;
            commands::router(&shards, config, options, &mut out)?;
            Ok(true)
        }
        Some("promcheck") if args.len() >= 2 => {
            let text = std::fs::read_to_string(&args[1])?;
            commands::promcheck(&text, &mut out)
        }
        Some("monitor") if args.len() >= 2 => {
            let cfg = bikron_cli::MonitorConfig::parse(&args[1..])?;
            bikron_cli::monitor::run(&cfg, &mut out)
        }
        Some("trace") if args.len() >= 2 => {
            let cfg = bikron_cli::TraceConfig::parse(&args[1..])?;
            bikron_cli::trace::run(&cfg, &mut out)
        }
        Some("profile") if args.len() >= 2 => {
            let cfg = bikron_cli::ProfileConfig::parse(&args[1..])?;
            bikron_cli::profile::run(&cfg, &mut out)
        }
        // Dispatched before the report form: `perfdiff --profile` also
        // has ≥ 3 arguments.
        Some("perfdiff") if args.get(1).map(String::as_str) == Some("--profile") => {
            if args.len() < 4 {
                return Err("perfdiff --profile requires BASE.folded CAND.folded".into());
            }
            let cfg = parse_perfdiff_config(&args[4..])?;
            bikron_cli::perfdiff_profile_files(&args[2], &args[3], &cfg, &mut out)
        }
        Some("perfdiff") if args.len() >= 3 => {
            let cfg = parse_perfdiff_config(&args[3..])?;
            perfdiff_files(&args[1], &args[2], &cfg, &mut out)
        }
        Some("--version") | Some("-V") | Some("version") => {
            println!(
                "bikron {} (metrics schemas: {}, {}, {}, {}; profile schema: {})",
                env!("CARGO_PKG_VERSION"),
                bikron_obs::SCHEMA_V1,
                bikron_obs::SCHEMA_V2,
                bikron_obs::SCHEMA_V3,
                bikron_obs::SCHEMA,
                bikron_obs::profile::PROFILE_SCHEMA,
            );
            Ok(true)
        }
        Some("help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            Err("bad arguments".into())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2), // validation mismatch / perf regression
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
