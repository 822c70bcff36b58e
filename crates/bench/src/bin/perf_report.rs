//! `perf_report` — run the Table-I-scale workload and write a
//! machine-readable `bikron-obs/4` performance report.
//!
//! The workload is the paper's headline construction, `(A + I_A) ⊗ A` on
//! the unicode-like factor (4.2M-edge product), exercised end to end:
//! ground-truth formulas (SpGEMM on the factor), parallel edge streaming,
//! full materialisation (CSR Kronecker kernel), direct butterfly counting
//! on the factor, and a 4-rank distributed-generation simulation. Every
//! instrumented hot path in the workspace contributes counters and phase
//! timers to the single JSON artefact.
//!
//! ```sh
//! cargo run --release -p bikron-bench --bin perf_report            # BENCH_kron.json
//! cargo run --release -p bikron-bench --bin perf_report -- out.json
//! cargo run --release -p bikron-bench --bin perf_report -- out.json --trace-out trace.json
//! cargo run --release -p bikron-bench --bin perf_report -- out.json --profile-out prof.folded
//! ```
//!
//! The output schema is stable (`bikron-obs/4`; v1–v3 still parse), so successive PRs can be
//! diffed — by eye or by `bikron perfdiff`: wall-clock per phase
//! (`timers`), edge/wedge/row counters (`counters`), peak worker
//! concurrency (`gauges.*.peak`), and work-shape distributions
//! (`histograms`: per-row SpGEMM output, Kronecker fill blocks,
//! per-vertex butterflies, per-rank edge/square mass). With
//! `--trace-out FILE`, phase spans are additionally exported as Chrome
//! `trace_event` JSON for chrome://tracing / Perfetto. With
//! `--profile-out FILE`, a 99 Hz wall-clock sampler runs for the
//! duration and its folded flamegraph stacks (one `phase;subphase N`
//! line each) are written on exit, diffable with
//! `bikron perfdiff --profile`.

use std::sync::atomic::{AtomicU64, Ordering};

use bikron_analytics::butterflies_global;
use bikron_core::{GroundTruth, KronChain, KroneckerProduct, SelfLoopMode};
use bikron_generators::unicode_like::{unicode_like, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                trace_path = Some(args.get(i + 1).expect("--trace-out requires FILE").clone());
                i += 2;
            }
            "--profile-out" => {
                profile_path = Some(
                    args.get(i + 1)
                        .expect("--profile-out requires FILE")
                        .clone(),
                );
                i += 2;
            }
            other => {
                out_path.get_or_insert_with(|| other.to_string());
                i += 1;
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_kron.json".to_string());
    if trace_path.is_some() {
        bikron_obs::trace::tracer().enable();
    }
    // The sampler sees every obs.time() phase below via the profiler's
    // per-thread stack publication; nothing else to instrument.
    let sampler = profile_path
        .as_ref()
        .and_then(|_| bikron_obs::profile::start_sampler(bikron_obs::profile::DEFAULT_HZ));
    let obs = bikron_obs::global();

    // Factor construction (seeded, deterministic).
    let a = obs.time("factor_build", unicode_like);
    let factor_butterflies = obs.time("factor_butterflies", || butterflies_global(&a));

    let prod = KroneckerProduct::new(&a, &a, SelfLoopMode::FactorA).unwrap();
    let expected_entries = prod.nnz();

    // Ground truth from factor-sized state (drives the SpGEMM kernels).
    let global_squares = obs.time("ground_truth", || {
        GroundTruth::new(prod.clone())
            .unwrap()
            .global_squares()
            .unwrap()
    });

    // Parallel streaming over the full product (drives product.par_stream
    // and the worker-concurrency gauge).
    let streamed = AtomicU64::new(0);
    obs.time("stream_parallel", || {
        prod.par_for_each_edge(|_, _| {
            streamed.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(streamed.load(Ordering::Relaxed), expected_entries);

    // Materialisation (drives the CSR Kronecker kernel).
    let edges = obs.time("materialize", || prod.materialize().num_edges() as u64);
    assert_eq!(edges, prod.num_edges());

    // Distributed-generation simulation, 4 ranks (drives the per-rank
    // counters and tree-reduction timers).
    let tower = [("A".to_string(), true), ("A".to_string(), false)];
    let chain = KronChain::new(vec![("A".to_string(), a.clone())], &tower).unwrap();
    let reduced = bikron_distsim::distributed_generate(&chain, 4);
    assert_eq!(reduced.edges, prod.num_edges());
    assert_eq!(reduced.square_mass, 4 * global_squares);

    let mut report = obs.snapshot();
    let prof = bikron_obs::profile::profiler();
    if prof.sampler_hz() > 0 {
        report.set_profile(prof.snapshot());
    }
    report.set_meta("workload", "table1-kron");
    report.set_meta("construction", "(A+I_A) (x) A");
    report.set_meta("factor", format!("unicode-like(seed={DEFAULT_SEED})"));
    report.set_meta("product_edges", edges.to_string());
    report.set_meta("global_squares", global_squares.to_string());
    report.set_meta("factor_butterflies", factor_butterflies.to_string());
    report.set_meta("threads", rayon::current_num_threads().to_string());
    report
        .write_to_file(std::path::Path::new(&out_path))
        .expect("write perf report");

    if let Some(path) = &trace_path {
        bikron_obs::trace::tracer()
            .write_chrome_trace(std::path::Path::new(path))
            .expect("write chrome trace");
        eprintln!("trace written to {path} — open in chrome://tracing or ui.perfetto.dev");
    }

    if let Some(path) = &profile_path {
        let snap = bikron_obs::profile::profiler().snapshot();
        std::fs::write(std::path::Path::new(path), snap.to_folded()).expect("write folded profile");
        eprintln!(
            "profile written to {path} ({} sample(s) across {} stack(s), {} dropped)",
            snap.samples,
            snap.stacks.len(),
            snap.dropped,
        );
    }
    drop(sampler);

    // Human-readable recap on stderr; the JSON is the artefact.
    eprintln!("perf report written to {out_path}");
    for (name, t) in report.timers() {
        if !name.contains('/') {
            eprintln!(
                "  {name:<28} {:>10.3} ms  (x{})",
                t.total_ns as f64 / 1e6,
                t.count
            );
        }
    }
    for (name, h) in report.histograms() {
        eprintln!(
            "  {name:<28} n={} p50={} p99={} max={}",
            h.count,
            h.percentile(50),
            h.percentile(99),
            h.max
        );
    }
    eprintln!(
        "  edges={edges} squares={global_squares} peak_stream_workers={} rank_imbalance={}%",
        report.gauge("product.workers").map(|(_, p)| p).unwrap_or(0),
        report
            .gauge("distsim.load_imbalance")
            .map(|(v, _)| v)
            .unwrap_or(0),
    );
}
