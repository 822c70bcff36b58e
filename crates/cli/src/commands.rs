//! Subcommand implementations. Each takes parsed inputs and a writer so
//! the logic is unit-testable without a process boundary.

use std::io::Write;

use bikron_core::connectivity::product_bipartition;
use bikron_core::stream::EdgeStream;
use bikron_core::truth::FactorStats;
use bikron_core::{
    pair_levels, predict_structure, GroundTruth, KronChain, KroneckerProduct, SelfLoopMode,
};
use bikron_graph::{bipartition, connected_components, Graph};
use bikron_serve::snapshot::{Snapshot, SnapshotError};
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig, WarmInfo};

/// Generic error type for command plumbing.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Snapshot persistence flags shared by `serve` and `serve --expr`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotOptions {
    /// `--snapshot-in FILE`: warm-start from this snapshot at boot.
    pub snapshot_in: Option<String>,
    /// `--snapshot-out FILE`: write a snapshot after graceful shutdown.
    pub snapshot_out: Option<String>,
    /// `--snapshot-lenient`: when the snapshot is rejected, log why and
    /// boot cold instead of refusing to start.
    pub lenient: bool,
}

/// Read the `--snapshot-in` file, if any, and validate it against the
/// requested spec.
fn load_snapshot(
    snapshot: &SnapshotOptions,
    validate: impl FnOnce(&Snapshot) -> Result<(), SnapshotError>,
) -> Option<Result<Snapshot, SnapshotError>> {
    let path = snapshot.snapshot_in.as_deref()?;
    Some(Snapshot::read_from(path).and_then(|snap| validate(&snap).map(|()| snap)))
}

/// Announce a warm boot before the listening banner, so operators (and
/// CI greps) can tell the factor-stats recomputation was skipped.
fn warm_banner(out: &mut dyn Write, path: &str, expr: &str, info: &WarmInfo) -> CmdResult {
    writeln!(
        out,
        "warm start: restored '{expr}' from {path} in {:.1} ms",
        info.load_ns as f64 / 1e6,
    )?;
    Ok(())
}

/// After a graceful shutdown, persist the server's state if asked to.
fn write_snapshot_on_shutdown(
    snapshot: &SnapshotOptions,
    state: &ServeState,
    out: &mut dyn Write,
) -> CmdResult {
    if let Some(path) = &snapshot.snapshot_out {
        state.to_snapshot().write_to(path)?;
        writeln!(out, "snapshot written to {path}")?;
    }
    Ok(())
}

/// `bikron stats A B MODE` — print a Table-I-style report for the product
/// of two factors, entirely from ground truth.
pub fn stats(a: &Graph, b: &Graph, mode: SelfLoopMode, out: &mut dyn Write) -> CmdResult {
    let prod = KroneckerProduct::new(a, b, mode)?;
    let st = predict_structure(&prod);
    writeln!(
        out,
        "factors: A({} v, {} e)  B({} v, {} e)  mode {:?}",
        a.num_vertices(),
        a.num_edges(),
        b.num_vertices(),
        b.num_edges(),
        mode
    )?;
    writeln!(
        out,
        "product: {} vertices, {} edges",
        prod.num_vertices(),
        prod.num_edges()
    )?;
    writeln!(
        out,
        "structure: bipartite={} connected={} components={:?} parts={:?} theorem={:?}",
        st.bipartite, st.connected, st.num_components, st.parts, st.theorem
    )?;
    let gt = GroundTruth::new(prod.clone())?;
    writeln!(out, "global 4-cycles: {}", gt.global_squares()?)?;
    writeln!(
        out,
        "max degree: {}",
        bikron_core::truth::degrees::max_degree(&prod)
    )?;
    let hist = bikron_core::truth::degrees::degree_histogram(&prod);
    let distinct = hist.len();
    writeln!(out, "degree histogram: {distinct} distinct degrees")?;
    Ok(())
}

/// `bikron factor SPEC` — inspect one factor graph.
pub fn factor_report(g: &Graph, out: &mut dyn Write) -> CmdResult {
    writeln!(
        out,
        "vertices: {}  edges: {}  self-loops: {}  max-degree: {}",
        g.num_vertices(),
        g.num_edges(),
        g.num_self_loops(),
        g.max_degree()
    )?;
    let comps = connected_components(g);
    writeln!(out, "components: {}", comps.count)?;
    match bipartition(g) {
        Some(b) => writeln!(out, "bipartite: yes (|U|={}, |W|={})", b.u_len(), b.w_len())?,
        None => writeln!(out, "bipartite: no")?,
    }
    if g.has_no_self_loops() {
        let fs = FactorStats::compute(g)?;
        writeln!(out, "global 4-cycles: {}", fs.global_squares())?;
        let t: i128 = fs.diag_a3.iter().sum::<i128>() / 6;
        writeln!(out, "global triangles: {t}")?;
    }
    Ok(())
}

/// `bikron generate A B MODE --parts N --out PREFIX [--annotate]` —
/// stream the product to `PREFIX.partK.el` (or `.tsv` annotated) files.
/// Returns the total edges written.
pub fn generate(
    a: &Graph,
    b: &Graph,
    mode: SelfLoopMode,
    parts: usize,
    out_prefix: &str,
    annotate: bool,
    log: &mut dyn Write,
) -> Result<u64, Box<dyn std::error::Error>> {
    // The two-factor checks first, so their errors name factor A or B.
    KroneckerProduct::new(a, b, mode)?;
    let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
    let chain = KronChain::new(bindings, &pair_levels(mode))?;
    let stream = EdgeStream::new(&chain, parts);
    let mut total = 0u64;
    for part in 0..parts {
        let ext = if annotate { "tsv" } else { "el" };
        let path = format!("{out_prefix}.part{part}.{ext}");
        let file = std::fs::File::create(&path)?;
        let mut w = std::io::BufWriter::new(file);
        let n = if annotate {
            stream.write_annotated(part, &mut w)?
        } else {
            stream.write_edges(part, &mut w)?
        };
        writeln!(log, "wrote {n} edges to {path}")?;
        total += n;
    }
    assert_eq!(total, chain.num_edges(), "partition coverage invariant");
    Ok(total)
}

/// `bikron validate A B MODE CLAIMED` — compare a claimed global 4-cycle
/// count against ground truth. Returns whether the claim was correct.
pub fn validate(
    a: &Graph,
    b: &Graph,
    mode: SelfLoopMode,
    claimed: u64,
    out: &mut dyn Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    let prod = KroneckerProduct::new(a, b, mode)?;
    let gt = GroundTruth::new(prod)?;
    let v = gt.validate_global(claimed)?;
    if v.ok {
        writeln!(out, "OK: claimed count {claimed} matches ground truth")?;
    } else {
        writeln!(
            out,
            "MISMATCH: claimed {claimed}, ground truth {} (off by {})",
            v.truth,
            claimed.abs_diff(v.truth)
        )?;
    }
    Ok(v.ok)
}

/// `bikron parts A B MODE` — report the bipartition layout of the
/// product (which vertices are U-side), summarised.
pub fn parts(a: &Graph, b: &Graph, mode: SelfLoopMode, out: &mut dyn Write) -> CmdResult {
    let prod = KroneckerProduct::new(a, b, mode)?;
    match product_bipartition(&prod) {
        Some(bip) => writeln!(
            out,
            "bipartition from factor B: |U|={} |W|={} (side of p = side_B(p mod {}))",
            bip.u_len(),
            bip.w_len(),
            b.num_vertices()
        )?,
        None => writeln!(out, "product is not bipartite via factor B")?,
    }
    Ok(())
}

/// `bikron verify-file FILE.tsv` — reload an annotated TSV written by
/// `generate --annotate` (possibly several concatenated partitions),
/// rebuild the graph from its edges, recount per-edge 4-cycles with the
/// independent direct algorithm, and compare against the annotation
/// column. Returns `Ok(true)` when every annotation matches.
///
/// Note: the file must contain the *complete* product (all partitions) —
/// per-edge counts on a partial subgraph are lower, and the mismatch
/// report will say so.
pub fn verify_file(tsv: &str, out: &mut dyn Write) -> Result<bool, Box<dyn std::error::Error>> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut annotated: Vec<(usize, usize, u64)> = Vec::new();
    let mut max_v = 0usize;
    for (lineno, line) in tsv.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = t.split('\t').collect();
        if cols.len() != 5 {
            return Err(format!("line {}: expected 5 TSV columns", lineno + 1).into());
        }
        let p: usize = cols[0].parse()?;
        let q: usize = cols[1].parse()?;
        let squares: u64 = cols[4].parse()?;
        max_v = max_v.max(p).max(q);
        edges.push((p, q));
        annotated.push((p.min(q), p.max(q), squares));
    }
    if edges.is_empty() {
        writeln!(out, "empty file: nothing to verify")?;
        return Ok(true);
    }
    let g = Graph::from_edges(max_v + 1, &edges)?;
    let direct = bikron_analytics::butterflies_per_edge(&g);
    let mut mismatches = 0u64;
    for &(p, q, claimed) in &annotated {
        let measured = direct.get(p, q).unwrap_or(0);
        if measured != claimed {
            mismatches += 1;
            if mismatches <= 5 {
                writeln!(
                    out,
                    "MISMATCH edge ({p},{q}): annotated {claimed}, measured {measured}"
                )?;
            }
        }
    }
    if mismatches == 0 {
        writeln!(out, "OK: {} annotated edges all verified", annotated.len())?;
        Ok(true)
    } else {
        writeln!(
            out,
            "{mismatches} of {} annotations mismatched (is the file the full product?)",
            annotated.len()
        )?;
        Ok(false)
    }
}

/// `bikron serve A B MODE` — run the ground-truth query service until a
/// signal or the token-gated `/v1/shutdown` endpoint stops it. Takes the
/// factors by value: the server owns them for its whole lifetime.
pub fn serve(
    a: Graph,
    b: Graph,
    mode: SelfLoopMode,
    config: ServerConfig,
    options: ServeOptions,
    snapshot: SnapshotOptions,
    out: &mut dyn Write,
) -> CmdResult {
    let loaded = load_snapshot(&snapshot, |s| {
        s.validate(&pair_levels(mode), &[("A", &a), ("B", &b)], true)
    });
    let cold = |o| ServeState::build_with(a, b, mode, o);
    boot_and_serve(config, options, snapshot, loaded, cold, false, out)
}

/// `bikron serve --expr EXPR NAME=SPEC...` — run the query service over
/// an arbitrary Kronecker program (`(A+I)⊗B⊗C`, `A^{⊗3}`, …) with
/// compositional ground truth. Bindings map each name in the expression
/// to a factor spec; the chain evaluator rejects unbound or duplicate
/// names with a structural error.
pub fn serve_expr(
    expr: &str,
    bindings: Vec<(String, Graph)>,
    config: ServerConfig,
    options: ServeOptions,
    snapshot: SnapshotOptions,
    out: &mut dyn Write,
) -> CmdResult {
    let chain = bikron_sparse::parse_expr(expr).map_err(|e| render_expr_error(expr, &e))?;
    let levels: Vec<(String, bool)> = chain
        .levels
        .iter()
        .map(|l| (l.name.clone(), l.plus_identity))
        .collect();
    let loaded = load_snapshot(&snapshot, |s| {
        let bound: Vec<(&str, &Graph)> = bindings.iter().map(|(n, g)| (n.as_str(), g)).collect();
        s.validate(&levels, &bound, false)
    });
    let cold = |o| ServeState::build_expr(bindings, &levels, o);
    boot_and_serve(config, options, snapshot, loaded, cold, true, out)
}

/// The boot path of `serve` and `serve --expr`: warm start from the
/// `loaded` snapshot (or `cold`), bind, print the banner scripts parse
/// `http://ADDR` from, serve until shutdown, write `--snapshot-out`.
fn boot_and_serve(
    config: ServerConfig,
    options: ServeOptions,
    snapshot: SnapshotOptions,
    loaded: Option<Result<Snapshot, SnapshotError>>,
    cold: impl FnOnce(ServeOptions) -> Result<ServeState, Box<dyn std::error::Error>>,
    expr_banner: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let path = snapshot.snapshot_in.as_deref().unwrap_or_default();
    let state = match loaded {
        Some(Ok(snap)) => {
            let (st, info) = ServeState::build_from_snapshot(snap, options)?;
            warm_banner(out, path, st.expr(), &info)?;
            st
        }
        Some(Err(e)) if snapshot.lenient => {
            writeln!(
                out,
                "snapshot {path} rejected ({e}); booting cold (--snapshot-lenient)"
            )?;
            cold(options)?
        }
        Some(Err(e)) => return Err(format!("--snapshot-in {path}: {e}").into()),
        None => cold(options)?,
    };
    let state = std::sync::Arc::new(state);
    bikron_serve::signal::install();
    let server = Server::bind(config.clone(), std::sync::Arc::clone(&state))?;
    let listening = if expr_banner {
        format!("serving {} on", state.expr())
    } else {
        "listening on".to_string()
    };
    writeln!(
        out,
        "{listening} http://{} ({} worker(s), queue {}, batch ≤ {}) — stop with ctrl-c",
        server.local_addr()?,
        config.threads.max(1),
        config.queue_capacity.max(1),
        state.batch_max(),
    )?;
    out.flush()?;
    server.run()?;
    write_snapshot_on_shutdown(&snapshot, &state, out)?;
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// `bikron router --shards URL,URL,...` — run the front for a cluster
/// of serve replicas until a signal stops it. Hands back the handshake
/// error (unreachable replica, mismatched programs) before binding the
/// client-facing listener.
pub fn router(
    replicas: &[String],
    config: ServerConfig,
    options: bikron_router::RouterOptions,
    out: &mut dyn Write,
) -> CmdResult {
    let state = std::sync::Arc::new(bikron_router::RouterState::connect(replicas, options)?);
    bikron_serve::signal::install();
    let server = Server::bind(config.clone(), std::sync::Arc::clone(&state))?;
    writeln!(
        out,
        "router listening on http://{} fronting {} replica(s) ({} worker(s), queue {}) — stop with ctrl-c",
        server.local_addr()?,
        state.num_replicas(),
        config.threads.max(1),
        config.queue_capacity.max(1),
    )?;
    for (i, addr) in state.replica_addrs().iter().enumerate() {
        writeln!(out, "  replica {i}: http://{addr}")?;
    }
    out.flush()?;
    server.run()?;
    writeln!(out, "router shutdown complete")?;
    Ok(())
}

/// `bikron promcheck FILE` — validate a saved Prometheus text-exposition
/// scrape. Returns whether the file passed.
pub fn promcheck(text: &str, out: &mut dyn Write) -> Result<bool, Box<dyn std::error::Error>> {
    match bikron_obs::prom::check_exposition(text) {
        Ok(()) => {
            let samples = text
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
            writeln!(out, "OK: {samples} samples, exposition format valid")?;
            Ok(true)
        }
        Err(e) => {
            writeln!(out, "INVALID: {e}")?;
            Ok(false)
        }
    }
}

/// Render an expression parse error with the offending input and a caret
/// under the failing column, so `bikron serve --expr` failures point at
/// the exact token. Columns are 1-based characters (the multi-byte `⊗`
/// counts as one), matching [`bikron_sparse::ExprParseError`].
pub fn render_expr_error(expr: &str, e: &bikron_sparse::ExprParseError) -> String {
    let pad = " ".repeat(e.column.saturating_sub(1));
    format!("--expr parse failed at {e}\n  {expr}\n  {pad}^")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_generators::{complete_bipartite, crown, cycle};

    #[test]
    fn stats_runs_and_reports() {
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        let mut buf = Vec::new();
        stats(&a, &b, SelfLoopMode::None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bipartite=true connected=true"));
        assert!(text.contains("global 4-cycles"));
    }

    #[test]
    fn factor_report_contents() {
        // crown(4) = K_{4,4} minus a perfect matching: C(4,2) pairs of
        // left vertices, each sharing exactly 2 neighbours → 6 squares.
        let g = crown(4);
        let mut buf = Vec::new();
        factor_report(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bipartite: yes"));
        assert!(text.contains("global 4-cycles: 6"));
        assert!(text.contains("global triangles: 0"));
    }

    #[test]
    fn generate_writes_partition_files() {
        let a = cycle(3);
        let b = complete_bipartite(2, 2);
        let dir = std::env::temp_dir().join("bikron_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("prod").display().to_string();
        let mut log = Vec::new();
        let total = generate(&a, &b, SelfLoopMode::None, 2, &prefix, false, &mut log).unwrap();
        assert_eq!(total, 24); // nnz(C3)=6, nnz(K22)=8 → 48/2
        let p0 = std::fs::read_to_string(format!("{prefix}.part0.el")).unwrap();
        let p1 = std::fs::read_to_string(format!("{prefix}.part1.el")).unwrap();
        assert_eq!(p0.lines().count() + p1.lines().count(), 24);
    }

    #[test]
    fn validate_accepts_and_rejects() {
        let a = crown(3);
        let b = complete_bipartite(2, 2);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        let truth = GroundTruth::new(prod).unwrap().global_squares().unwrap();
        let mut buf = Vec::new();
        assert!(validate(&a, &b, SelfLoopMode::FactorA, truth, &mut buf).unwrap());
        assert!(!validate(&a, &b, SelfLoopMode::FactorA, truth + 7, &mut buf).unwrap());
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("MISMATCH"));
        assert!(text.contains("off by 7"));
    }

    #[test]
    fn verify_file_round_trip() {
        // Generate annotated partitions, concatenate, verify.
        let a = cycle(3);
        let b = complete_bipartite(2, 2);
        let dir = std::env::temp_dir().join("bikron_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ann").display().to_string();
        let mut log = Vec::new();
        generate(&a, &b, SelfLoopMode::None, 2, &prefix, true, &mut log).unwrap();
        let mut tsv = std::fs::read_to_string(format!("{prefix}.part0.tsv")).unwrap();
        tsv += &std::fs::read_to_string(format!("{prefix}.part1.tsv")).unwrap();
        let mut out = Vec::new();
        assert!(verify_file(&tsv, &mut out).unwrap());
        // Corrupt one annotation → detected.
        let corrupted = {
            let mut lines: Vec<String> = tsv.lines().map(String::from).collect();
            let mut cols: Vec<String> = lines[0].split('\t').map(String::from).collect();
            let bumped: u64 = cols[4].parse::<u64>().unwrap() + 1;
            cols[4] = bumped.to_string();
            lines[0] = cols.join("\t");
            lines.join("\n")
        };
        let mut out2 = Vec::new();
        assert!(!verify_file(&corrupted, &mut out2).unwrap());
        assert!(String::from_utf8(out2).unwrap().contains("MISMATCH"));
    }

    #[test]
    fn verify_file_rejects_malformed() {
        assert!(verify_file("1\t2\t3\n", &mut Vec::new()).is_err());
        assert!(verify_file("", &mut Vec::new()).unwrap());
    }

    #[test]
    fn expr_error_renders_column_caret() {
        let input = "(A+⊗B";
        let e = bikron_sparse::parse_expr(input).unwrap_err();
        let text = render_expr_error(input, &e);
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("--expr parse failed at column "),
            "{text}"
        );
        assert_eq!(lines[1], format!("  {input}"));
        // The caret sits under the reported (1-based, char-counted)
        // column, two display cells in from the margin like the input.
        assert_eq!(lines[2].chars().count(), e.column + 2);
        assert!(lines[2].ends_with('^'));
    }

    #[test]
    fn serve_expr_surfaces_unbound_name() {
        let mut out = Vec::new();
        let err = serve_expr(
            "A⊗B",
            vec![("A".into(), cycle(5))],
            ServerConfig::default(),
            ServeOptions::default(),
            SnapshotOptions::default(),
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains('B'), "{err}");
    }

    #[test]
    fn parts_summary() {
        let a = cycle(3);
        let b = complete_bipartite(2, 3);
        let mut buf = Vec::new();
        parts(&a, &b, SelfLoopMode::None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("|U|=6 |W|=9"));
    }
}
