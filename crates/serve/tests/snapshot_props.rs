//! Round-trip property tests for the `bikron-snap/1` snapshot format.
//!
//! Two claims carry the warm-start design:
//!
//! 1. **Codec fidelity** — `decode(encode(s))` reproduces every field of
//!    the snapshot exactly (graphs, stats, stats body), and re-encoding
//!    the decoded value is byte-identical. Nothing in
//!    the pipeline may be lossy, or a warm boot would serve different
//!    answers than the process that wrote the file.
//! 2. **Warm ≡ cold** — a server rebuilt from a snapshot answers every
//!    `/v1/*` endpoint with bodies byte-identical to a cold boot of the
//!    same spec. The *only* sanctioned difference is the `"snapshot"`
//!    provenance field in `/v1/stats` (`warm` vs `cold`), injected at a
//!    single point at boot.
//!
//! Both are checked over random factor graphs (proptest) for the pair
//! backend, over a fixed-but-nontrivial program for the expression
//! backend, and over a file written while the server kept a result
//! cache (its CACHE section full of entries the reader now discards).

use bikron_core::{pair_levels, SelfLoopMode};
use bikron_generators::{complete_bipartite, cycle};
use bikron_graph::Graph;
use bikron_serve::snapshot::Snapshot;
use bikron_serve::{ServeOptions, ServeState};
use proptest::prelude::*;

/// Parse one GET into the router's request type.
fn get(path: &str) -> bikron_serve::http::Request {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    bikron_serve::http::parse_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
}

/// A random simple graph: `n` vertices, ≥ 1 edge, no self-loops.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..7).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..14).prop_map(move |pairs| {
            let mut edges: Vec<(usize, usize)> =
                pairs.into_iter().filter(|(u, v)| u != v).collect();
            if edges.is_empty() {
                edges.push((0, 1));
            }
            Graph::from_edges(n, &edges).expect("edges are in range")
        })
    })
}

fn arb_mode() -> impl Strategy<Value = SelfLoopMode> {
    prop_oneof![Just(SelfLoopMode::None), Just(SelfLoopMode::FactorA)]
}

/// The endpoint sweep both servers answer; covers every read route.
fn probe_paths(n: usize) -> Vec<String> {
    let mut paths = vec![
        "/v1/stats".to_string(),
        "/v1/scatter/degree-squares?limit=16".to_string(),
        "/v1/edges/0/1?limit=32".to_string(),
        "/v1/community?a=0,1&b=0".to_string(),
        format!("/v1/vertex/{n}"), // out of range: 404 bodies must match too
    ];
    for p in 0..n.min(8) {
        paths.push(format!("/v1/vertex/{p}"));
        paths.push(format!("/v1/neighbors/{p}?limit=8"));
        paths.push(format!("/v1/edge/{p}/{}", (p + 1) % n));
        paths.push(format!("/v1/clustering/{p}/{}", (p + 1) % n));
    }
    paths
}

/// Warm `/v1/stats` bodies differ from cold ones in exactly the
/// provenance field; normalise it away before comparing.
fn normalize(body: &str) -> String {
    body.replace("\"snapshot\": \"warm\"", "\"snapshot\": \"cold\"")
}

/// Drive the full probe sweep against a state, returning `(path, status,
/// body)` rows.
fn sweep(state: &ServeState) -> Vec<(String, u16, String)> {
    probe_paths(state.num_vertices())
        .into_iter()
        .map(|p| {
            let resp = state.handle(&get(&p));
            (p, resp.status, resp.body)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Codec fidelity over random pair servers: every field survives
    /// encode→decode, and the decoded value re-encodes byte-identically.
    #[test]
    fn pair_snapshot_round_trips_exactly(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
    ) {
        let state = ServeState::build_with(
            a.clone(), b.clone(), mode, ServeOptions::default(),
        ).expect("cold build");
        let snap = state.to_snapshot();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("decode own encoding");

        prop_assert_eq!(&decoded.expr, &snap.expr);
        prop_assert_eq!(&decoded.stats_json, &snap.stats_json);
        prop_assert!(decoded.pair_form && snap.pair_form);
        prop_assert_eq!(&decoded.levels, &snap.levels);
        prop_assert_eq!(&decoded.levels, &pair_levels(mode));
        prop_assert_eq!(decoded.bindings.len(), 2);
        for ((dn, dg, ds), (sn, sg, ss)) in decoded.bindings.iter().zip(&snap.bindings) {
            prop_assert_eq!(dn, sn);
            prop_assert_eq!(dg, sg);
            prop_assert_eq!(ds, ss);
        }
        // Byte-identity: the decoded snapshot re-encodes to the same file.
        prop_assert_eq!(decoded.encode(), bytes);
        // And the snapshot passes validation against its own spec.
        prop_assert!(decoded.validate(&pair_levels(mode), &[("A", &a), ("B", &b)], true).is_ok());
    }

    /// Warm ≡ cold over random pair servers: byte-identical bodies on
    /// every endpoint, modulo only the `/v1/stats` provenance field.
    #[test]
    fn warm_boot_serves_byte_identical_bodies(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
    ) {
        let cold = ServeState::build_with(
            a, b, mode, ServeOptions::default(),
        ).expect("cold build");
        let cold_rows = sweep(&cold);

        let bytes = cold.to_snapshot().encode();
        let snap = Snapshot::decode(&bytes).expect("decode");
        let (warm, info) = ServeState::build_from_snapshot(snap, ServeOptions::default())
            .expect("warm build");
        prop_assert!(info.load_ns > 0);

        let warm_rows = sweep(&warm);
        prop_assert_eq!(cold_rows.len(), warm_rows.len());
        for ((path, cs, cb), (_, ws, wb)) in cold_rows.iter().zip(warm_rows.iter()) {
            prop_assert_eq!(cs, ws, "status diverged on {}", path);
            prop_assert_eq!(
                normalize(cb), normalize(wb),
                "body diverged on {}", path
            );
        }
        // The provenance fields themselves read as designed.
        let cold_stats = cold.handle(&get("/v1/stats")).body;
        let warm_stats = warm.handle(&get("/v1/stats")).body;
        prop_assert!(cold_stats.contains("\"snapshot\": \"cold\""));
        prop_assert!(warm_stats.contains("\"snapshot\": \"warm\""));
    }
}

/// A representative expression server for the chain-backend round trip:
/// three levels, a repeated atom, and a `+ I` lift.
fn chain_state() -> ServeState {
    let bindings = vec![
        (
            "A".to_string(),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
        ),
        (
            "B".to_string(),
            Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap(),
        ),
    ];
    let levels = vec![
        ("A".to_string(), true),
        ("B".to_string(), false),
        ("A".to_string(), false),
    ];
    ServeState::build_expr(bindings, &levels, ServeOptions::default()).expect("chain build")
}

#[test]
fn chain_snapshot_round_trips_and_boots_identically() {
    let cold = chain_state();
    let cold_rows = sweep(&cold);

    let snap = cold.to_snapshot();
    let bytes = snap.encode();
    let decoded = Snapshot::decode(&bytes).expect("decode");
    assert_eq!(decoded.expr, snap.expr);
    assert!(!decoded.pair_form && !snap.pair_form);
    assert_eq!(decoded.levels, snap.levels);
    assert_eq!(decoded.bindings.len(), snap.bindings.len());
    for ((n1, g1, s1), (n2, g2, s2)) in decoded.bindings.iter().zip(&snap.bindings) {
        assert_eq!(n1, n2);
        assert_eq!(g1, g2);
        assert_eq!(s1, s2);
    }
    assert_eq!(decoded.encode(), bytes);

    let (warm, info) =
        ServeState::build_from_snapshot(decoded, ServeOptions::default()).expect("warm build");
    assert!(info.load_ns > 0);
    let warm_rows = sweep(&warm);
    for ((path, cs, cb), (_, ws, wb)) in cold_rows.iter().zip(warm_rows.iter()) {
        assert_eq!(cs, ws, "status diverged on {path}");
        assert_eq!(normalize(cb), normalize(wb), "body diverged on {path}");
    }
}

/// Warm ≡ cold for a file whose CACHE section holds entries: written by
/// `bikron serve cycle:5 kmn:2x3 none --snapshot-out` after a handful of
/// keyed queries, while the server still kept a result cache. The reader
/// discards the entries, and the warm server answers every endpoint as a
/// cold boot of the same spec does.
#[test]
fn snapshot_with_cache_entries_boots_like_a_cold_server() {
    const WITH_CACHE: &[u8] = include_bytes!("data/cycle5_kmn2x3_with_cache.snap");
    let warm = warm_fixture(WITH_CACHE);
    let cold = cold_fixture();
    for ((path, cs, cb), (_, ws, wb)) in sweep(&cold).iter().zip(sweep(&warm).iter()) {
        assert_eq!(cs, ws, "status diverged on {path}");
        assert_eq!(normalize(cb), normalize(wb), "body diverged on {path}");
    }
    // Re-encoding writes the CACHE section empty.
    let reencoded = warm.to_snapshot().encode();
    assert!(reencoded.len() < WITH_CACHE.len());
    assert!(Snapshot::decode(&reencoded).is_ok());
}

/// A snapshot a `--shard 1/2` server wrote (`bikron serve cycle:5
/// kmn:2x3 none --shard 1/2 --snapshot-out`) boots as a full replica:
/// its META shard entry is validated and discarded, and every key, not
/// only the old `[13, 25)` block, answers as a cold boot does.
#[test]
fn a_snapshot_from_a_shard_boots_as_a_full_replica() {
    const SHARD_1_OF_2: &[u8] = include_bytes!("data/cycle5_kmn2x3_shard1of2.snap");
    let warm = warm_fixture(SHARD_1_OF_2);
    assert_answers_every_key_alike(&cold_fixture(), &warm);
    // Re-encoding drops the shard: the META section shrinks by its
    // index and count.
    let reencoded = warm.to_snapshot().encode();
    assert_eq!(reencoded.len() + 16, SHARD_1_OF_2.len());
}

/// A pair snapshot written while pair servers had their own evaluator
/// (`bikron serve cycle:5 kmn:2x3 loops-a --snapshot-out`): the one-chain
/// writer emits the same bytes for the same server, and a warm boot from
/// the file answers every key as a cold boot does.
#[test]
fn a_lifted_pair_snapshot_is_written_and_read_unchanged() {
    const LOOPS_A: &[u8] = include_bytes!("data/cycle5_kmn2x3_loops_a.snap");
    let (a, b) = (cycle(5), complete_bipartite(2, 3));
    let mode = SelfLoopMode::FactorA;
    let cold = ServeState::build_with(a.clone(), b.clone(), mode, ServeOptions::default())
        .expect("cold build");
    assert!(
        cold.to_snapshot().encode() == LOOPS_A,
        "writer bytes changed"
    );

    let snap = Snapshot::decode(LOOPS_A).expect("decode fixture");
    assert_eq!(snap.expr, "(A+I)⊗B");
    snap.validate(&pair_levels(mode), &[("A", &a), ("B", &b)], true)
        .expect("fixture matches its spec");
    let (warm, _) =
        ServeState::build_from_snapshot(snap, ServeOptions::default()).expect("warm build");
    assert_answers_every_key_alike(&cold, &warm);
}

/// Every probe path, every vertex and neighbors list, and every ordered
/// pair answer alike on `cold` and `warm`.
fn assert_answers_every_key_alike(cold: &ServeState, warm: &ServeState) {
    let n = cold.num_vertices();
    let mut paths = probe_paths(n);
    for p in 0..n {
        paths.push(format!("/v1/vertex/{p}"));
        paths.push(format!("/v1/neighbors/{p}"));
        for q in 0..n {
            paths.push(format!("/v1/edge/{p}/{q}"));
        }
    }
    for path in &paths {
        let (c, w) = (cold.handle(&get(path)), warm.handle(&get(path)));
        assert_eq!(c.status, w.status, "status diverged on {path}");
        assert_eq!(normalize(&c.body), normalize(&w.body), "{path}");
    }
}

/// Boot the `cycle:5 kmn:2x3 none` fixture file `bytes` warm.
fn warm_fixture(bytes: &[u8]) -> ServeState {
    let snap = Snapshot::decode(bytes).expect("decode fixture");
    assert_eq!(snap.expr, "A⊗B");
    let (a, b) = (cycle(5), complete_bipartite(2, 3));
    snap.validate(
        &pair_levels(SelfLoopMode::None),
        &[("A", &a), ("B", &b)],
        true,
    )
    .expect("fixture matches its spec");
    ServeState::build_from_snapshot(snap, ServeOptions::default())
        .expect("warm build")
        .0
}

/// A cold boot of the spec the fixtures were written for.
fn cold_fixture() -> ServeState {
    ServeState::build_with(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::None,
        ServeOptions::default(),
    )
    .expect("cold build")
}

/// `write_to` / `read_from` survive the filesystem, and the temp file
/// used for atomic replacement is cleaned up.
#[test]
fn snapshot_file_round_trip() {
    let state = chain_state();
    let snap = state.to_snapshot();
    let dir = std::env::temp_dir().join(format!("bikron-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    let path_str = path.to_str().unwrap();

    snap.write_to(path_str).expect("write");
    assert!(!std::path::Path::new(&format!("{path_str}.tmp")).exists());
    let loaded = Snapshot::read_from(path_str).expect("read");
    assert_eq!(loaded.encode(), snap.encode());

    std::fs::remove_dir_all(&dir).unwrap();
}
