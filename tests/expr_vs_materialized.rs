//! Differential test: expression servers (`bikron serve --expr`) against
//! brute force on the **materialised** chain product.
//!
//! The server answers every query from factor-sized state through the
//! chained Thm 3–7 evaluators ([`bikron_core::KronChain`]); this suite
//! materialises the same programs — a three-factor `(A+I)⊗B⊗C`, a
//! `A^{⊗3}` tower, and a bare chain where Thm 6's hypotheses hold — and
//! recounts 4-cycles with the direct butterfly algorithms. Bodies are
//! compared at the byte level wherever the expectation is fully
//! derivable from the replica (vertex, edge, neighbors, community,
//! scatter), and field-by-field for the clustering surface, whose
//! Thm 6 `bound ≤ Γ` invariant gets its own failure-injection check:
//! a comparator that cannot catch a violated bound proves nothing.

use std::io::BufReader;

use bikron_analytics::{butterflies_per_edge, butterflies_per_vertex, EdgeButterflies};
use bikron_core::KronChain;
use bikron_generators::{complete_bipartite, crown, cycle};
use bikron_graph::Graph;
use bikron_obs::JsonWriter;
use bikron_serve::http::{parse_request, Request};
use bikron_serve::{ServeOptions, ServeState};

/// Parse a GET request through the production HTTP parser.
fn get(path: &str) -> Request {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// One served program plus its materialised replica.
struct Fixture {
    state: ServeState,
    mat: Graph,
    /// Per-level factor sizes, for local (server-independent) index
    /// arithmetic: level 0 is most significant.
    sizes: Vec<usize>,
    squares_vertex: Vec<u64>,
    squares_edge: EdgeButterflies,
    canonical: String,
}

impl Fixture {
    /// Recombine per-level coordinates into a product id using only the
    /// factor sizes (mixed-radix, level 0 most significant).
    fn combine(&self, coords: &[usize]) -> usize {
        coords
            .iter()
            .zip(&self.sizes)
            .fold(0usize, |acc, (&c, &n)| acc * n + c)
    }

    /// Split a product id into per-level coordinates.
    fn split(&self, p: usize) -> Vec<usize> {
        let mut rem = p;
        let mut out = vec![0usize; self.sizes.len()];
        for i in (0..self.sizes.len()).rev() {
            out[i] = rem % self.sizes[i];
            rem /= self.sizes[i];
        }
        out
    }
}

fn fixture(
    bindings: Vec<(&str, Graph)>,
    levels: &[(&str, bool)],
    options: ServeOptions,
) -> Fixture {
    let owned: Vec<(String, Graph)> = bindings
        .iter()
        .map(|(n, g)| (n.to_string(), g.clone()))
        .collect();
    let level_spec: Vec<(String, bool)> =
        levels.iter().map(|(n, id)| (n.to_string(), *id)).collect();
    let chain = KronChain::new(owned.clone(), &level_spec).unwrap();
    let mat = chain.materialize();
    let sizes = (0..chain.num_levels())
        .map(|i| chain.level_info(i).1.num_vertices())
        .collect();
    let canonical = chain.canonical().to_string();
    Fixture {
        state: ServeState::build_expr(owned, &level_spec, options).unwrap(),
        squares_vertex: butterflies_per_vertex(&mat),
        squares_edge: butterflies_per_edge(&mat),
        mat,
        sizes,
        canonical,
    }
}

/// The three programs under test. `fixtures()[2]` is identity-free with
/// every factor degree ≥ 2 and strictly positive factor clustering, so
/// the Thm 6 bound is defined (and non-trivial) on every edge.
fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(
            vec![
                ("A", cycle(5)),
                ("B", complete_bipartite(2, 3)),
                ("C", crown(3)),
            ],
            &[("A", true), ("B", false), ("C", false)],
            ServeOptions::default(),
        ),
        // The tower: one atom repeated on every level.
        fixture(
            vec![("A", cycle(5))],
            &[("A", false), ("A", false), ("A", false)],
            ServeOptions::default(),
        ),
        fixture(
            vec![
                ("A", complete_bipartite(2, 2)),
                ("B", complete_bipartite(2, 3)),
                ("C", cycle(4)),
            ],
            &[("A", false), ("B", false), ("C", false)],
            ServeOptions::default(),
        ),
    ]
}

/// The exact chain `/v1/vertex/{p}` body from the replica: coordinates
/// by local mixed-radix arithmetic, counts by direct enumeration.
fn expected_vertex_body(fx: &Fixture, p: usize, squares: u64) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    w.key("coords");
    w.open_array();
    for c in fx.split(p) {
        w.u64_element(c as u64);
    }
    w.close_array();
    w.u64_field("degree", fx.mat.degree(p) as u64);
    w.u64_field("squares", squares);
    w.close_object();
    w.finish()
}

/// The exact `/v1/edge/{p}/{q}` body from materialised adjacency.
fn expected_edge_body(fx: &Fixture, p: usize, q: usize) -> String {
    let squares = fx.squares_edge.get(p, q);
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("p", p as u64);
    w.u64_field("q", q as u64);
    w.bool_field("edge", squares.is_some());
    w.u64_field("degree_p", fx.mat.degree(p) as u64);
    w.u64_field("degree_q", fx.mat.degree(q) as u64);
    match squares {
        Some(s) => w.u64_field("squares", s),
        None => w.null_field("squares"),
    }
    w.close_object();
    w.finish()
}

/// The exact `/v1/neighbors/{p}` page body from the materialised rows.
fn expected_neighbors_body(fx: &Fixture, p: usize, offset: u64, limit: usize) -> String {
    let row = fx.mat.neighbors(p);
    let degree = row.len() as u64;
    let page = &row[(offset as usize).min(row.len())..row.len().min(offset as usize + limit)];
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    w.u64_field("degree", degree);
    w.u64_field("offset", offset);
    w.u64_field("count", page.len() as u64);
    let next = offset + page.len() as u64;
    if next < degree && !page.is_empty() {
        w.u64_field("next_offset", next);
    } else {
        w.null_field("next_offset");
    }
    w.key("neighbors");
    w.open_array();
    for &q in page {
        w.u64_element(q as u64);
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// The exact chain `/v1/community` body: `m_in`/`m_out` brute-forced on
/// the replica, density corollaries null (pair-only statements).
fn expected_community_body(fx: &Fixture, sets: &[Vec<usize>]) -> String {
    let mut coords_list: Vec<Vec<usize>> = vec![Vec::new()];
    for s in sets {
        let mut next = Vec::with_capacity(coords_list.len() * s.len());
        for c in &coords_list {
            for &v in s {
                let mut c2 = c.clone();
                c2.push(v);
                next.push(c2);
            }
        }
        coords_list = next;
    }
    let ids: Vec<usize> = coords_list.iter().map(|c| fx.combine(c)).collect();
    let idset: std::collections::HashSet<usize> = ids.iter().copied().collect();
    let (mut m_in2, mut m_out) = (0u64, 0u64);
    for &p in &ids {
        for &q in fx.mat.neighbors(p) {
            if idset.contains(&q) {
                m_in2 += 1;
            } else {
                m_out += 1;
            }
        }
    }
    let mut w = JsonWriter::new();
    w.open_object();
    w.string_field("theorem", "thm7");
    w.u64_field("size", ids.len() as u64);
    w.u64_field("m_in", m_in2 / 2);
    w.u64_field("m_out", m_out);
    w.null_field("rho_in");
    w.null_field("rho_in_lower_bound");
    w.null_field("rho_out_upper_bound");
    w.close_object();
    w.finish()
}

/// The exact `/v1/scatter/degree-squares` JSON page from the replica.
fn expected_scatter_body(fx: &Fixture, offset: u64, limit: usize) -> String {
    let n = fx.mat.num_vertices() as u64;
    let start = offset.min(n);
    let end = n.min(offset + limit as u64);
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("offset", offset);
    w.u64_field("count", end - start);
    if end < n && end > start {
        w.u64_field("next_offset", end);
    } else {
        w.null_field("next_offset");
    }
    w.key("rows");
    w.open_array();
    for p in start..end {
        w.array_element();
        w.open_array();
        w.u64_element(p);
        w.u64_element(fx.mat.degree(p as usize) as u64);
        w.u64_element(fx.squares_vertex[p as usize]);
        w.close_array();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Extract a float field; `None` for a missing key or a JSON `null`.
fn field_f64(body: &str, key: &str) -> Option<f64> {
    let tail = body.split(&format!("\"{key}\": ")).nth(1)?;
    let raw = tail.split([',', '\n', '}']).next()?.trim();
    if raw == "null" {
        return None;
    }
    raw.parse().ok()
}

/// Differential comparator for `/v1/vertex`: indices whose body differs
/// from the brute-force expectation.
fn diff_vertices(fx: &Fixture, expected_squares: &[u64]) -> Vec<usize> {
    (0..fx.mat.num_vertices())
        .filter(|&p| {
            let resp = fx.state.handle(&get(&format!("/v1/vertex/{p}")));
            resp.status != 200 || resp.body != expected_vertex_body(fx, p, expected_squares[p])
        })
        .collect()
}

/// Thm 6 comparator: edges where the server's reported `bound` exceeds
/// the replica's exact Γ (scaled by `gamma_scale`; 1.0 is the honest
/// check, < 1.0 simulates an over-claiming bound evaluator).
fn bound_violations(fx: &Fixture, gamma_scale: f64) -> (usize, Vec<(usize, usize)>) {
    let mut bounds_seen = 0usize;
    let mut violations = Vec::new();
    for p in 0..fx.mat.num_vertices() {
        for &q in fx.mat.neighbors(p) {
            if q < p {
                continue;
            }
            let resp = fx.state.handle(&get(&format!("/v1/clustering/{p}/{q}")));
            assert_eq!(resp.status, 200);
            if let Some(b) = field_f64(&resp.body, "bound") {
                bounds_seen += 1;
                let s = fx.squares_edge.get(p, q).unwrap() as f64;
                let denom =
                    ((fx.mat.degree(p) as i128 - 1) * (fx.mat.degree(q) as i128 - 1)) as f64;
                let gamma = gamma_scale * (s / denom);
                if b > gamma + 1e-12 {
                    violations.push((p, q));
                }
            }
        }
    }
    (bounds_seen, violations)
}

#[test]
fn every_vertex_matches_materialized_truth() {
    for fx in fixtures() {
        assert_eq!(
            diff_vertices(&fx, &fx.squares_vertex),
            Vec::<usize>::new(),
            "{}",
            fx.canonical
        );
    }
}

#[test]
fn comparator_detects_an_injected_wrong_count() {
    let fx = &fixtures()[0];
    let victim = (0..fx.squares_vertex.len())
        .max_by_key(|&p| fx.squares_vertex[p])
        .unwrap();
    let mut wrong = fx.squares_vertex.clone();
    wrong[victim] += 1;
    assert_eq!(diff_vertices(fx, &wrong), vec![victim]);
}

#[test]
fn every_ordered_pair_matches_materialized_truth() {
    for fx in &fixtures() {
        let n = fx.mat.num_vertices();
        for p in 0..n {
            for q in 0..n {
                let resp = fx.state.handle(&get(&format!("/v1/edge/{p}/{q}")));
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.body,
                    expected_edge_body(fx, p, q),
                    "[{}] edge body diverged at ({p}, {q})",
                    fx.canonical
                );
            }
        }
    }
}

#[test]
fn every_neighbors_page_matches_materialized_truth() {
    for fx in &fixtures() {
        let n = fx.mat.num_vertices();
        for p in 0..n {
            let degree = fx.mat.degree(p) as u64;
            for limit in [1usize, 3, 100] {
                let mut offset = 0u64;
                loop {
                    let resp = fx.state.handle(&get(&format!(
                        "/v1/neighbors/{p}?offset={offset}&limit={limit}"
                    )));
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body,
                        expected_neighbors_body(fx, p, offset, limit),
                        "[{}] neighbors diverged at p={p} offset={offset} limit={limit}",
                        fx.canonical
                    );
                    offset += limit as u64;
                    if offset >= degree {
                        break;
                    }
                }
            }
        }
    }
}

#[test]
fn clustering_fields_match_materialized_truth() {
    for fx in &fixtures() {
        let n = fx.mat.num_vertices();
        for p in 0..n {
            for q in 0..n {
                let resp = fx.state.handle(&get(&format!("/v1/clustering/{p}/{q}")));
                assert_eq!(resp.status, 200);
                let body = &resp.body;
                let tag = format!("[{}] ({p},{q})", fx.canonical);
                assert!(
                    body.contains(&format!("\"degree_p\": {}", fx.mat.degree(p))),
                    "{tag}: {body}"
                );
                assert!(
                    body.contains(&format!("\"degree_q\": {}", fx.mat.degree(q))),
                    "{tag}: {body}"
                );
                match fx.squares_edge.get(p, q) {
                    Some(s) => {
                        assert!(body.contains("\"edge\": true"), "{tag}: {body}");
                        assert!(body.contains(&format!("\"squares\": {s}")), "{tag}: {body}");
                        let denom = (fx.mat.degree(p) as i128 - 1) * (fx.mat.degree(q) as i128 - 1);
                        if denom > 0 {
                            // Same division the server performs — the
                            // shortest round-trip spelling must agree.
                            let gamma = s as f64 / denom as f64;
                            assert!(
                                body.contains(&format!("\"gamma\": {gamma}")),
                                "{tag}: {body}"
                            );
                        } else {
                            assert!(body.contains("\"gamma\": null"), "{tag}: {body}");
                        }
                    }
                    None => {
                        assert!(body.contains("\"edge\": false"), "{tag}: {body}");
                        assert!(body.contains("\"squares\": null"), "{tag}: {body}");
                        assert!(body.contains("\"gamma\": null"), "{tag}: {body}");
                    }
                }
            }
        }
    }
}

#[test]
fn thm6_bound_holds_on_every_edge_of_the_bare_chain() {
    let fxs = fixtures();
    // Identity-free, all degrees ≥ 2: the bound must be present on every
    // edge and never exceed the exact Γ.
    let bare = &fxs[2];
    let (seen, violations) = bound_violations(bare, 1.0);
    assert_eq!(seen, bare.mat.num_edges(), "bound defined on every edge");
    assert_eq!(violations, Vec::<(usize, usize)>::new());
    // The lifted program breaks Thm 6's hypotheses — no bound anywhere.
    let (seen, _) = bound_violations(&fxs[0], 1.0);
    assert_eq!(seen, 0, "no bound under (A+I)");
}

#[test]
fn comparator_detects_an_injected_bound_violation() {
    // Shrinking the replica's Γ simulates a server whose bound evaluator
    // over-claims; the comparator must flag it. The factors all have
    // strictly positive clustering, so the genuine bounds are > 0 and a
    // zeroed Γ is below every one of them.
    let bare = &fixtures()[2];
    let (seen, violations) = bound_violations(bare, 0.0);
    assert!(seen > 0);
    assert!(
        !violations.is_empty(),
        "a zeroed Γ must register as a bound violation"
    );
}

#[test]
fn community_bodies_match_materialized_truth() {
    for fx in &fixtures() {
        let set_choices: Vec<Vec<Vec<usize>>> = vec![
            // Singletons, a mixed mid-size choice, and full levels.
            fx.sizes.iter().map(|_| vec![0]).collect(),
            fx.sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).skip(i % 2).step_by(2).collect())
                .collect(),
            fx.sizes.iter().map(|&n| (0..n).collect()).collect(),
        ];
        for sets in set_choices {
            let query: Vec<String> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let ids: Vec<String> = s.iter().map(usize::to_string).collect();
                    format!("s{i}={}", ids.join(","))
                })
                .collect();
            let resp = fx
                .state
                .handle(&get(&format!("/v1/community?{}", query.join("&"))));
            assert_eq!(resp.status, 200, "[{}] {:?}", fx.canonical, resp.body);
            assert_eq!(
                resp.body,
                expected_community_body(fx, &sets),
                "[{}] community diverged for {sets:?}",
                fx.canonical
            );
        }
    }
}

#[test]
fn scatter_pages_match_materialized_truth() {
    for fx in &fixtures() {
        let n = fx.mat.num_vertices() as u64;
        for limit in [7usize, 64] {
            let mut offset = 0u64;
            loop {
                let resp = fx.state.handle(&get(&format!(
                    "/v1/scatter/degree-squares?offset={offset}&limit={limit}"
                )));
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.body,
                    expected_scatter_body(fx, offset, limit),
                    "[{}] scatter diverged at offset={offset} limit={limit}",
                    fx.canonical
                );
                offset += limit as u64;
                if offset >= n {
                    break;
                }
            }
        }
        // CSV rows carry the same numbers.
        let resp = fx
            .state
            .handle(&get("/v1/scatter/degree-squares?format=csv&limit=64"));
        assert_eq!(resp.status, 200);
        let mut lines = resp.body.lines();
        assert_eq!(lines.next(), Some("vertex,degree,squares"));
        for (p, line) in lines.enumerate() {
            assert_eq!(
                line,
                format!("{p},{},{}", fx.mat.degree(p), fx.squares_vertex[p]),
                "[{}] csv row {p}",
                fx.canonical
            );
        }
    }
}

#[test]
fn stats_reports_canonical_expression_and_replica_totals() {
    let expected = ["(A+I)⊗B⊗C", "A⊗A⊗A", "A⊗B⊗C"];
    for (fx, want) in fixtures().iter().zip(expected) {
        assert_eq!(fx.canonical, want);
        let resp = fx.state.handle(&get("/v1/stats"));
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains(&format!("\"expr\": \"{want}\"")),
            "{}",
            resp.body
        );
        assert!(resp
            .body
            .contains(&format!("\"vertices\": {}", fx.mat.num_vertices())));
        assert!(resp
            .body
            .contains(&format!("\"edges\": {}", fx.mat.num_edges())));
        let global = fx.squares_vertex.iter().sum::<u64>() / 4;
        assert!(
            resp.body.contains(&format!("\"global_squares\": {global}")),
            "{}",
            resp.body
        );
    }
}
