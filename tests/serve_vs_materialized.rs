//! Differential test: `bikron-serve`'s closed-form answers (Thms 3–5,
//! evaluated from factor-sized state) against brute force on the
//! **materialised** product `(A+I_A)⊗B` / `A⊗B`.
//!
//! The server never builds the product; `bikron_analytics` counts
//! butterflies by enumerating it. Agreement between the two — checked
//! here at the *byte* level of the HTTP bodies, for 100% of product
//! vertices, 100% of ordered vertex pairs, and every neighbors/edge-list
//! page — is end-to-end evidence that the serving path (routing, batch
//! assembly, JSON encoding) preserves ground truth.
//!
//! `handle()` is driven in-process (no TCP): the suite parses real HTTP
//! request bytes through the production parser, so everything except the
//! socket accept loop is exercised.

use std::io::BufReader;

use bikron_analytics::butterfly::{butterflies_per_edge, butterflies_per_vertex};
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, cycle, path, star};
use bikron_graph::Graph;
use bikron_obs::JsonWriter;
use bikron_serve::http::{parse_request, Request};
use bikron_serve::{ServeOptions, ServeState};

/// Parse a GET request through the production HTTP parser.
fn get(path: &str) -> Request {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// Parse a POST request (for `/v1/batch`) through the production parser.
fn post(path: &str, body: &str) -> Request {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// Everything the brute-force side knows about one fixture: the served
/// state plus the materialised product and its enumerated counts.
struct Fixture {
    state: ServeState,
    mat: Graph,
    /// Thm 3/4 reference: butterflies at each product vertex, counted on
    /// the materialised graph.
    squares_vertex: Vec<u64>,
    /// Thm 5 reference: butterflies through each materialised edge.
    squares_edge: bikron_analytics::butterfly::EdgeButterflies,
    n_b: usize,
}

fn fixture(a: Graph, b: Graph, mode: SelfLoopMode, options: ServeOptions) -> Fixture {
    let mat = KroneckerProduct::new(&a, &b, mode).unwrap().materialize();
    let n_b = b.num_vertices();
    Fixture {
        state: ServeState::build_with(a, b, mode, options).unwrap(),
        squares_vertex: butterflies_per_vertex(&mat),
        squares_edge: butterflies_per_edge(&mat),
        mat,
        n_b,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions::default(),
        ),
        // loops-a is the paper's dense-structure mode.
        fixture(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions::default(),
        ),
        fixture(
            path(4),
            star(4),
            SelfLoopMode::FactorA,
            ServeOptions::default(),
        ),
    ]
}

/// The exact `/v1/vertex/{p}` body, built from the *materialised* graph
/// (degree + enumerated butterfly count) instead of the closed forms.
fn expected_vertex_body(fx: &Fixture, p: usize, squares: u64) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    w.u64_field("alpha", (p / fx.n_b) as u64);
    w.u64_field("beta", (p % fx.n_b) as u64);
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

/// Differential comparator: serve every vertex and return the indices
/// whose body differs from the brute-force expectation. The happy path
/// asserts this is empty; the failure-injection test asserts a perturbed
/// expectation is *caught* (a comparator that can't fail proves nothing).
fn diff_vertices(fx: &Fixture, expected_squares: &[u64]) -> Vec<usize> {
    (0..fx.mat.num_vertices())
        .filter(|&p| {
            let resp = fx.state.handle(&get(&format!("/v1/vertex/{p}")));
            resp.status != 200 || resp.body != expected_vertex_body(fx, p, expected_squares[p])
        })
        .collect()
}

#[test]
fn every_vertex_matches_materialized_truth() {
    for fx in fixtures() {
        assert_eq!(diff_vertices(&fx, &fx.squares_vertex), Vec::<usize>::new());
    }
}

#[test]
fn comparator_detects_an_injected_wrong_count() {
    // analytics::buggy-style failure injection: an off-by-one in a single
    // vertex's count must surface as exactly that vertex differing.
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
                    "edge body diverged at ({p}, {q})"
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
                        "neighbors page diverged at p={p} offset={offset} limit={limit}"
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
fn edge_stream_pages_cover_exactly_the_materialized_edge_set() {
    for fx in fixtures() {
        for parts in [1usize, 3] {
            let mut streamed: Vec<(usize, usize)> = Vec::new();
            for part in 0..parts {
                let mut offset = 0u64;
                loop {
                    let resp = fx.state.handle(&get(&format!(
                        "/v1/edges/{part}/{parts}?offset={offset}&limit=7"
                    )));
                    assert_eq!(resp.status, 200);
                    // `edges` is the body's final field: an array of
                    // two-element arrays. Each `split('[')` piece past the
                    // first holds one pair, terminated by its inner `]`.
                    let tail = resp.body.split("\"edges\": [").nth(1).unwrap();
                    let mut count = 0u64;
                    for piece in tail.split('[').skip(1) {
                        let nums: Vec<usize> = piece
                            .split(']')
                            .next()
                            .unwrap()
                            .split(|c: char| !c.is_ascii_digit())
                            .filter(|s| !s.is_empty())
                            .map(|s| s.parse().unwrap())
                            .collect();
                        assert_eq!(nums.len(), 2, "malformed edge pair in {piece:?}");
                        streamed.push((nums[0].min(nums[1]), nums[0].max(nums[1])));
                        count += 1;
                    }
                    if resp.body.contains("\"next_offset\": null") {
                        break;
                    }
                    offset += count;
                }
            }
            streamed.sort_unstable();
            let mut expected: Vec<(usize, usize)> =
                fx.mat.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
            expected.sort_unstable();
            assert_eq!(streamed, expected, "edge stream with {parts} part(s)");
        }
    }
}

/// Build the batch request body and the byte-expected response — the
/// single-endpoint bodies (trailing newline trimmed) as one JSON array.
fn batch_case(fx: &Fixture) -> (String, String) {
    let n = fx.mat.num_vertices();
    let mut lines = Vec::new();
    let mut singles = Vec::new();
    for p in 0..n.min(6) {
        lines.push(format!("vertex {p}"));
        singles.push(expected_vertex_body(fx, p, fx.squares_vertex[p]));
        lines.push(format!("edge {p} {}", (p + 1) % n));
        singles.push(expected_edge_body(fx, p, (p + 1) % n));
        lines.push(format!("neighbors {p} 0 3"));
        singles.push(expected_neighbors_body(fx, p, 0, 3));
    }
    let body = lines.join("\n") + "\n";
    let expected = format!(
        "[\n{}\n]\n",
        singles
            .iter()
            .map(|s| s.trim_end())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    (body, expected)
}

/// The single GET a batch query line stands for.
fn single_path(line: &str) -> String {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["vertex", p] => format!("/v1/vertex/{p}"),
        ["edge", p, q] => format!("/v1/edge/{p}/{q}"),
        ["neighbors", p, offset, limit] => {
            format!("/v1/neighbors/{p}?offset={offset}&limit={limit}")
        }
        _ => panic!("unexpected batch line {line:?}"),
    }
}

/// Assert that `state` answers `body` as one JSON array of exactly the
/// bodies the single endpoints send for its lines.
fn assert_batch_is_singles(state: &ServeState, body: &str) {
    let singles: Vec<String> = body
        .lines()
        .map(|line| state.handle(&get(&single_path(line))).body)
        .collect();
    let expected = format!(
        "[\n{}\n]\n",
        singles
            .iter()
            .map(|s| s.trim_end())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let resp = state.handle(&post("/v1/batch", body));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected, "batch diverged from its singles");
}

#[test]
fn batch_equals_sequence_of_singles_on_pair_and_expr_backends() {
    // Pair backend: the batch is the materialised truth of its items,
    // and the same bytes as N single requests, embedded 404s included.
    let pair = fixtures();
    for fx in &pair {
        let (body, expected) = batch_case(fx);
        let resp = fx.state.handle(&post("/v1/batch", &body));
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body, expected,
            "batch diverged from materialised truth"
        );
        let n = fx.mat.num_vertices();
        let with_errors = format!("{body}vertex {n}\nedge 0 {n}\nneighbors {n} 0 3\n");
        assert_batch_is_singles(&fx.state, &with_errors);
    }
    // Expression backend: the program of `fixtures()[1]` as `--expr`.
    // Edge and neighbors bodies are byte-identical across backends, so
    // the materialised truth pins them here too.
    let expr = ServeState::build_expr(
        vec![
            ("A".to_string(), cycle(5)),
            ("B".to_string(), complete_bipartite(2, 3)),
        ],
        &[("A".to_string(), true), ("B".to_string(), false)],
        ServeOptions::default(),
    )
    .unwrap();
    let (body, _) = batch_case(&pair[1]);
    assert_batch_is_singles(&expr, &format!("{body}vertex 25\nedge 25 0\n"));
    for line in body.lines().filter(|l| !l.starts_with("vertex")) {
        let path = single_path(line);
        assert_eq!(
            expr.handle(&get(&path)).body,
            pair[1].state.handle(&get(&path)).body,
            "{path}"
        );
    }
}
