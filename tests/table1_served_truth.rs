//! Table-I scale: a pair server's answers against an independent
//! evaluator.
//!
//! `bikron serve unicode unicode loops-a` answers every query through
//! one `KronChain`, and so does the renderer of perfbench's expected
//! bodies, so a mistake in the chain's index arithmetic or in one of its
//! Thm 3–6 terms would pass that benchmark's answer checks. This suite
//! renders the expected `/v1/vertex`, `/v1/edge` and `/v1/clustering`
//! bodies from the two-factor closed forms in `bikron_core::truth`
//! (`vertex_squares_at`, `edge_squares_at`, `product_gamma`,
//! `scaling_law_at`), and the `/v1/neighbors` pages from
//! `KroneckerProduct::neighbors_page`, none of which share per-query
//! code with the chain, and compares them byte for byte with the
//! server's on the 753,424-vertex product `(A+I)⊗A`.
//!
//! Keys: a uniform sample of vertices, each with one known edge, one
//! random pair and one neighbors page at a random offset, plus the 50
//! highest-degree vertices with a spread of their known edges and pages
//! at offsets `0`, `d/2`, `d − 1` and `d`, where the products in every
//! term are largest.

use std::io::BufReader;

use bikron_core::truth::clustering::{product_gamma, scaling_law_at};
use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KroneckerProduct, SelfLoopMode};
use bikron_generators::unicode_like::unicode_like;
use bikron_obs::JsonWriter;
use bikron_serve::http::parse_request;
use bikron_serve::ServeState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNIFORM_VERTICES: usize = 1_500;
const TOP_VERTICES: usize = 50;
const EDGES_PER_TOP_VERTEX: u64 = 40;
const PAGE_LIMIT: usize = 64;

/// The pair evaluators over the Table-I product.
struct Reference<'a> {
    prod: KroneckerProduct<'a>,
    stats: FactorStats,
}

impl Reference<'_> {
    fn vertex(&self, p: usize) -> String {
        let (i, k) = self.prod.indexer().split(p);
        let mut w = JsonWriter::new();
        w.open_object();
        w.u64_field("vertex", p as u64);
        w.u64_field("alpha", i as u64);
        w.u64_field("beta", k as u64);
        w.u64_field("degree", self.prod.degree(p));
        w.u64_field(
            "squares",
            vertex_squares_at(&self.prod, &self.stats, &self.stats, p),
        );
        w.close_object();
        w.finish()
    }

    /// The fields `/v1/edge` and `/v1/clustering` share.
    fn edge_fields(&self, w: &mut JsonWriter, p: usize, q: usize) {
        let squares = edge_squares_at(&self.prod, &self.stats, &self.stats, p, q);
        w.u64_field("p", p as u64);
        w.u64_field("q", q as u64);
        w.bool_field("edge", squares.is_some());
        w.u64_field("degree_p", self.prod.degree(p));
        w.u64_field("degree_q", self.prod.degree(q));
        match squares {
            Some(s) => w.u64_field("squares", s),
            None => w.null_field("squares"),
        }
    }

    fn edge(&self, p: usize, q: usize) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        self.edge_fields(&mut w, p, q);
        w.close_object();
        w.finish()
    }

    fn clustering(&self, p: usize, q: usize) -> String {
        let (s, t) = (&self.stats, &self.stats);
        let law = scaling_law_at(&self.prod, s, t, p, q);
        let mut w = JsonWriter::new();
        w.open_object();
        self.edge_fields(&mut w, p, q);
        for (key, value) in [
            ("gamma", product_gamma(&self.prod, s, t, p, q)),
            ("bound", law.map(|l| l.bound)),
            ("psi", law.map(|l| l.psi)),
        ] {
            match value {
                Some(v) => w.f64_field(key, v),
                None => w.null_field(key),
            }
        }
        w.close_object();
        w.finish()
    }

    fn neighbors(&self, p: usize, offset: u64, limit: usize) -> String {
        let degree = self.prod.degree(p);
        let page = self.prod.neighbors_page(p, offset, limit);
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
        for q in page {
            w.u64_element(q as u64);
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

/// The served body for `path`, which must answer 200.
fn served(state: &ServeState, path: &str) -> String {
    let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
    let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
    let resp = state.handle(&req);
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.body
}

#[test]
fn table1_answers_match_the_pair_closed_forms() {
    let a = unicode_like();
    let state = ServeState::build(a.clone(), a.clone(), SelfLoopMode::FactorA, None).unwrap();
    let truth = Reference {
        prod: KroneckerProduct::new(&a, &a, SelfLoopMode::FactorA).unwrap(),
        stats: FactorStats::compute(&a).unwrap(),
    };
    let n = truth.prod.num_vertices();
    assert_eq!(n, 753_424);

    let mut rng = StdRng::seed_from_u64(0x7AB1E1);
    let mut vertices: Vec<usize> = (0..UNIFORM_VERTICES).map(|_| rng.gen_range(0..n)).collect();
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&p| std::cmp::Reverse(truth.prod.degree(p)));
    let top = &by_degree[..TOP_VERTICES];
    vertices.extend_from_slice(top);

    let (mut pairs, mut known, mut pages) = (Vec::new(), 0, Vec::new());
    for (slot, &p) in vertices.iter().enumerate() {
        let degree = truth.prod.degree(p);
        let ranks: Vec<u64> = match (slot < UNIFORM_VERTICES, degree) {
            (_, 0) => Vec::new(),
            (true, d) => vec![rng.gen_range(0..d)],
            (false, d) => (0..EDGES_PER_TOP_VERTEX)
                .map(|r| r * d / EDGES_PER_TOP_VERTEX)
                .collect(),
        };
        if slot < UNIFORM_VERTICES {
            pages.push((p, rng.gen_range(0..=degree)));
        } else {
            let d = degree;
            pages.extend([0, d / 2, d.saturating_sub(1), d].map(|offset| (p, offset)));
        }
        known += ranks.len();
        for rank in ranks {
            pairs.push((p, truth.prod.neighbors_page(p, rank, 1)[0]));
        }
        pairs.push((p, rng.gen_range(0..n)));
    }
    let edges = pairs
        .iter()
        .filter(|&&(p, q)| truth.prod.has_edge(p, q))
        .count();
    assert!(
        edges >= known && known > TOP_VERTICES * EDGES_PER_TOP_VERTEX as usize,
        "{edges} edges among the pairs, {known} drawn from neighbor lists"
    );

    for &p in &vertices {
        assert_eq!(
            served(&state, &format!("/v1/vertex/{p}")),
            truth.vertex(p),
            "vertex {p}"
        );
    }
    for &(p, offset) in &pages {
        assert_eq!(
            served(
                &state,
                &format!("/v1/neighbors/{p}?offset={offset}&limit={PAGE_LIMIT}")
            ),
            truth.neighbors(p, offset, PAGE_LIMIT),
            "neighbors of {p} from {offset}"
        );
    }
    for &(p, q) in &pairs {
        assert_eq!(
            served(&state, &format!("/v1/edge/{p}/{q}")),
            truth.edge(p, q),
            "edge ({p}, {q})"
        );
        assert_eq!(
            served(&state, &format!("/v1/clustering/{p}/{q}")),
            truth.clustering(p, q),
            "clustering ({p}, {q})"
        );
    }
}
