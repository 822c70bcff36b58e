//! End-to-end check of the paper's GraphBLAS non-blocking claim: a
//! "relatively simple GraphBLAS code" — here, a deferred [`MatExpr`] —
//! samples 4-cycle counts at edges and vertices of a Kronecker product
//! **without materialising the product**, and the samples agree with both
//! the closed-form ground truth and direct counting.

use bikron::core::truth::squares_edge::edge_squares_at;
use bikron::core::truth::squares_vertex::vertex_squares_at;
use bikron::core::truth::FactorStats;
use bikron::core::{KroneckerProduct, SelfLoopMode};
use bikron::generators::{complete_bipartite, crown, cycle, path};
use bikron::graph::Graph;
use bikron::sparse::MatExpr;

/// Build the deferred expression for the product adjacency `C`.
fn c_expr(a: &Graph, b: &Graph, mode: SelfLoopMode) -> MatExpr {
    let la = MatExpr::leaf(a.adjacency().map(|()| 1i128));
    let lb = MatExpr::leaf(b.adjacency().map(|()| 1i128));
    match mode {
        SelfLoopMode::None => la.kron(lb),
        SelfLoopMode::FactorA => la.plus_identity().kron(lb),
    }
}

/// `◇_pq` sampled through the deferred `C³ ∘ C` expression plus the
/// degree correction of Def. 9 (degrees from the product descriptor).
fn sampled_edge_squares(
    expr_c3_had_c: &MatExpr,
    prod: &KroneckerProduct<'_>,
    p: usize,
    q: usize,
) -> Option<i128> {
    if !prod.has_edge(p, q) {
        return None;
    }
    let w3 = expr_c3_had_c.entry(p, q);
    Some(w3 - prod.degree(p) as i128 - prod.degree(q) as i128 + 1)
}

#[test]
fn deferred_edge_samples_match_ground_truth() {
    let cases = [
        (cycle(5), complete_bipartite(2, 3), SelfLoopMode::None),
        (path(3), cycle(4), SelfLoopMode::FactorA),
        (crown(3), crown(3), SelfLoopMode::FactorA),
    ];
    for (a, b, mode) in &cases {
        let prod = KroneckerProduct::new(a, b, *mode).unwrap();
        let sa = FactorStats::compute(a).unwrap();
        let sb = FactorStats::compute(b).unwrap();
        let c = c_expr(a, b, *mode);
        let c3_had_c = c
            .clone()
            .matmul(c.clone())
            .matmul(c.clone())
            .hadamard(c.clone());
        // Sample every edge (products here are small) through the lazy path.
        for (p, q) in prod.edges() {
            let lazy = sampled_edge_squares(&c3_had_c, &prod, p, q).unwrap();
            let truth = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
            assert_eq!(lazy as u64, truth, "edge ({p},{q}) mode {mode:?}");
        }
        // Non-edges sample as None.
        assert_eq!(sampled_edge_squares(&c3_had_c, &prod, 0, 0), None);
    }
}

#[test]
fn deferred_vertex_samples_match_ground_truth() {
    let a = cycle(3);
    let b = complete_bipartite(2, 3);
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
    let sa = FactorStats::compute(&a).unwrap();
    let sb = FactorStats::compute(&b).unwrap();
    let c = c_expr(&a, &b, SelfLoopMode::None);
    // diag(C⁴) via the fused Kron path: diag((A⁴) ⊗ (B⁴)).
    let pow4 = |g: &Graph| {
        let e = MatExpr::leaf(g.adjacency().map(|()| 1i128));
        e.clone().matmul(e.clone()).matmul(e.clone()).matmul(e)
    };
    let diag_c4 = pow4(&a).kron(pow4(&b)).diag();
    for (p, &dc4) in diag_c4.iter().enumerate() {
        // Def. 8: s_p = ½(diag(C⁴) − d² − w² + d).
        let d = prod.degree(p) as i128;
        let w2: i128 = c
            .row(p)
            .into_iter()
            .map(|(q, v)| v * prod.degree(q) as i128)
            .sum();
        let s = (dc4 - d * d - w2 + d) / 2;
        assert_eq!(
            s as u64,
            vertex_squares_at(&prod, &sa, &sb, p),
            "vertex {p}"
        );
    }
}
