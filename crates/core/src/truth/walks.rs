//! Per-factor walk statistics — the ingredients of every product formula.
//!
//! For a loop-free undirected factor `A`, [`FactorStats`] holds:
//!
//! * `degrees` — `d_A = A·1` (Def. 2, `w^{(1)}`);
//! * `w2` — `w_A^{(2)} = A²·1`;
//! * `diag_a3` — `diag(A³)` (`= 2·t_i`, twice the triangle counts; zero
//!   for bipartite factors);
//! * `diag_a4` — `diag(A⁴)`, the length-4 closed-walk counts of Fig. 2;
//! * `squares` — `s_A` per Def. 8:
//!   `s_A = ½(diag(A⁴) − d∘d − w^{(2)} + d)`;
//! * `edge_w3` — `A³ ∘ A`: length-3 walk counts restricted to edges
//!   (Fig. 4);
//! * `edge_w2` — `A² ∘ A`: length-2 walk counts on edges (nonzero only
//!   when the factor has triangles; needed for the `(A+I)³` expansion);
//! * `edge_squares` — `◇_A` per Def. 9:
//!   `◇_A = A³∘A − (d·1ᵗ + 1·dᵗ)∘A + A`.
//!
//! Cost: one sparse `A²` (SpGEMM) plus one masked SpGEMM for `A³ ∘ A` —
//! `O(|E_A|^{3/2})`-ish for the small factors this method is designed
//! around, and the paper's "sublinear memory" claim is exactly that only
//! these factor-sized objects are ever stored.

use bikron_graph::Graph;
use bikron_sparse::{
    ewise_mult, spgemm, spgemm_masked, u64_plus_times, Coo, Csr, SparseError, SparseResult,
};

/// Walk statistics of one factor. All vectors are indexed by factor vertex.
#[derive(Clone, Debug, PartialEq)]
pub struct FactorStats {
    /// `d_A` as `i128` (formula domain).
    pub degrees: Vec<i128>,
    /// `w_A^{(2)} = A²·1`.
    pub w2: Vec<i128>,
    /// `diag(A³)` — twice the per-vertex triangle count.
    pub diag_a3: Vec<i128>,
    /// `diag(A⁴)` — closed 4-walk counts.
    pub diag_a4: Vec<i128>,
    /// `s_A` — 4-cycles at each vertex (Def. 8).
    pub squares: Vec<i128>,
    /// `A³ ∘ A` on the adjacency pattern.
    pub edge_w3: Csr<i128>,
    /// `A² ∘ A` (pattern-intersected; empty for bipartite factors).
    pub edge_w2: Csr<i128>,
    /// `◇_A` on the full adjacency pattern (explicit zeros kept).
    pub edge_squares: Csr<i128>,
}

impl FactorStats {
    /// Compute all statistics for a loop-free factor.
    pub fn compute(g: &Graph) -> SparseResult<Self> {
        if !g.has_no_self_loops() {
            return Err(SparseError::Malformed(
                "FactorStats requires a loop-free factor (paper Defs. 8-9)".into(),
            ));
        }
        let a = &g.adjacency().map(|()| 1u64);
        let n = a.nrows();
        let semiring = u64_plus_times();

        let degrees: Vec<i128> = (0..n).map(|v| g.degree(v) as i128).collect();

        // A² once; everything else derives from it.
        let a2 = spgemm(&semiring, a, a)?;

        // w2 = A²·1 — row sums of A².
        let w2: Vec<i128> = (0..n)
            .map(|r| a2.row(r).1.iter().map(|&v| v as i128).sum())
            .collect();

        // diag(A⁴)_i = Σ_j (A²_ij)² by symmetry of A².
        let diag_a4: Vec<i128> = (0..n)
            .map(|r| a2.row(r).1.iter().map(|&v| (v as i128) * (v as i128)).sum())
            .collect();

        // diag(A³)_i = Σ_{j ∈ N_i} A²_ij.
        let diag_a3: Vec<i128> = (0..n)
            .map(|i| {
                g.neighbors(i)
                    .iter()
                    .map(|&j| a2.get(i, j).unwrap_or(0) as i128)
                    .sum()
            })
            .collect();

        // s_A = ½(diag(A⁴) − d∘d − w2 + d).
        let squares: Vec<i128> = (0..n)
            .map(|i| {
                let v = diag_a4[i] - degrees[i] * degrees[i] - w2[i] + degrees[i];
                debug_assert!(v >= 0 && v % 2 == 0, "Def. 8 invariant at vertex {i}: {v}");
                v / 2
            })
            .collect();

        // A³ ∘ A via masked SpGEMM (A²·A masked by A's pattern).
        let a3_masked = spgemm_masked(&semiring, &a2, a, a)?;
        let edge_w3 = a3_masked.map(|v| v as i128);

        // A² ∘ A (zero for bipartite factors).
        let edge_w2 = ewise_mult(&a2, a, |x, _| x as i128, |&v| v == 0)?;

        // ◇_A pointwise on every adjacency entry: W3_ij − d_i − d_j + 1.
        // Built with explicit zeros so the pattern stays the full adjacency.
        let mut coo = Coo::with_capacity(n, n, edge_w3.nnz());
        for (i, j, w3) in edge_w3.iter() {
            let v = w3 - degrees[i] - degrees[j] + 1;
            debug_assert!(v >= 0, "Def. 9 invariant at edge ({i},{j}): {v}");
            coo.push(i, j, v)?;
        }
        let edge_squares = Csr::from_coo(coo, |x, _| x, |_| false);
        debug_assert!(edge_squares.same_pattern(a));

        Ok(FactorStats {
            degrees,
            w2,
            diag_a3,
            diag_a4,
            squares,
            edge_w3,
            edge_w2,
            edge_squares,
        })
    }

    /// Number of vertices.
    pub fn order(&self) -> usize {
        self.degrees.len()
    }

    /// `W³(i,j)` on an edge, 0 if `(i,j)` is not an edge.
    pub fn w3_at(&self, i: usize, j: usize) -> i128 {
        self.edge_w3.get(i, j).unwrap_or(0)
    }

    /// `W²(i,j)` on an edge (nonzero only with triangles).
    pub fn w2_at(&self, i: usize, j: usize) -> i128 {
        self.edge_w2.get(i, j).unwrap_or(0)
    }

    /// `◇(i,j)` on an edge, `None` if `(i,j)` is not an edge.
    pub fn squares_at_edge(&self, i: usize, j: usize) -> Option<i128> {
        self.edge_squares.get(i, j)
    }

    /// Total 4-cycles in the factor: `Σ s_i / 4`.
    pub fn global_squares(&self) -> i128 {
        self.squares.iter().sum::<i128>() / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_analytics::{butterflies_global, butterflies_per_edge, butterflies_per_vertex};
    use bikron_generators::{
        complete, complete_bipartite, crown, cycle, hypercube, path, petersen,
    };

    fn check_against_direct(g: &Graph) {
        let fs = FactorStats::compute(g).unwrap();
        let direct_v = butterflies_per_vertex(g);
        for (i, &s) in fs.squares.iter().enumerate() {
            assert_eq!(s as u64, direct_v[i], "vertex {i}");
        }
        let direct_e = butterflies_per_edge(g);
        for (i, j, v) in fs.edge_squares.iter() {
            if i < j {
                assert_eq!(v as u64, direct_e.get(i, j).unwrap(), "edge ({i},{j})");
            }
        }
        assert_eq!(fs.global_squares() as u64, butterflies_global(g));
    }

    #[test]
    fn named_graphs_match_direct_counting() {
        for g in [
            path(6),
            cycle(4),
            cycle(7),
            complete(5),
            complete_bipartite(3, 4),
            crown(4),
            hypercube(3),
            petersen(),
        ] {
            check_against_direct(&g);
        }
    }

    #[test]
    fn fig2_identity_holds() {
        // W⁴(i,i) = 2s_i + d_i² + Σ_{j∈N_i} d_j − d_i; note Σ_{j∈N_i} d_j = w2_i.
        let g = crown(4);
        let fs = FactorStats::compute(&g).unwrap();
        for i in 0..fs.order() {
            assert_eq!(
                fs.diag_a4[i],
                2 * fs.squares[i] + fs.degrees[i] * fs.degrees[i] + fs.w2[i] - fs.degrees[i]
            );
        }
    }

    #[test]
    fn fig4_identity_holds() {
        // W³(i,j) = ◇_ij + d_i + d_j − 1 on every edge.
        let g = complete_bipartite(3, 3);
        let fs = FactorStats::compute(&g).unwrap();
        for (i, j, w3) in fs.edge_w3.iter() {
            assert_eq!(
                w3,
                fs.squares_at_edge(i, j).unwrap() + fs.degrees[i] + fs.degrees[j] - 1
            );
        }
    }

    #[test]
    fn edge_vertex_relation() {
        // s_A = ½ ◇_A·1 (paper, after Def. 9).
        let g = hypercube(3);
        let fs = FactorStats::compute(&g).unwrap();
        for i in 0..fs.order() {
            let row_sum: i128 = fs.edge_squares.row(i).1.iter().sum();
            assert_eq!(2 * fs.squares[i], row_sum);
        }
    }

    #[test]
    fn diag_a3_is_twice_triangles() {
        let g = complete(4);
        let fs = FactorStats::compute(&g).unwrap();
        let t = bikron_analytics::triangles::triangles_per_vertex(&g);
        for (&da3, &ti) in fs.diag_a3.iter().zip(&t) {
            assert_eq!(da3, 2 * ti as i128);
        }
        let bip = complete_bipartite(2, 3);
        let fs = FactorStats::compute(&bip).unwrap();
        assert!(fs.diag_a3.iter().all(|&x| x == 0));
        assert_eq!(fs.edge_w2.nnz(), 0);
    }

    #[test]
    fn loopy_factor_rejected() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 0)]).unwrap();
        assert!(FactorStats::compute(&g).is_err());
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::from_edges(3, &[]).unwrap();
        let fs = FactorStats::compute(&g).unwrap();
        assert_eq!(fs.squares, vec![0, 0, 0]);
        assert_eq!(fs.global_squares(), 0);
        assert_eq!(fs.edge_squares.nnz(), 0);
    }
}
