//! Triangle counting for the non-bipartite factors of Assump. 1(i).
//!
//! The paper's §III opening requires factor `A` to contain an odd cycle;
//! triangle statistics also connect this work to the prior Kronecker
//! ground-truth papers it extends (\[3\], \[12\]), whose formulas are about
//! `t_i = ½·diag(A³)_i`.

use rayon::prelude::*;

use bikron_graph::Graph;
use bikron_sparse::Ix;

use crate::butterfly::intersection_size;

/// Per-vertex triangle counts `t_i` (each triangle counted once per
/// corner). Requires no self loops.
pub fn triangles_per_vertex(g: &Graph) -> Vec<u64> {
    assert!(
        g.has_no_self_loops(),
        "triangle counting requires no self loops"
    );
    (0..g.num_vertices())
        .into_par_iter()
        .map(|i| {
            let ni = g.neighbors(i);
            // Each triangle (i, j, k) is found twice from i (via j and k).
            let twice: u64 = ni
                .iter()
                .map(|&j| intersection_size(ni, g.neighbors(j)))
                .sum();
            twice / 2
        })
        .collect()
}

/// Per-edge triangle counts `Δ_ij = |N_i ∩ N_j|` keyed `(u, v, count)`
/// with `u < v`.
pub fn triangles_per_edge(g: &Graph) -> Vec<(Ix, Ix, u64)> {
    assert!(
        g.has_no_self_loops(),
        "triangle counting requires no self loops"
    );
    let edges: Vec<(Ix, Ix)> = g.edges().collect();
    edges
        .into_par_iter()
        .map(|(u, v)| (u, v, intersection_size(g.neighbors(u), g.neighbors(v))))
        .collect()
}

/// Global triangle count: `Σ t_i / 3`.
pub fn triangles_global(g: &Graph) -> u64 {
    let total: u64 = triangles_per_vertex(g).iter().sum();
    debug_assert_eq!(total % 3, 0);
    total / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn k3_and_k4() {
        assert_eq!(triangles_global(&complete(3)), 1);
        assert_eq!(triangles_global(&complete(4)), 4);
        assert_eq!(triangles_per_vertex(&complete(4)), vec![3, 3, 3, 3]);
    }

    #[test]
    fn bipartite_has_none() {
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        assert_eq!(triangles_global(&g), 0);
    }

    #[test]
    fn per_edge_counts() {
        let g = complete(4);
        for &(_, _, c) in &triangles_per_edge(&g) {
            assert_eq!(c, 2); // every K4 edge is in 2 triangles
        }
    }

    #[test]
    fn triangle_with_pendant() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1, 0]);
        assert_eq!(triangles_global(&g), 1);
    }
}
