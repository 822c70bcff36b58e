//! Sampling estimators of the global 4-cycle count.
//!
//! §I motivates the generator partly as a validation tool for
//! *approximate* counters: an estimator's error can only be measured
//! against ground truth. Two standard estimators are provided.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bikron_graph::Graph;
use bikron_sparse::Ix;

use crate::butterfly::intersection_size;

/// Wedge-sampling estimator.
///
/// A *wedge* is a path `u–a–v` (`u < v`, centre `a`). For a uniformly
/// random wedge, the number of 4-cycles that contain it is
/// `codeg(u,v) − 1`, and each 4-cycle contains exactly 4 wedges, so
/// `E[codeg(u,v) − 1] · W / 4` is unbiased for the global count, where
/// `W = Σ_a C(d_a, 2)` is the total wedge count.
pub fn wedge_sampling_estimate(g: &Graph, samples: usize, seed: u64) -> f64 {
    assert!(g.has_no_self_loops());
    let n = g.num_vertices();
    // Cumulative wedge counts per centre for weighted centre sampling.
    let mut cum = Vec::with_capacity(n);
    let mut total_wedges = 0u64;
    for v in 0..n {
        let d = g.degree(v) as u64;
        total_wedges += d * d.saturating_sub(1) / 2;
        cum.push(total_wedges);
    }
    if total_wedges == 0 || samples == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0f64;
    for _ in 0..samples {
        let x = rng.gen_range(0..total_wedges);
        let a = cum.partition_point(|&c| c <= x);
        let na = g.neighbors(a);
        // Uniform unordered neighbour pair.
        let d = na.len();
        let i = rng.gen_range(0..d);
        let mut j = rng.gen_range(0..d - 1);
        if j >= i {
            j += 1;
        }
        let (u, v) = (na[i], na[j]);
        let codeg = intersection_size(g.neighbors(u), g.neighbors(v));
        acc += (codeg - 1) as f64; // ≥1: `a` itself is a common neighbour
    }
    (acc / samples as f64) * (total_wedges as f64) / 4.0
}

/// Edge-sampling estimator: sample edges uniformly, compute the exact
/// per-edge count for each, scale by `|E| / 4`.
pub fn edge_sampling_estimate(g: &Graph, samples: usize, seed: u64) -> f64 {
    assert!(g.has_no_self_loops());
    let edges: Vec<(Ix, Ix)> = g.edges().collect();
    if edges.is_empty() || samples == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0f64;
    for _ in 0..samples {
        let (i, j) = edges[rng.gen_range(0..edges.len())];
        let nj = g.neighbors(j);
        let mut count = 0u64;
        for &a in g.neighbors(i) {
            if a == j {
                continue;
            }
            count += intersection_size(g.neighbors(a), nj) - 1;
        }
        acc += count as f64;
    }
    (acc / samples as f64) * (edges.len() as f64) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::butterflies_global;

    fn complete_bipartite(m: usize, n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..m {
            for w in 0..n {
                edges.push((u, m + w));
            }
        }
        Graph::from_edges(m + n, &edges).unwrap()
    }

    #[test]
    fn wedge_estimator_exact_on_regular_structure() {
        // On K_{n,n} every wedge has the same closure count (n − 1), so
        // the estimate is exact for any sample size.
        let g = complete_bipartite(4, 4);
        let truth = butterflies_global(&g) as f64;
        let est = wedge_sampling_estimate(&g, 32, 7);
        assert!(
            (est - truth).abs() < 1e-9,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn edge_estimator_exact_on_edge_transitive() {
        let g = complete_bipartite(3, 4);
        let truth = butterflies_global(&g) as f64;
        let est = edge_sampling_estimate(&g, 16, 3);
        assert!((est - truth).abs() < 1e-9);
    }

    #[test]
    fn estimators_converge_on_irregular_graph() {
        // Two overlapping bicliques — wedge closure varies across wedges.
        let mut edges = Vec::new();
        for u in 0..4 {
            for w in 0..3 {
                edges.push((u, 6 + w));
            }
        }
        for u in 3..6 {
            for w in 2..5 {
                edges.push((u, 6 + w));
            }
        }
        let g = Graph::from_edges(11, &edges).unwrap();
        let truth = butterflies_global(&g) as f64;
        let est_w = wedge_sampling_estimate(&g, 20_000, 11);
        let est_e = edge_sampling_estimate(&g, 20_000, 13);
        assert!(
            (est_w - truth).abs() / truth < 0.1,
            "wedge estimate {est_w} vs {truth}"
        );
        assert!(
            (est_e - truth).abs() / truth < 0.1,
            "edge estimate {est_e} vs {truth}"
        );
    }

    #[test]
    fn zero_on_empty_or_acyclic() {
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // Wedges exist but never close.
        assert_eq!(wedge_sampling_estimate(&path, 100, 1), 0.0);
        let empty = Graph::from_edges(4, &[]).unwrap();
        assert_eq!(wedge_sampling_estimate(&empty, 100, 1), 0.0);
        assert_eq!(edge_sampling_estimate(&empty, 100, 1), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = complete_bipartite(4, 4);
        assert_eq!(
            wedge_sampling_estimate(&g, 50, 5),
            wedge_sampling_estimate(&g, 50, 5)
        );
    }
}
