//! Iterated Kronecker powers `A^{⊗k}` with composed ground truth.
//!
//! The prior-work generators this paper extends (Leskovec et al.; Kepner
//! et al.'s extreme-scale power-law graphs) build graphs as repeated
//! Kronecker powers of one small seed. [`KroneckerPower`] provides that
//! construction with the same exactness guarantees: statistics compose
//! via [`FactorStats::kron_compose`], so the `k`-th power's per-vertex
//! square counts cost `O(n^k)` output work and the adjacency is only
//! materialised on request.
//!
//! Note the §III-A caveat applies with force here: powers of a bipartite
//! seed are highly disconnected; powers of a non-bipartite seed are
//! connected but not bipartite. For connected *bipartite* graphs use
//! [`crate::KroneckerProduct`] with a mixed factor pair instead.

use bikron_graph::Graph;
use bikron_sparse::SparseResult;

use crate::truth::walks::FactorStats;

/// The `k`-th Kronecker power of a loop-free seed graph.
#[derive(Clone, Debug)]
pub struct KroneckerPower {
    seed: Graph,
    k: u32,
}

impl KroneckerPower {
    /// Create the descriptor (`k ≥ 1`; the seed must be loop-free).
    pub fn new(seed: Graph, k: u32) -> Result<Self, crate::product::ProductError> {
        if seed.num_vertices() == 0 {
            return Err(crate::product::ProductError::EmptyFactor { factor: "A" });
        }
        if !seed.has_no_self_loops() {
            return Err(crate::product::ProductError::FactorHasSelfLoops { factor: "A" });
        }
        if k == 0 {
            return Err(crate::product::ProductError::Overflow);
        }
        seed.num_vertices()
            .checked_pow(k)
            .ok_or(crate::product::ProductError::Overflow)?;
        Ok(KroneckerPower { seed, k })
    }

    /// The seed graph.
    pub fn seed(&self) -> &Graph {
        &self.seed
    }

    /// The exponent `k`.
    pub fn exponent(&self) -> u32 {
        self.k
    }

    /// `|V| = n^k`.
    pub fn num_vertices(&self) -> usize {
        self.seed.num_vertices().pow(self.k)
    }

    /// `|E| = nnz^k / 2`.
    pub fn num_edges(&self) -> u64 {
        (self.seed.nnz() as u64).pow(self.k) / 2
    }

    /// Ground-truth statistics of the power, composed from the seed —
    /// exact per-vertex/per-edge square counts, degrees, walk counts.
    pub fn stats(&self) -> SparseResult<FactorStats> {
        let base = FactorStats::compute(&self.seed)?;
        let mut acc = base.clone();
        for _ in 1..self.k {
            acc = acc.kron_compose(&base)?;
        }
        Ok(acc)
    }

    /// Materialise the adjacency by folding [`Graph::kron`] (exponential
    /// in `k`; validation only).
    pub fn materialize(&self) -> Graph {
        (1..self.k).fold(self.seed.clone(), |acc, _| acc.kron(&self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_analytics::{butterflies_global, butterflies_per_vertex};
    use bikron_generators::{cycle, path};

    #[test]
    fn cube_of_path_matches_direct() {
        let p = KroneckerPower::new(path(3), 3).unwrap();
        assert_eq!(p.num_vertices(), 27);
        let stats = p.stats().unwrap();
        let g = p.materialize();
        assert_eq!(g.num_vertices(), 27);
        assert_eq!(g.num_edges() as u64, p.num_edges());
        let direct = butterflies_per_vertex(&g);
        for (i, &s) in stats.squares.iter().enumerate() {
            assert_eq!(s as u64, direct[i]);
        }
        assert_eq!(stats.global_squares() as u64, butterflies_global(&g));
    }

    #[test]
    fn square_of_odd_cycle() {
        let p = KroneckerPower::new(cycle(5), 2).unwrap();
        let stats = p.stats().unwrap();
        let g = p.materialize();
        assert_eq!(stats.global_squares() as u64, butterflies_global(&g));
        // C5 ⊗ C5 is 4-regular: degrees compose.
        assert!(stats.degrees.iter().all(|&d| d == 4));
    }

    #[test]
    fn k_one_is_identity() {
        let p = KroneckerPower::new(path(4), 1).unwrap();
        let stats = p.stats().unwrap();
        let direct = FactorStats::compute(&path(4)).unwrap();
        assert_eq!(stats.squares, direct.squares);
        assert_eq!(p.materialize(), path(4));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(KroneckerPower::new(path(3), 0).is_err());
        let loopy = Graph::from_edges(2, &[(0, 1), (1, 1)]).unwrap();
        assert!(KroneckerPower::new(loopy, 2).is_err());
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(KroneckerPower::new(empty, 2).is_err());
    }

    #[test]
    fn overflow_guard() {
        // 10^100 vertices cannot be indexed.
        assert!(KroneckerPower::new(cycle(10), 100).is_err());
    }
}
