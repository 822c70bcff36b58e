//! The [`KroneckerProduct`] descriptor and product materialisation.
//!
//! A `KroneckerProduct` owns nothing: it borrows two factor graphs and a
//! [`SelfLoopMode`] selecting between the paper's two constructions
//! (Assump. 1(i)/(ii)). All counting statistics (`|V_C|`, `|E_C|`, degrees)
//! are O(1)–O(|factor|); the product itself can be streamed edge-by-edge
//! ([`KroneckerProduct::edges`], [`KroneckerProduct::par_for_each_edge`])
//! or materialised ([`KroneckerProduct::materialize`]) when a direct
//! algorithm needs the whole graph.
//!
//! Both constructions require the *stored* factors to be loop-free; the
//! `FactorA` mode adds `I_A` logically, never mutating the input. This
//! mirrors the paper's design choice (§II-B): keeping at least one true
//! factor loop-free keeps every ground-truth formula's term count small,
//! and `C` itself is then loop-free because `B` is.

use std::fmt;

use bikron_graph::Graph;
use bikron_sparse::{Csr, Ix};

use crate::index::KronIndexer;

/// Which construction of Assump. 1 to use.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SelfLoopMode {
    /// Assump. 1(i): `C = A ⊗ B`. For a connected bipartite product, `A`
    /// should be non-bipartite + connected and `B` bipartite + connected.
    None,
    /// Assump. 1(ii): `C = (A + I_A) ⊗ B` with both factors bipartite.
    FactorA,
}

/// Errors raised by product construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductError {
    /// A factor has self loops stored; loops are added only logically.
    FactorHasSelfLoops {
        /// `"A"` or `"B"`.
        factor: &'static str,
    },
    /// A factor is empty (no vertices).
    EmptyFactor {
        /// `"A"` or `"B"`.
        factor: &'static str,
    },
    /// An arithmetic result exceeded the index or count range.
    Overflow,
}

impl fmt::Display for ProductError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProductError::FactorHasSelfLoops { factor } => {
                write!(
                    f,
                    "factor {factor} has stored self loops; use SelfLoopMode::FactorA to add \
                     loops logically"
                )
            }
            ProductError::EmptyFactor { factor } => write!(f, "factor {factor} has no vertices"),
            ProductError::Overflow => write!(f, "product size overflows the index type"),
        }
    }
}

impl std::error::Error for ProductError {}

/// A nonstochastic Kronecker product `C = A ⊗ B` or `C = (A + I_A) ⊗ B`.
///
/// ```
/// use bikron_core::{KroneckerProduct, SelfLoopMode};
/// use bikron_graph::Graph;
///
/// let a = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(); // C3
/// let b = Graph::from_edges(2, &[(0, 1)]).unwrap();                 // K2
/// let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
///
/// // Exact size and degrees without materialisation:
/// assert_eq!(prod.num_vertices(), 6);
/// assert_eq!(prod.num_edges(), 6);       // C3 ⊗ K2 = C6
/// assert_eq!(prod.degree(0), 2);
/// assert!(prod.has_edge(0, 3));          // (0,0)–(1,1)
///
/// // Materialise only when a direct algorithm needs the whole graph:
/// let g = prod.materialize();
/// assert_eq!(g.num_edges(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct KroneckerProduct<'a> {
    a: &'a Graph,
    b: &'a Graph,
    mode: SelfLoopMode,
    indexer: KronIndexer,
}

impl<'a> KroneckerProduct<'a> {
    /// Build a product descriptor. Both stored factors must be loop-free
    /// and non-empty.
    pub fn new(a: &'a Graph, b: &'a Graph, mode: SelfLoopMode) -> Result<Self, ProductError> {
        if a.num_vertices() == 0 {
            return Err(ProductError::EmptyFactor { factor: "A" });
        }
        if b.num_vertices() == 0 {
            return Err(ProductError::EmptyFactor { factor: "B" });
        }
        if !a.has_no_self_loops() {
            return Err(ProductError::FactorHasSelfLoops { factor: "A" });
        }
        if !b.has_no_self_loops() {
            return Err(ProductError::FactorHasSelfLoops { factor: "B" });
        }
        a.num_vertices()
            .checked_mul(b.num_vertices())
            .ok_or(ProductError::Overflow)?;
        Ok(KroneckerProduct {
            a,
            b,
            mode,
            indexer: KronIndexer::new(b.num_vertices()),
        })
    }

    /// Factor `A`.
    #[inline]
    pub fn factor_a(&self) -> &Graph {
        self.a
    }

    /// Factor `B`.
    #[inline]
    pub fn factor_b(&self) -> &Graph {
        self.b
    }

    /// The self-loop mode.
    #[inline]
    pub fn mode(&self) -> SelfLoopMode {
        self.mode
    }

    /// The `(α, β, γ)` index mapper.
    #[inline]
    pub fn indexer(&self) -> KronIndexer {
        self.indexer
    }

    /// `|V_C| = n_A · n_B`.
    #[inline]
    pub fn num_vertices(&self) -> Ix {
        self.a.num_vertices() * self.b.num_vertices()
    }

    /// Stored adjacency entries of `C` (`= 2|E_C|`, since `C` is loop-free).
    pub fn nnz(&self) -> u64 {
        let nnz_a = self.a.nnz() as u64
            + match self.mode {
                SelfLoopMode::None => 0,
                SelfLoopMode::FactorA => self.a.num_vertices() as u64,
            };
        nnz_a * self.b.nnz() as u64
    }

    /// `|E_C|` (undirected edges; `C` never has self loops because `B`
    /// has none).
    pub fn num_edges(&self) -> u64 {
        self.nnz() / 2
    }

    /// Exact degree of product vertex `p` without materialisation:
    /// `d_C(p) = d_A(α(p))·d_B(β(p))`, plus `d_B(β(p))` in `FactorA` mode.
    pub fn degree(&self, p: Ix) -> u64 {
        let (i, k) = self.indexer.split(p);
        let da = self.a.degree(i) as u64
            + match self.mode {
                SelfLoopMode::None => 0,
                SelfLoopMode::FactorA => 1,
            };
        da * self.b.degree(k) as u64
    }

    /// Whether product vertices `p` and `q` are adjacent, in
    /// O(log d_A + log d_B).
    pub fn has_edge(&self, p: Ix, q: Ix) -> bool {
        let (i, k) = self.indexer.split(p);
        let (j, l) = self.indexer.split(q);
        let a_hit = self.a.has_edge(i, j) || (self.mode == SelfLoopMode::FactorA && i == j);
        a_hit && self.b.has_edge(k, l)
    }

    /// A page of the neighbour list of product vertex `p`, in ascending
    /// vertex order: the neighbours at positions `[offset, offset+limit)`
    /// of the full list `{γ(j, l) : j ∈ N'_A(α(p)), l ∈ N_B(β(p))}`
    /// (where `N'_A` includes `α(p)` itself under [`SelfLoopMode::FactorA`]).
    ///
    /// Cost is `O(d_A + limit)` — never product-sized — which is what
    /// makes paged neighbourhood queries servable: the full list has
    /// `degree(p)` entries but only the requested window is formed.
    pub fn neighbors_page(&self, p: Ix, offset: u64, limit: usize) -> Vec<Ix> {
        let (i, k) = self.indexer.split(p);
        let a_nbrs = self.a.neighbors(i);
        // Effective A-side neighbour list, kept sorted: N_A(i) with `i`
        // spliced in under FactorA (the logical self loop).
        let merged: Vec<Ix>;
        let eff: &[Ix] = match self.mode {
            SelfLoopMode::None => a_nbrs,
            SelfLoopMode::FactorA => {
                let pos = a_nbrs.partition_point(|&j| j < i);
                let mut v = Vec::with_capacity(a_nbrs.len() + 1);
                v.extend_from_slice(&a_nbrs[..pos]);
                v.push(i);
                v.extend_from_slice(&a_nbrs[pos..]);
                merged = v;
                &merged
            }
        };
        let b_nbrs = self.b.neighbors(k);
        let db = b_nbrs.len() as u64;
        if db == 0 {
            return Vec::new();
        }
        let total = eff.len() as u64 * db;
        let start = offset.min(total);
        let end = start.saturating_add(limit as u64).min(total);
        // γ(j, l) is strictly increasing over (j asc, l asc), so indexing
        // r → (eff[r / d_B], N_B[r % d_B]) enumerates in sorted order.
        (start..end)
            .map(|r| {
                self.indexer
                    .gamma(eff[(r / db) as usize], b_nbrs[(r % db) as usize])
            })
            .collect()
    }

    /// Iterate every *stored adjacency entry* `(p, q)` of `C` (each
    /// undirected edge appears in both orientations, matching CSR
    /// iteration of the factors).
    pub fn entries(&self) -> impl Iterator<Item = (Ix, Ix)> + '_ {
        let ix = self.indexer;
        let mode = self.mode;
        let a = self.a;
        let b = self.b;
        let a_entries = a.adjacency().iter().map(|(i, j, _)| (i, j)).chain(
            match mode {
                SelfLoopMode::None => 0..0,
                SelfLoopMode::FactorA => 0..a.num_vertices(),
            }
            .map(|i| (i, i)),
        );
        a_entries.flat_map(move |(i, j)| {
            b.adjacency()
                .iter()
                .map(move |(k, l, _)| (ix.gamma(i, k), ix.gamma(j, l)))
        })
    }

    /// Iterate each undirected edge `(p, q)` of `C` exactly once, with
    /// `p < q`.
    pub fn edges(&self) -> impl Iterator<Item = (Ix, Ix)> + '_ {
        self.entries().filter(|&(p, q)| p < q)
    }

    /// Visit every stored entry in parallel (rayon), partitioned by
    /// factor-`A` entry. `f` must be thread-safe; entries arrive in
    /// deterministic order *within* each partition.
    pub fn par_for_each_edge<F>(&self, f: F)
    where
        F: Fn(Ix, Ix) + Sync,
    {
        use rayon::prelude::*;
        let ix = self.indexer;
        let mut a_entries: Vec<(Ix, Ix)> =
            self.a.adjacency().iter().map(|(i, j, _)| (i, j)).collect();
        if self.mode == SelfLoopMode::FactorA {
            a_entries.extend((0..self.a.num_vertices()).map(|i| (i, i)));
        }
        let b = self.b;
        // Metrics at per-A-entry granularity: each A entry streams
        // nnz(B) product entries, so the three atomics below are amortised
        // over an entire B sweep. The worker gauge's high-water mark is the
        // measured peak thread concurrency of the streaming phase.
        let obs = bikron_obs::global();
        let _phase = obs.phase("product.par_stream");
        let streamed = obs.counter("product.edges_streamed");
        let workers = obs.gauge("product.workers");
        let b_nnz = b.nnz() as u64;
        a_entries.par_iter().for_each(|&(i, j)| {
            let _live = workers.enter();
            for (k, l, _) in b.adjacency().iter() {
                f(ix.gamma(i, k), ix.gamma(j, l));
            }
            streamed.add(b_nnz);
        });
    }

    /// The effective adjacency matrix of factor `A` (with `I_A` folded in
    /// under `FactorA` mode).
    pub fn effective_a(&self) -> Csr<()> {
        match self.mode {
            SelfLoopMode::None => self.a.adjacency().clone(),
            SelfLoopMode::FactorA => self.a.with_full_self_loops().adjacency().clone(),
        }
    }

    /// Materialise `C` as a [`Graph`] via [`Graph::kron`]. Memory:
    /// `O(nnz(C))` — intended for validation at moderate scale, not for the
    /// massive-graph use case.
    pub fn materialize(&self) -> Graph {
        let _phase = bikron_obs::global().phase("product.materialize");
        match self.mode {
            SelfLoopMode::None => self.a.kron(self.b),
            SelfLoopMode::FactorA => self.a.with_full_self_loops().kron(self.b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_generators::{complete_bipartite, cycle, path};

    #[test]
    fn sizes_mode_none() {
        let a = cycle(3);
        let b = path(4);
        let p = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        assert_eq!(p.num_vertices(), 12);
        assert_eq!(p.nnz(), (2 * 3) as u64 * (2 * 3) as u64);
        assert_eq!(p.num_edges(), 18);
    }

    #[test]
    fn sizes_mode_factor_a() {
        let a = path(3);
        let b = path(2);
        let p = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        // nnz(A+I) = 4 + 3 = 7; nnz(B) = 2 → 14 entries, 7 edges.
        assert_eq!(p.num_edges(), 7);
    }

    #[test]
    fn materialize_matches_size_and_degrees() {
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            let p = KroneckerProduct::new(&a, &b, mode).unwrap();
            let g = p.materialize();
            assert_eq!(g.num_vertices(), p.num_vertices());
            assert_eq!(g.num_edges() as u64, p.num_edges());
            assert!(g.has_no_self_loops());
            for v in 0..g.num_vertices() {
                assert_eq!(g.degree(v) as u64, p.degree(v), "degree mismatch at {v}");
            }
        }
    }

    #[test]
    fn edges_iterator_matches_materialized() {
        let a = cycle(3);
        let b = path(3);
        let p = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        let g = p.materialize();
        let mut streamed: Vec<(usize, usize)> = p.edges().collect();
        streamed.sort_unstable();
        let mut direct: Vec<(usize, usize)> = g.edges().collect();
        direct.sort_unstable();
        assert_eq!(streamed, direct);
    }

    #[test]
    fn par_edges_match_sequential() {
        use std::sync::Mutex;
        let a = cycle(4);
        let b = path(3);
        let p = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let collected = Mutex::new(Vec::new());
        p.par_for_each_edge(|u, v| collected.lock().unwrap().push((u, v)));
        let mut par = collected.into_inner().unwrap();
        par.sort_unstable();
        let mut seq: Vec<(usize, usize)> = p.entries().collect();
        seq.sort_unstable();
        assert_eq!(par, seq);
    }

    #[test]
    fn has_edge_agrees_with_materialized() {
        let a = path(3);
        let b = cycle(4);
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            let p = KroneckerProduct::new(&a, &b, mode).unwrap();
            let g = p.materialize();
            for u in 0..p.num_vertices() {
                for v in 0..p.num_vertices() {
                    assert_eq!(p.has_edge(u, v), g.has_edge(u, v), "({u},{v}) {mode:?}");
                }
            }
        }
    }

    #[test]
    fn neighbors_page_matches_materialized() {
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            let p = KroneckerProduct::new(&a, &b, mode).unwrap();
            let g = p.materialize();
            for v in 0..p.num_vertices() {
                let full = p.neighbors_page(v, 0, usize::MAX);
                assert_eq!(full, g.neighbors(v), "vertex {v} mode {mode:?}");
                assert_eq!(full.len() as u64, p.degree(v));
                // Paging: windows tile the full list, out-of-range is empty.
                let d = full.len();
                for (offset, limit) in [(0u64, 2usize), (1, 3), (d as u64, 4)] {
                    let page = p.neighbors_page(v, offset, limit);
                    let lo = (offset as usize).min(d);
                    let hi = (lo + limit).min(d);
                    assert_eq!(page, &full[lo..hi]);
                }
            }
        }
    }

    #[test]
    fn rejects_loopy_and_empty_factors() {
        let looped = Graph::from_edges(2, &[(0, 1), (0, 0)]).unwrap();
        let b = path(2);
        assert!(matches!(
            KroneckerProduct::new(&looped, &b, SelfLoopMode::None),
            Err(ProductError::FactorHasSelfLoops { factor: "A" })
        ));
        assert!(matches!(
            KroneckerProduct::new(&b, &looped, SelfLoopMode::None),
            Err(ProductError::FactorHasSelfLoops { factor: "B" })
        ));
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(matches!(
            KroneckerProduct::new(&empty, &b, SelfLoopMode::None),
            Err(ProductError::EmptyFactor { factor: "A" })
        ));
    }

    #[test]
    fn degree_formula_both_modes() {
        let a = path(4); // degrees 1,2,2,1
        let b = complete_bipartite(2, 2); // degrees all 2
        let p0 = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let p1 = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        let ix = p0.indexer();
        assert_eq!(p0.degree(ix.gamma(1, 0)), 4); // 2·2
        assert_eq!(p1.degree(ix.gamma(1, 0)), 6); // (2+1)·2
        assert_eq!(p0.degree(ix.gamma(0, 3)), 2); // 1·2
    }
}
