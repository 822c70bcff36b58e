//! The core undirected [`Graph`] type.
//!
//! A `Graph` wraps a symmetric CSR adjacency *pattern*, a `Csr<()>`. Every
//! graph is binary, so a stored value could only ever be 1; the zero-sized
//! `()` keeps the pattern alone and halves the bytes per entry of a
//! materialised product. Callers that need numbers (walk-count SpGEMM,
//! spectra, the snapshot writer) build the ones on demand from a
//! factor-sized pattern with `adjacency().map(|()| 1)`. Self loops are
//! permitted (the paper's Assump. 1(ii) adds all of them to one factor) but
//! tracked explicitly, because every ground-truth formula is sensitive to
//! the self-loop structure (§II-B).
//!
//! Edge conventions:
//! * `num_edges()` counts undirected edges — each `{i, j}` pair once, and
//!   each self loop once.
//! * `nnz()` counts stored adjacency entries — `2·|E_offdiag| + |loops|`.

use std::fmt;

use bikron_sparse::semiring::{SemiringValue, Times};
use bikron_sparse::{Coo, Csr, Ix};

/// Errors for graph construction and accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: Ix,
        /// The graph order.
        n: Ix,
    },
    /// Adjacency matrix was not square.
    NotSquare {
        /// Supplied row count.
        nrows: Ix,
        /// Supplied column count.
        ncols: Ix,
    },
    /// Adjacency matrix was not symmetric.
    NotSymmetric,
    /// Parse or IO failure (see [`crate::io`]).
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph of order {n}")
            }
            GraphError::NotSquare { nrows, ncols } => {
                write!(f, "adjacency matrix is {nrows}x{ncols}, not square")
            }
            GraphError::NotSymmetric => write!(f, "adjacency matrix is not symmetric"),
            GraphError::Io(msg) => write!(f, "graph io: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph stored as a CSR adjacency pattern.
///
/// ```
/// use bikron_graph::Graph;
///
/// // A 4-cycle with one self loop.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 2)]).unwrap();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 5);
/// assert_eq!(g.num_self_loops(), 1);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(3, 0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    adj: Csr<()>,
    num_loops: usize,
}

impl Graph {
    /// Build from an undirected edge list; duplicates are collapsed.
    /// Each pair `(i, j)` adds both `(i, j)` and `(j, i)` entries; `(i, i)`
    /// adds one diagonal entry (a self loop).
    pub fn from_edges(n: Ix, edges: &[(Ix, Ix)]) -> Result<Self, GraphError> {
        let mut coo = Coo::with_capacity(n, n, edges.len() * 2);
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.max(v),
                    n,
                });
            }
            coo.push_symmetric(u, v, ())
                .expect("bounds already checked");
        }
        // Duplicate edges collapse to one entry (binary adjacency).
        let adj = Csr::from_coo(coo, |(), ()| (), |()| false);
        Ok(Self::from_adjacency_unchecked(adj))
    }

    /// Wrap an existing adjacency matrix, checking that it is square and
    /// pattern-symmetric; every stored entry becomes an edge and the values
    /// are dropped (the index arrays move, they are not copied). This is
    /// the checked entry point for untrusted input, such as a decoded
    /// snapshot.
    pub fn from_adjacency<T: SemiringValue>(adj: Csr<T>) -> Result<Self, GraphError> {
        if adj.nrows() != adj.ncols() {
            return Err(GraphError::NotSquare {
                nrows: adj.nrows(),
                ncols: adj.ncols(),
            });
        }
        if !adj.is_pattern_symmetric() {
            return Err(GraphError::NotSymmetric);
        }
        Ok(Self::from_adjacency_unchecked(adj.into_pattern()))
    }

    /// The Kronecker product `self ⊗ other` as a graph, built without
    /// re-validation or a value array: the product of two symmetric patterns
    /// is a symmetric pattern, and its diagonal entry `(γ(i,k), γ(i,k))` is
    /// `A_ii·B_kk`, so the product has exactly
    /// `self.num_self_loops() · other.num_self_loops()` loops.
    ///
    /// ```
    /// use bikron_graph::Graph;
    ///
    /// let c3 = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    /// let k2 = Graph::from_edges(2, &[(0, 1)]).unwrap();
    /// let c6 = c3.kron(&k2); // C3 ⊗ K2 = C6
    /// assert_eq!(c6.num_vertices(), 6);
    /// assert_eq!(c6.num_edges(), 6);
    /// assert_eq!(c3.with_full_self_loops().kron(&k2).num_self_loops(), 0);
    /// ```
    pub fn kron(&self, other: &Graph) -> Graph {
        let adj = bikron_sparse::kron(&Times, &self.adj, &other.adj)
            .expect("kron of two square CSRs is well formed");
        debug_assert!(adj.is_pattern_symmetric());
        Graph {
            adj,
            num_loops: self.num_loops * other.num_loops,
        }
    }

    fn from_adjacency_unchecked(adj: Csr<()>) -> Self {
        let num_loops = (0..adj.nrows())
            .filter(|&i| adj.get(i, i).is_some())
            .count();
        Graph { adj, num_loops }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> Ix {
        self.adj.nrows()
    }

    /// Number of undirected edges (self loops counted once each).
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.adj.nnz() - self.num_loops) / 2 + self.num_loops
    }

    /// Number of stored adjacency entries (`2|E| − |loops|`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.adj.nnz()
    }

    /// Number of self loops.
    #[inline]
    pub fn num_self_loops(&self) -> usize {
        self.num_loops
    }

    /// Whether the graph has no self loops (`D_A = O_A`, Def. 6).
    #[inline]
    pub fn has_no_self_loops(&self) -> bool {
        self.num_loops == 0
    }

    /// Whether every vertex has a self loop ("full self loops", Def. 6).
    #[inline]
    pub fn has_full_self_loops(&self) -> bool {
        self.num_loops == self.num_vertices()
    }

    /// Neighbours of `v` (sorted), including `v` itself if it has a loop.
    #[inline]
    pub fn neighbors(&self, v: Ix) -> &[Ix] {
        self.adj.row(v).0
    }

    /// Degree of `v`: stored adjacency entries in row `v`. A self loop
    /// contributes 1, matching the paper's `d_A = A·1` convention.
    #[inline]
    pub fn degree(&self, v: Ix) -> usize {
        self.adj.row_nnz(v)
    }

    /// Degree vector `d_A = A·1`.
    pub fn degrees(&self) -> Vec<u64> {
        (0..self.num_vertices())
            .map(|v| self.degree(v) as u64)
            .collect()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Adjacency test.
    #[inline]
    pub fn has_edge(&self, u: Ix, v: Ix) -> bool {
        self.adj.get(u, v).is_some()
    }

    /// Borrow the adjacency pattern; `.map(|()| 1)` gives the numeric
    /// matrix.
    #[inline]
    pub fn adjacency(&self) -> &Csr<()> {
        &self.adj
    }

    /// Iterate undirected edges once each as `(u, v)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (Ix, Ix)> + '_ {
        self.adj
            .iter()
            .filter(|&(r, c, _)| r <= c)
            .map(|(r, c, _)| (r, c))
    }

    /// A copy with all self loops added (`A + I_A`, used by Assump. 1(ii)).
    pub fn with_full_self_loops(&self) -> Graph {
        let n = self.num_vertices();
        let eye = Csr::diagonal(n, ());
        let adj = bikron_sparse::ewise_add(&self.adj, &eye, |(), ()| (), |_| false)
            .expect("adjacency and identity are both n x n");
        Graph { adj, num_loops: n }
    }

    /// A copy with all self loops removed (`A − I ∘ A`).
    pub fn without_self_loops(&self) -> Graph {
        let adj = bikron_sparse::select(&self.adj, bikron_sparse::Select::OffDiagonal);
        Self::from_adjacency_unchecked(adj)
    }

    /// The subgraph induced by `vertices` (must be strictly increasing),
    /// with vertices relabelled to `0..vertices.len()`.
    pub fn induced_subgraph(&self, vertices: &[Ix]) -> Result<Graph, GraphError> {
        let sub = bikron_sparse::extract_principal(&self.adj, vertices)
            .map_err(|e| GraphError::Io(e.to_string()))?;
        Ok(Self::from_adjacency_unchecked(sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basics() {
        // Path 0-1-2 plus loop at 2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 2)]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.nnz(), 5);
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2); // neighbor 1 + self loop
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degrees(), vec![1, 1]);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn from_adjacency_checks() {
        let coo = Coo::from_triplets(2, 2, vec![(0usize, 1usize, 1u64)]).unwrap();
        let asym = Csr::from_coo(coo, |a, _| a, |v| v == 0);
        assert_eq!(
            Graph::from_adjacency(asym).unwrap_err(),
            GraphError::NotSymmetric
        );
        let coo = Coo::from_triplets(2, 3, vec![(0usize, 1usize, 1u64)]).unwrap();
        let rect = Csr::from_coo(coo, |a, _| a, |v| v == 0);
        assert!(matches!(
            Graph::from_adjacency(rect),
            Err(GraphError::NotSquare { .. })
        ));
    }

    #[test]
    fn self_loop_transforms() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(g.has_no_self_loops());
        let gl = g.with_full_self_loops();
        assert!(gl.has_full_self_loops());
        assert_eq!(gl.num_edges(), g.num_edges() + 3);
        assert_eq!(gl.degree(1), 3);
        let back = gl.without_self_loops();
        assert_eq!(back, g);
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3), (1, 1)]).unwrap();
        let mut e: Vec<_> = g.edges().collect();
        e.sort();
        assert_eq!(e, vec![(0, 1), (1, 1), (2, 3)]);
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        let g1 = Graph::from_edges(1, &[]).unwrap();
        assert!(g1.has_no_self_loops());
        assert!(!g1.has_full_self_loops());
    }

    #[test]
    fn induced_subgraph_relabels() {
        // Square 0-1-2-3 plus pendant 4; induce on {0, 1, 2, 3}.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]).unwrap();
        let s = g.induced_subgraph(&[0, 1, 2, 3]).unwrap();
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 4);
        assert!(s.has_edge(0, 3));
        // Induce on non-contiguous set {1, 3, 4}: only old edges inside.
        let t = g.induced_subgraph(&[1, 3, 4]).unwrap();
        assert_eq!(t.num_edges(), 0);
        let u = g.induced_subgraph(&[2, 3, 4]).unwrap();
        assert_eq!(u.num_edges(), 2); // (2,3) → (0,1); (2,4) → (0,2)
        assert!(u.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_rejects_unsorted() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(g.induced_subgraph(&[1, 0]).is_err());
    }

    #[test]
    fn degrees_match_adjacency_row_sums() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 4)]).unwrap();
        let d = g.degrees();
        assert_eq!(d, vec![3, 1, 1, 2, 2]);
        assert_eq!(d.iter().sum::<u64>() as usize, g.nnz());
    }
}
