#![warn(missing_docs)]

//! # bikron-core
//!
//! The paper's contribution: **nonstochastic Kronecker products of small
//! factor graphs that generate massive bipartite graphs with exact
//! ("ground truth") local and global statistics**.
//!
//! Given small factors `A` and `B`, the product graph `G_C` with adjacency
//! `C = A ⊗ B` (Assump. 1(i)) or `C = (A + I_A) ⊗ B` (Assump. 1(ii)) is:
//!
//! * **bipartite** whenever `B` is bipartite,
//! * **connected** under either assumption (Thms. 1–2, [`connectivity`]),
//!
//! and carries closed-form per-vertex / per-edge 4-cycle counts
//! (Thms. 3–5, [`truth::squares_vertex`], [`truth::squares_edge`]),
//! edge clustering coefficient bounds (Thm. 6, [`truth::clustering`]) and
//! community edge counts and density bounds (Thm. 7, Cors. 1–2,
//! [`truth::community`]).
//!
//! The central object is [`KroneckerProduct`]: a *descriptor* holding the
//! two factors and the self-loop mode. Every statistic is available
//! without materialising the product ([`truth`] and [`sample`]); the
//! product can also be streamed edge-by-edge or materialised into a
//! [`bikron_graph::Graph`] when a direct algorithm needs it
//! ([`product`]).
//!
//! ## Quick start
//!
//! ```
//! use bikron_core::{KroneckerProduct, SelfLoopMode};
//! use bikron_core::truth::squares_vertex::vertex_squares;
//! use bikron_graph::Graph;
//!
//! // Factor A: a triangle (non-bipartite, connected).
//! let a = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
//! // Factor B: a 4-cycle (bipartite, connected).
//! let b = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//!
//! let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
//! assert_eq!(prod.num_vertices(), 12);
//!
//! // Ground-truth 4-cycle participation at every product vertex,
//! // computed from the factors alone (Thm. 3).
//! let s = vertex_squares(&prod).unwrap();
//! assert_eq!(s.len(), 12);
//! ```

pub mod chain;
pub mod connectivity;
pub mod index;
pub mod partition;
pub mod product;
pub mod sample;
pub mod snap;
pub mod stream;
pub mod truth;

pub use chain::{
    canonical_expr, pair_levels, ChainClustering, ChainCommunity, ChainEdge, ChainError,
    ChainVertex, KronChain,
};
pub use connectivity::{predict_structure, ProductStructure};
pub use index::KronIndexer;
pub use product::{KroneckerProduct, ProductError, SelfLoopMode};
pub use sample::GroundTruth;
