//! [`KronChain`]: the k-factor generalisation of [`KroneckerProduct`] —
//! an arbitrary Kronecker **program** `M_1 ⊗ M_2 ⊗ … ⊗ M_k`, where each
//! level `M_i` is a named loop-free factor `A_i` or its identity lift
//! `A_i + I` (the paper's Assump. 1(ii) construction, applied per level).
//!
//! The paper derives Thms 3–7 for the two-factor products `A ⊗ B` and
//! `(A + I_A) ⊗ B`, but every quantity in those derivations is
//! **multiplicative through the Kronecker product**, so the formulas
//! compose through chains of any length:
//!
//! * diagonal walk counts: `(C⁴)_vv = Π_i (M_i⁴)_{v_i v_i}` (Thm 3/4),
//! * entry walk counts: `(C³)_pq = Π_i (M_i³)_{p_i q_i}` (Thm 5),
//! * degrees: `d_C(v) = Π_i d_{M_i}(v_i)`,
//! * community volumes: `1_Sᵀ C 1_T = Π_i 1_{S_i}ᵀ M_i 1_{T_i}` (Thm 7).
//!
//! The only structural requirement is that the *product* be loop-free
//! (the per-vertex identity `2q(v) = walk₄(v) − d(v)² − w₂(v) + d(v)`
//! counts closed 4-walks, and loops would add degenerate walks). That
//! holds iff **at least one level lacks `+ I`**: a loop-free level has a
//! zero diagonal, and the Kronecker product's diagonal is the product of
//! the levels' diagonals. [`KronChain::new`] enforces exactly this.
//!
//! Product vertex indices use **mixed-radix** (row-major) arithmetic,
//! level 0 most significant: `p = Σ_i v_i · stride_i` with
//! `stride_i = Π_{j>i} n_j` — the k-factor generalisation of
//! [`KronIndexer`](crate::KronIndexer)'s `γ(i, k) = i·n_B + k`.
//!
//! Per-level [`FactorStats`] are computed **once per distinct atom** at
//! construction; every query afterwards is O(k) arithmetic on factor-sized
//! tables (plus O(limit) for neighbor pages), preserving the serving
//! layer's sublinear-memory contract for arbitrary programs.

use std::collections::HashMap;
use std::fmt;

use bikron_graph::Graph;
use bikron_sparse::{Ix, SparseError};

use crate::product::SelfLoopMode;
use crate::truth::clustering::{factor_gamma, psi};
use crate::truth::squares_vertex::single_terms;
use crate::truth::FactorStats;

/// A named factor graph with its precomputed walk statistics.
struct ChainAtom {
    name: String,
    graph: Graph,
    stats: FactorStats,
}

/// One level of the chain: which atom, and whether it is identity-lifted.
#[derive(Copy, Clone)]
struct Level {
    atom: usize,
    plus_identity: bool,
}

/// Why a chain could not be built. Every variant is a user-input problem
/// (the CLI prints these verbatim), not an internal invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The expression had no levels.
    Empty,
    /// A level referenced a name with no bound graph.
    UnboundName(String),
    /// Two atom bindings used the same name.
    DuplicateName(String),
    /// A bound factor graph had no vertices.
    EmptyFactor(String),
    /// A bound factor graph had self-loops (`+ I` must stay logical).
    SelfLoops(String),
    /// Every level was `+ I`-lifted, so the product would have loops and
    /// the Thm 3–5 closed forms would not apply.
    NoLoopFreeLevel,
    /// The product size overflowed the index or count type.
    TooLarge,
    /// Walk-statistics precomputation failed (overflow in a factor).
    Stats(SparseError),
    /// A community query gave a set count other than the level count.
    CommunitySets {
        /// The number of levels, one set each.
        expected: usize,
        /// The number of sets given.
        found: usize,
    },
    /// A community set named a vertex its level's factor does not have.
    CommunityVertex {
        /// The level whose set holds the vertex.
        level: usize,
        /// The out-of-range vertex (the largest one in the set).
        vertex: Ix,
        /// The name of the level's factor.
        factor: String,
        /// The factor's vertex count.
        order: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "expression has no factors"),
            ChainError::UnboundName(n) => {
                write!(f, "factor '{n}' is not bound (add {n}=SPEC)")
            }
            ChainError::DuplicateName(n) => write!(f, "factor '{n}' is bound twice"),
            ChainError::EmptyFactor(n) => write!(f, "factor '{n}' has no vertices"),
            ChainError::SelfLoops(n) => {
                write!(f, "factor '{n}' has self-loops; use (+I) to lift instead")
            }
            ChainError::NoLoopFreeLevel => write!(
                f,
                "every level is '+ I'-lifted; at least one bare factor is \
                 required so the product is loop-free"
            ),
            ChainError::TooLarge => write!(f, "product size overflows the index type"),
            ChainError::Stats(e) => write!(f, "factor statistics failed: {e}"),
            ChainError::CommunitySets { expected, found } => {
                write!(
                    f,
                    "expected {expected} community sets (one per level), got {found}"
                )
            }
            ChainError::CommunityVertex {
                level,
                vertex,
                factor,
                order,
            } => write!(
                f,
                "level {level} set contains vertex {vertex}, but factor '{factor}' has \
                 {order} vertices"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// Degree and Thm 3/4 4-cycle count at one product vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainVertex {
    /// `d_C(p) = Π d_eff,i(p_i)`.
    pub degree: u64,
    /// 4-cycles through `p`.
    pub squares: u64,
}

/// Both endpoint degrees and the Thm 5 count for one product pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainEdge {
    /// `d_C(p)`.
    pub degree_p: u64,
    /// `d_C(q)`.
    pub degree_q: u64,
    /// `◇_pq` — `None` when `(p, q)` is not an edge.
    pub squares: Option<u64>,
}

/// Thm 6 surface for one product pair `(p, q)` of a chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainClustering {
    /// `d_C(p)`.
    pub degree_p: u64,
    /// `d_C(q)`.
    pub degree_q: u64,
    /// `◇_pq` (Thm 5, chained) — `None` when `(p, q)` is not an edge.
    pub squares: Option<u64>,
    /// Exact `Γ_C(p, q) = ◇_pq / ((d_p − 1)(d_q − 1))` — `None` when not
    /// an edge or the denominator vanishes.
    pub gamma: Option<f64>,
    /// Thm 6 lower bound `Π ψ · Π Γ_i`, folded pairwise over the chain —
    /// `None` unless every level is bare (no `+ I`) with all endpoint
    /// degrees ≥ 2.
    pub bound: Option<f64>,
    /// The accumulated `Π ψ` of the fold, when `bound` is defined.
    pub psi: Option<f64>,
}

/// Thm 7 surface for a product community `S = S_1 γ S_2 γ … γ S_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainCommunity {
    /// `|S| = Π |S_i|`.
    pub size: u64,
    /// Exact internal edge count `m_in(S)`.
    pub m_in: u64,
    /// Exact external (cut) edge count `m_out(S)`.
    pub m_out: u64,
}

/// The canonical spelling of a level list: `⊗`-joined, with a lifted
/// level spelled `(NAME+I)` — the program identity `/v1/stats` and
/// snapshots report ([`KronChain::canonical`]).
pub fn canonical_expr(levels: &[(String, bool)]) -> String {
    levels
        .iter()
        .map(|(name, plus_identity)| {
            if *plus_identity {
                format!("({name}+I)")
            } else {
                name.clone()
            }
        })
        .collect::<Vec<_>>()
        .join("⊗")
}

/// The two-factor product `A ⊗ B` / `(A + I_A) ⊗ B` as a level list:
/// factor `A` lifted under [`SelfLoopMode::FactorA`], then bare `B`.
pub fn pair_levels(mode: SelfLoopMode) -> Vec<(String, bool)> {
    vec![
        ("A".to_string(), mode == SelfLoopMode::FactorA),
        ("B".to_string(), false),
    ]
}

/// `(M³)_{vw}` of one level's effective matrix `M = A (+ I)`, or `None`
/// when `(v, w)` is not an entry of `M`. `A³∘A` is stored on exactly
/// `A`'s pattern (every edge carries the walk `v→w→v→w`), so its probe
/// is also the edge test.
fn level_w3(stats: &FactorStats, plus_identity: bool, v: Ix, w: Ix) -> Option<i128> {
    if plus_identity && v == w {
        return Some(stats.diag_a3[v] + 3 * stats.degrees[v] + 1);
    }
    let w3 = stats.edge_w3.get(v, w)?;
    Some(if plus_identity {
        w3 + 3 * stats.w2_at(v, w) + 3
    } else {
        w3
    })
}

/// One level's sorted effective neighbor row of a product vertex's
/// coordinate `v`, borrowed from the factor: under `+ I`, `v` itself is
/// spliced in at its sorted position without copying the row.
#[derive(Clone, Copy)]
struct EffRow<'a> {
    nbrs: &'a [Ix],
    /// `(position, v)` of the spliced-in self entry on a lifted level.
    splice: Option<(usize, Ix)>,
}

impl EffRow<'_> {
    fn len(&self) -> usize {
        self.nbrs.len() + usize::from(self.splice.is_some())
    }

    fn get(&self, j: usize) -> Ix {
        match self.splice {
            Some((at, v)) if j >= at => {
                if j == at {
                    v
                } else {
                    self.nbrs[j - 1]
                }
            }
            _ => self.nbrs[j],
        }
    }
}

/// An arbitrary Kronecker program over named factors, with compositional
/// ground truth for every query the serving layer answers.
pub struct KronChain {
    atoms: Vec<ChainAtom>,
    levels: Vec<Level>,
    /// Per-level vertex counts `n_i` and row-major strides `Π_{j>i} n_j`.
    sizes: Vec<usize>,
    strides: Vec<usize>,
    n: usize,
    num_edges: u64,
    max_degree: u64,
    global_squares: u64,
    canonical: String,
}

impl KronChain {
    /// Build a chain from named atom graphs and an ordered level list
    /// (`(name, plus_identity)` pairs, e.g. from
    /// [`bikron_sparse::ExprChain`]). Unused bindings are allowed;
    /// unbound names, duplicate names, loopy or empty factors, an
    /// all-lifted chain, and oversized products are rejected.
    pub fn new(
        bindings: Vec<(String, Graph)>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        let mut atoms = Vec::with_capacity(bindings.len());
        for (name, graph) in bindings {
            let stats = Self::check_atom(&name, &graph, None)?;
            atoms.push(ChainAtom { name, graph, stats });
        }
        Self::from_atoms(atoms, level_spec)
    }

    /// Build a chain from atoms whose [`FactorStats`] were already computed
    /// (e.g. restored from a snapshot), skipping the O(spgemm) per-atom
    /// recomputation that dominates cold-boot time. Each supplied stats
    /// block is still shape-checked against its graph, and every other
    /// `new()` rejection applies unchanged.
    pub fn with_stats(
        bindings: Vec<(String, Graph, FactorStats)>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        let mut atoms = Vec::with_capacity(bindings.len());
        for (name, graph, stats) in bindings {
            let stats = Self::check_atom(&name, &graph, Some(stats))?;
            atoms.push(ChainAtom { name, graph, stats });
        }
        Self::from_atoms(atoms, level_spec)
    }

    /// Validate one named atom; compute its stats unless a precomputed
    /// block is supplied (which is shape-checked instead).
    fn check_atom(
        name: &str,
        graph: &Graph,
        precomputed: Option<FactorStats>,
    ) -> Result<FactorStats, ChainError> {
        if graph.num_vertices() == 0 {
            return Err(ChainError::EmptyFactor(name.to_string()));
        }
        if !graph.has_no_self_loops() {
            return Err(ChainError::SelfLoops(name.to_string()));
        }
        match precomputed {
            Some(stats) => {
                if stats.order() != graph.num_vertices() {
                    return Err(ChainError::Stats(bikron_sparse::SparseError::Malformed(
                        format!(
                            "stats for '{name}' cover {} vertices but the graph has {}",
                            stats.order(),
                            graph.num_vertices()
                        ),
                    )));
                }
                Ok(stats)
            }
            None => FactorStats::compute(graph).map_err(ChainError::Stats),
        }
    }

    /// Shared tail of [`KronChain::new`]/[`KronChain::with_stats`]: resolve
    /// the level spec against the atom list and derive sizes, strides,
    /// edge/degree products and the canonical expression.
    fn from_atoms(
        atoms: Vec<ChainAtom>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        if level_spec.is_empty() {
            return Err(ChainError::Empty);
        }
        let mut by_name: HashMap<String, usize> = HashMap::new();
        for (i, atom) in atoms.iter().enumerate() {
            if by_name.insert(atom.name.clone(), i).is_some() {
                return Err(ChainError::DuplicateName(atom.name.clone()));
            }
        }
        let mut levels = Vec::with_capacity(level_spec.len());
        for (name, plus_identity) in level_spec {
            let &atom = by_name
                .get(name)
                .ok_or_else(|| ChainError::UnboundName(name.clone()))?;
            levels.push(Level {
                atom,
                plus_identity: *plus_identity,
            });
        }
        if levels.iter().all(|l| l.plus_identity) {
            return Err(ChainError::NoLoopFreeLevel);
        }

        let sizes: Vec<usize> = levels
            .iter()
            .map(|l| atoms[l.atom].graph.num_vertices())
            .collect();
        let mut n: usize = 1;
        for &s in &sizes {
            n = n.checked_mul(s).ok_or(ChainError::TooLarge)?;
        }
        let mut strides = vec![1usize; sizes.len()];
        for i in (0..sizes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * sizes[i + 1];
        }

        // |E_C| = ½ Π nnz_eff,i and Δ_C = Π Δ_eff,i — both must fit u64.
        let mut nnz: u128 = 1;
        let mut max_degree: u128 = 1;
        for l in &levels {
            let g = &atoms[l.atom].graph;
            let eps = if l.plus_identity { 1u64 } else { 0 };
            let level_nnz = g.nnz() as u128 + (eps as u128) * g.num_vertices() as u128;
            nnz = nnz.checked_mul(level_nnz).ok_or(ChainError::TooLarge)?;
            let level_max = g.max_degree() as u64 + eps;
            max_degree = max_degree
                .checked_mul(level_max as u128)
                .ok_or(ChainError::TooLarge)?;
        }
        let num_edges = u64::try_from(nnz / 2).map_err(|_| ChainError::TooLarge)?;
        let max_degree = u64::try_from(max_degree).map_err(|_| ChainError::TooLarge)?;

        let canonical = canonical_expr(level_spec);

        let mut chain = KronChain {
            atoms,
            levels,
            sizes,
            strides,
            n,
            num_edges,
            max_degree,
            global_squares: 0,
            canonical,
        };
        chain.global_squares = chain.compute_global_squares()?;
        Ok(chain)
    }

    /// Number of product vertices `Π n_i`.
    pub fn num_vertices(&self) -> Ix {
        self.n
    }

    /// Number of product edges `½ Π nnz_eff,i`.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Maximum product degree `Π Δ_eff,i`.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Global 4-cycle count (Thm 3/4 summed, chained).
    pub fn global_squares(&self) -> u64 {
        self.global_squares
    }

    /// Number of levels `k` in the chain.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The canonicalised expression string, `⊗`-joined with `(NAME+I)`
    /// spelling — the identity `/v1/stats` and snapshots report.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Number of distinct atoms bound in this chain (≥ levels that use them).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Atom metadata by index: `(name, graph, stats)` — the exact inputs a
    /// snapshot needs to rebuild this chain via [`KronChain::with_stats`].
    pub fn atom_info(&self, i: usize) -> (&str, &Graph, &FactorStats) {
        let a = &self.atoms[i];
        (&a.name, &a.graph, &a.stats)
    }

    /// The ordered `(name, plus_identity)` level spec this chain was built
    /// from, reconstructed from the resolved levels.
    pub fn level_spec(&self) -> Vec<(String, bool)> {
        self.levels
            .iter()
            .map(|l| (self.atoms[l.atom].name.clone(), l.plus_identity))
            .collect()
    }

    /// Level metadata for stats reporting: `(name, graph, plus_identity)`.
    pub fn level_info(&self, i: usize) -> (&str, &Graph, bool) {
        let l = self.levels[i];
        (
            &self.atoms[l.atom].name,
            &self.atoms[l.atom].graph,
            l.plus_identity,
        )
    }

    /// Decompose a product vertex into its per-level coordinates
    /// (level 0 first / most significant).
    pub fn split(&self, p: Ix) -> Vec<Ix> {
        self.coords(p).collect()
    }

    /// The per-level coordinates of product vertex `p`, level 0 first,
    /// without allocating.
    pub fn coords(&self, p: Ix) -> impl Iterator<Item = Ix> + '_ {
        debug_assert!(p < self.n);
        let mut rest = p;
        self.strides.iter().map(move |&stride| {
            let c = rest / stride;
            rest %= stride;
            c
        })
    }

    /// Recompose per-level coordinates into the product vertex.
    pub fn combine(&self, coords: &[Ix]) -> Ix {
        debug_assert_eq!(coords.len(), self.levels.len());
        coords
            .iter()
            .zip(&self.strides)
            .map(|(&c, &stride)| c * stride)
            .sum()
    }

    /// Call `f(level, coordinate)` for every level of `p`, last level
    /// first: one divmod per level but the first, no allocation.
    fn walk(&self, mut p: Ix, mut f: impl FnMut(usize, Ix)) {
        debug_assert!(p < self.n);
        for i in (1..self.sizes.len()).rev() {
            let size = self.sizes[i];
            f(i, p % size);
            p /= size;
        }
        f(0, p);
    }

    /// [`KronChain::walk`] over two product vertices at once.
    fn walk2(&self, mut p: Ix, mut q: Ix, mut f: impl FnMut(usize, Ix, Ix)) {
        debug_assert!(p < self.n && q < self.n);
        for i in (1..self.sizes.len()).rev() {
            let size = self.sizes[i];
            f(i, p % size, q % size);
            (p, q) = (p / size, q / size);
        }
        f(0, p, q);
    }

    fn level_graph(&self, i: usize) -> &Graph {
        &self.atoms[self.levels[i].atom].graph
    }

    /// The precomputed statistics of level `i`'s factor.
    pub fn level_stats(&self, i: usize) -> &FactorStats {
        &self.atoms[self.levels[i].atom].stats
    }

    /// Effective degree of level `i` at factor vertex `v`.
    fn level_degree(&self, i: usize, v: Ix) -> u64 {
        self.level_graph(i).degree(v) as u64 + u64::from(self.levels[i].plus_identity)
    }

    /// Product degree `d_C(p) = Π d_eff,i(p_i)`; fits `u64` because the
    /// constructor bounded `Π Δ_eff,i`.
    pub fn degree(&self, p: Ix) -> u64 {
        let mut degree = 1;
        self.walk(p, |i, v| degree *= self.level_degree(i, v));
        degree
    }

    /// Effective adjacency test at one level.
    fn level_hit(&self, i: usize, v: Ix, w: Ix) -> bool {
        self.level_graph(i).has_edge(v, w) || (self.levels[i].plus_identity && v == w)
    }

    /// Whether `(p, q)` is a product edge: a hit at **every** level.
    pub fn has_edge(&self, p: Ix, q: Ix) -> bool {
        let mut hit = true;
        self.walk2(p, q, |i, v, w| hit = hit && self.level_hit(i, v, w));
        hit
    }

    /// One page of `p`'s neighbors in ascending order — the k-factor
    /// generalisation of [`KroneckerProduct::neighbors_page`]. Collects
    /// [`KronChain::for_each_neighbor`].
    pub fn neighbors_page(&self, p: Ix, offset: u64, limit: usize) -> Vec<Ix> {
        let count = self.degree(p).saturating_sub(offset).min(limit as u64);
        let mut page = Vec::with_capacity(count as usize);
        self.for_each_neighbor(p, offset, limit, |q| page.push(q));
        page
    }

    /// Call `f` on ranks `offset..offset + limit` of `p`'s sorted
    /// neighbor list, in ascending order. Each level's effective row is
    /// borrowed from its factor, and a rank decomposes in mixed radix over
    /// the row lengths, level 0 most significant: O(Σ log d_i + k·limit).
    /// Chains of up to 16 levels keep the rows on the stack, so the walk
    /// allocates nothing.
    pub fn for_each_neighbor(&self, p: Ix, offset: u64, limit: usize, mut f: impl FnMut(Ix)) {
        const INLINE_ROWS: usize = 16;
        let empty = EffRow {
            nbrs: &[],
            splice: None,
        };
        let mut inline = [empty; INLINE_ROWS];
        let mut spilled = Vec::new();
        let rows = match inline.get_mut(..self.levels.len()) {
            Some(rows) => rows,
            None => {
                spilled.resize(self.levels.len(), empty);
                &mut spilled[..]
            }
        };
        // Last level first, matching `strides` reversed.
        let mut filled = 0;
        self.walk(p, |i, v| {
            let nbrs = self.level_graph(i).neighbors(v);
            let splice = self.levels[i]
                .plus_identity
                .then(|| (nbrs.partition_point(|&w| w < v), v));
            rows[filled] = EffRow { nbrs, splice };
            filled += 1;
        });
        let rows = &rows[..];
        let total: u64 = rows.iter().map(|row| row.len() as u64).product();
        let end = total.min(offset.saturating_add(limit as u64));
        for rank in offset.min(end)..end {
            let mut rest = rank;
            let mut q = 0;
            for (row, &stride) in rows.iter().zip(self.strides.iter().rev()) {
                let len = row.len() as u64;
                q += row.get((rest % len) as usize) * stride;
                rest /= len;
            }
            f(q);
        }
    }

    /// Thm 3/4 chained: degree and 4-cycles at product vertex `p`, the
    /// latter as the 4-term product-of-levels formula
    /// `2s(p) = Π walk₄ − Π d² − Π w₂ + Π d`. One walk over the levels,
    /// no allocation.
    pub fn vertex_at(&self, p: Ix) -> ChainVertex {
        // Seeded by the first level visited: k − 1 products per term.
        let mut terms: Option<[i128; 4]> = None;
        self.walk(p, |i, v| {
            let t = single_terms(self.level_stats(i), v, self.levels[i].plus_identity);
            terms = Some(match terms {
                None => [t.0, t.1, t.2, t.3],
                Some([w4, d2, w2, d]) => [w4 * t.0, d2 * t.1, w2 * t.2, d * t.3],
            });
        });
        let [walk4, deg_sq, w2, deg] = terms.expect("a chain has a level");
        let twice = walk4 - deg_sq - w2 + deg;
        debug_assert!(twice >= 0 && twice % 2 == 0);
        ChainVertex {
            degree: deg as u64,
            squares: (twice / 2) as u64,
        }
    }

    /// 4-cycles at product vertex `p` ([`KronChain::vertex_at`]).
    pub fn vertex_squares_at(&self, p: Ix) -> u64 {
        self.vertex_at(p).squares
    }

    /// Thm 5 chained, with both endpoint degrees from the same walk:
    /// `◇_pq = Π (M_i³)_{p_i q_i} − d_p − d_q + 1`, `None` when `(p, q)`
    /// is not a product edge. No allocation.
    pub fn edge_at(&self, p: Ix, q: Ix) -> ChainEdge {
        // Degrees fit u64 (the constructor bounded Π Δ_eff,i).
        let (mut w3, mut dp, mut dq) = (Some(1i128), 1u64, 1u64);
        self.walk2(p, q, |i, v, w| {
            let level = self.levels[i];
            let stats = &self.atoms[level.atom].stats;
            let eps = u64::from(level.plus_identity);
            dp *= stats.degrees[v] as u64 + eps;
            dq *= stats.degrees[w] as u64 + eps;
            w3 = w3.and_then(|acc| Some(acc * level_w3(stats, level.plus_identity, v, w)?));
        });
        let squares = w3.map(|w3| {
            let v = w3 - i128::from(dp) - i128::from(dq) + 1;
            debug_assert!(v >= 0);
            v as u64
        });
        ChainEdge {
            degree_p: dp,
            degree_q: dq,
            squares,
        }
    }

    /// `◇_pq` alone ([`KronChain::edge_at`]).
    pub fn edge_squares_at(&self, p: Ix, q: Ix) -> Option<u64> {
        self.edge_at(p, q).squares
    }

    /// Thm 6 chained: exact `Γ_C` plus the pairwise-folded scaling-law
    /// lower bound (see [`ChainClustering`] for when each is defined).
    ///
    /// The fold applies the two-factor Thm 6 inequality `Γ_{X⊗Y} ≥
    /// ψ(d) Γ_X Γ_Y` to prefixes: `Γ_C ≥ ψ_2 Γ_{1..2} Γ_3 ≥ ψ_2 (ψ_1 Γ_1
    /// Γ_2) Γ_3 ≥ …` — substituting each prefix's bound is valid because
    /// `ψ` and all `Γ` are non-negative. Prefix degrees multiply, so each
    /// `ψ` is evaluated at `(d_prefix(p), d_prefix(q), d_i(p_i), d_i(q_i))`.
    pub fn clustering_at(&self, p: Ix, q: Ix) -> ChainClustering {
        let edge = self.edge_at(p, q);
        let gamma = edge.squares.and_then(|s| {
            let denom = (edge.degree_p as i128 - 1) * (edge.degree_q as i128 - 1);
            (denom > 0).then(|| s as f64 / denom as f64)
        });
        let levels = || self.coords(p).zip(self.coords(q)).enumerate();
        let bound_defined = gamma.is_some()
            && self.levels.iter().all(|l| !l.plus_identity)
            && levels()
                .all(|(i, (v, w))| self.level_degree(i, v) >= 2 && self.level_degree(i, w) >= 2);
        let fold = bound_defined.then(|| -> Option<(f64, f64)> {
            let mut levels = levels();
            let (_, (v0, w0)) = levels.next()?;
            let mut acc = factor_gamma(self.level_stats(0), v0, w0)?;
            let mut psi_acc = 1.0;
            let mut dp = self.level_degree(0, v0) as i128;
            let mut dq = self.level_degree(0, w0) as i128;
            for (i, (v, w)) in levels {
                let di = self.level_degree(i, v) as i128;
                let dj = self.level_degree(i, w) as i128;
                let f = psi(dp, dq, di, dj);
                acc = f * acc * factor_gamma(self.level_stats(i), v, w)?;
                psi_acc *= f;
                dp *= di;
                dq *= dj;
            }
            Some((acc, psi_acc))
        });
        ChainClustering {
            degree_p: edge.degree_p,
            degree_q: edge.degree_q,
            squares: edge.squares,
            gamma,
            bound: fold.flatten().map(|(b, _)| b),
            psi: fold.flatten().map(|(_, f)| f),
        }
    }

    /// Thm 7 chained: **exact** internal/external edge counts for the
    /// product community `S = S_1 γ … γ S_k` from per-level counts alone:
    ///
    /// ```text
    /// 2·m_in(S) = 1_Sᵀ C 1_S = Π_i (2·m_in,i + ε_i |S_i|)
    /// vol(S)    = 1_Sᵀ C 1_V = Π_i (2·m_in,i + m_out,i + ε_i |S_i|)
    /// m_out(S)  = vol(S) − 2·m_in(S)
    /// ```
    ///
    /// With `k = 2` and `ε = (1, 0)` this is literally the paper's Thm 7.
    /// Level sets are deduplicated. A set count other than the level
    /// count is [`ChainError::CommunitySets`]; a member outside its
    /// level's factor is [`ChainError::CommunityVertex`], naming it.
    pub fn community(&self, sets: &[Vec<Ix>]) -> Result<ChainCommunity, ChainError> {
        if sets.len() != self.levels.len() {
            return Err(ChainError::CommunitySets {
                expected: self.levels.len(),
                found: sets.len(),
            });
        }
        let (mut size, mut in_all, mut vol_all) = (1u128, 1u128, 1u128);
        for (i, set) in sets.iter().enumerate() {
            let g = self.level_graph(i);
            let mut members = set.clone();
            members.sort_unstable();
            members.dedup();
            if let Some(&vertex) = members.last().filter(|&&v| v >= g.num_vertices()) {
                return Err(ChainError::CommunityVertex {
                    level: i,
                    vertex,
                    factor: self.atoms[self.levels[i].atom].name.clone(),
                    order: g.num_vertices(),
                });
            }
            let in_set = |v: Ix| members.binary_search(&v).is_ok();
            let (mut m_in2, mut m_out) = (0u128, 0u128); // m_in2 = 2·m_in
            for &u in &members {
                for &v in g.neighbors(u) {
                    if in_set(v) {
                        m_in2 += 1;
                    } else {
                        m_out += 1;
                    }
                }
            }
            let eps = u128::from(self.levels[i].plus_identity) * members.len() as u128;
            size = size
                .checked_mul(members.len() as u128)
                .ok_or(ChainError::TooLarge)?;
            in_all = in_all
                .checked_mul(m_in2 + eps)
                .ok_or(ChainError::TooLarge)?;
            vol_all = vol_all
                .checked_mul(m_in2 + m_out + eps)
                .ok_or(ChainError::TooLarge)?;
        }
        debug_assert_eq!(in_all % 2, 0, "some level is loop-free, so Π is even");
        let to_u64 = |x: u128| u64::try_from(x).map_err(|_| ChainError::TooLarge);
        Ok(ChainCommunity {
            size: to_u64(size)?,
            m_in: to_u64(in_all / 2)?,
            m_out: to_u64(vol_all - in_all)?,
        })
    }

    /// Global 4-cycle count in O(Σ n_i): each of the four Thm 3/4 term
    /// vectors sums per level, and sums of Kronecker vectors factor —
    /// `Σ 2s(p) = Π Σ walk₄ − Π Σ d² − Π Σ w₂ + Π Σ d = 8·#squares`.
    fn compute_global_squares(&self) -> Result<u64, ChainError> {
        let overflow = ChainError::Stats(SparseError::Overflow {
            op: "chain.global_squares",
        });
        let mut sums = [1i128, 1, 1, 1];
        for l in &self.levels {
            let stats = &self.atoms[l.atom].stats;
            let mut level = [0i128; 4];
            for v in 0..stats.order() {
                let t = single_terms(stats, v, l.plus_identity);
                for (acc, term) in level.iter_mut().zip([t.0, t.1, t.2, t.3]) {
                    *acc = acc.checked_add(term).ok_or_else(|| overflow.clone())?;
                }
            }
            for (acc, s) in sums.iter_mut().zip(level) {
                *acc = acc.checked_mul(s).ok_or_else(|| overflow.clone())?;
            }
        }
        let eight = sums[0]
            .checked_sub(sums[1])
            .and_then(|x| x.checked_sub(sums[2]))
            .and_then(|x| x.checked_add(sums[3]))
            .ok_or(overflow)?;
        if eight < 0 || eight % 8 != 0 {
            return Err(ChainError::Stats(SparseError::Malformed(format!(
                "chain global squares broke the /8 invariant: {eight}"
            ))));
        }
        u64::try_from(eight / 8).map_err(|_| ChainError::TooLarge)
    }

    /// Materialise the product as a [`Graph`] by folding [`Graph::kron`]
    /// over the per-level graphs (`+ I` levels via
    /// [`Graph::with_full_self_loops`]). Memory `O(nnz(C))` — validation
    /// only, like [`KroneckerProduct::materialize`].
    pub fn materialize(&self) -> Graph {
        let level = |i: usize| -> Graph {
            let g = self.level_graph(i);
            if self.levels[i].plus_identity {
                g.with_full_self_loops()
            } else {
                g.clone()
            }
        };
        (1..self.levels.len()).fold(level(0), |acc, i| acc.kron(&level(i)))
    }
}

// `KroneckerProduct` is only referenced in doc comments; keep the link
// target imported for rustdoc.
#[allow(unused_imports)]
use crate::product::KroneckerProduct;

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_generators::{complete_bipartite, cycle, path, star};

    fn bind(names: &[(&str, Graph)]) -> Vec<(String, Graph)> {
        names
            .iter()
            .map(|(n, g)| (n.to_string(), g.clone()))
            .collect()
    }

    fn spec(levels: &[(&str, bool)]) -> Vec<(String, bool)> {
        levels.iter().map(|(n, p)| (n.to_string(), *p)).collect()
    }

    /// The differential workhorse: every per-vertex/per-edge statistic of
    /// the chain against brute force on its own materialisation.
    fn check_against_materialized(chain: &KronChain) {
        let mat = chain.materialize();
        let n = chain.num_vertices();
        assert_eq!(mat.num_vertices(), n);
        assert_eq!(mat.num_edges() as u64, chain.num_edges());
        assert_eq!(mat.max_degree() as u64, chain.max_degree());
        let per_vertex = bikron_analytics_squares(&mat);
        let total: u64 = per_vertex.iter().sum::<u64>() / 4;
        assert_eq!(total, chain.global_squares(), "global squares");
        for (p, &squares) in per_vertex.iter().enumerate() {
            assert_eq!(mat.degree(p) as u64, chain.degree(p), "degree at {p}");
            assert_eq!(squares, chain.vertex_squares_at(p), "squares at {p}");
            assert_eq!(
                mat.neighbors(p).to_vec(),
                chain.neighbors_page(p, 0, usize::MAX),
                "neighbors at {p}"
            );
            for q in 0..n {
                assert_eq!(mat.has_edge(p, q), chain.has_edge(p, q), "edge ({p},{q})");
                let expect = mat.has_edge(p, q).then(|| brute_edge_squares(&mat, p, q));
                assert_eq!(expect, chain.edge_squares_at(p, q), "◇ at ({p},{q})");
            }
        }
    }

    /// 4-cycles per vertex, enumerated on the materialised graph.
    fn bikron_analytics_squares(g: &Graph) -> Vec<u64> {
        bikron_analytics::butterfly::butterflies_per_vertex(g)
    }

    /// 4-cycles through edge (p, q), enumerated on the materialised graph.
    fn brute_edge_squares(g: &Graph, p: usize, q: usize) -> u64 {
        bikron_analytics::butterfly::butterflies_per_edge(g)
            .get(p, q)
            .expect("(p, q) is an edge")
    }

    fn three_factor() -> KronChain {
        KronChain::new(
            bind(&[
                ("A", cycle(3)),
                ("B", path(3)),
                ("C", complete_bipartite(2, 2)),
            ]),
            &spec(&[("A", true), ("B", false), ("C", false)]),
        )
        .unwrap()
    }

    #[test]
    fn three_factor_chain_matches_materialized() {
        check_against_materialized(&three_factor());
    }

    #[test]
    fn tower_matches_materialized() {
        let chain = KronChain::new(
            bind(&[("A", cycle(3))]),
            &spec(&[("A", false), ("A", false), ("A", false)]),
        )
        .unwrap();
        assert_eq!(chain.canonical(), "A⊗A⊗A");
        check_against_materialized(&chain);
    }

    /// A chain longer than `for_each_neighbor`'s 16 inline rows walks its
    /// spilled rows. Single-vertex `+I` levels keep the product small;
    /// the levels past the sixteenth still have rows of length 1 to 3.
    #[test]
    fn long_chain_pages_match_materialized() {
        let mut levels = vec![("K", true), ("P", false)];
        levels.extend(std::iter::repeat_n(("S", true), 12));
        levels.extend([("K", false), ("C", true), ("S", true), ("K", false)]);
        let chain = KronChain::new(
            bind(&[
                ("K", path(2)),
                ("P", path(3)),
                ("C", cycle(3)),
                ("S", path(1)),
            ]),
            &spec(&levels),
        )
        .unwrap();
        assert_eq!(chain.num_levels(), 18);
        check_against_materialized(&chain);
        let mat = chain.materialize();
        for p in 0..chain.num_vertices() {
            let all = mat.neighbors(p);
            for offset in 0..=all.len() + 1 {
                for limit in [0, 1, 2, 5, usize::MAX] {
                    let expect: Vec<Ix> = all.iter().skip(offset).take(limit).copied().collect();
                    assert_eq!(
                        chain.neighbors_page(p, offset as u64, limit),
                        expect,
                        "page ({p}, {offset}, {limit})"
                    );
                }
            }
        }
    }

    #[test]
    fn bare_pair_matches_materialized() {
        let chain = KronChain::new(
            bind(&[("A", cycle(5)), ("B", star(3))]),
            &spec(&[("A", false), ("B", false)]),
        )
        .unwrap();
        check_against_materialized(&chain);
    }

    #[test]
    fn two_level_chain_agrees_with_kronecker_product() {
        use crate::{KroneckerProduct, SelfLoopMode};
        let (a, b) = (cycle(5), complete_bipartite(2, 3));
        let chain = KronChain::new(
            bind(&[("A", a.clone()), ("B", b.clone())]),
            &spec(&[("A", true), ("B", false)]),
        )
        .unwrap();
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        assert_eq!(chain.num_vertices(), prod.num_vertices());
        assert_eq!(chain.num_edges(), prod.num_edges());
        for p in 0..chain.num_vertices() {
            assert_eq!(chain.degree(p), prod.degree(p));
            assert_eq!(
                chain.neighbors_page(p, 1, 3),
                prod.neighbors_page(p, 1, 3),
                "page at {p}"
            );
        }
    }

    #[test]
    fn split_combine_round_trip() {
        let chain = three_factor();
        for p in 0..chain.num_vertices() {
            assert_eq!(chain.combine(&chain.split(p)), p);
        }
    }

    #[test]
    fn clustering_bound_holds_on_bare_chain() {
        // All-bare chain of degree-≥2 factors: the Thm 6 fold must be
        // defined on every edge and lower-bound the exact Γ.
        let chain = KronChain::new(
            bind(&[("A", cycle(3)), ("B", cycle(4)), ("C", cycle(5))]),
            &spec(&[("A", false), ("B", false), ("C", false)]),
        )
        .unwrap();
        let mat = chain.materialize();
        let mut checked = 0;
        for (p, q) in mat.edges() {
            let c = chain.clustering_at(p, q);
            let gamma = c.gamma.expect("edge with degrees ≥ 2");
            let bound = c.bound.expect("all-bare chain");
            assert!(
                bound <= gamma + 1e-12,
                "Thm 6 violated at ({p},{q}): bound {bound} > gamma {gamma}"
            );
            assert!(c.psi.unwrap() > 0.0 && c.psi.unwrap() < 1.0);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn clustering_has_no_bound_under_identity_lift() {
        let chain = three_factor();
        let mat = chain.materialize();
        let (p, q) = mat.edges().next().unwrap();
        let c = chain.clustering_at(p, q);
        assert!(c.squares.is_some());
        assert_eq!(c.bound, None);
        assert_eq!(c.psi, None);
    }

    #[test]
    fn community_counts_match_brute_force() {
        let chain = three_factor();
        let mat = chain.materialize();
        let sets = vec![vec![0usize, 1], vec![0, 2], vec![1, 2, 3]];
        let truth = chain.community(&sets).unwrap();
        // Brute force: product membership via per-level coordinates.
        let member = |p: usize| chain.split(p).iter().zip(&sets).all(|(c, s)| s.contains(c));
        let (mut m_in, mut m_out, mut size) = (0u64, 0u64, 0u64);
        for p in 0..chain.num_vertices() {
            if !member(p) {
                continue;
            }
            size += 1;
            for &q in mat.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        assert_eq!(truth.size, size);
        assert_eq!(truth.m_in, m_in / 2);
        assert_eq!(truth.m_out, m_out);
    }

    #[test]
    fn community_errors_name_the_offending_set() {
        let chain = three_factor();
        assert_eq!(
            chain.community(&[vec![0]]).unwrap_err(),
            ChainError::CommunitySets {
                expected: 3,
                found: 1
            }
        );
        let err = chain
            .community(&[vec![0], vec![7, 1], vec![0]])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "level 1 set contains vertex 7, but factor 'B' has 3 vertices"
        );
    }

    #[test]
    fn neighbor_pages_tile_the_full_list() {
        let tower = KronChain::new(
            bind(&[("A", path(3))]),
            &spec(&[("A", true), ("A", false), ("A", true)]),
        )
        .unwrap();
        for chain in [three_factor(), tower] {
            for p in 0..chain.num_vertices() {
                let full = chain.neighbors_page(p, 0, usize::MAX);
                assert_eq!(full.len() as u64, chain.degree(p));
                for limit in [0, 1, 2, 5] {
                    for offset in 0..=full.len() + 1 {
                        let (lo, hi) = (offset.min(full.len()), (offset + limit).min(full.len()));
                        assert_eq!(
                            chain.neighbors_page(p, offset as u64, limit),
                            full[lo..hi],
                            "p {p} offset {offset} limit {limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_at_reports_both_degrees() {
        let chain = three_factor();
        for p in 0..chain.num_vertices() {
            for q in 0..chain.num_vertices() {
                let e = chain.edge_at(p, q);
                assert_eq!((e.degree_p, e.degree_q), (chain.degree(p), chain.degree(q)));
                assert_eq!(e.squares.is_some(), chain.has_edge(p, q));
            }
        }
    }

    #[test]
    fn construction_error_matrix() {
        let ok = |levels: &[(&str, bool)]| KronChain::new(bind(&[("A", cycle(3))]), &spec(levels));
        assert_eq!(ok(&[]).err().unwrap(), ChainError::Empty);
        assert_eq!(
            ok(&[("B", false)]).err().unwrap(),
            ChainError::UnboundName("B".into())
        );
        assert_eq!(
            ok(&[("A", true)]).err().unwrap(),
            ChainError::NoLoopFreeLevel
        );
        assert_eq!(
            KronChain::new(
                bind(&[("A", cycle(3)), ("A", cycle(4))]),
                &spec(&[("A", false)])
            )
            .err()
            .unwrap(),
            ChainError::DuplicateName("A".into())
        );
    }
}
