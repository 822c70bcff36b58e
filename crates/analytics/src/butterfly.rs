//! Exact 4-cycle ("butterfly"/"square") counting.
//!
//! All counters require a **simple graph without self loops** (the
//! paper's Defs. 8–9 assume the same) and count 4-cycles — closed walks of
//! length 4 visiting 4 distinct vertices — once each regardless of
//! chords, so they are correct on non-bipartite graphs too (needed for the
//! Assump. 1(i) factor `A`).
//!
//! Identities used:
//! * per vertex: `s_i = Σ_{v≠i} C(codeg(i,v), 2)` where `codeg(i,v)` is
//!   the number of common neighbours (every 4-cycle through `i` pairs `i`
//!   with exactly one diagonally-opposite vertex `v`);
//! * global: `Σ_i s_i = 4·(global count)`;
//! * per edge `(i,j)`: `◇_ij = Σ_{a∈N_i∖{j}} (|N_a ∩ N_j| − 1)` (the `−1`
//!   removes `b = i`, which always lies in the intersection).

use rayon::prelude::*;

use bikron_graph::Graph;
use bikron_sparse::Ix;

/// Per-edge butterfly counts keyed by the undirected edge `(u, v)`, `u <= v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeButterflies {
    /// `(u, v, count)` triples sorted by `(u, v)`.
    pub counts: Vec<(Ix, Ix, u64)>,
}

impl EdgeButterflies {
    /// Look up the count of edge `{u, v}`.
    pub fn get(&self, u: Ix, v: Ix) -> Option<u64> {
        let key = (u.min(v), u.max(v));
        self.counts
            .binary_search_by_key(&key, |&(a, b, _)| (a, b))
            .ok()
            .map(|i| self.counts[i].2)
    }

    /// Sum of all per-edge counts; equals `4 · global` since each 4-cycle
    /// has 4 edges.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, _, c)| c).sum()
    }
}

fn assert_simple(g: &Graph) {
    assert!(
        g.has_no_self_loops(),
        "butterfly counting requires a graph without self loops"
    );
}

/// Per-vertex 4-cycle participation by wedge tally — the paper's "simple
/// algorithm" (§I): a depth-2 sweep from each vertex.
///
/// Cost `O(Σ_a d_a²)` time, `O(|V|)` working memory.
pub fn butterflies_per_vertex(g: &Graph) -> Vec<u64> {
    assert_simple(g);
    let obs = bikron_obs::global();
    let _phase = obs.phase("analytics.butterflies_per_vertex");
    let n = g.num_vertices();
    let mut counts = vec![0u64; n];
    let mut codeg = vec![0u64; n];
    let mut touched: Vec<Ix> = Vec::new();
    let mut wedges = 0u64;
    for (i, count) in counts.iter_mut().enumerate() {
        for &a in g.neighbors(i) {
            for &v in g.neighbors(a) {
                if v == i {
                    continue;
                }
                if codeg[v] == 0 {
                    touched.push(v);
                }
                codeg[v] += 1;
                wedges += 1;
            }
        }
        let mut s = 0u64;
        for &v in &touched {
            let w = codeg[v];
            s += w * (w - 1) / 2;
            codeg[v] = 0;
        }
        touched.clear();
        *count = s;
    }
    obs.counter("analytics.wedges_visited").add(wedges);
    obs.counter("analytics.wedges_closed")
        .add(counts.iter().sum::<u64>());
    record_vertex_butterfly_distribution(&counts);
    counts
}

/// Feed per-vertex butterfly counts into the
/// `analytics.vertex_butterflies` histogram — the distribution whose
/// p99/max tail is the paper's dense-structure signal (a few vertices
/// carry most of the 4-cycle mass in skewed Kronecker products).
fn record_vertex_butterfly_distribution(counts: &[u64]) {
    let hist = bikron_obs::global().histogram("analytics.vertex_butterflies");
    // Fold into a local histogram first: one pass of private increments,
    // then a single 65-bucket merge, so the shared atomics see O(1)
    // traffic regardless of |V|.
    let local = bikron_obs::Histogram::new();
    for &c in counts {
        local.record(c);
    }
    hist.merge_from(&local);
}

/// Rayon-parallel version of [`butterflies_per_vertex`]; deterministic.
pub fn butterflies_per_vertex_parallel(g: &Graph) -> Vec<u64> {
    assert_simple(g);
    let obs = bikron_obs::global();
    let _phase = obs.phase("analytics.butterflies_per_vertex");
    let wedge_counter = obs.counter("analytics.wedges_visited");
    let n = g.num_vertices();
    let counts: Vec<u64> = (0..n)
        .into_par_iter()
        .map_init(
            || (vec![0u64; n], Vec::<Ix>::new()),
            |(codeg, touched), i| {
                let mut wedges = 0u64;
                for &a in g.neighbors(i) {
                    for &v in g.neighbors(a) {
                        if v == i {
                            continue;
                        }
                        if codeg[v] == 0 {
                            touched.push(v);
                        }
                        codeg[v] += 1;
                        wedges += 1;
                    }
                }
                let mut s = 0u64;
                for &v in touched.iter() {
                    let w = codeg[v];
                    s += w * (w - 1) / 2;
                    codeg[v] = 0;
                }
                touched.clear();
                // One relaxed add per vertex, amortised over its d² sweep.
                wedge_counter.add(wedges);
                s
            },
        )
        .collect();
    obs.counter("analytics.wedges_closed")
        .add(counts.iter().sum::<u64>());
    record_vertex_butterfly_distribution(&counts);
    counts
}

/// Global 4-cycle count: `Σ_i s_i / 4`.
///
/// ```
/// use bikron_analytics::butterflies_global;
/// use bikron_graph::Graph;
///
/// // K_{2,3} has C(2,2)·C(3,2) = 3 butterflies.
/// let g = Graph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
/// assert_eq!(butterflies_global(&g), 3);
/// ```
pub fn butterflies_global(g: &Graph) -> u64 {
    let obs = bikron_obs::global();
    let _phase = obs.phase("analytics.butterflies_global");
    obs.counter("analytics.butterfly_calls").inc();
    let per_vertex = if g.num_vertices() >= 2048 {
        butterflies_per_vertex_parallel(g)
    } else {
        butterflies_per_vertex(g)
    };
    let total: u64 = per_vertex.iter().sum();
    debug_assert_eq!(total % 4, 0, "per-vertex counts must sum to 4·global");
    total / 4
}

/// Sorted-slice intersection size.
#[inline]
pub(crate) fn intersection_size(a: &[Ix], b: &[Ix]) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Exact per-edge butterfly counts.
///
/// For each undirected edge `{i, j}` (emitted with `i < j`), the count is
/// `Σ_{a∈N_i∖{j}} (|N_a ∩ N_j| − 1)`. Edges are processed in parallel.
pub fn butterflies_per_edge(g: &Graph) -> EdgeButterflies {
    assert_simple(g);
    let obs = bikron_obs::global();
    let _phase = obs.phase("analytics.butterflies_per_edge");
    let closed_counter = obs.counter("analytics.wedges_closed");
    let edges: Vec<(Ix, Ix)> = g.edges().collect();
    let counts: Vec<(Ix, Ix, u64)> = edges
        .into_par_iter()
        .map(|(i, j)| {
            let nj = g.neighbors(j);
            let mut total = 0u64;
            for &a in g.neighbors(i) {
                if a == j {
                    continue;
                }
                // i is always in N_a ∩ N_j (a ~ i and j ~ i), hence −1.
                total += intersection_size(g.neighbors(a), nj) - 1;
            }
            closed_counter.add(total);
            (i, j, total)
        })
        .collect();
    // `edges()` already yields (i, j) with i <= j in sorted order.
    EdgeButterflies { counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

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
    fn c4_has_one_square() {
        let g = cycle(4);
        assert_eq!(butterflies_global(&g), 1);
        assert_eq!(butterflies_per_vertex(&g), vec![1, 1, 1, 1]);
        let e = butterflies_per_edge(&g);
        assert_eq!(e.get(0, 1), Some(1));
        assert_eq!(e.total(), 4);
    }

    #[test]
    fn c6_has_none() {
        assert_eq!(butterflies_global(&cycle(6)), 0);
    }

    #[test]
    fn k_mn_closed_form() {
        // K_{m,n}: C(m,2)·C(n,2) butterflies.
        for (m, n) in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 5)] {
            let g = complete_bipartite(m, n);
            let c2 = |x: usize| (x * (x - 1) / 2) as u64;
            assert_eq!(
                butterflies_global(&g),
                c2(m) * c2(n),
                "K_{{{m},{n}}} mismatch"
            );
        }
    }

    #[test]
    fn k_mn_per_vertex_closed_form() {
        // In K_{m,n}, a left vertex u is in (m−1)·C(n,2) butterflies.
        let (m, n) = (3, 4);
        let g = complete_bipartite(m, n);
        let s = butterflies_per_vertex(&g);
        let c2 = |x: usize| (x * (x - 1) / 2) as u64;
        for &su in &s[..m] {
            assert_eq!(su, (m as u64 - 1) * c2(n));
        }
        for &sw in &s[m..] {
            assert_eq!(sw, (n as u64 - 1) * c2(m));
        }
    }

    #[test]
    fn k4_complete_graph() {
        // K4 has 3 four-cycles; each vertex is in all 3; each edge in 2? A
        // 4-cycle in K4 uses all 4 vertices and 4 of the 6 edges, so each
        // edge is in 3·4/6 = 2 cycles.
        let mut edges = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(4, &edges).unwrap();
        assert_eq!(butterflies_global(&g), 3);
        assert_eq!(butterflies_per_vertex(&g), vec![3, 3, 3, 3]);
        let e = butterflies_per_edge(&g);
        for &(_, _, c) in &e.counts {
            assert_eq!(c, 2);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = complete_bipartite(6, 7);
        assert_eq!(
            butterflies_per_vertex(&g),
            butterflies_per_vertex_parallel(&g)
        );
    }

    #[test]
    fn vertex_edge_global_consistency() {
        // Hypercube Q3: per-vertex sums = 4·global, per-edge sums = 4·global.
        let mut edges = Vec::new();
        for v in 0..8usize {
            for b in 0..3 {
                let u = v ^ (1 << b);
                if u > v {
                    edges.push((v, u));
                }
            }
        }
        let g = Graph::from_edges(8, &edges).unwrap();
        let global = butterflies_global(&g);
        assert_eq!(global, 6); // 2^{d-2}·C(d,2) = 2·3
        let sv: u64 = butterflies_per_vertex(&g).iter().sum();
        assert_eq!(sv, 4 * global);
        assert_eq!(butterflies_per_edge(&g).total(), 4 * global);
    }

    #[test]
    fn per_edge_relation_to_per_vertex() {
        // s_i = ½ Σ_{j∈N_i} ◇_ij (each cycle at i uses 2 incident edges).
        let g = complete_bipartite(3, 4);
        let s = butterflies_per_vertex(&g);
        let e = butterflies_per_edge(&g);
        for (i, &si) in s.iter().enumerate() {
            let sum: u64 = g.neighbors(i).iter().map(|&j| e.get(i, j).unwrap()).sum();
            assert_eq!(2 * si, sum);
        }
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_rejected() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 0)]).unwrap();
        butterflies_global(&g);
    }

    #[test]
    fn empty_and_tree() {
        let empty = Graph::from_edges(5, &[]).unwrap();
        assert_eq!(butterflies_global(&empty), 0);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(butterflies_global(&star), 0);
        assert_eq!(butterflies_per_edge(&star).total(), 0);
    }
}
