//! Partitioned, annotated edge streaming — generation at scale.
//!
//! The paper's conclusion sketches the deployment model: a distributed
//! generator that "compute\[s\] ground truth values during generation".
//! This module is the shared-memory version of that pipeline, for any
//! [`KronChain`] program:
//!
//! * the edge set is split into `num_parts` disjoint partitions of the
//!   level-0 canonical entries ([`block_range`](crate::partition::block_range));
//! * each partition streams its edges (`p < q`) independently — across
//!   ranks, threads, or files — optionally **annotated with exact
//!   per-edge ground truth** from [`KronChain::edge_at`], so no pass over
//!   the product is ever needed;
//! * writers emit plain or annotated edge-list files that the
//!   [`bikron_graph::io`] readers (and any external tool) can consume.
//!
//! **Order.** A level's canonical entries are its `i < j` CSR entries,
//! then the diagonal if the level is `+I`. An off-diagonal level-0 entry
//! owns every entry of levels `1..k` in mixed radix, the last level
//! fastest, each level's entries in CSR order and then its diagonal; a
//! diagonal one owns the tail chain's canonical edges, recursively
//! (DESIGN.md §11 "Edge stream order"). A pair streams in the order of
//! the two-factor stream this replaced.

use std::io::{self, Write};
use std::ops::Range;

use bikron_sparse::Ix;

use crate::chain::{mixed_radix_runs, ChainEdge, KronChain, Wheel};
use crate::partition::block_range;

/// One level's entries in stream order, scaled by the level's stride so
/// a product endpoint is a sum over levels.
struct StreamLevel {
    /// Every effective entry (tail levels `1..k` only).
    all: Vec<(Ix, Ix)>,
    /// The `i < j` canonical entries (levels 0 through the first bare one).
    off: Vec<(Ix, Ix)>,
    /// Diagonal canonical entries: the factor's order when lifted, else 0.
    diag: usize,
    stride: usize,
    /// Edges an off-diagonal entry owns: entries of the later levels
    /// (saturated; exact whenever `off` is non-empty).
    tail: u64,
    /// Canonical edges of levels `d..`: a level-`d−1` diagonal's share.
    edges: u64,
}

/// A partitioned view of a chain's edge set.
pub struct EdgeStream<'a> {
    chain: &'a KronChain,
    levels: Vec<StreamLevel>,
    num_parts: usize,
}

impl<'a> EdgeStream<'a> {
    /// Split the chain's edges into `num_parts ≥ 1` partitions.
    pub fn new(chain: &'a KronChain, num_parts: usize) -> Self {
        assert!(num_parts >= 1, "need at least one partition");
        let k = chain.num_levels();
        let first_bare = (0..k)
            .find(|&i| !chain.level_info(i).2)
            .expect("a chain has a level without +I");
        let mut levels: Vec<StreamLevel> = (0..k)
            .map(|i| {
                let (_, g, lifted) = chain.level_info(i);
                let stride = chain.stride(i);
                let csr = || {
                    g.adjacency()
                        .iter()
                        .map(|(u, v, _)| (u * stride, v * stride))
                };
                let all = if i > 0 {
                    let loops = (0..g.num_vertices()).filter(|_| lifted);
                    csr()
                        .chain(loops.map(|v| (v * stride, v * stride)))
                        .collect()
                } else {
                    Vec::new()
                };
                let off = if i <= first_bare {
                    csr().filter(|&(u, v)| u < v).collect()
                } else {
                    Vec::new()
                };
                StreamLevel {
                    all,
                    off,
                    diag: if lifted { g.num_vertices() } else { 0 },
                    stride,
                    tail: 0,
                    edges: 0,
                }
            })
            .collect();
        // Entries of levels d+1.. and, with level d's own, half of them.
        let mut tail: u128 = 1;
        for i in (0..k).rev() {
            let (_, g, lifted) = chain.level_info(i);
            let entries = g.nnz() as u128 + if lifted { g.num_vertices() as u128 } else { 0 };
            levels[i].tail = u64::try_from(tail).unwrap_or(u64::MAX);
            levels[i].edges = u64::try_from(entries * tail / 2).unwrap_or(u64::MAX);
            tail = tail.saturating_mul(entries);
        }
        EdgeStream {
            chain,
            levels,
            num_parts,
        }
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// The level-0 canonical entries owned by `part` — the shared
    /// [`block_range`] tiling, so `/v1/edges`, `generate` and distsim
    /// agree on ownership.
    fn slice(&self, part: usize) -> Range<usize> {
        let top = &self.levels[0];
        let (lo, hi) = block_range(top.off.len() + top.diag, self.num_parts, part);
        lo..hi
    }

    /// Exact number of edges owned by `part` — O(1) arithmetic, no
    /// streaming: each off-diagonal level-0 entry owns the tail's entry
    /// count, each diagonal one the tail's edge count.
    pub fn part_len(&self, part: usize) -> u64 {
        let slice = self.slice(part);
        let off = self.levels[0].off.len();
        let off_n = slice.end.min(off) - slice.start.min(off);
        let diag_n = slice.len() - off_n;
        let mut len = off_n as u64 * self.levels[0].tail;
        if diag_n > 0 {
            len += diag_n as u64 * self.levels[1].edges;
        }
        len
    }

    /// Call `f(p, q)` on the edges at positions `[offset, offset + limit)`
    /// of `part`'s stream, in order.
    fn for_each_edge(&self, part: usize, offset: u64, limit: u64, mut f: impl FnMut(Ix, Ix)) {
        let take = self.part_len(part).saturating_sub(offset).min(limit);
        if take == 0 {
            return;
        }
        let mut wheels: Vec<Wheel<&[(Ix, Ix)]>> = self
            .levels
            .iter()
            .map(|l| Wheel {
                row: &l.all[..],
                len: l.all.len(),
                pos: 0,
            })
            .collect();
        self.walk(0, self.slice(part), 0, offset, take, &mut wheels, &mut f);
    }

    /// Emit canonical edges `skip..skip + take` of levels `d..`, counted
    /// over level `d`'s canonical entries `entries` and offset by `base`,
    /// the diagonal prefix of the levels before `d`. Whole entries are
    /// skipped by arithmetic. The caller keeps `skip + take` within the
    /// range.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        d: usize,
        entries: Range<usize>,
        base: Ix,
        mut skip: u64,
        mut take: u64,
        wheels: &mut [Wheel<&[(Ix, Ix)]>],
        f: &mut impl FnMut(Ix, Ix),
    ) {
        let level = &self.levels[d];
        let n_off = level.off.len();
        let off = entries.start.min(n_off)..entries.end.min(n_off);
        let span = off.len() as u64 * level.tail;
        if skip < span {
            let first = off.start + (skip / level.tail) as usize;
            let mut rank = skip % level.tail;
            for &(i, j) in &level.off[first..off.end] {
                let n = (level.tail - rank).min(take);
                let (p, q) = (base + i, base + j);
                match &mut wheels[d + 1..] {
                    [] => f(p, q),
                    tail => mixed_radix_runs(tail, rank, n, |upper, last, run| {
                        let (p, q) = upper
                            .iter()
                            .map(|w| w.row[w.pos])
                            .fold((p, q), |(p, q), (u, v)| (p + u, q + v));
                        last[run].iter().for_each(|&(u, v)| f(p + u, q + v));
                    }),
                }
                take -= n;
                if take == 0 {
                    return;
                }
                rank = 0;
            }
            skip = 0;
        } else {
            skip -= span;
        }
        let diag = entries.start.max(n_off) - n_off..entries.end.max(n_off) - n_off;
        if diag.is_empty() {
            return;
        }
        let next = &self.levels[d + 1];
        let share = next.edges;
        let first = diag.start + (skip / share) as usize;
        let mut rank = skip % share;
        for v in first..diag.end {
            let n = (share - rank).min(take);
            let all = 0..next.off.len() + next.diag;
            self.walk(d + 1, all, base + v * level.stride, rank, n, wheels, f);
            take -= n;
            if take == 0 {
                return;
            }
            rank = 0;
        }
    }

    /// A resumable page of `part`'s edge stream: the edges at positions
    /// `[offset, offset + limit)` of [`EdgeStream::edges`]`(part)`, in the
    /// same order. Whole entries are skipped arithmetically and the rest
    /// is [`mixed_radix_runs`] over the tail, so a page costs `O(k·limit)`
    /// beyond building the stream, whatever `offset` is. This is what
    /// lets a long-lived service hand out a multi-million-edge partition
    /// in bounded-size chunks with a client-held cursor.
    pub fn edges_page(&self, part: usize, offset: u64, limit: usize) -> Vec<(Ix, Ix)> {
        let limit = limit as u64;
        let count = self.part_len(part).saturating_sub(offset).min(limit);
        let mut page = Vec::with_capacity(count as usize);
        self.for_each_edge(part, offset, limit, |p, q| page.push((p, q)));
        page
    }

    /// Stream the undirected edges (`p < q`) owned by `part`, in the
    /// order the module documentation defines. Partitions are disjoint
    /// and their union is exactly the chain's edge set.
    pub fn edges(&self, part: usize) -> impl Iterator<Item = (Ix, Ix)> + '_ {
        const CHUNK: usize = 4096;
        (0..self.part_len(part))
            .step_by(CHUNK)
            .flat_map(move |offset| self.edges_page(part, offset, CHUNK))
    }

    /// Stream `part`'s edges with their ground truth, attached during
    /// generation ([`KronChain::edge_at`]).
    pub fn annotated_edges(&self, part: usize) -> impl Iterator<Item = (Ix, Ix, ChainEdge)> + '_ {
        self.edges(part)
            .map(|(p, q)| (p, q, self.chain.edge_at(p, q)))
    }

    /// Write `part`'s edges as a plain `p q` edge list. Returns the edge
    /// count written.
    pub fn write_edges<W: Write>(&self, part: usize, mut w: W) -> io::Result<u64> {
        let obs = bikron_obs::global();
        let _phase = obs.phase("stream.write_edges");
        let mut count = 0u64;
        for (p, q) in self.edges(part) {
            writeln!(w, "{p} {q}")?;
            count += 1;
        }
        obs.counter("product.edges_streamed").add(count);
        Ok(count)
    }

    /// Write `part`'s annotated edges as TSV:
    /// `p  q  degree_p  degree_q  squares`.
    pub fn write_annotated<W: Write>(&self, part: usize, mut w: W) -> io::Result<u64> {
        let obs = bikron_obs::global();
        let _phase = obs.phase("stream.write_annotated");
        let mut count = 0u64;
        for (p, q, e) in self.annotated_edges(part) {
            let squares = e.squares.expect("streamed pairs are edges");
            writeln!(w, "{p}\t{q}\t{}\t{}\t{squares}", e.degree_p, e.degree_q)?;
            count += 1;
        }
        obs.counter("product.edges_streamed").add(count);
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::squares_edge::edge_squares_with;
    use crate::truth::FactorStats;
    use crate::{pair_levels, KroneckerProduct, SelfLoopMode};
    use bikron_generators::{complete_bipartite, crown, cycle, path, star};
    use bikron_graph::Graph;
    use std::collections::BTreeSet;

    fn pair(a: &Graph, b: &Graph, mode: SelfLoopMode) -> KronChain {
        let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
        KronChain::new(bindings, &pair_levels(mode)).unwrap()
    }

    fn chain(atoms: &[(&str, Graph)], levels: &[(&str, bool)]) -> KronChain {
        let bindings = atoms
            .iter()
            .map(|(n, g)| (n.to_string(), g.clone()))
            .collect();
        let spec: Vec<(String, bool)> = levels.iter().map(|(n, l)| (n.to_string(), *l)).collect();
        KronChain::new(bindings, &spec).unwrap()
    }

    /// 3-level towers with `+I` at level 0, in the middle and last, and
    /// a bare `A⊗A⊗A`.
    fn towers() -> Vec<KronChain> {
        let atoms = [("A", path(3)), ("B", cycle(3)), ("C", star(2))];
        [
            [("A", true), ("B", false), ("C", false)],
            [("B", false), ("A", true), ("C", false)],
            [("C", false), ("B", false), ("A", true)],
            [("A", true), ("C", true), ("B", false)],
            [("B", false), ("B", false), ("B", false)],
        ]
        .iter()
        .map(|levels| chain(&atoms, levels))
        .collect()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let a = cycle(5);
        let b = complete_bipartite(2, 3);
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            let c = pair(&a, &b, mode);
            let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
            for parts in [1, 2, 3, 7] {
                let es = EdgeStream::new(&c, parts);
                let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
                for part in 0..parts {
                    for (p, q) in es.edges(part) {
                        assert!(seen.insert((p, q)), "duplicate edge ({p},{q})");
                    }
                }
                let expected: BTreeSet<(usize, usize)> = prod.edges().collect();
                assert_eq!(seen, expected, "parts {parts} mode {mode:?}");
            }
        }
    }

    /// Across parts 1..=7, every tower's parts cover its materialised
    /// edge set with each edge once, as `p < q`; Σ `part_len` is the edge
    /// count; and each part holds exactly the shares of its level-0
    /// entries.
    #[test]
    fn tower_parts_cover_the_materialized_edge_set_once() {
        for c in towers() {
            let expected: BTreeSet<(usize, usize)> = c.materialize().edges().collect();
            let top = &EdgeStream::new(&c, 1).levels[0];
            let (n_off, n_all) = (top.off.len(), top.off.len() + top.diag);
            let diag_share = |es: &EdgeStream| es.levels.get(1).map_or(0, |l| l.edges);
            for parts in 1..=7 {
                let es = EdgeStream::new(&c, parts);
                let mut seen = BTreeSet::new();
                let mut total = 0;
                for part in 0..parts {
                    let edges: Vec<(usize, usize)> = es.edges(part).collect();
                    assert_eq!(edges.len() as u64, es.part_len(part));
                    total += es.part_len(part);
                    for (p, q) in edges {
                        assert!(p < q, "{} edge ({p},{q}) not canonical", c.canonical());
                        assert!(seen.insert((p, q)), "{} duplicate ({p},{q})", c.canonical());
                    }
                    let (lo, hi) = block_range(n_all, parts, part);
                    let off = hi.min(n_off) - lo.min(n_off);
                    let share = off as u64 * top.tail + (hi - lo - off) as u64 * diag_share(&es);
                    assert_eq!(es.part_len(part), share);
                }
                assert_eq!(total, c.num_edges(), "{} parts {parts}", c.canonical());
                assert_eq!(seen, expected, "{} parts {parts}", c.canonical());
            }
        }
    }

    /// Parts differ by at most one level-0 entry's share whenever the
    /// parts split the level-0 entries evenly and level 0 is bare.
    #[test]
    fn partition_balance() {
        let c = pair(&crown(4), &crown(4), SelfLoopMode::None);
        let parts = 4;
        let es = EdgeStream::new(&c, parts);
        let sizes: Vec<u64> = (0..parts).map(|p| es.edges(p).count() as u64).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= crown(4).nnz() as u64, "sizes {sizes:?}");
    }

    #[test]
    fn pages_tile_the_stream() {
        let mut chains = towers();
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            chains.push(pair(&cycle(5), &complete_bipartite(2, 3), mode));
        }
        for c in &chains {
            for parts in [1, 3] {
                let es = EdgeStream::new(c, parts);
                for part in 0..parts {
                    let full: Vec<(usize, usize)> = es.edges(part).collect();
                    // Arbitrary windows match skip/take of the stream.
                    for (offset, limit) in [(0u64, 5usize), (3, 4), (7, 1000), (10_000, 3)] {
                        let page = es.edges_page(part, offset, limit);
                        let lo = (offset as usize).min(full.len());
                        let hi = (lo + limit).min(full.len());
                        assert_eq!(page, &full[lo..hi], "offset {offset} limit {limit}");
                    }
                    // Resumable cursor: chunks of 4 reassemble the stream.
                    let mut rebuilt = Vec::new();
                    loop {
                        let chunk = es.edges_page(part, rebuilt.len() as u64, 4);
                        if chunk.is_empty() {
                            break;
                        }
                        rebuilt.extend(chunk);
                    }
                    assert_eq!(rebuilt, full);
                }
            }
        }
    }

    #[test]
    fn annotations_match_batch_ground_truth() {
        let a = path(3);
        let b = cycle(4);
        let c = pair(&a, &b, SelfLoopMode::FactorA);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let batch = edge_squares_with(&prod, &sa, &sb).unwrap();
        let es = EdgeStream::new(&c, 3);
        let mut total = 0usize;
        for part in 0..3 {
            for (p, q, e) in es.annotated_edges(part) {
                assert_eq!(batch.get(p, q), e.squares);
                assert_eq!(e.degree_p, prod.degree(p));
                total += 1;
            }
        }
        assert_eq!(total as u64, prod.num_edges());
    }

    #[test]
    fn written_edges_reload_as_the_product() {
        for c in towers() {
            let es = EdgeStream::new(&c, 2);
            let mut buf = Vec::new();
            let mut written = 0;
            for part in 0..2 {
                written += es.write_edges(part, &mut buf).unwrap();
            }
            assert_eq!(written, c.num_edges());
            let reloaded =
                bikron_graph::io::read_edge_list(&buf[..], false, Some(c.num_vertices())).unwrap();
            assert_eq!(reloaded, c.materialize());
        }
    }

    #[test]
    fn annotated_tsv_shape() {
        let c = pair(&path(3), &path(3), SelfLoopMode::FactorA);
        let es = EdgeStream::new(&c, 1);
        let mut buf = Vec::new();
        let n = es.write_annotated(0, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count() as u64, n);
        for line in text.lines() {
            assert_eq!(line.split('\t').count(), 5);
        }
    }

    #[test]
    fn edgeless_chain_streams_nothing() {
        let empty = Graph::from_edges(3, &[]).unwrap();
        for (a, b) in [(&empty, &path(3)), (&path(3), &empty)] {
            let c = pair(a, b, SelfLoopMode::None);
            let es = EdgeStream::new(&c, 2);
            for part in 0..2 {
                assert_eq!(es.part_len(part), 0);
                assert!(es.edges_page(part, 0, 10).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_parts_rejected() {
        let c = pair(&path(3), &path(3), SelfLoopMode::None);
        let _ = EdgeStream::new(&c, 0);
    }
}
