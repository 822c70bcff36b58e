//! The chain edge stream against the pair-only stream it replaced.
//!
//! `bikron_core::stream::EdgeStream` pages any `KronChain`. Before it, a
//! pair-only `PartitionedStream` paged `KroneckerProduct`s by factor-`A`
//! entries, and `/v1/edges` and `bikron generate` served its order. Its
//! paging and part sizes are kept here, frozen, as the oracle: over
//! random pairs, both self-loop modes, 1..=7 parts and random windows,
//! the new stream's pages and part sizes equal the old ones, and every
//! line `bikron generate` writes equals the line the old stream wrote,
//! annotated from the two-factor closed forms.

use bikron::core::stream::EdgeStream;
use bikron::core::truth::squares_edge::edge_squares_at;
use bikron::core::truth::FactorStats;
use bikron::core::{pair_levels, KronChain, KroneckerProduct, SelfLoopMode};
use bikron::graph::Graph;
use bikron::sparse::Ix;
use proptest::prelude::*;

/// `PartitionedStream::new`, `part_len` and `edges_page` as they were,
/// less the factor statistics only its annotator read.
mod reference {
    use super::*;

    pub struct PartitionedStream<'a> {
        prod: &'a KroneckerProduct<'a>,
        /// All effective `A`-entries `(i, j)` (including the diagonal under
        /// `FactorA` mode), in a fixed order.
        a_entries: Vec<(Ix, Ix)>,
        /// All CSR entries of `B` in iteration order — indexable, so pages
        /// can start mid-entry without rescanning the CSR.
        b_entries: Vec<(Ix, Ix)>,
        /// Canonical (`k < l`) `B`-entries, the ones a diagonal `A`-entry
        /// materialises after the `p < q` filter.
        b_canonical: Vec<(Ix, Ix)>,
        num_parts: usize,
    }

    impl<'a> PartitionedStream<'a> {
        pub fn new(prod: &'a KroneckerProduct<'a>, num_parts: usize) -> Self {
            assert!(num_parts >= 1, "need at least one partition");
            let mut a_entries: Vec<(Ix, Ix)> = prod
                .factor_a()
                .adjacency()
                .iter()
                .filter(|&(i, j, _)| i < j)
                .map(|(i, j, _)| (i, j))
                .collect();
            if prod.mode() == SelfLoopMode::FactorA {
                a_entries.extend((0..prod.factor_a().num_vertices()).map(|i| (i, i)));
            }
            let b_entries: Vec<(Ix, Ix)> = prod
                .factor_b()
                .adjacency()
                .iter()
                .map(|(k, l, _)| (k, l))
                .collect();
            let b_canonical: Vec<(Ix, Ix)> =
                b_entries.iter().copied().filter(|&(k, l)| k < l).collect();
            PartitionedStream {
                prod,
                a_entries,
                b_entries,
                b_canonical,
                num_parts,
            }
        }

        fn slice(&self, part: usize) -> &[(Ix, Ix)] {
            let (lo, hi) =
                bikron::core::partition::block_range(self.a_entries.len(), self.num_parts, part);
            &self.a_entries[lo..hi]
        }

        pub fn part_len(&self, part: usize) -> u64 {
            self.slice(part)
                .iter()
                .map(|&(i, j)| {
                    if i < j {
                        self.b_entries.len() as u64
                    } else {
                        self.b_canonical.len() as u64
                    }
                })
                .sum()
        }

        pub fn edges_page(&self, part: usize, offset: u64, limit: usize) -> Vec<(Ix, Ix)> {
            let ix = self.prod.indexer();
            let mut out = Vec::with_capacity(limit.min(self.b_entries.len().max(16)));
            let mut skip = offset;
            for &(i, j) in self.slice(part) {
                if out.len() >= limit {
                    break;
                }
                let list: &[(Ix, Ix)] = if i < j {
                    &self.b_entries
                } else {
                    &self.b_canonical
                };
                let n = list.len() as u64;
                if skip >= n {
                    skip -= n;
                    continue;
                }
                for &(k, l) in &list[skip as usize..] {
                    if out.len() >= limit {
                        break;
                    }
                    out.push((ix.gamma(i, k), ix.gamma(j, l)));
                }
                skip = 0;
            }
            out
        }
    }
}

/// Random simple loop-free graph on `n ∈ [1, 6]` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=2 * n).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

fn arb_mode() -> impl Strategy<Value = SelfLoopMode> {
    prop_oneof![Just(SelfLoopMode::None), Just(SelfLoopMode::FactorA)]
}

/// A directory of its own under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bikron_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chain_stream_pages_equal_the_pair_stream(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
        parts in 1usize..=7,
        offset in 0u64..40,
        limit in 0usize..=40,
    ) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let old = reference::PartitionedStream::new(&prod, parts);
        let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
        let chain = KronChain::new(bindings, &pair_levels(mode)).unwrap();
        let new = EdgeStream::new(&chain, parts);
        for part in 0..parts {
            let len = old.part_len(part);
            prop_assert_eq!(new.part_len(part), len, "part {}", part);
            prop_assert_eq!(
                new.edges_page(part, offset, limit),
                old.edges_page(part, offset, limit),
                "part {} offset {} limit {}", part, offset, limit
            );
            let whole = len as usize + 1;
            prop_assert_eq!(new.edges_page(part, 0, whole), old.edges_page(part, 0, whole));
        }
    }

    #[test]
    fn generated_files_equal_the_pair_streams_lines(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
        parts in 1usize..=7,
    ) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let sa = FactorStats::compute(&a).unwrap();
        let sb = FactorStats::compute(&b).unwrap();
        let old = reference::PartitionedStream::new(&prod, parts);
        let dir = TempDir::new("stream_reference");
        let prefix = dir.0.join("prod").display().to_string();
        for annotate in [false, true] {
            let mut log = Vec::new();
            bikron_cli::commands::generate(&a, &b, mode, parts, &prefix, annotate, &mut log)
                .unwrap();
            for part in 0..parts {
                let ext = if annotate { "tsv" } else { "el" };
                let file = std::fs::read_to_string(format!("{prefix}.part{part}.{ext}")).unwrap();
                let mut expect = String::new();
                for (p, q) in old.edges_page(part, 0, old.part_len(part) as usize) {
                    if annotate {
                        let s = edge_squares_at(&prod, &sa, &sb, p, q).unwrap();
                        let (dp, dq) = (prod.degree(p), prod.degree(q));
                        expect.push_str(&format!("{p}\t{q}\t{dp}\t{dq}\t{s}\n"));
                    } else {
                        expect.push_str(&format!("{p} {q}\n"));
                    }
                }
                prop_assert_eq!(file, expect, "part {} annotate {}", part, annotate);
            }
        }
    }
}
