//! Property tests for the two paged enumeration APIs the serving layer
//! is built on: [`KroneckerProduct::neighbors_page`] and
//! [`EdgeStream::edges_page`].
//!
//! The invariant under test is the one `bikron-serve` (and any client
//! resuming a paged download) relies on: walking the pages in order, for
//! *any* page size, concatenates to exactly the full sorted enumeration
//! — no element lost at a page boundary, none duplicated, none
//! reordered. The reference enumeration comes from the materialised
//! product, so these double as factor-state-vs-materialised checks.

use bikron_core::stream::EdgeStream;
use bikron_core::{pair_levels, KronChain, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use proptest::prelude::*;

/// Random simple loop-free graph on `n ∈ [2, 7]` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=7).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=(n * (n - 1) / 2).max(1)).prop_map(
            move |pairs| {
                let edges: Vec<(usize, usize)> =
                    pairs.into_iter().filter(|&(u, v)| u != v).collect();
                Graph::from_edges(n, &edges).unwrap()
            },
        )
    })
}

fn arb_mode() -> impl Strategy<Value = SelfLoopMode> {
    prop_oneof![Just(SelfLoopMode::None), Just(SelfLoopMode::FactorA)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pages of any size concatenate to the vertex's full sorted
    /// adjacency row in the materialised product.
    #[test]
    fn neighbors_pages_concatenate_without_gap_or_overlap(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
        limit in 1usize..=9,
    ) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let mat = prod.materialize();
        for p in 0..prod.num_vertices() {
            let mut walked: Vec<usize> = Vec::new();
            let mut offset = 0u64;
            loop {
                let page = prod.neighbors_page(p, offset, limit);
                let len = page.len();
                walked.extend(page);
                offset += len as u64;
                // Short page ⇒ enumeration exhausted; a full page may
                // coincide with the end, caught by the next (empty) page.
                if len < limit {
                    break;
                }
            }
            prop_assert_eq!(&walked[..], mat.neighbors(p), "vertex {}", p);
            // Reading past the end must stay empty, not wrap or repeat.
            prop_assert!(prod.neighbors_page(p, offset, limit).is_empty());
        }
    }

    /// Every partition's pages concatenate to its slice, and the
    /// partitions together cover the materialised edge set exactly once.
    #[test]
    fn edges_pages_partition_the_edge_set(
        a in arb_graph(),
        b in arb_graph(),
        mode in arb_mode(),
        parts in 1usize..=5,
        limit in 1usize..=9,
    ) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
        let chain = KronChain::new(bindings, &pair_levels(mode)).unwrap();
        let stream = EdgeStream::new(&chain, parts);
        let mat = prod.materialize();

        let mut all: Vec<(usize, usize)> = Vec::new();
        for part in 0..parts {
            let expected_len = stream.part_len(part);
            let mut walked: Vec<(usize, usize)> = Vec::new();
            let mut offset = 0u64;
            loop {
                let page = stream.edges_page(part, offset, limit);
                let len = page.len();
                walked.extend(page);
                offset += len as u64;
                if len < limit {
                    break;
                }
            }
            // Pages agree with the one-shot enumeration of the slice…
            prop_assert_eq!(walked.len() as u64, expected_len, "part {}", part);
            let one_shot = stream.edges_page(part, 0, expected_len as usize + 1);
            prop_assert_eq!(&walked, &one_shot, "part {}", part);
            prop_assert!(stream.edges_page(part, offset, limit).is_empty());
            all.extend(walked);
        }

        // …and the union over parts is the materialised edge set, each
        // undirected edge exactly once.
        let mut streamed: Vec<(usize, usize)> =
            all.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        streamed.sort_unstable();
        let mut expected: Vec<(usize, usize)> =
            mat.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        expected.sort_unstable();
        prop_assert_eq!(streamed.len(), all.len(), "duplicate edges across parts");
        prop_assert_eq!(streamed, expected);
    }
}
