//! Property tests for the extended ground-truth surfaces: distances,
//! triangles, degree histograms, component counts, streaming partitions
//! and the chain evaluator's per-vertex and per-edge counts — all against
//! direct computation on materialised products, with proptest shrinking.

use std::collections::BTreeMap;

use bikron::analytics::triangles::triangles_per_vertex;
use bikron::core::stream::EdgeStream;
use bikron::core::truth::degrees::{degree_histogram, max_degree};
use bikron::core::truth::distance::{diameter, hops_at, ParityTables};
use bikron::core::truth::triangles::vertex_triangles;
use bikron::core::truth::FactorStats;
use bikron::core::{pair_levels, predict_structure, KronChain, KroneckerProduct, SelfLoopMode};
use bikron::graph::traversal::bfs_distances;
use bikron::graph::{connected_components, Graph};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=n * 2).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

/// The two-factor product as the chain that serves it.
fn pair(a: &Graph, b: &Graph, mode: SelfLoopMode) -> KronChain {
    let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
    KronChain::new(bindings, &pair_levels(mode)).unwrap()
}

fn arb_mode() -> impl Strategy<Value = SelfLoopMode> {
    prop_oneof![Just(SelfLoopMode::None), Just(SelfLoopMode::FactorA)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hop_distances_match_bfs(a in arb_graph(6), b in arb_graph(6), mode in arb_mode()) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let ta = ParityTables::compute(&a);
        let tb = ParityTables::compute(&b);
        let g = prod.materialize();
        let sources = [0, prod.num_vertices() / 2];
        for &p in &sources {
            let direct = bfs_distances(&g, p);
            for (q, &dq) in direct.iter().enumerate() {
                prop_assert_eq!(hops_at(&prod, &ta, &tb, p, q), dq);
            }
        }
    }

    #[test]
    fn diameter_matches_bfs(a in arb_graph(5), b in arb_graph(5), mode in arb_mode()) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let ta = ParityTables::compute(&a);
        let tb = ParityTables::compute(&b);
        let g = prod.materialize();
        prop_assert_eq!(diameter(&prod, &ta, &tb), bikron::graph::diameter(&g));
    }

    #[test]
    fn triangles_match_direct(a in arb_graph(6), b in arb_graph(6), mode in arb_mode()) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let g = prod.materialize();
        prop_assert_eq!(vertex_triangles(&prod).unwrap(), triangles_per_vertex(&g));
    }

    #[test]
    fn degree_histogram_matches(a in arb_graph(7), b in arb_graph(7), mode in arb_mode()) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let g = prod.materialize();
        let truth = degree_histogram(&prod);
        let mut direct: BTreeMap<u64, u64> = BTreeMap::new();
        for v in 0..g.num_vertices() {
            *direct.entry(g.degree(v) as u64).or_insert(0) += 1;
        }
        prop_assert_eq!(truth, direct);
        prop_assert_eq!(max_degree(&prod), g.max_degree() as u64);
    }

    #[test]
    fn component_count_exact(a in arb_graph(6), b in arb_graph(6), mode in arb_mode()) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let pred = predict_structure(&prod);
        let real = connected_components(&prod.materialize()).count;
        prop_assert_eq!(pred.num_components, Some(real));
    }

    #[test]
    fn stream_partitions_cover_exactly(
        a in arb_graph(5),
        b in arb_graph(5),
        mode in arb_mode(),
        parts in 1usize..=5,
    ) {
        let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
        let chain = pair(&a, &b, mode);
        let stream = EdgeStream::new(&chain, parts);
        let mut all: Vec<(usize, usize)> = Vec::new();
        for part in 0..parts {
            all.extend(stream.edges(part));
        }
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        prop_assert_eq!(all.len(), before, "duplicate edges across partitions");
        let mut expected: Vec<(usize, usize)> = prod.edges().collect();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    #[test]
    fn chain_truth_matches_product_stats(a in arb_graph(5), b in arb_graph(5)) {
        let chain = pair(&a, &b, SelfLoopMode::None);
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::None).unwrap();
        let direct = FactorStats::compute(&prod.materialize()).unwrap();
        for p in 0..chain.num_vertices() {
            let v = chain.vertex_at(p);
            prop_assert_eq!(i128::from(v.squares), direct.squares[p]);
            prop_assert_eq!(i128::from(v.degree), direct.degrees[p]);
            for q in 0..chain.num_vertices() {
                let expect = direct.edge_squares.get(p, q).map(|s| s as u64);
                prop_assert_eq!(chain.edge_squares_at(p, q), expect, "({}, {})", p, q);
            }
        }
    }
}
