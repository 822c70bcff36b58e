//! Every materialiser in `bikron-core` folds `Graph::kron`, which skips
//! re-validation. These tests hold each one to the checked path
//! (`bikron_sparse::kron` then `Graph::from_adjacency`) and to the
//! closed-form degrees the product and chain report without
//! materialising.

use bikron_core::{KronChain, KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, cycle, path, star};
use bikron_graph::Graph;
use bikron_sparse::semiring::Times;
use bikron_sparse::{kron, Csr};
use proptest::prelude::*;

/// The product of `levels` over their numeric ones, through the checked
/// constructor.
fn checked(levels: &[Graph]) -> Graph {
    let ones = |g: &Graph| g.adjacency().map(|()| 1u64);
    let adj = levels[1..]
        .iter()
        .fold(ones(&levels[0]), |acc: Csr<u64>, g| {
            kron(&Times, &acc, &ones(g)).unwrap()
        });
    Graph::from_adjacency(adj).expect("product of symmetric factors")
}

/// Random simple loop-free graph on `n ∈ [1, 5]` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=5).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=2 * n).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

fn bind(graphs: &[(&str, &Graph)]) -> Vec<(String, Graph)> {
    graphs
        .iter()
        .map(|(n, g)| (n.to_string(), (*g).clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn product_matches_checked_path(a in arb_graph(), b in arb_graph()) {
        for mode in [SelfLoopMode::None, SelfLoopMode::FactorA] {
            let prod = KroneckerProduct::new(&a, &b, mode).unwrap();
            let g = prod.materialize();
            let eff_a = match mode {
                SelfLoopMode::None => a.clone(),
                SelfLoopMode::FactorA => a.with_full_self_loops(),
            };
            prop_assert_eq!(&prod.effective_a(), eff_a.adjacency());
            prop_assert_eq!(&g, &checked(&[eff_a, b.clone()]));
            prop_assert!(g.has_no_self_loops());
            for p in 0..g.num_vertices() {
                prop_assert_eq!(g.degree(p) as u64, prod.degree(p));
            }
        }
    }

    #[test]
    fn three_level_chain_matches_checked_path(
        a in arb_graph(),
        b in arb_graph(),
        c in arb_graph(),
        lift in 0usize..3,
    ) {
        let spec: Vec<(String, bool)> = ["A", "B", "C"]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i == lift))
            .collect();
        let chain = KronChain::new(bind(&[("A", &a), ("B", &b), ("C", &c)]), &spec).unwrap();
        let g = chain.materialize();
        let levels: Vec<Graph> = [&a, &b, &c]
            .iter()
            .enumerate()
            .map(|(i, g)| if i == lift { g.with_full_self_loops() } else { (*g).clone() })
            .collect();
        prop_assert_eq!(&g, &checked(&levels));
        prop_assert!(g.has_no_self_loops());
        prop_assert_eq!(g.num_edges() as u64, chain.num_edges());
        for p in 0..g.num_vertices() {
            prop_assert_eq!(g.degree(p) as u64, chain.degree(p));
        }
    }
}

#[test]
fn power_tower_matches_checked_path_and_composed_degrees() {
    for (seed, k) in [(cycle(3), 3), (path(3), 4), (star(3), 2)] {
        let tower = vec![("S".to_string(), false); k];
        let power = KronChain::new(bind(&[("S", &seed)]), &tower).unwrap();
        let g = power.materialize();
        assert_eq!(g, checked(&vec![seed.clone(); k]));
        assert_eq!(g.num_edges() as u64, power.num_edges());
        assert_eq!(power.num_vertices(), g.num_vertices());
        for p in 0..g.num_vertices() {
            assert_eq!(
                g.degree(p) as u64,
                power.degree(p),
                "degree at {p} of seed^{k}"
            );
        }
    }
}

#[test]
fn lifted_first_level_chain_equals_the_pair_product() {
    let (a, b) = (cycle(5), complete_bipartite(2, 3));
    let spec = vec![("A".to_string(), true), ("B".to_string(), false)];
    let chain = KronChain::new(bind(&[("A", &a), ("B", &b)]), &spec).unwrap();
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
    assert_eq!(chain.materialize(), prod.materialize());
}
