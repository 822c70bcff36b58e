//! `Graph::kron` builds the Kronecker product without re-validating it.
//! These properties pin it to the checked path — `bikron_sparse::kron`
//! over the factors' numeric ones, followed by `Graph::from_adjacency` —
//! on factor pairs with no loops, some loops and a loop at every vertex:
//! same adjacency pattern, every valued entry 1, same loop count.

use bikron_graph::Graph;
use bikron_sparse::semiring::Times;
use bikron_sparse::{kron, Csr};
use proptest::prelude::*;

/// Random graph on `n ∈ [1, 6]` vertices; `(i, i)` pairs become loops, so
/// some draws have loops and some do not.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=2 * n)
            .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
    })
}

/// The three loop structures of one drawn graph: none, as drawn, full.
fn loop_variants(g: &Graph) -> [Graph; 3] {
    [g.without_self_loops(), g.clone(), g.with_full_self_loops()]
}

/// `A ⊗ B` over the factors' `u64` ones.
fn valued_kron(a: &Graph, b: &Graph) -> Csr<u64> {
    let ones = |g: &Graph| g.adjacency().map(|()| 1u64);
    kron(&Times, &ones(a), &ones(b)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kron_matches_the_checked_path(a in arb_graph(), b in arb_graph()) {
        for a in loop_variants(&a) {
            for b in loop_variants(&b) {
                let fast = a.kron(&b);
                let valued = valued_kron(&a, &b);
                prop_assert!(fast.adjacency().same_pattern(&valued));
                prop_assert!(valued.values().iter().all(|&v| v == 1));
                let checked = Graph::from_adjacency(valued).expect("product of symmetric factors");
                prop_assert_eq!(&fast, &checked);
                prop_assert_eq!(
                    fast.num_self_loops(),
                    a.num_self_loops() * b.num_self_loops()
                );
            }
        }
    }
}

#[test]
fn loops_multiply_at_the_extremes() {
    let p3 = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let full = p3.with_full_self_loops();
    assert_eq!(full.kron(&full).num_self_loops(), 9);
    assert!(full.kron(&full).has_full_self_loops());
    assert!(full.kron(&p3).has_no_self_loops());
    assert!(p3.kron(&full).has_no_self_loops());
}
