//! Integration test for the observability contract of
//! [`bikron_distsim::distributed_generate`]: after a run, the global
//! metrics registry holds one `distsim.rank{r}.edges` /
//! `distsim.rank{r}.square_mass` counter pair per rank, and their sums
//! equal the closed-form edge count and `4 × global 4-cycles` — the same
//! cross-check `perf_report` bakes into `BENCH_kron.json`.
//!
//! This lives in its own integration-test binary (own process) so the
//! global registry is not shared with unrelated unit tests, and it is a
//! single `#[test]` so no sibling test races the snapshot.

use bikron_core::truth::squares_vertex::global_squares_with;
use bikron_core::truth::walks::FactorStats;
use bikron_core::{pair_levels, KronChain, KroneckerProduct, SelfLoopMode};
use bikron_generators::{complete_bipartite, crown};

#[test]
fn per_rank_counters_sum_to_closed_form() {
    let a = crown(4);
    let b = complete_bipartite(2, 3);
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
    let sa = FactorStats::compute(&a).unwrap();
    let sb = FactorStats::compute(&b).unwrap();
    let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
    let chain = KronChain::new(bindings, &pair_levels(SelfLoopMode::FactorA)).unwrap();

    let num_ranks = 4;
    let obs = bikron_obs::global();
    obs.reset();
    let reduced = bikron_distsim::distributed_generate(&chain, num_ranks);

    let report = obs.snapshot();
    let rank_counter = |name: String| {
        report
            .counter(&name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };

    // Per-rank edge counters exist and sum to the closed-form edge count.
    let edge_sum: u64 = (0..num_ranks)
        .map(|r| rank_counter(format!("distsim.rank{r}.edges")))
        .sum();
    assert_eq!(edge_sum, prod.num_edges());
    assert_eq!(edge_sum, reduced.edges);

    // Per-rank square-mass counters sum to 4 × the closed-form global
    // 4-cycle count (each 4-cycle contributes to 4 of its edges).
    let mass_sum: u64 = (0..num_ranks)
        .map(|r| rank_counter(format!("distsim.rank{r}.square_mass")))
        .sum();
    let global = global_squares_with(&prod, &sa, &sb).unwrap();
    assert_eq!(mass_sum, 4 * global);
    assert_eq!(mass_sum, reduced.square_mass);

    // No phantom ranks: exactly `num_ranks` per-rank edge counters.
    let rank_counters = report
        .counters()
        .filter(|(name, _)| name.starts_with("distsim.rank") && name.ends_with(".edges"))
        .count();
    assert_eq!(rank_counters, num_ranks);

    // The rank gauge recorded the fleet size, and the phase timers fired.
    assert_eq!(
        report.gauge("distsim.ranks"),
        Some((num_ranks as u64, num_ranks as u64))
    );
    assert_eq!(report.timer("distsim.run").map(|t| t.count), Some(1));
    assert_eq!(
        report.timer("distsim.generate").map(|t| t.count),
        Some(num_ranks as u64)
    );

    // Per-rank distribution histograms: one sample per rank, and their
    // sums agree with the counter cross-checks above.
    let h_edges = report
        .histogram("distsim.rank_edges")
        .expect("rank edge histogram");
    assert_eq!(h_edges.count, num_ranks as u64);
    assert_eq!(h_edges.sum, edge_sum);
    let h_mass = report
        .histogram("distsim.rank_square_mass")
        .expect("rank square-mass histogram");
    assert_eq!(h_mass.count, num_ranks as u64);
    assert_eq!(h_mass.sum, mass_sum);

    // Load imbalance gauge: max/mean of rank square mass in percent —
    // at least 100 by construction, and exactly max·ranks·100/total.
    let (imbalance, _) = report
        .gauge("distsim.load_imbalance")
        .expect("load imbalance gauge");
    assert!(imbalance >= 100, "max/mean is at least 1: {imbalance}");
    assert_eq!(imbalance, h_mass.max * 100 / (mass_sum / num_ranks as u64));
}
