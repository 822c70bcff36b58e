#![warn(missing_docs)]

//! # bikron-distsim
//!
//! A shared-memory **simulation of the distributed deployment** the paper
//! targets (its conclusion: "implement this style of generator in a
//! distributed version of GraphBLAS, including using the ground truth
//! formulas derived here to compute ground truth values during
//! generation"; its lineage: the trillion-edge validation runs of \[13\]).
//!
//! The simulation spawns one OS thread per "rank". Each rank:
//!
//! 1. receives the (tiny) factor graphs — in a real deployment these are
//!    broadcast once; product-sized data never moves;
//! 2. streams **its own partition** of the product's edges
//!    ([`bikron_core::stream::EdgeStream`] over any [`KronChain`]
//!    program), accumulating local statistics (edge count, 4-cycle
//!    edge-participation mass, degree histogram contributions);
//! 3. participates in a binary-tree reduction over crossbeam channels.
//!
//! The root's reduced statistics are then asserted against the
//! closed-form ground truth — byte-exact, which is the whole point: the
//! generator validates the *distributed pipeline itself* (partitioning,
//! local counting, reduction), exactly how \[13\] validated a quadrillion
//! triangles.

use std::collections::BTreeMap;
use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};

use bikron_core::stream::EdgeStream;
use bikron_core::KronChain;

/// Statistics a rank accumulates over its partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Edges generated by this rank.
    pub edges: u64,
    /// `Σ ◇_e` over the rank's edges (`= 4·global` after reduction).
    pub square_mass: u64,
    /// Partial degree histogram: endpoint degrees of generated edges,
    /// each endpoint counted once per incident generated edge.
    pub endpoint_degree_hist: BTreeMap<u64, u64>,
}

impl RankStats {
    /// Merge another rank's statistics (the reduction operator —
    /// associative and commutative, as a tree reduction requires).
    pub fn merge(&mut self, other: RankStats) {
        self.edges += other.edges;
        self.square_mass += other.square_mass;
        for (d, c) in other.endpoint_degree_hist {
            *self.endpoint_degree_hist.entry(d).or_insert(0) += c;
        }
    }
}

/// Run the simulated distributed generation over `num_ranks` threads and
/// return the tree-reduced statistics.
///
/// Panics if a worker thread panics (a failed rank fails the job, as in
/// any bulk-synchronous run).
pub fn distributed_generate(chain: &KronChain, num_ranks: usize) -> RankStats {
    assert!(num_ranks >= 1);
    let obs = bikron_obs::global();
    let _phase = obs.phase("distsim.run");
    obs.gauge("distsim.ranks").set(num_ranks as u64);
    let stream = EdgeStream::new(chain, num_ranks);

    // Tree reduction: rank r receives from children 2r+1, 2r+2 (when they
    // exist), merges, and sends to its parent. Channels are created
    // up-front; rank 0's "parent" is the caller.
    let mut senders: Vec<Option<Sender<RankStats>>> = Vec::with_capacity(num_ranks);
    let mut receivers: Vec<Option<Receiver<RankStats>>> = Vec::with_capacity(num_ranks);
    for _ in 0..num_ranks {
        let (s, r) = bounded::<RankStats>(1);
        senders.push(Some(s));
        receivers.push(Some(r));
    }
    let (root_tx, root_rx) = bounded::<RankStats>(1);
    // Run-local square-mass histogram (one sample per rank) for the
    // load-imbalance gauge — the global distsim.rank_square_mass
    // histogram accumulates across runs, so the gauge needs its own.
    let run_masses = bikron_obs::Histogram::new();

    thread::scope(|scope| {
        // Distribute child receivers to their parents.
        let mut child_rx: Vec<Vec<Receiver<RankStats>>> =
            (0..num_ranks).map(|_| Vec::new()).collect();
        for r in (1..num_ranks).rev() {
            let parent = (r - 1) / 2;
            child_rx[parent].push(receivers[r].take().expect("unclaimed child receiver"));
        }
        for rank in (0..num_ranks).rev() {
            let my_children = std::mem::take(&mut child_rx[rank]);
            let my_parent_tx = if rank == 0 {
                root_tx.clone()
            } else {
                senders[rank].take().expect("unclaimed sender").clone()
            };
            let stream = &stream;
            let run_masses = &run_masses;
            scope.spawn(move || {
                let obs = bikron_obs::global();
                // Local generation with in-flight ground truth.
                let mut local = RankStats::default();
                obs.time("distsim.generate", || {
                    for (_, _, e) in stream.annotated_edges(rank) {
                        local.edges += 1;
                        local.square_mass += e.squares.expect("streamed pairs are edges");
                        *local.endpoint_degree_hist.entry(e.degree_p).or_insert(0) += 1;
                        *local.endpoint_degree_hist.entry(e.degree_q).or_insert(0) += 1;
                    }
                });
                // Per-rank counters: one flush after local generation, so
                // a report can cross-check Σ_r edges against the closed
                // form (and square mass against 4·global).
                obs.counter(&format!("distsim.rank{rank}.edges"))
                    .add(local.edges);
                obs.counter(&format!("distsim.rank{rank}.square_mass"))
                    .add(local.square_mass);
                // And the distribution view: one histogram sample per
                // rank, so skew across ranks shows up as p50-vs-max
                // spread instead of requiring N per-rank counters to be
                // eyeballed.
                obs.histogram("distsim.rank_edges").record(local.edges);
                obs.histogram("distsim.rank_square_mass")
                    .record(local.square_mass);
                run_masses.record(local.square_mass);
                // Reduce children, then forward. The timer's max over all
                // ranks is the critical-path latency of the tree reduction
                // (waiting on slow children included).
                let _reduce = obs.phase("distsim.reduce");
                for rx in my_children {
                    local.merge(rx.recv().expect("child rank completed"));
                }
                my_parent_tx
                    .send(local)
                    .expect("parent alive until reduction completes");
            });
        }
        drop(root_tx);
    });
    // Load imbalance = max/mean of per-rank square mass, in percent
    // (100 = perfectly balanced; BENCH_kron.json's 4-rank run shows
    // rank 0 at 21× rank 3). Square mass, not edge count, is the
    // metric: annotation work follows squares. Derived from the run's
    // histogram — exact, since it tracks exact sum/count/max — through
    // the same `imbalance_pct` the live router cluster publishes, so
    // simulation and deployment gauges are one implementation.
    let snap = run_masses.snapshot();
    if let Some(pct) = bikron_core::partition::imbalance_pct(snap.max, snap.mean()) {
        obs.gauge("distsim.load_imbalance").set(pct);
    }
    root_rx.recv().expect("root rank reported")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_analytics::butterflies_per_edge;
    use bikron_core::truth::squares_vertex::global_squares_with;
    use bikron_core::truth::walks::FactorStats;
    use bikron_core::{pair_levels, KroneckerProduct, SelfLoopMode};
    use bikron_generators::{complete_bipartite, crown, cycle, path};
    use bikron_graph::Graph;

    fn run(a: &Graph, b: &Graph, mode: SelfLoopMode, ranks: usize) {
        let prod = KroneckerProduct::new(a, b, mode).unwrap();
        let sa = FactorStats::compute(a).unwrap();
        let sb = FactorStats::compute(b).unwrap();
        let bindings = vec![("A".to_string(), a.clone()), ("B".to_string(), b.clone())];
        let chain = KronChain::new(bindings, &pair_levels(mode)).unwrap();
        let reduced = distributed_generate(&chain, ranks);
        // Edge count and square mass match the two-factor closed forms.
        assert_eq!(reduced.edges, prod.num_edges());
        let global = global_squares_with(&prod, &sa, &sb).unwrap();
        assert_eq!(reduced.square_mass, 4 * global, "Σ◇ = 4·global");
        check_census(&reduced, &prod.materialize());
    }

    /// Endpoint histogram mass = 2·|E| and matches the materialised
    /// product's edge-endpoint census; the square mass matches direct
    /// per-edge counting.
    fn check_census(reduced: &RankStats, g: &Graph) {
        let total: u64 = reduced.endpoint_degree_hist.values().sum();
        assert_eq!(total, 2 * g.num_edges() as u64);
        let mut direct: std::collections::BTreeMap<u64, u64> = Default::default();
        for (u, v) in g.edges() {
            *direct.entry(g.degree(u) as u64).or_insert(0) += 1;
            *direct.entry(g.degree(v) as u64).or_insert(0) += 1;
        }
        assert_eq!(reduced.endpoint_degree_hist, direct);
        // And the per-edge annotations were individually right (spot).
        let pe = butterflies_per_edge(g);
        assert_eq!(pe.total(), reduced.square_mass);
    }

    #[test]
    fn three_level_program_reduces_to_its_truth() {
        let bindings = vec![
            ("A".to_string(), path(3)),
            ("B".to_string(), cycle(4)),
            ("C".to_string(), complete_bipartite(1, 2)),
        ];
        let levels = [("A", true), ("B", false), ("C", true)].map(|(n, l)| (n.to_string(), l));
        let chain = KronChain::new(bindings, &levels).unwrap();
        for ranks in [1, 3, 5] {
            let reduced = distributed_generate(&chain, ranks);
            assert_eq!(reduced.edges, chain.num_edges());
            assert_eq!(reduced.square_mass, 4 * chain.global_squares());
            check_census(&reduced, &chain.materialize());
        }
    }

    #[test]
    fn single_rank_baseline() {
        run(&cycle(5), &complete_bipartite(2, 3), SelfLoopMode::None, 1);
    }

    #[test]
    fn multi_rank_tree_reduction() {
        for ranks in [2, 3, 4, 7, 8] {
            run(
                &crown(3),
                &complete_bipartite(2, 3),
                SelfLoopMode::FactorA,
                ranks,
            );
        }
    }

    #[test]
    fn more_ranks_than_work() {
        // Ranks exceeding the number of A-entries get empty partitions.
        run(&path(2), &path(2), SelfLoopMode::None, 16);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |e: u64, m: u64, d: &[(u64, u64)]| RankStats {
            edges: e,
            square_mass: m,
            endpoint_degree_hist: d.iter().copied().collect(),
        };
        let a = mk(1, 4, &[(2, 1)]);
        let b = mk(2, 8, &[(2, 2), (3, 1)]);
        let c = mk(5, 0, &[(1, 4)]);
        let mut ab_c = a.clone();
        ab_c.merge(b.clone());
        ab_c.merge(c.clone());
        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(a.clone());
        c_ba.merge(ba);
        assert_eq!(ab_c, c_ba);
    }
}
