//! Simulated distributed generation at Table-I scale: N ranks each stream
//! their partition of `C = (A+I) ⊗ A` with per-edge ground truth computed
//! in flight, then tree-reduce. The reduced aggregate must equal the
//! closed-form ground truth bit-for-bit — validating the *pipeline*
//! (partitioning, local counting, reduction), which is how the paper's
//! lineage validated trillion-edge runs.
//!
//! Run with: `cargo run --release --example distributed_generation`

use std::time::Instant;

use bikron::core::truth::squares_vertex::global_squares_with;
use bikron::core::truth::FactorStats;
use bikron::core::{KronChain, KroneckerProduct, SelfLoopMode};
use bikron::distsim::distributed_generate;
use bikron::generators::unicode_like::unicode_like;

fn main() {
    let a = unicode_like();
    let prod = KroneckerProduct::new(&a, &a, SelfLoopMode::FactorA).expect("valid factors");
    let sa = FactorStats::compute(&a).expect("stats");
    let sb = sa.clone();
    let tower = [("A".to_string(), true), ("A".to_string(), false)];
    let chain = KronChain::new(vec![("A".to_string(), a.clone())], &tower).expect("valid program");
    println!(
        "product {}: {} vertices, {} edges — streamed, never stored",
        chain.canonical(),
        chain.num_vertices(),
        chain.num_edges()
    );

    for ranks in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let reduced = distributed_generate(&chain, ranks);
        let dt = t.elapsed();
        assert_eq!(reduced.edges, prod.num_edges());
        let global = global_squares_with(&prod, &sa, &sb).expect("closed form");
        assert_eq!(reduced.square_mass, 4 * global, "Σ◇ must equal 4·global");
        println!(
            "{ranks:>2} ranks: {} edges generated+annotated+reduced in {dt:?} \
             (square mass {} = 4 x {global})",
            reduced.edges, reduced.square_mass
        );
    }
    println!("\nreduction agrees with closed-form ground truth at every rank count.");
}
