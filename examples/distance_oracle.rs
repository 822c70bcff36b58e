//! Distance ground truth: exact hop distances, eccentricities and the
//! diameter of a product, answered from factor-sized state — the "degree,
//! diameter, and eccentricity carry over" claim of §I made concrete, plus
//! the Kronecker-power construction of the prior-work generators.
//!
//! Run with: `cargo run --release --example distance_oracle`

use std::time::Instant;

use bikron::core::{GroundTruth, KronChain, KroneckerProduct, SelfLoopMode};
use bikron::generators::{complete_bipartite, crown, cycle};
use bikron::graph::{diameter as bfs_diameter, Graph};

fn main() {
    // A Thm-2 product big enough that all-pairs BFS starts to hurt.
    let a = crown(6);
    let b = complete_bipartite(4, 7);
    let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).expect("valid factors");
    println!(
        "product: {} vertices, {} edges",
        prod.num_vertices(),
        prod.num_edges()
    );

    let t0 = Instant::now();
    let gt = GroundTruth::new(prod.clone())
        .expect("factor stats")
        .with_distances();
    println!(
        "distance oracle built in {:?} (factor BFS only)",
        t0.elapsed()
    );

    let t1 = Instant::now();
    let diam = gt.diameter().expect("connected by Thm. 2");
    println!("ground-truth diameter: {diam}  ({:?})", t1.elapsed());

    println!(
        "eccentricity of vertex 0: {}; hops(0, last): {}",
        gt.eccentricity(0).unwrap(),
        gt.hops(0, prod.num_vertices() - 1)
    );

    // Verify against all-pairs BFS on the materialised product.
    let t2 = Instant::now();
    let g = prod.materialize();
    let direct = bfs_diameter(&g).expect("connected");
    println!(
        "direct diameter (all-pairs BFS over {} vertices): {direct}  ({:?})",
        g.num_vertices(),
        t2.elapsed()
    );
    assert_eq!(diam, direct);

    // Kronecker powers: the classical construction, as a chain tower.
    let seed = cycle(5); // non-bipartite ⇒ powers stay connected
    let tower = vec![("C".to_string(), false); 3];
    let p3 = KronChain::new(vec![("C".to_string(), seed)], &tower).expect("valid power");
    println!(
        "\n{}: {} vertices, {} edges, {} squares (composed, graph never built)",
        p3.canonical(),
        p3.num_vertices(),
        p3.num_edges(),
        p3.global_squares()
    );
    let direct_graph: Graph = p3.materialize();
    assert_eq!(
        p3.global_squares(),
        bikron::analytics::butterflies_global(&direct_graph)
    );
    println!("verified against direct counting on the materialised power.");
}
