//! `kron_table1`: generate the Table-I product in-process, over and over.
//!
//! Set-up is the time to the product's ground truth (factor, factor
//! statistics, global 4-cycle count). Each timed iteration materialises
//! `(A+I)⊗A` and then streams all of its 8,490,560 adjacency entries in
//! parallel; both outputs are checked: the materialised graph's edge count
//! and the stream's entry count against Table I, and the stream against
//! the materialised adjacency by an order-independent checksum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bikron_core::{GroundTruth, KroneckerProduct, SelfLoopMode};
use bikron_generators::unicode_like::unicode_like;
use bikron_graph::Graph;

use crate::truth::{TABLE1_EDGES, TABLE1_SQUARES};

/// Times the set-up is repeated; its median is `setup_s`.
pub const SETUP_REPEATS: usize = 51;

/// What one timed iteration measured.
pub struct Iteration {
    /// `materialize()` wall time.
    pub build: Duration,
    /// `par_for_each_edge` wall time.
    pub stream: Duration,
}

/// Build the factor and compute the product's global 4-cycle count,
/// checking it against Table I. Returns the time taken.
pub fn time_to_ground_truth() -> Result<Duration, String> {
    let started = Instant::now();
    let a = unicode_like();
    let prod = KroneckerProduct::new(&a, &a, SelfLoopMode::FactorA).map_err(|e| e.to_string())?;
    let squares = GroundTruth::new(prod)
        .and_then(|gt| gt.global_squares())
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if squares != TABLE1_SQUARES {
        return Err(format!(
            "global 4-cycles: got {squares}, Table I says {TABLE1_SQUARES}"
        ));
    }
    Ok(elapsed)
}

/// Order-independent fingerprint of one adjacency entry.
fn entry_mix(p: usize, q: usize) -> u64 {
    (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (q as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Count and checksum accumulators, one cache line each, so parallel
/// stream workers rarely share a line.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    count: AtomicU64,
    sum: AtomicU64,
}

/// Entry count and wrapping checksum of a parallel stream of `prod`.
pub fn stream_checksum(prod: &KroneckerProduct<'_>) -> (u64, u64) {
    let slots: Vec<Slot> = (0..64).map(|_| Slot::default()).collect();
    let nb = prod.factor_b().num_vertices();
    prod.par_for_each_edge(|p, q| {
        // Workers stream disjoint rows of A, so keying by A-row keeps
        // them on different lines.
        let slot = &slots[(p / nb) % 64];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(entry_mix(p, q), Ordering::Relaxed);
    });
    slots.iter().fold((0, 0), |(c, s), slot| {
        (
            c + slot.count.load(Ordering::Relaxed),
            s.wrapping_add(slot.sum.load(Ordering::Relaxed)),
        )
    })
}

/// Entry count and checksum of a materialised graph's adjacency.
fn graph_checksum(g: &Graph) -> (u64, u64) {
    (0..g.num_vertices()).fold((0, 0), |(c, s), p| {
        g.neighbors(p).iter().fold((c, s), |(c, s), &q| {
            (c + 1, s.wrapping_add(entry_mix(p, q)))
        })
    })
}

/// One timed iteration: materialise, stream, then check both.
pub fn iterate(prod: &KroneckerProduct<'_>) -> Result<Iteration, String> {
    let t0 = Instant::now();
    let g = prod.materialize();
    let t1 = Instant::now();
    let streamed = stream_checksum(prod);
    let t2 = Instant::now();
    if g.num_edges() as u64 != TABLE1_EDGES {
        return Err(format!(
            "materialised {} edges, Table I says {TABLE1_EDGES}",
            g.num_edges()
        ));
    }
    if streamed.0 != 2 * TABLE1_EDGES {
        return Err(format!(
            "streamed {} entries, expected {}",
            streamed.0,
            2 * TABLE1_EDGES
        ));
    }
    if streamed != graph_checksum(&g) {
        return Err("streamed entries differ from the materialised adjacency".into());
    }
    Ok(Iteration {
        build: t1 - t0,
        stream: t2 - t1,
    })
}
