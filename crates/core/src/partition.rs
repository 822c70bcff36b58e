//! Contiguous block partition arithmetic: [`block_range`] splits an
//! index space into `parts` ranks. [`EdgeStream`] tiles a chain's level-0
//! entries with it, so `/v1/edges`, `bikron generate --parts` and
//! `bikron-distsim`'s ranks agree on who owns an edge.
//! [`imbalance_pct`] is the one load-imbalance definition behind
//! distsim's per-rank gauge and the router's per-replica one.
//!
//! The scheme is the `div_ceil` block partition: with `n` items and
//! `parts` ranks, every rank owns `per = ceil(n / parts)` consecutive
//! indices (the last rank owns the remainder; trailing ranks may be
//! empty when `parts` does not divide `n`). Blocks tile `0..n` exactly:
//! disjoint, complete, and in index order.
//!
//! [`EdgeStream`]: crate::stream::EdgeStream

/// Half-open index range `[lo, hi)` owned by `part` of `parts` over an
/// `n`-item space. Ranges tile `0..n`: `block_range(n, parts, 0)`
/// through `block_range(n, parts, parts - 1)` are disjoint, contiguous,
/// and cover every index exactly once.
///
/// # Panics
///
/// Panics when `parts == 0` or `part >= parts` — both are configuration
/// errors, not data errors.
pub fn block_range(n: usize, parts: usize, part: usize) -> (usize, usize) {
    assert!(parts > 0, "partition into zero parts");
    assert!(part < parts, "part {part} out of range for {parts} parts");
    let per = n.div_ceil(parts);
    let lo = (part * per).min(n);
    let hi = ((part + 1) * per).min(n);
    (lo, hi)
}

/// Load imbalance as a percentage: `max * 100 / mean`, where 100 means
/// perfectly balanced and e.g. 250 means the hottest rank carries 2.5×
/// the mean load. `None` when `mean == 0` (no load observed — the gauge
/// is meaningless and callers should skip publishing it). This is the
/// single definition behind both `distsim.load_imbalance` (simulated
/// per-rank square mass) and the router's live `router.load_imbalance`
/// (per-shard request counts).
pub fn imbalance_pct(max: u64, mean: u64) -> Option<u64> {
    if mean == 0 {
        return None;
    }
    Some(max * 100 / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_space() {
        for n in [0usize, 1, 5, 12, 13, 100] {
            for parts in [1usize, 2, 3, 5, 7, 16] {
                let mut seen = 0usize;
                let mut cursor = 0usize;
                for part in 0..parts {
                    let (lo, hi) = block_range(n, parts, part);
                    assert!(lo <= hi, "n={n} parts={parts} part={part}");
                    assert_eq!(lo, cursor, "blocks must be contiguous in order");
                    cursor = hi;
                    seen += hi - lo;
                }
                assert_eq!(cursor, n, "blocks must end at n");
                assert_eq!(seen, n, "blocks must cover every index once");
            }
        }
    }

    #[test]
    fn imbalance_examples() {
        assert_eq!(imbalance_pct(10, 10), Some(100));
        assert_eq!(imbalance_pct(25, 10), Some(250));
        assert_eq!(imbalance_pct(0, 0), None);
        assert_eq!(imbalance_pct(5, 4), Some(125));
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        block_range(10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn part_out_of_range_panics() {
        block_range(10, 3, 3);
    }
}
