//! Graph and [`FactorStats`] codecs for the `bikron-snap/1` snapshot format.
//!
//! Layered on the byte primitives in [`bikron_sparse::snap`]. Decoding is
//! paranoid by design: a graph must store exactly 1 at every entry (the
//! value the writer emits) and is rebuilt through [`Graph::from_adjacency`]
//! (square + symmetric re-validation), and every CSR goes through
//! `Csr::from_parts`, so bytes that pass the section checksum but encode an
//! inconsistent structure still fail with a named [`SnapError`] instead of
//! corrupting ground-truth answers after a warm boot.

use crate::truth::FactorStats;
use bikron_graph::Graph;
use bikron_sparse::snap::{
    put_csr_i128, put_csr_u64, put_i128_slice, read_csr_i128, read_csr_u64, ByteReader, SnapError,
};

/// Append a graph as its adjacency CSR, with a 1 at every stored entry.
pub fn put_graph(buf: &mut Vec<u8>, g: &Graph) {
    put_csr_u64(buf, &g.adjacency().map(|()| 1));
}

/// Decode a graph, rejecting any stored value other than 1 and
/// re-validating squareness and symmetry.
pub fn read_graph(r: &mut ByteReader<'_>, what: &'static str) -> Result<Graph, SnapError> {
    let adj = read_csr_u64(r, what)?;
    if let Some(v) = adj.values().iter().find(|&&v| v != 1) {
        return Err(SnapError::Malformed(format!(
            "{what}: adjacency value {v}, expected 1"
        )));
    }
    Graph::from_adjacency(adj)
        .map_err(|e| SnapError::Malformed(format!("{what}: invalid graph: {e}")))
}

/// Append a full [`FactorStats`] block: five per-vertex vectors then the
/// three edge-indexed CSRs, in declaration order.
pub fn put_factor_stats(buf: &mut Vec<u8>, s: &FactorStats) {
    put_i128_slice(buf, &s.degrees);
    put_i128_slice(buf, &s.w2);
    put_i128_slice(buf, &s.diag_a3);
    put_i128_slice(buf, &s.diag_a4);
    put_i128_slice(buf, &s.squares);
    put_csr_i128(buf, &s.edge_w3);
    put_csr_i128(buf, &s.edge_w2);
    put_csr_i128(buf, &s.edge_squares);
}

/// Decode a [`FactorStats`] block and check the vectors agree on the order.
pub fn read_factor_stats(
    r: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<FactorStats, SnapError> {
    let degrees = r.i128_slice(what)?;
    let w2 = r.i128_slice(what)?;
    let diag_a3 = r.i128_slice(what)?;
    let diag_a4 = r.i128_slice(what)?;
    let squares = r.i128_slice(what)?;
    let edge_w3 = read_csr_i128(r, what)?;
    let edge_w2 = read_csr_i128(r, what)?;
    let edge_squares = read_csr_i128(r, what)?;
    let n = degrees.len();
    if w2.len() != n || diag_a3.len() != n || diag_a4.len() != n || squares.len() != n {
        return Err(SnapError::Malformed(format!(
            "{what}: per-vertex statistic vectors disagree on the factor order"
        )));
    }
    if edge_w3.nrows() != n || edge_squares.nrows() != n {
        return Err(SnapError::Malformed(format!(
            "{what}: edge statistic matrices disagree with the factor order {n}"
        )));
    }
    Ok(FactorStats {
        degrees,
        w2,
        diag_a3,
        diag_a4,
        squares,
        edge_w3,
        edge_w2,
        edge_squares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn kmn(m: usize, n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..m {
            for v in 0..n {
                edges.push((u, m + v));
            }
        }
        Graph::from_edges(m + n, &edges).unwrap()
    }

    #[test]
    fn graph_round_trips() {
        let g = cycle(5);
        let mut buf = Vec::new();
        put_graph(&mut buf, &g);
        let mut r = ByteReader::new(&buf);
        let back = read_graph(&mut r, "g").unwrap();
        assert_eq!(g, back);
        assert!(r.is_empty());
    }

    /// `put_graph` bytes as little-endian words: `nrows`, `ncols`, the
    /// length-prefixed `row_ptr` and `col_idx`, then the length-prefixed
    /// values, which are all 1.
    fn graph_words(g: &Graph) -> Vec<u64> {
        let mut buf = Vec::new();
        put_graph(&mut buf, g);
        assert_eq!(buf.len() % 8, 0);
        buf.chunks(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn graph_bytes_are_pinned() {
        // Words captured from the writer before `Graph` became a pattern:
        // the encoding (a 1 at every entry) must not move.
        #[rustfmt::skip]
        let cases: [(Graph, Vec<u64>); 3] = [
            (cycle(5), vec![
                5, 5,
                6, 0, 2, 4, 6, 8, 10,
                10, 1, 4, 0, 2, 1, 3, 2, 4, 0, 3,
                10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            ]),
            (cycle(5).with_full_self_loops(), vec![
                5, 5,
                6, 0, 3, 6, 9, 12, 15,
                15, 0, 1, 4, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 3, 4,
                15, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            ]),
            (bikron_generators::complete_bipartite(2, 3), vec![
                5, 5,
                6, 0, 3, 6, 8, 10, 12,
                12, 2, 3, 4, 2, 3, 4, 0, 1, 0, 1, 0, 1,
                12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            ]),
        ];
        for (g, words) in cases {
            assert_eq!(graph_words(&g), words);
        }
    }

    #[test]
    fn factor_stats_round_trip_byte_identically() {
        let g = kmn(2, 3);
        let s = FactorStats::compute(&g).unwrap();
        let mut buf = Vec::new();
        put_factor_stats(&mut buf, &s);
        let mut r = ByteReader::new(&buf);
        let back = read_factor_stats(&mut r, "s").unwrap();
        assert_eq!(s, back);
        assert!(r.is_empty());

        // Re-encoding the decoded value reproduces the exact bytes.
        let mut buf2 = Vec::new();
        put_factor_stats(&mut buf2, &back);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn asymmetric_adjacency_is_rejected() {
        use bikron_sparse::snap::{put_u64, put_usize_slice};
        // 2×2 with a single directed edge 0→1: passes CSR validation but
        // must fail Graph::from_adjacency's symmetry check.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        put_u64(&mut buf, 2);
        put_usize_slice(&mut buf, &[0, 1, 1]);
        put_usize_slice(&mut buf, &[1]);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            read_graph(&mut r, "g"),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn stats_truncations_never_panic() {
        let g = cycle(4);
        let s = FactorStats::compute(&g).unwrap();
        let mut buf = Vec::new();
        put_factor_stats(&mut buf, &s);
        for cut in (0..buf.len()).step_by(7) {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(read_factor_stats(&mut r, "s").is_err());
        }
    }
}
