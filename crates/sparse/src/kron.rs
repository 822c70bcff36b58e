//! The Kronecker product (paper Def. 4) for CSR matrices and dense vectors.
//!
//! For `A (m_A × n_A)` and `B (m_B × n_B)`, the product
//! `(A ⊗ B)_{γ(i,k), γ(j,l)} = A_{ij} · B_{kl}` has `nnz(A)·nnz(B)` entries.
//! The CSR layout of the product is produced directly (no COO detour):
//! product row `p = (i-1)·m_B + k` (zero-based: `i·m_B + k`) is the
//! concatenation over `A`'s row-`i` entries `j` of `B`'s row-`k` entries
//! shifted by `j·n_B`, which is already column-sorted because `A`'s row is
//! sorted. Rows are filled in parallel with rayon. Over `Csr<()>` (a bare
//! pattern) the value array is zero-sized, so the fill writes columns only.
//!
//! The product's arrays are advised onto transparent huge pages before
//! their first write (DESIGN.md §8.3): a Table-I column array is 68 MB,
//! which 4 KiB pages fault in 16,584 times.

use rayon::prelude::*;

use crate::csr::Csr;
use crate::error::SparseResult;
use crate::semiring::{MulOp, SemiringValue};
use crate::Ix;

/// Minimum product-row count before parallel construction pays off.
const PARALLEL_ROW_THRESHOLD: usize = 1024;

/// Rows per fill block: the unit of work scheduling *and* of the
/// `kron.block_fill_ns` histogram — one timestamp pair per block, never
/// per row, so instrumentation stays off the per-entry path.
const FILL_BLOCK_ROWS: usize = 1024;

/// `C = A ⊗ B` with entry combiner `mul` (usually numeric multiplication).
///
/// ```
/// use bikron_sparse::semiring::Times;
/// use bikron_sparse::{kron, Coo, Csr};
///
/// // [1 2] ⊗ [0 1] — nnz multiplies: 2·1 = 2 entries.
/// let a = Csr::from_coo(
///     Coo::from_triplets(1, 2, vec![(0, 0, 1i64), (0, 1, 2)]).unwrap(),
///     |x, _| x, |v| v == 0);
/// let b = Csr::from_coo(
///     Coo::from_triplets(1, 2, vec![(0, 1, 3i64)]).unwrap(),
///     |x, _| x, |v| v == 0);
/// let c = kron(&Times, &a, &b).unwrap();
/// assert_eq!(c.to_dense(), vec![0, 3, 0, 6]);
/// ```
pub fn kron<T, M>(mul: &M, a: &Csr<T>, b: &Csr<T>) -> SparseResult<Csr<T>>
where
    T: SemiringValue,
    M: MulOp<T>,
{
    let (ma, _na) = (a.nrows(), a.ncols());
    let (mb, nb) = (b.nrows(), b.ncols());
    let nrows = ma * mb;
    let ncols = a.ncols() * nb;

    // Metrics are per kernel call only — product rows are tiny (a few
    // entries each), so even per-row atomics would be measurable here.
    let obs = bikron_obs::global();
    let _phase = obs.phase("sparse.kron");
    obs.counter("kron.invocations").inc();
    obs.counter("kron.rows_filled").add(nrows as u64);

    // Row pointer: product row (i,k) has nnz(A row i) * nnz(B row k).
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    advise_huge_pages(row_ptr.spare_capacity_mut());
    row_ptr.push(0usize);
    let mut total = 0usize;
    for i in 0..ma {
        let ai = a.row_nnz(i);
        for k in 0..mb {
            total += ai * b.row_nnz(k);
            row_ptr.push(total);
        }
    }

    let fill_row = |p: usize, cols: &mut [Ix], vals: &mut [T]| {
        let i = p / mb;
        let k = p % mb;
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(k);
        let mut w = 0usize;
        for (&j, &aval) in ac.iter().zip(av) {
            let base = j * nb;
            for (&l, &bval) in bc.iter().zip(bv) {
                cols[w] = base + l;
                vals[w] = mul.mul(aval, bval);
                w += 1;
            }
        }
        debug_assert_eq!(w, cols.len());
    };

    let zero_val = match (a.values().first(), b.values().first()) {
        (Some(&v), _) | (_, Some(&v)) => v,
        _ => {
            // No entries at all: empty product.
            return Csr::from_parts(nrows, ncols, row_ptr, Vec::new(), Vec::new());
        }
    };
    // The allocator serves a large zeroed `vec!` from a fresh mapping it
    // does not write to, so the advice lands before the fill's first write.
    let mut col_idx = vec![0 as Ix; total];
    let mut vals = vec![zero_val; total];
    advise_huge_pages(&mut col_idx);
    advise_huge_pages(&mut vals);
    obs.counter("kron.output_nnz").add(total as u64);
    obs.counter("kron.csr_bytes").add(
        ((nrows + 1) * std::mem::size_of::<usize>()
            + total * (std::mem::size_of::<Ix>() + std::mem::size_of::<T>())) as u64,
    );

    // Fill proceeds in blocks of FILL_BLOCK_ROWS rows; each block's
    // wall-clock lands in the kron.block_fill_ns histogram, whose spread
    // (p50 vs p99) exposes fill-time skew across the product.
    let block_hist = obs.histogram("kron.block_fill_ns");
    let fill_block = |blk: usize, mut ctail: &mut [Ix], mut vtail: &mut [T]| {
        let started = std::time::Instant::now();
        let row_lo = blk * FILL_BLOCK_ROWS;
        let row_hi = (row_lo + FILL_BLOCK_ROWS).min(nrows);
        for p in row_lo..row_hi {
            let len = row_ptr[p + 1] - row_ptr[p];
            let (chead, crest) = ctail.split_at_mut(len);
            let (vhead, vrest) = vtail.split_at_mut(len);
            fill_row(p, chead, vhead);
            ctail = crest;
            vtail = vrest;
        }
        block_hist.record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    };
    let nblocks = nrows.div_ceil(FILL_BLOCK_ROWS);

    if nrows >= PARALLEL_ROW_THRESHOLD {
        obs.gauge("kron.workers")
            .set(rayon::current_num_threads() as u64);
        // Split output buffers into per-block slices for safe parallel
        // fill (rows within a block are split sequentially inside it).
        let mut col_blocks: Vec<&mut [Ix]> = Vec::with_capacity(nblocks);
        let mut val_blocks: Vec<&mut [T]> = Vec::with_capacity(nblocks);
        let (mut ctail, mut vtail): (&mut [Ix], &mut [T]) = (&mut col_idx, &mut vals);
        for blk in 0..nblocks {
            let row_lo = blk * FILL_BLOCK_ROWS;
            let row_hi = (row_lo + FILL_BLOCK_ROWS).min(nrows);
            let len = row_ptr[row_hi] - row_ptr[row_lo];
            let (chead, crest) = ctail.split_at_mut(len);
            let (vhead, vrest) = vtail.split_at_mut(len);
            col_blocks.push(chead);
            val_blocks.push(vhead);
            ctail = crest;
            vtail = vrest;
        }
        col_blocks
            .par_iter_mut()
            .zip(val_blocks.par_iter_mut())
            .enumerate()
            .for_each(|(blk, (cols, vals))| {
                fill_block(blk, std::mem::take(cols), std::mem::take(vals))
            });
    } else {
        let (mut ctail, mut vtail): (&mut [Ix], &mut [T]) = (&mut col_idx, &mut vals);
        for blk in 0..nblocks {
            let row_lo = blk * FILL_BLOCK_ROWS;
            let row_hi = (row_lo + FILL_BLOCK_ROWS).min(nrows);
            let len = row_ptr[row_hi] - row_ptr[row_lo];
            let (chead, crest) = ctail.split_at_mut(len);
            let (vhead, vrest) = vtail.split_at_mut(len);
            fill_block(blk, chead, vhead);
            ctail = crest;
            vtail = vrest;
        }
    }

    Csr::from_parts(nrows, ncols, row_ptr, col_idx, vals)
}

/// Ask the kernel to back `buf` with transparent huge pages
/// (`madvise(MADV_HUGEPAGE)`), so that filling it takes one fault per
/// 2 MiB instead of one per 4 KiB. Only the whole 2 MiB pages inside
/// `buf` are advised, so no other allocation's mapping changes; a buffer
/// that holds none is left alone. The advice changes speed, never bytes,
/// so a refusal is ignored. A no-op off Linux.
fn advise_huge_pages<E>(buf: &mut [E]) {
    #[cfg(target_os = "linux")]
    {
        const HUGE_PAGE: usize = 2 << 20;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            // `madvise(2)` from libc, which std always links on Linux.
            // Declared here to keep the crate free of a `libc` dependency.
            fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
        }
        let start = buf.as_mut_ptr() as usize;
        let lo = start.next_multiple_of(HUGE_PAGE);
        let hi = (start + std::mem::size_of_val(buf)) / HUGE_PAGE * HUGE_PAGE;
        if lo < hi {
            // SAFETY: `lo..hi` lies inside `buf`, which this call borrows
            // mutably; the advice never changes the memory's contents.
            unsafe { madvise(lo as *mut u8, hi - lo, MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = buf;
}

/// Kronecker product of dense vectors: `(x ⊗ y)_{γ(i,k)} = x_i · y_k`.
pub fn kron_vec(x: &[i128], y: &[i128]) -> Vec<i128> {
    let mut out = Vec::with_capacity(x.len() * y.len());
    for &xi in x {
        for &yk in y {
            out.push(xi * yk);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::semiring::Times;

    fn m(nrows: usize, ncols: usize, t: Vec<(usize, usize, i64)>) -> Csr<i64> {
        Csr::from_coo(
            Coo::from_triplets(nrows, ncols, t).unwrap(),
            |a, b| a + b,
            |v| v == 0,
        )
    }

    #[test]
    fn kron_2x2_by_hand() {
        // A = [1 2; 0 3], B = [0 1; 1 0]
        let a = m(2, 2, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
        let b = m(2, 2, vec![(0, 1, 1), (1, 0, 1)]);
        let c = kron(&Times, &a, &b).unwrap();
        c.validate().unwrap();
        assert_eq!(c.nrows(), 4);
        assert_eq!(c.ncols(), 4);
        #[rustfmt::skip]
        let expect = vec![
            0, 1, 0, 2,
            1, 0, 2, 0,
            0, 0, 0, 3,
            0, 0, 3, 0,
        ];
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn kron_rectangular() {
        // (1x2) ⊗ (2x1) = 2x2
        let a = m(1, 2, vec![(0, 0, 2), (0, 1, 3)]);
        let b = m(2, 1, vec![(0, 0, 5), (1, 0, 7)]);
        let c = kron(&Times, &a, &b).unwrap();
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c.to_dense(), vec![10, 15, 14, 21]);
    }

    #[test]
    fn kron_nnz_is_product() {
        let a = m(3, 3, vec![(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]);
        let b = m(2, 2, vec![(0, 1, 1), (1, 0, 1)]);
        let c = kron(&Times, &a, &b).unwrap();
        assert_eq!(c.nnz(), a.nnz() * b.nnz());
    }

    #[test]
    fn kron_with_empty_factor_is_empty() {
        let a = m(2, 2, vec![]);
        let b = m(2, 2, vec![(0, 1, 1)]);
        let c = kron(&Times, &a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 4);
    }

    #[test]
    fn pattern_kron_matches_valued_kron() {
        // Rectangular, one empty operand, and both empty (the early return).
        let rect_a = m(1, 2, vec![(0, 0, 2), (0, 1, 3)]);
        let rect_b = m(3, 2, vec![(0, 1, 5), (2, 0, 7), (2, 1, 1)]);
        let empty = m(2, 3, vec![]);
        let cases = [
            (&rect_a, &rect_b),
            (&rect_b, &rect_a),
            (&empty, &rect_b),
            (&rect_a, &empty),
            (&empty, &empty),
        ];
        for (a, b) in cases {
            let valued = kron(&Times, a, b).unwrap();
            let pattern =
                kron(&Times, &a.clone().into_pattern(), &b.clone().into_pattern()).unwrap();
            pattern.validate().unwrap();
            assert!(pattern.same_pattern(&valued));
            assert_eq!(pattern.nnz(), a.nnz() * b.nnz());
        }
    }

    #[test]
    fn kron_identity_left() {
        let i2 = Csr::<i64>::diagonal(2, 1);
        let b = m(2, 2, vec![(0, 0, 4), (1, 0, 5)]);
        let c = kron(&Times, &i2, &b).unwrap();
        // I ⊗ B = blockdiag(B, B)
        assert_eq!(c.get(0, 0), Some(4));
        assert_eq!(c.get(1, 0), Some(5));
        assert_eq!(c.get(2, 2), Some(4));
        assert_eq!(c.get(3, 2), Some(5));
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn kron_vec_matches_matrix_kron_on_diagonals() {
        let x = vec![1i128, 2, 3];
        let y = vec![10i128, 20];
        let v = kron_vec(&x, &y);
        assert_eq!(v, vec![10, 20, 20, 40, 30, 60]);
    }

    #[test]
    fn skewed_product_above_a_huge_page_matches_a_sequential_reference() {
        // Star(400) ⊗ path(400): the star's hub row holds half of its
        // entries, so the first 400 product rows hold half of the
        // product's 636,804 entries and one worker's first chunk is far
        // costlier than the rest. The 5.1 MB column array holds at least
        // one whole 2 MiB page, so the huge-page advice runs too.
        let n = 400;
        let mut star = Coo::new(n, n);
        let mut path = Coo::new(n, n);
        for v in 1..n {
            star.push_symmetric(0, v, v as i64).unwrap();
            path.push_symmetric(v - 1, v, (2 * v + 1) as i64).unwrap();
        }
        let a = Csr::from_coo(star, |x, y| x + y, |v| v == 0);
        let b = Csr::from_coo(path, |x, y| x + y, |v| v == 0);
        let c = kron(&Times, &a, &b).unwrap();
        assert!(c.nnz() >= 300_000);
        assert!(c.nnz() * std::mem::size_of::<Ix>() > 2 << 20);

        let mut coo = Coo::new(n * n, n * n);
        for (i, j, av) in a.iter() {
            for (k, l, bv) in b.iter() {
                coo.push(i * n + k, j * n + l, av * bv).unwrap();
            }
        }
        let reference = Csr::from_coo(coo, |x, y| x + y, |v| v == 0);
        assert_eq!(c, reference);

        let pattern = kron(&Times, &a.into_pattern(), &b.into_pattern()).unwrap();
        assert_eq!(pattern, reference.into_pattern());
    }

    #[test]
    fn kron_parallel_path_crosses_threshold() {
        // 64-cycle ⊗ 64-cycle: 4096 rows > threshold; spot-check entries.
        let n = 64;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 1i64).unwrap();
            coo.push((i + 1) % n, i, 1i64).unwrap();
        }
        let a = Csr::from_coo(coo, |x, y| x + y, |v| v == 0);
        let c = kron(&Times, &a, &a).unwrap();
        c.validate().unwrap();
        assert_eq!(c.nnz(), a.nnz() * a.nnz());
        // Entry ((i,k),(j,l)) = A_ij * A_kl: check (0*64+0, 1*64+1).
        assert_eq!(c.get(0, 65), Some(1));
        assert_eq!(c.get(0, 64), None); // A_01=1 but A_00=0
    }
}
