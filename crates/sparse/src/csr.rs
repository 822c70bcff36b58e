//! Compressed sparse row storage — the workhorse format of the workspace.
//!
//! Invariants (checked by [`Csr::validate`], relied on everywhere):
//! * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone non-decreasing;
//! * within each row, column indices are strictly increasing (no duplicates);
//! * `col_idx.len() == vals.len() == row_ptr[nrows]`.
//!
//! Values are stored explicitly; kernels treat semiring-zero values as
//! absent where masking semantics require it, but construction drops them
//! eagerly whenever the caller provides an `is_zero` predicate.

use crate::coo::Coo;
use crate::error::{SparseError, SparseResult};
use crate::semiring::SemiringValue;
use crate::Ix;

/// A sparse matrix in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    nrows: Ix,
    ncols: Ix,
    row_ptr: Vec<usize>,
    col_idx: Vec<Ix>,
    vals: Vec<T>,
}

impl<T: SemiringValue> Csr<T> {
    /// An empty (all-zero) matrix of the given shape.
    pub fn zero(nrows: Ix, ncols: Ix) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Identity-like diagonal matrix with `value` at each diagonal entry.
    pub fn diagonal(n: Ix, value: T) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![value; n],
        }
    }

    /// Build from raw parts, validating all invariants.
    pub fn from_parts(
        nrows: Ix,
        ncols: Ix,
        row_ptr: Vec<usize>,
        col_idx: Vec<Ix>,
        vals: Vec<T>,
    ) -> SparseResult<Self> {
        let m = Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        };
        m.validate()?;
        Ok(m)
    }

    /// Build from a COO, combining duplicates with `dup` and dropping
    /// entries for which `is_zero` returns true.
    pub fn from_coo(
        coo: Coo<T>,
        mut dup: impl FnMut(T, T) -> T,
        mut is_zero: impl FnMut(T) -> bool,
    ) -> Self {
        let (nrows, ncols, triplets) = coo.compact(&mut dup);
        let mut row_ptr = vec![0usize; nrows + 1];
        let kept: Vec<&(Ix, Ix, T)> = triplets.iter().filter(|(_, _, v)| !is_zero(*v)).collect();
        for (r, _, _) in kept.iter() {
            row_ptr[r + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(kept.len());
        let mut vals = Vec::with_capacity(kept.len());
        for &&(_, c, v) in kept.iter() {
            col_idx.push(c);
            vals.push(v);
        }
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Check the structural invariants.
    pub fn validate(&self) -> SparseResult<()> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(SparseError::Malformed(format!(
                "row_ptr length {} != nrows+1 {}",
                self.row_ptr.len(),
                self.nrows + 1
            )));
        }
        if self.row_ptr[0] != 0 {
            return Err(SparseError::Malformed("row_ptr[0] != 0".into()));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len()
            || self.col_idx.len() != self.vals.len()
        {
            return Err(SparseError::Malformed(
                "row_ptr end / col_idx / vals length mismatch".into(),
            ));
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(SparseError::Malformed(format!(
                    "row_ptr decreases at row {r}"
                )));
            }
            let row = &self.col_idx[lo..hi];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Malformed(format!(
                        "row {r} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= self.ncols {
                    return Err(SparseError::Malformed(format!(
                        "row {r} column {last} >= ncols {}",
                        self.ncols
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> Ix {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> Ix {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[Ix] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The `(columns, values)` slices of row `r`.
    #[inline]
    pub fn row(&self, r: Ix) -> (&[Ix], &[T]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: Ix) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Look up entry `(r, c)` by binary search within the row.
    pub fn get(&self, r: Ix, c: Ix) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|k| vals[k])
    }

    /// Iterate all stored entries as `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Ix, Ix, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Map values (structure preserved). The mapper must not introduce
    /// semiring zeros if downstream masking relies on structural sparsity;
    /// use [`crate::ops::apply`] with a zero predicate for that.
    pub fn map<U: SemiringValue>(&self, mut f: impl FnMut(T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The sparsity pattern alone: `row_ptr` and `col_idx` move into the
    /// result, the values are dropped, and no index array is copied.
    pub fn into_pattern(self) -> Csr<()> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            vals: vec![(); self.col_idx.len()],
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
        }
    }

    /// Structure-only comparison (same pattern, values ignored).
    pub fn same_pattern<U: SemiringValue>(&self, other: &Csr<U>) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Whether the sparsity pattern is symmetric (requires square shape),
    /// in one O(nnz + n) pass.
    ///
    /// Rows are walked in ascending order with one cursor per row: entry
    /// `(r, c)` must meet `(c, r)` as the next unmatched entry of row `c`,
    /// because the entries of row `c` are exactly the rows that store
    /// column `c`, visited here in ascending order. The pattern is
    /// symmetric iff every entry finds its match: `nnz` matches, none past
    /// the end of a row, consume every row exactly, so each stored `(c, r)`
    /// was met by its `(r, c)` too.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut cursor = self.row_ptr[..self.nrows].to_vec();
        for r in 0..self.nrows {
            for &c in &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]] {
                let at = cursor[c];
                if at == self.row_ptr[c + 1] || self.col_idx[at] != r {
                    return false;
                }
                cursor[c] = at + 1;
            }
        }
        true
    }

    /// True if no diagonal entry is stored.
    pub fn has_no_diagonal(&self) -> bool {
        (0..self.nrows.min(self.ncols)).all(|i| self.get(i, i).is_none())
    }

    /// True if every diagonal entry is stored ("full self loops", Def. 6).
    pub fn has_full_diagonal(&self) -> bool {
        (0..self.nrows.min(self.ncols)).all(|i| self.get(i, i).is_some())
    }
}

impl<T: SemiringValue + Default> Csr<T> {
    /// Convert to a dense row-major buffer (small matrices / tests only).
    pub fn to_dense(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            out[r * self.ncols + c] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr<u64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(0usize, 0usize, 1u64), (0, 2, 2), (2, 0, 3), (2, 1, 4)],
        )
        .unwrap();
        Csr::from_coo(coo, |a, b| a + b, |v| v == 0)
    }

    #[test]
    fn from_coo_layout() {
        let m = small();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[1, 2, 3, 4]);
        m.validate().unwrap();
    }

    #[test]
    fn zero_dropping() {
        let coo =
            Coo::from_triplets(2, 2, vec![(0usize, 0usize, 5u64), (0, 1, 0), (1, 1, 0)]).unwrap();
        let m = Csr::from_coo(coo, |a, b| a + b, |v| v == 0);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), Some(5));
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn duplicate_summing_can_cancel() {
        let coo = Coo::from_triplets(1, 1, vec![(0usize, 0usize, 3i64), (0, 0, -3)]).unwrap();
        let m = Csr::from_coo(coo, |a, b| a + b, |v| v == 0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn get_and_row() {
        let m = small();
        assert_eq!(m.get(2, 1), Some(4));
        assert_eq!(m.get(1, 1), None);
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3, 4]);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn diagonal_and_predicates() {
        let i = Csr::<u64>::diagonal(3, 1);
        assert!(i.has_full_diagonal());
        assert!(i.is_pattern_symmetric());
        let m = small();
        assert!(!m.has_no_diagonal()); // (0,0) stored
        assert!(!m.is_pattern_symmetric()); // (0,2) stored, (2,0) stored, but (2,1) vs (1,2)
    }

    #[test]
    fn to_dense_round_trip() {
        let m = small();
        let d = m.to_dense();
        assert_eq!(d, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]);
    }

    #[test]
    fn validate_rejects_bad_row_ptr() {
        let bad = Csr::<u64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1, 1]);
        assert!(bad.is_err());
    }

    #[test]
    fn validate_rejects_unsorted_columns() {
        let bad = Csr::<u64>::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1, 1]);
        assert!(bad.is_err());
    }

    #[test]
    fn validate_rejects_column_overflow() {
        let bad = Csr::<u64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1]);
        assert!(bad.is_err());
    }

    #[test]
    fn iter_row_major() {
        let m = small();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]);
    }

    #[test]
    fn map_preserves_structure() {
        let m = small();
        let f = m.map(|v| v as f64 * 0.5);
        assert!(m.same_pattern(&f));
        assert_eq!(f.get(2, 1), Some(2.0));
    }
}
