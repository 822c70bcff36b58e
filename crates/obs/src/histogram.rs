//! Lock-free log2-bucketed [`Histogram`] for per-element distributions.
//!
//! Totals (counters) answer "how much work"; histograms answer "how is
//! the work *shaped*" — the question that matters for skewed Kronecker
//! workloads, where a handful of heavy rows or ranks dominate wall-clock
//! (the lineage papers validate generators by instrumenting exactly these
//! distributions). A value `v` lands in bucket `⌊log2 v⌋ + 1` (bucket 0
//! holds zeros), so 65 fixed buckets cover all of `u64` with one relaxed
//! `fetch_add` per observation and no allocation — cheap enough to record
//! per SpGEMM row, per Kronecker fill block, per vertex, per rank.
//!
//! Percentiles are resolved at snapshot time from the cumulative bucket
//! counts: a reported `pXX` is the upper bound of the bucket containing
//! the XX-th percentile observation, clamped to the exact observed
//! `[min, max]` — deterministic integers, never floats, so reports stay
//! byte-diffable.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: zeros plus one per power of two up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, `⌊log2 v⌋ + 1` otherwise.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0, 1, 3, 7, …, u64::MAX`).
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram of `u64` observations in 65 log2 buckets, with
/// exact count/min/max and a saturating exact sum.
///
/// ```
/// let h = bikron_obs::Histogram::new();
/// for v in [1, 2, 3, 100] { h.record(v); }
/// let s = h.snapshot();
/// assert_eq!(s.count, 4);
/// assert_eq!((s.min, s.max), (1, 100));
/// assert!(s.percentile(50) <= s.percentile(99));
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation. Lock-free; safe to call from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // The sum saturates rather than wrapping: a report that pins at
        // u64::MAX is visibly wrong, a silently wrapped one is a lie.
        if self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            })
            .is_err()
        {
            unreachable!("fetch_update closure always returns Some");
        }
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold another histogram's observations into this one (cross-thread
    /// merge: workers record into thread-local histograms, then merge).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let osum = other.sum.load(Ordering::Relaxed);
        if self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(osum))
            })
            .is_err()
        {
            unreachable!("fetch_update closure always returns Some");
        }
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Add a [`LocalHistogram`]'s observations: one atomic add per
    /// non-empty bucket plus one each for count and sum, however many
    /// observations it holds. Min and max are only written when they
    /// move.
    pub fn add_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for i in bucket_of(local.min)..=bucket_of(local.max) {
            let n = local.buckets[i];
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        if self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(local.sum))
            })
            .is_err()
        {
            unreachable!("fetch_update closure always returns Some");
        }
        if local.min < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(local.min, Ordering::Relaxed);
        }
        if local.max > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(local.max, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freeze into an immutable [`HistogramSnapshot`].
    ///
    /// Concurrent `record` calls may straddle the snapshot (a racing
    /// observation can appear in `count` but not yet in its bucket, or
    /// vice versa); callers wanting exact snapshots take them after the
    /// recording threads are joined, as everywhere else in this crate.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper(i), n))
            })
            .collect();
        let count = buckets.iter().map(|&(_, n)| n).sum();
        let raw_min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if raw_min == u64::MAX && count == 0 {
                0
            } else {
                raw_min
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Reset to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A histogram one thread owns: the same 65 buckets as [`Histogram`],
/// in plain integers. A thread folds a run of observations here and
/// hands them to a shared histogram in one [`Histogram::add_local`], so
/// the shared atomics are touched once per run, not five times per
/// observation.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// New, empty local histogram.
    pub fn new() -> Self {
        LocalHistogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Empty it again, clearing only the buckets that were used.
    pub fn clear(&mut self) {
        if self.count > 0 {
            self.buckets[bucket_of(self.min)..=bucket_of(self.max)].fill(0);
        }
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Frozen view of one histogram: exact aggregates plus the non-empty
/// log2 buckets as `(inclusive_upper_bound, count)` pairs in ascending
/// bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations (saturating at `u64::MAX`).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets, `(upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `p`-th percentile (`0 < p <= 100`): upper bound of the bucket
    /// containing the `⌈p/100 · count⌉`-th smallest observation, clamped
    /// to the observed `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: u8) -> u64 {
        assert!(p > 0 && p <= 100, "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        // rank = ceil(p * count / 100), computed in u128 to avoid overflow.
        let rank = ((p as u128 * self.count as u128).div_ceil(100)) as u64;
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Merge another snapshot (the offline counterpart of
    /// [`Histogram::merge_from`], used by `perfdiff` and report tooling).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: std::collections::BTreeMap<u64, u64> =
            self.buckets.iter().copied().collect();
        for &(upper, n) in &other.buckets {
            *merged.entry(upper).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = match (self.count - other.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value's bucket upper bound is >= the value.
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            assert!(bucket_upper(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 8, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1022);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 146);
        // Buckets: 0→1, [1]→1, [2,3]→2, [8..15]→2, [512..1023]→1.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (15, 2), (1023, 1)]);
    }

    /// Adding a local histogram equals recording its observations one
    /// by one, and a cleared local histogram starts over.
    #[test]
    fn add_local_equals_recording_each_observation() {
        let values = [0u64, 1, 7, 8, 8, 1000, u64::MAX / 3];
        let direct = Histogram::new();
        let batched = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in values {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), values.len() as u64);
        batched.add_local(&local);
        assert_eq!(batched.snapshot(), direct.snapshot());
        local.clear();
        batched.add_local(&local);
        assert_eq!(batched.snapshot(), direct.snapshot());
        local.record(3);
        batched.add_local(&local);
        direct.record(3);
        assert_eq!(batched.snapshot(), direct.snapshot());
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
    }
}
