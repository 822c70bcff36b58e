#![warn(missing_docs)]

//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon) this
//! workspace uses.
//!
//! The build container has no crates.io access, so the workspace maps the
//! `rayon` dependency name onto this path crate (see `[workspace.dependencies]`
//! in the root manifest). It reimplements — with **real OS-thread
//! parallelism** via [`std::thread::scope`] — exactly the combinator chains
//! the kernels in `bikron-sparse`, `bikron-core`, `bikron-graph`, and
//! `bikron-analytics` rely on:
//!
//! * `(range).into_par_iter().map(f).collect()` / `.try_reduce(..)`
//! * `(range).into_par_iter().map_init(init, f).collect()`
//! * `vec.into_par_iter().map(f).collect()` (element type must be `Copy`)
//! * `slice.par_iter().map(f).collect()` / `.for_each(f)`
//! * `a.par_iter_mut().zip(b.par_iter_mut()).enumerate().for_each(f)`
//! * [`join`], [`current_num_threads`]
//!
//! Each parallel region starts up to [`current_num_threads`] scoped
//! threads, which claim fixed-size chunks of the input from one shared
//! queue until it is empty; there are about 16 chunks per worker. A
//! worker that draws cheap chunks takes more of them, so skewed inputs
//! (power-law rows) keep every core busy to the end, which one contiguous
//! chunk per thread does not. That trades rayon's
//! work-stealing pool for zero dependencies; call sites already gate
//! parallel dispatch behind size thresholds, so the spawn cost is
//! amortised over large inputs only. `collect` reassembles the chunks in
//! input order, so results are deterministic exactly as with rayon's
//! indexed iterators.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Re-exports that mirror `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

/// Number of worker threads a parallel region may use (rayon API parity).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run two closures, potentially in parallel, and return both results
/// (rayon's binary fork-join primitive).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim: join worker panicked"))
    })
}

/// Chunks per worker in one parallel region: enough that a worker which
/// draws cheap chunks can take over the rest while another finishes an
/// expensive one, few enough that claiming stays off the per-item path.
const CHUNKS_PER_WORKER: usize = 16;

/// Items per chunk for a region over `len` items.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(current_num_threads() * CHUNKS_PER_WORKER)
        .max(1)
}

/// `0..len` cut into chunks of [`chunk_len`] items.
fn chunk_ranges(len: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
    let chunk = chunk_len(len);
    (0..len.div_ceil(chunk)).map(move |c| c * chunk..((c + 1) * chunk).min(len))
}

/// Run `work` over `0..len` cut into chunks, and return the per-chunk
/// results in chunk order.
fn run_chunked<R, W>(len: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(Range<usize>) -> R + Sync,
{
    run_jobs(chunk_ranges(len), || (), |_, chunk| work(chunk))
}

/// Run `work(state, job)` for every job on up to [`current_num_threads`]
/// scoped threads, and return the results in job order.
///
/// The workers share one queue: each claims the next job, runs it, and
/// claims again until the queue is empty, so the split adapts to uneven
/// job costs. Each worker builds its `state` with `init` once, before its
/// first job. With one worker (or one job) everything runs on the caller.
fn run_jobs<I, S, R, INIT, W>(jobs: I, init: INIT, work: W) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    W: Fn(&mut S, I::Item) -> R + Sync,
{
    let njobs = jobs.len();
    let workers = current_num_threads().min(njobs);
    if workers == 0 {
        return Vec::new();
    }
    if workers == 1 {
        let mut state = init();
        return jobs.map(|job| work(&mut state, job)).collect();
    }
    let queue = Mutex::new(jobs.enumerate());
    let (init, work) = (&init, &work);
    let mut results: Vec<Option<R>> = (0..njobs).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement, so
                        // no job runs under the lock.
                        let next = queue.lock().expect("rayon-shim: queue poisoned").next();
                        let Some((idx, job)) = next else { break };
                        done.push((idx, work(&mut state, job)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (idx, r) in h.join().expect("rayon-shim: worker panicked") {
                results[idx] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("rayon-shim: every job runs once"))
        .collect()
}

// ---------------------------------------------------------------------------
// Entry-point traits (the names call sites import from the prelude).
// ---------------------------------------------------------------------------

/// Types convertible into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Types whose shared references yield a parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator produced.
    type Iter;
    /// Borrowing parallel iterator over `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Types whose mutable references yield a parallel iterator (`par_iter_mut`).
pub trait IntoParallelRefMutIterator<'a> {
    /// The parallel iterator produced.
    type Iter;
    /// Borrowing parallel iterator over `&mut self`.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Copy + Send + Sync> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = ParSliceMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = ParSliceMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

// ---------------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------------

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Map each index through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> MapRange<F>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        MapRange {
            range: self.range,
            f,
        }
    }

    /// Map with per-thread scratch state created by `init` (rayon's
    /// `map_init`).
    pub fn map_init<INIT, S, F, R>(self, init: INIT, f: F) -> MapInitRange<INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
        R: Send,
    {
        MapInitRange {
            range: self.range,
            init,
            f,
        }
    }
}

/// `ParRange::map` adapter.
pub struct MapRange<F> {
    range: Range<usize>,
    f: F,
}

impl<F> MapRange<F> {
    /// Collect the mapped results, preserving index order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let start = self.range.start;
        let f = &self.f;
        run_chunked(self.range.len(), |chunk| {
            chunk.map(|i| f(start + i)).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Fold `Option`-valued items, short-circuiting on `None` (the one
    /// `try_reduce` shape used in this workspace: `Item = Option<T>`).
    pub fn try_reduce<T, ID, OP>(self, identity: ID, op: OP) -> Option<T>
    where
        F: Fn(usize) -> Option<T> + Sync,
        T: Send,
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> Option<T> + Sync,
    {
        let start = self.range.start;
        let f = &self.f;
        // Set by the first chunk that meets a `None`; chunks claimed after
        // that return at once.
        let failed = AtomicBool::new(false);
        let partials = run_chunked(self.range.len(), |chunk| {
            if failed.load(Ordering::Relaxed) {
                return None;
            }
            let mut acc = identity();
            for i in chunk {
                let Some(next) = f(start + i).and_then(|x| op(acc, x)) else {
                    failed.store(true, Ordering::Relaxed);
                    return None;
                };
                acc = next;
            }
            Some(acc)
        });
        let mut acc = identity();
        for p in partials {
            acc = op(acc, p?)?;
        }
        Some(acc)
    }
}

/// `ParRange::map_init` adapter.
pub struct MapInitRange<INIT, F> {
    range: Range<usize>,
    init: INIT,
    f: F,
}

impl<INIT, F> MapInitRange<INIT, F> {
    /// Collect the mapped results, preserving index order. `init` runs
    /// once per worker, before its first chunk.
    pub fn collect<C, S, R>(self) -> C
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let start = self.range.start;
        let f = &self.f;
        run_jobs(
            chunk_ranges(self.range.len()),
            &self.init,
            |state, chunk| chunk.map(|i| f(state, start + i)).collect::<Vec<R>>(),
        )
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Parallel iterator over an owned `Vec` of `Copy` items.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Copy + Send + Sync> ParVec<T> {
    /// Map each element through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> MapVec<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        MapVec {
            items: self.items,
            f,
        }
    }
}

/// `ParVec::map` adapter.
pub struct MapVec<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Copy + Send + Sync, F> MapVec<T, F> {
    /// Collect the mapped results, preserving element order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let items = &self.items;
        let f = &self.f;
        run_chunked(items.len(), |chunk| {
            items[chunk].iter().map(|&x| f(x)).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Map each `&T` through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> MapSlice<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        MapSlice {
            slice: self.slice,
            f,
        }
    }

    /// Apply `f` to each `&T` in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let slice = self.slice;
        run_chunked(slice.len(), |chunk| {
            for x in &slice[chunk] {
                f(x);
            }
        });
    }
}

/// `ParSlice::map` adapter.
pub struct MapSlice<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> MapSlice<'a, T, F> {
    /// Collect the mapped results, preserving element order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let slice = self.slice;
        let f = &self.f;
        run_chunked(slice.len(), |chunk| {
            slice[chunk].iter().map(f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Borrowing parallel iterator over a mutable slice.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Pair up with a second mutable parallel iterator of the same length.
    pub fn zip<U: Send>(self, other: ParSliceMut<'a, U>) -> ZipMut<'a, T, U> {
        assert_eq!(
            self.slice.len(),
            other.slice.len(),
            "rayon-shim: zip of unequal lengths"
        );
        ZipMut {
            a: self.slice,
            b: other.slice,
        }
    }
}

/// Zip of two mutable-slice parallel iterators.
pub struct ZipMut<'a, T, U> {
    a: &'a mut [T],
    b: &'a mut [U],
}

impl<'a, T: Send, U: Send> ZipMut<'a, T, U> {
    /// Attach the element index to each pair.
    pub fn enumerate(self) -> EnumerateZipMut<'a, T, U> {
        EnumerateZipMut {
            a: self.a,
            b: self.b,
        }
    }
}

/// Enumerated zip of two mutable-slice parallel iterators.
pub struct EnumerateZipMut<'a, T, U> {
    a: &'a mut [T],
    b: &'a mut [U],
}

impl<'a, T: Send, U: Send> EnumerateZipMut<'a, T, U> {
    /// Apply `f` to each `(index, (&mut T, &mut U))` in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, (&mut T, &mut U))) + Sync,
    {
        let chunk = chunk_len(self.a.len());
        let jobs = self
            .a
            .chunks_mut(chunk)
            .zip(self.b.chunks_mut(chunk))
            .enumerate();
        run_jobs(
            jobs,
            || (),
            |_, (c, (ha, hb))| {
                for (off, (x, y)) in ha.iter_mut().zip(hb).enumerate() {
                    f((c * chunk + off, (x, y)));
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn range_map_collect_ordered() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn range_map_init_collect_ordered() {
        let v: Vec<usize> = (0..5_000)
            .into_par_iter()
            .map_init(|| 7usize, |s, i| i + *s)
            .collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 7));
    }

    #[test]
    fn vec_into_par_iter_map() {
        let items: Vec<(usize, usize)> = (0..1000).map(|i| (i, i + 1)).collect();
        let out: Vec<usize> = items.into_par_iter().map(|(a, b)| a + b).collect();
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i + 1));
    }

    #[test]
    fn slice_for_each_visits_all() {
        let items: Vec<usize> = (0..4096).collect();
        let sum = AtomicUsize::new(0);
        items.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4096 * 4095 / 2);
    }

    #[test]
    fn zip_enumerate_for_each_disjoint() {
        let mut a = vec![0usize; 2048];
        let mut b = vec![0usize; 2048];
        {
            let mut sa: Vec<&mut [usize]> = a.chunks_mut(1).collect();
            let mut sb: Vec<&mut [usize]> = b.chunks_mut(1).collect();
            sa.par_iter_mut()
                .zip(sb.par_iter_mut())
                .enumerate()
                .for_each(|(p, (x, y))| {
                    x[0] = p;
                    y[0] = 2 * p;
                });
        }
        assert!(a.iter().enumerate().all(|(i, &x)| x == i));
        assert!(b.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn try_reduce_short_circuits_none() {
        let all: Option<usize> = (0..100)
            .into_par_iter()
            .map(Some)
            .try_reduce(|| 0, |a, b| Some(a.max(b)));
        assert_eq!(all, Some(99));
        let none: Option<usize> = (0..100)
            .into_par_iter()
            .map(|i| if i == 50 { None } else { Some(i) })
            .try_reduce(|| 0, |a, b| Some(a.max(b)));
        assert_eq!(none, None);
    }

    /// Cost that varies by item: the first few items of the input sleep,
    /// so their chunks finish after chunks claimed later.
    fn uneven(i: usize) -> usize {
        if i < 3 {
            std::thread::sleep(Duration::from_millis(20));
        } else if i.is_multiple_of(97) {
            std::thread::sleep(Duration::from_micros(200));
        }
        i * 3
    }

    #[test]
    fn collect_keeps_order_under_uneven_cost_and_a_ragged_last_chunk() {
        // 10_007 is prime: never a multiple of the chunk length.
        let len = 10_007;
        assert_ne!(len % chunk_len(len), 0);
        let want: Vec<usize> = (0..len).map(|i| i * 3).collect();
        let range: Vec<usize> = (0..len).into_par_iter().map(uneven).collect();
        assert_eq!(range, want);
        let init: Vec<usize> = (0..len)
            .into_par_iter()
            .map_init(
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    uneven(i)
                },
            )
            .collect();
        assert_eq!(init, want);
        let items: Vec<usize> = (0..len).collect();
        let slice: Vec<usize> = items.par_iter().map(|&i| uneven(i)).collect();
        assert_eq!(slice, want);
        let owned: Vec<usize> = items.into_par_iter().map(uneven).collect();
        assert_eq!(owned, want);
    }

    #[test]
    fn try_reduce_stops_claiming_after_a_none() {
        let len = 2_000;
        let calls = AtomicUsize::new(0);
        let zero_ran = AtomicBool::new(false);
        let out: Option<usize> = (0..len)
            .into_par_iter()
            .map(|i| {
                calls.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    zero_ran.store(true, Ordering::SeqCst);
                    return None;
                }
                // No other item finishes before item 0 has failed, however
                // the workers start; a 10 s timeout keeps a bug from hanging.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !zero_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_micros(100));
                Some(i)
            })
            .try_reduce(|| 0, |a, b| Some(a.max(b)));
        assert_eq!(out, None);
        // Chunk 0 is the first claimed and fails on its first item; each
        // other worker finishes at most the chunk it holds, then claims
        // only chunks that return at once.
        let ran = calls.load(Ordering::SeqCst);
        assert!(
            ran <= 1 + current_num_threads() * chunk_len(len),
            "{ran} of {len} items ran after the None"
        );
        // An op that fails short-circuits too.
        let capped: Option<usize> = (0..len)
            .into_par_iter()
            .map(Some)
            .try_reduce(|| 0, |a, b| (b < 1_000).then_some(a.max(b)));
        assert_eq!(capped, None);
    }

    #[test]
    fn zip_enumerate_indices_for_short_and_long_inputs() {
        let threads = current_num_threads();
        for len in [1, threads.saturating_sub(1).max(1), threads + 1, 10_007] {
            let mut a = vec![usize::MAX; len];
            let mut b = vec![usize::MAX; len];
            let mut sa: Vec<&mut usize> = a.iter_mut().collect();
            let mut sb: Vec<&mut usize> = b.iter_mut().collect();
            sa.par_iter_mut()
                .zip(sb.par_iter_mut())
                .enumerate()
                .for_each(|(p, (x, y))| {
                    **x = p;
                    **y = len - p;
                });
            assert!(a.iter().enumerate().all(|(i, &x)| x == i), "len {len}");
            assert!(
                b.iter().enumerate().all(|(i, &y)| y == len - i),
                "len {len}"
            );
        }
    }

    /// Item 0 of a region blocks until three quarters of all items are
    /// done, or until a 10 s timeout. With one contiguous chunk per
    /// thread the other workers run out of items at `len / threads`, so
    /// only self-scheduling reaches three quarters on two threads.
    fn wait_for_three_quarters(i: usize, len: usize, done: &AtomicUsize, timed_out: &AtomicBool) {
        if i == 0 {
            let deadline = Instant::now() + Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < len * 3 / 4 {
                if Instant::now() > deadline {
                    timed_out.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        done.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn idle_workers_take_over_the_rest_of_a_skewed_region() {
        if current_num_threads() < 2 {
            return;
        }
        let len = 4096;
        let (done, timed_out) = (AtomicUsize::new(0), AtomicBool::new(false));
        let _: Vec<()> = (0..len)
            .into_par_iter()
            .map(|i| wait_for_three_quarters(i, len, &done, &timed_out))
            .collect();
        assert!(!timed_out.load(Ordering::SeqCst), "range map stayed static");

        let (done, timed_out) = (AtomicUsize::new(0), AtomicBool::new(false));
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, _)| wait_for_three_quarters(i, len, &done, &timed_out));
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "zip for_each stayed static"
        );
        assert_eq!(done.load(Ordering::SeqCst), len);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }
}
