//! Rolling-window aggregation: the `bikron-obs/3` layer that turns
//! cumulative-since-boot metrics into *operational* signals.
//!
//! A long-running `bikron serve` scraped at `/metrics` used to answer
//! only "how much since boot" — useless for spotting a latency spike in
//! the last minute. This module adds a fixed ring of **epoch buckets**
//! per windowed metric: wall-clock is divided into [`BUCKET_SECS`]-second
//! epochs, a write lands in the slot `epoch % RING_SLOTS`, and a read
//! merges the slots whose epoch tag falls inside the requested window
//! (last 1 m / last 5 m). There is **no background thread**: the epoch is
//! derived from a shared monotonic clock *by whoever touches the ring*
//! ("reader-advanced"), and stale slots are simply filtered out by their
//! tag on read and lazily reclaimed by the next writer that needs the
//! slot. Std-only, like the rest of the crate.
//!
//! Slot reclamation is a tag CAS to a `CLAIMING` sentinel, a reset, and a
//! release-store of the new epoch — writers racing for the same fresh
//! slot spin for the (nanosecond-scale) reset window. A slot index is
//! only reused [`RING_SLOTS`] epochs (> 5 minutes) after it was last
//! written, which is also why expiry needs no eager sweep: anything a
//! writer overwrites left every supported window long ago, so rotation
//! can neither lose nor double-count an in-window sample (property-tested
//! in `tests/window_props.rs`).
//!
//! [`WindowedCounter`] / [`WindowedHistogram`] wrap the *cumulative*
//! [`Counter`] / [`Histogram`] they shadow, so one `add`/`record` call
//! updates both views and the cumulative series stay exactly what they
//! were under `bikron-obs/2`. [`WindowRegistry`] names the wrappers and
//! snapshots them into a [`Report`] `windows` section.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot, LocalHistogram};
use crate::metrics::Counter;
use crate::registry::Registry;
use crate::report::Report;

/// Seconds of wall-clock per epoch bucket.
pub const BUCKET_SECS: u64 = 10;
/// Ring slots per windowed metric — must exceed the widest window
/// ([`WINDOW_5M_BUCKETS`]) so an in-window slot is never reclaimed.
pub const RING_SLOTS: usize = 32;
/// Buckets merged for the 1-minute window.
pub const WINDOW_1M_BUCKETS: u64 = 6;
/// Buckets merged for the 5-minute window.
pub const WINDOW_5M_BUCKETS: u64 = 30;

/// Epoch-tag sentinel: a writer is resetting this slot right now.
const CLAIMING: u64 = u64::MAX;
/// Epoch-tag sentinel: the slot has never been written.
const EMPTY: u64 = u64::MAX - 1;

/// Monotonic epoch source shared by every metric of one
/// [`WindowRegistry`]: epoch `n` covers seconds `[n·BUCKET_SECS,
/// (n+1)·BUCKET_SECS)` since the clock was created.
#[derive(Debug)]
pub struct WindowClock {
    start: Instant,
}

impl Default for WindowClock {
    fn default() -> Self {
        WindowClock {
            start: Instant::now(),
        }
    }
}

impl WindowClock {
    /// New clock starting at epoch 0.
    pub fn new() -> Self {
        WindowClock::default()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / BUCKET_SECS
    }
}

/// Rotate `tag` to `epoch`, running `reset` exactly once per rotation.
/// Returns immediately when the slot is already tagged `epoch`.
fn claim_slot(tag: &AtomicU64, epoch: u64, reset: impl Fn()) {
    loop {
        let current = tag.load(Ordering::Acquire);
        if current == epoch {
            return;
        }
        if current == CLAIMING {
            // Another writer is mid-reset for this epoch; wait it out.
            std::hint::spin_loop();
            continue;
        }
        if tag
            .compare_exchange(current, CLAIMING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            reset();
            tag.store(epoch, Ordering::Release);
            return;
        }
    }
}

/// Whether a slot tagged `tag` belongs to the window of `buckets` epochs
/// ending at (and including) `epoch`.
fn in_window(tag: u64, epoch: u64, buckets: u64) -> bool {
    tag != CLAIMING && tag != EMPTY && tag <= epoch && epoch - tag < buckets
}

/// Aggregates of one metric over one window, all exact integers (the
/// schema never emits floats). Counters populate `count`/`rate_per_sec`
/// only; histograms populate everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Events observed inside the window.
    pub count: u64,
    /// `count` divided by the window length in seconds (floor).
    pub rate_per_sec: u64,
    /// Sum of observed values inside the window (histograms only).
    pub sum: u64,
    /// Windowed 50th percentile (histograms only).
    pub p50: u64,
    /// Windowed 90th percentile (histograms only).
    pub p90: u64,
    /// Windowed 99th percentile (histograms only).
    pub p99: u64,
}

/// Which metric family a [`WindowSnapshot`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// A windowed [`Counter`].
    Counter,
    /// A windowed [`Histogram`].
    Histogram,
}

impl WindowKind {
    /// Schema string for the `kind` field (`"counter"` / `"histogram"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            WindowKind::Counter => "counter",
            WindowKind::Histogram => "histogram",
        }
    }

    /// Parse the schema string back; `None` for unknown kinds.
    pub fn parse_str(s: &str) -> Option<WindowKind> {
        match s {
            "counter" => Some(WindowKind::Counter),
            "histogram" => Some(WindowKind::Histogram),
            _ => None,
        }
    }
}

/// Frozen 1 m + 5 m view of one windowed metric, as serialised into the
/// report's `windows` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Whether this entry shadows a counter or a histogram.
    pub kind: WindowKind,
    /// Last-minute aggregates.
    pub w1m: WindowStats,
    /// Last-five-minutes aggregates.
    pub w5m: WindowStats,
}

/// One counter ring slot: epoch tag plus the bucket's event count.
#[derive(Debug)]
struct CounterSlot {
    tag: AtomicU64,
    value: AtomicU64,
}

/// A counter that also maintains per-epoch buckets for windowed rates.
/// Every `add` updates the shadowed cumulative [`Counter`] too, so the
/// cumulative series is unchanged from `bikron-obs/2`.
#[derive(Debug)]
pub struct WindowedCounter {
    clock: Arc<WindowClock>,
    total: Arc<Counter>,
    slots: Box<[CounterSlot]>,
}

impl WindowedCounter {
    fn new(clock: Arc<WindowClock>, total: Arc<Counter>) -> Self {
        WindowedCounter {
            clock,
            total,
            slots: (0..RING_SLOTS)
                .map(|_| CounterSlot {
                    tag: AtomicU64::new(EMPTY),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Add `n` events at the current epoch.
    pub fn add(&self, n: u64) {
        self.add_at(self.clock.epoch(), n);
    }

    /// Add one event at the current epoch.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Cumulative total (identical to the shadowed counter's value).
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Add `n` events at an explicit epoch — the deterministic entry
    /// point the property tests drive; `add` is this at `clock.epoch()`.
    pub fn add_at(&self, epoch: u64, n: u64) {
        self.total.add(n);
        let slot = &self.slots[(epoch % RING_SLOTS as u64) as usize];
        claim_slot(&slot.tag, epoch, || slot.value.store(0, Ordering::Relaxed));
        slot.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Events inside the `buckets`-epoch window ending at `epoch`.
    pub fn window_count_at(&self, epoch: u64, buckets: u64) -> u64 {
        self.slots
            .iter()
            .filter(|s| in_window(s.tag.load(Ordering::Acquire), epoch, buckets))
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot both windows at the current epoch.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.clock.epoch())
    }

    /// Snapshot both windows at an explicit epoch.
    pub fn snapshot_at(&self, epoch: u64) -> WindowSnapshot {
        let stats = |buckets: u64| {
            let count = self.window_count_at(epoch, buckets);
            WindowStats {
                count,
                rate_per_sec: count / (buckets * BUCKET_SECS),
                ..WindowStats::default()
            }
        };
        WindowSnapshot {
            kind: WindowKind::Counter,
            w1m: stats(WINDOW_1M_BUCKETS),
            w5m: stats(WINDOW_5M_BUCKETS),
        }
    }
}

/// One histogram ring slot: epoch tag plus a full per-bucket histogram.
#[derive(Debug)]
struct HistSlot {
    tag: AtomicU64,
    hist: Histogram,
}

/// A histogram that also maintains per-epoch bucket histograms, yielding
/// windowed p50/p90/p99 alongside the cumulative distribution.
#[derive(Debug)]
pub struct WindowedHistogram {
    clock: Arc<WindowClock>,
    total: Arc<Histogram>,
    slots: Box<[HistSlot]>,
}

impl WindowedHistogram {
    fn new(clock: Arc<WindowClock>, total: Arc<Histogram>) -> Self {
        WindowedHistogram {
            clock,
            total,
            slots: (0..RING_SLOTS)
                .map(|_| HistSlot {
                    tag: AtomicU64::new(EMPTY),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    /// Record one observation at the current epoch.
    pub fn record(&self, v: u64) {
        self.record_at(self.clock.epoch(), v);
    }

    /// Record at an explicit epoch (deterministic test entry point).
    pub fn record_at(&self, epoch: u64, v: u64) {
        self.total.record(v);
        let slot = &self.slots[(epoch % RING_SLOTS as u64) as usize];
        claim_slot(&slot.tag, epoch, || slot.hist.reset());
        slot.hist.record(v);
    }

    /// Add a [`LocalHistogram`]'s observations at the current epoch.
    pub fn record_local(&self, local: &LocalHistogram) {
        if local.count() == 0 {
            return;
        }
        let epoch = self.clock.epoch();
        self.total.add_local(local);
        let slot = &self.slots[(epoch % RING_SLOTS as u64) as usize];
        claim_slot(&slot.tag, epoch, || slot.hist.reset());
        slot.hist.add_local(local);
    }

    /// The shadowed cumulative histogram.
    pub fn cumulative(&self) -> &Histogram {
        &self.total
    }

    /// Merge the in-window slots into one [`HistogramSnapshot`].
    pub fn window_at(&self, epoch: u64, buckets: u64) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for slot in self.slots.iter() {
            if in_window(slot.tag.load(Ordering::Acquire), epoch, buckets) {
                merged.merge(&slot.hist.snapshot());
            }
        }
        merged
    }

    /// Snapshot both windows at the current epoch.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.clock.epoch())
    }

    /// Snapshot both windows at an explicit epoch.
    pub fn snapshot_at(&self, epoch: u64) -> WindowSnapshot {
        let stats = |buckets: u64| {
            let h = self.window_at(epoch, buckets);
            WindowStats {
                count: h.count,
                rate_per_sec: h.count / (buckets * BUCKET_SECS),
                sum: h.sum,
                p50: if h.count == 0 { 0 } else { h.percentile(50) },
                p90: if h.count == 0 { 0 } else { h.percentile(90) },
                p99: if h.count == 0 { 0 } else { h.percentile(99) },
            }
        };
        WindowSnapshot {
            kind: WindowKind::Histogram,
            w1m: stats(WINDOW_1M_BUCKETS),
            w5m: stats(WINDOW_5M_BUCKETS),
        }
    }
}

/// Named windowed metrics sharing one [`WindowClock`]. The serve request
/// path threads one of these alongside the base [`Registry`]: wrappers
/// are resolved once at startup (same hoist-the-handle discipline as the
/// base registry) and snapshotted into a report's `windows` section on
/// every `/metrics` scrape.
#[derive(Debug, Default)]
pub struct WindowRegistry {
    clock: Arc<WindowClock>,
    counters: Mutex<BTreeMap<String, Arc<WindowedCounter>>>,
    histograms: Mutex<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl WindowRegistry {
    /// New registry with a fresh clock at epoch 0.
    pub fn new() -> Self {
        WindowRegistry::default()
    }

    /// The shared clock's current epoch.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// Get or create the windowed counter `name`, shadowing
    /// `base.counter(name)` so cumulative totals keep flowing to the
    /// plain report sections.
    pub fn counter(&self, base: &Registry, name: &str) -> Arc<WindowedCounter> {
        let mut map = self.counters.lock().expect("windowed counter map poisoned");
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(WindowedCounter::new(
                Arc::clone(&self.clock),
                base.counter(name),
            ))
        }))
    }

    /// Get or create the windowed histogram `name`, shadowing
    /// `base.histogram(name)`.
    pub fn histogram(&self, base: &Registry, name: &str) -> Arc<WindowedHistogram> {
        let mut map = self
            .histograms
            .lock()
            .expect("windowed histogram map poisoned");
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(WindowedHistogram::new(
                Arc::clone(&self.clock),
                base.histogram(name),
            ))
        }))
    }

    /// Snapshot every windowed metric at the current epoch.
    pub fn snapshot(&self) -> BTreeMap<String, WindowSnapshot> {
        let epoch = self.clock.epoch();
        let mut out = BTreeMap::new();
        for (k, v) in self
            .counters
            .lock()
            .expect("windowed counter map poisoned")
            .iter()
        {
            out.insert(k.clone(), v.snapshot_at(epoch));
        }
        for (k, v) in self
            .histograms
            .lock()
            .expect("windowed histogram map poisoned")
            .iter()
        {
            out.insert(k.clone(), v.snapshot_at(epoch));
        }
        out
    }

    /// Attach this registry's windows to a snapshot [`Report`] (the
    /// `/metrics` path: `base.snapshot()` then `windows.snapshot_into`).
    pub fn snapshot_into(&self, report: &mut Report) {
        for (name, snap) in self.snapshot() {
            report.insert_window(name, snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_pair() -> (Registry, WindowRegistry) {
        (Registry::new(), WindowRegistry::new())
    }

    #[test]
    fn counter_updates_cumulative_and_window() {
        let (base, win) = registry_pair();
        let c = win.counter(&base, "reqs");
        c.add_at(0, 5);
        c.add_at(1, 7);
        assert_eq!(base.counter("reqs").get(), 12);
        assert_eq!(c.total(), 12);
        assert_eq!(c.window_count_at(1, WINDOW_1M_BUCKETS), 12);
        // Six epochs later the epoch-0 bucket left the 1m window but is
        // still inside 5m.
        assert_eq!(c.window_count_at(6, WINDOW_1M_BUCKETS), 7);
        assert_eq!(c.window_count_at(6, WINDOW_5M_BUCKETS), 12);
        // Far future: both windows are empty, cumulative is untouched.
        assert_eq!(c.window_count_at(100, WINDOW_5M_BUCKETS), 0);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn counter_rates_divide_by_window_seconds() {
        let (base, win) = registry_pair();
        let c = win.counter(&base, "reqs");
        c.add_at(3, 600);
        let s = c.snapshot_at(3);
        assert_eq!(s.kind, WindowKind::Counter);
        assert_eq!(s.w1m.count, 600);
        assert_eq!(s.w1m.rate_per_sec, 10); // 600 / 60s
        assert_eq!(s.w5m.rate_per_sec, 2); // 600 / 300s
        assert_eq!((s.w1m.sum, s.w1m.p99), (0, 0));
    }

    #[test]
    fn slot_reuse_resets_stale_bucket() {
        let (base, win) = registry_pair();
        let c = win.counter(&base, "reqs");
        c.add_at(0, 100);
        // RING_SLOTS epochs later the same slot index recurs; the old
        // tally must not leak into the new epoch's bucket.
        c.add_at(RING_SLOTS as u64, 1);
        assert_eq!(c.window_count_at(RING_SLOTS as u64, WINDOW_1M_BUCKETS), 1);
        assert_eq!(c.total(), 101);
    }

    #[test]
    fn histogram_windows_track_recent_shape() {
        let (base, win) = registry_pair();
        let h = win.histogram(&base, "lat");
        // A slow early phase, then a fast recent phase.
        for _ in 0..100 {
            h.record_at(0, 1_000_000);
        }
        for _ in 0..100 {
            h.record_at(10, 10);
        }
        let s = h.snapshot_at(10);
        assert_eq!(s.kind, WindowKind::Histogram);
        // 1m window sees only the fast phase…
        assert_eq!(s.w1m.count, 100);
        assert!(s.w1m.p99 < 1_000, "windowed p99 {}", s.w1m.p99);
        // …while the cumulative histogram still remembers the slow one.
        let cum = h.cumulative().snapshot();
        assert_eq!(cum.count, 200);
        assert!(cum.percentile(99) >= 1_000_000);
        // Windowed p99 never exceeds the cumulative max.
        assert!(s.w1m.p99 <= cum.max);
        assert!(s.w5m.p99 <= cum.max);
    }

    #[test]
    fn registry_snapshot_names_all_metrics() {
        let (base, win) = registry_pair();
        win.counter(&base, "a").add_at(0, 1);
        win.histogram(&base, "b").record_at(0, 9);
        let snap = win.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["a"].kind, WindowKind::Counter);
        assert_eq!(snap["b"].kind, WindowKind::Histogram);
        // Same-name lookups return the same wrapper.
        assert!(Arc::ptr_eq(
            &win.counter(&base, "a"),
            &win.counter(&base, "a")
        ));
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let (base, win) = registry_pair();
        let c = win.counter(&base, "reqs");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        c.add_at(i % 3, 1);
                    }
                });
            }
        });
        assert_eq!(c.total(), 4000);
        assert_eq!(c.window_count_at(2, WINDOW_1M_BUCKETS), 4000);
    }

    #[test]
    fn kind_strings_roundtrip() {
        for k in [WindowKind::Counter, WindowKind::Histogram] {
            assert_eq!(WindowKind::parse_str(k.as_str()), Some(k));
        }
        assert_eq!(WindowKind::parse_str("gauge"), None);
    }
}
