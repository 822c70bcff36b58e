//! The [`Registry`]: a named collection of counters, gauges, and phase
//! timers, snapshottable into a [`Report`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::frames::PhaseGuard;
use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge, TimerStats};
use crate::report::Report;

/// A named metric store. Lookup takes a mutex (cheap, once per kernel
/// invocation); the returned `Arc` handles mutate lock-free, so hot loops
/// should hoist the handle out of the loop.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    timers: Mutex<BTreeMap<String, Arc<TimerStats>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// New empty registry (tests, embedded pipelines). Most callers want
    /// [`crate::global`].
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs counter map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("obs gauge map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the timer `name`.
    pub fn timer(&self, name: &str) -> Arc<TimerStats> {
        let mut map = self.timers.lock().expect("obs timer map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram `name`. Hot loops hoist the handle
    /// (one lock here, lock-free `record` thereafter).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs histogram map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Open a scoped phase: wall-clock from now until the guard drops is
    /// recorded under `name`, nested under any registry phase already
    /// open on this thread (`outer/inner`). Monotonic ([`std::time::Instant`]),
    /// panic-safe (the guard records on unwind too). The phase is also a
    /// frame on the thread's one phase stack, so the profiler, the Chrome
    /// ring and an attached request's span tree see it as well (see
    /// [`crate::phase`] for the registry-free kind). Like spans, the
    /// profiler and the Chrome ring are process-wide, whichever registry
    /// timed the phase.
    pub fn phase(&self, name: &str) -> PhaseGuard {
        crate::frames::registry_phase(self, name)
    }

    /// Time a closure as a phase: `registry.time("spgemm", || ...)`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.phase(name);
        f()
    }

    /// Snapshot every metric into an immutable [`Report`]. Counters with
    /// value 0 and timers with no observations are included — an
    /// instrumented-but-idle phase is itself information.
    pub fn snapshot(&self) -> Report {
        let counters = self
            .counters
            .lock()
            .expect("obs counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("obs gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), (v.get(), v.peak())))
            .collect();
        let timers = self
            .timers
            .lock()
            .expect("obs timer map poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    crate::report::TimerSnapshot {
                        count: v.count(),
                        total_ns: v.total_ns(),
                        min_ns: v.min_ns(),
                        max_ns: v.max_ns(),
                        mean_ns: v.mean_ns(),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Report::from_parts(counters, gauges, timers, histograms)
    }

    /// Zero every metric, keeping the names registered. Used between
    /// benchmark workloads so each report starts from a clean slate.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("obs counter map poisoned")
            .values()
        {
            c.reset();
        }
        for g in self.gauges.lock().expect("obs gauge map poisoned").values() {
            g.reset();
        }
        for t in self.timers.lock().expect("obs timer map poisoned").values() {
            t.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("obs histogram map poisoned")
            .values()
        {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn phases_nest_hierarchically() {
        let r = Registry::new();
        {
            let _outer = r.phase("outer");
            {
                let _inner = r.phase("inner");
            }
        }
        let report = r.snapshot();
        assert_eq!(report.timer("outer").map(|t| t.count), Some(1));
        assert_eq!(report.timer("outer/inner").map(|t| t.count), Some(1));
        // A fresh phase after unwinding the stack is top-level again.
        r.time("later", || ());
        assert!(r.snapshot().timer("later").is_some());
    }

    #[test]
    fn time_returns_closure_value_and_records() {
        let r = Registry::new();
        let v = r.time("compute", || 21 * 2);
        assert_eq!(v, 42);
        let t = r.snapshot();
        let snap = t.timer("compute").unwrap();
        assert_eq!(snap.count, 1);
        assert!(snap.total_ns >= snap.min_ns);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = Registry::new();
        r.counter("edges").add(7);
        r.gauge("threads").raise(2);
        r.histogram("sizes").record(9);
        r.time("p", || ());
        r.reset();
        let report = r.snapshot();
        assert_eq!(report.counter("edges"), Some(0));
        assert_eq!(report.gauge("threads"), Some((0, 0)));
        assert_eq!(report.timer("p").map(|t| t.count), Some(0));
        assert_eq!(report.histogram("sizes").map(|h| h.count), Some(0));
    }

    #[test]
    fn histograms_are_shared_by_name_and_snapshot() {
        let r = Registry::new();
        r.histogram("nnz").record(2);
        r.histogram("nnz").record(70);
        let report = r.snapshot();
        let h = report.histogram("nnz").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 72);
        assert_eq!((h.min, h.max), (2, 70));
    }
}
