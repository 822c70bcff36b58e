//! Order statistics and open-loop accounting.
//!
//! Percentiles are nearest-rank and always carry their sample count, so a
//! reader can tell how many observations a tail value rests on. Quartiles
//! across runs follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), the rule the run-to-run spread of a
//! metric is judged by.

/// A nearest-rank percentile together with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// The observation at the rank.
    pub value: u64,
    /// Observations in the sample.
    pub samples: usize,
    /// Observations strictly after the rank: the count the tail rests on.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending slice:
/// the observation at rank `ceil(p/100 · n)`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them (exclusive method; at least two values).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's regression bound is compared with.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Share of attempted operations that failed, in percent.
pub fn error_pct(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    100.0 * failed as f64 / attempted as f64
}

/// A fixed-rate schedule: request `i` is due `offset + i · interval`
/// after the loop starts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval_ns: u64,
    /// Due time of request 0.
    pub offset_ns: u64,
}

impl Schedule {
    /// Due time of request `i`, in ns from the start of the loop.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.offset_ns + i * self.interval_ns
    }
}

/// Time source for [`drive_open_loop`]: the real clock in a run, a
/// simulated one in tests.
pub trait Clock {
    /// Nanoseconds since the loop started.
    fn now_ns(&mut self) -> u64;
    /// Return no earlier than `t_ns`.
    fn wait_until(&mut self, t_ns: u64);
}

/// What one connection's open loop observed.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopSamples {
    /// Per request: completion minus due time, so a stall delays every
    /// request that fell due during it, not only the one it hit.
    pub latency_ns: Vec<u64>,
    /// Per request: how late the sender issued it.
    pub late_ns: Vec<u64>,
}

/// Issue requests on one connection at the scheduled rate until the
/// deadline: wait for each due time, `send(i)` the request (blocking until
/// its answer), and time it from when it was due. A sender that falls
/// behind issues the next request at once and the wait is charged to it.
pub fn drive_open_loop(
    schedule: Schedule,
    deadline_ns: u64,
    clock: &mut impl Clock,
    mut send: impl FnMut(u64),
) -> OpenLoopSamples {
    let mut out = OpenLoopSamples::default();
    let mut i = 0;
    loop {
        let due = schedule.due_ns(i);
        if due >= deadline_ns {
            return out;
        }
        clock.wait_until(due);
        let sent = clock.now_ns();
        send(i);
        let done = clock.now_ns();
        out.latency_ns.push(done - due);
        out.late_ns.push(sent.saturating_sub(due));
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_its_tail_count() {
        let v: Vec<u64> = (1..=1000).collect();
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990, 1000, 10));
        let p50 = nearest_rank(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (500, 500));
        // Ten samples: p99 is the maximum and rests on nothing beyond it.
        let few: Vec<u64> = (1..=10).collect();
        let tail = nearest_rank(&few, 99.0).unwrap();
        assert_eq!((tail.value, tail.beyond), (10, 0));
        assert_eq!(nearest_rank(&[7], 50.0).unwrap().value, 7);
        assert!(nearest_rank(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn error_pct_counts_failures_against_attempts() {
        assert_eq!(error_pct(200, 1), 0.5);
        assert_eq!(error_pct(200, 0), 0.0);
        assert_eq!(error_pct(0, 0), 0.0);
    }

    /// A simulated connection on a virtual clock: each request takes 10 µs,
    /// and the server answers nothing during a 5 ms stall from 1 ms to 6 ms.
    struct Simulated {
        now: std::cell::Cell<u64>,
    }

    const SERVICE_NS: u64 = 10_000;
    const STALL: std::ops::Range<u64> = 1_000_000..6_000_000;

    impl Simulated {
        fn serve(&self) {
            let mut t = self.now.get();
            if STALL.contains(&t) {
                t = STALL.end;
            }
            self.now.set(t + SERVICE_NS);
        }
    }

    impl Clock for &Simulated {
        fn now_ns(&mut self) -> u64 {
            self.now.get()
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    #[test]
    fn a_stall_delays_every_request_due_during_it() {
        let schedule = Schedule {
            interval_ns: 100_000,
            offset_ns: 0,
        };
        let sim = Simulated {
            now: std::cell::Cell::new(0),
        };
        let samples = drive_open_loop(schedule, 10_000_000, &mut &sim, |_| sim.serve());
        assert_eq!(samples.latency_ns.len(), 100);
        let mut delayed = 0;
        for (i, &lat) in samples.latency_ns.iter().enumerate() {
            let due = schedule.due_ns(i as u64);
            if STALL.contains(&due) {
                // Due inside the stall: the answer comes only after it
                // ends, whether the request hit the stall or queued
                // behind the one that did.
                assert!(
                    due + lat >= STALL.end + SERVICE_NS,
                    "due {due} latency {lat}"
                );
                delayed += 1;
            } else if due < STALL.start {
                assert_eq!(lat, SERVICE_NS);
                assert_eq!(samples.late_ns[i], 0);
            }
        }
        assert_eq!(delayed, 50);
        // The sender itself ran late behind the stall, and says so.
        assert!(samples.late_ns.iter().any(|&l| l > 4_000_000));
    }
}
