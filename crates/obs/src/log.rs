//! Structured JSON-lines event logging with bounded backpressure.
//!
//! The request path must never block on disk, so the design is a bounded
//! MPSC queue drained by a single writer thread: producers [`publish`]
//! events under a short queue lock, the writer pops batches and performs
//! the actual `write`/`flush` with the lock released. When the queue is
//! full the event is **dropped and counted** — a `{"target":"log",...,
//! "dropped_total":N}` note is emitted inline the next time the writer
//! catches up, so losing events is visible in the log itself, never
//! silent and never a stall. Per-target sampling (`sample_every = N`
//! keeps every Nth event of a target) bounds volume at the source for
//! high-rate targets like per-request access logs.
//!
//! [`LogCore`] is the threadless, deterministic engine (unit-testable:
//! publish then [`LogCore::drain_into`] any `Write`); [`EventLogger`]
//! wraps it with the writer thread and is what `bikron serve
//! --access-log` uses.
//!
//! [`publish`]: LogCore::publish

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

use crate::json::escape_into;

/// A field value in a structured event: the three shapes access logs
/// need, kept closed so serialisation stays trivial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogValue {
    /// Unsigned integer (latencies, byte counts, statuses).
    U64(u64),
    /// Free-form string (methods, path shapes).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for LogValue {
    fn from(v: u64) -> Self {
        LogValue::U64(v)
    }
}

impl From<&str> for LogValue {
    fn from(v: &str) -> Self {
        LogValue::Str(v.to_string())
    }
}

impl From<String> for LogValue {
    fn from(v: String) -> Self {
        LogValue::Str(v)
    }
}

impl From<bool> for LogValue {
    fn from(v: bool) -> Self {
        LogValue::Bool(v)
    }
}

/// One structured event: a target (stream name, e.g. `"access"`), a
/// wall-clock timestamp, and ordered key/value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    ts_ms: u64,
    target: &'static str,
    fields: Vec<(&'static str, LogValue)>,
}

impl LogEvent {
    /// New event stamped with the current wall clock (unix millis).
    pub fn new(target: &'static str) -> Self {
        let ts_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        LogEvent::with_ts(target, ts_ms)
    }

    /// New event with an explicit timestamp (deterministic tests).
    pub fn with_ts(target: &'static str, ts_ms: u64) -> Self {
        LogEvent {
            ts_ms,
            target,
            fields: Vec::new(),
        }
    }

    /// Append a field; returns `self` for chaining.
    pub fn field(mut self, key: &'static str, value: impl Into<LogValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The event's target stream.
    pub fn target(&self) -> &'static str {
        self.target
    }

    /// Serialise as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"ts_ms\": ");
        out.push_str(&self.ts_ms.to_string());
        out.push_str(", \"target\": \"");
        escape_into(&mut out, self.target);
        out.push('"');
        for (key, value) in &self.fields {
            out.push_str(", \"");
            escape_into(&mut out, key);
            out.push_str("\": ");
            match value {
                LogValue::U64(n) => out.push_str(&n.to_string()),
                LogValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                LogValue::Str(s) => {
                    out.push('"');
                    escape_into(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

struct CoreState {
    queue: VecDeque<LogEvent>,
    /// Per-target publish counts driving the sampling decision.
    seen: BTreeMap<&'static str, u64>,
    /// Drop count already reported via an inline note.
    noted_dropped: u64,
}

/// The threadless logging engine: bounded queue, per-target sampling,
/// drop accounting, and JSON-lines drain. Deterministic — tests drive
/// [`LogCore::publish`] / [`LogCore::drain_into`] directly; production
/// wraps it in an [`EventLogger`] writer thread.
pub struct LogCore {
    state: Mutex<CoreState>,
    capacity: usize,
    sample_every: u64,
    dropped: AtomicU64,
    published: AtomicU64,
}

impl LogCore {
    /// New core holding at most `capacity` undrained events and keeping
    /// every `sample_every`-th event per target (0 and 1 both mean "keep
    /// all").
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        LogCore {
            state: Mutex::new(CoreState {
                queue: VecDeque::new(),
                seen: BTreeMap::new(),
                noted_dropped: 0,
            }),
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
            dropped: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// Offer an event. Returns `true` if it was enqueued, `false` if it
    /// was sampled out or dropped because the queue is full.
    pub fn publish(&self, event: LogEvent) -> bool {
        let mut state = self.state.lock().expect("log queue poisoned");
        let n = state.seen.entry(event.target()).or_insert(0);
        *n += 1;
        if !(*n - 1).is_multiple_of(self.sample_every) {
            return false;
        }
        if state.queue.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.queue.push_back(event);
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Events dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events accepted into the queue so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Undrained events currently queued.
    pub fn pending(&self) -> usize {
        self.state.lock().expect("log queue poisoned").queue.len()
    }

    /// Pop up to `max` queued events plus, when drops happened since the
    /// last note, a synthetic drop-note event.
    fn pop_batch(&self, max: usize) -> Vec<LogEvent> {
        let mut state = self.state.lock().expect("log queue poisoned");
        let take = state.queue.len().min(max);
        let mut batch: Vec<LogEvent> = state.queue.drain(..take).collect();
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > state.noted_dropped {
            state.noted_dropped = dropped;
            batch.push(
                LogEvent::new("log")
                    .field("msg", "events dropped: queue full")
                    .field("dropped_total", dropped),
            );
        }
        batch
    }

    /// Drain every queued event (and any pending drop note) as JSON
    /// lines into `w`.
    pub fn drain_into(&self, w: &mut impl Write) -> std::io::Result<()> {
        loop {
            let batch = self.pop_batch(256);
            if batch.is_empty() {
                return Ok(());
            }
            for event in &batch {
                writeln!(w, "{}", event.to_json_line())?;
            }
        }
    }
}

struct LoggerShared {
    core: LogCore,
    /// Writer-thread handshake: notified on publish and shutdown.
    wake: Condvar,
    flags: Mutex<LoggerFlags>,
}

struct LoggerFlags {
    shutdown: bool,
    /// The writer is mid-drain (between pop and write completion); used
    /// by [`EventLogger::flush`] to wait for durability, not just an
    /// empty queue.
    writing: bool,
}

/// Asynchronous JSON-lines logger: a [`LogCore`] drained by one
/// background writer thread. Dropping the logger shuts the thread down
/// after a final drain, so buffered events are never lost on orderly
/// exit.
pub struct EventLogger {
    shared: Arc<LoggerShared>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl EventLogger {
    /// Start a logger writing to `sink` with the given queue capacity
    /// and per-target sampling factor.
    pub fn new(sink: impl Write + Send + 'static, capacity: usize, sample_every: u64) -> Self {
        let shared = Arc::new(LoggerShared {
            core: LogCore::new(capacity, sample_every),
            wake: Condvar::new(),
            flags: Mutex::new(LoggerFlags {
                shutdown: false,
                writing: false,
            }),
        });
        let thread_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("bikron-log".to_string())
            .spawn(move || writer_loop(thread_shared, sink))
            .expect("spawn log writer thread");
        EventLogger {
            shared,
            writer: Some(writer),
        }
    }

    /// Start a logger appending to the file at `path` (created if
    /// missing).
    pub fn to_file(
        path: &std::path::Path,
        capacity: usize,
        sample_every: u64,
    ) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(EventLogger::new(
            std::io::BufWriter::new(file),
            capacity,
            sample_every,
        ))
    }

    /// Offer an event (non-blocking; may sample out or drop — see
    /// [`LogCore::publish`]).
    pub fn publish(&self, event: LogEvent) {
        if self.shared.core.publish(event) {
            self.shared.wake.notify_one();
        }
    }

    /// Events dropped so far because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.shared.core.dropped()
    }

    /// Block until everything published so far has been written to the
    /// sink (tests and orderly shutdown).
    pub fn flush(&self) {
        let mut flags = self.shared.flags.lock().expect("log flags poisoned");
        self.shared.wake.notify_one();
        while self.shared.core.pending() > 0 || flags.writing {
            let (guard, _) = self
                .shared
                .wake
                .wait_timeout(flags, Duration::from_millis(10))
                .expect("log flags poisoned");
            flags = guard;
            self.shared.wake.notify_one();
        }
    }
}

impl Drop for EventLogger {
    fn drop(&mut self) {
        {
            let mut flags = self.shared.flags.lock().expect("log flags poisoned");
            flags.shutdown = true;
        }
        self.shared.wake.notify_one();
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(shared: Arc<LoggerShared>, mut sink: impl Write) {
    loop {
        let shutdown = {
            let mut flags = shared.flags.lock().expect("log flags poisoned");
            while !flags.shutdown && shared.core.pending() == 0 {
                let (guard, _) = shared
                    .wake
                    .wait_timeout(flags, Duration::from_millis(50))
                    .expect("log flags poisoned");
                flags = guard;
            }
            flags.writing = true;
            flags.shutdown
        };
        // Drain with the flags lock released: disk latency never blocks
        // publishers (they only contend on the short queue lock).
        let _ = shared.core.drain_into(&mut sink);
        let _ = sink.flush();
        {
            let mut flags = shared.flags.lock().expect("log flags poisoned");
            flags.writing = false;
        }
        shared.wake.notify_all();
        if shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn event_serialises_compact_escaped_json() {
        let line = LogEvent::with_ts("access", 1234)
            .field("method", "GET")
            .field("path", "/v1/vertex/\"7\"")
            .field("status", 200u64)
            .field("cache_hit", true)
            .to_json_line();
        assert_eq!(
            line,
            "{\"ts_ms\": 1234, \"target\": \"access\", \"method\": \"GET\", \
             \"path\": \"/v1/vertex/\\\"7\\\"\", \"status\": 200, \"cache_hit\": true}"
        );
        // Lines parse back through the report JSON parser's string rules
        // (both share escape_into), so a quick structural check suffices.
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn full_queue_drops_and_notes() {
        let core = LogCore::new(2, 1);
        for i in 0..5u64 {
            core.publish(LogEvent::with_ts("t", i));
        }
        assert_eq!(core.published(), 2);
        assert_eq!(core.dropped(), 3);
        let mut out = Vec::new();
        core.drain_into(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Two real events plus the drop note.
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"dropped_total\": 3"));
        // The note is emitted once, not repeated on the next drain.
        let mut out2 = Vec::new();
        core.drain_into(&mut out2).unwrap();
        assert!(out2.is_empty());
    }

    #[test]
    fn sampling_keeps_every_nth_per_target() {
        let core = LogCore::new(100, 3);
        for i in 0..9u64 {
            core.publish(LogEvent::with_ts("a", i));
        }
        core.publish(LogEvent::with_ts("b", 0));
        // Targets sample independently: "a" keeps 1st, 4th, 7th; "b"
        // keeps its 1st.
        assert_eq!(core.pending(), 4);
        assert_eq!(core.dropped(), 0);
    }

    #[test]
    fn logger_writes_through_thread_and_flushes() {
        // A Write impl that forwards to an mpsc channel so the test can
        // observe what the writer thread actually wrote.
        struct ChannelSink(mpsc::Sender<Vec<u8>>);
        impl Write for ChannelSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.send(buf.to_vec()).ok();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let logger = EventLogger::new(ChannelSink(tx), 64, 1);
        for i in 0..10u64 {
            logger.publish(LogEvent::with_ts("access", i).field("i", i));
        }
        logger.flush();
        drop(logger);
        let written: Vec<u8> = rx.try_iter().flatten().collect();
        let text = String::from_utf8(written).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().all(|l| l.contains("\"target\": \"access\"")));
    }

    #[test]
    fn drop_flushes_remaining_events() {
        let dir = std::env::temp_dir().join("bikron_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("drop_flush_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let logger = EventLogger::to_file(&path, 64, 1).unwrap();
            for i in 0..5u64 {
                logger.publish(LogEvent::with_ts("t", i));
            }
            // No flush: Drop must drain.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_publishers_never_block_or_lose_accepted_events() {
        let core = Arc::new(LogCore::new(1 << 12, 1));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let core = Arc::clone(&core);
                s.spawn(move || {
                    for i in 0..500u64 {
                        core.publish(LogEvent::with_ts("t", t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(core.published(), 2000);
        assert_eq!(core.dropped(), 0);
        let mut out = Vec::new();
        core.drain_into(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2000);
    }
}
