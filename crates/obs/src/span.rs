//! Request-scoped tracing: trace contexts, span trees, and tail-based
//! slow-request capture.
//!
//! The aggregate layers ([`crate::trace`] process spans, windowed
//! histograms, access logs) answer "how is the server doing"; this
//! module answers "why was *that request* slow". Three pieces:
//!
//! * [`TraceContext`] — a W3C `traceparent` identity (128-bit trace id,
//!   64-bit span id, flags) with strict parse/format. Ids are generated
//!   from a per-thread xorshift state seeded via [`RandomState`], so no
//!   external RNG crate is needed and generation costs a few arithmetic
//!   ops per request.
//! * [`SpanRecorder`] — one per *traced request*: a plain single-owner
//!   arena of spans with nanosecond offsets relative to the request's
//!   first span. The serving pool attaches one to the worker thread that
//!   handles the request ([`crate::attach_request`]); from then on every
//!   phase that thread opens records one span into it (see `frames.rs`),
//!   so no call site threads a recorder through. Span ids are derived
//!   from the root span id when the trace is finished. Bounded at
//!   [`MAX_SPANS_PER_REQUEST`]; overflow is dropped *and counted*.
//! * [`SpanSink`] — a bounded ring of captured [`RequestTrace`]s with
//!   **tail-based sampling**: after a request completes, its tree is
//!   retained iff the total latency exceeded the sink's slow threshold
//!   (`--trace-slow-ms`) or it won the 1-in-N head sample
//!   (`--trace-sample`). The ring overwrites oldest-first under an
//!   atomic cursor with per-slot mutexes (the same bounded-ring idiom as
//!   [`crate::trace::TraceCollector`]), so capture never blocks the
//!   request path on a global lock.
//!
//! Why tail-based: the paper's closed forms make every answer
//! O(1)–O(deg), so slowness is *operational* (queueing, stalls) and
//! rare — sampling decisions made at request *start* (head
//! sampling) would miss exactly the outliers worth keeping. Recording a
//! span tree is cheap (a handful of `Instant::now` calls and one small
//! `Vec`), so every request records when the sink is enabled and the
//! keep/drop decision happens at the end, when the latency is known.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::JsonWriter;

/// Hard cap on spans recorded per request: `--batch-max` defaults to 256
/// items (one child span each) plus the fixed accept/parse/evaluate/
/// serialize/write skeleton, with headroom for future layers. Requests
/// exceeding this keep their first `MAX_SPANS_PER_REQUEST` spans; the
/// rest are counted in [`SpanSink::dropped_spans`].
pub const MAX_SPANS_PER_REQUEST: usize = 512;

/// W3C `traceparent` identity for one request: who asked (the remote
/// trace, if a valid header was supplied) and which span of that trace
/// this server's work is. The all-zero `Default` is no valid identity;
/// it stands in until a request's context is known.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id; never zero (all-zero is invalid per W3C).
    pub trace_id: u128,
    /// 64-bit span id of *this* server's root span; never zero.
    pub span_id: u64,
    /// The `trace-flags` byte (bit 0 = sampled).
    pub flags: u8,
}

impl TraceContext {
    /// Parse a W3C `traceparent` header value. Strict per the spec:
    ///
    /// * four `-`-separated fields: `version`, `trace-id` (32 hex),
    ///   `parent-id` (16 hex), `trace-flags` (2 hex);
    /// * **lowercase** hex only (uppercase is explicitly invalid);
    /// * version `ff` is forbidden; version `00` must have exactly four
    ///   fields, while higher versions may carry extra suffix fields
    ///   (accepted and ignored, per the forward-compat rule);
    /// * all-zero trace ids and all-zero parent ids are invalid.
    ///
    /// Returns `None` on any violation — callers fall back to
    /// generating fresh ids, so a malformed header can never poison
    /// propagation.
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let value = value.trim();
        let mut fields = value.split('-');
        let version = fields.next()?;
        let trace_hex = fields.next()?;
        let parent_hex = fields.next()?;
        let flags_hex = fields.next()?;
        let extra = fields.next();
        if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
            return None;
        }
        if version == "00" && extra.is_some() {
            return None;
        }
        if trace_hex.len() != 32 || parent_hex.len() != 16 || flags_hex.len() != 2 {
            return None;
        }
        if !is_lower_hex(trace_hex) || !is_lower_hex(parent_hex) || !is_lower_hex(flags_hex) {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(parent_hex, 16).ok()?;
        let flags = u8::from_str_radix(flags_hex, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            flags,
        })
    }

    /// Render as a version-00 `traceparent` header value.
    pub fn to_traceparent(&self) -> String {
        self.traceparent_into(&mut [0; 55]).to_string()
    }

    /// [`TraceContext::to_traceparent`] written into `buf`, without
    /// allocating: `00-{trace id}-{span id}-{flags}` in lowercase hex.
    pub fn traceparent_into<'a>(&self, buf: &'a mut [u8; 55]) -> &'a str {
        buf[..3].copy_from_slice(b"00-");
        hex_into(&mut buf[3..35], self.trace_id);
        buf[35] = b'-';
        hex_into(&mut buf[36..52], u128::from(self.span_id));
        buf[52] = b'-';
        hex_into(&mut buf[53..55], u128::from(self.flags));
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }

    /// The 32-hex-char trace id, as surfaced in `x-bikron-trace-id`
    /// response headers, error bodies, and access-log records.
    pub fn trace_id_hex(&self) -> String {
        self.trace_id_hex_into(&mut [0; 32]).to_string()
    }

    /// [`TraceContext::trace_id_hex`] written into `buf`, without
    /// allocating.
    pub fn trace_id_hex_into<'a>(&self, buf: &'a mut [u8; 32]) -> &'a str {
        hex_into(buf, self.trace_id);
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }

    /// Generate a fresh context (new trace id, new root span id,
    /// flags = sampled).
    pub fn generate() -> TraceContext {
        let hi = next_random();
        let lo = next_random();
        let trace_id = ((hi as u128) << 64 | lo as u128).max(1);
        TraceContext {
            trace_id,
            span_id: next_random().max(1),
            flags: 0x01,
        }
    }

    /// The context for *this server's* work when continuing a remote
    /// trace: same trace id, fresh span id (the remote `parent-id` is
    /// kept separately as the root span's parent).
    pub fn child_of(remote: TraceContext) -> TraceContext {
        TraceContext {
            trace_id: remote.trace_id,
            span_id: next_random().max(1),
            flags: remote.flags,
        }
    }
}

/// Write the low `out.len()` nibbles of `value` into `out` as lowercase
/// hex digits, most significant first.
fn hex_into(out: &mut [u8], value: u128) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let digits = out.len();
    for (i, digit) in out.iter_mut().enumerate() {
        let nibble = (value >> (4 * (digits - 1 - i))) & 0xf;
        *digit = HEX[nibble as usize];
    }
}

fn is_lower_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Per-thread xorshift64* state, seeded once from [`RandomState`] (the
/// std hasher's per-process random keys) mixed with a global counter, so
/// ids are unpredictable across processes and unique across threads
/// without any RNG dependency.
fn next_random() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = Cell::new(seed_entropy());
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    })
}

fn seed_entropy() -> u64 {
    static SALT: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut h = RandomState::new().build_hasher();
    h.write_u64(SALT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed));
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    h.write_u64(nanos);
    let seed = h.finish();
    if seed == 0 {
        0xDEAD_BEEF_CAFE_F00D
    } else {
        seed
    }
}

/// One completed span inside a request tree. Offsets are nanoseconds
/// relative to the request's start, so a whole tree is self-contained
/// and serialisable without wall-clock skew.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`accept`, `parse`, `evaluate`, `batch[3] vertex`, …).
    pub name: String,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// Parent span id; the request's root span id for top-level spans.
    pub parent_id: u64,
    /// Start offset from request start, nanoseconds.
    pub start_ns: u64,
    /// End offset from request start, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

/// Why a trace was retained by the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleReason {
    /// Total latency exceeded the slow threshold (tail sampling).
    Slow,
    /// Won the 1-in-N head sample.
    Head,
}

impl SampleReason {
    /// Stable string used in JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            SampleReason::Slow => "slow",
            SampleReason::Head => "head",
        }
    }
}

/// A captured request: identity, outcome metadata, and the span tree.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Trace identity (id propagated or generated, root span id).
    pub ctx: TraceContext,
    /// Remote parent span id from an inbound `traceparent`, 0 if none.
    pub remote_parent: u64,
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Bounded path shape (`/v1/vertex/{n}`).
    pub path_shape: String,
    /// Response status code.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Total request latency, nanoseconds.
    pub total_ns: u64,
    /// Why the sink kept this trace.
    pub reason: SampleReason,
    /// Capture sequence number (monotonic per sink; newer is larger).
    pub seq: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The completed spans, in begin order.
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// Serialise this trace as one JSON object into `w` (ids in hex,
    /// durations as integer nanoseconds — the bikron-obs all-integer
    /// convention).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_object();
        w.string_field("trace_id", &self.ctx.trace_id_hex());
        w.string_field("root_span_id", &format!("{:016x}", self.ctx.span_id));
        if self.remote_parent != 0 {
            w.string_field("remote_parent", &format!("{:016x}", self.remote_parent));
        } else {
            w.null_field("remote_parent");
        }
        w.string_field("method", &self.method);
        w.string_field("path", &self.path_shape);
        w.u64_field("status", self.status as u64);
        w.u64_field("bytes", self.bytes);
        w.u64_field("total_ns", self.total_ns);
        w.string_field("sampled", self.reason.as_str());
        w.u64_field("unix_ms", self.unix_ms);
        w.key("spans");
        w.open_array();
        for s in &self.spans {
            w.array_element();
            w.open_object();
            w.string_field("name", &s.name);
            w.string_field("span_id", &format!("{:016x}", s.span_id));
            w.string_field("parent_id", &format!("{:016x}", s.parent_id));
            w.u64_field("start_ns", s.start_ns);
            w.u64_field("end_ns", s.end_ns);
            w.close_object();
        }
        w.close_array();
        w.close_object();
    }
}

/// Per-request span arena, owned by one thread at a time. The serving
/// pool attaches one (through [`crate::attach_request`]) only when its
/// [`SpanSink`] is enabled; its identity is zero until the request is
/// parsed.
#[derive(Default)]
pub struct SpanRecorder {
    ctx: TraceContext,
    remote_parent: u64,
    /// The clock's zero: when the first span began. The pool's first
    /// span is `accept`, opened as the socket read starts, so `accept`
    /// covers read time that elapsed *before* the headers (and hence
    /// the trace identity) were known.
    started: Option<Instant>,
    spans: Vec<OpenSpan>,
    overflow: u64,
}

/// A span as recorded: parent by index, ids assigned at finish.
struct OpenSpan {
    name: String,
    /// Index of the parent span; `None` for the request's root span.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl SpanRecorder {
    /// Set the request's identity; `remote_parent` is the inbound
    /// `traceparent`'s parent-id (0 when the request started a fresh
    /// trace). Known only once the request is parsed, so it may come
    /// after the first spans.
    pub(crate) fn set_context(&mut self, ctx: TraceContext, remote_parent: u64) {
        self.ctx = ctx;
        self.remote_parent = remote_parent;
    }

    fn now_ns(&mut self) -> u64 {
        match self.started {
            Some(started) => started.elapsed().as_nanos() as u64,
            None => {
                self.started = Some(Instant::now());
                0
            }
        }
    }

    /// Begin a span named `name` under span `parent` (`None`: the
    /// request's root span); returns its index for [`SpanRecorder::end`].
    /// Returns `None` when the per-request cap is hit (the drop is
    /// counted and folded into the sink's `dropped_spans` at offer).
    pub(crate) fn begin(&mut self, name: String, parent: Option<usize>) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS_PER_REQUEST {
            self.overflow += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(OpenSpan {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// End span `index`, stamping its end offset.
    pub(crate) fn end(&mut self, index: usize) {
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(index) {
            s.end_ns = end_ns;
        }
    }

    /// Spans rejected by the per-request cap.
    pub(crate) fn overflowed(&self) -> u64 {
        self.overflow
    }

    /// The recorded spans in begin order, with their ids: span `i` is
    /// `mix_span_id(root, i + 1)`, so ids are unique within the trace
    /// and cost no RNG draw.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let root = self.ctx.span_id;
        let id = |index: usize| mix_span_id(root, index as u64 + 1);
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| SpanRecord {
                name: s.name.clone(),
                span_id: id(i),
                parent_id: s.parent.map_or(root, id),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            })
            .collect()
    }

    /// Consume the recorder into a [`RequestTrace`] with the given
    /// outcome metadata (`seq`/`unix_ms` are stamped by the sink).
    fn into_trace(
        self,
        method: &str,
        path_shape: &str,
        status: u16,
        bytes: u64,
        total_ns: u64,
        reason: SampleReason,
    ) -> RequestTrace {
        RequestTrace {
            ctx: self.ctx,
            remote_parent: self.remote_parent,
            method: method.to_string(),
            path_shape: path_shape.to_string(),
            status,
            bytes,
            total_ns,
            reason,
            seq: 0,
            unix_ms: 0,
            spans: self.spans(),
        }
    }
}

/// SplitMix64 finalizer over `root ^ seq` — distinct, well-mixed child
/// span ids without per-span RNG draws.
fn mix_span_id(root: u64, seq: u64) -> u64 {
    let mut z = root ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z.max(1)
}

/// Bounded ring of captured [`RequestTrace`]s with tail-based sampling.
///
/// A sink is constructed once per server from `--trace-slow-ms` /
/// `--trace-sample`; both zero means tracing is disabled and no
/// recorder is ever attached ([`SpanSink::enabled`] gates the per-
/// request cost down to the id handshake).
pub struct SpanSink {
    slots: Box<[Mutex<Option<Arc<RequestTrace>>>]>,
    /// Requests offered (completed while tracing was enabled).
    seen: AtomicU64,
    /// Traces retained (tail or head sampled) — ring overwrites included.
    captured: AtomicU64,
    /// Spans lost to the per-request cap, across all requests.
    dropped_spans: AtomicU64,
    slow_ns: u64,
    sample_every: u64,
}

/// Default ring capacity: 256 captured traces ≈ a few MB worst case
/// (bounded by `MAX_SPANS_PER_REQUEST`), enough to hold every slow
/// request of a multi-minute incident window at sane thresholds.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

impl SpanSink {
    /// New sink retaining up to `capacity` traces; `slow_ms > 0` enables
    /// tail sampling at that threshold, `sample_every > 0` additionally
    /// head-samples 1-in-N requests.
    pub fn new(capacity: usize, slow_ms: u64, sample_every: u64) -> SpanSink {
        let capacity = capacity.max(1);
        SpanSink {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            seen: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
            slow_ns: slow_ms.saturating_mul(1_000_000),
            sample_every,
        }
    }

    /// Whether any sampling policy is active (requests are only
    /// attached a recorder when true).
    pub fn enabled(&self) -> bool {
        self.slow_ns > 0 || self.sample_every > 0
    }

    /// Offer a completed request's recorder. Returns the capture
    /// decision: `Some(reason)` when retained in the ring, `None` when
    /// the request was fast and lost the head sample.
    pub fn offer(
        &self,
        recorder: SpanRecorder,
        method: &str,
        path_shape: &str,
        status: u16,
        bytes: u64,
        total_ns: u64,
    ) -> Option<SampleReason> {
        let overflow = recorder.overflowed();
        if overflow > 0 {
            self.dropped_spans.fetch_add(overflow, Ordering::Relaxed);
        }
        let nth = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let reason = if self.slow_ns > 0 && total_ns >= self.slow_ns {
            SampleReason::Slow
        } else if self.sample_every > 0 && nth.is_multiple_of(self.sample_every) {
            SampleReason::Head
        } else {
            return None;
        };
        let seq = self.captured.fetch_add(1, Ordering::Relaxed) + 1;
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut trace = recorder.into_trace(method, path_shape, status, bytes, total_ns, reason);
        trace.seq = seq;
        trace.unix_ms = unix_ms;
        let slot = (seq as usize - 1) % self.slots.len();
        *self.slots[slot].lock().unwrap() = Some(Arc::new(trace));
        Some(reason)
    }

    /// Traces currently retained, newest first, filtered to
    /// `total_ns >= min_ns`.
    pub fn snapshot(&self, min_ns: u64) -> Vec<Arc<RequestTrace>> {
        let mut out: Vec<Arc<RequestTrace>> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .filter(|t| t.total_ns >= min_ns)
            .collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.seq));
        out
    }

    /// Requests offered to the sink since startup.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Traces retained since startup (including ones since overwritten).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Spans lost to the per-request cap since startup.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// The tail-sampling threshold, in milliseconds (0 = disabled).
    pub fn slow_ms(&self) -> u64 {
        self.slow_ns / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: u128, span: u64) -> TraceContext {
        TraceContext {
            trace_id: trace,
            span_id: span,
            flags: 1,
        }
    }

    #[test]
    fn traceparent_round_trip() {
        let c = ctx(
            0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c,
            0x00f0_67aa_0ba9_02b7,
        );
        let s = c.to_traceparent();
        assert_eq!(s, "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01");
        assert_eq!(TraceContext::parse_traceparent(&s), Some(c));
    }

    /// The buffer-rendered trace id is the zero-padded `{:032x}` form.
    #[test]
    fn trace_id_hex_matches_the_formatted_id() {
        for trace in [1u128, 0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c, u128::MAX] {
            let c = ctx(trace, 1);
            assert_eq!(c.trace_id_hex_into(&mut [0; 32]), format!("{trace:032x}"));
            assert_eq!(c.trace_id_hex(), format!("{trace:032x}"));
        }
    }

    /// The buffer-rendered `traceparent` is the zero-padded formatted one.
    #[test]
    fn traceparent_into_matches_the_formatted_header() {
        for (trace, span, flags) in [(1u128, 1u64, 0u8), (u128::MAX, u64::MAX, 0xff), (7, 9, 1)] {
            let c = TraceContext {
                trace_id: trace,
                span_id: span,
                flags,
            };
            assert_eq!(
                c.traceparent_into(&mut [0; 55]),
                format!("00-{trace:032x}-{span:016x}-{flags:02x}")
            );
        }
    }

    /// The W3C fuzz matrix: every malformed class the spec calls out
    /// must be rejected (and must not panic).
    #[test]
    fn traceparent_rejects_malformed() {
        let bad = [
            "",
            "00",
            "00-",
            "garbage",
            // wrong field lengths
            "00-0af7651916cd43dd8448eb211c80319-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319cc-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-1",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-013",
            // short / missing fields
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7",
            "00-0af7651916cd43dd8448eb211c80319c",
            // uppercase hex is invalid per spec
            "00-0AF7651916CD43DD8448EB211C80319C-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-00F067AA0BA902B7-01",
            // non-hex
            "00-0af7651916cd43dd8448eb211c80319g-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902bz-01",
            "0x-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            // all-zero ids
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            // forbidden / malformed versions
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            "0-00af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            "000-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            // version 00 must not carry extra fields
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-extra",
        ];
        for input in bad {
            assert_eq!(
                TraceContext::parse_traceparent(input),
                None,
                "should reject {input:?}"
            );
        }
    }

    /// Future versions may carry extra suffix fields; we take the first
    /// four and ignore the rest.
    #[test]
    fn traceparent_accepts_future_versions() {
        let c = TraceContext::parse_traceparent(
            "cc-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-what-the-future-holds",
        )
        .expect("future version accepted");
        assert_eq!(c.span_id, 0x00f0_67aa_0ba9_02b7);
    }

    #[test]
    fn generated_ids_are_nonzero_and_distinct() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        let child = TraceContext::child_of(a);
        assert_eq!(child.trace_id, a.trace_id);
        assert_ne!(child.span_id, a.span_id);
    }

    /// A recorder with identity `(trace, span)` and remote parent
    /// `remote`.
    fn recorder(trace: u128, span: u64, remote: u64) -> SpanRecorder {
        let mut r = SpanRecorder::default();
        r.set_context(ctx(trace, span), remote);
        r
    }

    #[test]
    fn recorder_builds_a_tree() {
        let mut r = recorder(7, 11, 5);
        let parse = r.begin("parse".into(), None).unwrap();
        r.end(parse);
        let eval = r.begin("evaluate".into(), None);
        let item = r.begin("batch[0] vertex".into(), eval).unwrap();
        r.end(item);
        r.end(eval.unwrap());
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent_id, 11, "top-level spans parent to root");
        assert_eq!(spans[2].parent_id, spans[1].span_id);
        assert_eq!(spans[0].start_ns, 0, "the first span starts the clock");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Span ids are unique within the trace, and derived from the
        // root span id as the sequence mix.
        assert_eq!(spans[0].span_id, mix_span_id(11, 1));
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn recorder_caps_spans_and_counts_overflow() {
        let mut r = recorder(1, 1, 0);
        for _ in 0..MAX_SPANS_PER_REQUEST + 10 {
            if let Some(t) = r.begin("x".into(), None) {
                r.end(t);
            }
        }
        assert_eq!(r.spans().len(), MAX_SPANS_PER_REQUEST);
        assert_eq!(r.overflowed(), 10);
    }

    #[test]
    fn sink_tail_samples_slow_requests_only() {
        let sink = SpanSink::new(8, 50, 0);
        assert!(sink.enabled());
        let fast = recorder(1, 1, 0);
        assert_eq!(
            sink.offer(fast, "GET", "/v1/vertex/{n}", 200, 10, 1_000_000),
            None
        );
        let slow = recorder(2, 2, 0);
        assert_eq!(
            sink.offer(slow, "GET", "/v1/admin/stall", 200, 10, 300_000_000),
            Some(SampleReason::Slow)
        );
        assert_eq!(sink.seen(), 2);
        assert_eq!(sink.captured(), 1);
        let traces = sink.snapshot(0);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].path_shape, "/v1/admin/stall");
        assert_eq!(traces[0].reason, SampleReason::Slow);
        // min_ns filter excludes it.
        assert!(sink.snapshot(400_000_000).is_empty());
    }

    #[test]
    fn sink_head_samples_one_in_n() {
        let sink = SpanSink::new(16, 0, 4);
        let mut kept = 0;
        for i in 0..16u128 {
            let r = recorder(i + 1, 3, 0);
            if sink.offer(r, "GET", "/v1/stats", 200, 1, 1000).is_some() {
                kept += 1;
            }
        }
        assert_eq!(kept, 4);
        assert!(sink
            .snapshot(0)
            .iter()
            .all(|t| t.reason == SampleReason::Head));
    }

    #[test]
    fn sink_ring_overwrites_oldest() {
        let sink = SpanSink::new(4, 1, 0);
        for i in 0..10u128 {
            let r = recorder(i + 1, 1, 0);
            sink.offer(r, "GET", "/x", 200, 1, 2_000_000);
        }
        let traces = sink.snapshot(0);
        assert_eq!(traces.len(), 4, "bounded at capacity");
        assert_eq!(sink.captured(), 10);
        // Newest first, and only the newest four survive.
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![10, 9, 8, 7]);
    }

    #[test]
    fn sink_folds_recorder_overflow_into_dropped() {
        let sink = SpanSink::new(4, 1, 0);
        let mut r = recorder(1, 1, 0);
        for _ in 0..MAX_SPANS_PER_REQUEST + 3 {
            if let Some(t) = r.begin("s".into(), None) {
                r.end(t);
            }
        }
        sink.offer(r, "POST", "/v1/batch", 200, 1, 2_000_000);
        assert_eq!(sink.dropped_spans(), 3);
    }

    #[test]
    fn disabled_sink_reports_disabled() {
        let sink = SpanSink::new(4, 0, 0);
        assert!(!sink.enabled());
    }

    #[test]
    fn trace_json_shape() {
        let mut r = recorder(0xabc, 0xdef, 0x123);
        let t = r.begin("evaluate".into(), None).unwrap();
        r.end(t);
        let sink = SpanSink::new(4, 1, 0);
        sink.offer(r, "GET", "/v1/vertex/{n}", 200, 64, 5_000_000);
        let traces = sink.snapshot(0);
        let mut w = JsonWriter::new();
        traces[0].write_json(&mut w);
        let json = w.finish();
        assert!(json.contains("\"trace_id\": \"00000000000000000000000000000abc\""));
        assert!(json.contains("\"root_span_id\": \"0000000000000def\""));
        assert!(json.contains("\"remote_parent\": \"0000000000000123\""));
        assert!(json.contains("\"path\": \"/v1/vertex/{n}\""));
        assert!(json.contains("\"total_ns\": 5000000"));
        assert!(json.contains("\"sampled\": \"slow\""));
        assert!(json.contains("\"name\": \"evaluate\""));
    }
}
