#![warn(missing_docs)]

//! # bikron-obs
//!
//! Zero-dependency, thread-safe instrumentation for the bikron workspace:
//! scoped **phase timers** (monotonic, nestable), atomic **counters**,
//! **gauges**, and log2-bucketed **histograms**, a bounded **span
//! collector** with Chrome `trace_event` export ([`trace`]), rolling
//! **time-windowed** counters/histograms for 1m/5m rates and percentiles
//! ([`window`]), Prometheus text exposition ([`prom`]), a bounded
//! structured-event **logger** ([`log`]), request-scoped **trace
//! contexts and span trees** with W3C `traceparent` propagation and
//! tail-based slow-request capture ([`span`]), a continuous wall-clock
//! **sampling profiler** over the phase machinery ([`profile`]), and a
//! [`Report`] snapshot that
//! serialises to a stable JSON schema (`bikron-obs/4`) and parses back
//! ([`Report::from_json`], which also reads v1–v3 reports). The
//! paper's lineage validated a quadrillion
//! triangles by instrumenting the generation pipeline itself; this crate
//! is that discipline for bikron — every hot path (SpGEMM, Kronecker
//! fill, edge streaming, butterfly counting, distributed reduction)
//! reports what it did, how long it took, and how the work was
//! *distributed* across rows/blocks/vertices/ranks, so each PR's perf is
//! diffable (`BENCH_kron.json`), enforceable (`bikron perfdiff`), and
//! formula drift shows up as a counter mismatch rather than silence.
//!
//! ## One phase stack per thread
//!
//! Every phase a thread opens — [`Registry::phase`], the registry-free
//! [`phase`], or the span-only [`child_span`] — is one frame on that
//! thread's single stack of open phases, and its [`PhaseGuard`] is the
//! one event the consumers share: the registry timer (`outer/inner`
//! paths, registry frames only), the Chrome ring ([`trace`], registry
//! frames only), the profiler's published stack ([`profile`], while
//! armed), and the span tree of the request attached to the thread
//! ([`attach_request`], [`span`]).
//!
//! Everything is hand-rolled on [`std::sync::atomic`] and
//! [`std::time::Instant`] — no `tracing`, no `serde` — so release-mode
//! overhead is a handful of relaxed atomic adds per *kernel invocation*
//! (never per element) and the offline build keeps working.
//!
//! ## Quickstart
//!
//! ```
//! use bikron_obs::{global, Registry};
//!
//! // Hot path: bump counters / time phases against the global registry.
//! let _t = global().phase("demo.compute");
//! global().counter("demo.items").add(42);
//! drop(_t);
//!
//! // Edge of the program: snapshot and serialise.
//! let mut report = global().snapshot();
//! report.set_meta("workload", "demo");
//! let json = report.to_json();
//! assert!(json.contains("\"demo.items\": 42"));
//! ```
//!
//! Scoped registries (`Registry::new()`) serve tests and embedded use;
//! the process-wide [`global()`] registry serves the CLI's
//! `--metrics-out` flag and the `perf_report` binary.

mod frames;
mod histogram;
pub mod json;
pub mod log;
mod metrics;
mod parse;
pub mod profile;
pub mod prom;
mod registry;
mod report;
pub mod span;
pub mod trace;
pub mod window;

pub use frames::{attach_request, child_span, phase, AttachedRequest, PhaseGuard};
pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram, NUM_BUCKETS};
pub use json::JsonWriter;
pub use log::{EventLogger, LogEvent, LogValue};
pub use metrics::{Counter, Gauge, GaugeGuard, TimerStats};
pub use parse::{
    flat_str_field, flat_u64_field, flat_u64_field_last, parse_json, JsonValue, ParseError,
};
pub use profile::ProfileSnapshot;
pub use registry::Registry;
pub use report::{Report, TimerSnapshot};
pub use span::{RequestTrace, SampleReason, SpanRecorder, SpanSink, TraceContext};
pub use trace::{SpanEvent, TraceCollector};
pub use window::{WindowKind, WindowRegistry, WindowSnapshot, WindowStats};

use std::sync::{Arc, OnceLock};

/// The process-wide registry. Hot paths in `bikron-sparse`, `bikron-core`,
/// `bikron-analytics`, and `bikron-distsim` record here; the CLI's
/// `--metrics-out` and the `perf_report` binary snapshot it.
pub fn global() -> &'static Registry {
    global_shared_ref()
}

/// A shared handle on the process-wide registry, for an owner that may
/// equally hold a private one (a server's transport metrics).
pub fn global_shared() -> Arc<Registry> {
    Arc::clone(global_shared_ref())
}

fn global_shared_ref() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(Arc::default)
}

/// Schema identifier emitted in every JSON report. [`Report::from_json`]
/// additionally accepts [`SCHEMA_V1`] (predates histograms),
/// [`SCHEMA_V2`] (predates windows), and [`SCHEMA_V3`] (predates the
/// profile section) reports.
pub const SCHEMA: &str = "bikron-obs/4";

/// The v3 schema identifier (no `profile` section), still accepted on
/// input.
pub const SCHEMA_V3: &str = "bikron-obs/3";

/// The v2 schema identifier (no `windows` section), still accepted on
/// input.
pub const SCHEMA_V2: &str = "bikron-obs/2";

/// The v1 schema identifier (no `histograms` section), still accepted on
/// input.
pub const SCHEMA_V1: &str = "bikron-obs/1";
