//! bikron-serve: a long-running ground-truth query service.
//!
//! The paper's closed forms (Thms 3–7, Cors 1–2) make every per-vertex
//! and per-edge statistic of a Kronecker product answerable from
//! *factor-sized* state: the factor graphs plus their
//! [`FactorStats`](bikron_core::truth::FactorStats). This crate turns
//! that into a service — `bikron serve` holds O(Σ n_i + Σ m_i) memory
//! and answers queries about the (potentially enormous,
//! never-materialised) product. One evaluator answers every program: a
//! [`KronChain`](bikron_core::KronChain) with compositional ground
//! truth. The **expression server** (`--expr "(A+I)⊗B⊗C"`) runs any
//! chain; the classic pair server (`A B MODE` positional factors) runs
//! the 2-level chain `(A+I)⊗B` or `A⊗B` and keeps the pair wire format
//! (`alpha`/`beta`, `?a=&b=`, the Table-I `/v1/stats` body):
//!
//! | endpoint | cost | answer |
//! |---|---|---|
//! | `GET /v1/vertex/{p}` | O(k) | degree + butterfly count at `p` (Thm 3/4) |
//! | `GET /v1/edge/{p}/{q}` | O(k log d) | existence + per-edge squares (Thm 5) |
//! | `GET /v1/neighbors/{p}` | O(Σ log d_i + k·limit) | paged adjacency |
//! | `GET /v1/clustering/{p}/{q}` | O(k log d) | exact `Γ_C` + Thm 6 scaling-law bound |
//! | `GET /v1/community?a=…&b=…` | O(Σ\|S_i\| + Σ deg) | exact `m_in`/`m_out` (Thm 7) + Cor 1–2 density bounds (pair servers; `?s0=…&s1=…` per level on expression servers) |
//! | `GET /v1/scatter/degree-squares` | O(limit) | Fig-5-style `(vertex, degree, squares)` rows, JSON or CSV |
//! | `POST /v1/batch` | Σ per-item cost | up to `batch_max` of vertex/edge/neighbors, one JSON array |
//! | `GET /v1/stats` | O(1), cached | Table-I summary + canonicalised `expr` |
//! | `GET /v1/edges/{part}/{parts}` | O(factor + k·limit) | resumable edge stream, optionally annotated (Thm 5) |
//! | `GET /metrics` | O(metrics) | live `bikron-obs/4` report (`?format=prometheus` for text exposition) |
//! | `GET /v1/health` | O(1) | `ok`/`degraded` from windowed SLO signals |
//! | `GET /v1/shutdown` | O(1) | graceful stop (token-gated) |
//! | `GET /v1/admin/stall` | O(1) | debug latency injection (token-gated) |
//! | `GET /v1/admin/traces` | O(captured) | tail-sampled span trees (`?min_ms=`, token-gated) |
//! | `GET /v1/admin/profile` | O(stacks) | sampled CPU profile (`?seconds=`, `?format=folded`, token-gated) |
//!
//! (`k` = number of chain levels; 2 for pair servers. FORMULAS.md maps
//! each endpoint to its theorem, the chain method that answers it, and
//! the two-factor reference the tests compare it against.)
//!
//! No answer is cached: every keyed answer is an O(1)–O(deg) closed form,
//! cheaper to evaluate than to look up, so each request evaluates and
//! renders its answer straight into the response body (DESIGN.md §10.1).
//! The standalone [`cache`] module is not on any serving path.
//!
//! Like the rest of the workspace the crate is std-only: the HTTP/1.1
//! layer ([`http`]) is hand-rolled with hard bounds on every input
//! dimension, and the thread pool ([`pool`]) sheds load with 503 instead
//! of queueing unboundedly (or 408 past [`pool::REQUEST_DEADLINE`]); it
//! also runs `bikron router` through [`Handler`], and [`client`] is
//! every bikron caller's HTTP client. Per-request memory is bounded by the page
//! `limit` cap (times `batch_max` for a batch), never by product size —
//! the "sublinear memory per request" in the service's name.
//!
//! For operations, every request also feeds rolling 1m/5m windows
//! (rates and windowed percentiles alongside the cumulative series) and,
//! with `--access-log`, one bounded, sampled JSON-lines access event per
//! request. `bikron monitor URL` renders the `/metrics` feed as a live
//! dashboard.
//!
//! Every request is also assigned a W3C trace context: an inbound
//! `traceparent` header is adopted (the server becomes a child span),
//! otherwise ids are generated. The trace id is echoed in the
//! `x-bikron-trace-id` response header, stamped into error bodies and
//! access-log lines, and — when `--trace-slow-ms` or `--trace-sample`
//! is set — slow requests keep their full span tree in a bounded ring,
//! retrievable via `GET /v1/admin/traces` and rendered by
//! `bikron trace URL`.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod http;
pub mod pool;
pub mod signal;
pub mod snapshot;
pub mod state;

pub use cache::{CacheKey, ShardedCache};
pub use pool::{Handler, Server, ServerConfig, Transport};
pub use snapshot::{Snapshot, SnapshotError};
pub use state::{
    check_admin, profile_response, without_snapshot_field, ServeOptions, ServeState, WarmInfo,
    DEFAULT_BATCH_MAX, DEFAULT_LIMIT, MAX_LIMIT, MAX_PROFILE_SECONDS,
};

/// Total capacity of a default-sized [`ShardedCache`], in entries.
pub const DEFAULT_CACHE_ENTRIES: usize = 65_536;
/// Shard count of a default-sized [`ShardedCache`].
pub const DEFAULT_CACHE_SHARDS: usize = 16;
