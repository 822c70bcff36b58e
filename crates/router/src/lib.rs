#![warn(missing_docs)]

//! bikron-router: an HTTP front for a cluster of interchangeable
//! `bikron-serve` replicas.
//!
//! One router process fronts `N` serve processes started over the same
//! program. Every replica holds the whole program (the factors take
//! kilobytes and every answer is an O(1) closed form), so any replica
//! can answer any request: there is no ownership map, no directory and
//! no rebalancing.
//!
//! What the router does per endpoint class:
//!
//! - **Queries** (`/v1/vertex`, `/v1/edge`, `/v1/neighbors`,
//!   `/v1/clustering`, `/v1/edges`, `/v1/stats`, `/v1/community`,
//!   `/v1/scatter/degree-squares` and `POST /v1/batch`) are relayed
//!   whole, body and all, to one replica chosen round-robin over pooled
//!   keep-alive connections; the consecutive queries of a client's
//!   pipelined burst go to it as one run, in one write. The replica's
//!   answers come back verbatim and in order, so the client sees
//!   exactly the bytes a single node produces.
//! - **`/metrics`** aggregates: the router's own series plus every
//!   replica's report, prefixed `shard{i}.` in JSON and labelled
//!   `shard="i"` in Prometheus exposition.
//! - **`/v1/health`** probes all replicas; the cluster verdict is the
//!   worst replica verdict, with a per-replica detail array.
//!
//! The route of a request is serve's [`Route`](bikron_serve::http::Route):
//! the router relays exactly the [`Route::relayed`](bikron_serve::http::Route::relayed)
//! routes, answers `/metrics`, `/v1/health` and `/v1/admin/profile`
//! itself, and refuses the rest with a replica's own 404 and 405 bodies.
//! A relayed answer keeps its replica's `Content-Type` when it is one of
//! serve's [`CONTENT_TYPES`](bikron_serve::http::CONTENT_TYPES); any other
//! is a 503 naming the replica and the type.
//!
//! The router runs on the serve transport loop: [`RouterState`]
//! implements [`bikron_serve::Handler`], so `bikron_serve::Server`
//! serves it, and its upstreams use the shared
//! [`bikron_serve::client`].
//!
//! Failure policy (DESIGN.md §13): a dead replica costs capacity, never
//! a key range. A request whose answer had not begun when its replica
//! failed goes once to the next replica; a 503 means no replica
//! answered. `traceparent`
//! is adopted from the client and propagated to replicas, so
//! `bikron trace` shows router→replica span parentage.

pub mod aggregate;
pub mod state;
pub mod upstream;

pub use aggregate::split_batch_items;
pub use state::{parse_replica_url, ReplicaHealth, RouterMetrics, RouterOptions, RouterState};
pub use upstream::Upstream;
