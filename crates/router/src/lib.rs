#![warn(missing_docs)]

//! bikron-router: a scatter-gather HTTP front for a sharded
//! `bikron-serve` cluster.
//!
//! One router process fronts `N` shard processes, each started with
//! `bikron serve … --shard I/N`. The ownership map is the same block
//! tiling [`bikron_core::partition`] defines (and
//! `PartitionedStream`/distsim already use): shard `I` owns product
//! vertices `[I·ceil(n/N), (I+1)·ceil(n/N)) ∩ [0, n)`. Because every
//! shard holds the *full* factor-sized state (the factors are tiny; only
//! the query key space is partitioned), routing is pure arithmetic — no
//! directory, no rebalancing, no cross-shard joins.
//!
//! What the router does per endpoint class:
//!
//! - **Keyed reads** (`/v1/vertex/{p}`, `/v1/edge/{p}/{q}`,
//!   `/v1/neighbors/{p}`, `/v1/clustering/{p}/{q}`) relay to the owner
//!   of `p` over pooled keep-alive connections, bodies byte-identical.
//! - **`POST /v1/batch`** is split per owning shard, sent to every
//!   owning shard before any answer is read, and reassembled in original
//!   line order — the client sees exactly the array a single-node server
//!   would have produced.
//! - **`/metrics`** aggregates: the router's own series plus every
//!   shard's report, prefixed `shard{i}.` in JSON and labelled
//!   `shard="i"` in Prometheus exposition.
//! - **`/v1/health`** probes all shards; the cluster verdict is the
//!   worst shard verdict, with a per-shard detail array.
//!
//! The router runs on the shard's own transport loop: [`RouterState`]
//! implements [`bikron_serve::Handler`], so `bikron_serve::Server`
//! serves it, and its upstreams use the shared
//! [`bikron_serve::client`].
//!
//! Failure policy (DESIGN.md §13): one retry on a freshly opened
//! connection, then a 503 scoped to the dead shard's key range — keys
//! owned by live shards keep answering. `traceparent` is adopted from
//! the client and propagated to shards, so `bikron trace` shows
//! router→shard span parentage.

pub mod aggregate;
pub mod state;
pub mod upstream;

pub use aggregate::{shard_labelled_exposition, split_batch_items};
pub use state::{parse_shard_url, RouterMetrics, RouterOptions, RouterState, ShardHealth};
pub use upstream::Upstream;
