//! The `bikron-snap/1` snapshot format: persistence for warm restarts.
//!
//! A snapshot captures everything a server computed at boot that is
//! expensive or order-sensitive — the factor graphs, their
//! [`FactorStats`] and the cached `/v1/stats` body (which embeds the
//! O(product)-cost degree histogram and global square count on pair
//! servers) — so a restart rebuilds [`crate::ServeState`] by *decoding*
//! instead of *recomputing*.
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes  b"BIKRSNAP"
//! version  u64 LE   1
//! section × 4, in fixed order:
//!   tag      u64 LE   1=META 2=FACTORS 3=STATS_JSON 4=CACHE
//!   len      u64 LE   payload byte length
//!   payload  len bytes
//!   checksum u64 LE   FNV-1a over the payload
//! ```
//!
//! The CACHE section once held the server's hottest result-cache
//! entries. The server no longer keeps a result cache, so the writer
//! emits it empty (a zero entry count) and the reader checksums and
//! parses whatever it holds, then discards the entries: files written
//! with entries still load, and still fail loudly when corrupt.
//!
//! Per DESIGN.md §9.1 the schema version is strict: a reader never
//! guesses at unknown versions (`UnsupportedVersion`), every section is
//! sealed by its own checksum (`ChecksumMismatch` names the section),
//! and a snapshot embeds the canonical expression it was taken for —
//! loading it under a different program is an `ExpressionMismatch`, and
//! matching expressions with different factor *graphs* (same names,
//! different edges) is a `FactorMismatch`. All decode failures are named
//! errors; none panic.

use std::fmt;

use bikron_core::snap::{put_factor_stats, put_graph, read_factor_stats, read_graph};
use bikron_core::truth::FactorStats;
use bikron_core::SelfLoopMode;
use bikron_graph::Graph;
use bikron_sparse::snap::{fnv1a, put_str, put_u64, ByteReader, SnapError};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"BIKRSNAP";
/// The schema version this build reads and writes.
pub const VERSION: u64 = 1;
/// Schema identifier advertised in logs and docs.
pub const SCHEMA: &str = "bikron-snap/1";

const TAG_META: u64 = 1;
const TAG_FACTORS: u64 = 2;
const TAG_STATS_JSON: u64 = 3;
const TAG_CACHE: u64 = 4;

/// Why a snapshot could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure while reading or writing the snapshot file.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    WrongMagic,
    /// The file declares a schema version this build does not speak.
    UnsupportedVersion(u64),
    /// The file ended inside the named structure.
    Truncated(&'static str),
    /// The named section's FNV-1a checksum did not match its payload.
    ChecksumMismatch(&'static str),
    /// Framing was intact but the decoded content is invalid.
    Corrupt(String),
    /// The snapshot was taken for a different canonical expression.
    ExpressionMismatch {
        /// Expression recorded in the snapshot.
        snapshot: String,
        /// Expression the server was asked to boot.
        requested: String,
    },
    /// Expressions agree but a factor graph differs from the served spec.
    FactorMismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::WrongMagic => {
                write!(f, "not a {SCHEMA} snapshot (bad magic)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot schema version {v} unsupported (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated(what) => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::ChecksumMismatch(section) => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::ExpressionMismatch {
                snapshot,
                requested,
            } => write!(
                f,
                "snapshot was taken for '{snapshot}' but the server is booting '{requested}'"
            ),
            SnapshotError::FactorMismatch(msg) => {
                write!(f, "snapshot factor mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    fn from_snap(e: SnapError) -> Self {
        match e {
            SnapError::Truncated { what } => SnapshotError::Truncated(what),
            SnapError::Malformed(msg) => SnapshotError::Corrupt(msg),
        }
    }
}

/// The backend a snapshot rebuilds, mirroring the serve-layer split.
// One instance exists transiently at boot; the variant size gap of the
// inline Pair stats is irrelevant there, so boxing would only add noise.
#[allow(clippy::large_enum_variant)]
pub enum SnapshotBackend {
    /// A two-factor `A⊗B` / `(A+I)⊗B` server.
    Pair {
        /// Factor `A`.
        a: Graph,
        /// Factor `B`.
        b: Graph,
        /// Whether `A` is lifted with `+ I`.
        mode: SelfLoopMode,
        /// Precomputed stats for `A`.
        stats_a: FactorStats,
        /// Precomputed stats for `B`.
        stats_b: FactorStats,
    },
    /// An arbitrary `--expr` program over named atoms.
    Chain {
        /// Named atoms with their precomputed stats.
        bindings: Vec<(String, Graph, FactorStats)>,
        /// Ordered `(name, plus_identity)` level spec.
        levels: Vec<(String, bool)>,
    },
}

/// An in-memory snapshot: the decoded form of a `bikron-snap/1` file.
pub struct Snapshot {
    /// Canonical expression the snapshot was taken for.
    pub expr: String,
    /// Factor graphs and statistics.
    pub backend: SnapshotBackend,
    /// The cached `/v1/stats` body *without* its `"snapshot"` field
    /// (the boot path injects `warm`/`cold` uniformly).
    pub stats_json: String,
}

fn put_section(buf: &mut Vec<u8>, tag: u64, payload: &[u8]) {
    put_u64(buf, tag);
    put_u64(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    put_u64(buf, fnv1a(payload));
}

/// Read one `tag/len/payload/checksum` frame, verifying tag order and
/// the payload seal.
fn read_section<'a>(
    r: &mut ByteReader<'a>,
    expect_tag: u64,
    name: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let tag = r.u64(name).map_err(SnapshotError::from_snap)?;
    if tag != expect_tag {
        return Err(SnapshotError::Corrupt(format!(
            "expected section {name} (tag {expect_tag}), found tag {tag}"
        )));
    }
    let len = r.len(name).map_err(SnapshotError::from_snap)?;
    if len > r.remaining() {
        return Err(SnapshotError::Truncated(name));
    }
    let payload = r.take(len, name).map_err(SnapshotError::from_snap)?;
    let sum = r.u64(name).map_err(|_| SnapshotError::Truncated(name))?;
    if sum != fnv1a(payload) {
        return Err(SnapshotError::ChecksumMismatch(name));
    }
    Ok(payload)
}

/// Parse and discard a CACHE section payload. Every entry must still
/// be well-formed — a key tag with its integer fields, then a UTF-8 body
/// — so a corrupt section fails with a named error.
fn skip_cache_entries(payload: &[u8]) -> Result<(), SnapshotError> {
    const KEY: &str = "CACHE key";
    let nz = SnapshotError::from_snap;
    let mut r = ByteReader::new(payload);
    let count = r.len("CACHE count").map_err(nz)?;
    if count > r.remaining() / 8 {
        return Err(SnapshotError::Truncated("CACHE entries"));
    }
    for _ in 0..count {
        // Tags 1–5: vertex, edge, neighbors page, clustering, scatter page.
        let fields = match r.u64(KEY).map_err(nz)? {
            1 => 1,
            2 | 4 | 5 => 2,
            3 => 3,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown cache key tag {other}"
                )))
            }
        };
        for _ in 0..fields {
            r.u64(KEY).map_err(nz)?;
        }
        r.str_("CACHE body").map_err(nz)?;
    }
    if !r.is_empty() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes in the CACHE section".into(),
        ));
    }
    Ok(())
}

impl Snapshot {
    /// Serialize to the on-disk `bikron-snap/1` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        put_str(&mut meta, &self.expr);
        put_u64(&mut meta, 0); // shard flag: every server is a full replica
        let mut factors = Vec::new();
        match &self.backend {
            SnapshotBackend::Pair {
                a,
                b,
                mode,
                stats_a,
                stats_b,
            } => {
                put_u64(&mut meta, 0); // backend kind: pair
                put_u64(
                    &mut meta,
                    match mode {
                        SelfLoopMode::None => 0,
                        SelfLoopMode::FactorA => 1,
                    },
                );
                put_u64(&mut factors, 2);
                for (name, g, s) in [("A", a, stats_a), ("B", b, stats_b)] {
                    put_str(&mut factors, name);
                    put_graph(&mut factors, g);
                    put_factor_stats(&mut factors, s);
                }
            }
            SnapshotBackend::Chain { bindings, levels } => {
                put_u64(&mut meta, 1); // backend kind: chain
                put_u64(&mut meta, levels.len() as u64);
                for (name, plus_identity) in levels {
                    put_str(&mut meta, name);
                    put_u64(&mut meta, u64::from(*plus_identity));
                }
                put_u64(&mut factors, bindings.len() as u64);
                for (name, g, s) in bindings {
                    put_str(&mut factors, name);
                    put_graph(&mut factors, g);
                    put_factor_stats(&mut factors, s);
                }
            }
        }

        let mut cache = Vec::new();
        put_u64(&mut cache, 0); // no entries

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, VERSION);
        put_section(&mut out, TAG_META, &meta);
        put_section(&mut out, TAG_FACTORS, &factors);
        put_section(&mut out, TAG_STATS_JSON, self.stats_json.as_bytes());
        put_section(&mut out, TAG_CACHE, &cache);
        out
    }

    /// Decode and fully validate a `bikron-snap/1` byte stream.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated("magic"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::WrongMagic);
        }
        let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
        let version = r.u64("version").map_err(SnapshotError::from_snap)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        let meta = read_section(&mut r, TAG_META, "META")?;
        let factors = read_section(&mut r, TAG_FACTORS, "FACTORS")?;
        let stats_json = read_section(&mut r, TAG_STATS_JSON, "STATS_JSON")?;
        let cache_bytes = read_section(&mut r, TAG_CACHE, "CACHE")?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the CACHE section",
                r.remaining()
            )));
        }

        // META: expr, shard, backend kind + kind-specific spec. A file
        // written by a `--shard I/N` server carries flag 1 and its
        // `(I, N)`: validated, then discarded, because every server now
        // answers the whole key space.
        let mut m = ByteReader::new(meta);
        let nz = SnapshotError::from_snap;
        let expr = m.str_("META expr").map_err(nz)?;
        match m.u64("META shard flag").map_err(nz)? {
            0 => {}
            1 => {
                let index = m.len("META shard index").map_err(nz)?;
                let count = m.len("META shard count").map_err(nz)?;
                if index >= count {
                    return Err(SnapshotError::Corrupt(format!(
                        "shard {index}/{count} is invalid"
                    )));
                }
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "META shard flag must be 0 or 1, found {other}"
                )))
            }
        }
        let kind = m.u64("META backend kind").map_err(nz)?;

        // FACTORS: named (graph, stats) atoms, validated on decode.
        let mut fr = ByteReader::new(factors);
        let count = fr.len("FACTORS count").map_err(nz)?;
        if count > 64 {
            return Err(SnapshotError::Corrupt(format!(
                "{count} factors exceeds the chain level bound"
            )));
        }
        let mut atoms = Vec::with_capacity(count);
        for _ in 0..count {
            let name = fr.str_("FACTORS name").map_err(nz)?;
            let g = read_graph(&mut fr, "FACTORS graph").map_err(nz)?;
            let s = read_factor_stats(&mut fr, "FACTORS stats").map_err(nz)?;
            if s.order() != g.num_vertices() {
                return Err(SnapshotError::Corrupt(format!(
                    "stats for '{name}' cover {} vertices but its graph has {}",
                    s.order(),
                    g.num_vertices()
                )));
            }
            atoms.push((name, g, s));
        }
        if !fr.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in the FACTORS section".into(),
            ));
        }

        let backend = match kind {
            0 => {
                let mode = match m.u64("META pair mode").map_err(nz)? {
                    0 => SelfLoopMode::None,
                    1 => SelfLoopMode::FactorA,
                    other => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown self-loop mode {other}"
                        )))
                    }
                };
                if atoms.len() != 2 {
                    return Err(SnapshotError::Corrupt(format!(
                        "pair snapshot carries {} factors (expected 2)",
                        atoms.len()
                    )));
                }
                let (_, b, stats_b) = atoms.pop().expect("len checked");
                let (_, a, stats_a) = atoms.pop().expect("len checked");
                SnapshotBackend::Pair {
                    a,
                    b,
                    mode,
                    stats_a,
                    stats_b,
                }
            }
            1 => {
                let num_levels = m.len("META level count").map_err(nz)?;
                if num_levels == 0 || num_levels > 64 {
                    return Err(SnapshotError::Corrupt(format!(
                        "chain snapshot declares {num_levels} levels"
                    )));
                }
                let mut levels = Vec::with_capacity(num_levels);
                for _ in 0..num_levels {
                    let name = m.str_("META level name").map_err(nz)?;
                    let pi = match m.u64("META level lift flag").map_err(nz)? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(SnapshotError::Corrupt(format!(
                                "level lift flag must be 0 or 1, found {other}"
                            )))
                        }
                    };
                    levels.push((name, pi));
                }
                SnapshotBackend::Chain {
                    bindings: atoms,
                    levels,
                }
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown backend kind {other}"
                )))
            }
        };
        if !m.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes in the META section".into(),
            ));
        }

        let stats_json = String::from_utf8(stats_json.to_vec())
            .map_err(|_| SnapshotError::Corrupt("STATS_JSON is not UTF-8".into()))?;

        skip_cache_entries(cache_bytes)?;

        Ok(Snapshot {
            expr,
            backend,
            stats_json,
        })
    }

    /// Write the encoded snapshot to `path` (atomically via a sibling
    /// temp file, so a crash mid-write never leaves a torn snapshot).
    pub fn write_to(&self, path: &str) -> Result<(), SnapshotError> {
        let bytes = self.encode();
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io(format!("{tmp}: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(format!("{path}: {e}")))
    }

    /// Read and decode a snapshot file.
    pub fn read_from(path: &str) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{path}: {e}")))?;
        Self::decode(&bytes)
    }

    /// Check this snapshot against a **pair** server spec: the implied
    /// canonical expression must match and both factor graphs must be
    /// identical to the ones parsed from the command line.
    pub fn validate_pair(
        &self,
        a: &Graph,
        b: &Graph,
        mode: SelfLoopMode,
    ) -> Result<(), SnapshotError> {
        let requested = match mode {
            SelfLoopMode::None => "A⊗B",
            SelfLoopMode::FactorA => "(A+I)⊗B",
        };
        if self.expr != requested {
            return Err(SnapshotError::ExpressionMismatch {
                snapshot: self.expr.clone(),
                requested: requested.to_string(),
            });
        }
        match &self.backend {
            SnapshotBackend::Pair {
                a: sa,
                b: sb,
                mode: smode,
                ..
            } => {
                if *smode != mode {
                    return Err(SnapshotError::ExpressionMismatch {
                        snapshot: self.expr.clone(),
                        requested: requested.to_string(),
                    });
                }
                if sa != a {
                    return Err(SnapshotError::FactorMismatch(
                        "factor A differs from the served spec".into(),
                    ));
                }
                if sb != b {
                    return Err(SnapshotError::FactorMismatch(
                        "factor B differs from the served spec".into(),
                    ));
                }
                Ok(())
            }
            SnapshotBackend::Chain { .. } => Err(SnapshotError::Corrupt(
                "expression snapshot offered to a pair server".into(),
            )),
        }
    }

    /// Check this snapshot against an **expression** server spec:
    /// `canonical` is the `⊗`-joined spelling of the requested levels and
    /// `bindings` the graphs parsed from the command line.
    pub fn validate_expr(
        &self,
        canonical: &str,
        bindings: &[(String, Graph)],
    ) -> Result<(), SnapshotError> {
        if self.expr != canonical {
            return Err(SnapshotError::ExpressionMismatch {
                snapshot: self.expr.clone(),
                requested: canonical.to_string(),
            });
        }
        match &self.backend {
            SnapshotBackend::Chain {
                bindings: snap_bindings,
                ..
            } => {
                for (name, g, _) in snap_bindings {
                    match bindings.iter().find(|(n, _)| n == name) {
                        Some((_, want)) if want == g => {}
                        Some(_) => {
                            return Err(SnapshotError::FactorMismatch(format!(
                                "factor '{name}' differs from the served spec"
                            )))
                        }
                        None => {
                            return Err(SnapshotError::FactorMismatch(format!(
                                "snapshot factor '{name}' is not bound by the served spec"
                            )))
                        }
                    }
                }
                Ok(())
            }
            SnapshotBackend::Pair { .. } => Err(SnapshotError::Corrupt(
                "pair snapshot offered to an expression server".into(),
            )),
        }
    }
}
