//! Corruption and version-skew matrix for `bikron-snap/1` decoding.
//!
//! The snapshot reader's contract (DESIGN.md §14, versioning per §9.1)
//! is that *no* input byte stream may panic it, and every rejection is a
//! named [`SnapshotError`] — a corrupt snapshot must fail loudly at boot,
//! never produce a silently-wrong warm server. The matrix:
//!
//! - truncation at **every** prefix length,
//! - a flipped byte at **every** offset (each lands in the magic, the
//!   version, a tag, a length, a payload, or a checksum — all sealed),
//! - wrong magic, future schema version,
//! - oversized declared lengths (no pre-allocation from attacker bytes),
//! - expression / factor mismatch against a differently-specced server,
//! - a graph value other than 1 behind a valid checksum,
//! - malformed entries in a CACHE section (files written while the
//!   server kept a result cache carry entries there; the reader still
//!   parses every one before discarding them),
//! - a bad shard entry in META (files written by a `--shard I/N` server
//!   carry one; the reader still validates it before discarding it).
//!
//! Mirrors the exhaustive-hostility style of `parser_fuzz.rs`: the
//! assertions are about *totality* (always an `Err`, never a panic),
//! with spot checks that specific corruptions map to the right variant.

use bikron_core::SelfLoopMode;
use bikron_graph::Graph;
use bikron_serve::snapshot::{Snapshot, MAGIC, VERSION};
use bikron_serve::{ServeOptions, ServeState, SnapshotError};

fn cycle(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges).unwrap()
}

fn kmn(m: usize, n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| (0..n).map(move |j| (i, m + j)))
        .collect();
    Graph::from_edges(m + n, &edges).unwrap()
}

/// A realistic snapshot to corrupt: pair backend, empty CACHE section.
fn pair_bytes() -> Vec<u8> {
    let state = ServeState::build_with(
        cycle(5),
        kmn(2, 3),
        SelfLoopMode::FactorA,
        ServeOptions::default(),
    )
    .unwrap();
    state.to_snapshot().encode()
}

/// `bikron serve cycle:5 kmn:2x3 none --snapshot-out` after a handful of
/// keyed queries, written while the server kept a result cache: its
/// CACHE section holds 11 entries covering all five key kinds.
const WITH_CACHE: &[u8] = include_bytes!("data/cycle5_kmn2x3_with_cache.snap");

/// `bikron serve cycle:5 kmn:2x3 none --shard 1/2 --snapshot-out`: its
/// META section carries shard flag 1 with index 1 and count 2.
const SHARD_1_OF_2: &[u8] = include_bytes!("data/cycle5_kmn2x3_shard1of2.snap");

/// Every snapshot shape the reader must seal: a current file, one whose
/// CACHE section carries entries, and one whose META names a shard.
fn corpus() -> [Vec<u8>; 3] {
    [pair_bytes(), WITH_CACHE.to_vec(), SHARD_1_OF_2.to_vec()]
}

#[test]
fn truncation_at_every_offset_is_a_named_error() {
    for bytes in corpus() {
        truncation_case(bytes);
    }
}

fn truncation_case(bytes: Vec<u8>) {
    for cut in 0..bytes.len() {
        match Snapshot::decode(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!(
                "decode accepted a {cut}-byte prefix of a {}-byte file",
                bytes.len()
            ),
        }
    }
    // And appending trailing garbage is equally fatal.
    let mut extended = bytes.clone();
    extended.extend_from_slice(b"junk");
    assert!(matches!(
        Snapshot::decode(&extended),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn flipping_any_single_byte_is_rejected() {
    for bytes in corpus() {
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= 0x40;
            assert!(
                Snapshot::decode(&mutated).is_err(),
                "decode accepted a snapshot with byte {at} flipped"
            );
        }
    }
}

#[test]
fn wrong_magic_and_version_are_named() {
    let bytes = pair_bytes();

    let mut not_ours = bytes.clone();
    not_ours[..8].copy_from_slice(b"GIFDATA!");
    assert_eq!(
        Snapshot::decode(&not_ours).err_only(),
        err_kind(SnapshotError::WrongMagic)
    );

    // A future schema version is refused without guessing.
    let mut future = bytes.clone();
    future[8..16].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert_eq!(
        Snapshot::decode(&future).err_only(),
        err_kind(SnapshotError::UnsupportedVersion(VERSION + 1))
    );

    // Sanity: the file really starts with the documented magic.
    assert_eq!(&bytes[..8], MAGIC);
    assert!(Snapshot::decode(&bytes).is_ok());
}

/// `Snapshot` has no `PartialEq` (it holds graphs and stats); compare
/// decode results by error value only.
fn err_kind(e: SnapshotError) -> Result<(), SnapshotError> {
    Err(e)
}

trait DecodeErr {
    fn err_only(self) -> Result<(), SnapshotError>;
}

impl DecodeErr for Result<Snapshot, SnapshotError> {
    fn err_only(self) -> Result<(), SnapshotError> {
        self.map(|_| ())
    }
}

#[test]
fn checksum_seals_every_section() {
    // Flip one byte inside each section's payload; the per-section
    // checksum must name that section. Section order after the 16-byte
    // header is META, FACTORS, STATS_JSON, CACHE — locate each payload
    // via its framing instead of hard-coding offsets.
    for bytes in corpus() {
        let mut pos = 16; // magic + version
        for expected in ["META", "FACTORS", "STATS_JSON", "CACHE"] {
            let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let payload_at = pos + 16;
            let mut mutated = bytes.clone();
            mutated[payload_at] ^= 0xFF;
            match Snapshot::decode(&mutated) {
                Err(SnapshotError::ChecksumMismatch(section)) => {
                    assert_eq!(section, expected, "wrong section named");
                }
                other => panic!(
                    "flip in {expected} payload: expected ChecksumMismatch, got {:?}",
                    other.err_only()
                ),
            }
            pos = payload_at + len + 8; // payload + trailing checksum
        }
        assert_eq!(pos, bytes.len(), "framing walk covered the whole file");
    }
}

/// `bytes` with its final (CACHE) section's payload replaced by
/// `payload`, resealed with a valid checksum — so only the entry parser
/// can object.
fn with_cache_payload(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut pos = 16;
    for _ in 0..3 {
        let len = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap()) as usize;
        pos += 16 + len + 8;
    }
    let mut out = bytes[..pos].to_vec();
    out.extend_from_slice(&4u64.to_le_bytes()); // CACHE tag
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bikron_sparse::snap::fnv1a(payload).to_le_bytes());
    out
}

#[test]
fn cache_entries_are_parsed_before_they_are_discarded() {
    let u64s = |vals: &[u64]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };
    // One vertex entry: count, tag 1, vertex, then a length-prefixed body.
    let entry = |tag: u64, body: &[u8]| {
        let mut p = u64s(&[1, tag, 7, body.len() as u64]);
        p.extend_from_slice(body);
        p
    };
    let base = pair_bytes();
    assert!(Snapshot::decode(&with_cache_payload(&base, &entry(1, b"{}"))).is_ok());
    match Snapshot::decode(&with_cache_payload(&base, &entry(9, b"{}"))).err_only() {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("cache key tag 9"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    match Snapshot::decode(&with_cache_payload(&base, &entry(1, b"\xff"))).err_only() {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let mut trailing = entry(1, b"{}");
    trailing.push(0);
    assert!(matches!(
        Snapshot::decode(&with_cache_payload(&base, &trailing)),
        Err(SnapshotError::Corrupt(_))
    ));
    // A count the payload cannot hold is refused before any allocation.
    assert_eq!(
        Snapshot::decode(&with_cache_payload(&base, &u64s(&[u64::MAX]))).err_only(),
        err_kind(SnapshotError::Truncated("CACHE entries"))
    );
}

/// `bytes` with the u64 at `offset` of its META payload replaced by
/// `value`, resealed with a valid checksum.
fn with_meta_u64(bytes: &[u8], offset: usize, value: u64) -> Vec<u8> {
    let len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let (payload_at, mut out) = (32, bytes.to_vec());
    out[payload_at + offset..payload_at + offset + 8].copy_from_slice(&value.to_le_bytes());
    let sum = bikron_sparse::snap::fnv1a(&out[payload_at..payload_at + len]);
    out[payload_at + len..payload_at + len + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn shard_entries_are_validated_before_they_are_discarded() {
    // META payload: the expression (length-prefixed), then the shard
    // flag, then (flag 1 only) the index and the count.
    let expr_len = u64::from_le_bytes(SHARD_1_OF_2[32..40].try_into().unwrap()) as usize;
    let flag_at = 8 + expr_len;
    assert!(Snapshot::decode(SHARD_1_OF_2).is_ok());
    match Snapshot::decode(&with_meta_u64(SHARD_1_OF_2, flag_at, 2)).err_only() {
        Err(SnapshotError::Corrupt(msg)) => {
            assert!(msg.contains("shard flag must be 0 or 1, found 2"), "{msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Index 2 of count 2, then index 0 of count 0.
    for (offset, value, named) in [
        (flag_at + 8, 2, "shard 2/2"),
        (flag_at + 16, 0, "shard 1/0"),
    ] {
        match Snapshot::decode(&with_meta_u64(SHARD_1_OF_2, offset, value)).err_only() {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("{named} is invalid")), "{msg}")
            }
            other => panic!("expected Corrupt for {named}, got {other:?}"),
        }
    }
}

#[test]
fn non_unit_graph_value_is_refused_behind_a_valid_checksum() {
    // FACTORS payload: factor count, the name "A" (length-prefixed), then
    // graph A as written by `put_graph`, whose last 8 bytes are its final
    // stored value. Overwrite that value and reseal the section, so only
    // the graph decoder can object.
    let base = pair_bytes();
    let meta_len = u64::from_le_bytes(base[24..32].try_into().unwrap()) as usize;
    let factors_at = 16 + 16 + meta_len + 8;
    let len =
        u64::from_le_bytes(base[factors_at + 8..factors_at + 16].try_into().unwrap()) as usize;
    let payload_at = factors_at + 16;
    let mut graph_a = Vec::new();
    bikron_core::snap::put_graph(&mut graph_a, &cycle(5));
    let value_at = payload_at + 8 + 9 + graph_a.len() - 8;
    assert_eq!(base[value_at..value_at + 8], 1u64.to_le_bytes());
    for bad in [0u64, 7] {
        let mut bytes = base.clone();
        bytes[value_at..value_at + 8].copy_from_slice(&bad.to_le_bytes());
        let sum = bikron_sparse::snap::fnv1a(&bytes[payload_at..payload_at + len]);
        bytes[payload_at + len..payload_at + len + 8].copy_from_slice(&sum.to_le_bytes());
        match Snapshot::decode(&bytes).err_only() {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("adjacency value {bad}")), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn huge_declared_lengths_do_not_preallocate() {
    // A section that declares a multi-exabyte length must be rejected as
    // truncated (len > remaining), not trusted into `Vec::with_capacity`.
    let mut bytes = pair_bytes();
    bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes()); // META len field
    assert_eq!(
        Snapshot::decode(&bytes).err_only(),
        err_kind(SnapshotError::Truncated("META"))
    );
}

#[test]
fn mismatched_spec_is_refused_with_the_right_variant() {
    let snap = Snapshot::decode(&pair_bytes()).unwrap();
    assert_eq!(snap.expr, "(A+I)⊗B");

    // Same factors, different mode: the implied expression differs.
    match snap.validate_pair(&cycle(5), &kmn(2, 3), SelfLoopMode::None) {
        Err(SnapshotError::ExpressionMismatch {
            snapshot,
            requested,
        }) => {
            assert_eq!(snapshot, "(A+I)⊗B");
            assert_eq!(requested, "A⊗B");
        }
        other => panic!("expected ExpressionMismatch, got {other:?}"),
    }

    // Same expression, different factor A edges.
    match snap.validate_pair(&cycle(6), &kmn(2, 3), SelfLoopMode::FactorA) {
        Err(SnapshotError::FactorMismatch(msg)) => {
            assert!(msg.contains("factor A"), "{msg}");
        }
        other => panic!("expected FactorMismatch, got {other:?}"),
    }

    // A pair snapshot offered to an expression server is refused.
    let bindings = vec![("A".to_string(), cycle(5))];
    assert!(matches!(
        snap.validate_expr("(A+I)⊗B", &bindings),
        Err(SnapshotError::Corrupt(_))
    ));

    // The happy path still validates.
    assert!(snap
        .validate_pair(&cycle(5), &kmn(2, 3), SelfLoopMode::FactorA)
        .is_ok());
}

#[test]
fn chain_snapshot_cross_validation() {
    let bindings = vec![("A".to_string(), cycle(4)), ("B".to_string(), kmn(1, 2))];
    let levels = vec![("A".to_string(), false), ("B".to_string(), false)];
    let state = ServeState::build_expr(bindings.clone(), &levels, ServeOptions::default()).unwrap();
    let snap = Snapshot::decode(&state.to_snapshot().encode()).unwrap();

    // A snapshot for A⊗B must refuse to boot A⊗B⊗C.
    match snap.validate_expr("A⊗B⊗C", &bindings) {
        Err(SnapshotError::ExpressionMismatch { requested, .. }) => {
            assert_eq!(requested, "A⊗B⊗C");
        }
        other => panic!("expected ExpressionMismatch, got {other:?}"),
    }

    // Same expression, different graph bound to B.
    let rebound = vec![("A".to_string(), cycle(4)), ("B".to_string(), kmn(2, 2))];
    match snap.validate_expr(&snap.expr.clone(), &rebound) {
        Err(SnapshotError::FactorMismatch(msg)) => assert!(msg.contains('B'), "{msg}"),
        other => panic!("expected FactorMismatch, got {other:?}"),
    }

    // A name present in the snapshot but absent from the spec.
    let unbound = vec![("A".to_string(), cycle(4))];
    match snap.validate_expr(&snap.expr.clone(), &unbound) {
        Err(SnapshotError::FactorMismatch(msg)) => assert!(msg.contains("not bound"), "{msg}"),
        other => panic!("expected FactorMismatch, got {other:?}"),
    }

    assert!(snap.validate_expr(&snap.expr.clone(), &bindings).is_ok());
}

#[test]
fn hostile_random_bytes_never_panic() {
    // Deterministic xorshift fuzz: none of these are valid snapshots,
    // and none may panic the decoder.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for len in [0usize, 1, 7, 8, 15, 16, 40, 200, 4096] {
        for _ in 0..8 {
            let mut buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert!(Snapshot::decode(&buf).is_err());
            // Same bytes behind a valid header: the section framing must
            // still reject them without panicking.
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&VERSION.to_le_bytes());
            framed.append(&mut buf);
            assert!(Snapshot::decode(&framed).is_err());
        }
    }
}
