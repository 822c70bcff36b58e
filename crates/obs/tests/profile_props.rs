//! Property tests for the continuous-profiling layer (satellite of the
//! `bikron-obs/4` bump).
//!
//! The invariants that make a sampled profile trustworthy:
//!
//! 1. **No torn stacks.** A sampler sweep racing arbitrarily many
//!    threads entering/exiting nested phases must only ever observe a
//!    stack some thread *actually had open*: every sampled collapsed
//!    stack is a prefix of that thread's scripted phase chain, never a
//!    mix of frames from two threads or a chain with a level skipped.
//!    This holds because a thread publishes exactly one interned node id
//!    per transition (one `Release` store), and a node id encodes its
//!    whole ancestry — there is no multi-word state for the sampler to
//!    read half-updated.
//! 2. **Folded round-trip.** `to_folded` → `parse_folded` reproduces the
//!    stack table exactly and recomputes `samples` as the sum, for any
//!    stack map — the on-disk artefact loses nothing the perfdiff gate
//!    needs.
//!
//! The profiler is process-global, so the concurrent test serialises
//! itself with a local mutex and tags every case's phase names with a
//! unique prefix, filtering the shared sample table down to its own
//! stacks.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};

use bikron_obs::profile::{profiler, ProfileSnapshot};
use proptest::prelude::*;

/// Serialises tests that arm the global profiler.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Unique per-case tag so concurrent/successive cases can share the
/// process-global sample table without seeing each other's stacks.
fn case_tag() -> u64 {
    static CASE: AtomicU64 = AtomicU64::new(0);
    CASE.fetch_add(1, Ordering::Relaxed)
}

/// Leaf-name alphabet for generated phase chains.
const LEAVES: [&str; 4] = ["a", "b", "c", "d"];

/// Per-thread scripts: each thread gets a chain of 1..=5 leaf names.
fn arb_chains() -> impl Strategy<Value = Vec<Vec<String>>> {
    let leaf = (0usize..LEAVES.len()).prop_map(|i| LEAVES[i].to_string());
    proptest::collection::vec(proptest::collection::vec(leaf, 1..=5), 1..=4)
}

proptest! {
    // Each case spawns threads and runs real sampler sweeps; keep the
    // case count moderate so the suite stays fast and the bounded
    // global stack table (4096 entries) is never the limiting factor.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sampled_stacks_are_never_torn(chains in arb_chains(), iters in 1usize..24) {
        let _guard = lock();
        let tag = case_tag();
        let prof = profiler();
        prof.arm();

        // Every stack the sampler may legally observe from this case:
        // for thread t with root `pp{tag}_{t}`, all prefixes of
        // root;c0;c1;... (the root alone included).
        let mut legal: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (t, chain) in chains.iter().enumerate() {
            let mut path = format!("pp{tag}_{t}");
            legal.insert(path.clone());
            for leaf in chain {
                path.push(';');
                path.push_str(leaf);
                legal.insert(path.clone());
            }
        }

        let before = prof.snapshot();
        let live = AtomicU64::new(chains.len() as u64);
        let start = Barrier::new(chains.len() + 1);
        std::thread::scope(|scope| {
            for (t, chain) in chains.iter().enumerate() {
                let (start, live) = (&start, &live);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..iters {
                        let root = bikron_obs::phase(&format!("pp{tag}_{t}"));
                        let mut guards = Vec::with_capacity(chain.len());
                        for leaf in chain {
                            guards.push(bikron_obs::phase(leaf));
                            std::hint::spin_loop();
                        }
                        while guards.pop().is_some() {
                            std::hint::spin_loop();
                        }
                        drop(root);
                    }
                    live.fetch_sub(1, Ordering::Release);
                });
            }
            // Sweep concurrently with the phase churn; a fixed floor of
            // sweeps keeps sampling pressure on even for short scripts.
            start.wait();
            let mut sweeps = 0u32;
            while live.load(Ordering::Acquire) > 0 || sweeps < 50 {
                prof.sample_once();
                sweeps += 1;
                std::thread::yield_now();
            }
        });
        prof.disarm();

        let window = prof.snapshot().since(&before);
        for (stack, &count) in &window.stacks {
            // Ignore stacks from other tests/cases in this process.
            if !stack.starts_with("pp") || !stack.starts_with(&format!("pp{tag}_")) {
                continue;
            }
            prop_assert!(count > 0);
            prop_assert!(
                legal.contains(stack),
                "torn stack {stack:?} observed; legal set: {legal:?}"
            );
        }
    }

    #[test]
    fn folded_round_trips_exactly(
        entries in proptest::collection::vec(
            (proptest::collection::vec(0usize..16, 1..=5), 1u64..1_000_000),
            0..32,
        )
    ) {
        const WORDS: [&str; 16] = [
            "accept", "evaluate", "write", "serialize", "cache_lookup", "parse",
            "spgemm", "reduce", "stream", "factor", "kron", "butterfly",
            "io", "merge", "scan", "idle",
        ];
        // Duplicate paths collapse (last count wins) — fine: the map is
        // the model, the folded text the encoding under test.
        let stacks: BTreeMap<String, u64> = entries
            .iter()
            .map(|(segs, count)| {
                let path: Vec<&str> = segs.iter().map(|&i| WORDS[i]).collect();
                (path.join(";"), *count)
            })
            .collect();
        let samples = stacks.values().sum();
        let snap = ProfileSnapshot {
            hz: 99,
            samples,
            dropped: 0,
            idle: 0,
            stacks: stacks.clone(),
        };
        let folded = snap.to_folded();
        let back = ProfileSnapshot::parse_folded(&folded).unwrap();
        prop_assert_eq!(&back.stacks, &stacks);
        prop_assert_eq!(back.samples, samples);
        // A second fold is byte-identical: the format is canonical.
        prop_assert_eq!(back.to_folded(), folded);
    }
}

/// Non-property companion: parse_folded rejects garbage with an error
/// naming the line, and tolerates blank lines.
#[test]
fn parse_folded_rejects_malformed_lines() {
    assert!(ProfileSnapshot::parse_folded("a;b 3\n\nc 1\n").is_ok());
    let err = ProfileSnapshot::parse_folded("a;b three\n").unwrap_err();
    assert!(err.contains('1'), "{err}");
    assert!(ProfileSnapshot::parse_folded("nocount\n").is_err());
}

/// The slot free-list recycles: scoped threads that come and go must
/// never permanently exhaust the 512-slot registry.
#[test]
fn thread_slots_recycle_across_scoped_threads() {
    let _guard = lock();
    let prof = profiler();
    prof.arm();
    let exhausted_before = prof.slots_exhausted();
    for _ in 0..8 {
        std::thread::scope(|scope| {
            for _ in 0..128 {
                scope.spawn(|| {
                    let _f = bikron_obs::phase("recycle_probe");
                });
            }
        });
    }
    prof.disarm();
    assert_eq!(prof.slots_exhausted(), exhausted_before);
}
