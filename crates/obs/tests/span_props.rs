//! Property tests for the request-tracing layer (`bikron_obs::span`).
//!
//! 1. **`traceparent` round-trips** — any valid (nonzero) id pair
//!    formats to a header the parser maps back to the same context, and
//!    re-formatting the parse is a fixed point (so propagation across
//!    hops never mutates ids).
//! 2. **Mutation rejection** — corrupting any single character of a
//!    valid header with a non-hex byte makes the parse fail (the parser
//!    has no "mostly valid" acceptance).
//! 3. **Concurrent span-tree assembly** — for any fan-out width and
//!    per-thread span count, a shared recorder assembles exactly one
//!    tree: all spans present (up to the documented cap), ids unique,
//!    every recorded child parented to the span that spawned it.

use std::sync::Arc;

use bikron_obs::span::MAX_SPANS_PER_REQUEST;
use bikron_obs::{SpanRecorder, TraceContext};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn traceparent_format_parse_round_trips(
        trace_hi in 0u64..u64::MAX,
        trace_lo in 1u64..u64::MAX,
        span_id in 1u64..u64::MAX,
        flags in 0u32..256,
    ) {
        let trace_id = (trace_hi as u128) << 64 | trace_lo as u128;
        let ctx = TraceContext { trace_id, span_id, flags: flags as u8 };
        let header = ctx.to_traceparent();
        prop_assert_eq!(header.len(), 55);
        let parsed = TraceContext::parse_traceparent(&header);
        prop_assert_eq!(parsed, Some(ctx));
        // Fixed point: parse → format is the identity on valid headers.
        prop_assert_eq!(parsed.unwrap().to_traceparent(), header);
    }

    #[test]
    fn traceparent_rejects_single_byte_corruption(
        trace_lo in 1u64..u64::MAX,
        span_id in 1u64..u64::MAX,
        pos in 0usize..55,
    ) {
        let header = TraceContext {
            trace_id: trace_lo as u128,
            span_id,
            flags: 1,
        }
        .to_traceparent();
        let mut bytes = header.into_bytes();
        // Replace one byte with something outside [0-9a-f-]; the result
        // must never parse, wherever it lands.
        bytes[pos] = b'!';
        let corrupted = String::from_utf8(bytes).unwrap();
        prop_assert_eq!(TraceContext::parse_traceparent(&corrupted), None);
    }

    #[test]
    fn concurrent_recorders_assemble_a_complete_tree(
        threads in 1usize..12,
        per_thread in 1usize..24,
    ) {
        let recorder = Arc::new(SpanRecorder::new(TraceContext::generate(), 0));
        let eval = recorder.begin("evaluate", None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let tok = recorder.begin(&format!("batch[{t}:{i}]"), Some(eval));
                        recorder.end(tok);
                    }
                });
            }
        });
        recorder.end(Some(eval));
        let spans = recorder.spans();
        let expected = (1 + threads * per_thread).min(MAX_SPANS_PER_REQUEST);
        prop_assert_eq!(spans.len(), expected);
        // Unique ids.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), expected);
        // Every child is parented to the evaluate span and well-formed
        // (end after start, start after evaluate's start).
        for s in spans.iter().filter(|s| s.span_id != eval.span_id) {
            prop_assert_eq!(s.parent_id, eval.span_id);
            prop_assert!(s.end_ns >= s.start_ns);
            prop_assert!(s.start_ns >= spans[0].start_ns);
        }
    }
}
