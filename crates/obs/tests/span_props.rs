//! Property tests for the request-tracing layer (`bikron_obs::span`).
//!
//! 1. **`traceparent` round-trips** — any valid (nonzero) id pair
//!    formats to a header the parser maps back to the same context, and
//!    re-formatting the parse is a fixed point (so propagation across
//!    hops never mutates ids).
//! 2. **Mutation rejection** — corrupting any single character of a
//!    valid header with a non-hex byte makes the parse fail (the parser
//!    has no "mostly valid" acceptance).
//! 3. **Span-tree assembly** — for any nesting of phases opened on a
//!    thread with a request attached, the request's single-owner arena
//!    assembles exactly one tree: every span present (up to the
//!    documented cap), ids unique, each span parented to the innermost
//!    frame open around it and lying within that frame's interval.

use bikron_obs::span::MAX_SPANS_PER_REQUEST;
use bikron_obs::{PhaseGuard, TraceContext};
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

    /// `script` op 0 opens a registry-free phase, op 1 a span-only
    /// child, both nested in the innermost open frame; op 2 closes the
    /// innermost frame. Frames still open at the end close innermost
    /// first, as a scope's guards would.
    #[test]
    fn nested_frames_assemble_one_tree(script in proptest::collection::vec(0u32..3, 1..1200)) {
        let ctx = TraceContext::generate();
        let request = bikron_obs::attach_request();
        request.set_context(ctx, 0);
        // Model: per open frame, the index of its span (None past the cap).
        let mut open: Vec<(PhaseGuard, Option<usize>)> = Vec::new();
        let mut parents: Vec<Option<usize>> = Vec::new();
        for op in script {
            if op == 2 {
                open.pop();
                continue;
            }
            let guard = match op {
                0 => bikron_obs::phase("p"),
                _ => bikron_obs::child_span(|| "c".to_string()),
            };
            let index = (parents.len() < MAX_SPANS_PER_REQUEST).then_some(parents.len());
            if index.is_some() {
                parents.push(open.iter().rev().find_map(|(_, i)| *i));
            }
            open.push((guard, index));
        }
        while open.pop().is_some() {}
        let spans = request.finish().spans();
        prop_assert_eq!(spans.len(), parents.len());
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.push(ctx.span_id);
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), spans.len() + 1, "span ids unique and not the root's");
        for (s, parent) in spans.iter().zip(&parents) {
            prop_assert!(s.span_id != 0);
            prop_assert!(s.end_ns >= s.start_ns);
            match parent {
                None => prop_assert_eq!(s.parent_id, ctx.span_id),
                Some(p) => {
                    let p = &spans[*p];
                    prop_assert_eq!(s.parent_id, p.span_id);
                    prop_assert!(s.start_ns >= p.start_ns && s.end_ns <= p.end_ns);
                }
            }
        }
    }
}
