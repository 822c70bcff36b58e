//! Request span trees through the serving pool, read back from
//! `GET /v1/admin/traces` of an in-process server.
//!
//! What an operator relies on when a captured trace explains a slow or
//! wrong answer:
//!
//! 1. a request carrying a `traceparent` keeps the caller's trace id and
//!    names the caller's span as `remote_parent`;
//! 2. its tree is `accept, parse, evaluate, write`, in that order, all
//!    children of the root span, with `accept` starting at offset 0;
//! 3. span ids are unique and nonzero, and no span ends before it starts;
//! 4. each item of a `POST /v1/batch` is a child of `evaluate`, named
//!    `batch[i] verb`;
//! 5. on a tail-sampling server a stalled request is captured as
//!    `"sampled": "slow"`, and its `evaluate` span covers the stall.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_obs::{parse_json, JsonValue};
use bikron_serve::client::Client;
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

const TOKEN: &str = "tok";

/// Start a `cycle:5 kmn:2x3 loops-a` server on port 0 with the given
/// trace policy.
fn start(trace_sample: u64, trace_slow_ms: u64) -> SocketAddr {
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::FactorA,
            ServeOptions {
                admin_token: Some(TOKEN.to_string()),
                trace_sample,
                trace_slow_ms,
                ..ServeOptions::default()
            },
        )
        .expect("build state"),
    );
    let server = Server::bind(
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
        state,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run().expect("server run"));
    addr
}

fn client(addr: SocketAddr) -> Client {
    Client::new(
        addr.to_string(),
        Duration::from_secs(5),
        Duration::from_secs(10),
    )
}

/// One request on a fresh connection; returns (status, body).
fn send(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    traceparent: &str,
) -> (u16, String) {
    let (resp, _) = client(addr)
        .request(
            None,
            method,
            target,
            body.map(str::as_bytes),
            Some(traceparent),
        )
        .expect("request");
    (resp.status, resp.body)
}

/// A valid `traceparent` whose trace id ends in `tag`.
fn traceparent(tag: u32) -> (String, String) {
    let trace_id = format!("4bf92f3577b34da6a3ce929d{tag:08x}");
    let header = format!("00-{trace_id}-00f067aa0ba902b7-01");
    (header, trace_id)
}

/// The captured trace with id `trace_id`.
fn captured(addr: SocketAddr, trace_id: &str) -> JsonValue {
    let (resp, _) = client(addr)
        .request(
            None,
            "GET",
            &format!("/v1/admin/traces?token={TOKEN}"),
            None,
            None,
        )
        .expect("traces request");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse_json(&resp.body).expect("traces JSON");
    doc.get("traces")
        .and_then(JsonValue::as_array)
        .expect("traces array")
        .iter()
        .find(|t| t.str_of("trace_id") == Some(trace_id))
        .unwrap_or_else(|| panic!("trace {trace_id} not captured: {}", resp.body))
        .clone()
}

/// One span of a captured trace.
#[derive(Debug)]
struct Span {
    name: String,
    span_id: String,
    parent_id: String,
    start_ns: u64,
    end_ns: u64,
}

fn spans(trace: &JsonValue) -> Vec<Span> {
    trace
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("spans array")
        .iter()
        .map(|s| Span {
            name: s.str_of("name").expect("name").to_string(),
            span_id: s.str_of("span_id").expect("span_id").to_string(),
            parent_id: s.str_of("parent_id").expect("parent_id").to_string(),
            start_ns: s.num_of("start_ns").expect("start_ns"),
            end_ns: s.num_of("end_ns").expect("end_ns"),
        })
        .collect()
}

/// Ids unique and nonzero (the root's included); every span well-formed.
fn assert_well_formed(trace: &JsonValue, spans: &[Span]) {
    let root = trace.str_of("root_span_id").expect("root_span_id");
    let mut ids: Vec<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
    ids.push(root);
    assert!(
        ids.iter().all(|id| id.bytes().any(|b| b != b'0')),
        "zero span id in {ids:?}"
    );
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "span ids repeat");
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "{s:?} ends before it starts");
    }
}

#[test]
fn a_traced_get_records_the_four_phase_tree_under_the_callers_trace() {
    let addr = start(1, 0);
    let (header, trace_id) = traceparent(1);
    let (status, _) = send(addr, "GET", "/v1/vertex/3", None, &header);
    assert_eq!(status, 200);

    let trace = captured(addr, &trace_id);
    assert_eq!(trace.str_of("remote_parent"), Some("00f067aa0ba902b7"));
    assert_eq!(trace.str_of("sampled"), Some("head"));
    assert_eq!(trace.str_of("path"), Some("/v1/vertex/{n}"));
    let root = trace.str_of("root_span_id").expect("root_span_id");
    assert_ne!(root, "00f067aa0ba902b7", "the root is this server's span");

    let spans = spans(&trace);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["accept", "parse", "evaluate", "write"]);
    assert!(spans.iter().all(|s| s.parent_id == root), "{spans:?}");
    assert_eq!(spans[0].start_ns, 0, "accept starts the request clock");
    // The phases follow one another.
    for pair in spans.windows(2) {
        assert!(pair[1].start_ns >= pair[0].end_ns, "{pair:?} overlap");
    }
    assert_well_formed(&trace, &spans);
}

#[test]
fn batch_items_are_children_of_evaluate() {
    let addr = start(1, 0);
    let (header, trace_id) = traceparent(2);
    let body = "vertex 1\nedge 0 1\nneighbors 2\n";
    let (status, answer) = send(addr, "POST", "/v1/batch", Some(body), &header);
    assert_eq!(status, 200, "{answer}");

    let trace = captured(addr, &trace_id);
    let spans = spans(&trace);
    let root = trace.str_of("root_span_id").expect("root_span_id");
    let top: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent_id == root)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(top, ["accept", "parse", "evaluate", "write"]);
    let evaluate = spans.iter().find(|s| s.name == "evaluate").unwrap();
    let items: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent_id == evaluate.span_id)
        .collect();
    let names: Vec<&str> = items.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["batch[0] vertex", "batch[1] edge", "batch[2] neighbors"]
    );
    for item in &items {
        assert!(item.start_ns >= evaluate.start_ns && item.end_ns <= evaluate.end_ns);
    }
    assert_eq!(spans.len(), 7, "{spans:?}");
    assert_well_formed(&trace, &spans);
}

#[test]
fn a_stalled_request_is_tail_sampled_with_the_stall_in_evaluate() {
    const STALL_MS: u64 = 120;
    let addr = start(0, 50);
    // A fast request is not kept by a tail-only policy.
    let (fast, fast_id) = traceparent(3);
    assert_eq!(send(addr, "GET", "/v1/vertex/0", None, &fast).0, 200);
    let (header, trace_id) = traceparent(4);
    let target = format!("/v1/admin/stall?ms={STALL_MS}&token={TOKEN}");
    let (status, body) = send(addr, "GET", &target, None, &header);
    assert_eq!(status, 200, "{body}");

    let trace = captured(addr, &trace_id);
    assert_eq!(trace.str_of("sampled"), Some("slow"));
    assert!(trace.num_of("total_ns").unwrap() >= STALL_MS * 1_000_000);
    let spans = spans(&trace);
    let evaluate = spans
        .iter()
        .find(|s| s.name == "evaluate")
        .expect("evaluate span");
    assert!(
        evaluate.end_ns - evaluate.start_ns >= STALL_MS * 1_000_000,
        "{evaluate:?}"
    );
    assert_well_formed(&trace, &spans);

    let (resp, _) = client(addr)
        .request(
            None,
            "GET",
            &format!("/v1/admin/traces?token={TOKEN}"),
            None,
            None,
        )
        .expect("traces request");
    assert!(!resp.body.contains(&fast_id), "fast request was captured");
}
