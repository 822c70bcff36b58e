//! The load checker behind `loadgen` (`bikron_bench::check`) against
//! in-process servers, over TCP as `loadgen` runs it.
//!
//! A pair server is checked against the `core::truth` closed forms and an
//! expression server against its materialised recount, each with single
//! GETs and with 16-line batches: every answer must agree, and exactly
//! the requested number of queries must go out. A server that inflates
//! its 4-cycle counts by one must be caught in every one of those runs.

use std::sync::Arc;
use std::thread::JoinHandle;

use bikron_bench::check::{Outcome, Reference, Workload};
use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, crown, cycle};
use bikron_serve::{Exchange, Handler, ServeOptions, ServeState, Server, ServerConfig, Transport};

const EXPR: &str = "(A+I)⊗B⊗C";

/// `cycle:5 kmn:2x3 loops-a`.
fn pair_state() -> ServeState {
    ServeState::build(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::FactorA,
        None,
    )
    .expect("pair server")
}

/// `--expr "(A+I)⊗B⊗C" A=cycle:5 B=kmn:2x3 C=crown:3`.
fn expr_state() -> ServeState {
    let levels = [("A", true), ("B", false), ("C", false)].map(|(n, l)| (n.to_string(), l));
    ServeState::build_expr(bindings(), &levels, ServeOptions::default()).expect("expr server")
}

fn bindings() -> Vec<(String, bikron_graph::Graph)> {
    vec![
        ("A".to_string(), cycle(5)),
        ("B".to_string(), complete_bipartite(2, 3)),
        ("C".to_string(), crown(3)),
    ]
}

/// Serves like `state`, but adds 1 to every 4-cycle count in vertex
/// answers and batch answers: a server with a wrong Thm 3/4 term.
struct InflatedSquares(ServeState);

impl Handler for InflatedSquares {
    fn respond(&self, burst: &mut [Exchange]) {
        self.0.respond(burst);
        for x in burst {
            if x.req.path().starts_with("/v1/vertex/") || x.req.path() == "/v1/batch" {
                x.body = inflate_squares(&x.body);
            }
        }
    }
    fn transport(&self) -> &Transport {
        self.0.transport()
    }
}

/// Every `"squares": N` in `body` becomes `"squares": N+1`.
fn inflate_squares(body: &str) -> String {
    const KEY: &str = "\"squares\": ";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            let n: u64 = tail[..digits].parse().expect("a count");
            out.push_str(&(n + 1).to_string());
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// A running in-process server on an ephemeral loopback port.
struct Running {
    addr: String,
    stop: Box<dyn Fn()>,
    thread: JoinHandle<()>,
}

impl Running {
    fn start<H: Handler + 'static>(handler: H, stop: fn(&H)) -> Running {
        let handler = Arc::new(handler);
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, Arc::clone(&handler)).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        Running {
            addr,
            stop: Box::new(move || stop(&handler)),
            thread: std::thread::spawn(move || server.run().expect("server run")),
        }
    }

    fn stop(self) {
        (self.stop)();
        self.thread.join().expect("server thread");
    }
}

/// `requests` is not a multiple of the thread count or of the batch size,
/// so an exact query count shows that no remainder is dropped.
fn workload(batch: usize) -> Workload {
    Workload {
        requests: 301,
        threads: 2,
        batch,
        seed: 7,
        zipf: 0.0,
    }
}

#[test]
fn correct_servers_pass_in_single_and_batch_mode() {
    let (a, b) = (cycle(5), complete_bipartite(2, 3));
    let pair = Reference::pair(&a, &b, SelfLoopMode::FactorA).expect("pair reference");
    let expr = Reference::materialized(EXPR, bindings()).expect("expr reference");
    for (reference, server) in [
        (
            &pair,
            Running::start(pair_state(), ServeState::request_shutdown),
        ),
        (
            &expr,
            Running::start(expr_state(), ServeState::request_shutdown),
        ),
    ] {
        for batch in [0, 16] {
            let outcome = reference.run(&server.addr, &workload(batch));
            assert_eq!(
                outcome,
                Outcome {
                    queries: 301,
                    mismatches: 0
                },
                "batch {batch}"
            );
        }
        server.stop();
    }
}

#[test]
fn an_inflated_vertex_count_is_caught_in_single_and_batch_mode() {
    let (a, b) = (cycle(5), complete_bipartite(2, 3));
    let pair = Reference::pair(&a, &b, SelfLoopMode::FactorA).expect("pair reference");
    let expr = Reference::materialized(EXPR, bindings()).expect("expr reference");
    let stop = |h: &InflatedSquares| h.0.request_shutdown();
    for (reference, server) in [
        (&pair, Running::start(InflatedSquares(pair_state()), stop)),
        (&expr, Running::start(InflatedSquares(expr_state()), stop)),
    ] {
        for batch in [0, 16] {
            let outcome = reference.run(&server.addr, &workload(batch));
            assert_eq!(outcome.queries, 301, "batch {batch}");
            assert!(outcome.mismatches > 0, "batch {batch}: {outcome:?}");
        }
        server.stop();
    }
}
