//! `loadgen` — closed-loop load checker for `bikron serve` and
//! `bikron router`.
//!
//! Spawns `--threads` clients, each with one keep-alive connection, that
//! send exactly `--requests` queries of a mixed workload (vertex /
//! known-edge / random-pair / neighbors / stats) and check every answer
//! against a reference that shares no per-query code with the server
//! ([`bikron_bench::check`]): the pair closed forms of `core::truth` for
//! `A_SPEC B_SPEC MODE`, or for `--expr "EXPR" NAME=SPEC...` a
//! materialised product recounted directly, which also checks
//! /v1/clustering and /v1/community answers and the canonical expression
//! in /v1/stats. A mismatch is a correctness bug, not noise.
//!
//! `--batch K` sends the queries as `POST /v1/batch` requests of K lines
//! and checks each item (byte-exact for vertex items). `--zipf S` draws
//! vertices from a Zipf(S) distribution instead of uniformly.
//!
//! `--cluster` first checks that the target's `/v1/health` identifies as
//! a router, so a cluster check cannot silently run against one node.
//! The checks do not change: the router must be byte-transparent.
//!
//! `--stall MS` injects `--stall-count` stalls after the workload
//! (needs `--admin-token`), and `--check-health ok|degraded` then asserts
//! the `/v1/health` verdict.
//!
//! ```sh
//! bikron serve unicode unicode loops-a --addr 127.0.0.1:7474 &
//! cargo run --release -p bikron-bench --bin loadgen -- \
//!     unicode unicode loops-a --addr 127.0.0.1:7474 --requests 2000 --threads 4
//! ```
//!
//! Exits 1 on any mismatch or health mismatch, 2 on bad arguments.

use std::collections::HashMap;
use std::time::Duration;

use bikron_bench::check::{Reference, Workload};
use bikron_bench::serve_load::field_u64;
use bikron_cli::client::Client;
use bikron_cli::{parse_factor, parse_mode};
use bikron_graph::Graph;

const USAGE: &str = "usage: loadgen A_SPEC B_SPEC MODE [--addr HOST:PORT] [--requests N] \
     [--threads N] [--seed S] [--batch K] [--zipf S] [--stall MS] [--stall-count K] \
     [--admin-token TOK] [--check-health ok|degraded] [--cluster]\n\
     \x20      loadgen --expr \"EXPR\" NAME=SPEC... [same flags]";

/// The flags that take a value; `--cluster` is the one that takes none.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--requests",
    "--threads",
    "--seed",
    "--batch",
    "--zipf",
    "--stall",
    "--stall-count",
    "--admin-token",
    "--check-health",
];

/// Print `msg` and the usage, and exit 2.
fn bad_args(msg: &str) -> ! {
    eprintln!("loadgen: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// One GET with the shared client on a fresh connection; exits 1 when
/// the target does not answer.
fn get(addr: &str, path: &str) -> (u16, String) {
    let timeout = Duration::from_secs(30);
    match Client::new(addr, timeout, timeout).request(None, "GET", path, None, None) {
        Ok((resp, _)) => (resp.status, resp.body),
        Err(e) => {
            eprintln!("loadgen: GET {path} on {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.len() < 3 {
        bad_args("missing program");
    }
    // The program's words: `A_SPEC B_SPEC MODE`, or `--expr EXPR` and
    // its `NAME=SPEC` bindings.
    let program = if raw[0] == "--expr" {
        2 + raw[2..].iter().take_while(|x| !x.starts_with("--")).count()
    } else {
        3
    };
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut cluster = false;
    let mut i = program;
    while i < raw.len() {
        match raw[i].as_str() {
            "--cluster" => cluster = true,
            name if VALUE_FLAGS.contains(&name) => {
                let value = raw
                    .get(i + 1)
                    .unwrap_or_else(|| bad_args(&format!("{name} needs a value")));
                values.insert(name, value);
                i += 1;
            }
            other => bad_args(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let flag = |name: &str, default: &'static str| values.get(name).copied().unwrap_or(default);
    let number = |name: &str, default: &'static str| -> u64 {
        flag(name, default)
            .parse()
            .unwrap_or_else(|e| bad_args(&format!("bad {name}: {e}")))
    };
    let factor = |spec: &str| -> Graph {
        parse_factor(spec).unwrap_or_else(|e| bad_args(&format!("bad SPEC {spec:?}: {e}")))
    };
    let addr = flag("--addr", "127.0.0.1:7474");
    let workload = Workload {
        requests: number("--requests", "2000"),
        threads: number("--threads", "4") as usize,
        batch: number("--batch", "0") as usize,
        seed: number("--seed", "42"),
        zipf: flag("--zipf", "0")
            .parse()
            .unwrap_or_else(|e| bad_args(&format!("bad --zipf: {e}"))),
    };
    let stall_ms = number("--stall", "0");
    let stall_count = number("--stall-count", "1");
    let admin_token = flag("--admin-token", "");
    let check_health = flag("--check-health", "");

    if cluster {
        let (status, body) = get(addr, "/v1/health");
        let role = bikron_obs::flat_str_field(&body, "role").unwrap_or("");
        if status != 200 || role != "router" {
            eprintln!(
                "loadgen: --cluster target {addr} is not a router \
                 (health role {role:?}, HTTP {status}); point --addr at `bikron router`"
            );
            std::process::exit(2);
        }
        let replicas = field_u64(&body, "replicas").unwrap_or(0);
        println!("loadgen: cluster target confirmed — router fronting {replicas} replica(s)");
    }

    // A pair reference borrows its factors, so they outlive it.
    let (a, b);
    let reference = if raw[0] == "--expr" {
        let bindings = raw[2..program]
            .iter()
            .map(|binding| match binding.split_once('=') {
                Some((name, spec)) => (name.to_string(), factor(spec)),
                None => bad_args(&format!("expected NAME=SPEC binding, got {binding:?}")),
            })
            .collect();
        Reference::materialized(&raw[1], bindings)
    } else {
        let mode = parse_mode(&raw[2]).unwrap_or_else(|e| bad_args(&format!("bad MODE: {e}")));
        (a, b) = (factor(&raw[0]), factor(&raw[1]));
        Reference::pair(&a, &b, mode)
    }
    .unwrap_or_else(|e| bad_args(&format!("cannot build the reference: {e}")));

    let outcome = reference.run(addr, &workload);
    println!(
        "loadgen: {} queries checked, {} mismatch(es)",
        outcome.queries, outcome.mismatches
    );

    // Post-workload SLO exercise: a server with a tight --slo-p99-ms
    // must report `degraded` after the stalls, and `ok` without them.
    let stalls = if stall_ms > 0 { stall_count.max(1) } else { 0 };
    for _ in 0..stalls {
        let (status, body) = get(
            addr,
            &format!("/v1/admin/stall?ms={stall_ms}&token={admin_token}"),
        );
        if status != 200 {
            eprintln!("loadgen: stall injection failed (HTTP {status}): {body}");
            std::process::exit(1);
        }
    }
    let mut health_failed = false;
    if !check_health.is_empty() {
        let (status, body) = get(addr, "/v1/health");
        let got = bikron_obs::flat_str_field(&body, "status").unwrap_or("");
        health_failed = status != 200 || got != check_health;
        if health_failed {
            eprintln!(
                "loadgen: HEALTH MISMATCH — expected {check_health:?}, got {got:?} \
                 (HTTP {status}): {body}"
            );
        } else {
            println!("loadgen: health is {got:?} as expected");
        }
    }

    if outcome.mismatches > 0 {
        eprintln!(
            "loadgen: FAILED — {} response(s) disagreed with the reference",
            outcome.mismatches
        );
    }
    std::process::exit(i32::from(outcome.mismatches > 0 || health_failed));
}
