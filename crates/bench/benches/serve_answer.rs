//! HTTP serialise/parse cost of the keyed answers (layer 4): one
//! `ServeState::answer` call on the Table-I pair server `(A+I)⊗A`, for a
//! 64-line batch in the benchmark's batch mix (vertex 60%, random-pair
//! edge 25%, neighbors 15% at a random offset with a limit of 1 to 64,
//! uniform keys) and for single vertex, edge and neighbors GETs. The
//! request is parsed once and the body buffer reused, as a keep-alive
//! connection does, so the figures are routing, evaluation and
//! rendering only.
//!
//! Every body is checked before it is timed: each single answer against
//! a reference rendered here from `KronChain`, and the batch against its
//! items answered as singles.
//!
//! Run: `cargo bench -p bikron-bench --bench serve_answer`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

use bikron_core::chain::pair_levels;
use bikron_core::{KronChain, SelfLoopMode};
use bikron_generators::unicode_like::unicode_like;
use bikron_serve::http::{parse_request, Request};
use bikron_serve::ServeState;

const BATCH_LINES: usize = 64;

fn request(raw: &str) -> Request {
    parse_request(&mut raw.as_bytes()).expect("parse")
}

fn get(path: &str) -> Request {
    request(&format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

/// The body `state` answers `req` with; it must be a 200.
fn body_of(state: &ServeState, req: &Request) -> String {
    let mut body = String::new();
    let answer = state.answer(req, &mut body);
    assert_eq!(answer.status, 200, "{body}");
    body
}

/// The batch lines of one 64-query request in the batch mix.
fn batch_lines(chain: &KronChain, rng: &mut StdRng) -> Vec<String> {
    let n = chain.num_vertices();
    (0..BATCH_LINES)
        .map(|_| {
            let dice = rng.gen_range(0u32..100);
            let p = rng.gen_range(0..n);
            if dice < 60 {
                format!("vertex {p}")
            } else if dice < 85 {
                format!("edge {p} {}", rng.gen_range(0..n))
            } else {
                let d = chain.degree(p);
                let offset = if d == 0 { 0 } else { rng.gen_range(0..d) };
                format!("neighbors {p} {offset} {}", rng.gen_range(1usize..=64))
            }
        })
        .collect()
}

/// The path of the single GET that a batch line asks.
fn path_of(line: &str) -> String {
    let toks: Vec<&str> = line.split(' ').collect();
    match toks[..] {
        ["vertex", p] => format!("/v1/vertex/{p}"),
        ["edge", p, q] => format!("/v1/edge/{p}/{q}"),
        ["neighbors", p, o, l] => format!("/v1/neighbors/{p}?offset={o}&limit={l}"),
        _ => unreachable!("{line}"),
    }
}

fn bench_answer(c: &mut Criterion) {
    let a = unicode_like();
    let chain = KronChain::new(
        vec![("A".into(), a.clone()), ("B".into(), a.clone())],
        &pair_levels(SelfLoopMode::FactorA),
    )
    .expect("Table-I chain");
    let state = ServeState::build(a.clone(), a, SelfLoopMode::FactorA, None).expect("pair");
    let mut rng = StdRng::seed_from_u64(31);

    // Single answers, checked against the chain.
    let n = chain.num_vertices();
    let p = (0..)
        .map(|_| rng.gen_range(0..n))
        .find(|&p| chain.degree(p) > 16)
        .expect("a vertex of degree above 16");
    let q = chain.neighbors_page(p, 0, 1)[0];
    let (alpha, beta) = match chain.split(p)[..] {
        [alpha, beta] => (alpha, beta),
        _ => unreachable!("a pair has two levels"),
    };
    let v = chain.vertex_at(p);
    let vertex = get(&format!("/v1/vertex/{p}"));
    assert_eq!(
        body_of(&state, &vertex),
        format!(
            "{{\n  \"vertex\": {p},\n  \"alpha\": {alpha},\n  \"beta\": {beta},\n  \
             \"degree\": {},\n  \"squares\": {}\n}}\n",
            v.degree, v.squares
        )
    );
    let e = chain.edge_at(p, q);
    let edge = get(&format!("/v1/edge/{p}/{q}"));
    assert_eq!(
        body_of(&state, &edge),
        format!(
            "{{\n  \"p\": {p},\n  \"q\": {q},\n  \"edge\": true,\n  \"degree_p\": {},\n  \
             \"degree_q\": {},\n  \"squares\": {}\n}}\n",
            e.degree_p,
            e.degree_q,
            e.squares.expect("an edge")
        )
    );
    let page = chain.neighbors_page(p, 0, 16);
    let neighbors = get(&format!("/v1/neighbors/{p}?limit=16"));
    let elements: Vec<String> = page.iter().map(|q| format!("    {q}")).collect();
    let d = chain.degree(p);
    assert_eq!(
        body_of(&state, &neighbors),
        format!(
            "{{\n  \"vertex\": {p},\n  \"degree\": {d},\n  \"offset\": 0,\n  \"count\": {},\n  \
             \"next_offset\": 16,\n  \"neighbors\": [\n{}\n  ]\n}}\n",
            page.len(),
            elements.join(",\n")
        )
    );

    // The batch, checked against its items answered one at a time.
    let lines = batch_lines(&chain, &mut rng);
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let batch = request(&format!(
        "POST /v1/batch HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{text}",
        text.len()
    ));
    let items: Vec<String> = lines
        .iter()
        .map(|l| body_of(&state, &get(&path_of(l))).trim_end().to_string())
        .collect();
    assert_eq!(
        body_of(&state, &batch),
        format!("[\n{}\n]\n", items.join(",\n"))
    );

    let mut group = c.benchmark_group("serve_answer");
    group.sample_size(30);
    let mut body = String::new();
    let mut time = |group: &mut criterion::BenchmarkGroup<'_>, name: &str, req: &Request| {
        group.bench_function(name, |b| {
            b.iter(|| {
                body.clear();
                black_box(state.answer(req, &mut body).status)
            })
        });
    };
    group.throughput(Throughput::Elements(BATCH_LINES as u64));
    time(&mut group, "batch_64_table1", &batch);
    group.throughput(Throughput::Elements(1));
    time(&mut group, "vertex_get", &vertex);
    time(&mut group, "edge_get", &edge);
    time(&mut group, "neighbors_get_16", &neighbors);
    group.finish();
}

criterion_group!(benches, bench_answer);
criterion_main!(benches);
