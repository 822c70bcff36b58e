//! Every keyed answer — vertex, edge, neighbors — byte for byte against a
//! `JsonWriter`-rendered reference kept in this file, both as a GET body
//! (with its trailing newline) and as a batch item.
//!
//! The server writes these bodies from constant pieces, and the GET and
//! batch entry points share those pieces, so comparing the two entry
//! points with each other cannot catch a wrong piece. The reference here
//! renders the same members through the general-purpose writer instead.
//! It covers the pair form (`alpha`/`beta`) and the `coords` form on 1-,
//! 3- and 17-level chains, edge hits, misses and `p == q`, neighbors
//! pages at every boundary, and the 404s for out-of-range vertices.

use std::io::BufReader;

use bikron_core::chain::pair_levels;
use bikron_core::{KronChain, SelfLoopMode};
use bikron_generators::{complete_bipartite, crown, cycle};
use bikron_graph::Graph;
use bikron_obs::JsonWriter;
use bikron_serve::http::{parse_request, write_error, Request};
use bikron_serve::{ServeOptions, ServeState, DEFAULT_LIMIT, MAX_LIMIT};

/// A server and an independent copy of the chain it serves.
struct Served {
    state: ServeState,
    chain: KronChain,
    pair: bool,
}

fn pair(a: Graph, b: Graph, mode: SelfLoopMode) -> Served {
    let chain = KronChain::new(
        vec![("A".into(), a.clone()), ("B".into(), b.clone())],
        &pair_levels(mode),
    )
    .unwrap();
    let state = ServeState::build(a, b, mode, None).unwrap();
    Served {
        state,
        chain,
        pair: true,
    }
}

fn expr(bindings: Vec<(String, Graph)>, levels: &[(String, bool)]) -> Served {
    let chain = KronChain::new(bindings.clone(), levels).unwrap();
    let state = ServeState::build_expr(bindings, levels, ServeOptions::default()).unwrap();
    Served {
        state,
        chain,
        pair: false,
    }
}

/// Every server shape: two pair servers, then chains of 1, 3 and 17
/// levels.
fn servers() -> Vec<Served> {
    let edge = complete_bipartite(1, 1);
    // 17 levels of K₁,₁, lifted on the even ones: 131,072 vertices of
    // degree 2⁹ = 512.
    let tall: Vec<(String, bool)> = (0..17).map(|i| ("E".to_string(), i % 2 == 0)).collect();
    vec![
        pair(crown(4), complete_bipartite(2, 3), SelfLoopMode::FactorA),
        pair(cycle(6), complete_bipartite(2, 3), SelfLoopMode::None),
        expr(vec![("A".into(), crown(4))], &[("A".into(), false)]),
        expr(
            vec![
                ("A".into(), cycle(6)),
                ("B".into(), complete_bipartite(2, 3)),
            ],
            &[("A".into(), true), ("B".into(), false), ("A".into(), false)],
        ),
        expr(vec![("E".into(), edge)], &tall),
    ]
}

fn request(raw: String) -> Request {
    parse_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

fn get(path: &str) -> Request {
    request(format!("GET {path} HTTP/1.1\r\n\r\n"))
}

fn post(body: &str) -> Request {
    request(format!(
        "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ))
}

fn out_of_range(chain: &KronChain, p: usize) -> String {
    let mut w = JsonWriter::new();
    let n = chain.num_vertices();
    write_error(
        &mut w,
        404,
        &format!("vertex {p} out of range (product has {n} vertices)"),
    );
    w.into_buffer()
}

fn vertex_ref(s: &Served, p: usize) -> String {
    if p >= s.chain.num_vertices() {
        return out_of_range(&s.chain, p);
    }
    let truth = s.chain.vertex_at(p);
    let coords = s.chain.split(p);
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    if s.pair {
        w.u64_field("alpha", coords[0] as u64);
        w.u64_field("beta", coords[1] as u64);
    } else {
        w.key("coords");
        w.open_array();
        for c in coords {
            w.u64_element(c as u64);
        }
        w.close_array();
    }
    w.u64_field("degree", truth.degree);
    w.u64_field("squares", truth.squares);
    w.close_object();
    w.into_buffer()
}

fn edge_ref(s: &Served, p: usize, q: usize) -> String {
    let n = s.chain.num_vertices();
    if p >= n {
        return out_of_range(&s.chain, p);
    }
    if q >= n {
        return out_of_range(&s.chain, q);
    }
    let edge = s.chain.edge_at(p, q);
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("p", p as u64);
    w.u64_field("q", q as u64);
    w.bool_field("edge", edge.squares.is_some());
    w.u64_field("degree_p", edge.degree_p);
    w.u64_field("degree_q", edge.degree_q);
    match edge.squares {
        Some(sq) => w.u64_field("squares", sq),
        None => w.null_field("squares"),
    }
    w.close_object();
    w.into_buffer()
}

fn neighbors_ref(s: &Served, p: usize, offset: u64, limit: usize) -> String {
    if p >= s.chain.num_vertices() {
        return out_of_range(&s.chain, p);
    }
    let degree = s.chain.degree(p);
    let page = s.chain.neighbors_page(p, offset, limit);
    let count = page.len() as u64;
    let mut w = JsonWriter::new();
    w.open_object();
    w.u64_field("vertex", p as u64);
    w.u64_field("degree", degree);
    w.u64_field("offset", offset);
    w.u64_field("count", count);
    if offset + count < degree && count > 0 {
        w.u64_field("next_offset", offset + count);
    } else {
        w.null_field("next_offset");
    }
    w.key("neighbors");
    w.open_array();
    for q in page {
        w.u64_element(q as u64);
    }
    w.close_array();
    w.close_object();
    w.into_buffer()
}

/// One keyed query in both spellings, and its expected body without the
/// trailing newline.
struct Query {
    path: String,
    line: String,
    expect: String,
}

fn queries(s: &Served) -> Vec<Query> {
    let n = s.chain.num_vertices();
    let probes = [0, 1, n / 3, n / 2, n - 1];
    let mut out = Vec::new();
    for p in probes.into_iter().chain([n, n + 7]) {
        out.push(Query {
            path: format!("/v1/vertex/{p}"),
            line: format!("vertex {p}"),
            expect: vertex_ref(s, p),
        });
    }
    for p in probes {
        let hit = s.chain.neighbors_page(p, 0, 1)[0];
        let miss = (0..n)
            .find(|&q| q != p && s.chain.edge_at(p, q).squares.is_none())
            .expect("a non-neighbor");
        for (a, b) in [(p, hit), (hit, p), (p, miss), (p, p), (p, n), (n, p)] {
            out.push(Query {
                path: format!("/v1/edge/{a}/{b}"),
                line: format!("edge {a} {b}"),
                expect: edge_ref(s, a, b),
            });
        }
    }
    for p in probes {
        let d = s.chain.degree(p);
        out.push(Query {
            path: format!("/v1/neighbors/{p}"),
            line: format!("neighbors {p}"),
            expect: neighbors_ref(s, p, 0, DEFAULT_LIMIT),
        });
        for offset in [0, 1, d / 2, d.saturating_sub(1), d, d + 1, u64::MAX] {
            out.push(Query {
                path: format!("/v1/neighbors/{p}?offset={offset}"),
                line: format!("neighbors {p} {offset}"),
                expect: neighbors_ref(s, p, offset, DEFAULT_LIMIT),
            });
            for limit in [0, 1, 2, (d as usize).min(MAX_LIMIT), MAX_LIMIT] {
                out.push(Query {
                    path: format!("/v1/neighbors/{p}?offset={offset}&limit={limit}"),
                    line: format!("neighbors {p} {offset} {limit}"),
                    expect: neighbors_ref(s, p, offset, limit),
                });
            }
        }
    }
    out.push(Query {
        path: format!("/v1/neighbors/{n}"),
        line: format!("neighbors {n}"),
        expect: out_of_range(&s.chain, n),
    });
    out
}

#[test]
fn keyed_answers_match_the_writer_reference() {
    for s in servers() {
        let queries = queries(&s);
        for q in &queries {
            let single = s.state.handle(&get(&q.path));
            assert_eq!(single.body, format!("{}\n", q.expect), "GET {}", q.path);
            let want = if q.expect.starts_with("{\n  \"error\": 404") {
                404
            } else {
                200
            };
            assert_eq!(single.status, want, "GET {}", q.path);
            let batch = s.state.handle(&post(&q.line));
            assert_eq!(batch.status, 200, "{}", q.line);
            assert_eq!(batch.body, format!("[\n{}\n]\n", q.expect), "{}", q.line);
        }
        // And all of them as items of full batches.
        for chunk in queries.chunks(s.state.batch_max()) {
            let body: String = chunk.iter().map(|q| format!("{}\n", q.line)).collect();
            let items: Vec<&str> = chunk.iter().map(|q| q.expect.as_str()).collect();
            let batch = s.state.handle(&post(&body));
            assert_eq!(batch.body, format!("[\n{}\n]\n", items.join(",\n")));
        }
    }
}

/// The shapes the cases above must reach, so a change to the factors
/// cannot quietly drop one.
#[test]
fn cases_reach_every_shape() {
    let all: Vec<String> = servers()
        .iter()
        .flat_map(|s| queries(s).into_iter().map(|q| q.expect))
        .collect();
    let has = |needle: &str| all.iter().any(|b| b.contains(needle));
    for needle in [
        "\"alpha\": ",
        "\"coords\": [\n    ",
        "\"edge\": true",
        "\"edge\": false",
        "\"squares\": null",
        "\"next_offset\": null",
        "\"neighbors\": []",
        "\"error\": 404",
    ] {
        assert!(has(needle), "no case renders {needle:?}");
    }
    // A page that stops short of the degree, and the 1- and 17-level
    // coordinate arrays.
    assert!(all
        .iter()
        .any(|b| b.contains("\"next_offset\": ") && !b.contains("\"next_offset\": null")));
    assert!(has("\"coords\": [\n    0\n  ]"));
    assert!(has(&format!(
        "\"coords\": [{}\n  ]",
        "\n    0,".repeat(16) + "\n    0"
    )));
}
