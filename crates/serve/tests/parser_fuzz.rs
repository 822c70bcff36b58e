//! Robustness matrix for the hand-rolled HTTP layer: seeded
//! pseudo-random byte streams must never panic the parser, and every
//! rejection must land in the documented status set {400, 405, 413, 431}
//! (with `Closed`/`Io` reported as 400 formality by `HttpError::status`).
//!
//! Three generations of hostility, all deterministic per seed:
//! pure random bytes, random bytes with HTTP-ish framing sprinkled in,
//! and mutated copies of a valid request. A fourth matrix drives random
//! bodies through `POST /v1/batch` end-to-end: the answer is always 200
//! or a structured 400 whose body names the offending line.

use std::io::BufReader;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::http::parse_request;
use bikron_serve::{ServeOptions, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feed one byte stream to the parser; panics bubble up and fail the
/// test, error statuses outside the documented set are asserted against.
fn assert_parse_is_total(stream: &[u8]) {
    let mut reader = BufReader::new(stream);
    // Keep pulling requests until the stream errors or drains, as the
    // keep-alive connection loop would.
    for _ in 0..8 {
        match parse_request(&mut reader) {
            Ok(req) => {
                assert!(
                    req.method() == "GET" || req.method() == "POST",
                    "parser let through method {:?}",
                    req.method()
                );
            }
            Err(e) => {
                assert!(
                    matches!(e.status(), 400 | 405 | 413 | 431),
                    "undocumented status {} for {:?}",
                    e.status(),
                    e.detail()
                );
                break;
            }
        }
    }
}

#[test]
fn random_bytes_never_panic_and_map_to_documented_statuses() {
    let mut rng = StdRng::seed_from_u64(0xF_00D);
    for _ in 0..400 {
        let len = rng.gen_range(0usize..600);
        let stream: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        assert_parse_is_total(&stream);
    }
}

#[test]
fn http_shaped_garbage_never_panics() {
    const FRAGMENTS: &[&str] = &[
        "GET ",
        "POST ",
        "HTTP/1.1",
        "HTTP/9.9",
        "\r\n",
        "\n",
        " ",
        "/v1/vertex/",
        "/v1/batch",
        "%",
        "%zz",
        "%2f",
        "?offset=",
        "&limit=",
        "Content-Length:",
        "Content-Length: 99999999",
        "Host: x",
        ":",
        "\0",
        "vertex 1\n",
    ];
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..400 {
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(1usize..12) {
            if rng.gen_bool(0.8) {
                stream.extend_from_slice(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())].as_bytes());
            } else {
                stream.push(rng.gen_range(0u32..256) as u8);
            }
        }
        assert_parse_is_total(&stream);
    }
}

#[test]
fn mutated_valid_requests_never_panic() {
    let valid = b"POST /v1/batch HTTP/1.1\r\nHost: f\r\nContent-Length: 9\r\n\r\nvertex 1\n";
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..600 {
        let mut stream = valid.to_vec();
        for _ in 0..rng.gen_range(1usize..6) {
            match rng.gen_range(0u32..3) {
                0 => {
                    let i = rng.gen_range(0..stream.len());
                    stream[i] = rng.gen_range(0u32..256) as u8;
                }
                1 => {
                    let i = rng.gen_range(0..stream.len());
                    stream.truncate(i);
                }
                _ => {
                    let i = rng.gen_range(0..=stream.len());
                    stream.insert(i, rng.gen_range(0u32..256) as u8);
                }
            }
            if stream.is_empty() {
                break;
            }
        }
        assert_parse_is_total(&stream);
    }
}

#[test]
fn random_batch_bodies_get_200_or_a_line_indexed_400() {
    let state = ServeState::build_with(
        cycle(5),
        complete_bipartite(2, 3),
        SelfLoopMode::None,
        ServeOptions::default(),
    )
    .unwrap();
    const TOKENS: &[&str] = &[
        "vertex",
        "edge",
        "neighbors",
        "vertexx",
        "",
        "0",
        "1",
        "29",
        "30",
        "9999999",
        "18446744073709551616",
        "-1",
        "1.5",
        " ",
        "\t",
        "🦀",
    ];
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..500 {
        let mut body = String::new();
        for _ in 0..rng.gen_range(0usize..8) {
            let words = rng.gen_range(0usize..5);
            let line: Vec<&str> = (0..words)
                .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
                .collect();
            body.push_str(&line.join(" "));
            body.push('\n');
        }
        let raw = format!(
            "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        let resp = state.handle(&req);
        match resp.status {
            200 => {}
            400 => assert!(
                resp.body.contains("\"line\": "),
                "400 without offending line index: {}",
                resp.body
            ),
            other => panic!("batch answered {other} for body {body:?}: {}", resp.body),
        }
    }
}
