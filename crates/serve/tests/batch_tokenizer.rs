//! The batch parser behind `POST /v1/batch` against the parser it
//! replaced.
//!
//! `reference_parse` below is the `str`-based parser the server used to
//! run on every line: `str::lines`, `split_whitespace` and `str::parse`.
//! The server now reads plainly spelled lines with a byte scan and hands
//! the rest to that `str` path. For every body — a fixed list of edge
//! cases, then seeded random bodies built from verbs, numbers and every
//! Unicode `White_Space` character — it must return the same queries as
//! the reference, or a 400 with the same body.

use bikron_serve::batch::{parse_batch, BatchParseError, BatchQuery};
use bikron_serve::http::first_n;
use bikron_serve::{DEFAULT_LIMIT, MAX_LIMIT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn error(line: usize, detail: impl Into<String>) -> BatchParseError {
    BatchParseError {
        line,
        detail: detail.into(),
    }
}

fn num<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, BatchParseError> {
    tok.parse()
        .map_err(|_| error(line, format!("{what} is not a number: {tok:?}")))
}

/// The batch parser as it was before the byte tokenizer, kept verbatim
/// apart from naming.
fn reference_parse(body: &str, batch_max: usize) -> Result<Vec<BatchQuery>, BatchParseError> {
    let mut queries = Vec::new();
    for (line, text) in body.lines().enumerate() {
        if queries.len() >= batch_max {
            return Err(error(
                line,
                format!("batch exceeds the configured maximum of {batch_max} queries"),
            ));
        }
        let (toks, len) = first_n::<5>(text.split_whitespace());
        let q = match &toks[..len] {
            [] => return Err(error(line, "empty query line")),
            ["vertex", p] => BatchQuery::Vertex(num(p, "vertex index", line)?),
            ["edge", p, q] => {
                BatchQuery::Edge(num(p, "vertex index", line)?, num(q, "vertex index", line)?)
            }
            ["neighbors", rest @ ..] if (1..=3).contains(&rest.len()) => {
                let p = num(rest[0], "vertex index", line)?;
                let offset = match rest.get(1) {
                    Some(t) => num(t, "offset", line)?,
                    None => 0,
                };
                let limit = match rest.get(2) {
                    Some(t) => {
                        let l: usize = num(t, "limit", line)?;
                        if l > MAX_LIMIT {
                            return Err(error(
                                line,
                                format!("limit {l} exceeds the cap of {MAX_LIMIT}"),
                            ));
                        }
                        l
                    }
                    None => DEFAULT_LIMIT,
                };
                BatchQuery::Neighbors(p, offset, limit)
            }
            [verb, ..] if ["vertex", "edge", "neighbors"].contains(verb) => {
                return Err(error(
                    line,
                    format!("wrong argument count for {verb:?}: {text:?}"),
                ))
            }
            [verb, ..] => {
                return Err(error(
                    line,
                    format!("unknown query verb {verb:?} (expected vertex|edge|neighbors)"),
                ))
            }
        };
        queries.push(q);
    }
    if queries.is_empty() {
        return Err(error(0, "batch body has no queries"));
    }
    Ok(queries)
}

/// Parse `body` both ways and require the same outcome.
fn agree(body: &str, batch_max: usize) {
    let got = parse_batch(body, batch_max).map(|batch| {
        let queries: Vec<BatchQuery> = batch.queries().collect();
        assert_eq!(batch.num_queries(), queries.len(), "{body:?}");
        queries
    });
    match (got, reference_parse(body, batch_max)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "{body:?} (batch_max {batch_max})"),
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{body:?} (batch_max {batch_max})");
            let render = |e: &BatchParseError| {
                let mut out = String::new();
                e.answer(&mut out);
                out
            };
            assert_eq!(render(&got), render(&want), "{body:?}");
        }
        (got, want) => panic!("{body:?} (batch_max {batch_max}): got {got:?}, want {want:?}"),
    }
}

/// Every character with the Unicode `White_Space` property.
const WHITE_SPACE: &[char] = &[
    '\t', '\n', '\x0B', '\x0C', '\r', ' ', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}', '\u{2001}',
    '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}', '\u{2009}',
    '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}', '\u{3000}',
];

/// Characters that look like separators but are not `White_Space`.
const NOT_WHITE_SPACE: &[char] = &[
    '\u{0}', '\u{1C}', '\u{1F}', '\u{200B}', '\u{FEFF}', '\u{180E}',
];

#[test]
fn edge_cases_agree() {
    let cap = MAX_LIMIT;
    let mut bodies: Vec<String> = vec![
        String::new(),
        "\n".into(),
        "\r\n".into(),
        "\r".into(),
        "vertex 1".into(),
        "vertex 1\n".into(),
        "vertex 1\r\n".into(),
        "vertex 1\r".into(),
        "vertex 1\r\r\n".into(),
        "edge 1\r".into(),
        "edge 1\r\n".into(),
        "edge 1 2\r\nvertex 3\r\n".into(),
        "vertex 1\n\nvertex 2\n".into(),
        "vertex 1\n\n".into(),
        "\nvertex 1".into(),
        "vertex +7".into(),
        "vertex -7".into(),
        "vertex 007".into(),
        "vertex +".into(),
        "vertex ++7".into(),
        "vertex +-7".into(),
        "vertex 7+".into(),
        "vertex 18446744073709551615".into(),
        "vertex 18446744073709551616".into(),
        "vertex 99999999999999999999999".into(),
        "neighbors 1 18446744073709551615 0".into(),
        "neighbors 1 18446744073709551616".into(),
        format!("neighbors 1 0 {cap}"),
        format!("neighbors 1 0 {}", cap + 1),
        format!("neighbors 1 0 +{cap}"),
        format!("neighbors 1 0 0{}", cap + 1),
        "neighbors 1 0 18446744073709551616".into(),
        "neighbors".into(),
        "neighbors 1 2 3 4".into(),
        "edge 1 2 3 4 5 6".into(),
        "vértex 1".into(),
        "ñeighbors 1 2".into(),
        "Vertex 1".into(),
        "vertex\u{3000}1".into(),
        "vertex\u{85}1\u{A0}".into(),
        "edge\u{2028}1\u{2029}2".into(),
        "vertex\u{200B}1".into(),
        "vertex 1\u{200B}".into(),
        "vertex ١".into(),
        "vertex \"q\"\t1 2".into(),
        "  \t\x0B\x0C \n".into(),
        "\x0Bvertex\x0B1\x0B".into(),
        "vertex\x0C1".into(),
        "vertex 1\u{85}\nvertex 2".into(),
    ];
    for &c in WHITE_SPACE.iter().chain(NOT_WHITE_SPACE) {
        bodies.push(format!("vertex{c}1"));
        bodies.push(format!("{c}edge{c}{c}1{c}2{c}\n"));
        bodies.push(format!("neighbors 1{c}2 3\r\n"));
    }
    for body in &bodies {
        for batch_max in [0, 1, 2, 3, 256] {
            agree(body, batch_max);
        }
    }
}

#[test]
fn batch_max_boundaries_agree() {
    for lines in [1usize, 2, 63, 64, 65, 256, 257] {
        let body = "vertex 1\n".repeat(lines);
        for batch_max in [lines - 1, lines, lines + 1] {
            agree(&body, batch_max);
            agree(body.trim_end(), batch_max);
            agree(&format!("{body}\n"), batch_max);
            agree(&format!("{body}frob\n"), batch_max);
        }
    }
}

/// A random token: a verb, a number in one of its spellings, or noise.
fn token(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "vertex",
        "edge",
        "neighbors",
        "vertex",
        "edge",
        "neighbors",
        "VERTEX",
        "vertexx",
        "vértex",
        "ñ",
        "frob",
        "\"",
        "\\",
        "+",
        "-",
        "",
        "10000",
        "10001",
        "18446744073709551615",
        "18446744073709551616",
    ];
    match rng.gen_range(0u32..8) {
        0..=2 => WORDS[rng.gen_range(0..WORDS.len())].to_string(),
        3 => rng.gen_range(0u64..20).to_string(),
        4 => format!("+{}", rng.gen_range(0u64..20_000)),
        5 => format!("-{}", rng.gen_range(0u64..20)),
        6 => format!("00{}", rng.gen_range(0u64..10_002)),
        _ => rng.gen::<u64>().to_string(),
    }
}

/// A random number, mostly well-formed.
fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0u32..10) {
        0..=5 => rng.gen_range(0u64..20).to_string(),
        6 => format!("+{}", rng.gen_range(0u64..20)),
        7 => format!("0{}", rng.gen_range(9_990u64..10_010)),
        8 => rng.gen::<u64>().to_string(),
        _ => token(rng),
    }
}

/// A random run of separators: mostly one space, sometimes any
/// `White_Space` character or a look-alike.
fn separator(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..3);
    (0..len)
        .map(|_| match rng.gen_range(0u32..10) {
            0..=5 => ' ',
            6..=8 => WHITE_SPACE[rng.gen_range(0..WHITE_SPACE.len())],
            _ => NOT_WHITE_SPACE[rng.gen_range(0..NOT_WHITE_SPACE.len())],
        })
        .collect()
}

fn random_body(rng: &mut StdRng) -> String {
    let lines = rng.gen_range(0usize..8);
    let mut body = String::new();
    for i in 0..lines {
        if rng.gen_range(0u32..4) == 0 {
            body.push_str(&separator(rng));
        }
        if rng.gen_range(0u32..4) == 0 {
            let tokens = rng.gen_range(0usize..6);
            for t in 0..tokens {
                if t > 0 {
                    body.push_str(&separator(rng));
                }
                body.push_str(&token(rng));
            }
        } else {
            // A query of the right shape, with numbers in any spelling.
            let (verb, operands) = match rng.gen_range(0u32..5) {
                0 | 1 => ("vertex", 1),
                2 => ("edge", 2),
                _ => ("neighbors", rng.gen_range(1usize..4)),
            };
            body.push_str(verb);
            for _ in 0..operands {
                body.push_str(&separator(rng));
                body.push_str(&number(rng));
            }
        }
        if rng.gen_range(0u32..4) == 0 {
            body.push_str(&separator(rng));
        }
        let last = i + 1 == lines;
        match rng.gen_range(0u32..6) {
            _ if last && rng.gen_range(0u32..3) == 0 => {}
            0 => body.push_str("\r\n"),
            1 => body.push('\r'),
            _ => body.push('\n'),
        }
    }
    body
}

#[test]
fn random_bodies_agree() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut accepted = 0;
    for _ in 0..20_000 {
        let body = random_body(&mut rng);
        let batch_max = rng.gen_range(1usize..9);
        agree(&body, batch_max);
        accepted += usize::from(parse_batch(&body, batch_max).is_ok());
    }
    // Both outcomes are well exercised.
    assert!((1_000..19_000).contains(&accepted), "{accepted} accepted");
}
