//! `POST /v1/batch`: newline-delimited query parsing and in-order
//! evaluation on the pool worker that read the request.
//!
//! A batch body is up to `batch_max` lines, each one query:
//!
//! ```text
//! vertex P
//! edge P Q
//! neighbors P [OFFSET [LIMIT]]
//! ```
//!
//! Parsing is strict: an unknown verb, wrong arity, non-numeric operand,
//! over-cap limit, empty line, or line count beyond `batch_max` fails the
//! *whole* request with a structured 400 naming the offending 0-based
//! line — a malformed batch is a client bug, and answering the valid
//! prefix would hide it. Well-formed lines always evaluate; semantic
//! errors (an out-of-range vertex, say) surface as that item's embedded
//! error object, exactly the body the single-query endpoint would have
//! returned, so a batch of N queries is byte-for-byte N single answers
//! joined into one JSON array. Each answer is rendered once, straight
//! into the batch body.
//!
//! The body is read twice and never copied: [`parse_batch`] validates
//! every line and counts them, and [`Batch::queries`] parses them again
//! as [`eval_batch`] answers them, so a malformed batch evaluates no item
//! and no request holds a `Vec` of its queries. A line spelled as
//! clients write queries — the verb, then plain decimal operands after
//! runs of ASCII blanks (space, `\t`, `\x0B`, `\x0C`, `\r`) — is read
//! in one scan over its bytes that builds no token. Any other line, and
//! every malformed one, is split by `split_whitespace` and read by
//! `str::parse`, which word every 400. The scan accepts only lines that
//! those would accept with the same query, so the grammar is exactly
//! `str::lines`, `split_whitespace` and `str::parse`: a line holding a
//! non-ASCII byte splits at U+0085, U+00A0, U+3000 and every other
//! `White_Space` character, one leading `+` is accepted, and overflow
//! is rejected.

use crate::http::{first_n, json_answer, status_text, write_error, write_json, Answer};
use crate::state::{ServeState, DEFAULT_LIMIT, MAX_LIMIT};

/// One parsed batch query line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchQuery {
    /// `vertex P` → same answer as `GET /v1/vertex/P`.
    Vertex(usize),
    /// `edge P Q` → same answer as `GET /v1/edge/P/Q`.
    Edge(usize, usize),
    /// `neighbors P [OFFSET [LIMIT]]` → same answer as
    /// `GET /v1/neighbors/P?offset=OFFSET&limit=LIMIT`.
    Neighbors(usize, u64, usize),
}

impl BatchQuery {
    /// The query's verb, as written in the batch body.
    fn verb(&self) -> &'static str {
        match self {
            BatchQuery::Vertex(_) => "vertex",
            BatchQuery::Edge(..) => "edge",
            BatchQuery::Neighbors(..) => "neighbors",
        }
    }
}

/// A parse failure: which 0-based line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchParseError {
    /// 0-based index of the offending line.
    pub line: usize,
    /// Human-readable reason.
    pub detail: String,
}

impl BatchParseError {
    fn new(line: usize, detail: impl Into<String>) -> Self {
        BatchParseError {
            line,
            detail: detail.into(),
        }
    }

    /// Answer with the structured 400 for this failure, rendered onto
    /// `body`: the error object with the line index as a
    /// machine-readable field.
    pub fn answer(&self, body: &mut String) -> Answer {
        json_answer(body, 400, |w| {
            w.open_object();
            w.u64_field("error", 400);
            w.string_field("status", status_text(400));
            w.string_field("detail", &self.detail);
            w.u64_field("line", self.line as u64);
            w.close_object();
        })
    }
}

/// A batch body that [`parse_batch`] has validated: every line is a
/// well-formed query and there are between 1 and `batch_max` of them.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    body: &'a str,
    len: usize,
}

impl<'a> Batch<'a> {
    /// How many queries the batch holds (at least one).
    pub fn num_queries(&self) -> usize {
        self.len
    }

    /// The queries in body order, parsed again from the body.
    pub fn queries(&self) -> impl Iterator<Item = BatchQuery> + 'a {
        let body = self.body;
        let (mut at, mut line) = (0, 0);
        std::iter::from_fn(move || {
            if at >= body.len() {
                return None;
            }
            let (query, next) = parse_line(body, at, line).expect("validated by parse_batch");
            (at, line) = (next, line + 1);
            Some(query)
        })
    }
}

/// Validate a whole batch body. `batch_max` bounds the accepted line
/// count. Fails on the first malformed line, or on the first line past
/// `batch_max`, whichever comes first.
pub fn parse_batch(body: &str, batch_max: usize) -> Result<Batch<'_>, BatchParseError> {
    let (mut at, mut len) = (0, 0);
    while at < body.len() {
        if len >= batch_max {
            return Err(BatchParseError::new(
                len,
                format!("batch exceeds the configured maximum of {batch_max} queries"),
            ));
        }
        at = parse_line(body, at, len)?.1;
        len += 1;
    }
    if len == 0 {
        return Err(BatchParseError::new(0, "batch body has no queries"));
    }
    Ok(Batch { body, len })
}

/// Parse the line that starts at byte `at` of `body`; `line` is its
/// 0-based index, for the error. Returns the query and where the next
/// line starts.
fn parse_line(body: &str, at: usize, line: usize) -> Result<(BatchQuery, usize), BatchParseError> {
    if let Some(parsed) = plain_line(body.as_bytes(), at) {
        return Ok(parsed);
    }
    let (text, next) = line_text(body, at);
    parse_tokens(text, line).map(|q| (q, next))
}

/// Whether `b` separates tokens within a line: the ASCII part of
/// Unicode `White_Space` other than `\n` — space and `\t`, `\x0B`,
/// `\x0C`, `\r`.
fn is_space(b: u8) -> bool {
    b == b' ' || matches!(b, b'\t' | 0x0B | 0x0C | b'\r')
}

/// The line that starts at byte `at`, if it is spelled as clients
/// write queries and is valid: the verb, then its operands as plain
/// decimal digits (at most 19, so none overflows), each after a run of
/// ASCII blanks, then the line's end. Returns the query and where the
/// next line starts. This scan reads each byte once and builds no
/// token. Any other line — a `+`, a non-ASCII byte, a longer number, or
/// a malformed query — returns `None` and goes to [`parse_tokens`],
/// which agrees with this scan on every line the scan accepts.
fn plain_line(bytes: &[u8], at: usize) -> Option<(BatchQuery, usize)> {
    let rest = &bytes[at..];
    let (verb, max, mut i) = if rest.starts_with(b"vertex") {
        ("vertex", 1, at + 6)
    } else if rest.starts_with(b"edge") {
        ("edge", 2, at + 4)
    } else if rest.starts_with(b"neighbors") {
        ("neighbors", 3, at + 9)
    } else {
        return None;
    };
    let mut ops = [0u64; 3];
    let mut len = 0;
    loop {
        let blank = i;
        while i < bytes.len() && is_space(bytes[i]) {
            i += 1;
        }
        if i == bytes.len() || bytes[i] == b'\n' {
            break;
        }
        // A token glued to the one before it, or one operand too many.
        if i == blank || len == max {
            return None;
        }
        let digits = i;
        let mut value = 0u64;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            if i - digits == 19 {
                return None;
            }
            value = value * 10 + u64::from(bytes[i] - b'0');
            i += 1;
        }
        if i == digits {
            return None;
        }
        ops[len] = value;
        len += 1;
    }
    let index = |v: u64| usize::try_from(v).ok();
    let query = match (verb, &ops[..len]) {
        ("vertex", &[p]) => BatchQuery::Vertex(index(p)?),
        ("edge", &[p, q]) => BatchQuery::Edge(index(p)?, index(q)?),
        ("neighbors", &[p]) => BatchQuery::Neighbors(index(p)?, 0, DEFAULT_LIMIT),
        ("neighbors", &[p, offset]) => BatchQuery::Neighbors(index(p)?, offset, DEFAULT_LIMIT),
        ("neighbors", &[p, offset, limit]) => {
            let limit = index(limit).filter(|&l| l <= MAX_LIMIT)?;
            BatchQuery::Neighbors(index(p)?, offset, limit)
        }
        _ => return None,
    };
    Some((query, i + 1))
}

/// The text of the line that starts at `at`, as `str::lines` gives it
/// (one `\r` before its `\n` dropped), and where the next line starts.
fn line_text(body: &str, at: usize) -> (&str, usize) {
    match body[at..].find('\n') {
        Some(len) => {
            let text = &body[at..at + len];
            (text.strip_suffix('\r').unwrap_or(text), at + len + 1)
        }
        None => (&body[at..], body.len()),
    }
}

fn num<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, BatchParseError> {
    tok.parse()
        .map_err(|_| BatchParseError::new(line, format!("{what} is not a number: {tok:?}")))
}

/// Parse one line split at Unicode `White_Space`, numbers read by
/// `str::parse`; `line` is its 0-based index, for the error.
fn parse_tokens(text: &str, line: usize) -> Result<BatchQuery, BatchParseError> {
    // The longest query has four tokens; a fifth is a wrong arity.
    let (toks, len) = first_n::<5>(text.split_whitespace());
    Ok(match &toks[..len] {
        [] => return Err(BatchParseError::new(line, "empty query line")),
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
                        return Err(BatchParseError::new(
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
            return Err(BatchParseError::new(
                line,
                format!("wrong argument count for {verb:?}: {text:?}"),
            ))
        }
        [verb, ..] => {
            return Err(BatchParseError::new(
                line,
                format!("unknown query verb {verb:?} (expected vertex|edge|neighbors)"),
            ))
        }
    })
}

/// Evaluate `batch` in order on the calling pool worker and render the
/// single JSON-array answer onto `body`. Batches are not split across
/// threads: every answer is an O(1)–O(deg) lookup, the pool already
/// runs requests from different connections in parallel, and starting
/// threads per batch on cores whose workers are busy cost more than the
/// items themselves (DESIGN.md §10.2).
pub fn eval_batch(state: &ServeState, batch: &Batch<'_>, body: &mut String) -> Answer {
    body.reserve(batch.num_queries() * 128);
    body.push('[');
    for (i, q) in batch.queries().enumerate() {
        body.push_str(if i == 0 { "\n" } else { ",\n" });
        // A traced request gets one child span per item, under
        // `evaluate`; the bytes are identical either way.
        let _item = bikron_obs::child_span(|| format!("batch[{i}] {}", q.verb()));
        eval_into(state, body, q);
    }
    body.push_str("\n]\n");
    Answer::json(200)
}

/// Render one query's answer onto `out` — exactly the single-endpoint
/// body without its trailing newline.
fn eval_into(state: &ServeState, out: &mut String, q: BatchQuery) {
    let rendered = match q {
        BatchQuery::Vertex(p) => state.vertex_into(out, p),
        BatchQuery::Edge(p, q) => state.edge_into(out, p, q),
        BatchQuery::Neighbors(p, offset, limit) => state.neighbors_into(out, p, offset, limit),
    };
    if let Err(refusal) = rendered {
        write_json(out, |w| write_error(w, refusal.status, &refusal.detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_verbs_and_defaults() {
        let batch = parse_batch(
            "vertex 3\nedge 1 2\nneighbors 7\nneighbors 7 5\nneighbors 7 5 9\n",
            16,
        )
        .unwrap();
        assert_eq!(batch.num_queries(), 5);
        assert_eq!(
            batch.queries().collect::<Vec<_>>(),
            vec![
                BatchQuery::Vertex(3),
                BatchQuery::Edge(1, 2),
                BatchQuery::Neighbors(7, 0, DEFAULT_LIMIT),
                BatchQuery::Neighbors(7, 5, DEFAULT_LIMIT),
                BatchQuery::Neighbors(7, 5, 9),
            ]
        );
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        assert_eq!(parse_batch("vertex 0", 4).unwrap().num_queries(), 1);
    }

    #[test]
    fn errors_carry_the_offending_line() {
        let cases = [
            ("vertex 1\nfrob 2\n", 1, "unknown query verb"),
            ("vertex 1\nvertex\n", 1, "wrong argument count"),
            ("edge 1\n", 0, "wrong argument count"),
            ("vertex banana\n", 0, "not a number"),
            ("vertex 1\n\nvertex 2\n", 1, "empty query line"),
            ("", 0, "no queries"),
            ("neighbors 1 2 3 4\n", 0, "wrong argument count"),
        ];
        for (body, line, needle) in cases {
            let err = parse_batch(body, 16).unwrap_err();
            assert_eq!(err.line, line, "{body:?}");
            assert!(err.detail.contains(needle), "{body:?} → {}", err.detail);
        }
    }

    #[test]
    fn oversized_batch_names_first_excess_line() {
        let body = "vertex 0\n".repeat(5);
        let err = parse_batch(&body, 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.detail.contains("maximum of 3"));
        let mut body = String::new();
        assert_eq!(err.answer(&mut body).status, 400);
        assert!(body.contains("\"line\": 3"));
    }

    /// Every 400 body, byte for byte (`batch_max` = 3): the JSON-escaped
    /// detail string and the offending line.
    #[test]
    fn error_bodies_are_pinned() {
        let cases = [
            (
                "vertex 1\nfrob 2\n",
                1,
                r#""unknown query verb \"frob\" (expected vertex|edge|neighbors)""#,
            ),
            (
                "vertex 1\nvertex\n",
                1,
                r#""wrong argument count for \"vertex\": \"vertex\"""#,
            ),
            (
                "edge 1\n",
                0,
                r#""wrong argument count for \"edge\": \"edge 1\"""#,
            ),
            (
                "vertex banana\n",
                0,
                r#""vertex index is not a number: \"banana\"""#,
            ),
            ("vertex 1\n\nvertex 2\n", 1, r#""empty query line""#),
            ("", 0, r#""batch body has no queries""#),
            (
                "neighbors 1 2 3 4\n",
                0,
                r#""wrong argument count for \"neighbors\": \"neighbors 1 2 3 4\"""#,
            ),
            (
                "neighbors 0 0 10001\n",
                0,
                r#""limit 10001 exceeds the cap of 10000""#,
            ),
            (
                "vertex 0\nvertex 1\nvertex 2\nvertex 3\n",
                3,
                r#""batch exceeds the configured maximum of 3 queries""#,
            ),
            (
                "vertex \"q\"\t1 2\n",
                0,
                r#""wrong argument count for \"vertex\": \"vertex \\\"q\\\"\\t1 2\"""#,
            ),
            (
                "neighbors x\n",
                0,
                r#""vertex index is not a number: \"x\"""#,
            ),
            ("neighbors 1 y\n", 0, r#""offset is not a number: \"y\"""#),
            (
                "edge 1 2 3 4 5 6\n",
                0,
                r#""wrong argument count for \"edge\": \"edge 1 2 3 4 5 6\"""#,
            ),
            ("  \n", 0, r#""empty query line""#),
        ];
        for (body, line, detail) in cases {
            let expect = format!(
                "{{\n  \"error\": 400,\n  \"status\": \"Bad Request\",\n  \
                 \"detail\": {detail},\n  \"line\": {line}\n}}\n"
            );
            let mut got = String::new();
            parse_batch(body, 3).unwrap_err().answer(&mut got);
            assert_eq!(got, expect, "{body:?}");
        }
    }

    /// The byte scan takes the spellings clients send, blanks and
    /// line ends included, and agrees with the token parser on each;
    /// anything it declines is left to that parser.
    #[test]
    fn plain_scan_takes_client_spellings() {
        let taken = [
            "vertex 753423",
            "edge 0 9999999999999999999",
            "neighbors 5",
            "neighbors 5 7",
            "neighbors 5 7 10000",
            "vertex\t007\r",
            "edge \x0B 1\x0C\x0C2 \r",
        ];
        let declined = [
            "vertex +7",
            "vertex 00000000000000000001",
            "vertex 1 2",
            "neighbors 5 7 10001",
            "neighbors 1 2 3 4",
            "vertex",
            "vertexx 1",
            "vertex 1x",
            "vertex 1\u{a0}",
            " vertex 1",
            "frob 1",
            "",
        ];
        for line in taken {
            let body = format!("{line}\nvertex 0\n");
            let (query, next) = plain_line(body.as_bytes(), 0).expect(line);
            assert_eq!(Ok(query), parse_tokens(line, 0), "{line:?}");
            assert_eq!(next, line.len() + 1, "{line:?}");
        }
        for line in declined {
            assert_eq!(plain_line(line.as_bytes(), 0), None, "{line:?}");
        }
    }

    #[test]
    fn over_cap_limit_rejected_at_parse() {
        let err = parse_batch(&format!("neighbors 0 0 {}\n", MAX_LIMIT + 1), 4).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.detail.contains("exceeds the cap"));
    }
}
