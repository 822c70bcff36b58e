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

use bikron_obs::JsonWriter;

use crate::http::{Answer, Response};
use crate::state::{first_n, ServeState, DEFAULT_LIMIT, MAX_LIMIT};

/// One parsed batch query line.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The structured 400 response for this failure, carrying the line
    /// index as a machine-readable field.
    pub fn response(&self) -> Response {
        let mut w = bikron_obs::JsonWriter::new();
        w.open_object();
        w.u64_field("error", 400);
        w.string_field("status", crate::http::status_text(400));
        w.string_field("detail", &self.detail);
        w.u64_field("line", self.line as u64);
        w.close_object();
        Response::json(400, w.finish())
    }
}

fn num<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, BatchParseError> {
    tok.parse()
        .map_err(|_| BatchParseError::new(line, format!("{what} is not a number: {tok:?}")))
}

/// Parse a whole batch body. `batch_max` bounds the accepted line count.
pub fn parse_batch(body: &str, batch_max: usize) -> Result<Vec<BatchQuery>, BatchParseError> {
    let mut queries = Vec::new();
    for (line, text) in body.lines().enumerate() {
        if queries.len() >= batch_max {
            return Err(BatchParseError::new(
                line,
                format!("batch exceeds the configured maximum of {batch_max} queries"),
            ));
        }
        // The longest query has four tokens; a fifth is a wrong arity.
        let (toks, len) = first_n::<5>(text.split_whitespace());
        let q = match &toks[..len] {
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
        };
        queries.push(q);
    }
    if queries.is_empty() {
        return Err(BatchParseError::new(0, "batch body has no queries"));
    }
    Ok(queries)
}

/// Evaluate `queries` in order on the calling pool worker and render
/// the single JSON-array answer onto `body`. Batches are not split
/// across threads: every answer is an O(1)–O(deg) lookup, the pool
/// already runs requests from different connections in parallel, and
/// starting threads per batch on cores whose workers are busy cost more
/// than the items themselves (DESIGN.md §10.2).
pub fn eval_batch(state: &ServeState, queries: &[BatchQuery], body: &mut String) -> Answer {
    body.reserve(queries.len() * 128);
    let mut w = JsonWriter::with_buffer(std::mem::take(body));
    w.buffer_mut().push('[');
    for (i, q) in queries.iter().enumerate() {
        w.buffer_mut().push_str(if i == 0 { "\n" } else { ",\n" });
        // A traced request gets one child span per item, under
        // `evaluate`; the bytes are identical either way.
        let _item = bikron_obs::child_span(|| format!("batch[{i}] {}", q.verb()));
        eval_into(state, &mut w, q);
    }
    *body = w.into_buffer();
    body.push_str("\n]\n");
    Answer::json(200)
}

/// Render one query's answer into `w` — exactly the single-endpoint body
/// without its trailing newline.
fn eval_into(state: &ServeState, w: &mut JsonWriter, q: &BatchQuery) {
    match *q {
        BatchQuery::Vertex(p) => state.vertex_into(w, p),
        BatchQuery::Edge(p, q) => state.edge_into(w, p, q),
        BatchQuery::Neighbors(p, offset, limit) => state.neighbors_into(w, p, offset, limit),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_verbs_and_defaults() {
        let qs = parse_batch(
            "vertex 3\nedge 1 2\nneighbors 7\nneighbors 7 5\nneighbors 7 5 9\n",
            16,
        )
        .unwrap();
        assert_eq!(
            qs,
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
        assert_eq!(parse_batch("vertex 0", 4).unwrap().len(), 1);
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
        let resp = err.response();
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"line\": 3"));
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
            let err = parse_batch(body, 3).unwrap_err();
            assert_eq!(err.response().body, expect, "{body:?}");
        }
    }

    #[test]
    fn over_cap_limit_rejected_at_parse() {
        let err = parse_batch(&format!("neighbors 0 0 {}\n", MAX_LIMIT + 1), 4).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.detail.contains("exceeds the cap"));
    }
}
