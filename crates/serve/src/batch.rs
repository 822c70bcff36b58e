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
//! joined into one JSON array.

use std::sync::Arc;

use bikron_obs::{SpanRecorder, SpanToken};

use crate::http::Response;
use crate::state::{ServeState, DEFAULT_LIMIT, MAX_LIMIT};

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
        let toks: Vec<&str> = text.split_whitespace().collect();
        let q = match toks.as_slice() {
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

/// Evaluate `queries` in order on the calling pool worker and assemble
/// the single JSON-array response. Batches are not split across threads:
/// every answer is an O(1)–O(deg) lookup, the pool already runs requests
/// from different connections in parallel, and starting threads per
/// batch on cores whose workers are busy cost more than the items
/// themselves (DESIGN.md §10.1).
pub fn eval_batch(state: &ServeState, queries: &[BatchQuery]) -> Response {
    let trace = crate::state::current_recorder();
    let mut body = String::with_capacity(queries.len() * 64);
    body.push('[');
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('\n');
        body.push_str(eval_traced(state, q, i, &trace).body.trim_end());
    }
    body.push_str("\n]\n");
    // The batch request itself logs no single cache outcome; only its
    // per-item spans carry one.
    crate::state::reset_cache_outcome();
    Response::json(200, body)
}

/// Evaluate one query — exactly the single-endpoint answer.
fn eval_one(state: &ServeState, q: &BatchQuery) -> Response {
    match *q {
        BatchQuery::Vertex(p) => state.vertex_at(p),
        BatchQuery::Edge(p, q) => state.edge_at(p, q),
        BatchQuery::Neighbors(p, offset, limit) => state.neighbors_at(p, offset, limit),
    }
}

/// [`eval_one`] wrapped in a per-item child span (when the request is
/// being recorded), annotated with the item's cache outcome. The answer
/// bytes are identical either way — tracing only observes.
fn eval_traced(
    state: &ServeState,
    q: &BatchQuery,
    i: usize,
    trace: &Option<(Arc<SpanRecorder>, SpanToken)>,
) -> Response {
    let Some((rec, evaluate)) = trace else {
        return eval_one(state, q);
    };
    let verb = match q {
        BatchQuery::Vertex(_) => "vertex",
        BatchQuery::Edge(..) => "edge",
        BatchQuery::Neighbors(..) => "neighbors",
    };
    let tok = rec.begin(&format!("batch[{i}] {verb}"), Some(*evaluate));
    // Items share the worker's cache outcome; clearing it per item keeps
    // each annotation to that item's own lookup.
    crate::state::reset_cache_outcome();
    let resp = eval_one(state, q);
    rec.set_cache(tok, crate::state::cache_outcome());
    rec.end(tok);
    resp
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

    #[test]
    fn over_cap_limit_rejected_at_parse() {
        let err = parse_batch(&format!("neighbors 0 0 {}\n", MAX_LIMIT + 1), 4).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.detail.contains("exceeds the cap"));
    }
}
