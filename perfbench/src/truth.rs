//! The truth replica and the request traces generated from it.
//!
//! Every workload uses the Table-I construction `(A+I_A) ⊗ A` over the
//! unicode-like factor (seed 50) — the program `bikron serve unicode
//! unicode loops-a` serves. Expected answers come from the chained
//! evaluator ([`KronChain`]), a different implementation from the
//! two-factor evaluators a pair server answers with, rendered in the
//! server's byte-exact body format. A whole trace, with the hash of every
//! expected body, is generated before any timer starts, so the timed loops
//! only compare hashes.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::ops::Range;

use bikron_bench::serve_load::{field_u64_last, Zipf};
use bikron_core::KronChain;
use bikron_generators::unicode_like::unicode_like;
use bikron_graph::Graph;
use bikron_obs::JsonWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `|V|` of the Table-I product.
pub const TABLE1_VERTICES: u64 = 753_424;
/// `|E|` of the Table-I product.
pub const TABLE1_EDGES: u64 = 4_245_280;
/// Global 4-cycle count of the Table-I product.
pub const TABLE1_SQUARES: u64 = 445_892_737;

/// One query, as a GET endpoint or a batch line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `/v1/vertex/{p}` or `vertex P`.
    Vertex(usize),
    /// `/v1/edge/{p}/{q}` or `edge P Q`.
    Edge(usize, usize),
    /// `/v1/neighbors/{p}?offset&limit` or `neighbors P OFFSET LIMIT`.
    Neighbors(usize, u64, usize),
    /// `/v1/stats` (GET only).
    Stats,
}

impl Query {
    fn path(&self) -> String {
        match *self {
            Query::Vertex(p) => format!("/v1/vertex/{p}"),
            Query::Edge(p, q) => format!("/v1/edge/{p}/{q}"),
            Query::Neighbors(p, o, l) => format!("/v1/neighbors/{p}?offset={o}&limit={l}"),
            Query::Stats => "/v1/stats".to_string(),
        }
    }

    fn batch_line(&self) -> String {
        match *self {
            Query::Vertex(p) => format!("vertex {p}"),
            Query::Edge(p, q) => format!("edge {p} {q}"),
            Query::Neighbors(p, o, l) => format!("neighbors {p} {o} {l}"),
            Query::Stats => unreachable!("batches carry no stats lines"),
        }
    }
}

/// The product and its chained evaluator.
pub struct Truth {
    /// The unicode-like factor `A`.
    pub a: Graph,
    /// `(A+I)⊗A` as a chain.
    pub chain: KronChain,
}

impl Truth {
    /// The Table-I product.
    pub fn table1() -> Truth {
        let a = unicode_like();
        let chain = KronChain::new(
            vec![("A".to_string(), a.clone())],
            &[("A".to_string(), true), ("A".to_string(), false)],
        )
        .expect("the unicode-like factor is a valid chain atom");
        Truth { a, chain }
    }

    /// The exact body a pair server answers `q` with; `None` for stats,
    /// whose body is checked field by field instead ([`Truth::check_stats`]).
    pub fn render(&self, q: &Query) -> Option<String> {
        let c = &self.chain;
        let mut w = JsonWriter::new();
        w.open_object();
        match *q {
            Query::Vertex(p) => {
                let coords = c.split(p);
                w.u64_field("vertex", p as u64);
                w.u64_field("alpha", coords[0] as u64);
                w.u64_field("beta", coords[1] as u64);
                w.u64_field("degree", c.degree(p));
                w.u64_field("squares", c.vertex_squares_at(p));
            }
            Query::Edge(p, q) => {
                let squares = c.edge_squares_at(p, q);
                w.u64_field("p", p as u64);
                w.u64_field("q", q as u64);
                w.bool_field("edge", squares.is_some());
                w.u64_field("degree_p", c.degree(p));
                w.u64_field("degree_q", c.degree(q));
                match squares {
                    Some(s) => w.u64_field("squares", s),
                    None => w.null_field("squares"),
                }
            }
            Query::Neighbors(p, offset, limit) => {
                let degree = c.degree(p);
                let page = c.neighbors_page(p, offset, limit);
                w.u64_field("vertex", p as u64);
                w.u64_field("degree", degree);
                w.u64_field("offset", offset);
                w.u64_field("count", page.len() as u64);
                let next = offset + page.len() as u64;
                if next < degree && !page.is_empty() {
                    w.u64_field("next_offset", next);
                } else {
                    w.null_field("next_offset");
                }
                w.key("neighbors");
                w.open_array();
                for v in page {
                    w.u64_element(v as u64);
                }
                w.close_array();
            }
            Query::Stats => return None,
        }
        w.close_object();
        Some(w.finish())
    }

    /// The exact `POST /v1/batch` answer for `queries`: the single-query
    /// bodies, trimmed, in one JSON array.
    pub fn render_batch(&self, queries: &[Query]) -> String {
        let mut out = String::from("[");
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            let item = self.render(q).expect("batch lines are keyed queries");
            out.push_str(item.trim_end());
        }
        out.push_str("\n]\n");
        out
    }

    /// Check a `/v1/stats` body's product totals against the chain and
    /// against the published Table-I numbers.
    pub fn check_stats(&self, body: &str) -> Result<(), String> {
        let c = &self.chain;
        for (key, want, table) in [
            ("vertices", c.num_vertices() as u64, TABLE1_VERTICES),
            ("edges", c.num_edges(), TABLE1_EDGES),
            ("global_squares", c.global_squares(), TABLE1_SQUARES),
        ] {
            let got = field_u64_last(body, key);
            if got != Some(want) || want != table {
                return Err(format!(
                    "/v1/stats {key}: got {got:?}, chain says {want}, Table I says {table}"
                ));
            }
        }
        Ok(())
    }
}

/// Hash of a response body; the timed loops compare it with the hash of
/// the expected body.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(body);
    h.finish()
}

/// The traffic a workload sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Single GETs: vertex 40%, known edge 25%, random pair 10%,
    /// neighbors 20%, stats 5%. Keys follow Zipf(`zipf`); 0 is uniform.
    Get {
        /// Zipf exponent of the key distribution.
        zipf: f64,
    },
    /// `POST /v1/batch` of `lines` queries: vertex 60%, edge 25%,
    /// neighbors 15%, with uniform keys.
    Batch {
        /// Queries per request.
        lines: usize,
    },
}

/// One pre-rendered request and what its answer must hash to.
pub struct Request {
    /// The complete HTTP request.
    pub bytes: Vec<u8>,
    /// Its queries, as a range of [`Trace::queries`].
    pub queries: Range<usize>,
    /// Hash of the expected body.
    pub expect: u64,
}

/// A generated request trace.
pub struct Trace {
    /// Every query of every request, in order.
    pub queries: Vec<Query>,
    /// The requests.
    pub requests: Vec<Request>,
}

/// Requests generated from one seed-derived stream; fixed, so the trace a
/// seed gives does not depend on how many threads generate it.
const CHUNK: usize = 512;

/// One generated request: its queries, its bytes, its expected hash.
type Generated = (Vec<Query>, Vec<u8>, u64);

impl Trace {
    /// Generate `n` requests of `mix` from `seed`.
    pub fn generate(truth: &Truth, mix: Mix, seed: u64, n: usize) -> Trace {
        let vertices = truth.chain.num_vertices();
        let zipf = match mix {
            Mix::Get { zipf } if zipf > 0.0 => Some(Zipf::new(vertices, zipf)),
            _ => None,
        };
        let chunks = n.div_ceil(CHUNK);
        let threads = std::thread::available_parallelism()
            .map_or(1, |t| t.get())
            .min(chunks.max(1));
        let mut parts: Vec<(usize, Vec<Generated>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let zipf = zipf.as_ref();
                    s.spawn(move || {
                        (t..chunks)
                            .step_by(threads)
                            .map(|c| {
                                let len = CHUNK.min(n - c * CHUNK);
                                let mut rng = StdRng::seed_from_u64(
                                    seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                                );
                                let reqs = (0..len)
                                    .map(|_| make_request(truth, mix, zipf, &mut rng))
                                    .collect();
                                (c, reqs)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("trace generator thread"))
                .collect()
        });
        parts.sort_by_key(|(c, _)| *c);
        let mut trace = Trace {
            queries: Vec::new(),
            requests: Vec::with_capacity(n),
        };
        for (qs, bytes, expect) in parts.into_iter().flat_map(|(_, reqs)| reqs) {
            let start = trace.queries.len();
            trace.queries.extend(qs);
            trace.requests.push(Request {
                bytes,
                queries: start..trace.queries.len(),
                expect,
            });
        }
        trace
    }

    /// The queries of request `r`.
    pub fn queries_of(&self, r: &Request) -> &[Query] {
        &self.queries[r.queries.clone()]
    }

    /// Set the expected hash of every `/v1/stats` request, once a stats
    /// body has passed [`Truth::check_stats`].
    pub fn set_stats_hash(&mut self, hash: u64) {
        for r in &mut self.requests {
            if self.queries[r.queries.clone()] == [Query::Stats] {
                r.expect = hash;
            }
        }
    }
}

/// Draw a product vertex: Zipf-skewed when a sampler is given, else
/// uniform.
fn pick(rng: &mut StdRng, zipf: Option<&Zipf>, n: usize) -> usize {
    match zipf {
        Some(z) => z.sample(rng.gen::<f64>()),
        None => rng.gen_range(0..n),
    }
}

/// A neighbors page of `p` at a random offset with a limit of 1 to 64.
fn neighbors_query(truth: &Truth, rng: &mut StdRng, p: usize) -> Query {
    let d = truth.chain.degree(p);
    let offset = if d == 0 { 0 } else { rng.gen_range(0..d) };
    Query::Neighbors(p, offset, rng.gen_range(1usize..=64))
}

fn make_request(truth: &Truth, mix: Mix, zipf: Option<&Zipf>, rng: &mut StdRng) -> Generated {
    let c = &truth.chain;
    let n = c.num_vertices();
    match mix {
        Mix::Get { .. } => {
            let dice = rng.gen_range(0u32..100);
            let q = if dice < 40 {
                Query::Vertex(pick(rng, zipf, n))
            } else if dice < 65 {
                // A known edge: a random neighbour of a non-isolated vertex.
                let mut p = pick(rng, zipf, n);
                for _ in 0..64 {
                    if c.degree(p) > 0 {
                        break;
                    }
                    p = rng.gen_range(0..n);
                }
                match c.degree(p) {
                    0 => Query::Vertex(p),
                    d => Query::Edge(p, c.neighbors_page(p, rng.gen_range(0..d), 1)[0]),
                }
            } else if dice < 75 {
                Query::Edge(pick(rng, zipf, n), pick(rng, zipf, n))
            } else if dice < 95 {
                let p = pick(rng, zipf, n);
                neighbors_query(truth, rng, p)
            } else {
                Query::Stats
            };
            let bytes = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", q.path()).into_bytes();
            let expect = truth.render(&q).map_or(0, |b| body_hash(b.as_bytes()));
            (vec![q], bytes, expect)
        }
        Mix::Batch { lines } => {
            let qs: Vec<Query> = (0..lines)
                .map(|_| {
                    let dice = rng.gen_range(0u32..100);
                    let p = pick(rng, zipf, n);
                    if dice < 60 {
                        Query::Vertex(p)
                    } else if dice < 85 {
                        Query::Edge(p, pick(rng, zipf, n))
                    } else {
                        neighbors_query(truth, rng, p)
                    }
                })
                .collect();
            let mut body = String::new();
            for q in &qs {
                body.push_str(&q.batch_line());
                body.push('\n');
            }
            let bytes = format!(
                "POST /v1/batch HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            let expect = body_hash(truth.render_batch(&qs).as_bytes());
            (qs, bytes, expect)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_determined_by_the_seed() {
        let truth = Truth::table1();
        let mix = Mix::Get { zipf: 1.1 };
        let a = Trace::generate(&truth, mix, 7, 1500);
        let b = Trace::generate(&truth, mix, 7, 1500);
        let c = Trace::generate(&truth, mix, 8, 1500);
        assert_eq!(a.requests.len(), 1500);
        let key = |t: &Trace| t.requests.iter().map(|r| r.expect).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        let batches = Trace::generate(&truth, Mix::Batch { lines: 64 }, 7, 3);
        assert_eq!(batches.queries.len(), 192);
        assert!(batches.queries.iter().all(|q| *q != Query::Stats));
    }

    /// The replica must agree with a pair server byte for byte: render
    /// through the chain, answer through `ServeState`, compare.
    #[test]
    fn rendered_bodies_match_a_pair_server() {
        use bikron_core::SelfLoopMode;
        use bikron_serve::http::parse_request;
        use bikron_serve::ServeState;
        let truth = Truth::table1();
        let state = ServeState::build(
            truth.a.clone(),
            truth.a.clone(),
            SelfLoopMode::FactorA,
            None,
        )
        .unwrap();
        let trace = Trace::generate(&truth, Mix::Get { zipf: 0.0 }, 3, 400);
        let mut stats_seen = false;
        for r in &trace.requests {
            let req = parse_request(&mut &r.bytes[..]).unwrap();
            let resp = state.handle(&req);
            assert_eq!(resp.status, 200);
            if trace.queries_of(r) == [Query::Stats] {
                truth.check_stats(&resp.body).unwrap();
                stats_seen = true;
            } else {
                assert_eq!(body_hash(resp.body.as_bytes()), r.expect, "{req:?}");
            }
        }
        assert!(stats_seen);
        let batch = Trace::generate(&truth, Mix::Batch { lines: 64 }, 3, 4);
        for r in &batch.requests {
            let req = parse_request(&mut &r.bytes[..]).unwrap();
            let resp = state.handle(&req);
            assert_eq!(resp.body, truth.render_batch(batch.queries_of(r)));
            assert_eq!(body_hash(resp.body.as_bytes()), r.expect);
        }
    }
}
