//! The load checker behind `loadgen`: it sends a mixed query workload to
//! a running `bikron serve` or `bikron router` and checks every answer
//! against a [`Reference`] that shares no per-query code with the
//! server, which answers from `KronChain`.
//!
//! Queries go out as single GETs or, with a batch size, as `POST
//! /v1/batch` requests whose array items are checked one by one. A wrong
//! answer is a correctness bug, not noise: each one is printed as a
//! `MISMATCH` line on stderr with the request's trace id and counted in
//! [`Outcome::mismatches`]. So is a response that does not echo the
//! trace id of the `traceparent` it was sent with.

use std::collections::HashSet;
use std::error::Error;
use std::time::Duration;

use bikron_analytics::{butterflies_per_edge, butterflies_per_vertex, EdgeButterflies};
use bikron_cli::client::{self, ClientError, Conn};
use bikron_core::truth::squares_edge::edge_squares_at;
use bikron_core::truth::squares_vertex::vertex_squares_at;
use bikron_core::truth::FactorStats;
use bikron_core::{KronChain, KroneckerProduct, SelfLoopMode};
use bikron_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::serve_load::{field_u64, field_u64_last, split_json_array, Zipf};

/// What served answers are checked against.
pub struct Reference<'g>(Truth<'g>);

// A run builds one reference and only borrows it, so the variants' sizes
// cost nothing.
#[allow(clippy::large_enum_variant)]
enum Truth<'g> {
    /// A pair program: the Thm 3–5 closed forms of `core::truth` over the
    /// two factors.
    Pair {
        prod: KroneckerProduct<'g>,
        stats_a: FactorStats,
        stats_b: FactorStats,
    },
    /// An expression program, materialised, with its 4-cycles recounted
    /// by the direct butterfly algorithms, so it shares no closed-form
    /// code with the server.
    Materialized {
        chain: KronChain,
        g: Graph,
        squares_v: Vec<u64>,
        squares_e: EdgeButterflies,
    },
}

/// One kind of query in a workload mix.
#[derive(Clone, Copy)]
enum Kind {
    Vertex,
    /// A random neighbor of a random non-isolated vertex, so the server
    /// must answer `"edge": true` and the Thm 5 count.
    KnownEdge,
    /// Two random vertices: usually a non-edge, whose existence must agree.
    RandomPair,
    Neighbors,
    /// A known edge, checked on the Thm 6 surface.
    Clustering,
    Community,
    Stats,
}

impl Kind {
    /// Whether `POST /v1/batch` has a verb for this kind.
    fn batchable(self) -> bool {
        matches!(
            self,
            Kind::Vertex | Kind::KnownEdge | Kind::RandomPair | Kind::Neighbors
        )
    }
}

/// Weights of each kind of query, per reference.
const PAIR_MIX: &[(Kind, u32)] = &[
    (Kind::Vertex, 40),
    (Kind::KnownEdge, 25),
    (Kind::RandomPair, 10),
    (Kind::Neighbors, 20),
    (Kind::Stats, 5),
];
const EXPR_MIX: &[(Kind, u32)] = &[
    (Kind::Vertex, 25),
    (Kind::KnownEdge, 20),
    (Kind::RandomPair, 10),
    (Kind::Neighbors, 15),
    (Kind::Clustering, 12),
    (Kind::Community, 12),
    (Kind::Stats, 6),
];

/// One query, with what its answer is checked against.
enum Query {
    Vertex(usize),
    Edge(usize, usize),
    Neighbors {
        p: usize,
        offset: u64,
        limit: usize,
    },
    Clustering(usize, usize),
    /// One set of factor vertices per level.
    Community(Vec<Vec<usize>>),
    Stats,
}

impl Query {
    /// The `GET` target that asks this query.
    fn path(&self) -> String {
        match self {
            Query::Vertex(p) => format!("/v1/vertex/{p}"),
            Query::Edge(p, q) => format!("/v1/edge/{p}/{q}"),
            Query::Neighbors { p, offset, limit } => {
                format!("/v1/neighbors/{p}?offset={offset}&limit={limit}")
            }
            Query::Clustering(p, q) => format!("/v1/clustering/{p}/{q}"),
            Query::Community(sets) => {
                let params: Vec<String> = sets
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let ids: Vec<String> = s.iter().map(usize::to_string).collect();
                        format!("s{i}={}", ids.join(","))
                    })
                    .collect();
                format!("/v1/community?{}", params.join("&"))
            }
            Query::Stats => "/v1/stats".to_string(),
        }
    }

    /// The `POST /v1/batch` line that asks this query. Only queries of a
    /// [`Kind::batchable`] kind are drawn for batches.
    fn batch_line(&self) -> String {
        match self {
            Query::Vertex(p) => format!("vertex {p}"),
            Query::Edge(p, q) => format!("edge {p} {q}"),
            Query::Neighbors { p, offset, limit } => format!("neighbors {p} {offset} {limit}"),
            _ => unreachable!("batches draw only batchable kinds"),
        }
    }
}

/// The size of a checking run.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Queries to send in total, over all threads.
    pub requests: u64,
    /// Client threads, each with one keep-alive connection.
    pub threads: usize,
    /// Queries per `POST /v1/batch`; 0 sends single GETs.
    pub batch: usize,
    /// Seed of the query draw; thread `t` draws from `seed + t`.
    pub seed: u64,
    /// Zipf skew of the drawn vertices; 0 draws them uniformly.
    pub zipf: f64,
}

/// What a checking run saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Queries sent (batch items count one each).
    pub queries: u64,
    /// Answers that disagreed with the reference, failed requests, and
    /// trace ids that were not echoed.
    pub mismatches: u64,
}

impl<'g> Reference<'g> {
    /// The reference for the pair program `A ⊗ B` (`mode` `none`) or
    /// `(A+I) ⊗ B` (`loops-a`).
    pub fn pair(a: &'g Graph, b: &'g Graph, mode: SelfLoopMode) -> Result<Self, Box<dyn Error>> {
        Ok(Reference(Truth::Pair {
            prod: KroneckerProduct::new(a, b, mode)?,
            stats_a: FactorStats::compute(a)?,
            stats_b: FactorStats::compute(b)?,
        }))
    }

    /// The reference for an expression program (`bikron serve --expr`):
    /// `expr` parsed and bound to `bindings`, then materialised. Sized for
    /// small factors, since the product is built in memory.
    pub fn materialized(
        expr: &str,
        bindings: Vec<(String, Graph)>,
    ) -> Result<Self, Box<dyn Error>> {
        let parsed = bikron_sparse::parse_expr(expr)?;
        let levels: Vec<(String, bool)> = parsed
            .levels
            .iter()
            .map(|l| (l.name.clone(), l.plus_identity))
            .collect();
        let chain = KronChain::new(bindings, &levels)?;
        let g = chain.materialize();
        Ok(Reference(Truth::Materialized {
            squares_v: butterflies_per_vertex(&g),
            squares_e: butterflies_per_edge(&g),
            chain,
            g,
        }))
    }

    /// Vertices of the product.
    pub fn num_vertices(&self) -> usize {
        match &self.0 {
            Truth::Pair { prod, .. } => prod.num_vertices(),
            Truth::Materialized { g, .. } => g.num_vertices(),
        }
    }

    /// Send `workload` to the server at `addr` (`host:port`) and check
    /// every answer. Each thread sends its share of `workload.requests`
    /// over one keep-alive connection.
    pub fn run(&self, addr: &str, workload: &Workload) -> Outcome {
        let zipf = (workload.zipf > 0.0).then(|| Zipf::new(self.num_vertices(), workload.zipf));
        let threads = workload.threads.max(1) as u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let count =
                        workload.requests / threads + u64::from(t < workload.requests % threads);
                    let seed = workload.seed.wrapping_add(t);
                    let zipf = zipf.as_ref();
                    s.spawn(move || self.worker(addr, count, workload.batch, seed, zipf))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread panicked"))
                .fold(Outcome::default(), |sum, o| Outcome {
                    queries: sum.queries + o.queries,
                    mismatches: sum.mismatches + o.mismatches,
                })
        })
    }

    /// One connection's share: `count` queries, sent singly (`batch` 0)
    /// or `batch` to a request. A transport failure counts as one
    /// mismatch and ends this worker.
    fn worker(
        &self,
        addr: &str,
        count: u64,
        batch: usize,
        seed: u64,
        zipf: Option<&Zipf>,
    ) -> Outcome {
        let mut out = Outcome::default();
        if count == 0 {
            return out;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut client = match Client::connect(addr, seed ^ 0x5EED) {
            Ok(client) => client,
            Err(e) => {
                eprintln!("MISMATCH cannot connect to {addr}: {e}");
                out.mismatches = 1;
                return out;
            }
        };
        while out.queries < count {
            let k = batch.max(1).min((count - out.queries) as usize);
            let queries: Vec<Query> = (0..k)
                .map(|_| self.draw(&mut rng, zipf, batch > 0))
                .collect();
            let (target, sent) = if batch == 0 {
                let path = queries[0].path();
                let sent = client.request("GET", &path, None);
                (path, sent)
            } else {
                let lines: String = queries.iter().map(|q| q.batch_line() + "\n").collect();
                let sent = client.request("POST", "/v1/batch", Some(&lines));
                ("/v1/batch".to_string(), sent)
            };
            out.queries += k as u64;
            let (status, body) = match sent {
                Ok(answer) => answer,
                Err(e) => {
                    out.mismatches += 1;
                    eprintln!(
                        "MISMATCH {target} [trace {}]: request failed: {e}",
                        client.trace_id()
                    );
                    break;
                }
            };
            // A batch item is the single-endpoint body without its final
            // newline; putting it back lets one byte-exact check serve both.
            let answers = match (status, batch) {
                (200, 0) => Ok(vec![body.clone()]),
                (200, _) => match split_json_array(&body) {
                    Some(items) if items.len() == k => {
                        Ok(items.into_iter().map(|item| item + "\n").collect())
                    }
                    other => Err(format!(
                        "expected an array of {k} items, got {:?}",
                        other.map(|items| items.len())
                    )),
                },
                _ => Err(format!("HTTP {status}")),
            };
            match answers {
                Ok(answers) => {
                    for (query, answer) in queries.iter().zip(&answers) {
                        if !self.check(query, answer) {
                            out.mismatches += 1;
                            eprintln!(
                                "MISMATCH {} [trace {}]: {answer}",
                                query.path(),
                                client.trace_id()
                            );
                        }
                    }
                }
                Err(why) => {
                    out.mismatches += k as u64;
                    eprintln!(
                        "MISMATCH {target} [trace {}]: {why}: {body}",
                        client.trace_id()
                    );
                }
            }
        }
        out.mismatches += client.echo_failures;
        out
    }

    /// Draw one query of this reference's mix; `batch` keeps to the kinds
    /// a batch line can ask.
    fn draw(&self, rng: &mut StdRng, zipf: Option<&Zipf>, batch: bool) -> Query {
        let n = self.num_vertices();
        let pick = |rng: &mut StdRng| match zipf {
            Some(z) => z.sample(rng.gen::<f64>()),
            None => rng.gen_range(0..n),
        };
        let mix = match self.0 {
            Truth::Pair { .. } => PAIR_MIX,
            Truth::Materialized { .. } => EXPR_MIX,
        };
        let eligible = || mix.iter().filter(|(kind, _)| !batch || kind.batchable());
        let mut dice = rng.gen_range(0..eligible().map(|&(_, w)| w).sum::<u32>());
        let kind = eligible()
            .find_map(|&(kind, w)| {
                if dice < w {
                    return Some(kind);
                }
                dice -= w;
                None
            })
            .expect("the dice fall below the total weight");
        match kind {
            Kind::Vertex => Query::Vertex(pick(rng)),
            Kind::KnownEdge | Kind::Clustering => {
                let mut p = pick(rng);
                for _ in 0..64 {
                    if self.degree(p) > 0 {
                        break;
                    }
                    p = rng.gen_range(0..n);
                }
                let d = self.degree(p);
                let q = if d == 0 {
                    pick(rng)
                } else {
                    self.neighbors(p, rng.gen_range(0..d), 1)[0]
                };
                match kind {
                    Kind::KnownEdge => Query::Edge(p, q),
                    _ => Query::Clustering(p, q),
                }
            }
            Kind::RandomPair => Query::Edge(pick(rng), pick(rng)),
            Kind::Neighbors => {
                let p = pick(rng);
                let d = self.degree(p);
                Query::Neighbors {
                    p,
                    offset: if d == 0 { 0 } else { rng.gen_range(0..d) },
                    limit: rng.gen_range(1usize..=64),
                }
            }
            Kind::Community => {
                let Truth::Materialized { chain, .. } = &self.0 else {
                    unreachable!("only the expression mix draws communities")
                };
                // Small random per-level sets, brute-forced in `check`.
                let sets = (0..chain.num_levels())
                    .map(|i| {
                        let ni = chain.level_info(i).1.num_vertices();
                        let k = rng.gen_range(1..=ni.min(3));
                        let mut s: Vec<usize> = (0..k).map(|_| rng.gen_range(0..ni)).collect();
                        s.sort_unstable();
                        s.dedup();
                        s
                    })
                    .collect();
                Query::Community(sets)
            }
            Kind::Stats => Query::Stats,
        }
    }

    /// Whether `body`, a 200 answer to `query`, agrees with the reference.
    fn check(&self, query: &Query, body: &str) -> bool {
        match *query {
            Query::Vertex(p) => body == self.vertex_body(p),
            Query::Edge(p, q) => match self.edge_squares(p, q) {
                Some(s) => body.contains("\"edge\": true") && field_u64(body, "squares") == Some(s),
                None => body.contains("\"edge\": false") && body.contains("\"squares\": null"),
            },
            Query::Neighbors { p, offset, limit } => {
                let expect = self.neighbors(p, offset, limit);
                let got: Option<Vec<usize>> = body
                    .split("\"neighbors\": [")
                    .nth(1)
                    .and_then(|tail| tail.split(']').next())
                    .map(|list| {
                        list.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .filter_map(|s| s.parse().ok())
                            .collect()
                    });
                got.as_ref() == Some(&expect)
                    && field_u64(body, "degree") == Some(self.degree(p))
                    && field_u64(body, "count") == Some(expect.len() as u64)
            }
            Query::Clustering(p, q) => self.clustering_ok(body, p, q),
            Query::Community(ref sets) => self.community_ok(body, sets),
            Query::Stats => self.stats_ok(body),
        }
    }

    fn degree(&self, p: usize) -> u64 {
        match &self.0 {
            Truth::Pair { prod, .. } => prod.degree(p),
            Truth::Materialized { g, .. } => g.degree(p) as u64,
        }
    }

    /// Up to `limit` neighbors of `p` in ascending order, from `offset`.
    fn neighbors(&self, p: usize, offset: u64, limit: usize) -> Vec<usize> {
        match &self.0 {
            Truth::Pair { prod, .. } => prod.neighbors_page(p, offset, limit),
            Truth::Materialized { g, .. } => {
                let all = g.neighbors(p);
                let start = usize::try_from(offset).map_or(all.len(), |o| o.min(all.len()));
                all[start..all.len().min(start.saturating_add(limit))].to_vec()
            }
        }
    }

    /// The 4-cycles through edge `p`–`q`, or `None` for a non-edge.
    fn edge_squares(&self, p: usize, q: usize) -> Option<u64> {
        match &self.0 {
            Truth::Pair {
                prod,
                stats_a,
                stats_b,
            } => edge_squares_at(prod, stats_a, stats_b, p, q),
            Truth::Materialized { squares_e, .. } => squares_e.get(p, q),
        }
    }

    /// The exact `/v1/vertex/{p}` body: a pair server names the factor
    /// coordinates `alpha`/`beta`, an expression server lists `coords`.
    fn vertex_body(&self, p: usize) -> String {
        let (coords, squares) = match &self.0 {
            Truth::Pair {
                prod,
                stats_a,
                stats_b,
            } => {
                let (i, k) = prod.indexer().split(p);
                (
                    format!("\"alpha\": {i},\n  \"beta\": {k}"),
                    vertex_squares_at(prod, stats_a, stats_b, p),
                )
            }
            Truth::Materialized {
                chain, squares_v, ..
            } => {
                let coords: Vec<String> =
                    chain.split(p).iter().map(|c| format!("    {c}")).collect();
                (
                    format!("\"coords\": [\n{}\n  ]", coords.join(",\n")),
                    squares_v[p],
                )
            }
        };
        format!(
            "{{\n  \"vertex\": {p},\n  {coords},\n  \"degree\": {},\n  \"squares\": {squares}\n}}\n",
            self.degree(p),
        )
    }

    /// A `/v1/clustering/{p}/{q}` body: the squares and degrees, Γ
    /// recomputed from Eq. 5, and a claimed Thm 6 bound that must not
    /// exceed Γ.
    fn clustering_ok(&self, body: &str, p: usize, q: usize) -> bool {
        let squares = self.edge_squares(p, q);
        let (dp, dq) = (self.degree(p), self.degree(q));
        let mut ok = body.contains(&format!("\"edge\": {}", squares.is_some()))
            && field_u64(body, "degree_p") == Some(dp)
            && field_u64(body, "degree_q") == Some(dq);
        match squares {
            Some(s) => {
                ok &= field_u64(body, "squares") == Some(s);
                if dp > 1 && dq > 1 {
                    let gamma = s as f64 / ((dp - 1) * (dq - 1)) as f64;
                    ok &= field_f64(body, "gamma")
                        .is_some_and(|g| (g - gamma).abs() <= 1e-9 * gamma.max(1.0));
                    if let Some(b) = field_f64(body, "bound") {
                        ok &= b <= gamma + 1e-9;
                    }
                }
            }
            None => ok &= body.contains("\"squares\": null"),
        }
        ok
    }

    /// A `/v1/community` body: `size`, `m_in` and `m_out` brute-forced
    /// over the materialised product.
    fn community_ok(&self, body: &str, sets: &[Vec<usize>]) -> bool {
        let Truth::Materialized { chain, g, .. } = &self.0 else {
            unreachable!("only the expression mix draws communities")
        };
        let mut members: Vec<Vec<usize>> = vec![Vec::new()];
        for s in sets {
            members = members
                .iter()
                .flat_map(|c| s.iter().map(move |&v| [c.as_slice(), &[v]].concat()))
                .collect();
        }
        let ids: HashSet<usize> = members.iter().map(|c| chain.combine(c)).collect();
        let (mut m_in2, mut m_out) = (0u64, 0u64);
        for &p in &ids {
            for q in g.neighbors(p) {
                if ids.contains(q) {
                    m_in2 += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        field_u64(body, "size") == Some(ids.len() as u64)
            && field_u64(body, "m_in") == Some(m_in2 / 2)
            && field_u64(body, "m_out") == Some(m_out)
    }

    /// A `/v1/stats` body: the product's totals, and for an expression its
    /// global 4-cycle count and the canonical expression.
    fn stats_ok(&self, body: &str) -> bool {
        let (edges, extra_ok) = match &self.0 {
            Truth::Pair { prod, .. } => (prod.num_edges(), true),
            Truth::Materialized {
                chain,
                g,
                squares_v,
                ..
            } => (
                g.num_edges() as u64,
                field_u64_last(body, "global_squares") == Some(squares_v.iter().sum::<u64>() / 4)
                    && body.contains(&format!("\"expr\": \"{}\"", chain.canonical())),
            ),
        };
        field_u64_last(body, "vertices") == Some(self.num_vertices() as u64)
            && field_u64_last(body, "edges") == Some(edges)
            && extra_ok
    }
}

/// A float field; `None` for a missing key or a JSON `null`.
fn field_f64(body: &str, key: &str) -> Option<f64> {
    let tail = body.split(&format!("\"{key}\": ")).nth(1)?;
    let raw = tail.split([',', '\n', '}']).next()?.trim();
    if raw == "null" {
        return None;
    }
    raw.parse().ok()
}

/// Keep-alive client over the shared `bikron_cli::client`. Every request
/// carries a freshly minted W3C `traceparent`, and the server must echo
/// its trace id in the `x-bikron-trace-id` response header; each miss is
/// counted in `echo_failures`.
struct Client {
    http: client::Client,
    conn: Option<Conn>,
    /// xorshift64* state for trace-id minting.
    rng: u64,
    /// Trace id (32 hex chars) sent with the in-flight or last request.
    sent_trace_id: String,
    echo_failures: u64,
}

impl Client {
    fn connect(addr: &str, seed: u64) -> Result<Client, ClientError> {
        let timeout = Duration::from_secs(30);
        let http = client::Client::new(addr, timeout, timeout);
        Ok(Client {
            conn: Some(http.dial()?),
            http,
            // Golden-ratio mix before the nonzero clamp: adjacent seeds
            // (thread t vs t+1) must not collapse to one xorshift stream.
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            sent_trace_id: String::new(),
            echo_failures: 0,
        })
    }

    fn draw(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The trace id sent with the last request.
    fn trace_id(&self) -> &str {
        &self.sent_trace_id
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let (hi, lo, span) = (self.draw(), self.draw().max(1), self.draw().max(1));
        self.sent_trace_id = format!("{hi:016x}{lo:016x}");
        let traceparent = format!("00-{}-{span:016x}-01", self.sent_trace_id);
        let (resp, conn) = self.http.request(
            self.conn.take(),
            method,
            path,
            body.map(str::as_bytes),
            Some(&traceparent),
        )?;
        self.conn = conn;
        let echoed = resp.trace_id.as_deref().unwrap_or_default();
        if echoed != self.sent_trace_id {
            self.echo_failures += 1;
            eprintln!(
                "MISMATCH traceparent echo: sent {}, server echoed {echoed:?}",
                self.sent_trace_id
            );
        }
        Ok((resp.status, resp.body))
    }
}
