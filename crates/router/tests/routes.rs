//! One route table, answered by a node and by a router over it.
//!
//! Every case is a `(method, target)` pair and the route grammar's
//! verdict on it ([`Route::parse`]): every route, each route with one
//! segment too few and one too many, doubled slashes, the wrong method on
//! a route, paths of five or more segments, and unknown paths. The node
//! is a `ServeState` answering through `handle()`; the router is an
//! in-process `RouterState` over one running node. The router must relay
//! exactly the [`Route::relayed`] cases, answering them as the node does,
//! and must refuse every path that is no route with the node's own 404
//! and 405 bodies.

use std::sync::Arc;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_obs::Report;
use bikron_router::{RouterOptions, RouterState};
use bikron_serve::http::{parse_request, Request, Response, Route};
use bikron_serve::{ServeState, Server, ServerConfig};

/// What the route grammar makes of a case: the route, or the refusal's
/// status and detail (`None`: the 404 naming the path).
type Verdict = Result<Route<'static>, (u16, Option<&'static str>)>;

const NO_ROUTE: Verdict = Err((404, None));
const GET_BATCH: Verdict = Err((405, Some("batch requires POST")));
const POST_ELSEWHERE: Verdict = Err((405, Some("POST is only accepted on /v1/batch")));

/// Every route with a target that answers it; each route's path is also
/// tried with its last segment dropped and with one segment added.
fn routes() -> Vec<(&'static str, &'static str, &'static str, Route<'static>)> {
    vec![
        ("POST", "/v1/batch", "", Route::Batch),
        ("GET", "/v1/stats", "", Route::Stats),
        ("GET", "/v1/vertex/3", "", Route::Vertex("3")),
        ("GET", "/v1/edge/3/7", "", Route::Edge("3", "7")),
        ("GET", "/v1/neighbors/3", "?limit=2", Route::Neighbors("3")),
        ("GET", "/v1/clustering/3/7", "", Route::Clustering("3", "7")),
        ("GET", "/v1/edges/0/2", "?limit=3", Route::Edges("0", "2")),
        ("GET", "/v1/community", "?a=0,1&b=0,2", Route::Community),
        (
            "GET",
            "/v1/scatter/degree-squares",
            "?limit=3",
            Route::Scatter,
        ),
        (
            "GET",
            "/v1/scatter/degree-squares",
            "?format=csv&limit=3",
            Route::Scatter,
        ),
        ("GET", "/metrics", "", Route::Metrics),
        ("GET", "/v1/health", "", Route::Health),
        ("GET", "/v1/shutdown", "", Route::Shutdown),
        ("GET", "/v1/admin/stall", "?ms=1", Route::AdminStall),
        ("GET", "/v1/admin/traces", "", Route::AdminTraces),
        ("GET", "/v1/admin/profile", "", Route::AdminProfile),
    ]
}

/// The whole table: `(method, target, verdict)`.
fn cases() -> Vec<(&'static str, String, Verdict)> {
    let mut cases = Vec::new();
    for (method, path, query, route) in routes() {
        cases.push((method, format!("{path}{query}"), Ok(route)));
        let shorter = &path[..path.rfind('/').unwrap()];
        let wrong = if method == "POST" {
            POST_ELSEWHERE
        } else {
            NO_ROUTE
        };
        cases.push((method, format!("{shorter}/{query}"), wrong));
        cases.push((method, format!("{path}/x{query}"), wrong));
    }
    let more: [(&str, &str, Verdict); 11] = [
        ("GET", "//v1//vertex/3", Ok(Route::Vertex("3"))),
        ("GET", "/v1/edge//3///7/", Ok(Route::Edge("3", "7"))),
        ("GET", "//metrics", Ok(Route::Metrics)),
        ("POST", "/v1/stats", POST_ELSEWHERE),
        ("POST", "/v1/vertex/3", POST_ELSEWHERE),
        ("GET", "/v1/batch", GET_BATCH),
        ("GET", "/v1/edge/0/1/2/3/4/5", NO_ROUTE),
        ("GET", "/v1/a/b/c/d/e/f", NO_ROUTE),
        ("GET", "/v1/admin/profile/x/y", NO_ROUTE),
        ("GET", "/nope", NO_ROUTE),
        ("GET", "/", NO_ROUTE),
    ];
    cases.extend(more.map(|(m, t, v)| (m, t.to_string(), v)));
    cases
}

fn request(method: &str, target: &str) -> Request {
    let body = if method == "POST" { "vertex 3\n" } else { "" };
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    parse_request(&mut raw.as_bytes()).unwrap()
}

/// How many requests the router has relayed to its one replica.
fn relayed_so_far(router: &RouterState) -> u64 {
    let body = router.handle(&request("GET", "/metrics"), None).body;
    let report = Report::from_json(&body).unwrap();
    report.counter("router.shard0.requests").unwrap_or(0)
}

#[test]
fn node_and_router_agree_on_one_route_table() {
    let node = Arc::new(
        ServeState::build(cycle(5), complete_bipartite(2, 3), SelfLoopMode::None, None).unwrap(),
    );
    let server = Server::bind(
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
        Arc::clone(&node),
    )
    .unwrap();
    let url = format!("http://{}", server.local_addr().unwrap());
    let running = std::thread::spawn(move || server.run().unwrap());
    let router = RouterState::connect(&[url], RouterOptions::default()).unwrap();

    for (method, target, verdict) in cases() {
        let case = format!("{method} {target}");
        let req = request(method, &target);
        assert_eq!(
            Route::of(&req).map_err(|r| r.status),
            verdict.map_err(|(status, _)| status),
            "{case}"
        );
        let single = node.handle(&req);
        if let Err((status, detail)) = verdict {
            let detail = detail.map_or_else(|| format!("no route for {}", req.path()), Into::into);
            assert_eq!(single, Response::error(status, &detail), "{case}");
        }

        let before = relayed_so_far(&router);
        let routed = router.handle(&req, None);
        let relayed = relayed_so_far(&router) - before;
        assert_eq!(
            relayed,
            u64::from(verdict.is_ok_and(Route::relayed)),
            "{case}"
        );
        match verdict {
            Ok(route) if route.relayed() => {
                assert_eq!(single.status, 200, "{case}: {}", single.body);
                assert_eq!(routed, single, "{case}");
            }
            // The router's own endpoints.
            Ok(Route::Metrics | Route::Health) => assert_eq!(routed.status, 200, "{case}"),
            Ok(Route::AdminProfile) => assert_eq!(routed.status, 403, "{case}"),
            // A replica's admin endpoints are no route at the router.
            Ok(_) => assert_eq!(
                routed,
                Response::error(404, &format!("no route for {}", req.path())),
                "{case}"
            ),
            Err(_) => assert_eq!(routed, single, "{case}"),
        }
    }

    node.request_shutdown();
    running.join().unwrap();
}
