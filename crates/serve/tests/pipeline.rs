//! HTTP/1.1 pipelining over real TCP: a burst of requests sent in one
//! write gets its answers in order and byte-identical to one-at-a-time
//! exchanges, whether the worker holds answers back for the rest of the
//! burst or writes them before blocking on a read.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

/// A running server on port 0: its address, state and accept thread.
struct Running {
    addr: SocketAddr,
    state: Arc<ServeState>,
    runner: JoinHandle<()>,
}

impl Running {
    fn start() -> Running {
        let state = Arc::new(
            ServeState::build_with(
                cycle(5),
                complete_bipartite(2, 3),
                SelfLoopMode::FactorA,
                ServeOptions::default(),
            )
            .expect("build state"),
        );
        let server = Server::bind(ServerConfig::default(), Arc::clone(&state)).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let runner = std::thread::spawn(move || server.run().expect("server run"));
        Running {
            addr,
            state,
            runner,
        }
    }

    fn connect(&self) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        BufReader::new(stream)
    }

    /// Stop the server once every test connection is closed.
    fn stop(self) {
        self.state.request_shutdown();
        self.runner.join().expect("server thread");
    }
}

/// One request with a fixed `traceparent` (trace id `n + 1`; all zeros
/// is invalid), so the answer's trace id (header, and error bodies) is
/// the same on every connection.
fn request(n: usize, method: &str, target: &str, body: &str, close: bool) -> String {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\n\
         traceparent: 00-{:032x}-00f067aa0ba902b7-01\r\n\
         Content-Length: {}\r\n{}\r\n{body}",
        n + 1,
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    )
}

fn get(n: usize, target: &str) -> String {
    request(n, "GET", target, "", false)
}

/// A mix of every kind of answer: vertices, edges, neighbours, stats, a
/// batch, and per-request errors that keep the connection open.
fn mixed_requests() -> Vec<String> {
    let mut reqs = Vec::new();
    for p in 0..25 {
        reqs.push(get(reqs.len(), &format!("/v1/vertex/{p}")));
        reqs.push(get(
            reqs.len(),
            &format!("/v1/edge/{p}/{}", (p * 7 + 3) % 25),
        ));
        reqs.push(get(reqs.len(), &format!("/v1/neighbors/{p}?limit=4")));
    }
    reqs.push(get(reqs.len(), "/v1/stats"));
    reqs.push(get(reqs.len(), "/v1/vertex/999"));
    reqs.push(get(reqs.len(), "/nope"));
    let batch = "vertex 3\nedge 0 1\nneighbors 4 0 2";
    reqs.push(request(reqs.len(), "POST", "/v1/batch", batch, false));
    reqs
}

/// Read one whole response, head and body, as raw bytes; `None` on a
/// clean EOF before its first byte.
fn read_raw(r: &mut BufReader<TcpStream>) -> Option<Vec<u8>> {
    let mut raw = Vec::new();
    let mut content_length = 0usize;
    loop {
        let start = raw.len();
        let n = r.read_until(b'\n', &mut raw).expect("response head");
        if n == 0 {
            assert!(raw.is_empty(), "EOF inside a response head");
            return None;
        }
        let line = String::from_utf8_lossy(&raw[start..]).to_ascii_lowercase();
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length value");
        }
        if line == "\r\n" {
            break;
        }
    }
    let head = raw.len();
    raw.resize(head + content_length, 0);
    r.read_exact(&mut raw[head..]).expect("response body");
    Some(raw)
}

/// Each request on its own exchange: write it, read its answer.
fn one_at_a_time(server: &Running, reqs: &[String]) -> Vec<Vec<u8>> {
    let mut conn = server.connect();
    reqs.iter()
        .map(|req| {
            conn.get_mut().write_all(req.as_bytes()).expect("write");
            read_raw(&mut conn).expect("answer")
        })
        .collect()
}

fn status(raw: &[u8]) -> &str {
    std::str::from_utf8(&raw[9..12]).expect("status code")
}

fn assert_eof(conn: &mut BufReader<TcpStream>) {
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "bytes after the last answer: {rest:?}");
}

#[test]
fn burst_in_one_write_matches_sequential_exchanges() {
    let server = Running::start();
    let reqs = mixed_requests();
    let want = one_at_a_time(&server, &reqs);
    assert!(want.iter().any(|r| status(r) == "404"));

    let mut conn = server.connect();
    conn.get_mut()
        .write_all(reqs.concat().as_bytes())
        .expect("write burst");
    for (i, want) in want.iter().enumerate() {
        let got = read_raw(&mut conn).expect("answer");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(want),
            "answer {i}"
        );
    }
    drop(conn);
    server.stop();
}

#[test]
fn answer_is_written_before_the_worker_blocks_on_a_partial_request() {
    let server = Running::start();
    let mut conn = server.connect();
    let second = get(2, "/v1/vertex/4");
    let (head, tail) = second.split_at(second.len() / 2);
    let first = get(1, "/v1/vertex/3");
    conn.get_mut()
        .write_all(format!("{first}{head}").as_bytes())
        .expect("write");
    // The second request is incomplete, so the worker must read again;
    // the first answer goes out before that read, not after it.
    let answer = read_raw(&mut conn).expect("first answer before the rest is sent");
    assert_eq!(status(&answer), "200");
    assert!(String::from_utf8_lossy(&answer).contains("\"vertex\": 3,"));
    conn.get_mut()
        .write_all(tail.as_bytes())
        .expect("write rest");
    let answer = read_raw(&mut conn).expect("second answer");
    assert!(String::from_utf8_lossy(&answer).contains("\"vertex\": 4,"));
    drop(conn);
    server.stop();
}

#[test]
fn burst_beyond_the_output_cap_arrives_intact() {
    let server = Running::start();
    let distinct = mixed_requests();
    let want = one_at_a_time(&server, &distinct);
    let rounds = 32;
    let total: usize = want.iter().map(Vec::len).sum::<usize>() * rounds;
    assert!(total > 4 * 64 * 1024, "burst answers only {total} bytes");

    let mut conn = server.connect();
    let mut writer = conn.get_ref().try_clone().expect("clone");
    let burst = distinct.concat().repeat(rounds);
    // Written from a second thread: the answers outgrow the socket
    // buffers, so the server stops reading until this side reads.
    let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()));
    for round in 0..rounds {
        for (i, want) in want.iter().enumerate() {
            let got = read_raw(&mut conn).expect("answer");
            assert!(got == *want, "round {round} answer {i}");
        }
    }
    sender.join().expect("sender").expect("write burst");
    drop(conn);
    server.stop();
}

#[test]
fn malformed_request_mid_burst_ends_the_connection_after_earlier_answers() {
    let server = Running::start();
    let good: Vec<String> = (0..3).map(|p| get(p, &format!("/v1/vertex/{p}"))).collect();
    let want = one_at_a_time(&server, &good);

    let mut conn = server.connect();
    let burst = format!(
        "{}BLAH / HTTP/1.1\r\n\r\n{}",
        good.concat(),
        get(9, "/v1/vertex/9")
    );
    conn.get_mut().write_all(burst.as_bytes()).expect("write");
    for want in &want {
        assert!(read_raw(&mut conn).expect("earlier answer") == *want);
    }
    let bad = read_raw(&mut conn).expect("the 400");
    let text = String::from_utf8_lossy(&bad);
    assert_eq!(status(&bad), "400", "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    // The request after the malformed one is never answered.
    assert_eof(&mut conn);
    server.stop();
}

#[test]
fn burst_ending_in_connection_close_gets_every_answer_then_eof() {
    let server = Running::start();
    let mut reqs: Vec<String> = (0..20)
        .map(|p| get(p, &format!("/v1/vertex/{p}")))
        .collect();
    reqs.push(request(20, "GET", "/v1/stats", "", true));
    let want = one_at_a_time(&server, &reqs[..20]);

    let mut conn = server.connect();
    conn.get_mut()
        .write_all(reqs.concat().as_bytes())
        .expect("write burst");
    for want in &want {
        assert!(read_raw(&mut conn).expect("answer") == *want);
    }
    let last = read_raw(&mut conn).expect("answer to the closing request");
    let text = String::from_utf8_lossy(&last);
    assert_eq!(status(&last), "200", "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert_eof(&mut conn);
    server.stop();
}
