//! The router against in-process fake replicas: relays, the one retry,
//! and the `/v1/health` fan-out.
//!
//! A relay goes whole to one replica, round-robin from replica 0; the
//! consecutive relayed requests of a pipelined burst go to it as one
//! run. The requests whose answers had not begun when that replica sent
//! nothing more go once, as one run, to the next replica; any other
//! failure is a 503 that names it, never a wrong 200. A fan-out sends to
//! every replica before reading any answer, then reads them in order
//! under one deadline.
//!
//! A fake replica answers the startup handshake (`/v1/stats`), answers
//! `/v1/health` with `"status": "ok"`, and answers each batch line `L`
//! with `{"line": "L", "pad": "xxx…"}`. Health and batch answers are
//! padded to a per-replica length, so a body names the replica that
//! wrote it.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bikron_router::{RouterOptions, RouterState};
use bikron_serve::http::{parse_request, Request};
use bikron_serve::{Exchange, Handler, Server, ServerConfig};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Normal,
    /// Sleep this long before each answer.
    Delay(Duration),
    /// Read each request, never answer.
    Hang,
    /// Close each connection once a request arrives, leaving it unread,
    /// so the kernel resets the connection: no response byte is sent.
    Reset,
    /// Send the head and half the body, then close.
    Truncate,
    /// Declare 10 more body bytes than are sent, then close.
    LongLength,
    /// Declare 5 fewer body bytes than are sent.
    ShortLength,
    /// Declare 5 fewer body bytes than are sent for the batch with this
    /// index (counted from 0 over all batches the replica reads).
    ShortLengthOnBatch(usize),
    /// Answer this many batches, then close the connection cleanly,
    /// leaving later requests on it unanswered.
    CloseAfterBatches(usize),
    /// Answer this many batches, then read requests and never answer.
    HangAfterBatches(usize),
    /// Label every answer with this `Content-Type` (none when empty)
    /// instead of `application/json`.
    ContentType(&'static str),
}

struct FakeReplica {
    addr: String,
    mode: Arc<Mutex<Mode>>,
    accepted: Arc<AtomicUsize>,
    batches: Arc<AtomicUsize>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FakeReplica {
    fn start(pad: usize) -> FakeReplica {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mode = Arc::new(Mutex::new(Mode::Normal));
        let accepted = Arc::new(AtomicUsize::new(0));
        let batches = Arc::new(AtomicUsize::new(0));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (mode, accepted, batches, conns, stop) = (
                mode.clone(),
                accepted.clone(),
                batches.clone(),
                conns.clone(),
                stop.clone(),
            );
            std::thread::spawn(move || {
                let mut handlers = Vec::new();
                // Dropping the listener on return refuses later dials.
                while !stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    stream.set_nonblocking(false).unwrap();
                    conns.lock().unwrap().push(stream.try_clone().unwrap());
                    let (mode, batches, conns, stop) =
                        (mode.clone(), batches.clone(), conns.clone(), stop.clone());
                    handlers.push(std::thread::spawn(move || {
                        serve(stream, pad, &mode, &batches, &conns, &stop)
                    }));
                }
                close_all(&conns);
                for h in handlers {
                    h.join().expect("fake replica connection thread");
                }
            })
        };
        FakeReplica {
            addr,
            mode,
            accepted,
            batches,
            conns,
            stop,
            acceptor: Some(acceptor),
        }
    }

    fn set_mode(&self, mode: Mode) {
        *self.mode.lock().unwrap() = mode;
    }

    fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Batch requests read so far, answered or not.
    fn batches(&self) -> usize {
        self.batches.load(Ordering::SeqCst)
    }

    /// Close every accepted connection, leaving the router's pooled ones
    /// stale.
    fn drop_connections(&self) {
        close_all(&self.conns);
    }

    /// Stop listening and close every connection: later dials are
    /// refused. Errs when a fake replica thread panicked.
    fn kill(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.acceptor.take() {
            Some(acceptor) => acceptor.join(),
            None => Ok(()),
        }
    }
}

impl Drop for FakeReplica {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

fn close_all(conns: &Mutex<Vec<TcpStream>>) {
    for c in conns.lock().unwrap().drain(..) {
        let _ = c.shutdown(Shutdown::Both);
    }
}

/// Drop the clone `conns` keeps of `stream`, so that dropping `stream`
/// closes the socket.
fn forget(conns: &Mutex<Vec<TcpStream>>, stream: &TcpStream) {
    let peer = stream.peer_addr().ok();
    conns.lock().unwrap().retain(|c| c.peer_addr().ok() != peer);
}

/// One keep-alive connection of a fake replica.
fn serve(
    stream: TcpStream,
    pad: usize,
    mode: &Mutex<Mode>,
    batches: &AtomicUsize,
    conns: &Mutex<Vec<TcpStream>>,
    stop: &AtomicBool,
) {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    loop {
        // Wait for the next request without reading it, so a reset
        // leaves it unread; a pipelined one may already be buffered.
        if reader.buffer().is_empty() && !matches!(w.peek(&mut [0u8; 1]), Ok(n) if n > 0) {
            return;
        }
        let current = *mode.lock().unwrap();
        if current == Mode::Reset {
            // Closing with the request unread makes the kernel send RST.
            return forget(conns, &w);
        }
        let Ok(req) = parse_request(&mut reader) else {
            return;
        };
        let mut batch = None;
        let body = match (req.method(), req.path()) {
            ("GET", "/v1/health") => {
                format!("{{\"status\": \"ok\", \"pad\": \"{}\"}}\n", "x".repeat(pad))
            }
            ("GET", "/v1/stats") => "{\"vertices\": 100}\n".to_string(),
            ("POST", "/v1/batch") => {
                batch = Some(batches.fetch_add(1, Ordering::SeqCst));
                let lines = std::str::from_utf8(req.body()).unwrap();
                let items: Vec<String> = lines.lines().map(|l| item(l, pad)).collect();
                format!("[\n{}\n]\n", items.join(",\n"))
            }
            _ => "{}\n".to_string(),
        };
        let (declared, sent) = match current {
            Mode::ShortLengthOnBatch(n) if batch == Some(n) => (body.len() - 5, body.len()),
            Mode::HangAfterBatches(n) if batch.is_some_and(|i| i >= n) => {
                while *mode.lock().unwrap() == current && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return;
            }
            Mode::Normal
            | Mode::Reset
            | Mode::ShortLengthOnBatch(_)
            | Mode::CloseAfterBatches(_)
            | Mode::HangAfterBatches(_)
            | Mode::ContentType(_) => (body.len(), body.len()),
            Mode::Delay(d) => {
                std::thread::sleep(d);
                (body.len(), body.len())
            }
            Mode::Hang => {
                while *mode.lock().unwrap() == Mode::Hang && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return;
            }
            Mode::Truncate => (body.len(), body.len() / 2),
            Mode::LongLength => (body.len() + 10, body.len()),
            Mode::ShortLength => (body.len() - 5, body.len()),
        };
        // Head and body in one write, as a real server sends them.
        let content_type = match current {
            Mode::ContentType("") => String::new(),
            Mode::ContentType(t) => format!("Content-Type: {t}\r\n"),
            _ => "Content-Type: application/json\r\n".to_string(),
        };
        let mut out =
            format!("HTTP/1.1 200 OK\r\n{content_type}Content-Length: {declared}\r\n\r\n")
                .into_bytes();
        out.extend_from_slice(&body.as_bytes()[..sent]);
        if w.write_all(&out).is_err() {
            return;
        }
        if matches!(current, Mode::Truncate | Mode::LongLength) {
            return forget(conns, &w);
        }
        if let (Mode::CloseAfterBatches(n), Some(i)) = (current, batch) {
            if i + 1 == n {
                // A clean close: FIN after the last answer, then drain
                // what the router sent until it hangs up, so closing
                // with unread bytes sends no reset.
                let _ = w.shutdown(Shutdown::Write);
                forget(conns, &w);
                let _ = w.set_read_timeout(Some(Duration::from_secs(5)));
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
                return;
            }
        }
    }
}

fn item(line: &str, pad: usize) -> String {
    format!("{{\"line\": \"{line}\", \"pad\": \"{}\"}}", "x".repeat(pad))
}

/// What a replica with `pad` answers for `lines`.
fn expected_batch(lines: &[&str], pad: usize) -> String {
    let items: Vec<String> = lines.iter().map(|l| item(l, pad)).collect();
    format!("[\n{}\n]\n", items.join(",\n"))
}

fn router(replicas: &[&FakeReplica], upstream_timeout: Duration) -> RouterState {
    let urls: Vec<String> = replicas.iter().map(|s| s.addr.clone()).collect();
    let options = RouterOptions {
        upstream_timeout,
        ..RouterOptions::default()
    };
    RouterState::connect(&urls, options).unwrap()
}

fn request(method: &str, path: &str, body: &str) -> Request {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    parse_request(&mut raw.as_bytes()).unwrap()
}

const LINES: [&str; 3] = ["vertex 0", "edge 60 1", "neighbors 99 0 4"];

fn batch(router: &RouterState) -> bikron_serve::http::Response {
    router.handle(&request("POST", "/v1/batch", &LINES.join("\n")), None)
}

#[test]
fn batches_go_whole_to_replicas_in_turn() {
    let pads = [8, 16];
    let r0 = FakeReplica::start(pads[0]);
    let r1 = FakeReplica::start(pads[1]);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    for turn in 0..4 {
        let resp = batch(&router);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            expected_batch(&LINES, pads[turn % 2]),
            "turn {turn}"
        );
    }
    assert_eq!((r0.batches(), r1.batches()), (2, 2));
}

#[test]
fn a_slow_replica_does_not_block_a_large_answer_from_another() {
    // Replica 1's health answer (over 1 MiB) outgrows the loopback
    // socket buffer and waits unread while replica 0 takes 300 ms: its
    // worker blocks on the write until the router gets to it, and
    // nothing deadlocks.
    let r0 = FakeReplica::start(16);
    let r1 = FakeReplica::start(1 << 20);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    r0.set_mode(Mode::Delay(Duration::from_millis(300)));
    let started = Instant::now();
    let resp = router.handle(&request("GET", "/v1/health", ""), None);
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.starts_with("{\n  \"status\": \"ok\""),
        "{}",
        resp.body
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "took {elapsed:?} for a 300 ms replica"
    );
}

#[test]
fn a_dead_replica_fails_no_request() {
    let r0 = FakeReplica::start(8);
    let mut r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    r1.kill().unwrap();
    // Every other relay picks replica 1, whose dial is refused: the
    // request goes to replica 0 instead.
    for turn in 0..4 {
        let resp = batch(&router);
        assert_eq!(resp.status, 200, "turn {turn}: {}", resp.body);
        assert_eq!(resp.body, expected_batch(&LINES, 8), "turn {turn}");
    }
    assert_eq!(r0.batches(), 4);
    let health = router.handle(&request("GET", "/v1/health", ""), None);
    assert!(
        health.body.contains("\"status\": \"degraded\""),
        "{}",
        health.body
    );
    let replica_1 = health
        .body
        .split("\"replica\": 1,")
        .nth(1)
        .unwrap_or_default();
    assert!(
        replica_1.contains("\"status\": \"down\""),
        "{}",
        health.body
    );
    assert_eq!(
        health.body.matches("\"down\"").count(),
        1,
        "{}",
        health.body
    );
}

#[test]
fn a_replica_that_resets_before_any_byte_is_retried_on_the_next() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    r0.set_mode(Mode::Reset);
    let resp = batch(&router);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, expected_batch(&LINES, 16));
    assert_eq!((r0.batches(), r1.batches()), (0, 1));
}

#[test]
fn a_truncated_or_mislabelled_answer_is_a_503_and_never_retried() {
    for mode in [Mode::Truncate, Mode::LongLength, Mode::ShortLength] {
        let r0 = FakeReplica::start(8);
        let r1 = FakeReplica::start(16);
        let router = router(&[&r0, &r1], Duration::from_secs(5));
        r0.set_mode(mode);
        let resp = batch(&router);
        assert_eq!(resp.status, 503, "{mode:?}: {}", resp.body);
        assert!(
            resp.body.contains("no replica answered (replica 0"),
            "{mode:?}: {}",
            resp.body
        );
        assert_eq!((r0.batches(), r1.batches()), (1, 0), "{mode:?}");
    }
}

/// A replica's answer under a `Content-Type` no bikron server emits, or
/// under none, is a fault of that replica: a 503 naming the replica and
/// the type, never a relabelled 200, and not retried (the replica did
/// answer).
#[test]
fn an_answer_of_a_foreign_content_type_is_a_503_naming_it() {
    for (sent, named) in [
        (
            "text/html",
            "Content-Type \"text/html\" is not one a bikron server emits",
        ),
        ("", "no Content-Type"),
    ] {
        let r0 = FakeReplica::start(8);
        let r1 = FakeReplica::start(16);
        let router = router(&[&r0, &r1], Duration::from_secs(5));
        r0.set_mode(Mode::ContentType(sent));
        let resp = batch(&router);
        assert_eq!(resp.status, 503, "{sent:?}: {}", resp.body);
        let want = format!("no replica answered (replica 0 ({}): {named})", r0.addr);
        assert!(
            resp.body.contains(&want.replace('"', "\\\"")),
            "{}",
            resp.body
        );
        assert_eq!((r0.batches(), r1.batches()), (1, 0), "{sent:?}");
    }
}

#[test]
fn a_hung_replica_costs_one_upstream_timeout_and_is_not_retried() {
    let timeout = Duration::from_millis(800);
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], timeout);
    r0.set_mode(Mode::Hang);
    let started = Instant::now();
    let resp = batch(&router);
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("no replica answered"), "{}", resp.body);
    assert!(elapsed >= timeout, "answered in {elapsed:?}");
    assert!(
        elapsed < timeout + Duration::from_millis(500),
        "answered in {elapsed:?}"
    );
    assert_eq!((r0.batches(), r1.batches()), (1, 0));
    r0.set_mode(Mode::Normal);
}

#[test]
fn two_hung_replicas_cost_one_upstream_timeout() {
    let timeout = Duration::from_millis(1500);
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(8);
    let router = router(&[&r0, &r1], timeout);
    r0.set_mode(Mode::Hang);
    r1.set_mode(Mode::Hang);
    let started = Instant::now();
    let resp = router.handle(&request("GET", "/v1/health", ""), None);
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body.matches("\"status\": \"down\"").count(),
        2,
        "{}",
        resp.body
    );
    assert!(elapsed >= timeout, "answered in {elapsed:?}");
    assert!(
        elapsed < timeout + Duration::from_secs(1),
        "answered in {elapsed:?}"
    );
}

#[test]
fn a_stale_pooled_connection_costs_one_fresh_dial() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    // The handshake ran over one pooled connection per replica.
    assert_eq!((r0.accepted(), r1.accepted()), (1, 1));
    r0.drop_connections();
    r1.drop_connections();
    for pad in [8, 16] {
        let resp = batch(&router);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected_batch(&LINES, pad));
    }
    assert_eq!((r0.accepted(), r1.accepted()), (2, 2));
    assert_eq!((r0.batches(), r1.batches()), (1, 1));
}

/// Answer `requests` as one burst, the way the transport loop hands a
/// pipelined burst to the router: `(status, body)` per request, in order.
fn burst(router: &RouterState, requests: Vec<Request>) -> Vec<(u16, String)> {
    let mut burst: Vec<Exchange> = requests.into_iter().map(Exchange::new).collect();
    router.respond(&mut burst);
    burst
        .into_iter()
        .map(|x| (x.answer.status, x.body))
        .collect()
}

fn batches(n: usize) -> Vec<Request> {
    (0..n)
        .map(|_| request("POST", "/v1/batch", &LINES.join("\n")))
        .collect()
}

/// Every answer is a 503 naming replica 0's failure as `what`.
fn assert_refused(answers: &[(u16, String)], what: &str) {
    for (status, body) in answers {
        assert_eq!(*status, 503, "{body}");
        assert!(
            body.contains("no replica answered (replica 0") && body.contains(what),
            "{body}"
        );
    }
}

#[test]
fn an_undercounted_answer_mid_run_fails_it_and_the_rest_of_the_run() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    r0.set_mode(Mode::ShortLengthOnBatch(1));
    let answers = burst(&router, batches(3));
    assert_eq!(answers[0], (200, expected_batch(&LINES, 8)));
    assert_refused(
        &answers[1..],
        "malformed response: bytes beyond Content-Length",
    );
    assert_eq!(r1.batches(), 0, "an answered run is not retried");
}

#[test]
fn a_replica_that_closes_mid_run_hands_the_rest_to_the_next_once() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    r0.set_mode(Mode::CloseAfterBatches(2));
    let answers = burst(&router, batches(4));
    let from = |pad| (200, expected_batch(&LINES, pad));
    assert_eq!(answers, [from(8), from(8), from(16), from(16)]);
    assert_eq!((r0.batches(), r1.batches()), (2, 2));
}

#[test]
fn a_replica_that_hangs_mid_run_costs_one_upstream_timeout() {
    let timeout = Duration::from_millis(800);
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], timeout);
    r0.set_mode(Mode::HangAfterBatches(1));
    let started = Instant::now();
    let answers = burst(&router, batches(3));
    let elapsed = started.elapsed();
    assert_eq!(answers[0], (200, expected_batch(&LINES, 8)));
    assert_refused(&answers[1..], "timed out");
    assert!(elapsed >= timeout, "answered in {elapsed:?}");
    assert!(
        elapsed < timeout + Duration::from_millis(500),
        "answered in {elapsed:?}"
    );
    assert_eq!(r1.batches(), 0, "a timeout is not retried");
    r0.set_mode(Mode::Normal);
}

#[test]
fn a_stale_pooled_connection_costs_one_fresh_dial_for_a_whole_run() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    assert_eq!((r0.accepted(), r1.accepted()), (1, 1));
    r0.drop_connections();
    r1.drop_connections();
    for pad in [8, 16] {
        let answers = burst(&router, batches(3));
        assert_eq!(answers, vec![(200, expected_batch(&LINES, pad)); 3]);
    }
    assert_eq!((r0.accepted(), r1.accepted()), (2, 2));
    assert_eq!((r0.batches(), r1.batches()), (3, 3));
}

#[test]
fn a_burst_keeps_local_answers_in_their_places() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = router(&[&r0, &r1], Duration::from_secs(5));
    let mut requests = batches(2);
    requests.push(request("GET", "/v1/health", ""));
    requests.extend(batches(1));
    requests.push(request("GET", "/nope", ""));
    requests.push(request("GET", "/v1/stats", ""));
    let answers = burst(&router, requests);
    let statuses: Vec<u16> = answers.iter().map(|(status, _)| *status).collect();
    assert_eq!(statuses, [200, 200, 200, 200, 404, 200]);
    // Runs go to the replicas in turn: two batches, then one, then stats.
    assert_eq!(answers[0].1, expected_batch(&LINES, 8));
    assert_eq!(answers[1].1, expected_batch(&LINES, 8));
    assert!(
        answers[2].1.contains("\"role\": \"router\""),
        "{}",
        answers[2].1
    );
    assert_eq!(answers[3].1, expected_batch(&LINES, 16));
    assert!(
        answers[4].1.contains("no route for /nope"),
        "{}",
        answers[4].1
    );
    assert_eq!(answers[5].1, "{\"vertices\": 100}\n");
    assert_eq!((r0.batches(), r1.batches()), (2, 1));
}

/// Read one `Content-Length`-framed answer: its status and body.
fn read_answer(r: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let status = line[9..12].parse().unwrap();
    let mut length = 0;
    loop {
        line.clear();
        r.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0; length];
    r.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn a_pipelined_burst_reaches_one_replica_as_one_run() {
    let r0 = FakeReplica::start(8);
    let r1 = FakeReplica::start(16);
    let router = Arc::new(router(&[&r0, &r1], Duration::from_secs(5)));
    let server = Server::bind(ServerConfig::default(), Arc::clone(&router)).unwrap();
    let addr = server.local_addr().unwrap();
    let running = std::thread::spawn(move || server.run().unwrap());
    let accepted = r0.accepted();

    let body = LINES.join("\n");
    let one = format!(
        "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(one.repeat(8).as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..8 {
        assert_eq!(
            read_answer(&mut reader),
            (200, expected_batch(&LINES, 8)),
            "answer {i}"
        );
    }
    assert_eq!((r0.batches(), r1.batches()), (8, 0));
    assert!(
        r0.accepted() - accepted <= 1,
        "{} dials",
        r0.accepted() - accepted
    );

    drop((reader, stream));
    router.request_shutdown();
    running.join().unwrap();
}
