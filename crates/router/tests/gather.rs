//! The router's fan-out against in-process fake shards: every involved
//! shard gets its request before any answer is read, answers are read
//! in shard order under one deadline, and a failure stays in the failed
//! shard's slots.
//!
//! A fake shard answers the startup handshake (`/v1/health` naming its
//! `I/N`, `/v1/stats` with 100 vertices, so shard `I` of 2 owns vertices
//! `50·I..50·I+50`) and answers each batch line `L` with
//! `{"line": "L", "pad": "xxx…"}`, padded to a per-shard length.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bikron_router::{split_batch_items, RouterOptions, RouterState};
use bikron_serve::http::{parse_request, Request};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Normal,
    /// Sleep this long before each answer.
    Delay(Duration),
    /// Read each request, never answer.
    Hang,
}

struct FakeShard {
    addr: String,
    mode: Arc<Mutex<Mode>>,
    accepted: Arc<AtomicUsize>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FakeShard {
    fn start(index: usize, pad: usize) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mode = Arc::new(Mutex::new(Mode::Normal));
        let accepted = Arc::new(AtomicUsize::new(0));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (mode, accepted, conns, stop) =
                (mode.clone(), accepted.clone(), conns.clone(), stop.clone());
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
                    let (mode, stop) = (mode.clone(), stop.clone());
                    handlers.push(std::thread::spawn(move || {
                        serve(stream, index, pad, &mode, &stop)
                    }));
                }
                close_all(&conns);
                for h in handlers {
                    h.join().expect("fake shard connection thread");
                }
            })
        };
        FakeShard {
            addr,
            mode,
            accepted,
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

    /// Close every accepted connection, leaving the router's pooled ones
    /// stale.
    fn drop_connections(&self) {
        close_all(&self.conns);
    }

    /// Stop listening and close every connection: later dials are
    /// refused. Errs when a fake shard thread panicked.
    fn kill(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.acceptor.take() {
            Some(acceptor) => acceptor.join(),
            None => Ok(()),
        }
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

fn close_all(conns: &Mutex<Vec<TcpStream>>) {
    for c in conns.lock().unwrap().drain(..) {
        let _ = c.shutdown(Shutdown::Both);
    }
}

/// One keep-alive connection of a fake shard.
fn serve(stream: TcpStream, index: usize, pad: usize, mode: &Mutex<Mode>, stop: &AtomicBool) {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    while let Ok(req) = parse_request(&mut reader) {
        let body = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/health") => format!("{{\"status\": \"ok\", \"shard\": \"{index}/2\"}}\n"),
            ("GET", "/v1/stats") => "{\"vertices\": 100}\n".to_string(),
            ("POST", "/v1/batch") => {
                let lines = String::from_utf8(req.body).unwrap();
                let items: Vec<String> = lines.lines().map(|l| item(l, pad)).collect();
                format!("[\n{}\n]\n", items.join(",\n"))
            }
            _ => "{}\n".to_string(),
        };
        let current = *mode.lock().unwrap();
        match current {
            Mode::Normal => {}
            Mode::Delay(d) => std::thread::sleep(d),
            Mode::Hang => {
                while *mode.lock().unwrap() == Mode::Hang && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return;
            }
        }
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        if w.write_all(head.as_bytes()).is_err() || w.write_all(body.as_bytes()).is_err() {
            return;
        }
    }
}

fn item(line: &str, pad: usize) -> String {
    format!("{{\"line\": \"{line}\", \"pad\": \"{}\"}}", "x".repeat(pad))
}

/// What the router must answer for `lines`, given each shard's pad.
fn expected_batch(lines: &[String], pads: [usize; 2]) -> String {
    let items: Vec<String> = lines
        .iter()
        .map(|l| {
            let p: usize = l.rsplit(' ').next().unwrap().parse().unwrap();
            item(l, pads[p / 50])
        })
        .collect();
    format!("[\n{}\n]\n", items.join(",\n"))
}

fn router(shards: &[&FakeShard], upstream_timeout: Duration) -> RouterState {
    let urls: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let options = RouterOptions {
        upstream_timeout,
        ..RouterOptions::default()
    };
    RouterState::connect(&urls, options).unwrap()
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: vec![],
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

#[test]
fn a_slow_shard_does_not_block_a_large_answer_from_another() {
    // Shard 1's answer (over 1 MiB) outgrows the loopback socket buffer
    // and waits unread while shard 0 takes 300 ms: its worker blocks on
    // the write until the router gets to it, and nothing deadlocks.
    let pads = [16, 70_000];
    let s0 = FakeShard::start(0, pads[0]);
    let s1 = FakeShard::start(1, pads[1]);
    let router = router(&[&s0, &s1], Duration::from_secs(5));
    s0.set_mode(Mode::Delay(Duration::from_millis(300)));
    let lines: Vec<String> = (0..16)
        .flat_map(|i| [format!("vertex {i}"), format!("vertex {}", 99 - i)])
        .collect();
    let started = Instant::now();
    let resp = router.handle(&request("POST", "/v1/batch", &lines.join("\n")), None);
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 200);
    assert!(resp.body.len() > 1 << 20);
    assert!(
        resp.body == expected_batch(&lines, pads),
        "batch body differs"
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "took {elapsed:?} for a 300 ms shard"
    );
}

#[test]
fn a_dead_shard_fails_only_its_own_slots() {
    let s0 = FakeShard::start(0, 8);
    let mut s1 = FakeShard::start(1, 8);
    let router = router(&[&s0, &s1], Duration::from_secs(5));
    s1.kill().unwrap();
    let lines = ["vertex 0", "vertex 60", "vertex 1", "vertex 99"];
    let resp = router.handle(&request("POST", "/v1/batch", &lines.join("\n")), None);
    assert_eq!(resp.status, 200);
    let items = split_batch_items(&resp.body).unwrap();
    assert_eq!(items.len(), 4);
    assert_eq!(items[0], item("vertex 0", 8));
    assert_eq!(items[2], item("vertex 1", 8));
    for dead in [&items[1], &items[3]] {
        assert!(dead.contains("\"error\": 503"), "{dead}");
        assert!(dead.contains("shard 1"), "{dead}");
    }
}

#[test]
fn two_hung_shards_cost_one_upstream_timeout() {
    let timeout = Duration::from_millis(1500);
    let s0 = FakeShard::start(0, 8);
    let s1 = FakeShard::start(1, 8);
    let router = router(&[&s0, &s1], timeout);
    s0.set_mode(Mode::Hang);
    s1.set_mode(Mode::Hang);
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
    let s0 = FakeShard::start(0, 8);
    let s1 = FakeShard::start(1, 8);
    let router = router(&[&s0, &s1], Duration::from_secs(5));
    // The handshake ran over one pooled connection per shard.
    assert_eq!((s0.accepted(), s1.accepted()), (1, 1));
    s0.drop_connections();
    s1.drop_connections();
    let lines = ["vertex 7".to_string(), "vertex 70".to_string()];
    let resp = router.handle(&request("POST", "/v1/batch", &lines.join("\n")), None);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected_batch(&lines, [8, 8]));
    assert_eq!((s0.accepted(), s1.accepted()), (2, 2));
}
