//! The whole-request deadline: clients that trickle a request just
//! inside the per-read timeout get a 408 once the deadline passes, and
//! cannot starve the pool for a well-behaved client queued behind them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bikron_core::SelfLoopMode;
use bikron_generators::{complete_bipartite, cycle};
use bikron_serve::pool::REQUEST_DEADLINE;
use bikron_serve::{ServeOptions, ServeState, Server, ServerConfig};

/// Send one byte every 500 ms (a tenth of the read timeout) until the
/// server answers; return everything it sent before closing.
fn trickle(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let head = b"GET /v1/stats HTTP/1.1\r\nX-Pad: ";
    let mut sent = 0usize;
    let mut answer = Vec::new();
    loop {
        if answer.is_empty() {
            let byte = head.get(sent).copied().unwrap_or(b'a');
            // The server may close between our writes and its answer.
            let _ = stream.write_all(&[byte]);
            sent += 1;
        }
        let mut buf = [0u8; 1024];
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    String::from_utf8(answer).expect("utf-8 answer")
}

#[test]
fn trickling_clients_get_408_and_cannot_starve_the_pool() {
    let threads = 2;
    let state = Arc::new(
        ServeState::build_with(
            cycle(5),
            complete_bipartite(2, 3),
            SelfLoopMode::None,
            ServeOptions::default(),
        )
        .expect("build state"),
    );
    let server = Server::bind(
        ServerConfig {
            threads,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    let counter = |name: &str| bikron_obs::global().snapshot().counter(name).unwrap_or(0);
    let timeouts_before = counter("serve.timeouts");
    let accepted_before = counter("serve.connections");

    // One trickler per worker pins the whole pool. Once both are
    // accepted, the normal client queues behind them.
    let tricklers: Vec<_> = (0..threads)
        .map(|_| std::thread::spawn(move || trickle(addr)))
        .collect();
    while counter("serve.connections") < accepted_before + threads as u64 {
        std::thread::sleep(Duration::from_millis(10));
    }

    // A normal client queued behind them is answered once the deadline
    // frees a worker.
    let opened = Instant::now();
    let mut normal = TcpStream::connect(addr).expect("connect");
    normal
        .set_read_timeout(Some(REQUEST_DEADLINE + Duration::from_secs(5)))
        .unwrap();
    normal
        .write_all(b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut answer = String::new();
    normal.read_to_string(&mut answer).expect("normal answer");
    let waited = opened.elapsed();
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
    assert!(
        waited <= REQUEST_DEADLINE + Duration::from_secs(1),
        "normal client waited {waited:?}"
    );

    for t in tricklers {
        let answer = t.join().expect("trickler");
        assert!(
            answer.starts_with("HTTP/1.1 408 Request Timeout"),
            "{answer}"
        );
        assert!(answer.contains("Connection: close"), "{answer}");
        assert!(answer.contains("\"trace_id\""), "{answer}");
    }
    assert_eq!(counter("serve.timeouts") - timeouts_before, threads as u64);

    state.request_shutdown();
    runner.join().unwrap();
}
