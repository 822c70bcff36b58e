//! The processes under test: `bikron serve` and `bikron router`, spawned
//! from the `bikron` binary beside the benchmark's own executable.
//!
//! Every server binds port 0 and announces its address on stdout; a
//! reader thread takes that line and keeps draining the pipe so the
//! server never blocks or fails on a write. A [`Proc`] kills and waits
//! for its process when dropped, so no server outlives a run, whichever
//! way the run ends.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::truth::Truth;

/// Token for the servers' admin endpoints (profile windows).
pub const ADMIN_TOKEN: &str = "perfbench";
/// Worker threads of every server process.
pub const SERVER_THREADS: usize = 2;
/// How long a server may take to announce its address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, 100 on
/// every Linux architecture the benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

/// The `bikron` binary beside this executable.
pub fn bikron_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let bin = exe.with_file_name("bikron");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "bikron binary not found at {} — build it into the same target directory \
             (`cargo build --release -p bikron-cli`), or run via perfbench/run.sh",
            bin.display()
        ))
    }
}

/// One spawned server process.
pub struct Proc {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Proc {
    /// Spawn `bikron ARGS` and wait for its `http://ADDR` banner.
    fn spawn(bin: &PathBuf, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning bikron {}: {e}", args.join(" ")))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut announced = false;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if !announced {
                    if let Some(addr) = banner_addr(&line) {
                        announced = true;
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut proc = Proc {
            child,
            drain: Some(drain),
            addr: String::new(),
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!(
                "bikron {} exited or hung before announcing its address",
                args.join(" ")
            )),
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        peak_rss_kib(&format!("/proc/{}/status", self.pid()))
    }

    /// CPU seconds (user + system) used so far.
    pub fn cpu_s(&self) -> Option<f64> {
        cpu_s(&format!("/proc/{}/stat", self.pid()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// `ADDR` from a `... http://ADDR ...` banner line.
fn banner_addr(line: &str) -> Option<String> {
    let rest = line.split_once("http://")?.1;
    let addr = rest.split_whitespace().next()?;
    (!addr.is_empty()).then(|| addr.to_string())
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds from a `/proc/<pid>/stat` file.
pub fn cpu_s(stat_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(stat_path).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Which servers a workload talks to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `serve` process.
    Node,
    /// `router` over `serve --shard 0/2` and `serve --shard 1/2`.
    Cluster,
}

/// A booted topology.
pub struct Deployment {
    /// The serve processes: the node, or the shards in order.
    pub servers: Vec<Proc>,
    /// The router, for a cluster.
    pub router: Option<Proc>,
    /// Address clients talk to (the node, or the router).
    pub front: String,
    /// The verified `/v1/stats` body.
    pub stats_body: String,
}

impl Deployment {
    fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.servers.iter().chain(&self.router)
    }

    /// Sum of the processes' peak resident sets, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        self.procs()
            .map(|p| p.peak_rss_kib().map(|k| k as f64 / 1024.0))
            .sum()
    }

    /// CPU seconds used so far by the serve processes.
    pub fn serve_cpu_s(&self) -> Option<f64> {
        self.servers.iter().map(|p| p.cpu_s()).sum()
    }

    /// Stop the router, releasing the shard workers its pooled
    /// connections hold.
    pub fn stop_router(&mut self) {
        self.router = None;
    }
}

fn serve_args(shard: Option<usize>) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "unicode",
        "unicode",
        "loops-a",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        &SERVER_THREADS.to_string(),
        "--admin-token",
        ADMIN_TOKEN,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(i) = shard {
        args.push("--shard".into());
        args.push(format!("{i}/2"));
    }
    args
}

/// Boot `topology` from nothing and return it once a `/v1/stats` answer
/// through its front has passed [`Truth::check_stats`], with the time
/// that took (the cold-boot set-up time).
pub fn boot(
    bin: &PathBuf,
    topology: Topology,
    truth: &Truth,
) -> Result<(Deployment, Duration), String> {
    let started = Instant::now();
    let (servers, router) = match topology {
        Topology::Node => (vec![Proc::spawn(bin, &serve_args(None))?], None),
        Topology::Cluster => {
            // Both shards boot concurrently; the router needs their
            // addresses, so it starts once both have announced.
            let (s0, s1) = std::thread::scope(|s| {
                let h0 = s.spawn(|| Proc::spawn(bin, &serve_args(Some(0))));
                let h1 = s.spawn(|| Proc::spawn(bin, &serve_args(Some(1))));
                (
                    h0.join().expect("shard spawn thread"),
                    h1.join().expect("shard spawn thread"),
                )
            });
            let (s0, s1) = (s0?, s1?);
            let router_args: Vec<String> = vec![
                "router".into(),
                "--shards".into(),
                format!("{},{}", s0.addr, s1.addr),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--threads".into(),
                SERVER_THREADS.to_string(),
                "--admin-token".into(),
                ADMIN_TOKEN.into(),
            ];
            let router = Proc::spawn(bin, &router_args)?;
            (vec![s0, s1], Some(router))
        }
    };
    let front = router.as_ref().unwrap_or(&servers[0]).addr.clone();
    let mut client = Client::connect(&front).map_err(|e| format!("connecting to {front}: {e}"))?;
    let (status, body) = client
        .get("/v1/stats")
        .map_err(|e| format!("GET /v1/stats from {front}: {e}"))?;
    if status != 200 {
        return Err(format!(
            "GET /v1/stats from {front} answered {status}: {body}"
        ));
    }
    truth.check_stats(&body)?;
    let elapsed = started.elapsed();
    Ok((
        Deployment {
            servers,
            router,
            front,
            stats_body: body,
        },
        elapsed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_banners_and_proc_files() {
        assert_eq!(
            banner_addr("listening on http://127.0.0.1:4242 (2 worker(s), queue 64)").as_deref(),
            Some("127.0.0.1:4242")
        );
        assert_eq!(
            banner_addr("router listening on http://127.0.0.1:7 fronting 2 shard(s)").as_deref(),
            Some("127.0.0.1:7")
        );
        assert_eq!(banner_addr("shutdown complete"), None);
        assert!(peak_rss_kib("/proc/self/status").is_some_and(|k| k > 0));
        assert!(cpu_s("/proc/self/stat").is_some());
    }
}
