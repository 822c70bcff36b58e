//! `bikron profile URL`: fetch a sampled CPU profile from a running
//! `bikron serve` (or `bikron router`) via `GET /v1/admin/profile` and
//! render the hottest frames as a top-table — self and cumulative
//! sample shares per phase path, sorted by self time. The admin
//! endpoint is token-gated, so `--token` is required in practice.
//!
//! With `--seconds N` the server samples a fresh N-second window before
//! answering; the default (0) returns the cumulative profile since the
//! sampler started. Everything except the socket I/O is pure
//! (`parse_profile`, `render_top`), so decoding and layout are
//! unit-testable without a server. JSON decoding uses the workspace's
//! shared reader ([`bikron_obs::parse_json`]).

use std::collections::BTreeMap;

use bikron_obs::parse_json;
use bikron_obs::profile::{frame_totals, PROFILE_SCHEMA};

use crate::monitor::{admin_get, AdminArgs, FETCH_TIMEOUT};

/// Default number of frames rendered.
pub const DEFAULT_TOP: usize = 20;

/// Parsed `bikron profile` invocation.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Server host.
    pub host: String,
    /// TCP port.
    pub port: u16,
    /// Sampling window the server should collect (0 = cumulative).
    pub seconds: u64,
    /// How many frames to render (hottest first).
    pub top: usize,
    /// Admin token for the gated endpoint.
    pub token: Option<String>,
}

impl ProfileConfig {
    /// Parse `URL [--seconds N] [--top K] [--token TOKEN]`.
    pub fn parse(args: &[String]) -> Result<ProfileConfig, String> {
        let a = AdminArgs::parse("profile", "--seconds", DEFAULT_TOP, args)?;
        Ok(ProfileConfig {
            host: a.host,
            port: a.port,
            seconds: a.value,
            top: a.top,
            token: a.token,
        })
    }
}

/// The decoded `/v1/admin/profile` payload.
#[derive(Debug, Clone)]
pub struct ProfileDump {
    /// Sampler rate in Hz.
    pub hz: u64,
    /// The window the server sampled (0 = cumulative since start).
    pub seconds: u64,
    /// Stack samples in the window.
    pub samples: u64,
    /// Samples lost to stack-table capacity.
    pub dropped: u64,
    /// Sweeps where no phase was open on any thread.
    pub idle: u64,
    /// Collapsed stack (`a;b;c`) → sample count.
    pub stacks: BTreeMap<String, u64>,
}

/// Decode the `bikron-profile/1` JSON payload.
pub fn parse_profile(body: &str) -> Result<ProfileDump, String> {
    let root = parse_json(body).map_err(|e| e.to_string())?;
    match root.str_of("schema") {
        Some(s) if s == PROFILE_SCHEMA => {}
        other => return Err(format!("unexpected profile schema {other:?}")),
    }
    let field = |key: &str| {
        root.num_of(key)
            .ok_or_else(|| format!("profile payload is missing integer field {key:?}"))
    };
    let mut stacks = BTreeMap::new();
    if let Some(obj) = root.get("stacks").and_then(|v| v.as_object()) {
        for (stack, count) in obj {
            match count {
                bikron_obs::JsonValue::Num(n) => {
                    stacks.insert(stack.clone(), *n);
                }
                _ => return Err(format!("stack {stack:?} has a non-integer count")),
            }
        }
    }
    Ok(ProfileDump {
        hz: field("hz")?,
        seconds: field("seconds")?,
        samples: field("samples")?,
        dropped: field("dropped_samples")?,
        idle: field("idle_samples")?,
        stacks,
    })
}

/// Integer-tenths percentage of `part` in `whole` (`"12.5"` for 1/8).
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "0.0".to_string();
    }
    let tenths = part * 1000 / whole;
    format!("{}.{}", tenths / 10, tenths % 10)
}

/// Render the top-table: hottest frames by self samples, one row per
/// phase path, `SELF%`/`TOTAL%` relative to all stack samples. Pure —
/// no I/O. Columns are whitespace-separated with the path last, so
/// `awk '{print $1, $4}'` works.
pub fn render_top(dump: &ProfileDump, top: usize) -> String {
    let mut out = String::new();
    let window = if dump.seconds == 0 {
        "cumulative".to_string()
    } else {
        format!("{}s window", dump.seconds)
    };
    out.push_str(&format!(
        "profile @ {} Hz ({window}): {} samples across {} stacks, {} dropped, {} idle\n",
        dump.hz,
        dump.samples,
        dump.stacks.len(),
        dump.dropped,
        dump.idle,
    ));
    if dump.dropped > 0 {
        out.push_str("!! LOSSY PROFILE — the stack table overflowed; shares are undercounts\n");
    }
    if dump.samples == 0 {
        out.push_str("no samples (yet) — is the server idle? try --seconds 3 under load\n");
        return out;
    }
    let frames = frame_totals(&dump.stacks);
    let mut rows: Vec<(&String, u64, u64)> = frames
        .iter()
        .map(|(path, stat)| (path, stat.self_samples, stat.total))
        .collect();
    // Hottest self time first; total then path break ties stably.
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(b.0)));
    out.push_str(&format!(
        "\n{:>6} {:>6} {:>8}  {}\n",
        "SELF%", "TOTAL%", "SAMPLES", "STACK"
    ));
    for (path, self_samples, total) in rows.iter().take(top) {
        out.push_str(&format!(
            "{:>6} {:>6} {:>8}  {}\n",
            pct(*self_samples, dump.samples),
            pct(*total, dump.samples),
            self_samples,
            path,
        ));
    }
    if rows.len() > top {
        out.push_str(&format!(
            "({} more frame(s); raise --top to see them)\n",
            rows.len() - top
        ));
    }
    out
}

/// Fetch, decode and render. Returns `Ok(false)` when the server refused
/// the admin endpoint (bad/missing token) or has no sampler running.
pub fn run(
    config: &ProfileConfig,
    out: &mut impl std::io::Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    let path = format!("/v1/admin/profile?seconds={}", config.seconds);
    let token = config.token.as_deref();
    let (host, port) = (&config.host, config.port);
    // The server samples for the whole window before it answers.
    let wait = FETCH_TIMEOUT + std::time::Duration::from_secs(config.seconds);
    let Some((status, body)) = admin_get("profile", host, port, &path, token, wait, out)? else {
        return Ok(false);
    };
    if status == 409 {
        writeln!(
            out,
            "profile: profiling is disabled on this server — restart it with --profile-hz N"
        )?;
        return Ok(false);
    }
    if status != 200 {
        return Err(format!("GET /v1/admin/profile returned {status}: {body}").into());
    }
    let dump = parse_profile(&body).map_err(|e| format!("parse /v1/admin/profile: {e}"))?;
    write!(out, "{}", render_top(&dump, config.top))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let cfg = ProfileConfig::parse(&[
            "http://h:7475".into(),
            "--seconds".into(),
            "3".into(),
            "--top".into(),
            "2".into(),
            "--token".into(),
            "ci".into(),
        ])
        .unwrap();
        assert_eq!((cfg.host.as_str(), cfg.port), ("h", 7475));
        assert_eq!(cfg.seconds, 3);
        assert_eq!(cfg.top, 2);
        assert_eq!(cfg.token.as_deref(), Some("ci"));
        // Defaults: cumulative window, DEFAULT_TOP frames.
        let cfg = ProfileConfig::parse(&["h:1".into()]).unwrap();
        assert_eq!(cfg.seconds, 0);
        assert_eq!(cfg.top, DEFAULT_TOP);
        assert!(ProfileConfig::parse(&[]).is_err());
        assert!(ProfileConfig::parse(&["h:1".into(), "--frob".into()]).is_err());
        assert!(ProfileConfig::parse(&["h:1".into(), "--seconds".into(), "x".into()]).is_err());
    }

    fn sample_payload() -> &'static str {
        r#"{
  "schema": "bikron-profile/1",
  "hz": 99,
  "seconds": 3,
  "samples": 200,
  "dropped_samples": 0,
  "idle_samples": 40,
  "stacks": {
    "serve;accept": 40,
    "serve;evaluate": 100,
    "serve;evaluate;cache_lookup": 20,
    "serve;evaluate;serialize": 30,
    "serve;write": 10
  }
}
"#
    }

    #[test]
    fn payload_decodes_and_renders_a_top_table() {
        let dump = parse_profile(sample_payload()).unwrap();
        assert_eq!((dump.hz, dump.seconds), (99, 3));
        assert_eq!(dump.samples, 200);
        assert_eq!(dump.stacks.len(), 5);

        let text = render_top(&dump, 10);
        assert!(text.contains("profile @ 99 Hz (3s window)"), "{text}");
        assert!(text.contains("200 samples across 5 stacks"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let header = lines
            .iter()
            .position(|l| l.contains("SELF%") && l.contains("STACK"))
            .expect("header row");
        // Hottest self frame first: evaluate has 100 self samples (its
        // children's 50 count toward its total only).
        let first = lines[header + 1];
        assert!(first.ends_with("serve;evaluate"), "{text}");
        let cols: Vec<&str> = first.split_whitespace().collect();
        assert_eq!(cols[0], "50.0", "{text}"); // 100/200 self
        assert_eq!(cols[1], "75.0", "{text}"); // 150/200 cumulative
        assert_eq!(cols[2], "100", "{text}");
        // The root frame has zero self time but 100% total.
        let root = lines
            .iter()
            .find(|l| l.split_whitespace().last() == Some("serve"))
            .expect("root row");
        let cols: Vec<&str> = root.split_whitespace().collect();
        assert_eq!((cols[0], cols[1]), ("0.0", "100.0"), "{text}");
        assert!(!text.contains("LOSSY"), "{text}");
    }

    #[test]
    fn drops_and_emptiness_are_called_out() {
        let mut dump = parse_profile(sample_payload()).unwrap();
        dump.dropped = 9;
        let text = render_top(&dump, 10);
        assert!(text.contains("LOSSY PROFILE"), "{text}");
        assert!(text.contains("9 dropped"), "{text}");

        let empty = ProfileDump {
            hz: 99,
            seconds: 0,
            samples: 0,
            dropped: 0,
            idle: 5,
            stacks: BTreeMap::new(),
        };
        let text = render_top(&empty, 10);
        assert!(text.contains("cumulative"), "{text}");
        assert!(text.contains("no samples (yet)"), "{text}");
    }

    #[test]
    fn top_limits_rendered_frames() {
        let dump = parse_profile(sample_payload()).unwrap();
        // 5 stacks expand to 6 frames (the shared "serve" root).
        let text = render_top(&dump, 2);
        assert!(text.contains("4 more frame(s)"), "{text}");
    }

    #[test]
    fn schema_and_type_errors_are_rejected() {
        assert!(parse_profile(r#"{"schema": "bikron-else/9"}"#).is_err());
        let bad = r#"{"schema": "bikron-profile/1", "hz": 99, "seconds": 0, "samples": 1,
                      "dropped_samples": 0, "idle_samples": 0, "stacks": {"a": "lots"}}"#;
        let err = parse_profile(bad).unwrap_err();
        assert!(err.contains("non-integer count"), "{err}");
        let missing = r#"{"schema": "bikron-profile/1", "hz": 99}"#;
        assert!(parse_profile(missing).unwrap_err().contains("seconds"));
    }
}
