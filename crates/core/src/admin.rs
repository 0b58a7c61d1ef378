//! Admin endpoint: a tiny HTTP/1.0 responder exposing a running
//! [`SpotServer`]'s live state — no web framework, no dependencies,
//! same zero-dep discipline as the rest of the workspace.
//!
//! Four routes, all read-only:
//!
//! * `GET /metrics` — [`spot_trace::metrics::scrape`] (the registry's
//!   histograms and the typed counters' process totals) plus the
//!   server's session totals, in Prometheus text exposition format
//!   (scrape target); `/metrics.json` is the same snapshot as JSON.
//! * `GET /healthz` — `200 ok` normally, `503 overloaded` when the
//!   server is at its session cap or the worker pool is fully claimed
//!   ([`SpotServer::overloaded`]); a load balancer's readiness probe.
//! * `GET /sessions` — JSON: in-flight session ids with elapsed time,
//!   plus the monotonic served/rejected/failed totals.
//! * `GET /pipeline` — JSON: per-session stall summaries for the most
//!   recent sessions ([`SpotServer::pipeline_recent`]): every field of
//!   the session's [`crate::stream::StreamStats`] — worker busy/idle
//!   thread-seconds, of the idle the wait for rotation keys
//!   (`key_wait_s`), ingest backpressure — and the busy share
//!   `server_busy_share`.
//!
//! ## Robustness model
//!
//! The accept loop does nothing but accept: every connection is handed
//! to its own short-lived thread, so a client that connects and sends
//! garbage — or nothing at all — stalls only its own handler, never the
//! endpoint (enforced by a test in `serving_hostile.rs`). Handlers read
//! with a 2-second timeout, cap the request at 4 KiB, answer exactly
//! one request, and close (`Connection: close`; HTTP/1.0 semantics).

use crate::serving::{PipelineSummary, SpotServer};
use spot_trace::metrics::{self, MetricsSnapshot, ValueSnapshot};
use spot_trace::{log_debug, log_warn};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-request read timeout: a silent or slow-loris client holds only
/// its own handler thread for this long.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request line + headers accepted.
const MAX_REQUEST_BYTES: usize = 4096;

/// A running admin endpoint; [`AdminServer::bind`] starts it,
/// [`AdminHandle::shutdown`] stops it.
pub struct AdminServer;

/// Handle to a running admin endpoint.
pub struct AdminHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves admin requests for `server` until the handle is shut
    /// down. Enables the global metrics registry, and with it the typed
    /// counters' process totals: an admin endpoint without live numbers
    /// would be pointless.
    pub fn bind(addr: &str, server: Arc<SpotServer>) -> std::io::Result<AdminHandle> {
        metrics::enable();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("spot-admin".into())
            .spawn(move || accept_loop(listener, server, stop_flag))?;
        Ok(AdminHandle {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }
}

impl AdminHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. In-flight handler threads
    /// finish their single response on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn accept_loop(listener: TcpListener, server: Arc<SpotServer>, stop: Arc<AtomicBool>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                log_warn!("admin", "accept failed: {e}");
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // One thread per request: a wedged client wedges only itself.
        let server = Arc::clone(&server);
        let spawned = std::thread::Builder::new()
            .name("spot-admin-conn".into())
            .spawn(move || handle_connection(stream, peer, &server));
        if let Err(e) = spawned {
            log_warn!("admin", "spawn for {peer} failed: {e}");
        }
    }
}

fn handle_connection(mut stream: TcpStream, peer: SocketAddr, server: &SpotServer) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            log_debug!("admin", "read from {peer} failed: {e}");
            return;
        }
    };
    let (status, content_type, body) = match parse_path(&request) {
        Some(path) => respond(path, server),
        None => ("400 Bad Request", "text/plain", "bad request\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads until the end of the request head (`\r\n\r\n`), a bare
/// newline-terminated request line (curl/netcat-friendly), EOF, the
/// size cap, or the read timeout.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.contains(&b'\n') {
            break;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(buf)
}

/// Extracts the path from a `GET <path> HTTP/1.x` (or bare
/// `GET <path>`) request line; anything else is a bad request.
fn parse_path(request: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(request).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    match parts.next() {
        None => Some(path),
        Some(version) if version.starts_with("HTTP/") => Some(path),
        Some(_) => None,
    }
}

fn respond(path: &str, server: &SpotServer) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            metrics::encode_prometheus(&scrape(server)),
        ),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            metrics::encode_json(&scrape(server)),
        ),
        "/healthz" => {
            if server.overloaded() {
                (
                    "503 Service Unavailable",
                    "text/plain",
                    "overloaded\n".into(),
                )
            } else {
                ("200 OK", "text/plain", "ok\n".into())
            }
        }
        "/sessions" => ("200 OK", "application/json", sessions_json(server)),
        "/pipeline" => (
            "200 OK",
            "application/json",
            pipeline_json(&server.pipeline_recent()),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    }
}

/// [`metrics::scrape`] plus `spot_sessions_{active,served,rejected,failed}`
/// from the cells `/sessions` reads, so the two routes cannot disagree.
fn scrape(server: &SpotServer) -> MetricsSnapshot {
    let mut snap = metrics::scrape();
    let stats = server.stats();
    for (name, total) in [
        ("spot_sessions_served", stats.served),
        ("spot_sessions_rejected", stats.rejected),
        ("spot_sessions_failed", stats.failed),
    ] {
        snap.insert(name, &[], ValueSnapshot::Counter(total as u64));
    }
    let active = server.active_sessions() as u64;
    snap.insert("spot_sessions_active", &[], ValueSnapshot::Gauge(active));
    snap
}

fn sessions_json(server: &SpotServer) -> String {
    let stats = server.stats();
    let sessions = server
        .session_info()
        .into_iter()
        .map(|(id, elapsed)| format!("{{\"id\": {id}, \"elapsed_ms\": {}}}", elapsed.as_millis()))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"active\": {}, \"max_sessions\": {}, \"served\": {}, \"rejected\": {}, \"failed\": {}, \"sessions\": [{sessions}]}}\n",
        server.active_sessions(),
        server.config().max_sessions,
        stats.served,
        stats.rejected,
        stats.failed,
    )
}

fn pipeline_json(summaries: &[PipelineSummary]) -> String {
    let sessions = summaries
        .iter()
        .map(|p| {
            let s = &p.stream;
            let capacity = match s.channel_capacity {
                usize::MAX => "null".to_string(), // unbounded read-ahead
                bound => bound.to_string(),
            };
            format!(
                "{{\"id\": {}, \"wall_ms\": {:.3}, \"wall_s\": {:.6}, \"client_s\": {:.6}, \
                 \"client_blocked_s\": {:.6}, \"server_busy_s\": {:.6}, \"server_idle_s\": {:.6}, \
                 \"key_wait_s\": {:.6}, \"input_items\": {}, \"output_items\": {}, \
                 \"channel_capacity\": {capacity}, \"server_threads\": {}, \
                 \"server_busy_share\": {:.4}}}",
                p.id,
                p.wall_ms,
                s.wall_s,
                s.client_s,
                s.client_blocked_s,
                s.server_busy_s,
                s.server_idle_s,
                s.key_wait_s,
                s.input_items,
                s.output_items,
                s.server_threads,
                s.server_busy_share(),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"pipeline\": [{sessions}]}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamStats;
    use spot_trace::json::{parse, Value};

    #[test]
    fn pipeline_view_reports_every_stream_field() {
        let summary = |channel_capacity| PipelineSummary {
            id: 3,
            wall_ms: 12.5,
            stream: StreamStats {
                server_busy_s: 3.0,
                server_idle_s: 1.0,
                key_wait_s: 0.25,
                input_items: 4,
                channel_capacity,
                ..StreamStats::default()
            },
        };
        let doc = parse(&pipeline_json(&[summary(2), summary(usize::MAX)])).unwrap();
        let sessions = doc.get("pipeline").and_then(Value::as_array).unwrap();
        let num = |i: usize, key: &str| sessions[i].get(key).and_then(Value::as_f64);
        for key in [
            "wall_s",
            "client_s",
            "client_blocked_s",
            "output_items",
            "server_threads",
        ] {
            assert_eq!(num(0, key), Some(0.0), "{key}");
        }
        assert_eq!(num(0, "key_wait_s"), Some(0.25));
        assert_eq!(num(0, "server_idle_s"), Some(1.0));
        assert_eq!(num(0, "input_items"), Some(4.0));
        assert_eq!(num(0, "server_busy_share"), Some(0.75));
        assert_eq!(num(0, "channel_capacity"), Some(2.0));
        // An unbounded read-ahead has no number.
        assert_eq!(sessions[1].get("channel_capacity"), Some(&Value::Null));
    }

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_path(b"GET /metrics HTTP/1.1\r\n\r\n"),
            Some("/metrics")
        );
        assert_eq!(
            parse_path(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n"),
            Some("/healthz")
        );
        assert_eq!(parse_path(b"GET /sessions\n"), Some("/sessions"));
        assert_eq!(parse_path(b"POST /metrics HTTP/1.1\r\n\r\n"), None);
        assert_eq!(parse_path(b"GET /metrics JUNK\r\n\r\n"), None);
        assert_eq!(parse_path(b"\x00\xff garbage"), None);
        assert_eq!(parse_path(b""), None);
    }
}
