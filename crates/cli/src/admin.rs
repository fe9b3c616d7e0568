//! The serve daemon's admin endpoint: a minimal HTTP/1.0 server (no
//! third-party dependency) exposing `/metrics` (Prometheus text
//! exposition), `/healthz` (liveness), and `/readyz` (slot-clock
//! readiness) over `unix:PATH` or `tcp:HOST:PORT`.
//!
//! The endpoint is strictly read-only and lives entirely off the
//! deterministic serve path: the daemon loop (`cne_core::daemon`)
//! renders a metrics page after each slot and publishes it into
//! [`AdminState`]; the listener thread only ever reads that snapshot.
//! Telemetry traces are byte-identical with the admin endpoint on or
//! off.

use std::io::{BufRead as _, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Duration;

pub use cne_core::daemon::AdminState;

/// How long a connection may dawdle before the server gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Routes one request to `(status line, content type, body)`.
fn route(method: &str, path: &str, state: &AdminState) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_owned(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics_page(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        "/readyz" => {
            if state.is_degraded() {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "degraded: durability lost (WAL or checkpoint writes failing); \
                     serving continues but a crash would lose acknowledged input\n"
                        .to_owned(),
                )
            } else if state.is_ready() {
                ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    format!(
                        "stalled: no slot served for {:.1}s (deadline {:.1}s)\n",
                        state.stalled_for().as_secs_f64(),
                        state.ready_deadline.as_secs_f64()
                    ),
                )
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics, /healthz, /readyz)\n".to_owned(),
        ),
    }
}

/// Serves one connection: read the request line, drain the headers,
/// write a complete HTTP/1.0 response, close.
fn handle<S: Read + Write>(stream: S, state: &AdminState) {
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    if reader.read_line(&mut request).is_err() {
        return;
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let (status, content_type, body) = route(&method, &path, state);
    let mut stream = reader.into_inner();
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Binds the admin listener on `unix:PATH` or `tcp:HOST:PORT` and
/// spawns its accept loop. Returns the canonical bound address (with
/// the real port when `:0` was requested), so callers can print it and
/// tests can connect.
///
/// # Errors
/// Returns a message when the address is malformed or the bind fails.
pub fn spawn(addr: &str, state: Arc<AdminState>) -> Result<String, String> {
    if let Some(host) = addr.strip_prefix("tcp:") {
        let listener = std::net::TcpListener::bind(host)
            .map_err(|e| format!("cannot bind admin endpoint on tcp:{host}: {e}"))?;
        let bound = listener
            .local_addr()
            .map(|a| format!("tcp:{a}"))
            .unwrap_or_else(|_| format!("tcp:{host}"));
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                handle(stream, &state);
            }
        });
        return Ok(bound);
    }
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        let path = path.to_owned();
        // The daemon owns the path: a stale socket file from a previous
        // run would otherwise make the bind fail.
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("cannot bind admin endpoint on unix:{path}: {e}"))?;
        let bound = format!("unix:{path}");
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                handle(stream, &state);
            }
        });
        return Ok(bound);
    }
    Err(format!(
        "unknown admin address '{addr}' (expected 'unix:PATH' or 'tcp:HOST:PORT')"
    ))
}

/// A one-shot HTTP/1.0 GET against an admin endpoint (`unix:PATH` or
/// `tcp:HOST:PORT`). Returns `(status code, body)`. Shared by
/// `carbon-edge watch` and the endpoint's own tests.
///
/// # Errors
/// Returns a message on connect/transport failures or an unparsable
/// response.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    if let Some(host) = addr.strip_prefix("tcp:") {
        let stream = std::net::TcpStream::connect(host)
            .map_err(|e| format!("cannot connect to tcp:{host}: {e}"))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        return fetch(stream, path);
    }
    #[cfg(unix)]
    if let Some(sock) = addr.strip_prefix("unix:") {
        let stream = std::os::unix::net::UnixStream::connect(sock)
            .map_err(|e| format!("cannot connect to unix:{sock}: {e}"))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        return fetch(stream, path);
    }
    Err(format!(
        "unknown admin address '{addr}' (expected 'unix:PATH' or 'tcp:HOST:PORT')"
    ))
}

/// Writes the request and parses the status line + body off `stream`.
fn fetch<S: Read + Write>(mut stream: S, path: &str) -> Result<(u16, String), String> {
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").map_err(|e| format!("request failed: {e}"))?;
    stream.flush().map_err(|e| format!("request failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("response failed: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {response:.60?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .ok_or_else(|| "malformed response: no header terminator".to_owned())?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_deadline(ms: u64) -> Arc<AdminState> {
        AdminState::new(Duration::from_millis(ms))
    }

    #[test]
    fn endpoints_serve_the_published_page() {
        let state = state_with_deadline(60_000);
        state.publish("# TYPE up gauge\nup 1\n".to_owned());
        let addr = spawn("tcp:127.0.0.1:0", state.clone()).expect("bind");

        let (code, body) = http_get(&addr, "/metrics").expect("GET /metrics");
        assert_eq!(code, 200);
        assert_eq!(body, "# TYPE up gauge\nup 1\n");

        let (code, body) = http_get(&addr, "/healthz").expect("GET /healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, _) = http_get(&addr, "/nope").expect("GET /nope");
        assert_eq!(code, 404);

        // The published page is hot-swappable mid-run.
        state.publish("up 0\n".to_owned());
        let (_, body) = http_get(&addr, "/metrics").expect("GET again");
        assert_eq!(body, "up 0\n");
    }

    #[test]
    fn readiness_follows_the_slot_clock() {
        let state = state_with_deadline(80);
        let addr = spawn("tcp:127.0.0.1:0", state.clone()).expect("bind");

        let (code, _) = http_get(&addr, "/readyz").expect("fresh clock");
        assert_eq!(code, 200, "just-started daemon is within its deadline");

        std::thread::sleep(Duration::from_millis(200));
        let (code, body) = http_get(&addr, "/readyz").expect("stalled clock");
        assert_eq!(code, 503, "stalled past the deadline");
        assert!(body.contains("stalled"), "body explains: {body}");

        state.publish(String::new());
        let (code, _) = http_get(&addr, "/readyz").expect("published slot");
        assert_eq!(code, 200, "progress restores readiness");

        state.mark_done();
        std::thread::sleep(Duration::from_millis(200));
        let (code, _) = http_get(&addr, "/readyz").expect("done daemon");
        assert_eq!(code, 200, "a completed run is never stalled");
    }

    #[test]
    fn degraded_durability_flips_readiness() {
        let state = state_with_deadline(60_000);
        let addr = spawn("tcp:127.0.0.1:0", state.clone()).expect("bind");

        let (code, _) = http_get(&addr, "/readyz").expect("healthy");
        assert_eq!(code, 200);

        state.set_degraded(true);
        let (code, body) = http_get(&addr, "/readyz").expect("degraded");
        assert_eq!(code, 503, "degraded durability is not ready");
        assert!(body.contains("degraded"), "body explains: {body}");
        // Liveness is unaffected: the daemon is up, just lossy.
        let (code, _) = http_get(&addr, "/healthz").expect("alive");
        assert_eq!(code, 200);

        state.set_degraded(false);
        let (code, _) = http_get(&addr, "/readyz").expect("restored");
        assert_eq!(code, 200, "a successful checkpoint restores readiness");
    }

    #[cfg(unix)]
    #[test]
    fn unix_transport_round_trips() {
        let sock = std::env::temp_dir().join("cne-admin-test.sock");
        let addr = format!("unix:{}", sock.to_string_lossy());
        let state = state_with_deadline(60_000);
        state.publish("ok 1\n".to_owned());
        let bound = spawn(&addr, state).expect("bind unix");
        assert_eq!(bound, addr);
        let (code, body) = http_get(&addr, "/metrics").expect("GET over unix");
        assert_eq!((code, body.as_str()), (200, "ok 1\n"));
    }

    #[test]
    fn bad_addresses_are_rejected() {
        assert!(spawn("ftp:nope", state_with_deadline(1)).is_err());
        assert!(http_get("ftp:nope", "/metrics").is_err());
    }
}
