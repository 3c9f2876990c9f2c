//! A deliberately small blocking HTTP/1.1 front over the engine —
//! `std::net` only, one thread per connection, `Connection: close`.
//! It exists to put the batch engine on a socket, not to be a web
//! server: no TLS, no keep-alive, no chunked bodies.
//!
//! Routes:
//!
//! | method | path          | body                                   |
//! |--------|---------------|----------------------------------------|
//! | GET    | `/v1/health`  | `{"ok":true}`                          |
//! | GET    | `/v1/stats`   | engine counter snapshot                |
//! | POST   | `/v1/compile` | batch request → per-job results        |
//!
//! Error statuses: 400 (malformed head or body, including an invalid or
//! conflicting `Content-Length`), 404, 405, 411 (no `Content-Length`),
//! 413 (body over [`Engine::max_body_bytes`]), 429 (queue full), 500
//! (the handler panicked), 503 (draining for shutdown). A job's compile
//! error or deadline overrun is reported inside its own result of a 200
//! response.
//!
//! Each connection thread is an unwind barrier: a panic while handling
//! a request (fault-injected via the `serve.http` point, or real) is
//! answered with a 500 instead of silently dropping the socket, and
//! never takes the server down. [`ServerHandle::drain`] supports
//! graceful shutdown: stop accepting first, then wait out in-flight
//! connections up to a deadline.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::{api, ServeError};

/// Total header-block size cap, bytes. Enforced with `Read::take`, so
/// a client sending one endless header line cannot buffer more than
/// this before being rejected.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Per-socket read/write timeout. Connections that stall mid-request
/// (or never send one) error out instead of pinning their thread
/// forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server: the bound address plus the accept-loop handle.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    active: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being handled.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Stops the accept loop and joins it. In-flight connection
    /// threads finish on their own.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Graceful shutdown: stops accepting new connections *first*,
    /// then waits until every in-flight connection finishes or
    /// `deadline` elapses. Returns `true` when the server drained
    /// fully (no connections were abandoned).
    pub fn drain(mut self, deadline: Duration) -> bool {
        self.shutdown();
        let until = Instant::now() + deadline;
        loop {
            if self.active.load(Ordering::Acquire) == 0 {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `engine` until the
/// handle is stopped or dropped.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(engine: Arc<Engine>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let accept_stop = stop.clone();
    let accept_active = active.clone();
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let engine = engine.clone();
            // Counted before the spawn so a drain that starts right
            // after accept still sees this connection as in flight.
            let guard = ConnGuard::enter(accept_active.clone());
            std::thread::spawn(move || {
                let _guard = guard;
                dispatch(&engine, stream);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        active,
    })
}

/// Holds one slot in the active-connection count; releases on drop —
/// including when the connection thread unwinds.
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl ConnGuard {
    fn enter(active: Arc<AtomicUsize>) -> ConnGuard {
        active.fetch_add(1, Ordering::AcqRel);
        ConnGuard { active }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The per-connection unwind barrier: a panic inside
/// [`handle_connection`] becomes a best-effort 500 on a clone of the
/// stream instead of a silently dropped socket.
fn dispatch(engine: &Engine, stream: TcpStream) {
    let fallback = stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = handle_connection(engine, stream);
    }));
    if outcome.is_err() {
        if let Some(stream) = fallback {
            let _ = respond(
                stream,
                500,
                "{\"error\":{\"kind\":\"internal\",\"message\":\"request handler panicked\"}}",
            );
        }
    }
}

/// One parsed request head.
struct RequestHead {
    method: String,
    path: String,
    content_length: Option<usize>,
}

/// The 400 body for a head that cannot be parsed.
const MALFORMED_HEAD: &str =
    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"malformed request head\"}}";

/// The 400 body for a `Content-Length` that is not a decimal number,
/// or two that disagree: the body's framing is unknown (RFC 9112 §6.3).
const BAD_CONTENT_LENGTH: &str =
    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"invalid Content-Length\"}}";

/// Reads the request line + headers; on a malformed or oversized head,
/// or an invalid `Content-Length`, returns the body of the 400 that
/// answers it.
///
/// The reader's `take` limit bounds how much a hostile client can make
/// us buffer: once the limit is exhausted, lines come back without a
/// trailing newline and the head is rejected — including a single
/// endless line that never contains `\n` at all.
fn read_head(reader: &mut Take<BufReader<TcpStream>>) -> Result<RequestHead, &'static str> {
    let line = read_head_line(reader).ok_or(MALFORMED_HEAD)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(MALFORMED_HEAD)?.to_string();
    let path = parts.next().ok_or(MALFORMED_HEAD)?.to_string();
    let mut content_length = None;
    let mut bad_length = false;
    loop {
        let header = read_head_line(reader).ok_or(MALFORMED_HEAD)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match parse_content_length(value) {
                    Some(len) if content_length.is_none_or(|seen| seen == len) => {
                        content_length = Some(len);
                    }
                    _ => bad_length = true,
                }
            }
        }
    }
    // Rejected only once the blank line is read, so the 400 goes out
    // after the whole head, as every other answer does.
    if bad_length {
        return Err(BAD_CONTENT_LENGTH);
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
    })
}

/// A `Content-Length` value: one or more ASCII digits (`str::parse`
/// alone would also take `+5`). A value too large for `usize`
/// saturates, so it is answered 413 like any other oversized body.
fn parse_content_length(value: &str) -> Option<usize> {
    let digits = value.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(digits.parse().unwrap_or(usize::MAX))
}

/// Reads one `\n`-terminated head line within the reader's byte
/// budget; `None` on I/O error (including timeout) or when the budget
/// ran out before a newline arrived.
fn read_head_line(reader: &mut Take<BufReader<TcpStream>>) -> Option<String> {
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    if !line.ends_with('\n') {
        return None;
    }
    Some(line)
}

fn handle_connection(engine: &Engine, stream: TcpStream) -> std::io::Result<()> {
    // The HTTP seam: `RAA_FAULT_SPEC` can stall a connection (delay)
    // or kill its handler (panic/error → caught by `dispatch` → 500).
    match raa_fault::evaluate("serve.http") {
        raa_fault::Action::None | raa_fault::Action::Deadline => {}
        raa_fault::Action::Delay(d) => std::thread::sleep(d),
        raa_fault::Action::Error | raa_fault::Action::Panic => {
            panic!("injected fault at serve.http")
        }
    }
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut head_reader = BufReader::new(stream).take(MAX_HEADER_BYTES as u64);
    let head = read_head(&mut head_reader);
    let mut reader = head_reader.into_inner();
    let head = match head {
        Ok(head) => head,
        Err(body) => return respond(reader.into_inner(), 400, body),
    };

    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/v1/health") => respond(reader.into_inner(), 200, "{\"ok\":true}"),
        ("GET", "/v1/stats") => {
            let body = api::render_stats(&engine.stats());
            respond(reader.into_inner(), 200, &body)
        }
        ("POST", "/v1/compile") => {
            let Some(len) = head.content_length else {
                return respond(
                    reader.into_inner(),
                    411,
                    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"Content-Length required\"}}",
                );
            };
            if len > engine.max_body_bytes() {
                return respond(
                    reader.into_inner(),
                    413,
                    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"request body too large\"}}",
                );
            }
            let mut body = vec![0u8; len];
            if reader.read_exact(&mut body).is_err() {
                return respond(
                    reader.into_inner(),
                    400,
                    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"truncated body\"}}",
                );
            }
            let Ok(body) = String::from_utf8(body) else {
                return respond(
                    reader.into_inner(),
                    400,
                    "{\"error\":{\"kind\":\"bad_request\",\"message\":\"body is not UTF-8\"}}",
                );
            };
            match api::run(engine, &body) {
                Ok(rendered) => respond(reader.into_inner(), 200, &rendered),
                Err(e) => respond(reader.into_inner(), status_of(&e), &api::render_error(&e)),
            }
        }
        // Known path, wrong method → 405; unknown path → 404.
        (_, "/v1/health" | "/v1/stats" | "/v1/compile") => respond(
            reader.into_inner(),
            405,
            "{\"error\":{\"kind\":\"bad_request\",\"message\":\"method not allowed\"}}",
        ),
        _ => respond(
            reader.into_inner(),
            404,
            "{\"error\":{\"kind\":\"bad_request\",\"message\":\"no such endpoint\"}}",
        ),
    }
}

/// The HTTP status for a batch-level failure of [`api::run`]. Compile
/// errors and deadline overruns are per job and never fail a batch;
/// should one arrive here, it is a 500.
fn status_of(e: &ServeError) -> u16 {
    match e {
        ServeError::QueueFull { .. } => 429,
        ServeError::BadRequest { .. } | ServeError::Qasm(_) | ServeError::Circuit(_) => 400,
        ServeError::Decode(_) => 400,
        ServeError::Compile { .. } | ServeError::DeadlineExceeded { .. } => 500,
        ServeError::Draining => 503,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond(mut stream: TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;

    /// A minimal blocking HTTP client for tests and the CLI.
    pub(crate) fn roundtrip(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> (u16, String) {
        crate::request(addr, method, path, body).expect("http roundtrip failed")
    }

    #[test]
    fn health_stats_and_error_statuses() {
        let engine = Arc::new(Engine::new(ServeConfig::default()));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        assert_eq!(
            roundtrip(addr, "GET", "/v1/health", None),
            (200, "{\"ok\":true}".into())
        );
        let (status, stats) = roundtrip(addr, "GET", "/v1/stats", None);
        assert_eq!(status, 200);
        assert!(stats.contains("\"compiles\":0"), "{stats}");

        // Unknown paths are 404 whatever the method; known paths with
        // the wrong method are 405.
        let (status, _) = roundtrip(addr, "GET", "/v1/nope", None);
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, "DELETE", "/v1/nope", None);
        assert_eq!(status, 404);
        for (method, path) in [
            ("DELETE", "/v1/compile"),
            ("GET", "/v1/compile"),
            ("POST", "/v1/health"),
            ("POST", "/v1/stats"),
        ] {
            let (status, _) = roundtrip(addr, method, path, None);
            assert_eq!(status, 405, "{method} {path}");
        }
        let (status, body) = roundtrip(addr, "POST", "/v1/compile", Some("{not json"));
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\":\"decode\""), "{body}");

        server.stop();
    }

    #[test]
    fn endless_header_lines_are_bounded_and_rejected() {
        let engine = Arc::new(Engine::new(ServeConfig::default()));
        let server = serve(engine, "127.0.0.1:0").unwrap();

        // One request line with no newline, exactly the header budget:
        // the server must reject with 400 after buffering at most
        // MAX_HEADER_BYTES, not wait for (or buffer) an endless line.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&vec![b'x'; MAX_HEADER_BYTES]).unwrap();
        stream.flush().unwrap();
        let mut status_line = String::new();
        BufReader::new(stream).read_line(&mut status_line).unwrap();
        assert!(status_line.contains("400"), "{status_line:?}");

        server.stop();
    }

    /// Sends `request` verbatim and returns the status code and the
    /// response body. The body is read by its `Content-Length`, not to
    /// EOF: the server closes without reading what it rejected, which
    /// may reset the connection after the response.
    fn raw_roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut len = 0;
        while !line.trim_end().is_empty() {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(value) = line.strip_prefix("Content-Length:") {
                len = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; len];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn content_length_is_required_and_must_be_one_decimal_number() {
        let engine = Arc::new(Engine::new(ServeConfig {
            max_body_bytes: 64,
            ..ServeConfig::default()
        }));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let body = r#"{"jobs":[]}"#;
        let post = |headers: &str| {
            raw_roundtrip(
                server.addr(),
                &format!("POST /v1/compile HTTP/1.1\r\n{headers}\r\n{body}"),
            )
        };

        let (status, response) = post("");
        assert_eq!(status, 411, "{response}");
        assert!(response.contains("Content-Length required"), "{response}");

        let valid = format!("Content-Length: {}\r\n", body.len());
        assert_eq!(post(&valid).0, 200);
        // Agreeing duplicates frame the body the same way.
        assert_eq!(post(&valid.repeat(2)).0, 200);

        for bad in ["abc", "+11", "-11", "11 11", "0x0b", "11,11", ""] {
            let (status, response) = post(&format!("Content-Length: {bad}\r\n"));
            assert_eq!(status, 400, "{bad:?}: {response}");
            assert!(response.contains("invalid Content-Length"), "{response}");
        }
        for (first, second) in [(11, 12), (12, 11)] {
            let (status, response) = post(&format!(
                "Content-Length: {first}\r\nContent-Length: {second}\r\n"
            ));
            assert_eq!(status, 400, "{first} then {second}: {response}");
            assert!(response.contains("invalid Content-Length"), "{response}");
        }
        // The header is checked on every route, not only where a body
        // is read.
        let (status, _) = raw_roundtrip(
            server.addr(),
            "GET /v1/health HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        );
        assert_eq!(status, 400);
        // All digits but past usize::MAX: a body over the limit.
        let (status, _) = post("Content-Length: 99999999999999999999999\r\n");
        assert_eq!(status, 413);
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let engine = Arc::new(Engine::new(ServeConfig {
            max_body_bytes: 64,
            ..ServeConfig::default()
        }));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let big = "x".repeat(65);
        let (status, _) = roundtrip(server.addr(), "POST", "/v1/compile", Some(&big));
        assert_eq!(status, 413);
    }
}
