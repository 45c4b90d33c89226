//! Minimal HTTP/1.1 front-end over [`Service`], built only on
//! `std::net::TcpListener` — no async runtime, no external HTTP crate.
//!
//! [`HttpServer::bind`] starts a fixed pool of workers, one per core with a
//! floor of 2. Each worker blocks in `accept` on its own clone of the
//! listener and serves the connection it gets inline, so serving a request
//! starts no thread, and the per-thread scoring scratch stays warm across
//! connections. While every worker is busy, new connections wait in the
//! listen backlog. `Connection: close` semantics (each request gets its own
//! connection), query-string parameters. The surface:
//!
//! | Route                           | Meaning                                |
//! |---------------------------------|----------------------------------------|
//! | `GET /health`                   | liveness probe                         |
//! | `GET /recommend?user=U&k=K`     | top-K for user `U` (`k` defaults to 10)|
//! | `POST /ingest?user=U&item=I`    | record a live interaction              |
//! | `GET /stats`                    | serving counters + histogram snapshot  |
//! | `GET /audit`                    | shadow-oracle audit + drift snapshot   |
//! | `GET /metrics`                  | Prometheus text exposition (live)      |
//! | `GET /traces`                   | flight-recorder dump as JSON           |
//! | `GET /profile`                  | folded stacks (flamegraph.pl input)    |
//!
//! Degradation maps onto status codes: admission shedding is `503` with a
//! JSON error body, unknown ids are `404`, malformed parameters are `400`.
//! A client cannot pin a worker: every connection must deliver its request
//! within [`HttpServer::REQUEST_DEADLINE`] of being accepted, or it gets a
//! `408` and is counted in `serve.http.timeouts`. A panicking handler drops
//! its one connection (the client sees EOF); the worker serves on.
//!
//! Every connection mints a request trace (`http.request` root) at accept,
//! subject to the flight recorder's sampling; the parse, admission, engine,
//! and response-write stages all record spans into its tree, and the
//! trace finishes with the request's outcome (`Ok`/`Shed`/`Error`, with
//! slow-but-Ok requests promoted to `Slow` past the configured threshold)
//! before the socket closes.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inbox_kg::{ItemId, UserId};

use crate::engine::Recommendation;
use crate::error::ServeError;
use crate::Service;

/// Counter of connections answered `408` because their request did not
/// arrive within [`HttpServer::REQUEST_DEADLINE`].
const TIMEOUTS: &str = "serve.http.timeouts";

/// A running HTTP server wrapping a [`Service`].
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl HttpServer {
    /// Whole-request budget of one connection, from accept to the last
    /// byte of its request. Each read waits only for what is left of it,
    /// and each write for at most this long.
    pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// worker pool: one worker per available core, at least 2.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let pool_size = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let listeners = (0..pool_size)
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        // Registered up front so `/metrics` exports it before the first one.
        inbox_obs::counter(TIMEOUTS);
        let server = Self {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Mutex::new(Vec::with_capacity(pool_size)),
        };
        for listener in listeners {
            let (service, stop) = (Arc::clone(&service), Arc::clone(&server.stop));
            // On failure, dropping `server` stops the workers already started.
            let worker = std::thread::Builder::new()
                .name("inbox-serve-http".into())
                .spawn(move || worker(&listener, &service, &stop))?;
            server.lock_workers().push(worker);
        }
        Ok(server)
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of workers serving connections: fixed by [`HttpServer::bind`],
    /// 0 after [`HttpServer::shutdown`].
    pub fn workers(&self) -> usize {
        self.lock_workers().len()
    }

    /// Stops accepting connections and joins every worker. Idempotent; a
    /// worker that is serving a connection finishes its one response first.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let workers = std::mem::take(&mut *self.lock_workers());
        // Every worker blocks in `accept`; poke each one with a throwaway
        // connection so it observes the stop flag.
        for _ in &workers {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// The worker handles. Each change to them is one step, so a poisoned
    /// lock still guards a valid list (and `Drop` must not panic).
    fn lock_workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(listener: &TcpListener, service: &Service, stop: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        // A panicking handler unwinds to here, dropping (closing) its
        // connection; the worker goes back to `accept`.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(stream, service);
        }));
    }
}

/// A parsed request line: method, path, and query parameters.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Longest accepted request or header line, in bytes. Longer lines are a
/// client error, not a reason to buffer without bound.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted before the request is rejected.
const MAX_HEADER_LINES: usize = 128;
/// Hard ceiling on bytes read from one connection (head + drained body).
const MAX_REQUEST_BYTES: u64 = 256 * 1024;

/// The socket as one request reads it: each read waits at most for what
/// is left before `deadline`, and fails with `TimedOut` once it has passed.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Whether a read failed because the connection's deadline passed. An
/// expired socket timeout surfaces as `WouldBlock` on Unix.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads and parses one request head, all of it before `deadline`.
/// `Ok(None)` means the bytes on the wire are not an acceptable request
/// (no target, oversized line, header flood) and the caller should answer
/// `400`; `Err` is a socket failure: the deadline passing (see
/// [`timed_out`]) or another, such as non-UTF-8 bytes surfacing from
/// `read_line`.
fn parse_request(stream: &TcpStream, deadline: Instant) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(DeadlineReader { stream, deadline }.take(MAX_REQUEST_BYTES));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.len() > MAX_LINE_BYTES {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
    };
    // Drain the headers so the peer can read our response cleanly.
    let mut content_length = 0usize;
    let mut header_lines = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES || header.len() > MAX_LINE_BYTES {
            return Ok(None);
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    // Drain any body too (we only use query parameters); cap the read so a
    // hostile Content-Length cannot pin the worker. A body cut short by the
    // peer is tolerated; one that outlasts the deadline is not.
    let mut body = vec![0u8; content_length.min(64 * 1024)];
    if !body.is_empty() {
        if let Err(e) = reader.read_exact(&mut body) {
            if timed_out(&e) {
                return Err(e);
            }
        }
    }
    Ok(Some(request))
}

/// Content type of every JSON route.
const JSON: &str = "application/json";
/// Content type of the Prometheus text exposition (`GET /metrics`).
const PROMETHEUS: &str = "text/plain; version=0.0.4";

fn write_response_with_type(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// [`write_response_with_type`] under an `http.write` span when the
/// request is traced.
fn write_traced(
    stream: &mut TcpStream,
    trace: Option<&inbox_obs::ActiveTrace>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let _write_span = trace.map(|t| t.span("http.write", Some(0)));
    write_response_with_type(stream, status, reason, content_type, body);
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Escapes a string for a JSON value (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn recommendation_body(r: &Recommendation) -> String {
    let mut out = String::with_capacity(64 + 40 * r.items.len());
    let _ = write!(
        out,
        "{{\"user\":{},\"version\":{},\"fallback\":{},\"items\":[",
        r.user.0, r.version, r.fallback
    );
    for (i, (item, score)) in r.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"item\":{},\"score\":{score}}}", item.0);
    }
    out.push_str("]}");
    out
}

fn serve_error(stream: &mut TcpStream, trace: Option<&inbox_obs::ActiveTrace>, err: &ServeError) {
    let (status, reason) = match err {
        ServeError::Overloaded | ServeError::Closed => (503, "Service Unavailable"),
        ServeError::UnknownUser(_) | ServeError::UnknownItem(_) => (404, "Not Found"),
    };
    write_traced(
        stream,
        trace,
        status,
        reason,
        JSON,
        &error_body(&err.to_string()),
    );
}

/// JSON rendering of a value histogram's snapshot, `null` when the
/// instrument has never recorded.
fn value_stat(name: &str) -> String {
    match inbox_obs::value_snapshot(name) {
        Some(s) => format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            s.count, s.mean, s.p50, s.p95, s.p99
        ),
        None => "null".to_string(),
    }
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    let deadline = Instant::now() + HttpServer::REQUEST_DEADLINE;
    let _ = stream.set_write_timeout(Some(HttpServer::REQUEST_DEADLINE));
    // One trace per connection == one trace per request (`Connection:
    // close`). `respond` reports the outcome; the flight recorder promotes
    // slow-but-Ok requests past the configured threshold on `finish`,
    // which runs before `stream` drops, so a client that reads `/traces`
    // right after EOF finds this request there.
    let trace = inbox_obs::start_trace("http.request");
    let outcome = respond(&mut stream, deadline, service, trace.as_ref());
    if let Some(trace) = trace {
        trace.finish(outcome);
    }
}

fn respond(
    stream: &mut TcpStream,
    deadline: Instant,
    service: &Service,
    trace: Option<&inbox_obs::ActiveTrace>,
) -> inbox_obs::TraceOutcome {
    use inbox_obs::TraceOutcome;
    // The server answers every connection it accepted rather than silently
    // hanging up: a request that missed its deadline gets a 408, and both
    // unacceptable requests (`Ok(None)`) and other read errors (e.g.
    // non-UTF-8 bytes in the request line) get a 400.
    let request = {
        let _parse_span = trace.map(|t| t.span("http.parse", Some(0)));
        parse_request(stream, deadline)
    };
    let request = match request {
        Ok(Some(request)) => request,
        Err(e) if timed_out(&e) => {
            inbox_obs::counter(TIMEOUTS).incr();
            write_traced(
                stream,
                trace,
                408,
                "Request Timeout",
                JSON,
                &error_body("request not received within the deadline"),
            );
            return TraceOutcome::Error;
        }
        Ok(None) | Err(_) => {
            write_traced(
                stream,
                trace,
                400,
                "Bad Request",
                JSON,
                &error_body("bad request"),
            );
            return TraceOutcome::Error;
        }
    };
    // Chaos site: drop the connection after a full parse, before any byte
    // of the response — the client sees a clean EOF, never a half-written
    // or interleaved response, and the server must keep serving.
    if inbox_obs::failpoint!("serve.http.torn_response") {
        return TraceOutcome::Error;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            write_traced(stream, trace, 200, "OK", JSON, "{\"status\":\"ok\"}");
            TraceOutcome::Ok
        }
        ("GET", "/recommend") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let k = match request.param("k") {
                None => Some(10),
                Some(v) => v.parse::<usize>().ok(),
            };
            let (Some(user), Some(k)) = (user, k) else {
                write_traced(
                    stream,
                    trace,
                    400,
                    "Bad Request",
                    JSON,
                    &error_body("recommend needs user=<u32> and optional k=<usize>"),
                );
                return TraceOutcome::Error;
            };
            let answer = match trace {
                Some(t) => service.recommend_traced(UserId(user), k, t),
                None => service.recommend(UserId(user), k),
            };
            match answer {
                Ok(r) => {
                    write_traced(stream, trace, 200, "OK", JSON, &recommendation_body(&r));
                    TraceOutcome::Ok
                }
                Err(e) => {
                    serve_error(stream, trace, &e);
                    match e {
                        ServeError::Overloaded => TraceOutcome::Shed,
                        _ => TraceOutcome::Error,
                    }
                }
            }
        }
        ("POST", "/ingest") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let item = request.param("item").and_then(|v| v.parse::<u32>().ok());
            let (Some(user), Some(item)) = (user, item) else {
                write_traced(
                    stream,
                    trace,
                    400,
                    "Bad Request",
                    JSON,
                    &error_body("ingest needs user=<u32> and item=<u32>"),
                );
                return TraceOutcome::Error;
            };
            match service.ingest(UserId(user), ItemId(item)) {
                Ok(receipt) => {
                    let body = format!(
                        "{{\"user\":{},\"item\":{},\"version\":{},\"history_changed\":{},\"mask_changed\":{}}}",
                        receipt.user.0,
                        receipt.item.0,
                        receipt.version,
                        receipt.history_changed,
                        receipt.mask_changed
                    );
                    write_traced(stream, trace, 200, "OK", JSON, &body);
                    TraceOutcome::Ok
                }
                Err(e) => {
                    serve_error(stream, trace, &e);
                    TraceOutcome::Error
                }
            }
        }
        ("GET", "/stats") => {
            let s = service.stats();
            let audit = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
            let body = format!(
                "{{\"requests\":{},\"rebuilds\":{},\"cache_hits\":{},\"evictions\":{},\"fallbacks\":{},\"ingests\":{},\"sheds\":{},\"queued\":{},\"cached_boxes\":{},\"queue_depth\":{},\"audit_backlog\":{},\"audit_sampled\":{},\"audit_audited\":{},\"audit_window_recall\":{},\"audit_degraded\":{}}}",
                s.requests,
                s.rebuilds,
                s.cache_hits,
                s.evictions,
                s.fallbacks,
                s.ingests,
                s.sheds,
                service.queued(),
                service.engine().cache_len(),
                value_stat("serve.queue.depth"),
                service.audit_backlog(),
                audit.sampled,
                audit.audited,
                audit.window_recall,
                audit.degraded,
            );
            write_traced(stream, trace, 200, "OK", JSON, &body);
            TraceOutcome::Ok
        }
        ("GET", "/audit") => {
            // The serde-rendered audit snapshot, wrapped with the live
            // queue backlog and the drift gauges the worker publishes.
            let snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
            let audit = serde_json::to_string(&snap).unwrap_or_else(|_| "null".to_string());
            let drift: Vec<String> = inbox_obs::all_drift_stats()
                .into_iter()
                .map(|(name, v)| format!("{}:{v}", json_string(&name)))
                .collect();
            let body = format!(
                "{{\"audit\":{audit},\"backlog\":{},\"drift\":{{{}}}}}",
                service.audit_backlog(),
                drift.join(","),
            );
            write_traced(stream, trace, 200, "OK", JSON, &body);
            TraceOutcome::Ok
        }
        ("GET", "/metrics") => {
            let mut body = inbox_obs::prometheus_text();
            // The SIMD lane backend scoring dispatches to, as one info
            // sample: timings from hosts on different backends differ.
            body.push_str(&format!(
                "# TYPE inbox_simd_backend gauge\ninbox_simd_backend{{backend=\"{}\"}} 1\n",
                inbox_core::simd::backend()
            ));
            write_traced(stream, trace, 200, "OK", PROMETHEUS, &body);
            TraceOutcome::Ok
        }
        ("GET", "/traces") => {
            write_traced(stream, trace, 200, "OK", JSON, &inbox_obs::traces_json());
            TraceOutcome::Ok
        }
        ("GET", "/profile") => {
            // Folded stacks over the flight recorder's retained traces —
            // pipe straight into `flamegraph.pl`.
            write_traced(
                stream,
                trace,
                200,
                "OK",
                "text/plain",
                &inbox_obs::folded_text(),
            );
            TraceOutcome::Ok
        }
        _ => {
            write_traced(
                stream,
                trace,
                404,
                "Not Found",
                JSON,
                &error_body("no such route"),
            );
            TraceOutcome::Error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendation_body_bytes_are_pinned() {
        let mut r = Recommendation {
            user: UserId(7),
            items: vec![
                (ItemId(3), -0.5),
                (ItemId(11), 1.25e-7),
                (ItemId(0), f32::MIN),
            ],
            fallback: false,
            version: 42,
        };
        assert_eq!(
            recommendation_body(&r),
            format!(
                "{{\"user\":7,\"version\":42,\"fallback\":false,\"items\":[\
                 {{\"item\":3,\"score\":-0.5}},{{\"item\":11,\"score\":0.000000125}},\
                 {{\"item\":0,\"score\":{}}}]}}",
                f32::MIN
            )
        );
        r.items.clear();
        r.fallback = true;
        assert_eq!(
            recommendation_body(&r),
            "{\"user\":7,\"version\":42,\"fallback\":true,\"items\":[]}"
        );
    }
}
