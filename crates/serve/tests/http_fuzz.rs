//! Wire-level fuzz suite for the HTTP front-end: seeded generators of
//! malformed request lines, query strings, and headers, plus raw invalid
//! bytes and oversized lines. The server must answer **every** accepted
//! connection with a well-formed status (200/400/404/503), never panic,
//! and never start a thread to serve one.
//!
//! Every test takes [`serial`] for its whole run: the storm test counts
//! the process's threads, so no other test may start or stop a server
//! meanwhile.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn server(seed: u64) -> (Arc<Service>, HttpServer) {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), seed);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    let serve_cfg = ServeConfig::default();
    let engine = Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral port");
    (service, http)
}

/// Sends raw bytes (possibly not valid HTTP, possibly not valid UTF-8),
/// half-closes the write side so a request without a terminating blank
/// line still reaches EOF, and returns the response status if one was
/// parseable.
fn raw_roundtrip(http: &HttpServer, raw: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    text.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

/// Every accepted connection must get a well-formed answer from the
/// endpoint surface: 200 for lucky-valid requests, 400 for garbage, 404
/// for unknown routes/users, 503 only for typed overload/shutdown.
fn assert_answered(status: Option<u16>, raw: &[u8]) {
    assert!(
        matches!(status, Some(200 | 400 | 404 | 503)),
        "server must answer every connection with a typed status, got {status:?} for {:?}",
        String::from_utf8_lossy(raw)
    );
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

proptest! {
    /// Arbitrary printable garbage in the method and target positions.
    #[test]
    fn malformed_request_lines_never_kill_the_server(
        method in "[A-Z!#$%]{0,7}",
        target in "[!-~]{0,30}",
    ) {
        let _serial = serial();
        let (service, http) = server(61);
        let raw = format!("{method} {target} HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n");
        assert_answered(raw_roundtrip(&http, raw.as_bytes()), raw.as_bytes());
        // The server is still healthy afterwards.
        let health = raw_roundtrip(&http, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        prop_assert_eq!(health, Some(200));
        http.shutdown();
        service.shutdown();
    }

    /// Hostile query strings against the real endpoints: non-numeric ids,
    /// missing values, repeated keys, stray separators.
    #[test]
    fn malformed_queries_answer_with_client_errors(
        user in "[0-9a-z=&-]{0,12}",
        k in "[0-9a-z=&-]{0,8}",
        endpoint in 0..2usize,
    ) {
        let _serial = serial();
        let (service, http) = server(62);
        let (verb, path) = if endpoint == 0 {
            ("GET", format!("/recommend?user={user}&k={k}"))
        } else {
            ("POST", format!("/ingest?user={user}&item={k}"))
        };
        let raw = format!("{verb} {path} HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n");
        assert_answered(raw_roundtrip(&http, raw.as_bytes()), raw.as_bytes());
        http.shutdown();
        service.shutdown();
    }

    /// Garbage header blocks — weird names, bare colons, binary-ish
    /// values, hostile Content-Length — never hang or kill the server.
    #[test]
    fn malformed_headers_never_hang(
        name in "[A-Za-z:=-]{0,14}",
        value in "[ -~]{0,24}",
        content_length in "[0-9a-z-]{0,10}",
    ) {
        let _serial = serial();
        let (service, http) = server(63);
        let raw = format!(
            "GET /health HTTP/1.1\r\n{name}: {value}\r\nContent-Length: {content_length}\r\nConnection: close\r\n\r\n"
        );
        assert_answered(raw_roundtrip(&http, raw.as_bytes()), raw.as_bytes());
        http.shutdown();
        service.shutdown();
    }
}

/// Raw invalid UTF-8 on the wire is a 400, not a panic or a hangup.
#[test]
fn invalid_utf8_bytes_get_a_400() {
    let _serial = serial();
    let (service, http) = server(64);
    for raw in [
        &b"\xff\xfe\xfd\xfc GET /health HTTP/1.1\r\n\r\n"[..],
        &b"GET /\x80\x81 HTTP/1.1\r\n\r\n"[..],
        &b"\x00\x01\x02\x03"[..],
    ] {
        assert_eq!(raw_roundtrip(&http, raw), Some(400), "raw: {raw:?}");
    }
    http.shutdown();
    service.shutdown();
}

/// A request line past the 8 KiB cap is rejected as a client error
/// instead of being buffered without bound.
#[test]
fn oversized_request_line_is_a_400() {
    let _serial = serial();
    let (service, http) = server(65);
    let raw = format!(
        "GET /{} HTTP/1.1\r\nConnection: close\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    assert_eq!(raw_roundtrip(&http, raw.as_bytes()), Some(400));
    // An over-long header line is equally rejected.
    let raw = format!(
        "GET /health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "b".repeat(16 * 1024)
    );
    assert_eq!(raw_roundtrip(&http, raw.as_bytes()), Some(400));
    http.shutdown();
    service.shutdown();
}

/// A storm of malformed connections must not start a single thread: the
/// pool serves every connection, so the process's thread count never rises
/// above its value before the storm, checked after every round-trip, and
/// the server still answers.
#[test]
fn fuzz_storm_leaks_no_connection_threads() {
    let _serial = serial();
    let (service, http) = server(66);
    assert_eq!(
        raw_roundtrip(&http, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"),
        Some(200)
    );
    // The test harness starts the next test's thread when the previous
    // test finishes; wait until the count holds still before taking the
    // baseline.
    let mut baseline = thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = thread_count();
        if now == baseline {
            break;
        }
        baseline = now;
    }

    let mut seed = 0x5eedu64;
    for round in 0..120 {
        // Cheap xorshift over a fixed corpus of nasty shapes.
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let raw: Vec<u8> = match round % 6 {
            0 => b"\xff\xfeGET /\r\n\r\n".to_vec(),
            1 => format!("{} / HTTP/1.1\r\n\r\n", "M".repeat((seed % 9) as usize)).into_bytes(),
            2 => format!("GET /recommend?user={seed}&k=-1 HTTP/1.1\r\n\r\n").into_bytes(),
            3 => vec![b'A'; (seed % 4096) as usize],
            4 => format!("POST /ingest?user=&item= HTTP/1.1\r\nContent-Length: {seed}\r\n\r\n")
                .into_bytes(),
            _ => format!("GET /nope{seed} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes(),
        };
        let status = raw_roundtrip(&http, &raw);
        assert_answered(status, &raw);
        let now = thread_count();
        assert!(
            now <= baseline,
            "round {round}: {now} threads, {baseline} before the storm: serving started a thread"
        );
    }

    assert_eq!(
        raw_roundtrip(&http, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"),
        Some(200),
        "server must still answer after the storm"
    );
    http.shutdown();
    service.shutdown();
}
