//! Hostile clients against the HTTP worker pool: idle connections that
//! never send a byte and a slowloris that trickles its head. Each one must
//! be cut off with a `408` at [`HttpServer::REQUEST_DEADLINE`], counted in
//! `serve.http.timeouts`, without the server starting a thread, and
//! `/health` must keep answering. `shutdown` must join every worker.
//!
//! The test counts the process's threads, so it is the only test in this
//! binary.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Appends whatever has arrived on a non-blocking `stream`; true once the
/// peer has closed (EOF or reset).
fn drain(stream: &mut TcpStream, into: &mut Vec<u8>) -> bool {
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => into.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// The status code of a raw response, if it has one.
fn status(response: &[u8]) -> Option<u16> {
    String::from_utf8_lossy(response)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
}

#[test]
fn idle_and_slow_clients_time_out_without_pinning_the_pool() {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 67);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig::default();
    let engine = Engine::new(
        InBoxModel::new(sizes, &cfg),
        cfg,
        ds.kg.clone(),
        &ds.train,
        &serve_cfg,
    );
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral port");
    let threads_after_bind = thread_count();
    let workers = http.workers();
    assert!(workers >= 2, "the pool has a floor of 2 workers");
    let deadline = HttpServer::REQUEST_DEADLINE;
    let timeouts_before = inbox_obs::counter_value("serve.http.timeouts");
    let connect = || TcpStream::connect(http.local_addr()).expect("connect");

    // The slowloris connects first, so an idle worker takes it at once and
    // its deadline runs from (just after) `t0`.
    let t0 = Instant::now();
    let mut slowloris = connect();
    slowloris
        .write_all(b"GET /health HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    slowloris.set_nonblocking(true).unwrap();
    // More silent connections than workers: the ones the pool cannot take
    // yet wait in the listen backlog.
    let silent: Vec<TcpStream> = (0..workers + 2).map(|_| connect()).collect();
    let mut health = connect();
    health
        .write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    health.set_nonblocking(true).unwrap();

    // One thread drives every client, so the count it checks is the
    // server's own: a byte to the slowloris every 200 ms, a poll of both
    // responses every 10 ms.
    let (mut slow_reply, mut health_reply) = (Vec::new(), Vec::new());
    let (mut slow_done, mut health_done) = (None, None);
    let mut next_byte = t0;
    while slow_done.is_none() || health_done.is_none() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "clients still waiting after 30 s"
        );
        if slow_done.is_none() && Instant::now() >= next_byte {
            let _ = slowloris.write_all(b"a");
            next_byte += Duration::from_millis(200);
        }
        if slow_done.is_none() && drain(&mut slowloris, &mut slow_reply) {
            slow_done = Some(t0.elapsed());
        }
        if health_done.is_none() && drain(&mut health, &mut health_reply) {
            health_done = Some(t0.elapsed());
        }
        let now = thread_count();
        assert!(
            now <= threads_after_bind,
            "{now} threads, {threads_after_bind} right after bind: a connection got a thread"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Each full wave of hostile connections ahead of `/health` holds every
    // worker for one deadline at most.
    let ahead = workers + 3;
    let waves = u32::try_from(ahead / workers).unwrap();
    let health_at = health_done.unwrap();
    assert_eq!(status(&health_reply), Some(200), "/health must answer");
    assert!(
        health_at < deadline * waves + Duration::from_secs(1),
        "/health answered after {health_at:?} behind {ahead} hostile connections and {workers} workers"
    );
    // The slowloris is cut off at its deadline: a 408, or EOF if the reset
    // of its unread trickle overtook the response.
    let slow_at = slow_done.unwrap();
    assert!(
        slow_at >= deadline && slow_at < deadline + Duration::from_secs(1),
        "slowloris cut off after {slow_at:?}, deadline {deadline:?}"
    );
    assert!(
        slow_reply.is_empty() || status(&slow_reply) == Some(408),
        "slowloris got {:?}",
        String::from_utf8_lossy(&slow_reply)
    );
    for mut conn in silent {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reply = Vec::new();
        let _ = conn.read_to_end(&mut reply);
        assert_eq!(
            status(&reply),
            Some(408),
            "idle connection got {:?}",
            String::from_utf8_lossy(&reply)
        );
    }
    assert_eq!(
        inbox_obs::counter_value("serve.http.timeouts") - timeouts_before,
        workers as u64 + 3,
        "every expired connection is counted"
    );
    assert!(thread_count() <= threads_after_bind);
    let metrics = {
        let mut conn = connect();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        body
    };
    assert!(
        metrics.contains(&format!(
            "inbox_counter_total{{name=\"serve.http.timeouts\"}} {}",
            timeouts_before + workers as u64 + 3
        )),
        "/metrics exports the timeout count"
    );

    // Shutdown joins every worker. A joined thread can linger in
    // /proc/self/task for a moment after `join` returns.
    http.shutdown();
    let settled = Instant::now() + Duration::from_secs(1);
    while thread_count() > threads_after_bind - workers && Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(thread_count(), threads_after_bind - workers);
    service.shutdown();
}
