//! End-to-end tests for the std-only HTTP front-end: real sockets against
//! an ephemeral port, raw HTTP/1.1 text on the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};

fn server(seed: u64) -> (Dataset, Arc<Service>, HttpServer) {
    server_with(seed, ServeConfig::default())
}

fn server_with(seed: u64, serve_cfg: ServeConfig) -> (Dataset, Arc<Service>, HttpServer) {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), seed);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    let engine = Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral port");
    (ds, service, http)
}

/// Extracts the integer value of `"field":N` from a flat JSON body.
fn stat_field(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let rest = &body[body
        .find(&needle)
        .unwrap_or_else(|| panic!("{field} in {body}"))
        + needle.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {field} in {body}"))
}

/// Sends one raw request and returns `(status, body)`.
fn roundtrip(http: &HttpServer, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(http: &HttpServer, path: &str) -> (u16, String) {
    roundtrip(
        http,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(http: &HttpServer, path: &str) -> (u16, String) {
    roundtrip(
        http,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        ),
    )
}

#[test]
fn health_answers_ok() {
    let (_ds, _service, http) = server(51);
    let (status, body) = get(&http, "/health");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
}

#[test]
fn recommend_returns_json_ranking() {
    let (ds, service, http) = server(52);
    let user = (0..ds.train.n_users() as u32)
        .find(|&u| !ds.train.items_of(inbox_kg::UserId(u)).is_empty())
        .expect("an active user exists");
    let (status, body) = get(&http, &format!("/recommend?user={user}&k=5"));
    assert_eq!(status, 200, "body: {body}");
    assert!(
        body.starts_with(&format!("{{\"user\":{user},")),
        "body: {body}"
    );
    assert!(body.contains("\"items\":["), "body: {body}");
    assert!(body.contains("\"fallback\":false"), "body: {body}");
    // The wire answer agrees with the in-process oracle's item order.
    let oracle = service.engine().oracle(inbox_kg::UserId(user), 5).unwrap();
    for (item, _) in &oracle.items {
        assert!(
            body.contains(&format!("\"item\":{}", item.0)),
            "body: {body}"
        );
    }
}

#[test]
fn recommend_defaults_k_and_validates_params() {
    let (ds, _service, http) = server(53);
    let (status, _) = get(&http, "/recommend?user=0");
    assert_eq!(status, 200, "k defaults when omitted");
    let (status, body) = get(&http, "/recommend?k=5");
    assert_eq!(status, 400, "missing user is a client error");
    assert!(body.contains("error"));
    let (status, _) = get(&http, "/recommend?user=abc");
    assert_eq!(status, 400);
    let bad_user = ds.train.n_users();
    let (status, body) = get(&http, &format!("/recommend?user={bad_user}"));
    assert_eq!(status, 404, "unknown user is not found; body: {body}");
}

#[test]
fn ingest_bumps_version_over_the_wire() {
    let (ds, service, http) = server(54);
    let cfg = InBoxConfig::tiny_test();
    let user = (0..ds.train.n_users() as u32)
        .map(inbox_kg::UserId)
        .find(|&u| {
            let n = ds.train.items_of(u).len();
            n > 0 && n < cfg.max_history_infer
        })
        .expect("a user with history headroom exists");
    let item = (0..ds.train.n_items() as u32)
        .map(inbox_kg::ItemId)
        .find(|i| ds.train.items_of(user).binary_search(i).is_err())
        .expect("an unseen item exists");
    let before = service.engine().version_of(user).unwrap();
    let (status, body) = post(&http, &format!("/ingest?user={}&item={}", user.0, item.0));
    assert_eq!(status, 200, "body: {body}");
    assert!(
        body.contains(&format!("\"version\":{}", before + 1)),
        "body: {body}"
    );
    assert!(body.contains("\"mask_changed\":true"), "body: {body}");
    assert_eq!(service.engine().version_of(user).unwrap(), before + 1);

    let (status, _) = post(&http, "/ingest?user=0");
    assert_eq!(status, 400, "missing item is a client error");
    let (status, _) = post(
        &http,
        &format!("/ingest?user=0&item={}", ds.train.n_items()),
    );
    assert_eq!(status, 404, "unknown item is not found");
}

#[test]
fn stats_and_unknown_routes() {
    let (_ds, _service, http) = server(55);
    get(&http, "/recommend?user=0&k=3");
    let (status, body) = get(&http, "/stats");
    assert_eq!(status, 200);
    for field in [
        "requests",
        "rebuilds",
        "cache_hits",
        "evictions",
        "fallbacks",
        "ingests",
        "sheds",
        "queued",
        "queue_depth",
    ] {
        assert!(body.contains(&format!("\"{field}\":")), "body: {body}");
    }
    assert!(body.contains("\"requests\":1"), "body: {body}");
    let (status, _) = get(&http, "/nope");
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&http, "\r\n");
    assert_eq!(status, 400, "garbage request line is a client error");
}

#[test]
fn metrics_name_the_simd_backend_once() {
    let (_ds, _service, http) = server(57);
    let (status, body) = get(&http, "/metrics");
    assert_eq!(status, 200);
    let samples: Vec<_> = body
        .lines()
        .filter_map(inbox_obs::expo::parse_line)
        .filter(|(name, _, _)| name == "inbox_simd_backend")
        .collect();
    assert_eq!(samples.len(), 1, "body: {body}");
    let (_, labels, value) = &samples[0];
    assert_eq!(
        labels,
        &vec![(
            "backend".to_string(),
            inbox_core::simd::backend().to_string()
        )]
    );
    assert_eq!(*value, 1.0);
}

#[test]
fn stats_surface_rebuilds_and_cache_evictions() {
    // A two-entry box cache under traffic from many distinct users must
    // rebuild boxes (misses with history) and evict LRU victims — and both
    // must be visible over the wire.
    let (ds, _service, http) = server_with(
        57,
        ServeConfig {
            cache_cap: 2,
            ..ServeConfig::default()
        },
    );
    let n_users = ds.train.n_users().min(8);
    for user in 0..n_users as u32 {
        let (status, _) = get(&http, &format!("/recommend?user={user}&k=3"));
        assert_eq!(status, 200);
    }
    let (status, body) = get(&http, "/stats");
    assert_eq!(status, 200);
    assert!(
        stat_field(&body, "rebuilds") >= 1,
        "some user has history, so at least one box was rebuilt; body: {body}"
    );
    assert!(
        stat_field(&body, "evictions") >= n_users as u64 - 2,
        "every insert past capacity evicts an LRU victim; body: {body}"
    );
    assert!(
        stat_field(&body, "cached_boxes") <= 2,
        "resident entries stay within the capacity bound; body: {body}"
    );
}

#[test]
fn profile_route_emits_folded_stacks_rooted_at_the_request_trace() {
    let (_ds, _service, http) = server(58);
    // Serve one request so the flight recorder has at least one trace.
    let (status, _) = get(&http, "/recommend?user=0&k=3");
    assert_eq!(status, 200);
    let (status, body) = get(&http, "/profile");
    assert_eq!(status, 200);
    assert!(!body.trim().is_empty(), "folded output is non-empty");
    // flamegraph.pl input: every line is `path value` with the serving
    // span tree's root first in each path.
    for line in body.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`path value` line");
        assert!(
            path == "http.request" || path.starts_with("http.request;"),
            "unexpected stack root in {line:?}"
        );
        value.parse::<u64>().expect("numeric self-time value");
    }
    assert!(
        body.lines().any(|l| l.starts_with("http.request;")),
        "at least one child span appears below the root: {body}"
    );
}

#[test]
fn shutdown_is_idempotent_and_joins() {
    let (_ds, service, http) = server(56);
    let (status, _) = get(&http, "/health");
    assert_eq!(status, 200);
    http.shutdown();
    http.shutdown();
    service.shutdown();
    // The port no longer accepts new work once the workers are gone; a
    // connect may succeed (OS backlog) but no response will come.
    if let Ok(mut s) = TcpStream::connect(http.local_addr()) {
        let _ = s.write_all(b"GET /health HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.is_empty(), "no handler should answer after shutdown");
    }
}
