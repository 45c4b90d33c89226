//! Flight-recorder integration tests: a traced HTTP request must leave a
//! complete causal span tree behind — HTTP accept → parse → admission →
//! engine resolve/candidates/rerank → response write — and slow requests must be
//! promoted and retained in the notable ring.
//!
//! Everything here runs in one `#[test]` because the flight recorder, the
//! sampling knob, and the slow threshold are process-global: concurrent
//! tests would race each other's configuration.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_obs::{TraceOutcome, TraceRecord, TraceSpan};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};

fn service_over(serve_cfg: &ServeConfig) -> Arc<Service> {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 23);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    let engine = Engine::new(model, cfg, ds.kg.clone(), &ds.train, serve_cfg);
    Arc::new(Service::start(engine, serve_cfg))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn span<'a>(trace: &'a TraceRecord, name: &str) -> &'a TraceSpan {
    trace
        .spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("span {name} missing from {:?}", trace.spans))
}

/// The tree shape every served recommend request must leave behind.
fn assert_recommend_tree(trace: &TraceRecord) {
    let root = &trace.spans[0];
    assert_eq!(root.name, "http.request");
    assert_eq!(root.parent, None);
    assert!(
        trace.spans.iter().all(|s| s.start_ns >= root.start_ns),
        "root must start first"
    );
    assert!(root.dur_ns > 0, "root span never closed");
    assert!(root.dur_ns <= trace.total_ns);

    // Front-end and admission stages hang off the root.
    for name in ["http.parse", "serve.admit", "http.write"] {
        let s = span(trace, name);
        assert_eq!(s.parent, Some(0), "{name} must be a child of the root");
        assert!(
            s.start_ns + s.dur_ns <= root.start_ns + root.dur_ns,
            "{name} extends past the root span"
        );
    }

    // Engine stages form a subtree under the root: recommend owns
    // resolve/candidates/rerank, and resolve owns exactly one of
    // cache_hit/rebuild.
    let recommend = span(trace, "engine.recommend");
    assert_eq!(recommend.parent, Some(0), "engine.recommend hangs off root");
    let resolve = span(trace, "engine.resolve_box");
    assert_eq!(resolve.parent, Some(recommend.id));
    assert_eq!(span(trace, "engine.candidates").parent, Some(recommend.id));
    assert_eq!(span(trace, "engine.rerank").parent, Some(recommend.id));
    let hit = trace.spans.iter().find(|s| s.name == "engine.cache_hit");
    let rebuild = trace.spans.iter().find(|s| s.name == "engine.rebuild");
    let leaf = hit
        .or(rebuild)
        .expect("resolve_box must record a cache_hit or rebuild leaf");
    assert_eq!(leaf.parent, Some(resolve.id));
    assert!(
        hit.is_none() || rebuild.is_none(),
        "a lookup is a hit XOR a rebuild"
    );

    // Admission closes before the engine starts: the request is scored
    // only once it holds its in-flight slot.
    let admit = span(trace, "serve.admit");
    assert!(admit.start_ns + admit.dur_ns <= recommend.start_ns);
}

#[test]
fn flight_recorder_reproduces_request_trees() {
    inbox_obs::set_enabled(true);
    inbox_obs::set_trace_sampling(1);
    inbox_obs::clear_traces();

    // --- phase 1: plain request ------------------------------------------
    let service = service_over(&ServeConfig::default());
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let response = http_get(http.local_addr(), "/recommend?user=0&k=5");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    http.shutdown();
    service.shutdown();

    let traces = inbox_obs::recent_traces();
    let trace = traces
        .iter()
        .find(|t| t.kind == "http.request" && t.spans.iter().any(|s| s.name == "engine.recommend"))
        .expect("recommend trace retained");
    assert_eq!(trace.outcome, TraceOutcome::Ok);
    assert_recommend_tree(trace);

    // --- phase 2: slow request promoted into the notable ring ------------
    // A zero-ish threshold makes every request slow; the service arms it
    // at start.
    let slow_svc = service_over(&ServeConfig {
        trace_slow: Duration::from_nanos(1),
        ..ServeConfig::default()
    });
    let http = HttpServer::bind(Arc::clone(&slow_svc), "127.0.0.1:0").expect("bind");
    let response = http_get(http.local_addr(), "/recommend?user=1&k=5");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    http.shutdown();
    slow_svc.shutdown();
    inbox_obs::set_slow_threshold(Duration::MAX); // disarm for anything after

    let notable = inbox_obs::notable_traces();
    let slow_trace = notable
        .iter()
        .find(|t| {
            t.outcome == TraceOutcome::Slow && t.spans.iter().any(|s| s.name == "engine.recommend")
        })
        .expect("slow request retained in the notable ring");
    assert_recommend_tree(slow_trace);
    assert!(slow_trace.total_ns >= 1);
}
