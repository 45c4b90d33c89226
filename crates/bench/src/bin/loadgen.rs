//! Serving load generator: drives the `inbox-serve` stack with concurrent
//! clients and records latency/throughput to `BENCH_serve.json`.
//!
//! Two phases, each with its own engine:
//!
//! 1. **verify** — concurrent recommend-only traffic compared answer-by-
//!    answer against the single-threaded oracle. Any bit difference aborts
//!    the benchmark: numbers for a wrong server are worthless.
//! 2. **load** — mixed recommend/ingest streams from N client threads.
//!    Latency percentiles come from the `serve.request` span histogram —
//!    the same telemetry a production `--metrics-out` sink would see.
//!    Each request is scored on its client's thread. The shadow-
//!    oracle auditor runs at its default 1-in-32 sampling throughout; the
//!    queue is drained at shutdown and the report asserts every audited
//!    answer matched the exact re-rank (FullSort + f32 serving must audit
//!    perfectly clean).
//!
//! The model is untrained: serving cost (forward pass, scoring, top-K) is
//! independent of parameter values, so skipping training keeps the bench
//! fast without changing what is measured.
//!
//! ```text
//! cargo run --release -p inbox-bench --bin loadgen            # full run
//! cargo run --release -p inbox-bench --bin loadgen -- --quick # CI smoke
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::InBoxConfig;
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::{ItemId, UserId};
use inbox_serve::{Engine, HttpServer, ServeConfig, ServeError, Service};
use serde::{Deserialize, Serialize};

/// The whole benchmark runs under the instrumented allocator so the
/// steady-state probe can attribute real allocation counts to the serving
/// scopes (the hook costs one relaxed atomic load while tracking is off).
#[global_allocator]
static ALLOC: inbox_obs::InstrumentedAlloc = inbox_obs::InstrumentedAlloc;

/// Latency summary in milliseconds (from the `serve.request` span).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LatencyMs {
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// Steady-state latency over the trailing window at the moment the load
/// phase ended — what a live `/metrics` scrape would have reported, as
/// opposed to the run-cumulative `latency_ms`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WindowedLatencyMs {
    window_secs: u64,
    samples: u64,
    rate_per_sec: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// Allocation counts attributed to one labeled scope during the
/// steady-state probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScopeAllocs {
    scope: String,
    allocs: u64,
    bytes: u64,
}

/// Shadow-oracle audit verdicts, drained to completion at shutdown, plus
/// the drift monitor's score-distribution divergence.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AuditReport {
    /// Configured sampling stride (1-in-N served answers).
    sample_every: u64,
    sampled: u64,
    audited: u64,
    shed: u64,
    stale: u64,
    mismatched: u64,
    /// Fraction of oracle top-20 items present in audited served answers.
    recall_at_20: f64,
    /// Fraction of audited positions that agreed exactly with the oracle.
    agreement_at_20: f64,
    /// PSI of the served top-score distribution vs the startup reference.
    drift_psi_score: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    dataset: String,
    dim: usize,
    /// SIMD lane backend the engine dispatched to (`avx2`, `sse2`,
    /// `scalar`): latencies from different backends are not comparable.
    simd_backend: String,
    clients: usize,
    requests_per_client: usize,
    ingest_every: usize,
    /// Verified bit-identical answers in the oracle phase.
    verified_answers: u64,
    answered: u64,
    shed: u64,
    ingests: u64,
    rebuilds: u64,
    cache_hits: u64,
    cache_hit_rate: f64,
    qps: f64,
    latency_ms: LatencyMs,
    /// Trailing-window percentiles captured right as the load ended
    /// (absent only if the run somehow outlived the 60s window).
    windowed_latency_ms: Option<WindowedLatencyMs>,
    /// Parsed sample count from the embedded `GET /metrics` scrape.
    metrics_samples: u64,
    /// Flight-recorder traces retained by the embedded `GET /traces` dump.
    traces_retained: u64,
    /// Requests served by the post-load steady-state allocation probe.
    alloc_probe_requests: u64,
    /// Per-scope allocation counts over the probe (buffers warm, tracking
    /// on). `engine.candidates`, `engine.rerank` and `engine.rank` must
    /// read 0.
    steady_state_allocs: Vec<ScopeAllocs>,
    /// Probe allocations in the zero-alloc-by-contract scopes, per request.
    hot_scope_allocs_per_request: f64,
    /// Shadow-oracle audit results over the whole run (load + probe).
    audit: AuditReport,
}

/// Threads currently alive in this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// One blocking HTTP GET against the embedded server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to embedded server");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "{path} answered: {}",
        response.lines().next().unwrap_or("")
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

fn engine_over(ds: &Dataset, serve_cfg: &ServeConfig) -> Engine {
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    Engine::new(model, cfg, ds.kg.clone(), &ds.train, serve_cfg)
}

/// Phase 1: every concurrent answer must equal the precomputed oracle.
fn verify(ds: &Dataset, serve_cfg: &ServeConfig, clients: usize, k: usize) -> u64 {
    let engine = engine_over(ds, serve_cfg);
    let n_users = ds.n_users() as u32;
    let oracle: Vec<_> = (0..n_users)
        .map(|u| engine.oracle(UserId(u), k).expect("oracle"))
        .collect();
    let service = Service::start(engine, serve_cfg);
    let verified = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..clients as u32 {
            let service = &service;
            let oracle = &oracle;
            let verified = &verified;
            s.spawn(move || {
                for i in 0..n_users {
                    let user = UserId((i * 13 + t * 7) % n_users);
                    let got = service
                        .recommend(user, k)
                        .expect("verify phase never sheds");
                    assert_eq!(
                        got,
                        oracle[user.index()],
                        "served answer diverged from the single-threaded oracle"
                    );
                    verified.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    service.shutdown();
    verified.into_inner()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let clients: usize = args
        .iter()
        .position(|a| a == "--clients")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
        });

    inbox_obs::set_enabled(true);
    let synth = if quick {
        SyntheticConfig::tiny()
    } else {
        SyntheticConfig::small()
    };
    let requests_per_client = if quick { 200 } else { 5_000 };
    let ingest_every = 10; // one ingest per 10 recommends per client
    let ds = Dataset::synthetic(&synth, 7);
    let serve_cfg = ServeConfig {
        queue_cap: 8192,
        ..ServeConfig::default()
    };
    let k = 20;

    println!(
        "loadgen: dataset {} ({} users, {} items), {} clients x {} requests, ingest every {}",
        synth.name,
        ds.n_users(),
        ds.n_items(),
        clients,
        requests_per_client,
        ingest_every
    );

    let verified_answers = verify(&ds, &serve_cfg, clients, k);
    println!("verify: {verified_answers} concurrent answers bit-identical to the oracle");

    // Fresh telemetry and a fresh engine for the measured phase. The reset
    // must happen *before* the engine exists: engines hold counter handles,
    // and reset detaches previously fetched handles.
    inbox_obs::reset();
    let engine = engine_over(&ds, &serve_cfg);
    let dim = InBoxConfig::tiny_test().dim;
    let n_users = ds.n_users() as u32;
    let n_items = ds.n_items() as u32;
    let service = Arc::new(Service::start(engine, &serve_cfg));

    let shed = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..clients as u32 {
            let service = &service;
            let shed = &shed;
            s.spawn(move || {
                for i in 0..requests_per_client as u32 {
                    let user = UserId((i * 29 + t * 101) % n_users);
                    if i as usize % ingest_every == ingest_every - 1 {
                        let item = ItemId((i * 31 + t * 61) % n_items);
                        service.ingest(user, item).expect("valid ids never fail");
                        continue;
                    }
                    match service.recommend(user, k) {
                        Ok(_) => {}
                        Err(ServeError::Overloaded) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected serving error: {e}"),
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    // Capture the trailing window *now*, while the load's samples are still
    // inside it — this is the steady-state view a live scrape would see.
    let windowed = inbox_obs::windowed_span("serve.request", 10);
    let stats = service.stats();

    // Embedded observability smoke over the same service: the live
    // exposition endpoints must be well-formed under real traffic, and the
    // flight recorder must have retained the HTTP requests' traces.
    // The recommends come from concurrent clients, and the worker pool
    // `bind` started serves them all: while they send, the process holds
    // only those clients beyond its post-bind threads, and once they are
    // joined it is back to exactly its post-bind count.
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loadgen http");
    let threads_after_bind = thread_count();
    const HTTP_CLIENTS: u32 = 4;
    let sending = std::sync::Barrier::new(HTTP_CLIENTS as usize);
    std::thread::scope(|s| {
        for c in 0..HTTP_CLIENTS {
            let (http, sending) = (&http, &sending);
            s.spawn(move || {
                // Every client exists before the first request is sent.
                sending.wait();
                for i in 0..2 {
                    let _ = http_get(
                        http.local_addr(),
                        &format!("/recommend?user={}&k={k}", (2 * c + i) % n_users),
                    );
                    let now = thread_count();
                    assert!(
                        now <= threads_after_bind + HTTP_CLIENTS as usize,
                        "{now} threads with {HTTP_CLIENTS} clients, {threads_after_bind} after bind: the server started a thread"
                    );
                }
            });
        }
    });
    // A joined thread can linger in /proc/self/task for a moment.
    let settled = Instant::now() + std::time::Duration::from_secs(1);
    while thread_count() != threads_after_bind && Instant::now() < settled {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        thread_count(),
        threads_after_bind,
        "HTTP serving changed the thread count from its post-bind value"
    );
    let metrics_text = http_get(http.local_addr(), "/metrics");
    let metrics_samples = metrics_text
        .lines()
        .filter_map(inbox_obs::expo::parse_line)
        .count() as u64;
    assert!(
        metrics_samples > 0,
        "/metrics rendered no parseable samples"
    );
    assert!(
        metrics_text.contains("inbox_span_window_seconds{name=\"serve.request\""),
        "windowed serve metrics missing from /metrics"
    );
    let dump: inbox_obs::TraceDump =
        serde_json::from_str(&http_get(http.local_addr(), "/traces")).expect("/traces parses");
    let traces_retained = dump.recent.len() as u64;
    assert!(traces_retained > 0, "flight recorder retained no traces");
    // Live `/audit` scrape: with FullSort + f32 serving every answer the
    // auditor has processed so far re-ranked identically, so the live
    // recall ratio must read exactly 1.0 even mid-drain.
    let audit_body = http_get(http.local_addr(), "/audit");
    let audit_live: serde_json::Value = serde_json::from_str(&audit_body).expect("/audit parses");
    let live_recall = audit_live
        .as_object()
        .and_then(|o| o.get("audit"))
        .and_then(|a| a.as_object())
        .and_then(|a| a.get("recall"))
        .and_then(|r| r.as_f64())
        .expect("/audit reports a recall ratio");
    assert!(
        live_recall == 1.0,
        "exact serving must audit clean: /audit recall {live_recall}"
    );
    http.shutdown();

    // Steady-state allocation probe. Requests are scored on their caller's
    // thread, so each probe client first sends its request sequence once
    // untracked, warming its own scratch buffers; the tracked repeat must
    // then attribute **zero** allocations to the `engine.candidates` /
    // `engine.rerank` / `engine.rank` scopes. The barrier brackets the
    // counter reset.
    let probe_per_client: u64 = if quick { 50 } else { 500 };
    let alloc_probe_requests = probe_per_client * clients as u64;
    let warmed = std::sync::Barrier::new(clients + 1);
    std::thread::scope(|s| {
        for t in 0..clients as u32 {
            let (service, warmed) = (&service, &warmed);
            s.spawn(move || {
                let sweep = || {
                    for i in 0..probe_per_client as u32 {
                        let user = UserId((i * 17 + t * 53) % n_users);
                        service
                            .recommend(user, k)
                            .expect("probe traffic is far below the admission bound");
                    }
                };
                sweep();
                warmed.wait();
                warmed.wait();
                sweep();
            });
        }
        warmed.wait();
        inbox_obs::set_alloc_tracking(true);
        inbox_obs::reset_alloc_stats();
        warmed.wait();
    });
    inbox_obs::set_alloc_tracking(false);
    // Shutdown drains the audit queue through the shadow oracle, so the
    // snapshot below covers every sampled answer that was not shed.
    service.shutdown();
    let audit_snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert!(
        audit_snap.sampled > 0,
        "audit sampler never fired at 1-in-{}",
        serve_cfg.audit_sample
    );
    assert_eq!(
        audit_snap.sampled,
        audit_snap.audited + audit_snap.shed + audit_snap.stale,
        "audit drain left samples unaccounted for"
    );
    assert!(
        audit_snap.audited > 0,
        "no sampled answer survived to audit"
    );
    assert!(
        audit_snap.recall == 1.0 && audit_snap.mismatched == 0,
        "exact serving must audit clean: recall {} with {} mismatch(es)",
        audit_snap.recall,
        audit_snap.mismatched
    );
    let audit = AuditReport {
        sample_every: serve_cfg.audit_sample,
        sampled: audit_snap.sampled,
        audited: audit_snap.audited,
        shed: audit_snap.shed,
        stale: audit_snap.stale,
        mismatched: audit_snap.mismatched,
        recall_at_20: audit_snap.recall,
        agreement_at_20: audit_snap.agreement,
        // The worker publishes drift stats once more while draining, so
        // the score PSI must exist by now — a missing stat means the
        // monitor silently never ran, which should fail the bench.
        drift_psi_score: inbox_obs::drift_stat("psi.score")
            .expect("drift monitor published no score PSI"),
    };

    let steady_state_allocs: Vec<ScopeAllocs> = inbox_obs::all_alloc_scopes()
        .into_iter()
        .filter(|(name, _)| name != "unscoped")
        .map(|(scope, st)| ScopeAllocs {
            scope,
            allocs: st.allocs,
            bytes: st.bytes,
        })
        .collect();
    let hot_allocs: u64 = steady_state_allocs
        .iter()
        .filter(|s| {
            matches!(
                s.scope.as_str(),
                "engine.candidates" | "engine.rerank" | "engine.rank"
            )
        })
        .map(|s| s.allocs)
        .sum();
    let hot_scope_allocs_per_request = hot_allocs as f64 / alloc_probe_requests as f64;

    let latency = inbox_obs::span_snapshot("serve.request").expect("span recorded under load");
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    let lookups = stats.rebuilds + stats.cache_hits;
    let report = Report {
        dataset: synth.name.clone(),
        dim,
        simd_backend: inbox_core::simd::backend().to_string(),
        clients,
        requests_per_client,
        ingest_every,
        verified_answers,
        answered: stats.requests,
        shed: stats.sheds,
        ingests: stats.ingests,
        rebuilds: stats.rebuilds,
        cache_hits: stats.cache_hits,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        },
        qps: stats.requests as f64 / elapsed,
        latency_ms: LatencyMs {
            mean: ns_to_ms(latency.mean),
            p50: ns_to_ms(latency.p50),
            p95: ns_to_ms(latency.p95),
            p99: ns_to_ms(latency.p99),
        },
        windowed_latency_ms: windowed.map(|w| WindowedLatencyMs {
            window_secs: w.window_secs,
            samples: w.count,
            rate_per_sec: w.rate_per_sec,
            p50: ns_to_ms(w.p50),
            p95: ns_to_ms(w.p95),
            p99: ns_to_ms(w.p99),
        }),
        metrics_samples,
        traces_retained,
        alloc_probe_requests,
        steady_state_allocs,
        hot_scope_allocs_per_request,
        audit,
    };

    println!(
        "load: {} answered, {} shed, {} ingests in {:.2}s -> {:.0} req/s",
        report.answered, report.shed, report.ingests, elapsed, report.qps
    );
    println!(
        "latency ms: mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3}",
        report.latency_ms.mean, report.latency_ms.p50, report.latency_ms.p95, report.latency_ms.p99
    );
    println!(
        "cache hit rate {:.1}% ({} hits / {} rebuilds)",
        report.cache_hit_rate * 100.0,
        report.cache_hits,
        report.rebuilds
    );
    if let Some(w) = &report.windowed_latency_ms {
        println!(
            "steady-state last {}s: {} samples at {:.0}/s, p50 {:.3} p95 {:.3} p99 {:.3} ms",
            w.window_secs, w.samples, w.rate_per_sec, w.p50, w.p95, w.p99
        );
    }
    println!(
        "observability smoke: {} /metrics samples, {} retained trace(s)",
        report.metrics_samples, report.traces_retained
    );
    println!(
        "alloc probe: {} requests, {:.4} hot-scope allocs/request ({})",
        report.alloc_probe_requests,
        report.hot_scope_allocs_per_request,
        report
            .steady_state_allocs
            .iter()
            .map(|s| format!("{} {}", s.scope, s.allocs))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "audit: {} sampled (1-in-{}), {} audited, {} shed, {} stale, \
         recall@20 {:.2}, agreement@20 {:.2}, psi {:.4}",
        report.audit.sampled,
        report.audit.sample_every,
        report.audit.audited,
        report.audit.shed,
        report.audit.stale,
        report.audit.recall_at_20,
        report.audit.agreement_at_20,
        report.audit.drift_psi_score
    );

    let json = serde_json::to_string_pretty(&report).expect("serialise serve report");
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("[written {}]", out_path.display());
}
