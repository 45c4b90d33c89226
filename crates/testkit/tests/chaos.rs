//! Chaos suite: drives every registered failpoint site and asserts the
//! production stack degrades **deterministically** — typed errors, clean
//! EOFs, bit-identical answers — never panics, hangs, or corruption.
//!
//! Compiled only under `--features failpoints`; the sites themselves are
//! no-ops in default builds.
#![cfg(feature = "failpoints")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use inbox_core::persist::{self, PersistError};
use inbox_core::trainer::{TrainReport, TrainedInBox};
use inbox_kg::UserId;
use inbox_serve::{HttpServer, IndexMode, ServeConfig, ServeError, Service};
use inbox_testkit::harness;
use inbox_testkit::{failpoints, FailGuard, Trigger};

/// The failpoint registry is process-global, and the test harness runs
/// integration tests on multiple threads — every test serialises through
/// this lock so one test's triggers never leak into another's.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique temp path, removed on drop.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "inbox-chaos-{tag}-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        Self(path)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn trained_fixture(seed: u64) -> TrainedInBox {
    let (_ds, model, cfg) = harness::fixture(seed);
    let n_users = model.sizes().n_users;
    TrainedInBox::from_parts(model, cfg, vec![None; n_users], TrainReport::default())
}

/// A crash mid-save (short write) must surface as `Corrupt` on the next
/// load — and a clean retry must round-trip.
#[test]
fn save_truncation_detected_as_corrupt_on_load() {
    let _serial = serial();
    let trained = trained_fixture(41);
    let path = TempPath::new("save-truncate");
    {
        let _fp = FailGuard::new("persist.save.truncate", Trigger::Always);
        persist::save(&trained, &path.0).expect("truncated save still returns Ok");
    }
    match persist::load(&path.0) {
        Err(PersistError::Corrupt(_)) => {}
        Err(other) => panic!("half-written checkpoint must load as Corrupt, got {other:?}"),
        Ok(_) => panic!("half-written checkpoint must not load"),
    }
    // With the fault cleared the same path round-trips.
    persist::save(&trained, &path.0).unwrap();
    let loaded = persist::load(&path.0).expect("clean save must round-trip");
    assert_eq!(loaded.config.dim, trained.config.dim);
    assert_eq!(loaded.boxes.len(), trained.boxes.len());
}

/// A short *read* of a well-formed checkpoint must also surface as
/// `Corrupt`, not `Io` and not a panic.
#[test]
fn load_truncation_detected_as_corrupt() {
    let _serial = serial();
    let trained = trained_fixture(42);
    let path = TempPath::new("load-truncate");
    persist::save(&trained, &path.0).unwrap();
    let _fp = FailGuard::new("persist.load.truncate", Trigger::Always);
    match persist::load(&path.0) {
        Err(PersistError::Corrupt(_)) => {}
        Err(other) => panic!("short read must load as Corrupt, got {other:?}"),
        Ok(_) => panic!("short read must not load"),
    }
}

/// A genuine filesystem failure keeps its `Io` identity — corruption
/// detection must not swallow it.
#[test]
fn load_io_failure_stays_io() {
    let _serial = serial();
    let trained = trained_fixture(43);
    let path = TempPath::new("load-io");
    persist::save(&trained, &path.0).unwrap();
    let _fp = FailGuard::new("persist.load.io", Trigger::Always);
    match persist::load(&path.0) {
        Err(PersistError::Io(_)) => {}
        Err(other) => panic!("injected I/O failure must stay Io, got {other:?}"),
        Ok(_) => panic!("injected I/O failure must not load"),
    }
}

/// A full admission cap sheds with `Overloaded` — typed, counted, and
/// fully recoverable once pressure is gone.
#[test]
fn admit_full_sheds_with_overloaded() {
    let _serial = serial();
    let serve_cfg = ServeConfig::default();
    let (_ds, _cfg, engine) = harness::engine(44, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    {
        let _fp = FailGuard::new("serve.admit.full", Trigger::Always);
        for _ in 0..3 {
            match service.recommend(UserId(0), 5) {
                Err(ServeError::Overloaded) => {}
                other => panic!("full cap must shed with Overloaded, got {other:?}"),
            }
        }
        assert_eq!(service.stats().sheds, 3, "sheds must be counted");
    }
    // Pressure gone: the same service answers normally.
    service
        .recommend(UserId(0), 5)
        .expect("recovered service must answer");
    service.shutdown();
}

/// The deterministic shed: a stalled request holds the only in-flight
/// slot of a `queue_cap = 1` service, so the next arrival is shed with
/// `Overloaded` (counted once); shutdown waits for the held request, which
/// still gets a real answer; after shutdown, requests are refused with
/// `Closed`.
#[test]
fn admission_cap_sheds_with_overloaded() {
    let _serial = serial();
    let serve_cfg = ServeConfig {
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(46, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    let _fp = FailGuard::new(
        "serve.recommend.stall",
        Trigger::DelayOnce(Duration::from_secs(1)),
    );
    std::thread::scope(|s| {
        let handle = {
            let service = &service;
            s.spawn(move || service.recommend(UserId(0), 5))
        };
        // Wait until the first request actually holds its slot.
        while service.queued() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            service.recommend(UserId(1), 5),
            Err(ServeError::Overloaded),
            "second arrival must be shed, not queued"
        );
        // Shutdown waits for the request in flight: the first caller still
        // gets a real answer, not an error.
        service.shutdown();
        let first = handle.join().unwrap();
        assert!(
            first.is_ok(),
            "held request must be answered across shutdown"
        );
    });
    let stats = service.stats();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.requests, 1);
    // After shutdown, new requests are refused explicitly.
    assert_eq!(service.recommend(UserId(0), 5), Err(ServeError::Closed));
}

/// A caller that panics after admission unwinds without leaking its
/// in-flight slot: a `queue_cap = 1` service answers the next request
/// instead of shedding it forever.
#[test]
fn recommend_panic_unwinds_and_frees_the_slot() {
    let _serial = serial();
    let serve_cfg = ServeConfig {
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(45, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    {
        let _fp = FailGuard::new("serve.recommend.panic", Trigger::Nth(1));
        let unwound =
            std::panic::catch_unwind(AssertUnwindSafe(|| service.recommend(UserId(0), 5)));
        assert!(unwound.is_err(), "the armed caller must unwind");
    }
    assert_eq!(service.queued(), 0, "the unwound caller's slot is free");
    let rec = service
        .recommend(UserId(1), 5)
        .expect("the next request must be admitted and answered");
    assert_eq!(rec, service.engine().oracle(UserId(1), 5).unwrap());
    assert_eq!(service.stats().sheds, 0);
    service.shutdown();
}

/// A one-shot stall after admission delays the request but loses nothing:
/// the answer still arrives, correct and typed.
#[test]
fn recommend_stall_delays_but_answers() {
    let _serial = serial();
    let serve_cfg = ServeConfig::default();
    let (_ds, _cfg, engine) = harness::engine(46, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    let stall = Duration::from_millis(50);
    let _fp = FailGuard::new("serve.recommend.stall", Trigger::DelayOnce(stall));
    let t0 = Instant::now();
    let rec = service
        .recommend(UserId(0), 5)
        .expect("stalled request must still be answered");
    assert!(
        t0.elapsed() >= stall,
        "the injected stall must actually delay the request"
    );
    let expected = service.engine().oracle(UserId(0), 5).unwrap();
    assert_eq!(rec.items, expected.items, "stalled answer must be exact");
    service.shutdown();
}

/// Losing every cache insert (an eviction flood) costs rebuilds, never
/// correctness: answers stay bit-identical to the cache-bypassing oracle.
#[test]
fn eviction_flood_never_changes_answers() {
    let _serial = serial();
    let (ds, _cfg, engine) = harness::engine(47, &ServeConfig::default());
    let _fp = FailGuard::new("serve.cache.evict", Trigger::Always);
    let n_users = ds.train.n_users() as u32;
    for u in 0..n_users {
        let user = UserId(u);
        let first = engine.recommend_now(user, 5).unwrap();
        let second = engine.recommend_now(user, 5).unwrap();
        let expected = engine.oracle(user, 5).unwrap();
        for (got, want) in [(&first, &expected), (&second, &expected)] {
            assert_eq!(got.fallback, want.fallback, "user {u} fallback");
            assert_eq!(got.items.len(), want.items.len(), "user {u} length");
            for (g, w) in got.items.iter().zip(&want.items) {
                assert_eq!(g.0, w.0, "user {u} item order");
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "user {u} score bits");
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 0, "evicted cache must never hit");
    assert!(
        stats.rebuilds >= 2,
        "every boxed request must rebuild, saw {}",
        stats.rebuilds
    );
}

/// Polls `cond` until it holds or ~2s elapses — the audit failpoints fire
/// on the worker thread, asynchronously to the caller.
fn wait_for(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..1000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// A full *audit* queue sheds the sampled copy, never the request: every
/// answer still arrives bit-identical to the oracle, the shed is counted,
/// and the degradation gauge stays defined (and clear).
#[test]
fn audit_queue_full_sheds_copies_never_answers() {
    let _serial = serial();
    inbox_obs::set_enabled(true);
    inbox_obs::reset();
    let serve_cfg = ServeConfig {
        audit_sample: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(49, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    {
        let _fp = FailGuard::new("serve.audit.queue_full", Trigger::Always);
        for u in 0..5 {
            let rec = service
                .recommend(UserId(u), 5)
                .expect("shedding audit copies must never shed requests");
            let expected = service.engine().oracle(UserId(u), 5).unwrap();
            assert_eq!(
                rec.items, expected.items,
                "audit shed must not change answers"
            );
        }
    }
    service.shutdown();
    let snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert_eq!(snap.sampled, 5, "1-in-1 sampling must tally every answer");
    assert_eq!(snap.shed, 5, "every sampled copy must be counted as shed");
    assert_eq!(snap.audited, 0, "shed copies must never reach the oracle");
    assert!(
        !snap.degraded,
        "shedding must not trip the degradation latch"
    );
    assert!(
        inbox_obs::prometheus_text().contains("inbox_audit_degraded 0"),
        "the degradation gauge must stay defined while shedding"
    );
}

/// A stalled audit worker backs the *audit* queue up; `/recommend` must
/// not block behind it, and the drained backlog still audits clean.
#[test]
fn audit_stall_backlogs_without_blocking_serving() {
    let _serial = serial();
    inbox_obs::set_enabled(true);
    inbox_obs::reset();
    let serve_cfg = ServeConfig {
        audit_sample: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(50, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    let stall = Duration::from_millis(750);
    let _fp = FailGuard::new("serve.audit.stall", Trigger::DelayOnce(stall));
    let t0 = Instant::now();
    for i in 0..8u32 {
        service
            .recommend(UserId(i % 4), 5)
            .expect("a stalled auditor must not block serving");
    }
    assert!(
        t0.elapsed() < stall,
        "requests must complete while the audit worker sleeps"
    );
    // Shutdown drains the backlog through the oracle — exact serving must
    // audit perfectly clean even for samples that sat behind the stall.
    service.shutdown();
    let snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert_eq!(snap.sampled, 8);
    assert_eq!(
        snap.audited + snap.stale + snap.shed,
        snap.sampled,
        "the drain must account for every sampled answer"
    );
    assert!(
        snap.audited >= 1,
        "the stalled backlog must still be audited"
    );
    assert!(snap.recall == 1.0, "exact serving must audit clean");
}

/// A panicking audit worker dies alone: serving continues bit-exact, the
/// backlog just stops draining, and shutdown joins the dead thread
/// without hanging.
#[test]
fn audit_panic_kills_worker_not_serving() {
    let _serial = serial();
    inbox_obs::set_enabled(true);
    inbox_obs::reset();
    let serve_cfg = ServeConfig {
        audit_sample: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(52, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    let _fp = FailGuard::new("serve.audit.panic", Trigger::Nth(1));
    service.recommend(UserId(0), 5).unwrap();
    wait_for(
        || failpoints::fired("serve.audit.panic") >= 1,
        "the injected audit-worker panic",
    );
    for u in 1..5 {
        let rec = service
            .recommend(UserId(u), 5)
            .expect("a dead audit worker must not affect serving");
        let expected = service.engine().oracle(UserId(u), 5).unwrap();
        assert_eq!(
            rec.items, expected.items,
            "post-panic answers must stay exact"
        );
    }
    assert!(
        service.audit_backlog() >= 1,
        "samples must pile up behind the dead worker"
    );
    let t0 = Instant::now();
    service.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown must join the dead worker without hanging"
    );
    let snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert!(!snap.degraded, "a dead worker must not trip the latch");
    assert!(
        inbox_obs::prometheus_text().contains("inbox_audit_degraded 0"),
        "the degradation gauge must stay defined after the worker dies"
    );
}

/// Forced degradation end to end: serving through an IVF index that
/// probes a single partition of adversarially clustered geometry misses
/// most of the exact top-k, so the windowed audit recall falls under the
/// floor and the latch trips — and rolling back to exact serving floods
/// the window with clean audits until the latch clears again.
#[test]
fn forced_degradation_trips_and_recovers() {
    let _serial = serial();
    inbox_obs::set_enabled(true);
    inbox_obs::reset();
    let floor = 0.9;
    // Two tight blobs split across 12 partitions: the exact top-20 lives
    // in one blob but spans several partitions, and nprobe=1 sees one.
    let bad_cfg = ServeConfig {
        audit_sample: 1,
        audit_floor: Some(floor),
        index: IndexMode::Ivf {
            nlist: 12,
            nprobe: 1,
        },
        ..ServeConfig::default()
    };
    let (ds, mut model, cfg) = harness::fixture(51);
    harness::cluster_item_points(&mut model, 2, 0.05, 51);
    let engine = inbox_serve::Engine::new(model, cfg, ds.kg.clone(), &ds.train, &bad_cfg);
    assert!(
        engine.index_active().is_some(),
        "the IVF index must build for this fixture"
    );
    let n_users = ds.train.n_users() as u32;
    let bad = Service::start(engine, &bad_cfg);
    for u in 0..n_users {
        bad.recommend(UserId(u), 20).unwrap();
    }
    bad.shutdown(); // drains every sampled answer through the oracle
    let tripped = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert!(
        tripped.audited >= inbox_obs::MIN_ALERT_SAMPLES,
        "the alert needs a populated window, audited {}",
        tripped.audited
    );
    assert!(
        tripped.window_recall < floor,
        "single-probe serving over split clusters must miss exact top-k \
         items, window recall {}",
        tripped.window_recall
    );
    assert!(tripped.degraded, "the degradation latch must trip");
    assert!(tripped.degraded_events >= 1, "the trip must be counted");
    assert!(tripped.burn >= 1, "burn must accumulate while degraded");
    assert!(
        inbox_obs::prometheus_text().contains("inbox_audit_degraded 1"),
        "/metrics must expose the tripped latch"
    );

    // Roll back to exact serving. The monitor is process-global: clean
    // audits flow into the same window until recall climbs over the floor.
    let good_cfg = ServeConfig {
        audit_sample: 1,
        audit_floor: Some(floor),
        ..ServeConfig::default()
    };
    let (_ds2, _cfg2, engine) = harness::engine(51, &good_cfg);
    let good = Service::start(engine, &good_cfg);
    for round in 0..12u32 {
        for u in 0..n_users {
            good.recommend(UserId((u + round) % n_users), 20).unwrap();
        }
    }
    good.shutdown();
    let recovered = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    assert!(
        recovered.window_recall >= floor,
        "clean audits must pull the window back over the floor, recall {}",
        recovered.window_recall
    );
    assert!(!recovered.degraded, "recovery must clear the latch");
    assert_eq!(
        recovered.degraded_events, 1,
        "the clear must not re-count the original trip"
    );
    assert!(
        inbox_obs::prometheus_text().contains("inbox_audit_degraded 0"),
        "/metrics must expose the cleared latch"
    );
}

/// A connection torn after a full parse but before any response byte gives
/// the client a clean EOF — and the server keeps serving the next request.
#[test]
fn torn_response_is_clean_eof_then_recovery() {
    let _serial = serial();
    let serve_cfg = ServeConfig::default();
    let (_ds, _cfg, engine) = harness::engine(48, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let _fp = FailGuard::new("serve.http.torn_response", Trigger::Nth(1));

    let roundtrip = |raw: &str| -> String {
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let request = "GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";

    let torn = roundtrip(request);
    assert!(
        torn.is_empty(),
        "torn connection must be a clean EOF with zero response bytes, got {torn:?}"
    );
    let healthy = roundtrip(request);
    assert!(
        healthy.starts_with("HTTP/1.1 200"),
        "server must keep serving after a torn response, got {healthy:?}"
    );

    http.shutdown();
    service.shutdown();
}

/// A handler that panics drops its one connection, never its worker: with
/// the panic armed for more requests than the pool has workers, every
/// client sees a clean EOF, and `/health` then answers at once.
#[test]
fn handler_panic_drops_the_connection_not_the_worker() {
    let _serial = serial();
    let serve_cfg = ServeConfig::default();
    let (_ds, _cfg, engine) = harness::engine(49, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let read_timeout = Duration::from_secs(10);
    let roundtrip = |raw: &str| -> String {
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream.set_read_timeout(Some(read_timeout)).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    {
        let _fp = FailGuard::new("serve.recommend.panic", Trigger::Always);
        for _ in 0..2 * http.workers() + 1 {
            let torn = roundtrip("GET /recommend?user=0&k=5 HTTP/1.1\r\nConnection: close\r\n\r\n");
            assert!(
                torn.is_empty(),
                "a panicking handler must close its connection cleanly, got {torn:?}"
            );
        }
    }
    assert_eq!(service.queued(), 0, "every unwound request freed its slot");
    let t0 = Instant::now();
    let healthy = roundtrip("GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        healthy.starts_with("HTTP/1.1 200"),
        "the pool must keep serving after handler panics, got {healthy:?}"
    );
    assert!(
        t0.elapsed() < read_timeout / 10,
        "/health took {:?} after the panics",
        t0.elapsed()
    );
    http.shutdown();
    service.shutdown();
}
