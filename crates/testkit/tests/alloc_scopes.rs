//! Allocation-scope coverage, mirroring the failpoint and trace-span
//! audits: the label inventory in [`inbox_testkit::sites::ALLOC_SCOPES`]
//! must match the `alloc_scope("…")` call sites in the instrumented
//! crates' sources, and a real train + serve run must register every
//! listed label in the live registry (scope registration is unconditional,
//! so this holds even without the instrumented allocator installed).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use inbox_core::{train, InBoxConfig};
use inbox_kg::UserId;
use inbox_serve::{ServeConfig, Service};
use inbox_testkit::{harness, sites};

/// Collects every `alloc_scope("name")` occurrence under `dir` (recursive).
fn scan_alloc_scopes(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_alloc_scopes(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("alloc_scope(\"") {
                rest = &rest[at + "alloc_scope(\"".len()..];
                let end = rest.find('"').expect("unterminated alloc scope name");
                out.insert(rest[..end].to_string());
            }
        }
    }
}

/// Direction 1: every `alloc_scope` call site in core+serve sources is in
/// the inventory and vice versa.
#[test]
fn alloc_scope_inventory_matches_sources() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_source = BTreeSet::new();
    for crate_src in ["../core/src", "../serve/src"] {
        scan_alloc_scopes(&manifest.join(crate_src), &mut in_source);
    }
    let listed: BTreeSet<String> = sites::ALLOC_SCOPES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        in_source, listed,
        "alloc_scope(…) call sites in core+serve sources must match sites::ALLOC_SCOPES exactly"
    );
}

/// Direction 2: a tiny end-to-end run (train + serving) enters every
/// listed scope, so the registry knows them all afterwards. Serving runs
/// both ranking paths and both candidate-generation modes: box-backed
/// users enter `engine.candidates`/`engine.rerank` (under full sort and
/// IVF), and user 0, whose history is dropped, enters `engine.rank`.
#[test]
fn end_to_end_run_registers_every_listed_scope() {
    let ds = harness::tiny_dataset(93);
    let trained = train(&ds, InBoxConfig::tiny_test());
    let serve_cfg = ServeConfig::default();
    let train_cold = harness::with_cold_users(&ds.train, 1);
    let engine = inbox_serve::Engine::from_trained(trained, ds.kg.clone(), &train_cold, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    for u in 0..ds.train.n_users().min(4) as u32 {
        service.recommend(UserId(u), 5).expect("served answer");
    }
    service.shutdown();

    let ivf_cfg = ServeConfig {
        index: inbox_serve::IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
        ..ServeConfig::default()
    };
    let trained = train(&ds, InBoxConfig::tiny_test());
    let indexed = inbox_serve::Engine::from_trained(trained, ds.kg.clone(), &ds.train, &ivf_cfg);
    assert!(indexed.index_active().is_some(), "IVF build must succeed");
    for u in 0..ds.train.n_users().min(4) as u32 {
        indexed.recommend_now(UserId(u), 5).expect("indexed answer");
    }

    let registered: BTreeSet<String> = inbox_obs::all_alloc_scopes()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for &scope in sites::ALLOC_SCOPES {
        assert!(
            registered.contains(scope),
            "scope {scope} never registered during the end-to-end run; saw {registered:?}"
        );
    }
}

#[cfg(feature = "failpoints")]
mod stall {
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    use inbox_obs::ObsMutex;
    use inbox_testkit::{FailGuard, Trigger};

    /// A failpoint-forced stall while the lock is held must surface in the
    /// wait histogram and the contention counter — the exact signal the
    /// wrappers exist to produce. Uses a test-local site name: the
    /// registry-vs-inventory audit is per-binary (`tests/coverage.rs`), so
    /// an ad-hoc site here is legal.
    #[test]
    fn forced_stall_lands_in_the_wait_histogram() {
        inbox_obs::set_enabled(true);
        let lock = Arc::new(ObsMutex::new("testkit.stall", 0u32));
        let gate = Arc::new(Barrier::new(2));
        let _fp = FailGuard::new(
            "testkit.lock.stall",
            Trigger::DelayOnce(Duration::from_millis(25)),
        );
        let holder = {
            let lock = Arc::clone(&lock);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut g = lock.lock().unwrap();
                *g += 1;
                gate.wait();
                // Stall for 25ms *while holding the lock*.
                let _ = inbox_obs::failpoint!("testkit.lock.stall");
            })
        };
        gate.wait();
        let contended_before = inbox_obs::counter_value("lock.testkit.stall.contended");
        let g = lock.lock().unwrap();
        assert_eq!(*g, 1);
        drop(g);
        holder.join().expect("holder thread");

        let wait = inbox_obs::span_snapshot("lock.testkit.stall.wait").expect("wait series");
        assert!(wait.count >= 2, "both acquisitions recorded");
        assert!(
            wait.p99 >= 10_000_000,
            "a 25ms stalled acquisition must dominate the wait histogram; p99 {} ns",
            wait.p99
        );
        assert!(
            inbox_obs::counter_value("lock.testkit.stall.contended") > contended_before,
            "the stalled acquisition did not count as contended"
        );
    }
}
