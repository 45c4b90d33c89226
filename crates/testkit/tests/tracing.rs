//! Trace coverage: the span-name inventory in [`inbox_testkit::sites`]
//! must match the spans actually opened by `inbox-serve` sources, and —
//! with failpoints armed — a shed request must leave a truncated-but-
//! coherent trace tree in the notable ring.

use std::collections::BTreeSet;
use std::path::Path;

use inbox_testkit::sites;

/// Collects every span name opened under `dir` (recursive): arguments of
/// `ctx_span("…")`, `.span("…")`, `open_span("…")`, and `start_trace("…")`.
fn scan_span_names(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_span_names(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for needle in ["span(\"", "start_trace(\""] {
                let mut rest = text.as_str();
                while let Some(at) = rest.find(needle) {
                    rest = &rest[at + needle.len()..];
                    let end = rest.find('"').expect("unterminated span name");
                    out.insert(rest[..end].to_string());
                }
            }
        }
    }
}

/// Direction audit, like the failpoint one: every span the serving sources
/// can open is in `sites::TRACE_SPANS`, and every listed name has a call
/// site. A span nobody lists is untested tracing; a listed span nobody
/// opens is a stale inventory.
#[test]
fn trace_span_inventory_matches_serve_sources() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_source = BTreeSet::new();
    scan_span_names(&manifest.join("../serve/src"), &mut in_source);
    let listed: BTreeSet<String> = sites::TRACE_SPANS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        in_source, listed,
        "span-opening call sites in serve sources must match sites::TRACE_SPANS exactly"
    );
}

#[cfg(feature = "failpoints")]
mod shed {
    use std::sync::Arc;

    use inbox_kg::UserId;
    use inbox_obs::TraceOutcome;
    use inbox_serve::{ServeConfig, Service};
    use inbox_testkit::harness;
    use inbox_testkit::{FailGuard, Trigger};

    /// A shed request's trace: admission happened, the engine stages
    /// never ran, the outcome is `Shed`, and the notable ring
    /// retained it.
    #[test]
    fn shed_request_leaves_a_truncated_tree_in_the_notable_ring() {
        inbox_obs::set_enabled(true);
        inbox_obs::set_trace_sampling(1);
        let serve_cfg = ServeConfig::default();
        let (_ds, _cfg, engine) = harness::engine(91, &serve_cfg);
        let service = Arc::new(Service::start(engine, &serve_cfg));

        let trace = inbox_obs::start_trace("http.request").expect("tracing armed");
        let id = trace.id().0;
        {
            let _fp = FailGuard::new("serve.admit.full", Trigger::Always);
            let err = service
                .recommend_traced(UserId(0), 5, &trace)
                .expect_err("armed admit.full must shed");
            assert!(matches!(err, inbox_serve::ServeError::Overloaded));
        }
        let record = trace.finish(TraceOutcome::Shed);
        service.shutdown();

        assert_eq!(record.outcome, TraceOutcome::Shed);
        let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(record.spans[0].name, "http.request");
        assert!(names.contains(&"serve.admit"), "{names:?}");
        for never_reached in ["engine.recommend", "engine.resolve_box"] {
            assert!(
                !names.contains(&never_reached),
                "shed request must not reach {never_reached}: {names:?}"
            );
        }
        let admit = record
            .spans
            .iter()
            .find(|s| s.name == "serve.admit")
            .unwrap();
        assert_eq!(admit.parent, Some(0));
        assert!(admit.dur_ns > 0, "admit span never closed");

        assert!(
            inbox_obs::notable_traces().iter().any(|t| t.id == id),
            "shed trace missing from the notable ring"
        );
        assert!(
            inbox_obs::recent_traces().iter().any(|t| t.id == id),
            "shed trace missing from the recent ring"
        );
    }
}
