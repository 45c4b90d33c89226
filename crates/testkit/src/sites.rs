//! The authoritative inventories of failpoint sites, request-trace span
//! names, and allocation-scope labels compiled into the workspace.
//!
//! The coverage suite (`tests/coverage.rs`) asserts two directions against
//! these lists: every site here fires at least once under the chaos tests,
//! and every `failpoint!` call site in the instrumented crates' sources
//! appears here — and likewise every trace-span name opened in
//! `inbox-serve` appears in [`TRACE_SPANS`]. Adding a site to the code
//! without listing it (or vice versa) fails CI.

/// Every failpoint site in the workspace, sorted by name.
pub const ALL: &[&str] = &[
    // index::IvfIndex::build — abort index construction while finalising
    // a partition; serve must degrade to full-sort, never crash.
    "index.build_partition",
    // core::persist::load — fail the read with an injected I/O error
    // before the file is touched.
    "persist.load.io",
    // core::persist::load — drop the second half of the bytes read,
    // simulating a short read of a checkpoint.
    "persist.load.truncate",
    // core::persist::save — write only the first half of the document,
    // simulating a crash mid-write.
    "persist.save.truncate",
    // serve::admission::Admission::admit — report the in-flight cap as
    // reached regardless of occupancy, forcing a shed.
    "serve.admit.full",
    // serve::audit::worker_loop — panic the audit worker thread before
    // it processes a dequeued sample; serving must be unaffected.
    "serve.audit.panic",
    // serve::audit::offer — report the audit queue as full regardless of
    // occupancy, forcing the sampler to shed the copy.
    "serve.audit.queue_full",
    // serve::audit::worker_loop — stall the audit worker (pure delay)
    // before each sample is re-ranked; backlog grows, serving does not.
    "serve.audit.stall",
    // serve::engine::resolve_box — skip caching a freshly built box,
    // simulating eviction racing the insert.
    "serve.cache.evict",
    // serve::http::handle_connection — drop the connection after
    // parsing, before any response byte (client sees clean EOF).
    "serve.http.torn_response",
    // serve::Service::recommend — panic the caller after admission; its
    // slot must be released as it unwinds.
    "serve.recommend.panic",
    // serve::Service::recommend — stall the caller after admission (pure
    // delay), holding its in-flight slot.
    "serve.recommend.stall",
];

/// Every span name that can appear in a request trace's tree, sorted by
/// name. The coverage suite source-scans `inbox-serve` for span-opening
/// calls and fails when either direction drifts.
pub const TRACE_SPANS: &[&str] = &[
    // Box cache hit marker (zero-duration leaf under resolve_box).
    "engine.cache_hit",
    // Candidate generation for box-backed users: probe selection over the
    // index partitions (one partition under full sort).
    "engine.candidates",
    // Cold users: mask-and-top-K over the popularity vector.
    "engine.rank",
    // Interest-box forward pass on a cache miss.
    "engine.rebuild",
    // Whole engine answer for one request.
    "engine.recommend",
    // Box-pruned exact re-rank of the probed partitions' members.
    "engine.rerank",
    // Cache lookup + lazy rebuild.
    "engine.resolve_box",
    // Request-head parse on the pool worker serving the connection.
    "http.parse",
    // Root span: one per accepted connection.
    "http.request",
    // Response serialisation + socket write.
    "http.write",
    // In-flight admission: the closed check and the shed decision.
    "serve.admit",
];

/// Every allocation-scope label registered by the instrumented crates
/// (`inbox_obs::alloc_scope` call sites in `inbox-core` and `inbox-serve`),
/// sorted by name. The audit suite (`tests/alloc_scopes.rs`) source-scans
/// both crates and checks the runtime registry so that a scope nobody
/// lists — or a listed scope nobody enters — fails CI.
pub const ALLOC_SCOPES: &[&str] = &[
    // serve::engine::recommend_now — probe selection for box-backed users
    // into per-thread scratch (allocation-free at steady state).
    "engine.candidates",
    // serve::engine::recommend_now — cold users' popularity mask-and-top-K
    // into per-thread scratch (allocation-free at steady state).
    "engine.rank",
    // serve::engine::resolve_box — interest-box forward pass on a cache
    // miss (allocates freely; attributed, not bounded).
    "engine.rebuild",
    // serve::engine::recommend_now — box-pruned exact re-rank into per-
    // thread scratch (allocation-free at steady state).
    "engine.rerank",
    // core::trainer — the three training-stage epoch loops.
    "trainer.stage1",
    "trainer.stage2",
    "trainer.stage3",
];

#[cfg(test)]
mod tests {
    use super::{ALL, ALLOC_SCOPES, TRACE_SPANS};

    #[test]
    fn inventory_is_sorted_and_unique() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
        for pair in TRACE_SPANS.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
        for pair in ALLOC_SCOPES.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
    }
}
