//! `inbox-obs`: the workspace's instrumentation layer.
//!
//! Three pieces, all behind one global enable gate ([`set_enabled`]):
//!
//! - **Spans** ([`span`], [`time`]) — scoped wall-clock timers aggregating
//!   into per-name log-scale histograms; query p50/p95/p99 via
//!   [`span_snapshot`] / [`all_spans`].
//! - **Counters** ([`counter`]) — lock-free named event counts for hot paths
//!   (sampled triplets, gradient batches, box intersections, ranked users).
//! - **Value histograms** ([`record_value`]) — dimensionless sample
//!   distributions (in-flight depths, candidate-set sizes) sharing the spans'
//!   log-scale aggregation but kept in their own namespace.
//! - **Telemetry** ([`telemetry`]) — structured [`EpochRecord`] events fanned
//!   out to pluggable sinks: console (leveled), JSONL file, in-memory capture.
//! - **Failpoints** ([`failpoints`]) — deterministic fault-injection sites
//!   for chaos testing, compiled to no-ops unless an instrumented crate is
//!   built with its `failpoints` feature.
//! - **Windows** ([`window`]) — sliding last-10s/last-60s aggregation over
//!   every span and value histogram, plus opt-in [`rate_counter`]s, so the
//!   registry answers "right now" as well as "since boot".
//! - **Traces** ([`trace`]) — request-scoped causal span trees retained in
//!   a flight recorder, propagated through thread boundaries explicitly or
//!   via a thread-local context ([`ctx_span`]).
//! - **SLOs** ([`slo`]) — per-endpoint good/total tracking against a
//!   latency objective, with windowed burn rates.
//! - **Exposition** ([`expo`]) — the registry rendered as Prometheus text
//!   and flight-recorder JSON for live `GET /metrics` / `GET /traces`.
//! - **Allocation accounting** ([`alloc`]) — an opt-in instrumented
//!   global allocator attributing alloc count/bytes to labeled scopes
//!   ([`alloc_scope`]), making "allocation-free steady state" a
//!   runtime-checkable invariant.
//! - **Contention accounting** ([`lock`]) — [`ObsMutex`]/[`ObsRwLock`]
//!   wrappers recording wait/hold-time histograms and contention counters
//!   per named lock.
//! - **Profiler** ([`profile`]) — the flight recorder's span trees folded
//!   into flamegraph-compatible folded-stack text for `GET /profile`.
//! - **Audit** ([`audit`]) — shadow-oracle ranking-quality series
//!   (recall@k / agreement@k / rank displacement, cumulative and windowed)
//!   with a latched degradation alert against a configured recall floor.
//! - **Drift** ([`drift`]) — PSI-style divergence of live distributions
//!   against startup reference snapshots, plus named drift gauges.
//!
//! Everything is process-global by design: instrumented crates call free
//! functions and never thread handles through their APIs, so adding or
//! removing a probe is a one-line change at the probe site.

#![warn(missing_docs)]

pub mod alloc;
pub mod audit;
pub mod drift;
pub mod expo;
pub mod failpoints;
pub mod histogram;
pub mod lock;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use alloc::{
    all_alloc_scopes, alloc_scope, alloc_scope_stats, alloc_totals, alloc_tracking, alloc_window,
    allocator_installed, assert_alloc_free, count_allocs, reset_alloc_stats, set_alloc_tracking,
    AllocScopeGuard, InstrumentedAlloc, ScopeAllocStats, MAX_ALLOC_SCOPES,
};
pub use audit::{
    audit_degraded, audit_floor, audit_snapshot, note_audit_sampled, note_audit_shed,
    note_audit_stale, record_audit, set_audit_floor, AuditObservation, AuditSnapshot,
    ALERT_WINDOW_SECS, MIN_ALERT_SAMPLES,
};
pub use drift::{
    all_drift_stats, drift_stat, psi, psi_vs_reference, reference, set_drift_stat, set_reference,
    PSI_EPS,
};
pub use expo::{prometheus_text, trace_dump, traces_json, TraceDump};
pub use histogram::{HistogramBuckets, HistogramSnapshot, LogHistogram};
pub use lock::{ObsMutex, ObsMutexGuard, ObsReadGuard, ObsRwLock, ObsWriteGuard};
pub use profile::{folded_stacks, folded_text};
pub use registry::{
    all_counters, all_spans, all_values, all_windowed_counters, all_windowed_spans,
    all_windowed_values, counter, counter_value, counter_window_sum, enabled, rate_counter,
    record_duration, record_value, reset, set_enabled, span, span_snapshot, time, value_buckets,
    value_snapshot, windowed_span, windowed_value, windowed_value_buckets, Counter, RateCounter,
    SpanGuard,
};
pub use slo::{all_slos, slo, slo_snapshot, Slo, SloSnapshot};
pub use telemetry::{
    add_sink, clear_sinks, emit_epoch, emit_run_summary, emit_trace, flush_sinks, next_run_id,
    BoxHealth, CaptureSink, ConsoleSink, CounterSummary, EpochRecord, JsonlSink, RunSummary, Sink,
    SpanSummary, TelemetryEvent, ValueSummary, Verbosity, WindowedSummary,
};
pub use trace::{
    clear_traces, ctx_span, force_trace, notable_traces, recent_traces, set_slow_threshold,
    set_trace_sampling, start_trace, with_context, ActiveTrace, CtxSpan, TraceId, TraceOutcome,
    TraceRecord, TraceSpan, TraceSpanGuard,
};
pub use window::{now_sec, WindowedHistogram, WindowedSnapshot};
