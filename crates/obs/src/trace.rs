//! Request-scoped tracing: causal span trees per request, retained in a
//! flight recorder.
//!
//! The registry's histograms aggregate *across* requests; a trace explains
//! *one* request. A [`TraceId`] is minted where a request enters the
//! process (HTTP accept), and an [`ActiveTrace`] handle travels with it —
//! explicitly where the code already passes request state (the HTTP
//! handler, service admission), and implicitly through a thread-local context
//! ([`with_context`] / [`ctx_span`]) where it does not (the `Engine`
//! internals keep their signatures). Every span records its parent, its
//! start offset from the trace's birth, and its duration, so the finished
//! [`TraceRecord`] is a complete parent/child tree of where the time went.
//!
//! Finished traces land in the **flight recorder**: two fixed-size rings
//! of `Arc<TraceRecord>` slots with a monotonically claimed cursor. The
//! *recent* ring retains the last N traces regardless of outcome; the
//! *notable* ring retains only shed/error/slow traces so a burst of boring
//! traffic cannot evict the one request an operator needs to see.
//! Admission is one `fetch_add` plus an uncontended pointer swap — no
//! allocation, no global lock. Error traces are additionally pushed to the
//! telemetry sinks the moment they finish, so a `ServeError` always leaves
//! a dump behind even if nobody polls `/traces`.
//!
//! Sampling: [`set_trace_sampling`] keeps 1-in-N requests (default 1 =
//! every request). A sampled-out request pays one relaxed `fetch_add` and
//! carries no trace.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Traces kept in the recent ring (any outcome).
pub const RECENT_TRACES: usize = 64;

/// Traces kept in the notable ring (shed / error / slow only).
pub const NOTABLE_TRACES: usize = 64;

/// Unique id of one traced request, process-monotonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

/// How a traced request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOutcome {
    /// Completed normally under the slow threshold.
    Ok,
    /// Rejected at admission (in-flight cap reached).
    Shed,
    /// Ended in a `ServeError`.
    Error,
    /// Completed, but slower than the configured threshold.
    Slow,
}

impl TraceOutcome {
    /// Lower-case label, used in counter names and exposition.
    pub fn label(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Error => "error",
            TraceOutcome::Slow => "slow",
        }
    }
}

/// One finished span inside a [`TraceRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Index of this span within the trace (0 is the root).
    pub id: u32,
    /// Index of the parent span, `None` for the root.
    pub parent: Option<u32>,
    /// Span name, e.g. `engine.rerank`.
    pub name: String,
    /// Offset of the span's start from the trace's birth, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds. Zero if the span never closed (the
    /// request finished while it was open — itself a finding).
    pub dur_ns: u64,
}

/// A finished request trace: the causal span tree plus the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The request's [`TraceId`].
    pub id: u64,
    /// What kind of request this was (root span name, e.g. `http.request`).
    pub kind: String,
    /// How the request ended.
    pub outcome: TraceOutcome,
    /// End-to-end duration, nanoseconds.
    pub total_ns: u64,
    /// All spans, in open order; `spans[0]` is the root.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// The direct children of span `id`, in open order.
    pub fn children(&self, id: u32) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }
}

// ---- the live side -------------------------------------------------------

struct SpanSlot {
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: u64,
}

struct TraceInner {
    id: u64,
    kind: &'static str,
    start: Instant,
    spans: Mutex<Vec<SpanSlot>>,
}

/// Handle to an in-flight trace. Clones share the same span tree; the
/// handle is `Send`, so it can cross thread boundaries with the request
/// it describes.
#[derive(Clone)]
pub struct ActiveTrace {
    inner: Arc<TraceInner>,
}

impl ActiveTrace {
    /// The trace's id.
    pub fn id(&self) -> TraceId {
        TraceId(self.inner.id)
    }

    /// Nanoseconds since the trace was born.
    fn offset_ns(&self) -> u64 {
        self.inner
            .start
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span under `parent`, returning its index. Close it with
    /// [`close_span`](ActiveTrace::close_span) — or prefer the guard from
    /// [`span`](ActiveTrace::span).
    pub fn open_span(&self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.offset_ns();
        let mut spans = self.inner.spans.lock();
        let id = spans.len() as u32;
        spans.push(SpanSlot {
            name,
            parent,
            start_ns,
            dur_ns: 0,
        });
        id
    }

    /// Closes a span opened with [`open_span`](ActiveTrace::open_span).
    pub fn close_span(&self, id: u32) {
        let now = self.offset_ns();
        let mut spans = self.inner.spans.lock();
        if let Some(slot) = spans.get_mut(id as usize) {
            slot.dur_ns = now.saturating_sub(slot.start_ns);
        }
    }

    /// Opens a span under `parent` that closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u32>) -> TraceSpanGuard {
        TraceSpanGuard {
            trace: self.clone(),
            id: self.open_span(name, parent),
        }
    }

    /// Finishes the trace: stamps the outcome (promoting `Ok` to `Slow`
    /// past the [`set_slow_threshold`] threshold), retains the record in
    /// the flight recorder, and — for errors — pushes it to the telemetry
    /// sinks. Returns the finished record.
    pub fn finish(self, outcome: TraceOutcome) -> Arc<TraceRecord> {
        let total_ns = self.offset_ns();
        let outcome = match outcome {
            TraceOutcome::Ok if total_ns >= slow_threshold_ns() => TraceOutcome::Slow,
            other => other,
        };
        let spans = self
            .inner
            .spans
            .lock()
            .iter()
            .enumerate()
            .map(|(i, s)| TraceSpan {
                id: i as u32,
                parent: s.parent,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                // The root span spans the whole request; close it here.
                // Any *other* still-open span keeps dur 0 — a finding.
                dur_ns: if i == 0 && s.dur_ns == 0 {
                    total_ns.saturating_sub(s.start_ns)
                } else {
                    s.dur_ns
                },
            })
            .collect();
        let record = Arc::new(TraceRecord {
            id: self.inner.id,
            kind: self.inner.kind.to_string(),
            outcome,
            total_ns,
            spans,
        });
        match outcome {
            TraceOutcome::Ok => crate::counter("trace.finish.ok").incr(),
            TraceOutcome::Shed => crate::counter("trace.finish.shed").incr(),
            TraceOutcome::Error => crate::counter("trace.finish.error").incr(),
            TraceOutcome::Slow => crate::counter("trace.finish.slow").incr(),
        }
        recorder().recent.admit(Arc::clone(&record));
        if outcome != TraceOutcome::Ok {
            recorder().notable.admit(Arc::clone(&record));
        }
        if outcome == TraceOutcome::Error {
            crate::telemetry::emit_trace(&record);
        }
        record
    }
}

/// Closes its span on drop. Obtained from [`ActiveTrace::span`].
#[must_use = "a trace span measures until dropped"]
pub struct TraceSpanGuard {
    trace: ActiveTrace,
    id: u32,
}

impl TraceSpanGuard {
    /// Index of the guarded span — pass as `parent` when opening children.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        self.trace.close_span(self.id);
    }
}

// ---- minting and knobs ---------------------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);
/// Keep 1-in-N requests; 1 keeps everything, 0 disables tracing outright.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
/// Ok traces at or above this many nanoseconds finish as [`TraceOutcome::Slow`].
static SLOW_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Starts a trace whose root span is `kind`, or `None` when instrumentation
/// is disabled or sampling skipped this request. The root span (index 0)
/// is open until [`ActiveTrace::finish`].
pub fn start_trace(kind: &'static str) -> Option<ActiveTrace> {
    if !crate::enabled() {
        return None;
    }
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return None;
    }
    if every > 1
        && !SAMPLE_TICK
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    {
        return None;
    }
    let trace = ActiveTrace {
        inner: Arc::new(TraceInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            kind,
            start: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(8)),
        }),
    };
    trace.open_span(kind, None);
    Some(trace)
}

/// Starts a trace unconditionally, bypassing 1-in-N sampling (the global
/// enable flag still applies). For rare, always-notable events — e.g. the
/// audit worker recording a mismatched request — where losing the record
/// to request sampling would defeat the point of recording it.
pub fn force_trace(kind: &'static str) -> Option<ActiveTrace> {
    if !crate::enabled() {
        return None;
    }
    let trace = ActiveTrace {
        inner: Arc::new(TraceInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            kind,
            start: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(8)),
        }),
    };
    trace.open_span(kind, None);
    Some(trace)
}

/// Keeps 1-in-`every` requests (1 = trace everything, 0 = trace nothing).
pub fn set_trace_sampling(every: u64) {
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Ok traces lasting at least this long finish as [`TraceOutcome::Slow`]
/// and are retained in the notable ring.
pub fn set_slow_threshold(threshold: Duration) {
    SLOW_NS.store(
        threshold.as_nanos().min(u128::from(u64::MAX)) as u64,
        Ordering::Relaxed,
    );
}

fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

// ---- thread-local context ------------------------------------------------

thread_local! {
    static CONTEXT: RefCell<Option<(ActiveTrace, u32)>> = const { RefCell::new(None) };
}

/// Runs `f` with `(trace, parent)` as the thread's current trace context,
/// so [`ctx_span`] calls inside `f` attach to that parent. The previous
/// context is restored afterwards. Call this in whatever thread executes
/// the work — the context does not cross thread boundaries by itself.
pub fn with_context<T>(trace: &ActiveTrace, parent: u32, f: impl FnOnce() -> T) -> T {
    let prev = CONTEXT.with(|c| c.replace(Some((trace.clone(), parent))));
    struct Restore(Option<(ActiveTrace, u32)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CONTEXT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Opens a span under the thread's current trace context, or returns
/// `None` (for free) when no trace is in scope. While the guard lives,
/// nested [`ctx_span`] calls become its children.
pub fn ctx_span(name: &'static str) -> Option<CtxSpan> {
    CONTEXT.with(|c| {
        let mut ctx = c.borrow_mut();
        let (trace, parent) = ctx.as_ref()?;
        let trace = trace.clone();
        let prev_parent = *parent;
        let id = trace.open_span(name, Some(prev_parent));
        ctx.as_mut().expect("context vanished").1 = id;
        Some(CtxSpan {
            trace,
            id,
            prev_parent,
        })
    })
}

/// Closes its context span on drop, restoring the enclosing parent.
#[must_use = "a trace span measures until dropped"]
pub struct CtxSpan {
    trace: ActiveTrace,
    id: u32,
    prev_parent: u32,
}

impl Drop for CtxSpan {
    fn drop(&mut self) {
        self.trace.close_span(self.id);
        CONTEXT.with(|c| {
            if let Some((t, parent)) = c.borrow_mut().as_mut() {
                if Arc::ptr_eq(&t.inner, &self.trace.inner) {
                    *parent = self.prev_parent;
                }
            }
        });
    }
}

// ---- flight recorder -----------------------------------------------------

struct Ring {
    slots: Vec<Mutex<Option<Arc<TraceRecord>>>>,
    cursor: AtomicU64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn admit(&self, record: Arc<TraceRecord>) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[at].lock() = Some(record);
    }

    fn dump(&self) -> Vec<Arc<TraceRecord>> {
        let mut out: Vec<Arc<TraceRecord>> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        // Slot order is admission order modulo wraparound; present newest
        // last by the monotonic trace id instead.
        out.sort_by_key(|r| r.id);
        out
    }

    fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
        self.cursor.store(0, Ordering::Relaxed);
    }
}

struct Recorder {
    recent: Ring,
    notable: Ring,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        recent: Ring::new(RECENT_TRACES),
        notable: Ring::new(NOTABLE_TRACES),
    })
}

/// The last [`RECENT_TRACES`] finished traces, oldest first.
pub fn recent_traces() -> Vec<Arc<TraceRecord>> {
    recorder().recent.dump()
}

/// Retained shed/error/slow traces, oldest first.
pub fn notable_traces() -> Vec<Arc<TraceRecord>> {
    recorder().notable.dump()
}

/// Empties both flight-recorder rings (part of [`crate::reset`]).
pub fn clear_traces() {
    recorder().recent.clear();
    recorder().notable.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global and tests run concurrently, so tests
    // assert on their own trace ids/records, never on ring emptiness.

    #[test]
    fn spans_form_a_parent_child_tree() {
        let trace = start_trace("test.request").unwrap();
        {
            let admit = trace.span("test.admit", Some(0));
            let _inner = trace.span("test.engine", Some(admit.id()));
        }
        let record = trace.finish(TraceOutcome::Ok);
        assert_eq!(record.spans.len(), 3);
        assert_eq!(record.spans[0].name, "test.request");
        assert_eq!(record.spans[0].parent, None);
        assert_eq!(record.spans[1].parent, Some(0));
        assert_eq!(record.spans[2].parent, Some(1));
        assert_eq!(record.children(0).len(), 1);
        // Closed spans carry durations; start offsets are monotone.
        assert!(record.spans[1].start_ns <= record.spans[2].start_ns);
    }

    #[test]
    fn ctx_spans_nest_through_the_thread_local() {
        let trace = start_trace("test.ctx").unwrap();
        with_context(&trace, 0, || {
            let outer = ctx_span("test.outer").unwrap();
            {
                let _inner = ctx_span("test.inner").unwrap();
            }
            let sibling = ctx_span("test.sibling").unwrap();
            drop(sibling);
            drop(outer);
        });
        let record = trace.finish(TraceOutcome::Ok);
        let by_name = |n: &str| record.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("test.outer").parent, Some(0));
        assert_eq!(by_name("test.inner").parent, Some(by_name("test.outer").id));
        // After inner closed, the parent slot was restored to outer.
        assert_eq!(
            by_name("test.sibling").parent,
            Some(by_name("test.outer").id)
        );
    }

    #[test]
    fn ctx_span_is_free_without_a_context() {
        assert!(ctx_span("test.orphan").is_none());
    }

    #[test]
    fn context_crosses_into_worker_closures_explicitly() {
        let trace = start_trace("test.pool").unwrap();
        let handoff = (trace.clone(), 0u32);
        std::thread::scope(|s| {
            s.spawn(move || {
                let (trace, parent) = handoff;
                with_context(&trace, parent, || {
                    let _g = ctx_span("test.pool.score").unwrap();
                });
            });
        });
        let record = trace.finish(TraceOutcome::Ok);
        assert!(record.spans.iter().any(|s| s.name == "test.pool.score"));
    }

    #[test]
    fn shed_traces_are_notable_ok_traces_are_not() {
        let shed = start_trace("test.shed").unwrap();
        let shed_id = shed.id().0;
        shed.finish(TraceOutcome::Shed);
        let ok = start_trace("test.fine").unwrap();
        let ok_id = ok.id().0;
        ok.finish(TraceOutcome::Ok);
        assert!(notable_traces().iter().any(|r| r.id == shed_id));
        assert!(!notable_traces().iter().any(|r| r.id == ok_id));
        assert!(recent_traces().iter().any(|r| r.id == ok_id));
    }

    #[test]
    fn records_round_trip_through_json() {
        let trace = start_trace("test.json").unwrap();
        {
            let _g = trace.span("test.json.child", Some(0));
        }
        let record = trace.finish(TraceOutcome::Error);
        let text = serde_json::to_string(&*record).unwrap();
        let back: TraceRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, *record);
    }

    #[test]
    fn ring_keeps_only_the_newest() {
        let ring = Ring::new(4);
        let mut last = 0;
        for i in 0..10u64 {
            last = i;
            ring.admit(Arc::new(TraceRecord {
                id: i,
                kind: "t".into(),
                outcome: TraceOutcome::Ok,
                total_ns: 0,
                spans: Vec::new(),
            }));
        }
        let kept = ring.dump();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept.last().unwrap().id, last);
        assert!(kept.first().unwrap().id >= 6);
        ring.clear();
        assert!(ring.dump().is_empty());
    }
}
