//! Global span/counter registry.
//!
//! Spans aggregate wall-clock durations into per-name [`LogHistogram`]s;
//! counters are plain atomics. Both live in a process-wide registry so
//! instrumentation can be dropped into any crate without threading handles
//! through APIs. The whole layer sits behind one atomic enable gate:
//! when disabled, [`span`] does not even read the clock, so instrumented
//! code pays a single relaxed atomic load per call site.
//!
//! Every span and value histogram records into two aggregations at once:
//! the cumulative-since-boot [`LogHistogram`] and a sliding
//! [`WindowedHistogram`], so each name answers both "over the whole run"
//! and "over the last 10/60 seconds" ([`windowed_span`],
//! [`all_windowed_spans`], …). Plain [`counter`]s stay a single
//! `fetch_add` — training hot loops increment them per-sample — while
//! call sites that want rates opt in via [`rate_counter`], which feeds a
//! windowed ring alongside the same cumulative cell.

use crate::histogram::{HistogramSnapshot, LogHistogram};
use crate::window::{self, WindowedHistogram, WindowedSnapshot};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the whole instrumentation layer on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One named duration/value series: cumulative histogram + sliding window,
/// recorded together.
#[derive(Default)]
struct TimedCell {
    hist: LogHistogram,
    windowed: WindowedHistogram,
}

impl TimedCell {
    fn record(&self, value: u64) {
        self.hist.record(value);
        self.windowed.record(value);
    }
}

struct Registry {
    spans: RwLock<HashMap<&'static str, Arc<TimedCell>>>,
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    values: RwLock<HashMap<&'static str, Arc<TimedCell>>>,
    /// Windowed rings for counters that opted in via [`rate_counter`].
    counter_windows: RwLock<HashMap<&'static str, Arc<window::WindowedCounter>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        spans: RwLock::new(HashMap::new()),
        counters: RwLock::new(HashMap::new()),
        values: RwLock::new(HashMap::new()),
        counter_windows: RwLock::new(HashMap::new()),
    })
}

fn span_cell(name: &'static str) -> Arc<TimedCell> {
    if let Some(h) = registry().spans.read().get(name) {
        return Arc::clone(h);
    }
    let mut map = registry().spans.write();
    Arc::clone(map.entry(name).or_default())
}

fn value_cell(name: &'static str) -> Arc<TimedCell> {
    if let Some(h) = registry().values.read().get(name) {
        return Arc::clone(h);
    }
    let mut map = registry().values.write();
    Arc::clone(map.entry(name).or_default())
}

fn counter_cell(name: &'static str) -> Arc<AtomicU64> {
    if let Some(c) = registry().counters.read().get(name) {
        return Arc::clone(c);
    }
    let mut map = registry().counters.write();
    Arc::clone(map.entry(name).or_default())
}

fn counter_window(name: &'static str) -> Arc<window::WindowedCounter> {
    if let Some(w) = registry().counter_windows.read().get(name) {
        return Arc::clone(w);
    }
    let mut map = registry().counter_windows.write();
    Arc::clone(
        map.entry(name)
            .or_insert_with(|| Arc::new(window::WindowedCounter::new())),
    )
}

/// Times a region of code; records into the named span histogram on drop.
///
/// Created by [`span`]. Use [`SpanGuard::stop`] when the elapsed time itself
/// is needed; plain drop records without returning it.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    fn elapsed_and_record(&mut self) -> Duration {
        match self.start.take() {
            Some(start) => {
                let elapsed = start.elapsed();
                span_cell(self.name).record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
                elapsed
            }
            None => Duration::ZERO,
        }
    }

    /// Ends the span now, recording it, and returns the elapsed time.
    /// Returns [`Duration::ZERO`] when instrumentation is disabled.
    pub fn stop(mut self) -> Duration {
        self.elapsed_and_record()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.elapsed_and_record();
    }
}

/// Opens a timed span. The measurement ends (and is recorded) when the
/// returned guard drops or is [`SpanGuard::stop`]ped.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Runs `f` inside a span, returning its result and the elapsed time.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let guard = span(name);
    let out = f();
    (out, guard.stop())
}

/// Records a dimensionless sample (batch size, queue depth, list length)
/// into the named value histogram. Same log-scale aggregation as spans, but
/// kept in a separate namespace so consumers never mistake a size
/// distribution for nanoseconds. No-op while instrumentation is disabled.
pub fn record_value(name: &'static str, value: u64) {
    if enabled() {
        value_cell(name).record(value);
    }
}

/// Records an externally measured duration into the named *span* histogram —
/// for latencies that cannot be scoped by a [`SpanGuard`], e.g. a request's
/// end-to-end time measured from enqueue to response across threads.
pub fn record_duration(name: &'static str, duration: Duration) {
    if enabled() {
        span_cell(name).record(duration.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// Snapshot of one value histogram, if it ever recorded.
pub fn value_snapshot(name: &str) -> Option<HistogramSnapshot> {
    registry()
        .values
        .read()
        .get(name)
        .map(|h| h.hist.snapshot())
        .filter(|s| s.count > 0)
}

/// Snapshots of every value histogram that recorded at least once, sorted by
/// name.
pub fn all_values() -> Vec<(String, HistogramSnapshot)> {
    let mut out: Vec<(String, HistogramSnapshot)> = registry()
        .values
        .read()
        .iter()
        .map(|(name, h)| (name.to_string(), h.hist.snapshot()))
        .filter(|(_, s)| s.count > 0)
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A named monotonic counter. Cheap to clone; cache one outside hot loops.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` (no-op while instrumentation is disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Looks up (creating on first use) the named counter.
pub fn counter(name: &'static str) -> Counter {
    Counter {
        cell: counter_cell(name),
    }
}

/// A counter that also feeds a sliding-window ring, so it answers rate
/// queries ("sheds in the last 10 s") alongside the cumulative total. The
/// cumulative side shares the cell of [`counter`] under the same name —
/// `/stats`-style consumers see one number, not two. Each `add` costs two
/// atomic ops plus a clock read; keep it off per-sample training loops.
#[derive(Clone)]
pub struct RateCounter {
    cum: Counter,
    win: Arc<window::WindowedCounter>,
}

impl RateCounter {
    /// Adds `n` to both aggregations (no-op while disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cum.add(n);
            self.win.add(n);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Cumulative value since boot.
    pub fn get(&self) -> u64 {
        self.cum.get()
    }

    /// Events in the last `window` seconds.
    pub fn in_window(&self, window: u64) -> u64 {
        self.win.sum(window)
    }

    /// Events per second over the last `window` seconds.
    pub fn rate(&self, window: u64) -> f64 {
        self.win.rate(window)
    }
}

/// Looks up (creating on first use) the named rate counter. The cumulative
/// side is the same cell [`counter`] returns for this name.
pub fn rate_counter(name: &'static str) -> RateCounter {
    RateCounter {
        cum: counter(name),
        win: counter_window(name),
    }
}

/// Current value of a named counter (0 if never touched).
pub fn counter_value(name: &'static str) -> u64 {
    registry()
        .counters
        .read()
        .get(name)
        .map(|c| c.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Windowed sum of a named counter over the last `window` seconds, if that
/// counter has a windowed ring (i.e. was obtained via [`rate_counter`]).
pub fn counter_window_sum(name: &str, window: u64) -> Option<u64> {
    registry()
        .counter_windows
        .read()
        .get(name)
        .map(|w| w.sum(window))
}

/// Windowed sums of every rate counter, sorted by name.
pub fn all_windowed_counters(window: u64) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = registry()
        .counter_windows
        .read()
        .iter()
        .map(|(name, w)| (name.to_string(), w.sum(window)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Snapshot of one span's histogram, if that span ever recorded.
pub fn span_snapshot(name: &str) -> Option<HistogramSnapshot> {
    registry()
        .spans
        .read()
        .get(name)
        .map(|h| h.hist.snapshot())
        .filter(|s| s.count > 0)
}

/// Windowed summary of one span over the last `window` seconds, if that
/// span ever recorded (the window itself may be empty).
pub fn windowed_span(name: &str, window: u64) -> Option<WindowedSnapshot> {
    registry()
        .spans
        .read()
        .get(name)
        .filter(|h| h.hist.count() > 0)
        .map(|h| h.windowed.window(window))
}

/// Windowed summary of one value histogram over the last `window` seconds.
pub fn windowed_value(name: &str, window: u64) -> Option<WindowedSnapshot> {
    registry()
        .values
        .read()
        .get(name)
        .filter(|h| h.hist.count() > 0)
        .map(|h| h.windowed.window(window))
}

/// Raw merged bucket counts of one value histogram over the last `window`
/// seconds, if that value ever recorded. The full distribution — not just
/// summary quantiles — so drift monitors can compare live traffic against a
/// reference snapshot bucket by bucket (see [`crate::drift::psi`]).
pub fn windowed_value_buckets(name: &str, window: u64) -> Option<crate::HistogramBuckets> {
    registry()
        .values
        .read()
        .get(name)
        .filter(|h| h.hist.count() > 0)
        .map(|h| h.windowed.merged_at(window::now_sec(), window))
}

/// Cumulative bucket counts of one value histogram since boot, if that
/// value ever recorded. Used to capture drift *reference* distributions at
/// startup.
pub fn value_buckets(name: &str) -> Option<crate::HistogramBuckets> {
    registry()
        .values
        .read()
        .get(name)
        .filter(|h| h.hist.count() > 0)
        .map(|h| {
            let mut acc = crate::HistogramBuckets::new();
            h.hist.accumulate_into(&mut acc);
            acc
        })
}

/// Snapshots of every span that recorded at least once, sorted by name.
pub fn all_spans() -> Vec<(String, HistogramSnapshot)> {
    let mut out: Vec<(String, HistogramSnapshot)> = registry()
        .spans
        .read()
        .iter()
        .map(|(name, h)| (name.to_string(), h.hist.snapshot()))
        .filter(|(_, s)| s.count > 0)
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Windowed summaries of every span that ever recorded, sorted by name.
/// Spans quiet for the whole window appear with zero counts — their absence
/// from recent traffic is itself signal.
pub fn all_windowed_spans(window: u64) -> Vec<(String, WindowedSnapshot)> {
    let now = window::now_sec();
    let mut out: Vec<(String, WindowedSnapshot)> = registry()
        .spans
        .read()
        .iter()
        .filter(|(_, h)| h.hist.count() > 0)
        .map(|(name, h)| (name.to_string(), h.windowed.window_at(now, window)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Windowed summaries of every value histogram that ever recorded, sorted
/// by name.
pub fn all_windowed_values(window: u64) -> Vec<(String, WindowedSnapshot)> {
    let now = window::now_sec();
    let mut out: Vec<(String, WindowedSnapshot)> = registry()
        .values
        .read()
        .iter()
        .filter(|(_, h)| h.hist.count() > 0)
        .map(|(name, h)| (name.to_string(), h.windowed.window_at(now, window)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Values of every counter ever touched, sorted by name.
pub fn all_counters() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = registry()
        .counters
        .read()
        .iter()
        .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Clears **every** observability namespace: span histograms (cumulative
/// and windowed), counters, counter rate rings, value histograms, SLO
/// cells, retained flight-recorder traces, audit and drift state, and the
/// failpoint registry's lifetime hit/fired mirrors. Handles obtained before
/// the reset keep writing into detached cells, so re-fetch them afterwards;
/// intended for test isolation and the start of independent runs.
pub fn reset() {
    registry().spans.write().clear();
    registry().counters.write().clear();
    registry().values.write().clear();
    registry().counter_windows.write().clear();
    crate::slo::clear_slos();
    crate::trace::clear_traces();
    crate::failpoints::reset_counts();
    crate::alloc::reset_alloc_stats();
    crate::audit::clear_audit();
    crate::drift::clear_drift();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so each
    // test uses its own unique names instead of calling reset().

    #[test]
    fn span_records_and_stop_returns_elapsed() {
        let guard = span("test.registry.span_basic");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = guard.stop();
        assert!(elapsed >= Duration::from_millis(2));
        let snap = span_snapshot("test.registry.span_basic").unwrap();
        assert_eq!(snap.count, 1);
        assert!(snap.p50 >= 1_000_000, "p50 {} ns", snap.p50);
    }

    #[test]
    fn time_wraps_a_closure() {
        let ((), d) = time("test.registry.time", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(d >= Duration::from_millis(1));
        assert_eq!(span_snapshot("test.registry.time").unwrap().count, 1);
    }

    #[test]
    fn drop_records_too() {
        {
            let _guard = span("test.registry.drop");
        }
        assert_eq!(span_snapshot("test.registry.drop").unwrap().count, 1);
    }

    #[test]
    fn counters_accumulate_concurrently() {
        let c = counter("test.registry.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(counter_value("test.registry.concurrent"), 80_000);
    }

    #[test]
    fn unknown_names_read_as_empty() {
        assert_eq!(counter_value("test.registry.never_touched"), 0);
        assert!(span_snapshot("test.registry.never_opened").is_none());
        assert!(value_snapshot("test.registry.never_recorded").is_none());
        assert!(windowed_span("test.registry.never_opened", 10).is_none());
        assert!(windowed_value("test.registry.never_recorded", 10).is_none());
        assert!(counter_window_sum("test.registry.never_touched", 10).is_none());
    }

    #[test]
    fn value_histograms_aggregate_samples() {
        for v in [4u64, 4, 4, 64] {
            record_value("test.registry.values", v);
        }
        let snap = value_snapshot("test.registry.values").unwrap();
        assert_eq!(snap.count, 4);
        // Log-scale buckets: p50 lands in the [4,8) bucket, max in [64,128).
        assert!(snap.p50 >= 4 && snap.p50 < 8, "p50 {}", snap.p50);
        assert!(snap.p99 >= 64, "p99 {}", snap.p99);
        assert!(all_values()
            .iter()
            .any(|(name, _)| name == "test.registry.values"));
        // Value histograms live in their own namespace, not the span one.
        assert!(span_snapshot("test.registry.values").is_none());
    }

    #[test]
    fn record_duration_lands_in_span_namespace() {
        record_duration("test.registry.ext_duration", Duration::from_micros(5));
        let snap = span_snapshot("test.registry.ext_duration").unwrap();
        assert_eq!(snap.count, 1);
        assert!(snap.p50 >= 4_000, "p50 {} ns", snap.p50);
    }

    #[test]
    fn spans_expose_windowed_summaries() {
        record_duration("test.registry.windowed_span", Duration::from_micros(100));
        // Recorded "now", so any window ending now contains it.
        let w = windowed_span("test.registry.windowed_span", 60).unwrap();
        assert_eq!(w.count, 1);
        assert!(w.p99 >= 64_000, "p99 {} ns", w.p99);
        assert!(all_windowed_spans(60)
            .iter()
            .any(|(n, s)| n == "test.registry.windowed_span" && s.count == 1));
    }

    #[test]
    fn values_expose_windowed_summaries() {
        record_value("test.registry.windowed_value", 32);
        let w = windowed_value("test.registry.windowed_value", 60).unwrap();
        assert_eq!(w.count, 1);
        assert!(all_windowed_values(60)
            .iter()
            .any(|(n, _)| n == "test.registry.windowed_value"));
    }

    #[test]
    fn rate_counters_feed_both_aggregations() {
        let rc = rate_counter("test.registry.rate");
        rc.add(3);
        rc.incr();
        assert_eq!(rc.get(), 4);
        assert_eq!(rc.in_window(60), 4);
        assert!(rc.rate(60) > 0.0);
        // The cumulative side is the plain counter under the same name.
        assert_eq!(counter_value("test.registry.rate"), 4);
        assert_eq!(counter_window_sum("test.registry.rate", 60), Some(4));
        assert!(all_windowed_counters(60)
            .iter()
            .any(|(n, v)| n == "test.registry.rate" && *v == 4));
    }
}
