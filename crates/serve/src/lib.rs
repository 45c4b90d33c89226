//! `inbox-serve` — online recommendation service for the InBox
//! reproduction.
//!
//! Takes a trained model offline training produced and turns it into a
//! long-running, concurrent service:
//!
//! - [`Engine`]: frozen parameters + live per-user state (capped concept
//!   histories with monotonic versions, full interaction masks) + a
//!   versioned LRU [`BoxCache`] of interest boxes. `recommend` is
//!   bit-identical to the single-threaded offline ranking at any fixed
//!   history version; `ingest` records an interaction and invalidates only
//!   that user's cached box.
//! - [`Service`]: the facade embedders call. Each recommend request is
//!   answered on its caller's thread behind an in-flight admission cap;
//!   arrivals over the cap are shed with [`ServeError::Overloaded`].
//! - [`HttpServer`]: a std-only HTTP/1.1 front-end (`/health`,
//!   `/recommend`, `/ingest`, `/stats`, ...) served by a fixed pool of
//!   one worker per core.
//!
//! Cold users (no history) degrade to the popularity ranking rather than
//! erroring; every other degraded outcome is an explicit [`ServeError`].
//! Serving emits `serve.*` counters, the `serve.queue.depth` value
//! histogram (requests in flight at admission), and the `serve.request`
//! latency span through `inbox-obs`, so the existing telemetry sinks
//! (`--metrics-out`) see serving traffic in the same schema as training.

#![warn(missing_docs)]

mod admission;
mod audit;
mod cache;
mod engine;
mod error;
mod http;

use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_kg::{ItemId, UserId};
use inbox_obs::ActiveTrace;

use crate::admission::Admission;

pub use audit::Auditor;
pub use cache::BoxCache;
pub use engine::{Engine, Ingested, Recommendation, ServeStats};
pub use error::ServeError;
pub use http::HttpServer;
pub use inbox_core::Quantization;
pub use inbox_index::IndexMode;

/// Tuning knobs for the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission bound: requests arriving while this many are already in
    /// flight are shed with [`ServeError::Overloaded`]. Over HTTP the
    /// [`HttpServer`] worker pool already holds requests in flight to one
    /// per worker; further connections wait in the listen backlog.
    pub queue_cap: usize,
    /// Box cache capacity (entries ≈ users resident at once).
    pub cache_cap: usize,
    /// Latency objective for the `serve.recommend` SLO: requests answered
    /// under this are "good"; the target good fraction is [`SLO_TARGET`].
    pub slo_objective: Duration,
    /// Requests slower than this end-to-end finish their trace as
    /// [`inbox_obs::TraceOutcome::Slow`] and are retained in the flight
    /// recorder's notable ring.
    pub trace_slow: Duration,
    /// How the engine generates ranking candidates: [`IndexMode::FullSort`]
    /// (score every item; the default) or [`IndexMode::Ivf`] (IVF coarse
    /// partitions + box pruning + exact re-rank). An index that fails to
    /// build degrades to full sort — never a startup failure.
    pub index: IndexMode,
    /// Item-matrix quantization for inference scoring.
    /// [`Quantization::None`] scores the f32 matrix; [`Quantization::Int8`]
    /// scans through the dequantize-free int8 kernel and re-scores the
    /// near-threshold survivors in f32, so answers stay byte-identical to
    /// the f32 ranking either way. Cold users (popularity fallback)
    /// bypass quantization.
    pub quantize: Quantization,
    /// Shadow-oracle audit sampling: 1-in-this-many answered requests are
    /// copied to the background audit worker and re-ranked through the
    /// exact FullSort f32 oracle. `0` disables auditing entirely (no
    /// worker, no per-answer tick).
    pub audit_sample: u64,
    /// Bound on samples awaiting their oracle re-rank; arrivals beyond it
    /// are shed (counted in `inbox_audit_shed_total`), never queued behind
    /// an unbounded backlog and never blocking the serving path.
    pub audit_queue_cap: usize,
    /// Windowed audit-recall floor for the degradation alerter: when the
    /// last-minute audited recall@k drops below this, the latched
    /// `inbox_audit_degraded` gauge trips (and burn counters tick) until a
    /// window of samples is back at or above it. `None` disables alerting.
    pub audit_floor: Option<f64>,
}

/// Required good fraction for the `serve.recommend` SLO.
pub const SLO_TARGET: f64 = 0.99;

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            cache_cap: 100_000,
            slo_objective: Duration::from_millis(50),
            trace_slow: Duration::from_millis(250),
            index: IndexMode::FullSort,
            quantize: Quantization::None,
            audit_sample: 32,
            audit_queue_cap: 256,
            audit_floor: None,
        }
    }
}

/// The assembled service: an [`Engine`] behind an in-flight admission
/// cap, plus the shadow-oracle [`Auditor`]. This is the type both the HTTP
/// front-end and in-process embedders talk to.
pub struct Service {
    engine: Arc<Engine>,
    admission: Admission,
    auditor: Option<Arc<Auditor>>,
    /// `serve.recommend` SLO: answered latencies classified against the
    /// objective; sheds count as (infinitely) bad events.
    slo: inbox_obs::Slo,
    shed: inbox_obs::RateCounter,
}

impl Service {
    /// Starts a service over `engine` with the knobs in `config`.
    /// Registers the `serve.recommend` SLO, arms the flight recorder's
    /// slow-trace threshold, and (unless `audit_sample` is 0) captures the
    /// drift references and starts the shadow-oracle audit worker.
    pub fn start(engine: Engine, config: &ServeConfig) -> Self {
        inbox_obs::set_slow_threshold(config.trace_slow);
        inbox_obs::set_audit_floor(config.audit_floor);
        let engine = Arc::new(engine);
        let auditor =
            (config.audit_sample > 0).then(|| Auditor::start(Arc::clone(&engine), config));
        Self {
            engine,
            admission: Admission::new(config.queue_cap),
            auditor,
            slo: inbox_obs::slo("serve.recommend", config.slo_objective, SLO_TARGET),
            shed: inbox_obs::rate_counter("serve.shed"),
        }
    }

    /// The underlying engine (for stats, oracle comparisons, and direct
    /// unadmitted access in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Top-K recommendations for `user`, computed on the calling thread.
    /// Sheds with [`ServeError::Overloaded`] when `queue_cap` requests are
    /// already in flight, and refuses with [`ServeError::Closed`] after
    /// [`shutdown`](Service::shutdown).
    pub fn recommend(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        self.answer(user, k, None)
    }

    /// [`recommend`](Service::recommend) with an active request trace:
    /// admission and the engine stages record spans into `trace`'s tree.
    /// The caller owns the trace and finishes it (the HTTP front-end does
    /// both ends).
    pub fn recommend_traced(
        &self,
        user: UserId,
        k: usize,
        trace: &ActiveTrace,
    ) -> Result<Recommendation, ServeError> {
        self.answer(user, k, Some(trace))
    }

    /// Admits, answers, audits, and records one recommend request.
    fn answer(
        &self,
        user: UserId,
        k: usize,
        trace: Option<&ActiveTrace>,
    ) -> Result<Recommendation, ServeError> {
        let start = Instant::now();
        let admit_span = trace.map(|t| t.span("serve.admit", Some(0)));
        let slot = match self.admission.admit() {
            Ok(slot) => slot,
            Err(e) => {
                if e == ServeError::Overloaded {
                    self.engine.note_shed();
                    self.shed.incr();
                    // A shed is a user-visible failure: it burns SLO budget
                    // even though it has no latency to classify.
                    self.slo.observe(Duration::MAX);
                }
                return Err(e);
            }
        };
        inbox_obs::record_value("serve.queue.depth", slot.depth as u64);
        drop(admit_span);
        // Chaos sites, holding the slot: a stall keeps the request in
        // flight (so later arrivals see a full cap), and an injected panic
        // unwinds the caller, whose slot must be given back on the way out.
        let _ = inbox_obs::failpoint!("serve.recommend.stall");
        if inbox_obs::failpoint!("serve.recommend.panic") {
            panic!("injected failpoint: serve.recommend.panic");
        }
        let answer = match trace {
            Some(t) => inbox_obs::with_context(t, 0, || self.engine.recommend_now(user, k)),
            None => self.engine.recommend_now(user, k),
        };
        // The 1-in-N winners clone their answer for the background oracle:
        // audit overhead, never blocking (a full audit queue sheds).
        if let (Some(auditor), Ok(rec)) = (&self.auditor, &answer) {
            auditor.maybe_sample(rec);
        }
        let latency = start.elapsed();
        inbox_obs::record_duration("serve.request", latency);
        self.slo.observe(latency);
        answer
    }

    /// Records a live interaction. Synchronous and never shed: ingest is a
    /// short critical section and skipping one would silently corrupt the
    /// user's history.
    pub fn ingest(&self, user: UserId, item: ItemId) -> Result<Ingested, ServeError> {
        self.engine.ingest(user, item)
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        self.engine.stats()
    }

    /// Number of recommend requests currently in flight (admitted and not
    /// yet answered).
    pub fn queued(&self) -> usize {
        self.admission.in_flight()
    }

    /// Number of sampled answers waiting for their shadow-oracle re-rank
    /// (0 when auditing is disabled).
    pub fn audit_backlog(&self) -> usize {
        self.auditor.as_ref().map_or(0, |a| a.backlog())
    }

    /// Refuses new recommend requests and waits for the in-flight ones to
    /// be answered, then stops the audit worker (draining sampled answers
    /// through the oracle). Idempotent; the engine stays usable for direct
    /// calls afterwards.
    pub fn shutdown(&self) {
        self.admission.close();
        if let Some(auditor) = &self.auditor {
            auditor.shutdown();
        }
    }
}
