//! The traced run: per-layer metrics.
//!
//! The fixed-rate stream is replayed, at the same rate and with the same
//! request ids, at four nested entry points:
//!
//! 1. `http` — loopback HTTP to the real front door;
//! 2. `service` — `Service::recommend` / `Service::ingest` in-process
//!    (micro-batcher, no HTTP);
//! 3. `engine` — `Engine::recommend_now` / `Engine::ingest` (no batcher);
//! 4. `pipeline` — the engine's steps called one by one through their
//!    public functions (`BoxCache`, `user_box_from_history`,
//!    `ItemScorer::score_box_into`, `top_k_masked_into`,
//!    `IvfIndex::select_probes`, `IvfIndex::rerank_refined`), each under its
//!    own span. It is the only level whose tracing does real work (clock
//!    reads and span records around every step), so it runs twice, untraced
//!    and then traced, and `trace.overhead_pct` compares the two.
//!
//! A layer's self time is the median, over request ids, of the difference
//! between two nested levels. Spans are kept in memory and written to
//! `.bench_out/trace-<workload>-seed<seed>.jsonl` when the run ends. Program
//! counters come from its public readers (`Service::stats`,
//! `inbox_obs::{span,value}_snapshot`, `counter_value`, `audit_snapshot`).
//! Every answer at every level is checked like the untraced run's.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::{
    BoxEmb, HistoryCache, InBoxConfig, InBoxModel, ItemScorer, Quantization, ScoreScratch,
};
use inbox_eval::{top_k_masked_into, TopKScratch};
use inbox_index::{
    auto_nlist, auto_nprobe, BoxQuery, IndexMode, IvfIndex, IvfParams, QueryScratch,
};
use inbox_kg::{ItemId, KnowledgeGraph, UserId};
use inbox_serve::{BoxCache, Recommendation, ServeError, ServeStats};

use crate::check::{to_answer, Mirror, OracleTable};
use crate::client::{run_open_loop, thread_count, Answer, Ctx, PhaseResult, Reply, Span};
use crate::e2e::{over_http, round_plan, world_for, Budget};
use crate::gen::{self, Op, Plan};
use crate::stats::{median, paired_self_time, span_self_time, Summary};
use crate::workload::{Stack, Workload, World, K};
use crate::{Metric, Outcome};

/// Share of `--seconds` each of the five replays gets.
const LEVEL_SHARE: f64 = 0.16;

/// Users whose exact audit re-rank is timed.
const AUDIT_TIMED: usize = 48;

/// Direct `Engine::ingest` calls timed on the read-only workloads.
const INGEST_TIMED: usize = 200;

fn reply_of(r: Result<Recommendation, ServeError>) -> Reply {
    r.map_or_else(
        |e| Reply::Failed(e.to_string()),
        |r| Reply::Answer(to_answer(&r)),
    )
}

/// Totals the pipeline's index path accumulates across threads.
#[derive(Default)]
struct IndexTotals {
    requests: AtomicU64,
    candidates: AtomicU64,
    scanned: AtomicU64,
    pruned: AtomicU64,
}

/// Per-thread buffers of the decomposed pipeline.
#[derive(Default)]
struct Scratch {
    score: ScoreScratch,
    scores: Vec<f32>,
    topk: TopKScratch,
    out: Vec<ItemId>,
    query: QueryScratch,
    ranked: Vec<(ItemId, f32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The engine's recommend path, rebuilt step by step from public
/// functions over the benchmark's own copies of the model, index and live
/// state, so each step can be timed on its own. It covers the two serving
/// paths the workloads use: full sort in f32 and IVF with int8 scoring.
/// Steps read the clock only when the context is traced.
struct Pipeline {
    model: InBoxModel,
    cfg: InBoxConfig,
    kg: KnowledgeGraph,
    scorer: ItemScorer,
    popularity: Vec<f32>,
    live: RwLock<(HistoryCache, Vec<Vec<ItemId>>)>,
    cache: Mutex<BoxCache>,
    index: Option<(IvfIndex, usize)>,
    /// Seconds `IvfIndex::build` took.
    build_s: f64,
    /// Every `user_box_from_history` duration, ns (warm-up included).
    rebuild_ns: Mutex<Vec<u64>>,
    totals: IndexTotals,
}

impl Pipeline {
    fn new(world: &World) -> Self {
        let model = world.model();
        let ds = &world.ds;
        let serve = &world.workload.serve;
        let scorer =
            ItemScorer::with_quantization(&model, &world.cfg, ds.kg.n_items(), serve.quantize);
        let mut build_s = 0.0;
        let index = match (serve.index, serve.quantize) {
            (IndexMode::FullSort, Quantization::None) => None,
            (IndexMode::Ivf { nlist, nprobe }, Quantization::Int8) => {
                let nlist = if nlist == 0 {
                    auto_nlist(scorer.n_items())
                } else {
                    nlist
                };
                let params = IvfParams {
                    nlist,
                    ..IvfParams::default()
                };
                let t = Instant::now();
                let ix = IvfIndex::build(scorer.items(), scorer.dim(), &params).expect("IVF build");
                build_s = t.elapsed().as_secs_f64();
                let nprobe = if nprobe == 0 {
                    auto_nprobe(ix.nlist())
                } else {
                    nprobe
                };
                let nprobe = nprobe.clamp(1, ix.nlist());
                Some((ix, nprobe))
            }
            (index, quantize) => {
                unreachable!("the pipeline does not decompose {index:?} with {quantize:?}")
            }
        };
        Self {
            scorer,
            popularity: ds
                .train
                .item_popularity()
                .into_iter()
                .map(|c| c as f32)
                .collect(),
            live: RwLock::new((
                HistoryCache::build(&ds.kg, &ds.train, &world.cfg),
                (0..ds.n_users() as u32)
                    .map(|u| ds.train.items_of(UserId(u)).to_vec())
                    .collect(),
            )),
            cache: Mutex::new(BoxCache::new(serve.cache_cap)),
            index,
            build_s,
            rebuild_ns: Mutex::new(Vec::new()),
            totals: IndexTotals::default(),
            model,
            cfg: world.cfg.clone(),
            kg: ds.kg.clone(),
        }
    }

    /// Cache lookup, or one forward pass on a miss.
    fn resolve(&self, user: UserId, ctx: &mut Ctx, parent: u64) -> (u64, Option<Arc<BoxEmb>>) {
        let live = self.live.read().expect("pipeline live lock");
        let version = live.0.version(user);
        if let Some(hit) = self
            .cache
            .lock()
            .expect("pipeline cache lock")
            .get(user.0, version)
        {
            return (version, hit);
        }
        let history = live.0.history(user).to_vec();
        drop(live);
        let t = ctx.now();
        let mut tape = Tape::new();
        let built =
            user_box_from_history(&self.model, &self.cfg, &mut tape, user, &history).map(Arc::new);
        let end = ctx.now();
        if built.is_some() && ctx.spans.is_some() {
            ctx.span("rebuild", parent, t, end);
            self.rebuild_ns.lock().expect("rebuild log").push(end - t);
        }
        self.cache
            .lock()
            .expect("pipeline cache lock")
            .insert(user.0, version, built.clone());
        (version, built)
    }

    fn recommend(&self, user: u32, ctx: &mut Ctx) -> Reply {
        let root = ctx.root();
        let u = UserId(user);
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let resolve_id = ctx.reserve();
            let t = ctx.now();
            let (version, b) = self.resolve(u, ctx, resolve_id);
            ctx.record(resolve_id, "resolve", root, t, ctx.now());
            let items = match (b.as_deref(), self.index.as_ref()) {
                // IVF with int8 scoring: probes, coarse walk, exact refine.
                (Some(b), Some((index, nprobe))) => {
                    let t = ctx.now();
                    self.scorer.prepare_box_bounds(b, &mut s.score);
                    let q = BoxQuery {
                        lo: s.score.lo(),
                        hi: s.score.hi(),
                        cen: &b.cen,
                        inside_weight: self.scorer.inside_weight(),
                        gamma: self.scorer.gamma(),
                        bound_slack: self.scorer.bound_slack(),
                    };
                    index.select_probes(&q, *nprobe, &mut s.query);
                    let t_rerank = ctx.now();
                    ctx.span("index.probe", root, t, t_rerank);
                    let live = self.live.read().expect("pipeline live lock");
                    let mask = &live.1[user as usize];
                    let score = &s.score;
                    let stats = index.rerank_refined(
                        &q,
                        K,
                        mask,
                        |i| self.scorer.score_item_prepared(b, score, i),
                        |i| self.scorer.score_item_prepared_f32(b, score, i),
                        &mut s.query,
                        &mut s.ranked,
                    );
                    drop(live);
                    ctx.span("index.rerank", root, t_rerank, ctx.now());
                    let tot = &self.totals;
                    tot.requests.fetch_add(1, Ordering::Relaxed);
                    tot.candidates
                        .fetch_add(stats.candidates as u64, Ordering::Relaxed);
                    tot.scanned
                        .fetch_add(stats.scanned_partitions as u64, Ordering::Relaxed);
                    tot.pruned
                        .fetch_add(stats.pruned_partitions as u64, Ordering::Relaxed);
                    s.ranked
                        .iter()
                        .map(|&(i, sc)| (i.0, sc.to_bits()))
                        .collect()
                }
                // Full sort in f32, and the popularity fallback of users
                // with no box on either path.
                (b, _) => {
                    let t = ctx.now();
                    match b {
                        Some(b) => self.scorer.score_box_into(b, &mut s.score, &mut s.scores),
                        None => {
                            s.scores.clear();
                            s.scores.extend_from_slice(&self.popularity);
                        }
                    }
                    let t_rank = ctx.now();
                    ctx.span("score", root, t, t_rank);
                    let live = self.live.read().expect("pipeline live lock");
                    top_k_masked_into(
                        &s.scores,
                        &live.1[user as usize],
                        K,
                        &mut s.topk,
                        &mut s.out,
                    );
                    drop(live);
                    ctx.span("rank", root, t_rank, ctx.now());
                    s.out
                        .iter()
                        .map(|&i| (i.0, s.scores[i.index()].to_bits()))
                        .collect()
                }
            };
            Reply::Answer(Answer {
                user,
                version,
                fallback: b.is_none(),
                items,
            })
        })
    }

    fn ingest(&self, user: u32, item: u32, ctx: &mut Ctx) -> Reply {
        let t = ctx.now();
        let mut live = self.live.write().expect("pipeline live lock");
        let mask = &mut live.1[user as usize];
        if let Err(pos) = mask.binary_search(&ItemId(item)) {
            mask.insert(pos, ItemId(item));
        }
        live.0
            .ingest(&self.kg, &self.cfg, UserId(user), ItemId(item));
        let version = live.0.version(UserId(user));
        drop(live);
        ctx.span("ingest", ctx.root(), t, ctx.now());
        Reply::Ingested { version }
    }

    fn exec(&self, op: &Op, ctx: &mut Ctx) -> Reply {
        match *op {
            Op::Recommend { user } => self.recommend(user, ctx),
            Op::Ingest { user, item } => self.ingest(user, item, ctx),
        }
    }
}

/// Root-span duration (µs) of every recommend at one level, by request id.
fn recommend_us(res: &PhaseResult) -> HashMap<u64, f64> {
    let recommends: HashSet<u64> = res
        .records
        .iter()
        .filter(|r| matches!(r.req.op, Op::Recommend { .. }))
        .map(|r| r.req.id)
        .collect();
    res.spans
        .iter()
        .filter(|s| s.parent == 0 && recommends.contains(&s.req))
        .map(|s| (s.req, (s.end - s.start) as f64 / 1e3))
        .collect()
}

/// Median duration (µs) of the spans called `name` (`NaN` if none).
fn span_p50_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    Summary::of(&d).p50
}

/// Per recommend at the pipeline level: the time its child spans cover
/// (root duration minus root self time), µs, by request id.
fn pipeline_covered_us(res: &PhaseResult) -> HashMap<u64, f64> {
    let roots = recommend_us(res);
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut bounds: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in &res.spans {
        if s.parent == 0 {
            bounds.insert(s.req, (s.start, s.end));
        } else if s.parent == s.req * 16 {
            children.entry(s.req).or_default().push((s.start, s.end));
        }
    }
    roots
        .keys()
        .map(|&req| {
            let (start, end) = bounds[&req];
            let kids = children.get(&req).map_or(&[][..], Vec::as_slice);
            (
                req,
                (end - start - span_self_time(start, end, kids)) as f64 / 1e3,
            )
        })
        .collect()
}

/// Program-side counters around one phase.
struct Snapshot {
    stats: ServeStats,
    batch: (u64, u64),
    contended: u64,
    audit_sampled: u64,
}

impl Snapshot {
    fn take(stack: &Stack) -> Self {
        let batch =
            inbox_obs::value_snapshot("serve.batch.size").map_or((0, 0), |s| (s.count, s.sum));
        Self {
            stats: stack.service.stats(),
            batch,
            contended: inbox_obs::counter_value("lock.engine.live.contended"),
            audit_sampled: inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS).sampled,
        }
    }
}

/// Runs `f` while a sampler records the peak thread count of the process.
fn with_thread_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}

/// Writes every span as one JSON line.
fn write_spans(path: &std::path::Path, levels: &[&PhaseResult]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for res in levels {
        for s in &res.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.id, s.parent, s.start, s.end
            )?;
        }
    }
    out.flush()
}

/// A fresh stack for churn (every level starts from the same state), the
/// shared one otherwise.
fn stack_for<'a>(world: &World, shared: &'a Stack, fresh: &'a mut Option<Stack>) -> &'a Stack {
    if !world.workload.churn {
        return shared;
    }
    let (s, _) = Stack::start(world);
    s.warm();
    *fresh = Some(s);
    fresh.as_ref().expect("just started")
}

/// Runs the traced replay and returns the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let budget = Budget::of(seconds);
    let world = world_for(&workload, seed, &budget);
    let count = (workload.fixed_rate * seconds * LEVEL_SHARE) as usize;
    let plan: Plan = round_plan(&world, 0, &mut world.users(), count);
    eprintln!(
        "[{}] traced run, seed {seed}: {count} requests per level at {} rps",
        workload.name, workload.fixed_rate
    );
    let (shared, _) = Stack::start(&world);
    shared.warm();
    let oracle = (!workload.churn).then(|| OracleTable::build(shared.service.engine()));
    let check = |res: &PhaseResult| -> Vec<String> {
        match &oracle {
            Some(t) => t.check(&res.records),
            None => Mirror::new(&world).check(&res.records),
        }
    };
    let is_rec = |op: &Op| matches!(op, Op::Recommend { .. });
    let mut wrong = Vec::new();

    // 1. HTTP.
    let mut fresh = None;
    let stack = stack_for(&world, &shared, &mut fresh);
    let before = Snapshot::take(stack);
    let (http, threads_peak) = with_thread_peak(|| over_http(stack, &plan, true));
    let after = Snapshot::take(stack);
    wrong.extend(check(&http));
    let conns = http.records.len(); // one connection per request (Connection: close)
    let queue_p99 = inbox_obs::value_snapshot("serve.queue.depth").map_or(0, |s| s.p99);
    let lock_wait_p99_us =
        inbox_obs::span_snapshot("lock.engine.live.wait").map_or(0.0, |s| s.p99 as f64 / 1e3);

    // 2. Service.
    let mut fresh = None;
    let stack = stack_for(&world, &shared, &mut fresh);
    let service = Arc::clone(&stack.service);
    let svc = run_open_loop(&plan, "service", true, |req, _| match req.op {
        Op::Recommend { user } => reply_of(service.recommend(UserId(user), K)),
        Op::Ingest { user, item } => match service.ingest(UserId(user), ItemId(item)) {
            Ok(r) => Reply::Ingested { version: r.version },
            Err(e) => Reply::Failed(e.to_string()),
        },
    });
    wrong.extend(check(&svc));

    // 3. Engine.
    let mut fresh = None;
    let stack = stack_for(&world, &shared, &mut fresh);
    let engine = Arc::clone(stack.service.engine());
    let eng = run_open_loop(&plan, "engine", true, |req, _| match req.op {
        Op::Recommend { user } => reply_of(engine.recommend_now(UserId(user), K)),
        Op::Ingest { user, item } => match engine.ingest(UserId(user), ItemId(item)) {
            Ok(r) => Reply::Ingested { version: r.version },
            Err(e) => Reply::Failed(e.to_string()),
        },
    });
    wrong.extend(check(&eng));
    // The audit's exact re-rank and (read-only workloads) ingest, timed
    // directly on the same engine.
    let mut audit_us = Vec::new();
    for u in 0..world.n_users().min(AUDIT_TIMED) as u32 {
        let user = UserId(u);
        let served = engine
            .recommend_now(user, K)
            .expect("recommend a known user");
        let t = Instant::now();
        let exact = engine
            .audit_rerank(user, served.version, K, &served.items)
            .expect("audit a known user");
        audit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if exact.is_some_and(|e| e != served.items) {
            wrong.push(format!(
                "audit re-rank of user {u} differs from the served answer"
            ));
        }
    }
    let ingest_us: Vec<f64> = if workload.churn {
        let ops: HashMap<u64, Op> = eng.records.iter().map(|r| (r.req.id, r.req.op)).collect();
        eng.spans
            .iter()
            .filter(|s| matches!(ops.get(&s.req), Some(Op::Ingest { .. })))
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    } else {
        let ingests = gen::ingest_only(seed, 3, &mut world.users(), 1.0, INGEST_TIMED, 1)
            .expect("every user has room for the timed ingests");
        ingests.streams[0]
            .iter()
            .map(|r| {
                let Op::Ingest { user, item } = r.op else {
                    unreachable!("ingest plan")
                };
                let t = Instant::now();
                engine
                    .ingest(UserId(user), ItemId(item))
                    .expect("ingest for a known user");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };

    // 4. The decomposed pipeline, warmed like the stack (its warm-up
    // rebuilds timed), untraced and then traced; churn starts each pass
    // from a fresh pipeline.
    let warmed = || {
        let pipeline = Pipeline::new(&world);
        let mut warm_ctx = Ctx::outside();
        for u in 0..world.n_users() as u32 {
            pipeline.recommend(u, &mut warm_ctx);
        }
        pipeline
    };
    let pipeline = warmed();
    let pipe_untraced = run_open_loop(&plan, "pipeline", false, |req, ctx| {
        pipeline.exec(&req.op, ctx)
    });
    wrong.extend(check(&pipe_untraced));
    let pipeline = if workload.churn { warmed() } else { pipeline };
    let pipe = run_open_loop(&plan, "pipeline", true, |req, ctx| {
        pipeline.exec(&req.op, ctx)
    });
    wrong.extend(check(&pipe));
    drop(fresh);
    drop(shared);

    let path = std::path::PathBuf::from(format!(
        ".bench_out/trace-{}-seed{seed}.jsonl",
        workload.name
    ));
    if let Err(e) = write_spans(&path, &[&http, &svc, &eng, &pipe]) {
        eprintln!(
            "[{}] could not write {}: {e}",
            workload.name,
            path.display()
        );
    }

    let audit = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    if audit.mismatched > 0 {
        wrong.push(format!(
            "audit: {} sampled answers mismatched the exact re-rank",
            audit.mismatched
        ));
    }
    for w in wrong.iter().take(10) {
        eprintln!("[{}] WRONG: {w}", workload.name);
    }

    // Layer arithmetic, paired by request id across levels.
    let http_us = recommend_us(&http);
    let svc_us = recommend_us(&svc);
    let eng_us = recommend_us(&eng);
    let covered = pipeline_covered_us(&pipe);
    // Send to reply of each recommend, µs: the root span's duration,
    // taken from the records so it exists untraced too.
    let exec_us = |res: &PhaseResult| -> HashMap<u64, f64> {
        res.records
            .iter()
            .filter(|r| is_rec(&r.req.op))
            .map(|r| (r.req.id, (r.latency_ns - r.lag_ns) as f64 / 1e3))
            .collect()
    };
    let pipe_traced_us = exec_us(&pipe);
    let pipe_untraced_us = exec_us(&pipe_untraced);
    let p50 = |m: &HashMap<u64, f64>| median(&m.values().copied().collect::<Vec<_>>());
    let requests = (after.stats.requests - before.stats.requests).max(1) as f64;
    let lookups = (after.stats.cache_hits - before.stats.cache_hits)
        + (after.stats.rebuilds - before.stats.rebuilds);
    let flushes = after.batch.0 - before.batch.0;
    let rebuild_us: Vec<f64> = pipeline
        .rebuild_ns
        .lock()
        .expect("rebuild log")
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let tot = &pipeline.totals;
    let ivf_requests = tot.requests.load(Ordering::Relaxed).max(1) as f64;
    let candidates_mean = tot.candidates.load(Ordering::Relaxed) as f64 / ivf_requests;
    let partitions =
        (tot.scanned.load(Ordering::Relaxed) + tot.pruned.load(Ordering::Relaxed)).max(1) as f64;
    let n_items = pipeline.scorer.n_items() as f64;
    let score_us = span_p50_us(&pipe.spans, "score");
    let audit_sum = Summary::of(&audit_us);
    let sampled_per_req = (after.audit_sampled - before.audit_sampled) as f64 / requests;
    let gen_lag = Summary::of(&http.lags_ms());
    let zero_if_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
    eprintln!(
        "[{}] levels p50 (us): http {:.1}, service {:.1}, engine {:.1}, pipeline {:.1} (untraced {:.1}), pipeline spans {:.1}",
        workload.name,
        p50(&http_us),
        p50(&svc_us),
        p50(&eng_us),
        p50(&pipe_traced_us),
        p50(&pipe_untraced_us),
        p50(&covered)
    );

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    };
    put("http.self_us", paired_self_time(&http_us, &svc_us), "us");
    put(
        "http.conns_per_req",
        conns as f64 / http.records.len().max(1) as f64,
        "count",
    );
    put("http.threads_peak", threads_peak as f64, "count");
    put("batcher.self_us", paired_self_time(&svc_us, &eng_us), "us");
    put(
        "batcher.batch_size_mean",
        (after.batch.1 - before.batch.1) as f64 / flushes.max(1) as f64,
        "count",
    );
    put(
        "batcher.flushes_per_req",
        flushes as f64 / requests,
        "count",
    );
    put("batcher.queue_depth_p99", queue_p99 as f64, "count");
    put(
        "batcher.shed",
        (after.stats.sheds - before.stats.sheds) as f64,
        "count",
    );
    put("engine.recommend_us", p50(&eng_us), "us");
    put(
        "engine.unattributed_us",
        paired_self_time(&eng_us, &covered),
        "us",
    );
    put(
        "cache.hit_ratio",
        (after.stats.cache_hits - before.stats.cache_hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    put(
        "cache.rebuilds_per_req",
        (after.stats.rebuilds - before.stats.rebuilds) as f64 / requests,
        "count",
    );
    put("lock.live.wait_us_p99", lock_wait_p99_us, "us");
    put(
        "lock.live.contended",
        (after.contended - before.contended) as f64,
        "count",
    );
    put("ingest.us", Summary::of(&ingest_us).p50, "us");
    put(
        "rebuild.us",
        zero_if_nan(Summary::of(&rebuild_us).p50),
        "us",
    );
    put("score.us", zero_if_nan(score_us), "us");
    put(
        "score.ns_per_item",
        zero_if_nan(score_us * 1e3 / n_items),
        "ns",
    );
    // Computed, not measured: the f32 item matrix read plus the score
    // vector written by one full `score_box_into` call (0 off that path).
    let bytes = if score_us.is_nan() {
        0.0
    } else {
        n_items * (pipeline.scorer.dim() as f64 * 4.0 + 4.0)
    };
    put("score.bytes_per_call", bytes, "B");
    put(
        "rank.us",
        zero_if_nan(span_p50_us(&pipe.spans, "rank")),
        "us",
    );
    put(
        "index.probe_us",
        zero_if_nan(span_p50_us(&pipe.spans, "index.probe")),
        "us",
    );
    put(
        "index.rerank_us",
        zero_if_nan(span_p50_us(&pipe.spans, "index.rerank")),
        "us",
    );
    put("index.candidates_mean", candidates_mean, "count");
    put(
        "index.pruned_frac",
        tot.pruned.load(Ordering::Relaxed) as f64 / partitions,
        "frac",
    );
    put(
        "index.results_per_candidate",
        if candidates_mean > 0.0 {
            K as f64 / candidates_mean
        } else {
            0.0
        },
        "ratio",
    );
    put("index.build_s", pipeline.build_s, "s");
    put("audit.rerank_us", audit_sum.p50, "us");
    put("audit.sampled_per_req", sampled_per_req, "ratio");
    put(
        "audit.cpu_us_per_req",
        audit_sum.mean * sampled_per_req,
        "us",
    );
    put("gen.lag_ms_p99", gen_lag.p99, "ms");
    put("gen.sent", http.records.len() as f64, "count");
    put(
        "gen.ok",
        (http.records.len() - http.failed()) as f64,
        "count",
    );
    put("gen.failed", (http.failed() + http.unsent) as f64, "count");
    put(
        "trace.overhead_pct",
        paired_self_time(&pipe_traced_us, &pipe_untraced_us) / p50(&pipe_untraced_us) * 100.0,
        "%",
    );
    let attempted = http.records.len() + http.unsent;
    let failed = http.failed() + http.unsent;
    Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
