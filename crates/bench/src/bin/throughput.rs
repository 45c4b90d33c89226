//! End-to-end hot-path throughput benchmark: gradient samples/sec for each
//! training stage and wall-clock for the inference path (`all_user_boxes`
//! plus a full ranking pass).
//!
//! Writes `BENCH_throughput.json` at the repo root; `bench history` records
//! it in the perf ledger (`BENCH_LEDGER.jsonl`) and `bench compare` diffs a
//! fresh report against the latest entry:
//!
//! ```text
//! cargo run --release -p inbox-bench --bin throughput
//! cargo run --release -p inbox-bench --bin bench -- compare
//! ```
//!
//! `--quick` runs a single repetition on the tiny dataset (CI smoke mode,
//! written to `--out` or discarded); `--threads N` overrides the worker
//! count (default 1 so numbers are comparable on any machine);
//! `--items-scale N` sets the catalog multiplier for the indexed stage
//! (default 100, or 10 under `--quick`).

use std::path::PathBuf;
use std::time::Instant;

use inbox_autodiff::Adam;
use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::predict::{all_user_boxes_with, HistoryCache};
use inbox_core::sampler::{stage1_epoch, stage2_epoch, stage3_epoch, Stage1Stats};
use inbox_core::simd::{self, Lanes, WithLanes};
use inbox_core::stages::{stage1_loss, stage2_loss, stage3_loss, BatchRunner};
use inbox_core::{BoxEmb, InBoxConfig, InBoxScorer, ItemScorer, Quantization, ScoreScratch};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::evaluate_with_threads;
use inbox_index::{auto_nprobe, BoxQuery, IvfIndex, IvfParams, QueryScratch};
use inbox_kg::ItemId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One set of throughput measurements (higher is better except `*_ms`).
#[derive(Debug, Serialize)]
struct Numbers {
    stage1_samples_per_sec: f64,
    stage2_samples_per_sec: f64,
    stage3_samples_per_sec: f64,
    /// Wall-clock of one full `all_user_boxes` pass (best of reps).
    user_boxes_ms: f64,
    /// Wall-clock of one full ranking/evaluation pass (best of reps).
    rank_ms: f64,
    users_ranked_per_sec: f64,
}

/// The candidate-index stage: full-sort vs IVF top-20 ranking on the
/// items-scaled catalog twin (`--items-scale`, default 100x) with item
/// points warm-started to clustered (trained-like) geometry. `rank_speedup`
/// is full-sort wall-clock over IVF wall-clock for the same user set;
/// `recall_at_20` is measured against the exact full-sort top-20.
#[derive(Debug, Serialize)]
struct IndexedStage {
    items_scale: usize,
    n_items: usize,
    n_users_ranked: usize,
    nlist: usize,
    nprobe: usize,
    build_ms: f64,
    full_rank_ms: f64,
    ivf_rank_ms: f64,
    rank_speedup: f64,
    recall_at_20: f64,
    mean_candidates: f64,
    candidates_per_sec: f64,
}

/// The quantization stage: f32 vs int8 full-scan top-20 over the same
/// items-scaled clustered catalog and users as [`IndexedStage`], plus the
/// int8 IVF re-rank. `agreement_at_20` is the mean per-user overlap
/// between the int8 and f32 exact top-20 (the testkit contract requires
/// ≥ 0.99); `bound_slack` is the conservative quantized-vs-f32 score gap
/// the IVF prune widens by.
#[derive(Debug, Serialize)]
struct QuantizedStage {
    n_items: usize,
    n_users_ranked: usize,
    bound_slack: f64,
    f32_scan_ms: f64,
    int8_scan_ms: f64,
    scan_speedup: f64,
    agreement_at_20: f64,
    ivf_int8_rank_ms: f64,
    ivf_int8_agreement_at_20: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    dataset: String,
    dim: usize,
    /// SIMD lane backend the ranking walks ran on (`avx2`, `sse2`,
    /// `scalar`): timings from different backends are not comparable.
    simd_backend: String,
    threads: usize,
    batch_size: usize,
    reps: usize,
    current: Numbers,
    indexed: IndexedStage,
    quantized: QuantizedStage,
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one rep"))
}

fn measure(ds: &Dataset, cfg: &InBoxConfig, reps: usize) -> Numbers {
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let stats = Stage1Stats::new(&ds.kg);
    let mut rng = StdRng::seed_from_u64(99);
    let s1 = stage1_epoch(&ds.kg, &stats, cfg, &mut rng);
    let s2 = stage2_epoch(&ds.kg, cfg, &mut rng);
    let s3 = stage3_epoch(&ds.kg, &ds.train, cfg, &mut rng);
    // The persistent worker pool and reusable gradient buffer are created
    // once per training run, exactly as `train()` does, so the per-epoch
    // numbers below measure the steady-state hot path.
    let runner = BatchRunner::new(cfg.threads);
    let adam = Adam::with_lr(cfg.lr);

    // One full epoch of gradient batches + optimiser steps per stage,
    // repeated `reps` times on a fresh model each; best rep wins.
    let stage_rate = |samples_len: usize, run: &mut dyn FnMut(&mut InBoxModel)| -> f64 {
        let (secs, _) = best_of(reps, || {
            let mut model = InBoxModel::new(sizes, cfg);
            run(&mut model);
        });
        samples_len as f64 / secs
    };

    let _span = inbox_obs::span("bench.throughput.stage1");
    let stage1 = stage_rate(s1.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s1.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage1_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });
    let stage2 = stage_rate(s2.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s2.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage2_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });
    let stage3 = stage_rate(s3.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s3.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage3_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });

    // Inference: the per-user history cache is built once per training run
    // (history and KG are immutable during training), so it is excluded from
    // the per-pass timing the same way the trainer amortises it.
    let model = InBoxModel::new(sizes, cfg);
    let cache = HistoryCache::build(&ds.kg, &ds.train, cfg);
    let (boxes_secs, boxes) = best_of(reps, || {
        all_user_boxes_with(&model, &cache, cfg, runner.pool())
    });

    let scorer = InBoxScorer::new(&model, &boxes, cfg, sizes.n_items);
    let (rank_secs, metrics) = best_of(reps, || {
        evaluate_with_threads(&scorer, &ds.train, &ds.test, 20, cfg.threads)
    });

    Numbers {
        stage1_samples_per_sec: stage1,
        stage2_samples_per_sec: stage2,
        stage3_samples_per_sec: stage3,
        user_boxes_ms: boxes_secs * 1e3,
        rank_ms: rank_secs * 1e3,
        users_ranked_per_sec: metrics.n_users_evaluated as f64 / rank_secs,
    }
}

/// Mean per-user overlap fraction between two top-k rankings.
fn overlap(want: &[Vec<ItemId>], got: &[Vec<ItemId>]) -> f64 {
    let mut hits = 0u64;
    let mut total = 0u64;
    for (w, g) in want.iter().zip(got) {
        total += w.len() as u64;
        hits += w.iter().filter(|i| g.contains(i)).count() as u64;
    }
    hits as f64 / total.max(1) as f64
}

/// Unmasked top-`k` of every user through the serving engine's ranking
/// walk: `select_probes` over `index`, then `rerank_refined` scoring with
/// `scorer` (int8 or f32) and re-scoring near-threshold candidates in
/// exact f32 within the scorer's bound slack, on the lane backend the
/// engine dispatches to. With the one-partition index this is the
/// engine's full sort. Returns the rankings and the total candidate count.
fn rank_users(
    scorer: &ItemScorer,
    index: &IvfIndex,
    nprobe: usize,
    users: &[&BoxEmb],
    k: usize,
) -> (Vec<Vec<ItemId>>, u64) {
    simd::dispatch(RankUsers {
        scorer,
        index,
        nprobe,
        users,
        k,
    })
}

struct RankUsers<'a> {
    scorer: &'a ItemScorer,
    index: &'a IvfIndex,
    nprobe: usize,
    users: &'a [&'a BoxEmb],
    k: usize,
}

impl WithLanes for RankUsers<'_> {
    type Output = (Vec<Vec<ItemId>>, u64);

    #[inline(always)]
    fn run<L: Lanes>(self) -> Self::Output {
        let Self {
            scorer,
            index,
            nprobe,
            users,
            k,
        } = self;
        let mut score = ScoreScratch::default();
        let mut query = QueryScratch::default();
        let mut ranked = Vec::new();
        let mut candidates = 0u64;
        let mut tops = Vec::with_capacity(users.len());
        for b in users {
            scorer.prepare_box_bounds(b, &mut score);
            let q = BoxQuery {
                lo: score.lo(),
                hi: score.hi(),
                cen: &b.cen,
                inside_weight: scorer.inside_weight(),
                gamma: scorer.gamma(),
                bound_slack: scorer.bound_slack(),
            };
            index.select_probes(&q, nprobe, &mut query);
            let stats = index.rerank_refined(
                &q,
                k,
                &[],
                |i| scorer.score_item_prepared_with::<L>(b, &score, i),
                |i| scorer.score_item_prepared_f32_with::<L>(b, &score, i),
                &mut query,
                &mut ranked,
            );
            candidates += stats.candidates as u64;
            tops.push(ranked.iter().map(|&(i, _)| i).collect());
        }
        (tops, candidates)
    }
}

/// Measures the indexed stage: build an items-scaled twin of `synth`,
/// warm-start clustered item points (the post-training regime the index
/// serves in — see `InBoxModel::set_item_points`), then time exact
/// full-sort top-20 against IVF-probed top-20 over every user with a box.
fn measure_indexed(
    synth: &SyntheticConfig,
    cfg: &InBoxConfig,
    reps: usize,
    scale: usize,
) -> (IndexedStage, QuantizedStage) {
    let big = synth.clone().with_items_scale(scale);
    let ds = Dataset::synthetic(&big, 7);
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let mut model = InBoxModel::new(sizes, cfg);
    // Tag-granular clusters: trained item points gather around the tag
    // boxes that contain them (Figure 5 colors the PCA projection by
    // genre), so the cluster count follows the tag vocabulary, not the
    // catalog size.
    inbox_testkit::harness::cluster_item_points(&mut model, ds.kg.n_tags().max(1), 0.05, 0x1db0);

    let runner = BatchRunner::new(cfg.threads);
    let cache = HistoryCache::build(&ds.kg, &ds.train, cfg);
    let boxes = all_user_boxes_with(&model, &cache, cfg, runner.pool());
    let scorer = ItemScorer::new(&model, cfg, ds.kg.n_items());
    let users: Vec<&BoxEmb> = boxes.iter().flatten().collect();
    let k = 20;

    let _span = inbox_obs::span("bench.throughput.indexed");
    let (build_secs, index) = best_of(reps, || {
        IvfIndex::build(scorer.items(), scorer.dim(), &IvfParams::default())
            .expect("index build on a well-shaped catalog")
    });
    let nlist = index.nlist();
    let nprobe = auto_nprobe(nlist);
    // The engine's full sort: the one-partition index, probed once.
    let whole = IvfIndex::one_partition(scorer.items(), scorer.dim());

    let (full_secs, (full_tops, _)) = best_of(reps, || rank_users(&scorer, &whole, 1, &users, k));
    let (ivf_secs, (ivf_tops, candidates)) =
        best_of(reps, || rank_users(&scorer, &index, nprobe, &users, k));
    let indexed = IndexedStage {
        items_scale: scale,
        n_items: ds.kg.n_items(),
        n_users_ranked: users.len(),
        nlist,
        nprobe,
        build_ms: build_secs * 1e3,
        full_rank_ms: full_secs * 1e3,
        ivf_rank_ms: ivf_secs * 1e3,
        rank_speedup: full_secs / ivf_secs,
        recall_at_20: overlap(&full_tops, &ivf_tops),
        mean_candidates: candidates as f64 / users.len().max(1) as f64,
        candidates_per_sec: candidates as f64 / ivf_secs,
    };

    // Quantized stage: the same users and catalog scored through the
    // dequantize-free int8 kernel with exact f32 refine — full sort first
    // (agreement is measured against the f32 full-sort top-20 above), then
    // the IVF re-rank with the prune widened by the scorer's bound slack.
    let _qspan = inbox_obs::span("bench.throughput.quantized");
    let qscorer = ItemScorer::with_quantization(&model, cfg, ds.kg.n_items(), Quantization::Int8);
    let (int8_secs, (int8_tops, _)) = best_of(reps, || rank_users(&qscorer, &whole, 1, &users, k));
    let (ivf8_secs, (ivf8_tops, _)) =
        best_of(reps, || rank_users(&qscorer, &index, nprobe, &users, k));
    let quantized = QuantizedStage {
        n_items: ds.kg.n_items(),
        n_users_ranked: users.len(),
        bound_slack: qscorer.bound_slack() as f64,
        f32_scan_ms: full_secs * 1e3,
        int8_scan_ms: int8_secs * 1e3,
        scan_speedup: full_secs / int8_secs,
        agreement_at_20: overlap(&full_tops, &int8_tops),
        ivf_int8_rank_ms: ivf8_secs * 1e3,
        ivf_int8_agreement_at_20: overlap(&full_tops, &ivf8_tops),
    };
    (indexed, quantized)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let items_scale = args
        .iter()
        .position(|a| a == "--items-scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10 } else { 100 });
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
        });

    inbox_obs::set_enabled(true);
    let synth = if quick {
        SyntheticConfig::tiny()
    } else {
        SyntheticConfig::small()
    };
    let reps = if quick { 1 } else { 5 };
    let ds = Dataset::synthetic(&synth, 7);
    let cfg = InBoxConfig {
        threads,
        ..InBoxConfig::for_dim(32)
    };

    println!(
        "throughput bench: dataset {} ({} users, {} items, {} triples), dim {}, threads {}, {} rep(s)",
        synth.name,
        ds.n_users(),
        ds.n_items(),
        ds.kg.n_triples(),
        cfg.dim,
        threads,
        reps
    );

    let current = measure(&ds, &cfg, reps);
    let (indexed, quantized) = measure_indexed(&synth, &cfg, reps, items_scale);

    let report = Report {
        dataset: synth.name.clone(),
        dim: cfg.dim,
        simd_backend: inbox_core::simd::backend().to_string(),
        threads,
        batch_size: cfg.batch_size,
        reps,
        current,
        indexed,
        quantized,
    };

    println!(
        "stage1 {:>10.0} samples/s\nstage2 {:>10.0} samples/s\nstage3 {:>10.0} samples/s",
        report.current.stage1_samples_per_sec,
        report.current.stage2_samples_per_sec,
        report.current.stage3_samples_per_sec,
    );
    println!(
        "user boxes {:>8.1} ms   ranking {:>8.1} ms ({:.0} users/s)",
        report.current.user_boxes_ms, report.current.rank_ms, report.current.users_ranked_per_sec,
    );
    let ix = &report.indexed;
    println!(
        "indexed @{}x catalog ({} items, {} users): nlist {} nprobe {} build {:.1} ms",
        ix.items_scale, ix.n_items, ix.n_users_ranked, ix.nlist, ix.nprobe, ix.build_ms,
    );
    println!(
        "  full sort {:>8.1} ms   ivf {:>8.1} ms   speedup {:.2}x   recall@20 {:.4}   {:.0} cand/user",
        ix.full_rank_ms, ix.ivf_rank_ms, ix.rank_speedup, ix.recall_at_20, ix.mean_candidates,
    );
    let qz = &report.quantized;
    println!(
        "quantized int8: scan {:>8.1} ms ({:.2}x vs f32)   agreement@20 {:.4}   slack {:.2e}",
        qz.int8_scan_ms, qz.scan_speedup, qz.agreement_at_20, qz.bound_slack,
    );
    println!(
        "  ivf+int8 {:>8.1} ms   agreement@20 {:.4}",
        qz.ivf_int8_rank_ms, qz.ivf_int8_agreement_at_20,
    );

    let json = serde_json::to_string_pretty(&report).expect("serialise throughput report");
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    println!("[written {}]", out_path.display());
}
