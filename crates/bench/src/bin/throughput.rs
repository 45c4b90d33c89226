//! End-to-end hot-path throughput benchmark: gradient samples/sec for each
//! training stage and wall-clock for the inference path (`all_user_boxes`
//! plus a full ranking pass).
//!
//! Writes `BENCH_throughput.json` at the repo root so successive PRs have a
//! perf trajectory. Workflow:
//!
//! ```text
//! # record the reference numbers (e.g. before an optimisation):
//! cargo run --release -p inbox-bench --bin throughput -- --save-baseline
//! # after the change, measure again and compare against the stored baseline:
//! cargo run --release -p inbox-bench --bin throughput
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
use inbox_core::stages::{stage1_loss, stage2_loss, stage3_loss, BatchRunner};
use inbox_core::{InBoxConfig, InBoxScorer, ItemScorer, Quantization, ScoreScratch};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::{evaluate_with_threads, top_k_masked_into, TopKScratch};
use inbox_index::{auto_nprobe, BoxQuery, IvfIndex, IvfParams, QueryScratch};
use inbox_kg::ItemId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One set of throughput measurements (higher is better except `*_ms`).
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Ratios of `current` over `baseline` (for `*_ms` fields: baseline/current,
/// so >1 always means faster).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Speedup {
    stage1: f64,
    stage2: f64,
    stage3: f64,
    user_boxes: f64,
    rank: f64,
}

/// The candidate-index stage: full-sort vs IVF top-20 ranking on the
/// items-scaled catalog twin (`--items-scale`, default 100x) with item
/// points warm-started to clustered (trained-like) geometry. `rank_speedup`
/// is full-sort wall-clock over IVF wall-clock for the same user set;
/// `recall_at_20` is measured against the exact full-sort top-20.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    dataset: String,
    dim: usize,
    threads: usize,
    batch_size: usize,
    reps: usize,
    baseline: Option<Numbers>,
    current: Numbers,
    speedup: Option<Speedup>,
    /// Absent in reports written before the index subsystem existed.
    #[serde(default)]
    indexed: Option<IndexedStage>,
    /// Absent in reports written before int8 inference existed.
    #[serde(default)]
    quantized: Option<QuantizedStage>,
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

/// Measures the indexed stage: build an items-scaled twin of `synth`,
/// warm-start clustered item points (the post-training regime the index
/// serves in — see `InBoxModel::set_item_points`), then time exact
/// full-sort top-20 against IVF-probed top-20 over every user with a box.
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
    let users: Vec<&inbox_core::geometry::BoxEmb> = boxes.iter().flatten().collect();
    let k = 20;

    let _span = inbox_obs::span("bench.throughput.indexed");
    let (build_secs, index) = best_of(reps, || {
        IvfIndex::build(scorer.items(), scorer.dim(), &IvfParams::default())
            .expect("index build on a well-shaped catalog")
    });
    let nlist = index.nlist();
    let nprobe = auto_nprobe(nlist);

    // Exact full sort through the production path (score_box_into +
    // top_k_masked_into), unmasked on both sides.
    let mut scores = Vec::new();
    let mut score_scratch = ScoreScratch::default();
    let mut topk = TopKScratch::default();
    let mut top: Vec<ItemId> = Vec::new();
    let (full_secs, full_tops) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        for b in &users {
            scorer.score_box_into(b, &mut score_scratch, &mut scores);
            top_k_masked_into(&scores, &[], k, &mut topk, &mut top);
            tops.push(top.clone());
        }
        tops
    });

    // IVF: probe selection + box-pruned exact re-rank, same users.
    let mut qscratch = QueryScratch::default();
    let mut ranked: Vec<(ItemId, f32)> = Vec::new();
    let (ivf_secs, (ivf_tops, candidates)) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        let mut candidates = 0u64;
        for b in &users {
            scorer.prepare_box_bounds(b, &mut score_scratch);
            let q = BoxQuery {
                lo: score_scratch.lo(),
                hi: score_scratch.hi(),
                cen: &b.cen,
                inside_weight: scorer.inside_weight(),
                gamma: scorer.gamma(),
                bound_slack: 0.0,
            };
            index.select_probes(&q, nprobe, &mut qscratch);
            let stats = index.rerank_refined(
                &q,
                k,
                &[],
                |i| scorer.score_item_prepared(b, &score_scratch, i),
                |i| scorer.score_item_prepared(b, &score_scratch, i),
                &mut qscratch,
                &mut ranked,
            );
            candidates += stats.candidates as u64;
            tops.push(ranked.iter().map(|&(i, _)| i).collect());
        }
        (tops, candidates)
    });

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
    // dequantize-free int8 kernel — exact full scan first (agreement is
    // measured against the f32 full-sort top-20 above), then the IVF
    // re-rank with the prune widened by the scorer's bound slack.
    let _qspan = inbox_obs::span("bench.throughput.quantized");
    let qscorer = ItemScorer::with_quantization(&model, cfg, ds.kg.n_items(), Quantization::Int8);
    let (int8_secs, int8_tops) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        for b in &users {
            // The production quantized full sort: int8 scan + bounded-error
            // refine (exact f32 re-scoring of near-threshold candidates).
            qscorer.score_box_into(b, &mut score_scratch, &mut scores);
            qscorer.refined_topk_into(b, &mut score_scratch, &scores, &[], k, &mut ranked);
            tops.push(ranked.iter().map(|&(i, _)| i).collect());
        }
        tops
    });
    let (ivf8_secs, ivf8_tops) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        for b in &users {
            qscorer.prepare_box_bounds(b, &mut score_scratch);
            let q = BoxQuery {
                lo: score_scratch.lo(),
                hi: score_scratch.hi(),
                cen: &b.cen,
                inside_weight: qscorer.inside_weight(),
                gamma: qscorer.gamma(),
                bound_slack: qscorer.bound_slack(),
            };
            index.select_probes(&q, nprobe, &mut qscratch);
            index.rerank_refined(
                &q,
                k,
                &[],
                |i| qscorer.score_item_prepared(b, &score_scratch, i),
                |i| qscorer.score_item_prepared_f32(b, &score_scratch, i),
                &mut qscratch,
                &mut ranked,
            );
            tops.push(ranked.iter().map(|&(i, _)| i).collect());
        }
        tops
    });
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
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
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

    // A stored baseline (same dataset/threads) survives re-measurement runs;
    // `--save-baseline` replaces it with the numbers just measured.
    let previous: Option<Report> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let baseline = if save_baseline {
        Some(current.clone())
    } else {
        previous.and_then(|p| {
            if p.dataset == synth.name && p.threads == threads {
                p.baseline
            } else {
                None
            }
        })
    };
    let speedup = baseline.as_ref().map(|b| Speedup {
        stage1: current.stage1_samples_per_sec / b.stage1_samples_per_sec,
        stage2: current.stage2_samples_per_sec / b.stage2_samples_per_sec,
        stage3: current.stage3_samples_per_sec / b.stage3_samples_per_sec,
        user_boxes: b.user_boxes_ms / current.user_boxes_ms,
        rank: b.rank_ms / current.rank_ms,
    });

    let report = Report {
        dataset: synth.name.clone(),
        dim: cfg.dim,
        threads,
        batch_size: cfg.batch_size,
        reps,
        baseline,
        current,
        speedup,
        indexed: Some(indexed),
        quantized: Some(quantized),
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
    if let Some(s) = &report.speedup {
        println!(
            "speedup vs baseline: stage1 {:.2}x stage2 {:.2}x stage3 {:.2}x user_boxes {:.2}x rank {:.2}x",
            s.stage1, s.stage2, s.stage3, s.user_boxes, s.rank
        );
    }
    if let Some(ix) = &report.indexed {
        println!(
            "indexed @{}x catalog ({} items, {} users): nlist {} nprobe {} build {:.1} ms",
            ix.items_scale, ix.n_items, ix.n_users_ranked, ix.nlist, ix.nprobe, ix.build_ms,
        );
        println!(
            "  full sort {:>8.1} ms   ivf {:>8.1} ms   speedup {:.2}x   recall@20 {:.4}   {:.0} cand/user",
            ix.full_rank_ms, ix.ivf_rank_ms, ix.rank_speedup, ix.recall_at_20, ix.mean_candidates,
        );
    }
    if let Some(qz) = &report.quantized {
        println!(
            "quantized int8: scan {:>8.1} ms ({:.2}x vs f32)   agreement@20 {:.4}   slack {:.2e}",
            qz.int8_scan_ms, qz.scan_speedup, qz.agreement_at_20, qz.bound_slack,
        );
        println!(
            "  ivf+int8 {:>8.1} ms   agreement@20 {:.4}",
            qz.ivf_int8_rank_ms, qz.ivf_int8_agreement_at_20,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serialise throughput report");
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    println!("[written {}]", out_path.display());
}
