//! The serving engine: frozen model + live per-user state + versioned box
//! cache.
//!
//! At startup the engine snapshots everything that training froze — the
//! parameter tensors (via an [`ItemScorer`] item-matrix snapshot), the
//! knowledge graph, and the popularity ranking used for cold users — and
//! keeps exactly two pieces of mutable state behind locks:
//!
//! - **live state** (`RwLock`): each user's capped concept history (a
//!   [`HistoryCache`] with per-user versions) plus their full interacted
//!   item set (the recommendation mask). [`Engine::ingest`] takes the write
//!   lock briefly; every read path shares the read lock.
//! - **box cache** (`Mutex<BoxCache>`): LRU of interest boxes keyed by
//!   `(user, history version)`. An ingest bumps the user's version, which
//!   makes their cached box unreachable — invalidation without touching any
//!   other user's entry.
//!
//! Both locks are instrumented ([`ObsRwLock`]/[`ObsMutex`]): wait and hold
//! times land in the `lock.engine.live.*` / `lock.engine.cache.*` series,
//! and contended acquisitions bump the matching `.contended` counters.
//! Lock order is always live → cache; no code path acquires them in the
//! other direction, so the engine cannot deadlock against itself.
//!
//! A recommend ranks through one of two paths. Users with an interest box
//! go through the candidate index: [`IvfIndex::select_probes`] then
//! [`IvfIndex::rerank_refined`], scoring with the active scorer and
//! re-scoring near-threshold candidates in exact f32. Full sort is not a
//! separate branch: it is the one-partition index
//! ([`IvfIndex::one_partition`]), whose single probe is every item. Cold
//! users rank the popularity vector with
//! [`top_k_masked_into`](inbox_eval::top_k_masked_into).
//!
//! The box-backed walk and the exact reference scan behind
//! [`Engine::oracle`] and the audit each run through
//! [`simd::dispatch`](inbox_core::simd::dispatch): the lane backend is
//! chosen once per request (an AVX2 twin when the CPU has it), never per
//! item, and every backend gives the same answer bit for bit.
//!
//! Both paths are allocation-free at steady state: per-thread scratch
//! buffers back them, and the `engine.candidates` / `engine.rerank` /
//! `engine.rank` allocation scopes make that property checkable at runtime
//! against the instrumented global allocator.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::simd::{self, Lanes, WithLanes};
use inbox_core::{
    BoxEmb, HistoryCache, InBoxConfig, InBoxModel, ItemScorer, ScoreScratch, TrainedInBox,
};
use inbox_data::Interactions;
use inbox_eval::{top_k_masked, top_k_masked_into, TopKScratch};
use inbox_index::{
    auto_nprobe, BoxQuery, IndexMode, IvfIndex, IvfParams, QueryScratch, RerankStats,
};
use inbox_kg::{Concept, ItemId, KnowledgeGraph, UserId};
use inbox_obs::{ObsMutex, ObsRwLock};

use crate::cache::BoxCache;
use crate::error::ServeError;
use crate::ServeConfig;

/// A served top-K answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The user the answer is for.
    pub user: UserId,
    /// Top-K `(item, score)` pairs, best first, interacted items excluded.
    pub items: Vec<(ItemId, f32)>,
    /// True when the user had no history and the popularity ranking was
    /// served instead of a box query.
    pub fallback: bool,
    /// The user's history version the answer was computed at.
    pub version: u64,
}

/// Receipt for an ingested interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    /// The user whose history was updated.
    pub user: UserId,
    /// The interacted item.
    pub item: ItemId,
    /// The user's history version after the ingest.
    pub version: u64,
    /// Whether the capped concept history changed (and the box cache entry
    /// was therefore invalidated).
    pub history_changed: bool,
    /// Whether the recommendation mask changed (item was new to the user).
    pub mask_changed: bool,
}

/// Monotonic serving statistics, readable at any time via
/// [`Engine::stats`]. Engine-local (not process-global) so concurrent
/// engines — e.g. parallel tests — observe only their own traffic; the same
/// events are mirrored to `inbox-obs` counters for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Recommend requests answered (including fallbacks, excluding sheds).
    pub requests: u64,
    /// Box forward passes executed (cache misses with non-empty history).
    pub rebuilds: u64,
    /// Box cache hits (including cached empty-history absences).
    pub cache_hits: u64,
    /// Box cache entries pushed out by the LRU capacity bound.
    pub evictions: u64,
    /// Requests answered from the popularity fallback.
    pub fallbacks: u64,
    /// Interactions ingested.
    pub ingests: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
}

#[derive(Default)]
struct StatCells {
    requests: AtomicU64,
    rebuilds: AtomicU64,
    cache_hits: AtomicU64,
    fallbacks: AtomicU64,
    ingests: AtomicU64,
    sheds: AtomicU64,
}

struct LiveState {
    /// Capped per-user concept histories with per-user versions.
    history: HistoryCache,
    /// Every item each user has interacted with (sorted) — the top-K mask.
    /// Unlike the capped history this grows without bound per user, exactly
    /// like the offline evaluation protocol's train mask.
    masks: Vec<Vec<ItemId>>,
}

/// Per-thread reusable buffers for the two ranking paths. After one warm
/// request per thread, [`Engine::recommend_now`] performs no heap
/// allocation inside the `engine.candidates`, `engine.rerank` and
/// `engine.rank` scopes.
#[derive(Default)]
struct RecommendScratch {
    /// Prepared box bounds for the per-item scorers.
    score: ScoreScratch,
    /// Probe + heap buffers of the candidate walk.
    query: QueryScratch,
    /// Re-ranked answer buffer of box-backed users.
    ranked: Vec<(ItemId, f32)>,
    /// Top-k buffers of the cold-user popularity ranking.
    topk: TopKScratch,
    out: Vec<ItemId>,
    /// The user's mask, copied out of the live state so the read lock is
    /// not held while ranking: ingests wait on it.
    mask: Vec<ItemId>,
}

thread_local! {
    static SCRATCH: RefCell<RecommendScratch> = RefCell::new(RecommendScratch::default());
}

/// The in-process recommendation engine. Thread-safe: all methods take
/// `&self` and may be called concurrently from any number of threads.
pub struct Engine {
    model: InBoxModel,
    config: InBoxConfig,
    kg: KnowledgeGraph,
    scorer: ItemScorer,
    /// Popularity score per item, frozen at startup (cold-user fallback).
    popularity: Vec<f32>,
    live: ObsRwLock<LiveState>,
    cache: ObsMutex<BoxCache>,
    /// Candidate index over the frozen item matrix. Under
    /// [`IndexMode::FullSort`] *and* when an IVF build failed it is the
    /// one-partition index ([`IvfIndex::one_partition`]), so every
    /// box-backed request ranks through the same probe → re-rank walk;
    /// the full sort is always correct, just slower.
    index: IvfIndex,
    /// Partitions probed per request (1 for the one-partition index).
    nprobe: usize,
    /// Whether `index` holds IVF partitions rather than the one-partition
    /// full sort.
    ivf: bool,
    stats: StatCells,
    obs_requests: inbox_obs::RateCounter,
    obs_rebuilds: inbox_obs::RateCounter,
    obs_cache_hits: inbox_obs::RateCounter,
    obs_fallbacks: inbox_obs::Counter,
    obs_ingests: inbox_obs::Counter,
    obs_index_requests: inbox_obs::RateCounter,
    obs_index_pruned: inbox_obs::Counter,
    /// Ingested items carrying no KG concept tags — the audit layer's
    /// ingest-stream coverage signal (untagged items can never move a box).
    obs_ingest_untagged: inbox_obs::Counter,
    n_users: usize,
}

impl Engine {
    /// Builds an engine from a frozen model and the interaction set that
    /// seeds user histories and masks (typically the training split).
    pub fn new(
        model: InBoxModel,
        config: InBoxConfig,
        kg: KnowledgeGraph,
        train: &Interactions,
        serve: &ServeConfig,
    ) -> Self {
        assert_eq!(
            kg.n_items(),
            train.n_items(),
            "KG and interaction item universes must agree"
        );
        let n_users = train.n_users();
        let n_items = train.n_items();
        let scorer = ItemScorer::with_quantization(&model, &config, n_items, serve.quantize);
        let popularity = train
            .item_popularity()
            .into_iter()
            .map(|c| c as f32)
            .collect();
        let history = HistoryCache::build(&kg, train, &config);
        let masks = (0..n_users as u32)
            .map(|u| train.items_of(UserId(u)).to_vec())
            .collect();
        let ivf = match serve.index {
            IndexMode::FullSort => None,
            IndexMode::Ivf { nlist, nprobe } => {
                let params = IvfParams {
                    nlist,
                    ..IvfParams::default()
                };
                match IvfIndex::build(scorer.items(), scorer.dim(), &params) {
                    // The build derives `nlist == 0` and clamps `nlist` to
                    // the catalog size, so `nprobe` clamps against the
                    // partitions it built, not the requested count.
                    Ok(ix) => {
                        let nprobe = match nprobe {
                            0 => auto_nprobe(ix.nlist()),
                            n => n.min(ix.nlist()),
                        };
                        Some((ix, nprobe))
                    }
                    Err(_) => {
                        // Degrade, never crash: the full sort answers every
                        // query the index would, just without the speedup.
                        inbox_obs::counter("serve.index.build_failed").incr();
                        None
                    }
                }
            }
        };
        let ivf_built = ivf.is_some();
        // Full sort is the one-partition index, probed once.
        let (index, nprobe) =
            ivf.unwrap_or_else(|| (IvfIndex::one_partition(scorer.items(), scorer.dim()), 1));
        Self {
            model,
            config,
            kg,
            scorer,
            popularity,
            live: ObsRwLock::new("engine.live", LiveState { history, masks }),
            cache: ObsMutex::new("engine.cache", BoxCache::new(serve.cache_cap)),
            index,
            nprobe,
            ivf: ivf_built,
            stats: StatCells::default(),
            obs_requests: inbox_obs::rate_counter("serve.requests"),
            obs_rebuilds: inbox_obs::rate_counter("serve.box.rebuilds"),
            obs_cache_hits: inbox_obs::rate_counter("serve.cache.hits"),
            obs_fallbacks: inbox_obs::counter("serve.fallback"),
            obs_ingests: inbox_obs::counter("serve.ingest"),
            obs_index_requests: inbox_obs::rate_counter("serve.index.requests"),
            obs_index_pruned: inbox_obs::counter("serve.index.pruned_partitions"),
            obs_ingest_untagged: inbox_obs::counter("serve.ingest.untagged"),
            n_users,
        }
    }

    /// Builds an engine from a training checkpoint, consuming it.
    pub fn from_trained(
        trained: TrainedInBox,
        kg: KnowledgeGraph,
        train: &Interactions,
        serve: &ServeConfig,
    ) -> Self {
        Self::new(trained.model, trained.config, kg, train, serve)
    }

    /// Number of users in the serving universe.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items in the serving universe.
    pub fn n_items(&self) -> usize {
        self.scorer.n_items()
    }

    /// The live IVF index, as `(nlist, nprobe)`: `None` under
    /// [`IndexMode::FullSort`] or after a failed IVF build (the engine then
    /// serves full sorts through the one-partition index). The resolved
    /// values reflect the auto-derivation of `0` knobs, and
    /// `nprobe <= nlist` always holds.
    pub fn index_active(&self) -> Option<(usize, usize)> {
        self.ivf.then(|| (self.index.nlist(), self.nprobe))
    }

    /// The item-matrix quantization the scorer was built with.
    pub fn quantization(&self) -> inbox_core::Quantization {
        self.scorer.quantization()
    }

    /// Number of interest boxes currently resident in the box cache.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            rebuilds: self.stats.rebuilds.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            evictions: self.cache.lock().unwrap().evictions(),
            fallbacks: self.stats.fallbacks.load(Ordering::Relaxed),
            ingests: self.stats.ingests.load(Ordering::Relaxed),
            sheds: self.stats.sheds.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_shed(&self) {
        self.stats.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// The user's current history version.
    pub fn version_of(&self, user: UserId) -> Result<u64, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        Ok(self.live.read().unwrap().history.version(user))
    }

    /// Records a live interaction. Takes the live write lock briefly; the
    /// user's box is *not* recomputed here — the version bump makes the
    /// cached box unreachable and the next recommend rebuilds it lazily.
    pub fn ingest(&self, user: UserId, item: ItemId) -> Result<Ingested, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        if item.index() >= self.n_items() {
            return Err(ServeError::UnknownItem(item));
        }
        let (version, history_changed, mask_changed) = {
            let mut live = self.live.write().unwrap();
            let mask = &mut live.masks[user.index()];
            let mask_changed = match mask.binary_search(&item) {
                Err(pos) => {
                    mask.insert(pos, item);
                    true
                }
                Ok(_) => false,
            };
            let history_changed = live.history.ingest(&self.kg, &self.config, user, item);
            (live.history.version(user), history_changed, mask_changed)
        };
        self.stats.ingests.fetch_add(1, Ordering::Relaxed);
        self.obs_ingests.incr();
        if self.kg.concepts_of(item).is_empty() {
            self.obs_ingest_untagged.incr();
        }
        Ok(Ingested {
            user,
            item,
            version,
            history_changed,
            mask_changed,
        })
    }

    /// Resolves the user's interest box at their current history version:
    /// cache hit, or lazy rebuild (one forward pass) followed by a cache
    /// insert. Returns the version the box belongs to.
    fn resolve_box(&self, user: UserId) -> (u64, Option<Arc<BoxEmb>>) {
        let _resolve_span = inbox_obs::ctx_span("engine.resolve_box");
        let live = self.live.read().unwrap();
        let version = live.history.version(user);
        if let Some(hit) = self.cache.lock().unwrap().get(user.0, version) {
            drop(live);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.obs_cache_hits.incr();
            // Zero-ish-duration marker span: its presence in the tree is
            // the information.
            drop(inbox_obs::ctx_span("engine.cache_hit"));
            return (version, hit);
        }
        // Miss: clone the history under the same read lock, so the box we
        // build below belongs to exactly `version` even if an ingest lands
        // while we compute.
        let history = live.history.history(user).to_vec();
        drop(live);
        let value = if history.is_empty() {
            None
        } else {
            self.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            self.obs_rebuilds.incr();
            let _rebuild_span = inbox_obs::ctx_span("engine.rebuild");
            let _rebuild_alloc = inbox_obs::alloc_scope("engine.rebuild");
            let mut tape = Tape::new();
            user_box_from_history(&self.model, &self.config, &mut tape, user, &history)
                .map(Arc::new)
        };
        // Chaos site: skipping the insert is indistinguishable from the
        // entry being evicted by a concurrent flood of other users the
        // instant after it was cached — the answer must not change.
        if !inbox_obs::failpoint!("serve.cache.evict") {
            self.cache
                .lock()
                .unwrap()
                .insert(user.0, version, value.clone());
        }
        (version, value)
    }

    /// Answers one recommend request immediately on the calling thread
    /// ([`Service`](crate::Service) calls this once per admitted request;
    /// tests may call it directly). Users with a box get the geometric
    /// ranking; cold users get the popularity fallback instead of an error.
    pub fn recommend_now(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        let _recommend_span = inbox_obs::ctx_span("engine.recommend");
        let (version, resolved) = self.resolve_box(user);
        let fallback = resolved.is_none();
        if fallback {
            self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            self.obs_fallbacks.incr();
        }
        // Rank through per-thread scratch buffers: after one warm request
        // per thread, no scope below allocates. The answer's own `items`
        // vector is materialised outside the scopes — it leaves with the
        // caller, so it is intrinsic to the request, not overhead.
        let items = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let RecommendScratch {
                score,
                query,
                ranked,
                topk,
                out,
                mask,
            } = &mut *scratch;
            let Some(b) = resolved.as_deref() else {
                // Cold users rank the popularity vector, masked.
                {
                    let _rank_span = inbox_obs::ctx_span("engine.rank");
                    let _rank_alloc = inbox_obs::alloc_scope("engine.rank");
                    self.copy_mask(user, mask);
                    top_k_masked_into(&self.popularity, mask, k, topk, out);
                }
                return out
                    .iter()
                    .map(|&i| (i, self.popularity[i.index()]))
                    .collect();
            };
            // Box-backed users: candidate generation (probe selection) +
            // exact re-rank over the probed partitions, on the lane
            // backend chosen once for the whole walk. Whenever the probed
            // partitions contain the true top-k the answer is
            // byte-identical to the exact reference ranking.
            self.scorer.prepare_box_bounds(b, score);
            let q = self.box_query(b, score);
            let rerank_stats = simd::dispatch(BoxWalk {
                engine: self,
                user,
                k,
                b,
                q: &q,
                score,
                query,
                mask,
                ranked,
            });
            inbox_obs::record_value("engine.candidates.size", rerank_stats.candidates as u64);
            self.obs_index_requests.incr();
            self.obs_index_pruned
                .add(rerank_stats.pruned_partitions as u64);
            ranked.clone()
        });
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.obs_requests.incr();
        Ok(Recommendation {
            user,
            items,
            fallback,
            version,
        })
    }

    /// The probe-stage view of a box whose bounds `score` holds.
    fn box_query<'a>(&self, b: &'a BoxEmb, score: &'a ScoreScratch) -> BoxQuery<'a> {
        BoxQuery {
            lo: score.lo(),
            hi: score.hi(),
            cen: &b.cen,
            inside_weight: self.scorer.inside_weight(),
            gamma: self.scorer.gamma(),
            bound_slack: self.scorer.bound_slack(),
        }
    }

    /// Copies `user`'s current mask into `out` under a brief live read lock.
    fn copy_mask(&self, user: UserId, out: &mut Vec<ItemId>) {
        out.clear();
        out.extend_from_slice(&self.live.read().unwrap().masks[user.index()]);
    }

    /// Reference answer computed with a fresh forward pass, bypassing the
    /// box cache (the single-threaded oracle of the serving tests): the
    /// exact FullSort f32 ranking, with every item scored through
    /// [`ItemScorer::score_item_prepared_f32`] and ranked with the
    /// production tie-break (score descending, item id ascending).
    /// [`Engine::recommend_now`] is bit-identical to this for any fixed
    /// history version under full sort, int8 or f32 (and under IVF
    /// whenever the probed partitions hold the true top-k).
    pub fn oracle(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        let (version, history, mask) = {
            let live = self.live.read().unwrap();
            (
                live.history.version(user),
                live.history.history(user).to_vec(),
                live.masks[user.index()].clone(),
            )
        };
        let (items, fallback) = self.exact_topk(user, &history, &mask, k);
        Ok(Recommendation {
            user,
            items,
            fallback,
            version,
        })
    }

    /// Shadow-oracle re-rank for the online audit worker: the same exact
    /// FullSort f32 ranking as [`oracle`](Self::oracle) for
    /// `(user, version)`, computed off the hot path with fresh
    /// allocations, so a healthy serving configuration compares
    /// byte-identical against it.
    ///
    /// Returns `Ok(None)` when the comparison would be against different
    /// live state than the answer was served from: the user's history
    /// version moved past `version`, or the mask grew over one of the
    /// served items without a version bump (an ingest of an item already
    /// in the capped history changes the mask only). Such samples are
    /// *stale*, not mismatched.
    pub fn audit_rerank(
        &self,
        user: UserId,
        version: u64,
        k: usize,
        served: &[(ItemId, f32)],
    ) -> Result<Option<Vec<(ItemId, f32)>>, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        let (history, mask) = {
            let live = self.live.read().unwrap();
            if live.history.version(user) != version {
                return Ok(None);
            }
            (
                live.history.history(user).to_vec(),
                live.masks[user.index()].clone(),
            )
        };
        if served.iter().any(|(i, _)| mask.binary_search(i).is_ok()) {
            return Ok(None);
        }
        Ok(Some(self.exact_topk(user, &history, &mask, k).0))
    }

    /// The exact reference ranking both [`oracle`](Self::oracle) and
    /// [`audit_rerank`](Self::audit_rerank) answer with: a fresh forward
    /// pass, every item scored through
    /// [`ItemScorer::score_item_prepared_f32`] — the per-item kernel of the
    /// f32 full scan and of every serving refine — and the production
    /// tie-break (score descending, item id ascending). It never runs a
    /// serving refine itself, so it checks them rather than repeats them.
    /// Cold users get the popularity ranking, flagged as a fallback.
    fn exact_topk(
        &self,
        user: UserId,
        history: &[(ItemId, Vec<Concept>)],
        mask: &[ItemId],
        k: usize,
    ) -> (Vec<(ItemId, f32)>, bool) {
        let mut tape = Tape::new();
        let b = user_box_from_history(&self.model, &self.config, &mut tape, user, history);
        let scores: Vec<f32> = match &b {
            Some(b) => {
                let mut scratch = ScoreScratch::default();
                self.scorer.prepare_box_bounds(b, &mut scratch);
                simd::dispatch(ExactScan {
                    scorer: &self.scorer,
                    b,
                    scratch: &scratch,
                })
            }
            None => self.popularity.clone(),
        };
        let items = top_k_masked(&scores, mask, k)
            .into_iter()
            .map(|i| (i, scores[i.index()]))
            .collect();
        (items, b.is_none())
    }
}

/// One box-backed request's walk — probe selection, then the coarse walk
/// with its exact f32 refine — as a single [`WithLanes`] body, so
/// [`simd::dispatch`] picks the lane backend once per request. The walk
/// scores candidates with the active scorer (int8 or f32) and re-scores
/// the near-threshold survivors through the f32 per-item kernel;
/// unquantized, both are the same f32 score and the slack is 0.
struct BoxWalk<'a> {
    engine: &'a Engine,
    user: UserId,
    k: usize,
    b: &'a BoxEmb,
    q: &'a BoxQuery<'a>,
    score: &'a ScoreScratch,
    query: &'a mut QueryScratch,
    mask: &'a mut Vec<ItemId>,
    ranked: &'a mut Vec<(ItemId, f32)>,
}

impl WithLanes for BoxWalk<'_> {
    type Output = RerankStats;

    #[inline(always)]
    fn run<L: Lanes>(self) -> RerankStats {
        let Self {
            engine,
            user,
            k,
            b,
            q,
            score,
            query,
            mask,
            ranked,
        } = self;
        {
            let _cand_span = inbox_obs::ctx_span("engine.candidates");
            let _cand_alloc = inbox_obs::alloc_scope("engine.candidates");
            engine.index.select_probes(q, engine.nprobe, query);
        }
        let _rerank_span = inbox_obs::ctx_span("engine.rerank");
        let _rerank_alloc = inbox_obs::alloc_scope("engine.rerank");
        engine.copy_mask(user, mask);
        let scorer = &engine.scorer;
        engine.index.rerank_refined(
            q,
            k,
            mask,
            |i| scorer.score_item_prepared_with::<L>(b, score, i),
            |i| scorer.score_item_prepared_f32_with::<L>(b, score, i),
            query,
            ranked,
        )
    }
}

/// The exact reference scan: every item's f32 score against a prepared
/// box, in item order.
struct ExactScan<'a> {
    scorer: &'a ItemScorer,
    b: &'a BoxEmb,
    scratch: &'a ScoreScratch,
}

impl WithLanes for ExactScan<'_> {
    type Output = Vec<f32>;

    #[inline(always)]
    fn run<L: Lanes>(self) -> Vec<f32> {
        let n = self.scorer.n_items() as u32;
        let mut scores = Vec::with_capacity(n as usize);
        for i in 0..n {
            scores.push(
                self.scorer
                    .score_item_prepared_f32_with::<L>(self.b, self.scratch, i),
            );
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inbox_core::simd::F32x8;
    use inbox_core::{Quantization, UniverseSizes};
    use inbox_data::{Dataset, SyntheticConfig};

    fn engine(index: IndexMode, quantize: Quantization) -> Engine {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 5);
        // 37 dims: four full lane chunks plus a five-lane remainder.
        let cfg = InBoxConfig::for_dim(37);
        let sizes = UniverseSizes {
            n_items: ds.kg.n_items(),
            n_tags: ds.kg.n_tags(),
            n_relations: ds.kg.n_relations(),
            n_users: ds.train.n_users(),
        };
        let model = InBoxModel::new(sizes, &cfg);
        let serve = ServeConfig {
            index,
            quantize,
            ..ServeConfig::default()
        };
        Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve)
    }

    /// One request's box walk from cold scratch, run by `run`; `None` for
    /// a user without a box.
    fn walk(
        engine: &Engine,
        user: UserId,
        k: usize,
        run: impl for<'w> FnOnce(BoxWalk<'w>) -> RerankStats,
    ) -> Option<(Vec<(ItemId, f32)>, RerankStats)> {
        let b = engine.resolve_box(user).1?;
        let mut score = ScoreScratch::default();
        let (mut query, mut mask, mut ranked) = Default::default();
        engine.scorer.prepare_box_bounds(&b, &mut score);
        let q = engine.box_query(&b, &score);
        let stats = run(BoxWalk {
            engine,
            user,
            k,
            b: &b,
            q: &q,
            score: &score,
            query: &mut query,
            mask: &mut mask,
            ranked: &mut ranked,
        });
        Some((ranked, stats))
    }

    /// The AVX2 walk twin, as [`simd::dispatch`] compiles it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn walk_avx2(w: BoxWalk<'_>) -> RerankStats {
        w.run::<inbox_core::simd::F32x8Avx2>()
    }

    fn bits(items: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
        items.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    /// Every box-backed answer is byte-identical through the baseline
    /// walk and the AVX2 twin (when the CPU has AVX2), with the same
    /// `RerankStats`, and equals what `recommend_now` serves — over full
    /// sort and IVF, f32 and int8.
    #[test]
    fn baseline_and_avx2_walks_answer_byte_identically() {
        let ivf = IndexMode::Ivf {
            nlist: 12,
            nprobe: 4,
        };
        for (index, quantize) in [
            (IndexMode::FullSort, Quantization::None),
            (IndexMode::FullSort, Quantization::Int8),
            (ivf, Quantization::None),
            (ivf, Quantization::Int8),
        ] {
            let engine = engine(index, quantize);
            let mut walked = 0;
            for u in 0..engine.n_users() as u32 {
                let user = UserId(u);
                let Some((base, base_stats)) = walk(&engine, user, 10, |w| w.run::<F32x8>()) else {
                    continue;
                };
                walked += 1;
                let served = engine.recommend_now(user, 10).expect("served");
                assert_eq!(
                    bits(&served.items),
                    bits(&base),
                    "{index} {quantize:?} {user:?}"
                );
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU supports AVX2 (checked just above).
                    let (twin, twin_stats) =
                        walk(&engine, user, 10, |w| unsafe { walk_avx2(w) }).expect("box");
                    assert_eq!(bits(&twin), bits(&base), "{index} {quantize:?} {user:?}");
                    assert_eq!(twin_stats, base_stats, "{index} {quantize:?} {user:?}");
                }
            }
            assert!(walked > 0, "the fixture has box-backed users");
        }
    }
}
