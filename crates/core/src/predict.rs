//! Inference: building interest boxes for users and scoring items
//! (Section 3.5, Eq. (29)).
//!
//! The hot path is organised around two amortisations: a [`HistoryCache`]
//! precomputes every user's capped `(item, concepts)` history once per
//! training run (history and KG are immutable during training), and
//! [`InBoxScorer`] snapshots the item-embedding table into one contiguous
//! matrix so scoring a user is a single linear scan instead of per-item row
//! lookups. [`all_user_boxes_with`] fans the per-user forward passes out
//! over the training run's persistent [`WorkerPool`].

use std::sync::{Mutex, OnceLock};

use inbox_autodiff::Tape;
use inbox_data::Interactions;
use inbox_eval::Scorer;
use inbox_kg::{Concept, ItemId, KnowledgeGraph, UserId};

use crate::config::InBoxConfig;
use crate::geometry::BoxEmb;
use crate::model::{InBoxModel, ItemBoxParts};
use crate::pool::WorkerPool;
use crate::simd::{self, F32x8, Lanes, Quantization, QuantizedItems};

/// Precomputed per-user history: the first `max_history_infer` training
/// items, each with its first `max_concepts` concepts — exactly the history
/// [`user_interest_box`] derives on every call, computed once.
///
/// Training treats the cache as immutable; online serving mutates it through
/// [`HistoryCache::ingest`], which appends a freshly observed interaction to
/// one user's capped history and bumps that user's **version**. Versions let
/// downstream box caches detect staleness per user: a cached box computed at
/// version `v` is valid exactly while `version(user) == v`.
pub struct HistoryCache {
    histories: Vec<Vec<(ItemId, Vec<Concept>)>>,
    /// Monotonic per-user change counter; starts at 0, bumped by `ingest`.
    versions: Vec<u64>,
}

impl HistoryCache {
    /// Builds the cache for every user in `train`.
    pub fn build(kg: &KnowledgeGraph, train: &Interactions, config: &InBoxConfig) -> Self {
        let histories: Vec<Vec<(ItemId, Vec<Concept>)>> = (0..train.n_users() as u32)
            .map(|u| {
                let items = train.items_of(UserId(u));
                let capped: &[ItemId] = if items.len() > config.max_history_infer {
                    &items[..config.max_history_infer]
                } else {
                    items
                };
                capped
                    .iter()
                    .map(|&i| {
                        let cs = kg.concepts_of(i);
                        let take = cs.len().min(config.max_concepts);
                        (i, cs[..take].to_vec())
                    })
                    .collect()
            })
            .collect();
        let versions = vec![0; histories.len()];
        Self {
            histories,
            versions,
        }
    }

    /// Number of users covered by the cache.
    pub fn n_users(&self) -> usize {
        self.histories.len()
    }

    /// The cached history of `user` (empty when the user has no history).
    pub fn history(&self, user: UserId) -> &[(ItemId, Vec<Concept>)] {
        &self.histories[user.index()]
    }

    /// The user's history version: 0 as built, +1 per effective [`ingest`].
    ///
    /// [`ingest`]: HistoryCache::ingest
    pub fn version(&self, user: UserId) -> u64 {
        self.versions[user.index()]
    }

    /// Records a live interaction: appends `item` (with its capped concept
    /// list) to the user's history and bumps their version. Returns `true`
    /// when the history actually changed; an item already present or a
    /// history already at `max_history_infer` leaves both the history and
    /// the version untouched, so cached boxes stay valid.
    pub fn ingest(
        &mut self,
        kg: &KnowledgeGraph,
        config: &InBoxConfig,
        user: UserId,
        item: ItemId,
    ) -> bool {
        let history = &mut self.histories[user.index()];
        if history.len() >= config.max_history_infer || history.iter().any(|(i, _)| *i == item) {
            return false;
        }
        let cs = kg.concepts_of(item);
        let take = cs.len().min(config.max_concepts);
        history.push((item, cs[..take].to_vec()));
        self.versions[user.index()] += 1;
        true
    }
}

/// Builds the interest box of a single user from their training history
/// (forward pass only — the same tape code as training, without backward).
/// Returns `None` for users with no history.
pub fn user_interest_box(
    model: &InBoxModel,
    kg: &KnowledgeGraph,
    train: &Interactions,
    config: &InBoxConfig,
    user: UserId,
) -> Option<BoxEmb> {
    let items = train.items_of(user);
    if items.is_empty() {
        return None;
    }
    let capped: &[ItemId] = if items.len() > config.max_history_infer {
        &items[..config.max_history_infer]
    } else {
        items
    };
    let history: Vec<(ItemId, Vec<Concept>)> = capped
        .iter()
        .map(|&i| {
            let cs = kg.concepts_of(i);
            let take = cs.len().min(config.max_concepts);
            (i, cs[..take].to_vec())
        })
        .collect();
    let mut tape = Tape::new();
    tape.reset();
    let b = model.interest_box(
        &mut tape,
        user,
        &history,
        config.intersection,
        config.user_box,
    );
    Some(model.box_values(&tape, b))
}

/// Builds one user's interest box from an explicit (already capped) history
/// on a reusable tape — the single-user building block behind online
/// serving. Follows the exact op sequence of [`user_interest_box`], so a box
/// computed here is bit-identical to one computed from an [`Interactions`]
/// set carrying the same history. Returns `None` for an empty history.
pub fn user_box_from_history(
    model: &InBoxModel,
    config: &InBoxConfig,
    tape: &mut Tape,
    user: UserId,
    history: &[(ItemId, Vec<Concept>)],
) -> Option<BoxEmb> {
    if history.is_empty() {
        return None;
    }
    tape.reset();
    let b = model.interest_box(tape, user, history, config.intersection, config.user_box);
    Some(model.box_values(tape, b))
}

/// One user's box from an already-capped history and precomputed per-item
/// parts, on a reusable tape.
fn box_from_history(
    model: &InBoxModel,
    config: &InBoxConfig,
    tape: &mut Tape,
    user: UserId,
    history: &[(ItemId, Vec<Concept>)],
    parts: &[Option<ItemBoxParts>],
) -> Option<BoxEmb> {
    if history.is_empty() {
        return None;
    }
    tape.reset();
    let b = model.interest_box_cached(tape, user, history, parts, config.user_box);
    Some(model.box_values(tape, b))
}

/// Precomputes [`ItemBoxParts`] for every distinct item appearing in any
/// cached history, indexed by item id. Each item's stage-2 intersection is
/// computed once here instead of once per `(user, history item)` pair.
fn build_item_parts(
    model: &InBoxModel,
    cache: &HistoryCache,
    config: &InBoxConfig,
) -> Vec<Option<ItemBoxParts>> {
    let mut parts: Vec<Option<ItemBoxParts>> = Vec::new();
    let mut tape = Tape::new();
    for u in 0..cache.n_users() {
        for (item, concepts) in cache.history(UserId(u as u32)) {
            let idx = item.index();
            if idx >= parts.len() {
                parts.resize_with(idx + 1, || None);
            }
            if parts[idx].is_none() {
                parts[idx] =
                    Some(model.item_box_parts(&mut tape, *item, concepts, config.intersection));
            }
        }
    }
    parts
}

/// Builds interest boxes for every user.
///
/// Convenience wrapper that derives the history cache on the fly and runs
/// sequentially; training loops should build a [`HistoryCache`] once and
/// call [`all_user_boxes_with`].
pub fn all_user_boxes(
    model: &InBoxModel,
    kg: &KnowledgeGraph,
    train: &Interactions,
    config: &InBoxConfig,
) -> Vec<Option<BoxEmb>> {
    let cache = HistoryCache::build(kg, train, config);
    all_user_boxes_with(model, &cache, config, None)
}

/// Builds interest boxes for every user from a precomputed history cache,
/// fanning out over `pool` when one is supplied. The parallel split is by
/// contiguous user ranges, so the output is identical to the sequential
/// path (each user's box is an independent forward pass).
pub fn all_user_boxes_with(
    model: &InBoxModel,
    cache: &HistoryCache,
    config: &InBoxConfig,
    pool: Option<&WorkerPool>,
) -> Vec<Option<BoxEmb>> {
    let n = cache.n_users();
    // Per-item parts are rebuilt on every call: they depend on the current
    // parameters, which change between calls during training.
    let parts = build_item_parts(model, cache, config);
    let parts = &parts[..];
    match pool {
        Some(pool) if pool.workers() > 1 && n >= pool.workers() * 4 => {
            let workers = pool.workers();
            let chunk = n.div_ceil(workers);
            let slots: Vec<Mutex<Vec<Option<BoxEmb>>>> =
                (0..workers).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(&|w| {
                let lo = (w * chunk).min(n);
                let hi = (lo + chunk).min(n);
                let mut tape = Tape::new();
                let mut out = Vec::with_capacity(hi - lo);
                for u in lo..hi {
                    let user = UserId(u as u32);
                    out.push(box_from_history(
                        model,
                        config,
                        &mut tape,
                        user,
                        cache.history(user),
                        parts,
                    ));
                }
                *slots[w].lock().unwrap() = out;
            });
            slots
                .into_iter()
                .flat_map(|m| m.into_inner().unwrap())
                .collect()
        }
        _ => {
            let mut tape = Tape::new();
            (0..n)
                .map(|u| {
                    let user = UserId(u as u32);
                    box_from_history(model, config, &mut tape, user, cache.history(user), parts)
                })
                .collect()
        }
    }
}

/// Reusable buffers for [`ItemScorer::score_box_into`]: the per-dimension
/// box bounds (plus, under int8 quantization, the bounds transformed into
/// the quantized domain), kept warm so steady-state scoring allocates
/// nothing.
#[derive(Default)]
pub struct ScoreScratch {
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// Quantized-domain bounds/center, stride-padded; filled by
    /// `prepare_box_bounds` only when the scorer is quantized.
    qlo: Vec<f32>,
    qhi: Vec<f32>,
    qcen: Vec<f32>,
}

impl ScoreScratch {
    /// Lower box corner per dimension, as prepared by
    /// [`ItemScorer::prepare_box_bounds`].
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Upper box corner per dimension, as prepared by
    /// [`ItemScorer::prepare_box_bounds`].
    pub fn hi(&self) -> &[f32] {
        &self.hi
    }
}

/// The per-item scoring kernel shared by the full scan and the per-item
/// path: `γ - (d_out + w·d_in)` via the lane-striped SIMD kernel
/// ([`simd::d_pb_bounds_parts`]). Keeping both paths on this single
/// function is what makes candidate re-ranking bit-identical to the full
/// sort, and sharing the kernel with [`geometry::d_pb_weighted`] makes
/// the matrix snapshot bit-identical to the per-item reference path too.
#[inline(always)]
fn score_row<L: Lanes>(
    row: &[f32],
    cen: &[f32],
    lo: &[f32],
    hi: &[f32],
    gamma: f32,
    inside_weight: f32,
) -> f32 {
    let (out, inside) = simd::d_pb_bounds_parts_with::<L>(row, cen, lo, hi);
    gamma - (out + inside_weight * inside)
}

/// An owned snapshot of the item-embedding table that scores any interest
/// box against every item: `γ - D_PB(v_i, b)` (Eq. (29)).
///
/// On construction the scorer copies the item table into one contiguous
/// `n_items × d` matrix, so scoring walks a single allocation in item order.
/// The per-dimension arithmetic mirrors
/// [`geometry::d_pb_weighted`](crate::geometry::d_pb_weighted) exactly
/// (separate outside/inside accumulators, same operation order), keeping
/// scores bit-identical to the per-item reference path.
///
/// Owning the snapshot (no borrow of the model or a boxes slice) is what
/// lets long-lived services score boxes computed after the snapshot was
/// taken — the item table is frozen at serving time, user boxes are not.
pub struct ItemScorer {
    gamma: f32,
    inside_weight: f32,
    n_items: usize,
    dim: usize,
    /// Row-major `n_items × dim` snapshot of the item points.
    items: Vec<f32>,
    /// Int8 twin of `items` when quantized inference is enabled; scoring
    /// then goes through the dequantize-free kernel instead of `items`.
    quant: Option<QuantizedItems>,
    /// Lazily-built score vector for history-less users, cloned per call.
    sentinel: OnceLock<Vec<f32>>,
}

impl ItemScorer {
    /// Snapshots the current item-point matrix of `model` (full-f32
    /// scoring; see [`with_quantization`](Self::with_quantization)).
    pub fn new(model: &InBoxModel, config: &InBoxConfig, n_items: usize) -> Self {
        let table = model.item_point_matrix();
        assert!(n_items <= table.rows(), "n_items exceeds item table");
        let dim = table.cols();
        Self {
            gamma: config.gamma,
            inside_weight: config.inside_weight,
            n_items,
            dim,
            items: table.data()[..n_items * dim].to_vec(),
            quant: None,
            sentinel: OnceLock::new(),
        }
    }

    /// [`new`](Self::new) plus an optional int8 quantization of the item
    /// matrix. The f32 snapshot is kept either way — index construction
    /// and the sentinel path read it — but scoring under
    /// [`Quantization::Int8`] goes through the dequantize-free kernel,
    /// within [`bound_slack`](Self::bound_slack) of the f32 scores.
    pub fn with_quantization(
        model: &InBoxModel,
        config: &InBoxConfig,
        n_items: usize,
        quantization: Quantization,
    ) -> Self {
        let mut scorer = Self::new(model, config, n_items);
        if quantization == Quantization::Int8 {
            scorer.quant = Some(QuantizedItems::from_items(
                &scorer.items,
                scorer.n_items,
                scorer.dim,
                scorer.inside_weight,
            ));
        }
        scorer
    }

    /// The active quantization mode.
    pub fn quantization(&self) -> Quantization {
        if self.quant.is_some() {
            Quantization::Int8
        } else {
            Quantization::None
        }
    }

    /// Conservative bound on `|score - f32 score|` per item under the
    /// active quantization (`0.0` when unquantized). Candidate-pruning
    /// bounds derived from f32 geometry must be widened by this.
    pub fn bound_slack(&self) -> f32 {
        self.quant.as_ref().map_or(0.0, |q| q.bound_slack())
    }

    /// Number of items the snapshot covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension of the snapshot.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The score offset `γ` (scores are `γ - distance`, Eq. (29)).
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Weight of the inside-distance term of `D_PB`.
    pub fn inside_weight(&self) -> f32 {
        self.inside_weight
    }

    /// The row-major `n_items × dim` item-point snapshot.
    pub fn items(&self) -> &[f32] {
        &self.items
    }

    /// Fills `scratch` with the box's per-dimension `[lo, hi]` bounds —
    /// the exact `cen ± relu(off)` values the scan path uses. Splitting
    /// this out lets candidate-generation paths score arbitrary item
    /// subsets via [`score_item_prepared`](ItemScorer::score_item_prepared)
    /// with bit-identical results to the full scan.
    pub fn prepare_box_bounds(&self, b: &BoxEmb, scratch: &mut ScoreScratch) {
        let d = self.dim;
        let lo = &mut scratch.lo;
        let hi = &mut scratch.hi;
        lo.clear();
        hi.clear();
        lo.reserve(d);
        hi.reserve(d);
        for k in 0..d {
            // relu0, not f32::max: identical select semantics to the SIMD
            // kernel's box form, so the bounds and box forms stay
            // bit-identical.
            let half = simd::relu0(b.off[k]);
            lo.push(b.cen[k] - half);
            hi.push(b.cen[k] + half);
        }
        if let Some(q) = &self.quant {
            q.transform_bounds(
                &scratch.lo,
                &scratch.hi,
                &b.cen,
                &mut scratch.qlo,
                &mut scratch.qhi,
                &mut scratch.qcen,
            );
        }
    }

    /// Scores one item against a box whose bounds were prepared by
    /// [`prepare_box_bounds`](ItemScorer::prepare_box_bounds). Identical
    /// arithmetic and operation order to the full-scan path, so the score
    /// is bit-identical to `score_box_into`'s entry for the same item.
    pub fn score_item_prepared(&self, b: &BoxEmb, scratch: &ScoreScratch, item: u32) -> f32 {
        self.score_item_prepared_with::<F32x8>(b, scratch, item)
    }

    /// [`score_item_prepared`](Self::score_item_prepared) on lane type `L`
    /// (bit-identical for every `L`), for hot paths run through
    /// [`simd::dispatch`].
    #[inline(always)]
    pub fn score_item_prepared_with<L: Lanes>(
        &self,
        b: &BoxEmb,
        scratch: &ScoreScratch,
        item: u32,
    ) -> f32 {
        if let Some(q) = &self.quant {
            let (out, inside) = simd::quantized_d_pb_parts_with::<L>(
                q.row(item),
                q.scales(),
                &scratch.qlo,
                &scratch.qhi,
                &scratch.qcen,
            );
            return self.gamma - (out + self.inside_weight * inside);
        }
        self.score_item_prepared_f32_with::<L>(b, scratch, item)
    }

    /// The **f32** per-item score for a prepared box, regardless of the
    /// active quantization: the exact-scoring half of the bounded-error
    /// ranking oracle (int8 selects candidates, this re-scores them).
    /// Bit-identical to [`score_item_prepared`](Self::score_item_prepared)
    /// when the scorer is unquantized.
    pub fn score_item_prepared_f32(&self, b: &BoxEmb, scratch: &ScoreScratch, item: u32) -> f32 {
        self.score_item_prepared_f32_with::<F32x8>(b, scratch, item)
    }

    /// [`score_item_prepared_f32`](Self::score_item_prepared_f32) on lane
    /// type `L` (bit-identical for every `L`).
    #[inline(always)]
    pub fn score_item_prepared_f32_with<L: Lanes>(
        &self,
        b: &BoxEmb,
        scratch: &ScoreScratch,
        item: u32,
    ) -> f32 {
        let d = self.dim;
        let row = &self.items[item as usize * d..(item as usize + 1) * d];
        score_row::<L>(
            row,
            &b.cen,
            &scratch.lo,
            &scratch.hi,
            self.gamma,
            self.inside_weight,
        )
    }

    /// Scores every item against one interest box, best-first by value.
    pub fn score_box(&self, b: &BoxEmb) -> Vec<f32> {
        let mut scratch = ScoreScratch::default();
        let mut scores = Vec::new();
        self.score_box_into(b, &mut scratch, &mut scores);
        scores
    }

    /// [`score_box`](ItemScorer::score_box) writing into caller-owned
    /// buffers: identical arithmetic and accumulation order (scores stay
    /// bit-identical to the reference path), but steady-state
    /// allocation-free once `scratch` and `out` have warmed to the
    /// scorer's dimensions.
    pub fn score_box_into(
        &self,
        b: &BoxEmb,
        scratch: &mut ScoreScratch,
        out_scores: &mut Vec<f32>,
    ) {
        // Per-user box bounds, computed once for all items. Using the same
        // `cen ± relu(off)` values and accumulation order as
        // `geometry::d_pb_weighted` keeps scores bit-identical.
        self.prepare_box_bounds(b, scratch);
        out_scores.clear();
        out_scores.reserve(self.n_items);
        if let Some(q) = &self.quant {
            for item in 0..self.n_items as u32 {
                let (out, inside) = simd::quantized_d_pb_parts(
                    q.row(item),
                    q.scales(),
                    &scratch.qlo,
                    &scratch.qhi,
                    &scratch.qcen,
                );
                out_scores.push(self.gamma - (out + self.inside_weight * inside));
            }
            return;
        }
        for row in self.items.chunks_exact(self.dim) {
            out_scores.push(score_row::<F32x8>(
                row,
                &b.cen,
                &scratch.lo,
                &scratch.hi,
                self.gamma,
                self.inside_weight,
            ));
        }
    }

    /// The constant score vector used for users without a box: a `-∞`-like
    /// value so they rank arbitrarily but harmlessly.
    pub fn sentinel_scores(&self) -> Vec<f32> {
        self.sentinel
            .get_or_init(|| vec![f32::MIN / 2.0; self.n_items])
            .clone()
    }
}

/// A [`Scorer`] over precomputed user interest boxes: an [`ItemScorer`]
/// snapshot plus a borrowed boxes slice mapping users to their boxes.
pub struct InBoxScorer<'a> {
    boxes: &'a [Option<BoxEmb>],
    items: ItemScorer,
}

impl<'a> InBoxScorer<'a> {
    /// Creates a scorer over precomputed boxes, snapshotting the current
    /// item-point matrix.
    pub fn new(
        model: &'a InBoxModel,
        boxes: &'a [Option<BoxEmb>],
        config: &InBoxConfig,
        n_items: usize,
    ) -> Self {
        Self {
            boxes,
            items: ItemScorer::new(model, config, n_items),
        }
    }
}

impl Scorer for InBoxScorer<'_> {
    fn score_items(&self, user: UserId) -> Vec<f32> {
        match &self.boxes[user.index()] {
            Some(b) => self.items.score_box(b),
            None => self.items.sentinel_scores(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InBoxConfig;
    use crate::geometry;
    use crate::model::UniverseSizes;
    use inbox_data::{Dataset, SyntheticConfig};

    fn setup() -> (Dataset, InBoxModel, InBoxConfig) {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 33);
        let cfg = InBoxConfig::tiny_test();
        let sizes = UniverseSizes {
            n_items: ds.kg.n_items(),
            n_tags: ds.kg.n_tags(),
            n_relations: ds.kg.n_relations(),
            n_users: ds.n_users(),
        };
        let model = InBoxModel::new(sizes, &cfg);
        (ds, model, cfg)
    }

    #[test]
    fn user_boxes_built_for_active_users() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        assert_eq!(boxes.len(), ds.n_users());
        for (u, b) in boxes.iter().enumerate() {
            let has_history = !ds.train.items_of(UserId(u as u32)).is_empty();
            assert_eq!(b.is_some(), has_history, "user {u}");
            if let Some(b) = b {
                assert_eq!(b.dim(), model.dim);
                assert!(b.cen.iter().all(|v| v.is_finite()));
                assert!(b.off.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn scorer_returns_full_score_vectors() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = InBoxScorer::new(&model, &boxes, &cfg, ds.n_items());
        let scores = scorer.score_items(UserId(0));
        assert_eq!(scores.len(), ds.n_items());
        assert!(scores.iter().all(|s| s.is_finite()));
        // Scores are bounded above by gamma (distance >= 0).
        assert!(scores.iter().all(|&s| s <= cfg.gamma));
    }

    #[test]
    fn inference_is_deterministic() {
        let (ds, model, cfg) = setup();
        let a = user_interest_box(&model, &ds.kg, &ds.train, &cfg, UserId(1)).unwrap();
        let b = user_interest_box(&model, &ds.kg, &ds.train, &cfg, UserId(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_history_matches_per_call_derivation() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        assert_eq!(cache.n_users(), ds.n_users());
        let boxes = all_user_boxes_with(&model, &cache, &cfg, None);
        for (u, cached) in boxes.iter().enumerate() {
            let user = UserId(u as u32);
            let direct = user_interest_box(&model, &ds.kg, &ds.train, &cfg, user);
            assert_eq!(*cached, direct, "user {u}");
        }
    }

    #[test]
    fn parallel_user_boxes_bit_identical_to_sequential() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let sequential = all_user_boxes_with(&model, &cache, &cfg, None);
        let pool = WorkerPool::new(4);
        let parallel = all_user_boxes_with(&model, &cache, &cfg, Some(&pool));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn matrix_snapshot_scores_match_per_item_path() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = InBoxScorer::new(&model, &boxes, &cfg, ds.n_items());
        for (u, user_box) in boxes.iter().enumerate() {
            let user = UserId(u as u32);
            let Some(b) = user_box else { continue };
            let fast = scorer.score_items(user);
            for (i, &s) in fast.iter().enumerate() {
                let p = model.item_point_f32(ItemId(i as u32));
                let reference = cfg.gamma - geometry::d_pb_weighted(p, b, cfg.inside_weight);
                // Bit-identical: the scan path and the geometry reference
                // share the lane-striped kernel (bounds vs box form).
                assert_eq!(
                    s.to_bits(),
                    reference.to_bits(),
                    "user {u} item {i}: {s} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn item_scorer_score_box_matches_inbox_scorer() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = InBoxScorer::new(&model, &boxes, &cfg, ds.n_items());
        let owned = ItemScorer::new(&model, &cfg, ds.n_items());
        assert_eq!(owned.n_items(), ds.n_items());
        for (u, b) in boxes.iter().enumerate() {
            let via_trait = scorer.score_items(UserId(u as u32));
            let via_box = match b {
                Some(b) => owned.score_box(b),
                None => owned.sentinel_scores(),
            };
            assert_eq!(via_trait, via_box, "user {u}");
        }
    }

    #[test]
    fn user_box_from_history_matches_interactions_path() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let mut tape = Tape::new();
        for u in 0..ds.n_users() as u32 {
            let user = UserId(u);
            let from_history =
                user_box_from_history(&model, &cfg, &mut tape, user, cache.history(user));
            let from_interactions = user_interest_box(&model, &ds.kg, &ds.train, &cfg, user);
            assert_eq!(from_history, from_interactions, "user {u}");
        }
    }

    #[test]
    fn ingest_bumps_only_the_touched_users_version() {
        let (ds, _model, cfg) = setup();
        let mut cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let user = (0..ds.n_users() as u32)
            .map(UserId)
            .find(|u| {
                let h = cache.history(*u);
                !h.is_empty() && h.len() < cfg.max_history_infer
            })
            .expect("a user with ingest headroom");
        let fresh = (0..ds.n_items() as u32)
            .map(ItemId)
            .find(|i| !cache.history(user).iter().any(|(h, _)| h == i))
            .expect("an unseen item");
        let before: Vec<u64> = (0..cache.n_users())
            .map(|u| cache.version(UserId(u as u32)))
            .collect();
        assert!(before.iter().all(|&v| v == 0));

        assert!(cache.ingest(&ds.kg, &cfg, user, fresh));
        assert_eq!(cache.version(user), 1);
        assert_eq!(
            cache.history(user).last().map(|(i, _)| *i),
            Some(fresh),
            "ingested item appended"
        );
        for u in 0..cache.n_users() as u32 {
            if UserId(u) != user {
                assert_eq!(cache.version(UserId(u)), 0, "user {u} untouched");
            }
        }

        // Re-ingesting the same item is a no-op: no version bump.
        assert!(!cache.ingest(&ds.kg, &cfg, user, fresh));
        assert_eq!(cache.version(user), 1);
    }

    #[test]
    fn ingest_respects_the_history_cap() {
        let (ds, _model, cfg) = setup();
        let mut cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let user = UserId(0);
        let mut added = 0;
        for i in 0..ds.n_items() as u32 {
            if cache.ingest(&ds.kg, &cfg, user, ItemId(i)) {
                added += 1;
            }
        }
        assert_eq!(cache.history(user).len(), cfg.max_history_infer);
        assert_eq!(cache.version(user), added as u64);
        // A full history rejects further items without touching the version.
        let v = cache.version(user);
        assert!(!cache.ingest(&ds.kg, &cfg, user, ItemId(0)));
        assert_eq!(cache.version(user), v);
    }

    #[test]
    fn per_item_prepared_scores_bit_match_the_full_scan() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        assert_eq!(scorer.dim(), model.dim);
        assert_eq!(scorer.gamma(), cfg.gamma);
        assert_eq!(scorer.inside_weight(), cfg.inside_weight);
        assert_eq!(scorer.items().len(), ds.n_items() * model.dim);
        let mut scratch = ScoreScratch::default();
        for b in boxes.iter().flatten() {
            let full = scorer.score_box(b);
            scorer.prepare_box_bounds(b, &mut scratch);
            assert_eq!(scratch.lo().len(), model.dim);
            assert_eq!(scratch.hi().len(), model.dim);
            for (i, &s) in full.iter().enumerate() {
                let one = scorer.score_item_prepared(b, &scratch, i as u32);
                assert_eq!(one.to_bits(), s.to_bits(), "item {i}");
            }
        }
    }

    #[test]
    fn quantized_scorer_stays_within_its_bound_slack() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let exact = ItemScorer::new(&model, &cfg, ds.n_items());
        let quant = ItemScorer::with_quantization(&model, &cfg, ds.n_items(), Quantization::Int8);
        assert_eq!(exact.quantization(), Quantization::None);
        assert_eq!(exact.bound_slack(), 0.0);
        assert_eq!(quant.quantization(), Quantization::Int8);
        let slack = quant.bound_slack();
        assert!(slack > 0.0 && slack.is_finite());
        let mut scratch = ScoreScratch::default();
        for b in boxes.iter().flatten() {
            let want = exact.score_box(b);
            let got = quant.score_box(b);
            quant.prepare_box_bounds(b, &mut scratch);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= slack,
                    "item {i}: quantized {g} vs f32 {w}, slack {slack}"
                );
                // Per-item path bit-matches the quantized full scan too.
                let one = quant.score_item_prepared(b, &scratch, i as u32);
                assert_eq!(one.to_bits(), g.to_bits(), "item {i} per-item path");
            }
        }
    }

    #[test]
    fn quantized_sentinel_path_is_byte_identical_to_f32() {
        let (ds, model, cfg) = setup();
        let exact = ItemScorer::new(&model, &cfg, ds.n_items());
        let quant = ItemScorer::with_quantization(&model, &cfg, ds.n_items(), Quantization::Int8);
        // History-less users never touch the item matrix: the sentinel
        // vector must not depend on the quantization mode at all.
        assert_eq!(exact.sentinel_scores(), quant.sentinel_scores());
    }

    #[test]
    fn historyless_users_share_the_sentinel_scores() {
        let (ds, model, cfg) = setup();
        let boxes: Vec<Option<BoxEmb>> = vec![None; ds.n_users()];
        let scorer = InBoxScorer::new(&model, &boxes, &cfg, ds.n_items());
        let a = scorer.score_items(UserId(0));
        let b = scorer.score_items(UserId(1));
        assert_eq!(a, b);
        assert_eq!(a, vec![f32::MIN / 2.0; ds.n_items()]);
    }
}
