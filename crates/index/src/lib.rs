//! `inbox-index` — box-aware top-k candidate retrieval over a frozen item
//! matrix.
//!
//! Serving ranks a user by scoring their interest box against every item
//! point (`γ - D_PB(v, b)`, Eq. (29)) and taking the masked top-K — an
//! O(items) scan per request. This crate makes that cost sublinear in the
//! catalog with the classic candidate-generation-then-rerank split:
//!
//! 1. **IVF coarse partition** ([`IvfIndex::build`]): Lloyd's k-means over
//!    the item points under the **L1 metric** — the same metric family as
//!    the paper's `D_PB` distance (Eq. (7)–(9)) — yields `nlist`
//!    partitions, each with its centroid and the axis-aligned bounding
//!    rectangle of its member points.
//! 2. **Probe selection** ([`IvfIndex::select_probes`]): partitions are
//!    ordered by their rectangle's min-distance to the box, then by the
//!    exact box-to-centroid distance (outside + weighted inside term,
//!    identical shape to the item score), and the `nprobe` nearest are
//!    kept. Centroids and rectangles are stored dim-major, so one pass
//!    over the dimensions updates every partition's sums in a loop the
//!    compiler vectorises; each partition still sums its dimensions in
//!    order, so every distance is the row-by-row value to the bit.
//! 3. **Box pruning + exact re-rank** ([`IvfIndex::rerank_refined`]):
//!    probed partitions are visited nearest-first. Once the running top-k
//!    is full, a partition whose bounding rectangle provably cannot
//!    contain an item beating the current k-th best score is skipped
//!    whole; every surviving partition's members are scored through a
//!    caller-supplied coarse scorer, and the near-threshold survivors are
//!    re-scored **exactly** (production passes
//!    `ItemScorer::score_item_prepared_f32`, the very arithmetic of the
//!    full sort) into a masked top-k with the evaluation protocol's
//!    tie-breaking (score descending, then smaller item id).
//!
//! Because candidate scores and the selection comparator are bit-identical
//! to the full sort, the served answer is **byte-identical to the full
//! sort whenever the probed partitions contain the true top-k** — the
//! `nprobe = nlist` configuration recovers the full sort exactly (the
//! pruning bound is conservative), and smaller `nprobe` trades recall for
//! latency, a contract the testkit differential suite measures.
//!
//! The full sort itself is served through the same two stages: it is the
//! one-partition index ([`IvfIndex::one_partition`], every item in id
//! order, the catalog's bounding rectangle), whose single probe is the
//! whole catalog. `IndexMode::FullSort` and a failed IVF build both use
//! it, so the serving engine has one ranking path for box-backed users.
//!
//! The rectangle bound is evaluated in `f64` with a small safety slack
//! ([`PRUNE_SLACK`]) so `f32` rounding in the exact per-item scores can
//! never make the pruning unsound (see DESIGN.md §12 for the derivation).

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use inbox_kg::ItemId;

/// How the serving engine generates ranking candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Score every item (the exact O(items) baseline), served as the
    /// one-partition index ([`IvfIndex::one_partition`]).
    #[default]
    FullSort,
    /// IVF candidate generation with exact re-rank. `0` for either knob
    /// means "derive from the catalog size" ([`auto_nlist`] /
    /// [`auto_nprobe`]).
    Ivf {
        /// Number of coarse partitions (k-means cells).
        nlist: usize,
        /// Partitions probed per query, nearest-first.
        nprobe: usize,
    },
}

impl IndexMode {
    /// Parses a CLI-style mode name: `full` / `fullsort` / `ivf`. The IVF
    /// knobs start at 0 (auto) — callers overlay `--nlist` / `--nprobe`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "full" | "fullsort" | "full-sort" => Some(IndexMode::FullSort),
            "ivf" => Some(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for IndexMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexMode::FullSort => write!(f, "full"),
            IndexMode::Ivf { nlist, nprobe } => write!(f, "ivf(nlist={nlist},nprobe={nprobe})"),
        }
    }
}

/// Default partition count for a catalog: ~2·√n keeps mean partition size
/// at √n/2, balancing the O(nlist) centroid scan against per-partition
/// scan cost. Clamped so tiny catalogs still get a few partitions.
pub fn auto_nlist(n_items: usize) -> usize {
    (((n_items as f64).sqrt() * 2.0) as usize).clamp(1, n_items.max(1))
}

/// Default probe count for a partition count: an eighth of the partitions,
/// at least 4 — measured ≥0.95 recall@20 on the synthetic twins (the
/// testkit differential suite asserts exactly this contract).
pub fn auto_nprobe(nlist: usize) -> usize {
    (nlist / 8).max(4).min(nlist.max(1))
}

/// Construction error. The only failure mode is the injected chaos site
/// `index.build_partition` — k-means itself cannot fail — but builders
/// must treat any error as "serve without an index", never as fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The `index.build_partition` failpoint fired while finalising the
    /// given partition (chaos testing only).
    Injected(usize),
    /// The item matrix was empty or its length was not a multiple of the
    /// dimension.
    BadShape {
        /// Length of the flat item matrix.
        len: usize,
        /// Claimed embedding dimension.
        dim: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Injected(p) => {
                write!(f, "injected failure finalising partition {p}")
            }
            BuildError::BadShape { len, dim } => {
                write!(f, "item matrix of length {len} is not n×{dim}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// K-means construction knobs. Defaults are what the serving engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of partitions.
    pub nlist: usize,
    /// Lloyd iterations (assignment is deterministic, so few suffice).
    pub iters: usize,
    /// Seed stride for centroid initialisation (deterministic).
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 0, // resolved against the catalog by `build`
            iters: 6,
            seed: 0x1db0,
        }
    }
}

/// One query's box geometry, borrowed from the caller's scratch: the
/// per-dimension bounds `lo = cen - relu(off)` / `hi = cen + relu(off)`
/// plus the scoring constants. The engine fills `lo`/`hi` through
/// `ItemScorer::prepare_box_bounds` so they are the exact values the
/// re-rank scorer uses.
#[derive(Debug, Clone, Copy)]
pub struct BoxQuery<'a> {
    /// Lower box corner per dimension.
    pub lo: &'a [f32],
    /// Upper box corner per dimension.
    pub hi: &'a [f32],
    /// Box center per dimension.
    pub cen: &'a [f32],
    /// Weight of the inside-distance term (`inside_weight` in Eq. (9)).
    pub inside_weight: f32,
    /// Score offset (`γ` in Eq. (29)); scores are `gamma - distance`.
    pub gamma: f32,
    /// Conservative upper bound on how far the caller's exact scorer can
    /// sit *below* the f32 geometry the rectangle bound describes — `0.0`
    /// for exact f32 scoring, [`inbox_core::QuantizedItems::bound_slack`]
    /// when re-ranking with the int8 kernel. The prune test widens by
    /// this much so a quantized score that rounded down never lets a
    /// partition holding a true top-k item be discarded.
    pub bound_slack: f32,
}

/// Absolute slack subtracted from the k-th best score before a partition
/// is pruned. The rectangle bound is computed in `f64` (so it is a true
/// bound on the real-valued score), but the exact per-item scores are
/// `f32` arithmetic whose rounding can land a hair *above* the real
/// value; the slack absorbs that, keeping pruning conservative. Scores
/// live on the `gamma`-ish scale (units, not millionths), so 1e-3 costs
/// essentially no pruning power.
pub const PRUNE_SLACK: f64 = 1e-3;

#[derive(PartialEq)]
struct Cand {
    score: f32,
    item: u32,
}

impl Eq for Cand {}

// Max-heap that pops the *worst* candidate: lowest score, ties toward the
// largest item id — the same survivor set and final ordering as
// `inbox_eval::top_k_masked`, so a candidate superset of the true top-k
// reranks to a byte-identical answer.
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-thread buffers for [`IvfIndex::select_probes`] /
/// [`IvfIndex::rerank_refined`]: after one warm query, the whole probe →
/// prune → re-rank pipeline is allocation-free.
#[derive(Default)]
pub struct QueryScratch {
    /// `(rect min-distance, centroid distance, partition)` rows, sorted
    /// ascending, truncated to `nprobe` by `select_probes`.
    probes: Vec<(f32, f32, u32)>,
    /// Every partition's f64 rectangle score bound, by partition id, as
    /// the last `select_probes` computed it; `rerank_refined`'s prune
    /// test reads it instead of recomputing. Holds the outside sums while
    /// `select_probes` runs.
    bounds: Vec<f64>,
    /// Per-partition inside sums of the rectangle bound (f64) and the
    /// outside/inside sums of the centroid distance (f32).
    rect_in: Vec<f64>,
    cen_out: Vec<f32>,
    cen_in: Vec<f32>,
    /// Backing storage for the top-k heap (round-trips through the heap).
    heap: Vec<Cand>,
    /// `(coarse score, item)` near-threshold buffer for
    /// [`IvfIndex::rerank_refined`]'s exact re-scoring pass.
    near: Vec<(f32, u32)>,
}

impl QueryScratch {
    /// Partitions the last [`IvfIndex::select_probes`] chose, as
    /// `(rect min-distance, centroid distance, partition)`, most promising
    /// first.
    pub fn probes(&self) -> &[(f32, f32, u32)] {
        &self.probes
    }
}

/// What one [`IvfIndex::rerank_refined`] did, for telemetry and contracts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RerankStats {
    /// Probed partitions whose members were actually scored.
    pub scanned_partitions: usize,
    /// Probed partitions skipped whole by the bounding-rectangle test.
    pub pruned_partitions: usize,
    /// Candidate items scored exactly (mask hits excluded).
    pub candidates: usize,
}

/// An IVF coarse partition of a frozen item-point matrix, with per-
/// partition bounding rectangles for geometric pruning. Immutable after
/// construction; queries are `&self` and thread-safe.
pub struct IvfIndex {
    dim: usize,
    n_items: usize,
    /// Dim-major `dim × nlist` partition centroids: dimension `k` of
    /// partition `c` sits at `k * nlist + c`.
    centroids: Vec<f32>,
    /// Dim-major `dim × nlist` per-partition lower rectangle corners.
    rect_lo: Vec<f32>,
    /// Dim-major `dim × nlist` per-partition upper rectangle corners.
    rect_hi: Vec<f32>,
    /// CSR offsets into `members`, length `nlist + 1`.
    offsets: Vec<u32>,
    /// Item ids grouped by partition.
    members: Vec<u32>,
}

impl IvfIndex {
    /// Builds the index over a row-major `n × dim` item matrix (the same
    /// layout `ItemScorer` snapshots). Deterministic in `params.seed`.
    ///
    /// The `index.build_partition` failpoint fires per finalised
    /// partition; a fired site aborts the build with
    /// [`BuildError::Injected`] — callers degrade to full-sort serving
    /// through [`one_partition`](Self::one_partition).
    pub fn build(items: &[f32], dim: usize, params: &IvfParams) -> Result<Self, BuildError> {
        if dim == 0 || items.is_empty() || !items.len().is_multiple_of(dim) {
            return Err(BuildError::BadShape {
                len: items.len(),
                dim,
            });
        }
        let n = items.len() / dim;
        let nlist = if params.nlist == 0 {
            auto_nlist(n)
        } else {
            params.nlist.clamp(1, n)
        };

        // Deterministic spread initialisation: a fixed odd stride derived
        // from the seed walks the catalog, so seeds land all over the
        // matrix regardless of item order.
        let stride = (params.seed | 1) as usize % n.max(1);
        let stride = if stride == 0 { 1 } else { stride };
        // Dim-major from the start, as stored: the assignment scan then
        // runs over all centroids at once, one dimension at a time.
        let mut centroids = vec![0.0f32; nlist * dim];
        let set_centroid = |centroids: &mut [f32], c: usize, item: usize| {
            for (k, &v) in items[item * dim..(item + 1) * dim].iter().enumerate() {
                centroids[k * nlist + c] = v;
            }
        };
        let mut at = 0usize;
        let mut taken = std::collections::HashSet::new();
        for c in 0..nlist {
            while !taken.insert(at) {
                at = (at + 1) % n;
            }
            set_centroid(&mut centroids, c, at);
            at = (at + stride) % n;
        }

        // Lloyd iterations under L1 assignment with mean updates. Mean
        // (not median) updates are fine here: the index only needs a
        // *partition*, correctness never depends on centroid optimality.
        let mut assign = vec![0u32; n];
        let mut counts = vec![0u32; nlist];
        let mut sums = vec![0.0f64; nlist * dim];
        let mut dist = vec![0.0f32; nlist];
        for _ in 0..params.iters.max(1) {
            for (i, row) in items.chunks_exact(dim).enumerate() {
                assign[i] = nearest_centroid_l1(&centroids, row, &mut dist);
            }
            counts.fill(0);
            sums.fill(0.0);
            for (i, row) in items.chunks_exact(dim).enumerate() {
                let c = assign[i] as usize;
                counts[c] += 1;
                for (k, &v) in row.iter().enumerate() {
                    sums[c * dim + k] += v as f64;
                }
            }
            // Empty partitions steal the point farthest from its centroid
            // so every partition stays populated (and the CSR total).
            for c in 0..nlist {
                if counts[c] > 0 {
                    for k in 0..dim {
                        centroids[k * nlist + c] = (sums[c * dim + k] / counts[c] as f64) as f32;
                    }
                } else {
                    let far = farthest_item(items, dim, &centroids, &assign);
                    set_centroid(&mut centroids, c, far);
                }
            }
        }
        for (i, row) in items.chunks_exact(dim).enumerate() {
            assign[i] = nearest_centroid_l1(&centroids, row, &mut dist);
        }

        // Finalise: CSR member lists + bounding rectangles.
        counts.fill(0);
        for &a in &assign {
            counts[a as usize] += 1;
        }
        let mut offsets = vec![0u32; nlist + 1];
        for c in 0..nlist {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = offsets[..nlist].to_vec();
        let mut members = vec![0u32; n];
        for (i, &a) in assign.iter().enumerate() {
            members[cursor[a as usize] as usize] = i as u32;
            cursor[a as usize] += 1;
        }
        let mut rect_lo = vec![f32::MAX; nlist * dim];
        let mut rect_hi = vec![f32::MIN; nlist * dim];
        for c in 0..nlist {
            if inbox_obs::failpoint!("index.build_partition") {
                return Err(BuildError::Injected(c));
            }
            for &item in &members[offsets[c] as usize..offsets[c + 1] as usize] {
                let row = &items[item as usize * dim..(item as usize + 1) * dim];
                for (k, &v) in row.iter().enumerate() {
                    let lo = &mut rect_lo[k * nlist + c];
                    *lo = lo.min(v);
                    let hi = &mut rect_hi[k * nlist + c];
                    *hi = hi.max(v);
                }
            }
        }
        Ok(Self {
            dim,
            n_items: n,
            centroids,
            rect_lo,
            rect_hi,
            offsets,
            members,
        })
    }

    /// The one-partition index full-sort serving ranks through: every item
    /// in id order in a single partition whose rectangle is the catalog's
    /// bounding rectangle (with one partition, row- and dim-major agree).
    /// No k-means runs and the `index.build_partition` failpoint is never
    /// consulted, so this cannot fail; one probe visits
    /// the whole catalog, and [`rerank_refined`](Self::rerank_refined) over
    /// it is the exact masked top-k of every item.
    pub fn one_partition(items: &[f32], dim: usize) -> Self {
        let n = items.len().checked_div(dim).unwrap_or(0);
        let mut rect_lo = vec![f32::MAX; dim];
        let mut rect_hi = vec![f32::MIN; dim];
        for row in items[..n * dim].chunks_exact(dim.max(1)) {
            for (k, &v) in row.iter().enumerate() {
                rect_lo[k] = rect_lo[k].min(v);
                rect_hi[k] = rect_hi[k].max(v);
            }
        }
        Self {
            dim,
            n_items: n,
            centroids: rect_lo
                .iter()
                .zip(&rect_hi)
                .map(|(l, h)| 0.5 * (l + h))
                .collect(),
            rect_lo,
            rect_hi,
            offsets: vec![0, n as u32],
            members: (0..n as u32).collect(),
        }
    }

    /// Number of partitions.
    pub fn nlist(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of indexed items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Item ids of one partition.
    pub fn members(&self, partition: usize) -> &[u32] {
        &self.members[self.offsets[partition] as usize..self.offsets[partition + 1] as usize]
    }

    /// Stage 1 — candidate generation: ranks every partition by how close
    /// its geometry can possibly come to the box and keeps the `nprobe`
    /// most promising in `scratch`. The primary key is the **rectangle
    /// min-distance** (the MINDIST of R-tree best-first search: the
    /// smallest `d_out + w·d_in` any member could achieve, i.e. exactly
    /// `gamma` minus the rectangle score bound); rectangles that overlap
    /// the box all tie at 0, so the **box-to-centroid distance**
    /// (Eq. (7)–(9) applied to the k-means centroid) breaks ties, then
    /// the partition id keeps probing deterministic. Every partition's
    /// rectangle bound is kept in `scratch` for
    /// [`rerank_refined`](Self::rerank_refined)'s prune test.
    /// Allocation-free once `scratch` is warm.
    ///
    /// The rectangle bound, in `f64` so it is conservative: per dimension
    /// the outside term's minimum over the rectangle is the
    /// rectangle-to-box gap, and the inside term's minimum is the distance
    /// from the box center to the clamped rectangle interval (see
    /// DESIGN.md §12). One pass per dimension updates every partition's
    /// sums over the dim-major layout; each partition adds its dimensions
    /// in order, exactly as a row-by-row evaluation would. The clamps and
    /// relus are selects, which the compiler vectorises. Marked
    /// `#[inline(always)]` so a caller's `target_feature` twin compiles
    /// the pass with its wider vectors.
    #[inline(always)]
    pub fn select_probes(&self, q: &BoxQuery<'_>, nprobe: usize, scratch: &mut QueryScratch) {
        let nlist = self.nlist();
        let QueryScratch {
            probes,
            bounds,
            rect_in,
            cen_out,
            cen_in,
            ..
        } = scratch;
        for v in [&mut *bounds, &mut *rect_in] {
            v.clear();
            v.resize(nlist, 0.0);
        }
        for v in [&mut *cen_out, &mut *cen_in] {
            v.clear();
            v.resize(nlist, 0.0);
        }
        // Equal-length views, so the inner loops carry no bounds checks.
        let (rect_out, rect_in) = (&mut bounds[..nlist], &mut rect_in[..nlist]);
        let (cen_out, cen_in) = (&mut cen_out[..nlist], &mut cen_in[..nlist]);
        for k in 0..self.dim {
            let at = k * nlist;
            let rlo = &self.rect_lo[at..at + nlist];
            let rhi = &self.rect_hi[at..at + nlist];
            let (blo, bhi, bcen) = (q.lo[k] as f64, q.hi[k] as f64, q.cen[k] as f64);
            for c in 0..nlist {
                let (l, h) = (rlo[c] as f64, rhi[c] as f64);
                rect_out[c] += relu(l - bhi) + relu(blo - h);
                // The clamp of any rectangle point into the box spans
                // [clamp(l), clamp(h)]; the nearest such value to the
                // center bounds the inside term.
                let a = clamp(l, blo, bhi);
                let b = clamp(h, blo, bhi);
                rect_in[c] += if bcen < a {
                    a - bcen
                } else if bcen > b {
                    bcen - b
                } else {
                    0.0
                };
            }
            let cent = &self.centroids[at..at + nlist];
            let (lo, hi, cen) = (q.lo[k], q.hi[k], q.cen[k]);
            for c in 0..nlist {
                let p = cent[c];
                cen_out[c] += relu(p - hi) + relu(lo - p);
                cen_in[c] += (cen - clamp(p, lo, hi)).abs();
            }
        }
        let gamma = q.gamma as f64;
        let w = q.inside_weight as f64;
        probes.clear();
        for c in 0..nlist {
            let bound = gamma - (rect_out[c] + w * rect_in[c]);
            rect_out[c] = bound;
            let mindist = (gamma - bound) as f32;
            let centroid = cen_out[c] + q.inside_weight * cen_in[c];
            probes.push((mindist, centroid, c as u32));
        }
        let keep = nprobe.max(1).min(nlist);
        let order = |a: &(f32, f32, u32), b: &(f32, f32, u32)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
                .then(a.2.cmp(&b.2))
        };
        if keep < nlist {
            probes.select_nth_unstable_by(keep - 1, order);
            probes.truncate(keep);
        }
        probes.sort_unstable_by(order);
    }

    /// Stage 2 — box pruning + exact re-rank over the probed partitions.
    /// Visits `scratch`'s probe list nearest-first, skips partitions whose
    /// rectangle bound (cached by [`select_probes`](Self::select_probes),
    /// which must have run on the same `q`) cannot beat the current k-th
    /// best `coarse` score (minus [`PRUNE_SLACK`] and the query's
    /// `bound_slack`), and scores
    /// every remaining unmasked member with `coarse`. Every candidate
    /// within `2·bound_slack` of the *running* k-th coarse score is
    /// buffered, the buffer is narrowed to the *final* k-th threshold, and
    /// the survivors are re-scored through `exact` into the final top-k,
    /// best-first with the evaluation protocol's tie-break (score
    /// descending, item id ascending). `mask` must be sorted ascending; the
    /// returned stats feed the candidate-set telemetry.
    ///
    /// `coarse` may sit up to `q.bound_slack` away from `exact` (the int8
    /// kernel against the f32 one). For exact scoring pass the same scorer
    /// twice with `bound_slack = 0`: the buffer then holds every candidate
    /// scoring at least the final k-th, so the answer is the exact top-k of
    /// the scanned partitions.
    ///
    /// Soundness: for any scanned item `i` in the exact top-k of the
    /// scanned set, `coarse_i ≥ exact_i − slack ≥ exact_kth − slack ≥
    /// coarse_kth_final − 2·slack ≥ coarse_kth_at_scoring_time − 2·slack`
    /// (the running k-th only increases), so `i` is always buffered and
    /// survives the final narrowing — the answer equals an exact top-k
    /// over the same scanned partitions, byte for byte. Partition pruning
    /// already widens by `q.bound_slack`, which keeps it conservative
    /// against the f32 geometry the rectangles describe.
    ///
    /// Marked `#[inline(always)]` so a caller's `target_feature` twin
    /// compiles the walk, and the `coarse`/`exact` scorers inlined into
    /// it, with that feature enabled.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn rerank_refined(
        &self,
        q: &BoxQuery<'_>,
        k: usize,
        mask: &[ItemId],
        mut coarse: impl FnMut(u32) -> f32,
        mut exact: impl FnMut(u32) -> f32,
        scratch: &mut QueryScratch,
        out: &mut Vec<(ItemId, f32)>,
    ) -> RerankStats {
        let mut stats = RerankStats::default();
        let slack2 = 2.0 * q.bound_slack;
        let mut entries = std::mem::take(&mut scratch.heap);
        entries.clear();
        entries.reserve(k + 1);
        let mut heap: BinaryHeap<Cand> = BinaryHeap::from(entries);
        let mut near = std::mem::take(&mut scratch.near);
        near.clear();
        debug_assert_eq!(scratch.bounds.len(), self.nlist(), "select_probes first");
        for i in 0..scratch.probes.len() {
            let c = scratch.probes[i].2 as usize;
            if heap.len() == k {
                let kth = heap.peek().map(|e| e.score as f64).unwrap_or(f64::MIN);
                if scratch.bounds[c] < kth - PRUNE_SLACK - q.bound_slack as f64 {
                    stats.pruned_partitions += 1;
                    continue;
                }
            }
            stats.scanned_partitions += 1;
            for &item in self.members(c) {
                if mask.binary_search(&ItemId(item)).is_ok() {
                    continue;
                }
                stats.candidates += 1;
                let cand = Cand {
                    score: coarse(item),
                    item,
                };
                if heap.len() < k {
                    near.push((cand.score, item));
                    heap.push(cand);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if cand.score >= worst.score - slack2 {
                        near.push((cand.score, item));
                    }
                    // Early reject: a candidate no better than the current
                    // worst (lower score, or equal score and larger id)
                    // would be popped straight back out; a better one
                    // replaces it in place.
                    if cand < *worst {
                        *worst = cand;
                    }
                }
            }
        }
        let final_kth = if heap.len() == k {
            heap.peek().map(|e| e.score).unwrap_or(f32::NEG_INFINITY)
        } else {
            f32::NEG_INFINITY
        };
        near.retain(|&(s, _)| s >= final_kth - slack2);
        for e in near.iter_mut() {
            e.0 = exact(e.1);
        }
        near.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        near.truncate(k);
        out.clear();
        out.extend(near.iter().map(|&(s, i)| (ItemId(i), s)));
        near.clear();
        scratch.near = near;
        let mut entries = heap.into_vec();
        entries.clear();
        scratch.heap = entries;
        stats
    }
}

/// `relu` as a select (`maxps`/`maxpd` semantics), so the probe pass
/// vectorises; `T::default()` is `0.0`.
#[inline(always)]
fn relu<T: PartialOrd + Default>(x: T) -> T {
    if x > T::default() {
        x
    } else {
        T::default()
    }
}

/// `x.clamp(lo, hi)` for `lo <= hi`, as selects.
#[inline(always)]
fn clamp<T: PartialOrd>(x: T, lo: T, hi: T) -> T {
    if x < lo {
        lo
    } else if x > hi {
        hi
    } else {
        x
    }
}

/// The L1-nearest centroid of `row` (first on ties). `centroids` is
/// dim-major (`dim × nlist`, `nlist = dist.len()`): each dimension updates
/// every centroid's distance in `dist`, and each distance still sums its
/// dimensions in order.
fn nearest_centroid_l1(centroids: &[f32], row: &[f32], dist: &mut [f32]) -> u32 {
    let nlist = dist.len();
    dist.fill(0.0);
    for (k, &v) in row.iter().enumerate() {
        let col = &centroids[k * nlist..(k + 1) * nlist];
        for (d, &cen) in dist.iter_mut().zip(col) {
            *d += (v - cen).abs();
        }
    }
    let mut best = 0u32;
    let mut best_d = f32::MAX;
    for (c, &d) in dist.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

fn farthest_item(items: &[f32], dim: usize, centroids: &[f32], assign: &[u32]) -> usize {
    let nlist = centroids.len() / dim;
    let mut far = 0usize;
    let mut far_d = f32::MIN;
    for (i, row) in items.chunks_exact(dim).enumerate() {
        let c = assign[i] as usize;
        let mut d = 0.0f32;
        for k in 0..dim {
            d += (row[k] - centroids[k * nlist + c]).abs();
        }
        if d > far_d {
            far_d = d;
            far = i;
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// The exact per-item score the engine's full sort computes.
    fn exact_score(items: &[f32], dim: usize, item: u32, q: &BoxQuery<'_>) -> f32 {
        let row = &items[item as usize * dim..(item as usize + 1) * dim];
        let mut out = 0.0f32;
        let mut inside = 0.0f32;
        for (k, &p) in row.iter().enumerate() {
            out += (p - q.hi[k]).max(0.0) + (q.lo[k] - p).max(0.0);
            inside += (q.cen[k] - p.clamp(q.lo[k], q.hi[k])).abs();
        }
        q.gamma - (out + q.inside_weight * inside)
    }

    fn full_sort(
        items: &[f32],
        dim: usize,
        q: &BoxQuery<'_>,
        mask: &[ItemId],
        k: usize,
    ) -> Vec<(ItemId, f32)> {
        let n = items.len() / dim;
        let mut scored: Vec<(ItemId, f32)> = (0..n as u32)
            .filter(|i| mask.binary_search(&ItemId(*i)).is_err())
            .map(|i| (ItemId(i), exact_score(items, dim, i, q)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    fn box_of(cen: Vec<f32>, half: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let lo = cen.iter().map(|c| c - half).collect();
        let hi = cen.iter().map(|c| c + half).collect();
        (lo, hi, cen)
    }

    /// The row-by-row probe arithmetic `select_probes` replaced, kept as
    /// the reference its dim-major pass must match bit for bit.
    impl IvfIndex {
        /// Exact box-to-point distance (`d_out + w·d_in`, Eq. (7)–(9))
        /// from the query box to a centroid — the probe tie-break key.
        fn box_distance(&self, q: &BoxQuery<'_>, centroid: usize) -> f32 {
            let nlist = self.nlist();
            let mut out = 0.0f32;
            let mut inside = 0.0f32;
            for k in 0..self.dim {
                let p = self.centroids[k * nlist + centroid];
                out += (p - q.hi[k]).max(0.0) + (q.lo[k] - p).max(0.0);
                inside += (q.cen[k] - p.clamp(q.lo[k], q.hi[k])).abs();
            }
            out + q.inside_weight * inside
        }

        /// Upper bound (in `f64`, conservative) on the score any point
        /// inside partition `c`'s bounding rectangle can achieve against
        /// the box: `gamma - min over the rectangle of (d_out + w·d_in)`.
        fn rect_score_bound(&self, q: &BoxQuery<'_>, c: usize) -> f64 {
            let nlist = self.nlist();
            let mut d_out = 0.0f64;
            let mut d_in = 0.0f64;
            for k in 0..self.dim {
                let rlo = self.rect_lo[k * nlist + c] as f64;
                let rhi = self.rect_hi[k * nlist + c] as f64;
                let blo = q.lo[k] as f64;
                let bhi = q.hi[k] as f64;
                let cen = q.cen[k] as f64;
                d_out += (rlo - bhi).max(0.0) + (blo - rhi).max(0.0);
                let a = rlo.clamp(blo, bhi);
                let b = rhi.clamp(blo, bhi);
                d_in += if cen < a {
                    a - cen
                } else if cen > b {
                    cen - b
                } else {
                    0.0
                };
            }
            q.gamma as f64 - (d_out + q.inside_weight as f64 * d_in)
        }

        /// The reference probe list (every partition scored row by row,
        /// fully sorted, truncated) and the per-partition bounds.
        fn reference_probes(
            &self,
            q: &BoxQuery<'_>,
            nprobe: usize,
        ) -> (Vec<(f32, f32, u32)>, Vec<f64>) {
            let nlist = self.nlist();
            let bounds: Vec<f64> = (0..nlist).map(|c| self.rect_score_bound(q, c)).collect();
            let mut probes: Vec<(f32, f32, u32)> = (0..nlist)
                .map(|c| {
                    let mindist = (q.gamma as f64 - bounds[c]) as f32;
                    (mindist, self.box_distance(q, c), c as u32)
                })
                .collect();
            probes.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(Ordering::Equal)
                    .then(a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
                    .then(a.2.cmp(&b.2))
            });
            probes.truncate(nprobe.max(1).min(nlist));
            (probes, bounds)
        }

        /// The prune-and-scan walk as it ran before the bound was cached:
        /// the rectangle bound recomputed per visited partition, the top-k
        /// kept as a sorted list. Returns the stats and the answer.
        fn reference_rerank(
            &self,
            q: &BoxQuery<'_>,
            k: usize,
            mask: &[ItemId],
            probes: &[(f32, f32, u32)],
            score: impl Fn(u32) -> f32,
        ) -> (RerankStats, Vec<(ItemId, f32)>) {
            let mut stats = RerankStats::default();
            let mut top: Vec<(ItemId, f32)> = Vec::new();
            for &(_, _, c) in probes {
                let c = c as usize;
                if top.len() == k {
                    let kth = top.last().map_or(f64::MIN, |e| e.1 as f64);
                    if self.rect_score_bound(q, c) < kth - PRUNE_SLACK - q.bound_slack as f64 {
                        stats.pruned_partitions += 1;
                        continue;
                    }
                }
                stats.scanned_partitions += 1;
                for &item in self.members(c) {
                    if mask.binary_search(&ItemId(item)).is_ok() {
                        continue;
                    }
                    stats.candidates += 1;
                    top.push((ItemId(item), score(item)));
                    top.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    top.truncate(k);
                }
            }
            (stats, top)
        }
    }

    /// [`IvfIndex::select_probes`] compiled with AVX2 enabled: the
    /// instantiation a serving twin inlines.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn select_probes_avx2(ix: &IvfIndex, q: &BoxQuery<'_>, nprobe: usize, s: &mut QueryScratch) {
        ix.select_probes(q, nprobe, s)
    }

    /// Runs `select_probes` under the baseline and, when the CPU has it,
    /// the AVX2 instantiation.
    fn select_probes_each_backend(
        ix: &IvfIndex,
        q: &BoxQuery<'_>,
        nprobe: usize,
    ) -> Vec<(&'static str, QueryScratch)> {
        let mut runs = Vec::new();
        let mut s = QueryScratch::default();
        ix.select_probes(q, nprobe, &mut s);
        runs.push(("baseline", s));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut s = QueryScratch::default();
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { select_probes_avx2(ix, q, nprobe, &mut s) };
            runs.push(("avx2", s));
        }
        runs
    }

    #[test]
    fn build_partitions_every_item_exactly_once() {
        let dim = 4;
        let items = random_items(300, dim, 1);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 12,
                ..Default::default()
            },
        )
        .expect("build");
        assert_eq!(ix.nlist(), 12);
        assert_eq!(ix.n_items(), 300);
        let mut seen = vec![false; 300];
        for c in 0..ix.nlist() {
            for &m in ix.members(c) {
                assert!(!seen[m as usize], "item {m} in two partitions");
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every item indexed");
    }

    #[test]
    fn build_is_deterministic() {
        let items = random_items(200, 3, 7);
        let p = IvfParams {
            nlist: 9,
            ..Default::default()
        };
        let a = IvfIndex::build(&items, 3, &p).unwrap();
        let b = IvfIndex::build(&items, 3, &p).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.members, b.members);
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn rects_bound_their_members() {
        let dim = 5;
        let items = random_items(400, dim, 3);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 16,
                ..Default::default()
            },
        )
        .unwrap();
        for c in 0..ix.nlist() {
            for &m in ix.members(c) {
                let row = &items[m as usize * dim..(m as usize + 1) * dim];
                for (k, &v) in row.iter().enumerate() {
                    assert!(ix.rect_lo[k * ix.nlist() + c] <= v);
                    assert!(ix.rect_hi[k * ix.nlist() + c] >= v);
                }
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(matches!(
            IvfIndex::build(&[1.0, 2.0, 3.0], 2, &IvfParams::default()),
            Err(BuildError::BadShape { .. })
        ));
        assert!(matches!(
            IvfIndex::build(&[], 2, &IvfParams::default()),
            Err(BuildError::BadShape { .. })
        ));
        assert!(IvfIndex::build(&[1.0, 2.0], 0, &IvfParams::default()).is_err());
    }

    #[test]
    fn rect_bound_dominates_member_scores() {
        let dim = 6;
        let items = random_items(500, dim, 11);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 20,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = QueryScratch::default();
        for _ in 0..50 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.0..1.0));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            ix.select_probes(&q, ix.nlist(), &mut scratch);
            for c in 0..ix.nlist() {
                let bound = scratch.bounds[c];
                for &m in ix.members(c) {
                    let s = exact_score(&items, dim, m, &q) as f64;
                    assert!(
                        s <= bound + PRUNE_SLACK,
                        "partition {c} item {m}: score {s} above bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn probing_everything_matches_full_sort_bitwise() {
        let dim = 8;
        let items = random_items(600, dim, 23);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 24,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        for case in 0..40 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.0..1.5));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            // A sorted mask of ~5% of the catalog.
            let mask: Vec<ItemId> = (0..600u32)
                .filter(|_| rng.gen_bool(0.05))
                .map(ItemId)
                .collect();
            let k = 20;
            let expected = full_sort(&items, dim, &q, &mask, k);
            ix.select_probes(&q, ix.nlist(), &mut scratch);
            let stats = ix.rerank_refined(
                &q,
                k,
                &mask,
                |i| exact_score(&items, dim, i, &q),
                |i| exact_score(&items, dim, i, &q),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.len(), expected.len(), "case {case}");
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.0, want.0, "case {case}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "case {case}");
            }
            assert_eq!(
                stats.scanned_partitions + stats.pruned_partitions,
                ix.nlist(),
                "every probed partition is either scanned or pruned"
            );
        }
    }

    #[test]
    fn refined_rerank_recovers_exact_topk_under_bounded_coarse_noise() {
        // Coarse scores perturbed by up to `slack` per item must still
        // yield the exact-top-k answer, bit for bit, once the refine pass
        // re-scores the near-threshold candidates exactly — the index-level
        // statement of the bounded-error ranking oracle.
        let dim = 6;
        let n = 500u32;
        let items = random_items(n as usize, dim, 17);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 20,
                ..Default::default()
            },
        )
        .unwrap();
        let slack = 0.05f32;
        // Deterministic per-item perturbation in [-slack, slack].
        let wobble = |i: u32| {
            let h = i.wrapping_mul(2654435761) >> 16;
            ((h & 0xffff) as f32 / 65535.0 - 0.5) * 2.0 * slack
        };
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        for case in 0..40 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.0..1.5));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: slack,
            };
            let mask: Vec<ItemId> = (0..n).filter(|_| rng.gen_bool(0.05)).map(ItemId).collect();
            let k = 20;
            let expected = full_sort(&items, dim, &q, &mask, k);
            ix.select_probes(&q, ix.nlist(), &mut scratch);
            ix.rerank_refined(
                &q,
                k,
                &mask,
                |i| exact_score(&items, dim, i, &q) + wobble(i),
                |i| exact_score(&items, dim, i, &q),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.len(), expected.len(), "case {case}");
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.0, want.0, "case {case}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "case {case}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Tie-heavy scores (at most four distinct values) with the same
        /// scorer twice and slack 0: the answer equals a plain sort by
        /// (score desc, id asc) for `k` of 0, 1, the unmasked count and
        /// past the catalog, so the early reject's tie-break at the k-th
        /// boundary is checked. Runs over the one-partition index (items in
        /// id order) and over an IVF partitioning that visits them out of
        /// id order; `gamma` is huge so the rectangle bound, which knows
        /// nothing of these scores, never prunes.
        #[test]
        fn rerank_equals_plain_sort_under_ties(
            levels in proptest::collection::vec(-4.0f32..4.0, 1..=4),
            picks in proptest::collection::vec((0usize..4, 0u32..5), 1..80),
            k_pick in 0u8..4,
            seed in 0u64..1_000,
        ) {
            let n = picks.len();
            let scores: Vec<f32> = picks.iter().map(|&(l, _)| levels[l % levels.len()]).collect();
            // A sorted mask of ~1/5 of the catalog.
            let mask: Vec<ItemId> = (0..n as u32)
                .filter(|&i| picks[i as usize].1 == 0)
                .map(ItemId)
                .collect();
            let k = match k_pick {
                0 => 0,
                1 => 1,
                2 => n - mask.len(),
                _ => n + 3,
            };
            let mut want: Vec<(ItemId, f32)> = (0..n as u32)
                .filter(|i| mask.binary_search(&ItemId(*i)).is_err())
                .map(|i| (ItemId(i), scores[i as usize]))
                .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            want.truncate(k);

            let points = random_items(n, 2, seed);
            let ivf = IvfIndex::build(&points, 2, &IvfParams { nlist: 4, ..Default::default() })
                .expect("build");
            let whole = IvfIndex::one_partition(&points, 2);
            proptest::prop_assert_eq!(whole.nlist(), 1);
            proptest::prop_assert_eq!(whole.members(0), &(0..n as u32).collect::<Vec<_>>()[..]);
            let q = BoxQuery {
                lo: &[0.0, 0.0],
                hi: &[0.0, 0.0],
                cen: &[0.0, 0.0],
                inside_weight: 0.5,
                gamma: 1e30,
                bound_slack: 0.0,
            };
            for ix in [&whole, &ivf] {
                let mut scratch = QueryScratch::default();
                let mut out = Vec::new();
                ix.select_probes(&q, ix.nlist(), &mut scratch);
                let stats = ix.rerank_refined(
                    &q,
                    k,
                    &mask,
                    |i| scores[i as usize],
                    |i| scores[i as usize],
                    &mut scratch,
                    &mut out,
                );
                proptest::prop_assert_eq!(stats.candidates, n - mask.len());
                proptest::prop_assert_eq!(out.len(), want.len());
                for (got, want) in out.iter().zip(&want) {
                    proptest::prop_assert_eq!(got.0, want.0);
                    proptest::prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The dim-major probe pass equals the row-by-row reference bit
        /// for bit — min-distances, centroid distances, partition order
        /// and every cached bound — over dims 1..=40, `nprobe` of 1, auto
        /// and `nlist`, and the one-partition index, under the baseline
        /// and the AVX2 instantiation. Re-ranking over the cached bounds
        /// gives the same answer and the same `RerankStats` as over the
        /// reference bounds.
        #[test]
        fn dim_major_probes_match_the_row_major_reference(
            dim in 1usize..=40,
            n in 1usize..160,
            nlist in 1usize..24,
            nprobe_pick in 0u8..3,
            whole_pick in 0u8..4,
            half in 0.0f32..1.5,
            seed in 0u64..1_000,
        ) {
            let items = random_items(n, dim, seed);
            let ix = if whole_pick == 0 {
                IvfIndex::one_partition(&items, dim)
            } else {
                IvfIndex::build(&items, dim, &IvfParams { nlist, ..Default::default() })
                    .expect("build")
            };
            let nprobe = match nprobe_pick {
                0 => 1,
                1 => auto_nprobe(ix.nlist()),
                _ => ix.nlist(),
            };
            let cen = random_items(1, dim, seed + 1);
            let (lo, hi, cen) = box_of(cen, half);
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            let (want_probes, want_bounds) = ix.reference_probes(&q, nprobe);
            let mask: Vec<ItemId> = (0..n as u32).filter(|i| i % 7 == 3).map(ItemId).collect();
            let score = |i: u32| exact_score(&items, dim, i, &q);
            for (backend, mut scratch) in select_probes_each_backend(&ix, &q, nprobe) {
                proptest::prop_assert_eq!(scratch.probes.len(), want_probes.len(), "{}", backend);
                for (got, want) in scratch.probes.iter().zip(&want_probes) {
                    proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "{} mindist", backend);
                    proptest::prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "{} centroid", backend);
                    proptest::prop_assert_eq!(got.2, want.2, "{} order", backend);
                }
                let got_bounds: Vec<u64> = scratch.bounds.iter().map(|b| b.to_bits()).collect();
                let ref_bounds: Vec<u64> = want_bounds.iter().map(|b| b.to_bits()).collect();
                proptest::prop_assert_eq!(got_bounds, ref_bounds, "{} bounds", backend);

                let mut out = Vec::new();
                let stats = ix.rerank_refined(&q, 5, &mask, score, score, &mut scratch, &mut out);
                let (want_stats, want_out) = ix.reference_rerank(&q, 5, &mask, &want_probes, score);
                proptest::prop_assert_eq!(stats, want_stats, "{} stats", backend);
                proptest::prop_assert_eq!(out, want_out, "{} answer", backend);
            }
        }
    }

    #[test]
    fn pruning_actually_skips_partitions() {
        // A tight box far from most of the catalog must prune partitions.
        let dim = 4;
        let items = random_items(800, dim, 41);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let (lo, hi, cen) = box_of(vec![1.8; dim], 0.05);
        let q = BoxQuery {
            lo: &lo,
            hi: &hi,
            cen: &cen,
            inside_weight: 0.5,
            gamma: 12.0,
            bound_slack: 0.0,
        };
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        ix.select_probes(&q, ix.nlist(), &mut scratch);
        let stats = ix.rerank_refined(
            &q,
            5,
            &[],
            |i| exact_score(&items, dim, i, &q),
            |i| exact_score(&items, dim, i, &q),
            &mut scratch,
            &mut out,
        );
        assert!(
            stats.pruned_partitions > 0,
            "corner box pruned nothing: {stats:?}"
        );
        assert!(stats.candidates < 800, "pruning reduced the scan");
    }

    #[test]
    fn mode_parsing_and_auto_params() {
        assert_eq!(IndexMode::parse("full"), Some(IndexMode::FullSort));
        assert_eq!(IndexMode::parse("FULL-SORT"), Some(IndexMode::FullSort));
        assert_eq!(
            IndexMode::parse("ivf"),
            Some(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0
            })
        );
        assert_eq!(IndexMode::parse("rtree"), None);
        assert_eq!(IndexMode::default(), IndexMode::FullSort);

        let nlist = auto_nlist(40_000);
        assert_eq!(nlist, 400);
        assert_eq!(auto_nprobe(nlist), 50);
        assert_eq!(auto_nprobe(8), 4);
        assert_eq!(auto_nprobe(2), 2, "nprobe never exceeds nlist");
        assert!(auto_nlist(1) == 1);
    }

    #[test]
    fn small_catalogs_clamp_nlist() {
        let items = random_items(5, 2, 1);
        let ix = IvfIndex::build(
            &items,
            2,
            &IvfParams {
                nlist: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ix.nlist(), 5);
        let ix = IvfIndex::build(
            &items,
            2,
            &IvfParams {
                nlist: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ix.nlist() >= 1 && ix.nlist() <= 5);
    }
}
