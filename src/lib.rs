//! # inbox-repro
//!
//! A pure-Rust, from-scratch reproduction of **InBox: Recommendation with
//! Knowledge Graph using Interest Box Embedding** (VLDB 2024).
//!
//! InBox embeds knowledge-graph **items as points** and **tags/relations as
//! boxes** (axis-aligned hyper-rectangles); a user's interest is a box
//! obtained by intersecting the concept boxes of the items they interacted
//! with. Recommendation is a geometric search: rank items by
//! `γ − D_PB(v_i, b_u)` — how close each item point sits to the user's
//! interest box.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`autodiff`] — tensor + tape reverse-mode autodiff + Adam (the training
//!   substrate replacing PyTorch/CUDA),
//! * [`kg`] — the knowledge-graph store with the IRI/TRT/IRT triplet typing
//!   of the paper's Section 2,
//! * [`data`] — interaction graphs, KGIN-format loaders, and synthetic twins
//!   of the paper's four datasets,
//! * [`core`] — the InBox model itself: geometry, three-stage training,
//!   prediction, and interpretability,
//! * [`baselines`] — MF-BPR, CKE, KGAT-lite, KGIN-lite, Popularity,
//! * [`eval`] — the all-ranking protocol (recall@K / ndcg@K) and the PCA
//!   analysis behind Figure 5,
//! * [`obs`] — spans, counters, and training telemetry,
//! * [`index`] — box-aware top-k candidate retrieval: IVF coarse partitions
//!   with geometric box pruning and exact re-rank,
//! * [`serve`] — the online recommendation service: in-flight admission control,
//!   a versioned interest-box cache, live interaction ingestion, and a
//!   std-only HTTP front-end.
//!
//! ## Quick start
//!
//! ```
//! use inbox_repro::core::{train, InBoxConfig};
//! use inbox_repro::data::{Dataset, SyntheticConfig};
//! use inbox_repro::kg::UserId;
//!
//! // A small synthetic dataset whose ground truth follows the paper's
//! // hypothesis: user interests are intersections of KG concepts.
//! let dataset = Dataset::synthetic(&SyntheticConfig::tiny(), 1);
//! let trained = train(&dataset, InBoxConfig::tiny_test());
//!
//! let user = UserId(0);
//! let seen = dataset.train.items_of(user);
//! for (item, score) in trained.recommend(user, seen, 3) {
//!     println!("recommend {item} (score {score:.3})");
//! }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the binaries regenerating every table and figure of the paper.

#![warn(missing_docs)]

/// The autodiff/tensor substrate (re-export of `inbox-autodiff`).
pub use inbox_autodiff as autodiff;
/// Baseline recommenders (re-export of `inbox-baselines`).
pub use inbox_baselines as baselines;
/// The InBox model (re-export of `inbox-core`).
pub use inbox_core as core;
/// Dataset tooling (re-export of `inbox-data`).
pub use inbox_data as data;
/// Evaluation protocol (re-export of `inbox-eval`).
pub use inbox_eval as eval;
/// Box-aware top-k candidate retrieval: IVF partitions + geometric
/// pruning + exact re-rank (re-export of `inbox-index`).
pub use inbox_index as index;
/// Knowledge-graph store (re-export of `inbox-kg`).
pub use inbox_kg as kg;
/// Observability: spans, counters, telemetry (re-export of `inbox-obs`).
pub use inbox_obs as obs;
/// Online recommendation service (re-export of `inbox-serve`).
pub use inbox_serve as serve;
/// Correctness harness: scalar oracles, metamorphic invariants, failpoint
/// sites (re-export of `inbox-testkit`).
pub use inbox_testkit as testkit;
