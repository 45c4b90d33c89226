//! Differential contracts for the IVF candidate index (`inbox-index`)
//! wired through the serving engine:
//!
//! 1. **Exactness of the default.** `IndexMode::FullSort` answers are
//!    byte-identical to the cache-bypassing oracle — the index subsystem
//!    changes nothing unless switched on.
//! 2. **Exactness at full probe width.** `IndexMode::Ivf` with
//!    `nprobe == nlist` is byte-identical to `FullSort` for every user:
//!    the candidate set provably contains the true top-k (the pruning
//!    bound is conservative), and the re-rank scores through the same
//!    per-item arithmetic with the evaluation protocol's tie-breaking.
//! 3. **Recall at the default probe width.** Over ≥1000 generated users,
//!    measured recall@20 of the auto-`nprobe` IVF ranking against the
//!    full sort is ≥ 0.95 — the asserted serving contract behind the
//!    latency win. The measurement is mirrored into the
//!    `testkit.index.recall.{hits,total}` obs counters, which is where
//!    dashboards read index quality from.
//! 4. **Cold users bypass the index.** History-less users get the
//!    popularity fallback byte-identically in both modes — the index
//!    never sees them.

use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, IndexMode, ServeConfig};
use inbox_testkit::harness;

/// A catalog big enough that IVF partitioning is meaningful and a user
/// population big enough for a tight recall estimate (≥1000 users with
/// history), still fast as an untrained deterministic fixture.
fn recall_dataset(seed: u64) -> Dataset {
    let cfg = SyntheticConfig {
        name: "index-recall".into(),
        n_users: 1200,
        n_items: 3000,
        n_attr_relations: 5,
        tags_per_relation: 12,
        concepts_per_item: 3,
        irt_dropout: 0.05,
        trt_per_irt: 0.5,
        iri_per_irt: 0.01,
        interactions_per_user: (6, 14),
        interest_noise: 0.15,
        items_per_archetype: 12,
    };
    Dataset::synthetic(&cfg, seed)
}

fn engine_with(ds: &Dataset, index: IndexMode) -> Engine {
    let cfg = inbox_core::InBoxConfig::tiny_test();
    let model = inbox_core::InBoxModel::new(harness::sizes_of(ds), &cfg);
    let serve = ServeConfig {
        index,
        ..ServeConfig::default()
    };
    Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve)
}

/// Like [`engine_with`] but with the item points warm-started to the
/// **clustered** geometry trained InBox models produce (items of one
/// concept archetype land near each other — Figure 5 of the paper). The
/// recall contract is stated over this regime; untrained uniform points
/// are the adversarial case covered by the *exactness* contracts instead.
fn clustered_engine_with(ds: &Dataset, index: IndexMode) -> Engine {
    let cfg = inbox_core::InBoxConfig::tiny_test();
    let mut model = inbox_core::InBoxModel::new(harness::sizes_of(ds), &cfg);
    // One cluster per tag, tight relative to the unit box: trained item
    // points gather around the tag boxes that contain them (Figure 5
    // colors the PCA projection by genre).
    harness::cluster_item_points(&mut model, ds.kg.n_tags().max(1), 0.05, 0x1db0);
    let serve = ServeConfig {
        index,
        ..ServeConfig::default()
    };
    Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve)
}

fn assert_answers_bit_identical(
    a: &inbox_serve::Recommendation,
    b: &inbox_serve::Recommendation,
    what: &str,
) {
    assert_eq!(a.user, b.user, "{what}");
    assert_eq!(a.fallback, b.fallback, "{what}");
    assert_eq!(a.items.len(), b.items.len(), "{what}");
    for (i, ((ia, sa), (ib, sb))) in a.items.iter().zip(&b.items).enumerate() {
        assert_eq!(ia, ib, "{what}: rank {i} item");
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "{what}: rank {i} score {sa:?} vs {sb:?}"
        );
    }
}

/// Contract 1: `FullSort` — the default — is byte-identical to the
/// cache-bypassing oracle.
#[test]
fn full_sort_mode_is_byte_identical_to_oracle() {
    let serve = ServeConfig::default();
    let (ds, _cfg, engine) = harness::engine(811, &serve);
    assert_eq!(engine.index_active(), None);
    for u in 0..ds.train.n_users() as u32 {
        let served = engine.recommend_now(UserId(u), 20).unwrap();
        let oracle = engine.oracle(UserId(u), 20).unwrap();
        assert_answers_bit_identical(&served, &oracle, &format!("user {u}"));
    }
}

/// Contract 2: probing every partition recovers the full sort exactly,
/// for every user, at the serving layer (mask, cache, fallback included).
#[test]
fn ivf_full_probe_is_byte_identical_to_full_sort() {
    let ds = recall_dataset(813);
    let full = engine_with(&ds, IndexMode::FullSort);
    let nlist = 64;
    let ivf = engine_with(
        &ds,
        IndexMode::Ivf {
            nlist,
            nprobe: nlist,
        },
    );
    assert_eq!(ivf.index_active(), Some((nlist, nlist)));
    for u in 0..400u32 {
        let want = full.recommend_now(UserId(u), 20).unwrap();
        let got = ivf.recommend_now(UserId(u), 20).unwrap();
        assert_answers_bit_identical(&got, &want, &format!("user {u}"));
    }
}

/// Oversized IVF knobs clamp: the build caps `nlist` at the catalog size,
/// and `nprobe` is clamped against the partitions actually built, so
/// `nprobe <= nlist` holds and probing everything stays exact.
#[test]
fn oversized_ivf_knobs_clamp_to_the_built_partitions() {
    let serve = ServeConfig {
        index: IndexMode::Ivf {
            nlist: 100_000,
            nprobe: 90_000,
        },
        ..ServeConfig::default()
    };
    let (ds, _cfg, engine) = harness::engine(811, &serve);
    let (nlist, nprobe) = engine.index_active().expect("IVF build succeeds");
    assert_eq!(nlist, ds.kg.n_items(), "nlist clamps to the catalog size");
    assert!(nprobe <= nlist, "nprobe {nprobe} exceeds nlist {nlist}");
    assert_eq!(nprobe, nlist);
    for u in 0..ds.train.n_users() as u32 {
        let served = engine.recommend_now(UserId(u), 20).unwrap();
        let oracle = engine.oracle(UserId(u), 20).unwrap();
        assert_answers_bit_identical(&served, &oracle, &format!("user {u}"));
    }
}

/// Contract 3: recall@20 ≥ 0.95 at the auto-derived `nprobe`, measured
/// over ≥1000 users with history, mirrored into obs counters.
///
/// The item points are warm-started to clustered (trained-like) geometry:
/// IVF is a partition index, and its recall contract is stated over the
/// regime it serves in production — trained item points that cluster by
/// concept. Uniform-random (untrained) points carry no partition
/// structure at all; that adversarial regime is covered by the exactness
/// contracts (1, 2), which hold for *any* geometry.
#[test]
fn ivf_default_nprobe_recall_at_20_is_at_least_95_percent() {
    inbox_obs::set_enabled(true);
    let ds = recall_dataset(821);
    let full = clustered_engine_with(&ds, IndexMode::FullSort);
    let ivf = clustered_engine_with(
        &ds,
        IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
    );
    let (nlist, nprobe) = ivf.index_active().expect("IVF build succeeds");
    assert!(
        nprobe < nlist,
        "auto nprobe ({nprobe}) must actually truncate ({nlist} partitions) \
         or the recall contract is vacuous"
    );

    let k = 20;
    let mut hits = 0u64;
    let mut total = 0u64;
    let mut measured_users = 0usize;
    for u in 0..ds.train.n_users() as u32 {
        let want = full.recommend_now(UserId(u), k).unwrap();
        if want.fallback {
            continue; // popularity users are contract 4's business
        }
        let got = ivf.recommend_now(UserId(u), k).unwrap();
        assert!(!got.fallback, "user {u}: index must not change fallback");
        measured_users += 1;
        total += want.items.len() as u64;
        for (item, _) in &want.items {
            if got.items.iter().any(|(i, _)| i == item) {
                hits += 1;
            }
        }
    }
    assert!(
        measured_users >= 1000,
        "recall estimate needs ≥1000 users with history, got {measured_users}"
    );
    let recall = hits as f64 / total as f64;
    // Mirror the measurement where dashboards can see it.
    inbox_obs::counter("testkit.index.recall.hits").add(hits);
    inbox_obs::counter("testkit.index.recall.total").add(total);
    assert!(
        recall >= 0.95,
        "recall@{k} = {recall:.4} ({hits}/{total}) below the 0.95 contract \
         at nlist={nlist} nprobe={nprobe} over {measured_users} users"
    );
}

/// Contract 4: cold users (no history) are answered by the popularity
/// fallback byte-identically whether or not an index is configured.
#[test]
fn cold_users_bypass_the_index_unchanged() {
    let ds = recall_dataset(827);
    // Rebuild the interaction set with the first 50 users' histories
    // dropped: those users exist but are cold.
    let cold_users = 50u32;
    let train = harness::with_cold_users(&ds.train, cold_users);
    let cfg = inbox_core::InBoxConfig::tiny_test();
    let mk = |index: IndexMode| {
        let model = inbox_core::InBoxModel::new(harness::sizes_of(&ds), &cfg);
        let serve = ServeConfig {
            index,
            ..ServeConfig::default()
        };
        Engine::new(model, cfg.clone(), ds.kg.clone(), &train, &serve)
    };
    let full = mk(IndexMode::FullSort);
    let ivf = mk(IndexMode::Ivf {
        nlist: 0,
        nprobe: 0,
    });
    assert!(ivf.index_active().is_some());
    for u in 0..cold_users {
        let want = full.recommend_now(UserId(u), 20).unwrap();
        let got = ivf.recommend_now(UserId(u), 20).unwrap();
        assert!(want.fallback, "user {u} should be cold");
        assert!(got.fallback, "user {u}: index must preserve the fallback");
        assert_answers_bit_identical(&got, &want, &format!("cold user {u}"));
    }
}

/// Diagnostic sweep (not a contract): prints recall@20 as a function of
/// `nprobe` on the recall fixture, for both item-point regimes —
/// clustered (trained-like, the production regime) and uniform (untrained,
/// the adversarial regime). Run with `--ignored --nocapture`. The numbers
/// feed the recall/latency tradeoff table in DESIGN.md §12.
#[test]
#[ignore]
fn recall_sweep() {
    let ds = recall_dataset(821);
    for clustered in [true, false] {
        let mk = |index| {
            if clustered {
                clustered_engine_with(&ds, index)
            } else {
                engine_with(&ds, index)
            }
        };
        let full = mk(IndexMode::FullSort);
        let k = 20;
        let mut wants = Vec::new();
        for u in 0..ds.train.n_users() as u32 {
            let w = full.recommend_now(UserId(u), k).unwrap();
            if !w.fallback {
                wants.push((u, w));
            }
        }
        println!(
            "--- {} item points ---",
            if clustered { "clustered" } else { "uniform" }
        );
        for nlist in [32usize, 64, 109, 200] {
            for frac in [16usize, 8, 4, 2] {
                let nprobe = (nlist / frac).max(1);
                let ivf = mk(IndexMode::Ivf { nlist, nprobe });
                let mut hits = 0u64;
                let mut total = 0u64;
                for (u, want) in &wants {
                    let got = ivf.recommend_now(UserId(*u), k).unwrap();
                    total += want.items.len() as u64;
                    for (item, _) in &want.items {
                        if got.items.iter().any(|(i, _)| i == item) {
                            hits += 1;
                        }
                    }
                }
                println!(
                    "nlist={nlist:4} nprobe={nprobe:4} ({:4.1}%)  recall@20 = {:.4}",
                    100.0 * nprobe as f64 / nlist as f64,
                    hits as f64 / total as f64
                );
            }
        }
    }
}
