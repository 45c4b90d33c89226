//! Integration tests for training *dynamics*: that each stage actually
//! achieves its geometric objective from the paper, not merely that losses
//! go down.

use inbox_repro::core::geometry;
use inbox_repro::core::{train, Ablation, InBoxConfig, IntersectionMode};
use inbox_repro::data::{Dataset, SyntheticConfig};
use inbox_repro::kg::UserId;

fn trained_small(seed: u64, cfg: InBoxConfig) -> (Dataset, inbox_repro::core::TrainedInBox) {
    let ds = Dataset::synthetic(&SyntheticConfig::small(), seed);
    let trained = train(&ds, cfg);
    (ds, trained)
}

fn std_cfg() -> InBoxConfig {
    InBoxConfig {
        epochs_stage1: 20,
        epochs_stage2: 12,
        epochs_stage3: 12,
        n_negatives: 16,
        max_history: 24,
        lr: 1.5e-2,
        ..InBoxConfig::for_dim(16)
    }
}

/// Section 3.2's goal: after training, item points should sit *much* closer
/// to their own concept boxes than to random concept boxes.
#[test]
fn stage1_places_items_near_their_concept_boxes() {
    let (ds, trained) = trained_small(31, std_cfg());
    let mut own = 0.0f64;
    let mut other = 0.0f64;
    let mut n = 0usize;
    // Sorted: `concepts()` iterates a hash map whose order changes from
    // process to process, which would make the pseudo-random pick below
    // (and so the statistic) differ between runs.
    let mut concepts: Vec<_> = ds.kg.concepts().map(|(c, _)| *c).collect();
    concepts.sort();
    for (idx, t) in ds.kg.irt_triples().iter().enumerate().take(400) {
        let p = trained.model.item_point_f32(t.head);
        let own_box = trained.model.concept_box_f32(t.concept());
        own += geometry::d_out(p, &own_box) as f64;
        // A pseudo-random other concept.
        let alt = concepts[(idx * 31 + 7) % concepts.len()];
        if alt != t.concept() {
            let alt_box = trained.model.concept_box_f32(alt);
            other += geometry::d_out(p, &alt_box) as f64;
            n += 1;
        }
    }
    let own_mean = own / n as f64;
    let other_mean = other / n as f64;
    assert!(
        own_mean * 1.5 < other_mean,
        "items should stick out far less from their own boxes: own {own_mean:.3} vs other {other_mean:.3}"
    );
}

/// Figure 5's claim as a statistic: items sharing a concept end up closer
/// in embedding space than random item pairs.
#[test]
fn concept_members_cluster_in_embedding_space() {
    let (ds, trained) = trained_small(32, std_cfg());
    let mut same = 0.0f64;
    let mut same_n = 0usize;
    for (_, members) in ds.kg.concepts() {
        if members.len() < 3 {
            continue;
        }
        for i in 0..members.len().min(4) {
            for j in (i + 1)..members.len().min(4) {
                same += geometry::d_pp(
                    trained.model.item_point_f32(members[i]),
                    trained.model.item_point_f32(members[j]),
                ) as f64;
                same_n += 1;
            }
        }
    }
    let mut random = 0.0f64;
    let mut random_n = 0usize;
    for i in (0..ds.n_items()).step_by(5) {
        for j in (1..ds.n_items()).step_by(7) {
            if i == j {
                continue;
            }
            random += geometry::d_pp(
                trained
                    .model
                    .item_point_f32(inbox_repro::kg::ItemId(i as u32)),
                trained
                    .model
                    .item_point_f32(inbox_repro::kg::ItemId(j as u32)),
            ) as f64;
            random_n += 1;
        }
    }
    let same_mean = same / same_n as f64;
    let random_mean = random / random_n as f64;
    assert!(
        same_mean < random_mean,
        "same-concept distance {same_mean:.3} must undercut random {random_mean:.3}"
    );
}

/// The interest box must rank a user's held-out items above the median
/// random item for most users.
#[test]
fn interest_boxes_prefer_held_out_items() {
    let (ds, trained) = trained_small(33, std_cfg());
    let mut better = 0usize;
    let mut total = 0usize;
    let alpha = trained.config.inside_weight;
    for u in 0..ds.n_users() as u32 {
        let user = UserId(u);
        let test_items = ds.test.items_of(user);
        if test_items.is_empty() {
            continue;
        }
        let b = match trained.interest_box_of(user) {
            Some(b) => b,
            None => continue,
        };
        let test_d: f64 = test_items
            .iter()
            .map(|&i| geometry::d_pb_weighted(trained.model.item_point_f32(i), b, alpha) as f64)
            .sum::<f64>()
            / test_items.len() as f64;
        let mut all: Vec<f64> = (0..ds.n_items() as u32)
            .filter(|&i| !ds.train.contains(user, inbox_repro::kg::ItemId(i)))
            .map(|i| {
                geometry::d_pb_weighted(
                    trained.model.item_point_f32(inbox_repro::kg::ItemId(i)),
                    b,
                    alpha,
                ) as f64
            })
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = all[all.len() / 2];
        if test_d < median {
            better += 1;
        }
        total += 1;
    }
    assert!(
        better * 10 > total * 7,
        "only {better}/{total} users rank held-out items above the median"
    );
}

/// Max-Min intersection must remain a *working* model, merely slightly
/// weaker or comparable (the paper's `M-M I` row) — far above the collapsed
/// `w/o B&I` row.
#[test]
fn maxmin_far_exceeds_collapse() {
    let ds = Dataset::synthetic(&SyntheticConfig::small(), 34);
    let mm = train(
        &ds,
        InBoxConfig {
            intersection: IntersectionMode::MaxMin,
            ..std_cfg()
        },
    )
    .evaluate(&ds, 20);
    let collapsed = train(&ds, Ablation::WithoutBAndI.configure(std_cfg())).evaluate(&ds, 20);
    assert!(
        mm.recall > collapsed.recall * 1.5,
        "M-M I {:.4} should far exceed w/o B&I {:.4}",
        mm.recall,
        collapsed.recall
    );
}

/// Early stopping: with a generous epoch budget the trainer must terminate
/// before exhausting it once recall plateaus, and report it.
#[test]
fn early_stopping_fires_on_plateau() {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 35);
    let cfg = InBoxConfig {
        epochs_stage3: 100,
        patience: 2,
        ..InBoxConfig::tiny_test()
    };
    let trained = train(&ds, cfg);
    assert!(
        trained.report.early_stopped,
        "100 epochs on tiny data must plateau"
    );
    assert!(trained.report.stage3_recalls.len() < 100);
}
