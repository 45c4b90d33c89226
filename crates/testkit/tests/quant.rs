//! Contracts for int8 inference quantization (`inbox_core::simd`,
//! `ServeConfig::quantize`):
//!
//! 1. **Round-trip error.** Dequantizing any quantized coordinate lands
//!    within half a quantization step (`scale/2`) of the original, and
//!    degenerate (constant) dimensions round-trip exactly.
//! 2. **Kernel equivalence.** The dequantize-free int8 kernel scores
//!    exactly like f32 scoring of the dequantized matrix (to f32
//!    rounding), and within the derived `bound_slack` of the original f32
//!    matrix — the bound the IVF prune widens by.
//! 3. **Ranking agreement.** Over ≥1000 generated users on clustered
//!    (trained-like) geometry, agreement@20 between the int8 and f32
//!    full-sort rankings is ≥ 0.99 — the asserted serving contract behind
//!    `--quantize int8`, mirrored into the
//!    `testkit.quant.agreement.{hits,total}` obs counters. The
//!    bounded-error refine (int8 selects candidates, near-threshold items
//!    are re-scored in f32) in fact makes the quantized answer
//!    *byte-identical* to the f32 full sort, asserted separately.
//! 4. **Candidate-set soundness.** Quantized IVF re-rank at full probe
//!    width is byte-identical to the quantized full sort: the pruning
//!    margin widened by `bound_slack` never discards a partition holding
//!    a quantized top-k item.
//! 5. **Cold-user bypass.** History-less users get the popularity
//!    fallback byte-identically with and without quantization — the int8
//!    path never touches them.

use inbox_core::simd::{quantized_d_pb_parts, QuantizedItems};
use inbox_core::Quantization;
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, IndexMode, ServeConfig};
use inbox_testkit::harness;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// 1 + 2: matrix-level contracts (proptest)
// ---------------------------------------------------------------------

/// Select-based relu matching the kernels (`-0.0 → +0.0`).
fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// `(n_items, dim)` shapes small enough to check every coordinate, with
/// dims on both sides of the 8-lane stride boundary.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=13)
}

fn coord() -> impl Strategy<Value = f32> {
    prop_oneof![
        -2.0f32..2.0,
        -1.0e-3f32..1.0e-3,
        Just(0.0f32),
        Just(0.75f32), // repeated value → degenerate dims when drawn twice
    ]
}

proptest! {
    /// Contract 1: per-coordinate round-trip error is ≤ `scale/2` (plus a
    /// hair of f32 rounding); constant dimensions are exact to the bit.
    #[test]
    fn round_trip_error_is_within_half_a_step(
        nd in shape(),
        flat in prop::collection::vec(coord(), 12 * 13),
        w in 0.0f32..1.5,
    ) {
        let (n, d) = nd;
        let items = &flat[..n * d];
        let q = QuantizedItems::from_items(items, n, d, w);
        prop_assert_eq!(q.n_items(), n);
        prop_assert_eq!(q.dim(), d);
        prop_assert_eq!(q.stride() % 8, 0);
        for k in 0..d {
            let col: Vec<f32> = (0..n).map(|i| items[i * d + k]).collect();
            let (lo, hi) = col.iter().fold((f32::MAX, f32::MIN), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
            let constant = (hi as f64 - lo as f64) <= 1e-12;
            let s = q.scales()[k];
            for i in 0..n {
                let x = items[i * d + k];
                let xh = q.dequant(i as u32, k);
                if constant {
                    prop_assert_eq!(
                        xh.to_bits(), x.to_bits(),
                        "constant dim {} item {}: {} vs {}", k, i, xh, x
                    );
                } else {
                    let err = (xh - x).abs();
                    let allow = s * 0.5 + s * 1e-4 + 1e-7;
                    prop_assert!(
                        err <= allow,
                        "dim {} item {}: |{} - {}| = {} > {}", k, i, xh, x, err, allow
                    );
                }
            }
        }
    }

    /// Contract 2: the int8 kernel equals f32 scoring of the dequantized
    /// matrix to f32 rounding, and sits within `bound_slack` of scoring
    /// the *original* matrix — for arbitrary boxes, including degenerate
    /// (zero-width) ones.
    #[test]
    fn kernel_matches_dequantized_scoring_within_the_derived_bound(
        nd in shape(),
        flat in prop::collection::vec(coord(), 12 * 13),
        box_flat in prop::collection::vec(-2.0f32..2.0, 2 * 13),
        w in 0.0f32..1.5,
    ) {
        let (n, d) = nd;
        let items = &flat[..n * d];
        let q = QuantizedItems::from_items(items, n, d, w);
        let cen = &box_flat[..d];
        let off: Vec<f32> = box_flat[13..13 + d].iter().map(|&x| x * 0.5).collect();
        let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
        let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
        let (mut qlo, mut qhi, mut qcen) = (Vec::new(), Vec::new(), Vec::new());
        q.transform_bounds(&lo, &hi, cen, &mut qlo, &mut qhi, &mut qcen);
        for i in 0..n as u32 {
            let (qout, qin) = quantized_d_pb_parts(q.row(i), q.scales(), &qlo, &qhi, &qcen);
            let quant = qout + w * qin;
            prop_assert!(quant.is_finite(), "item {}: {}", i, quant);

            // (a) vs f32 scoring of the dequantized row.
            let deq: Vec<f32> = (0..d).map(|k| q.dequant(i, k)).collect();
            let (fout, fin) =
                inbox_core::simd::d_pb_bounds_parts(&deq, cen, &lo, &hi);
            let dequant_score = fout + w * fin;
            let tol = 1e-4 * (1.0 + dequant_score.abs());
            prop_assert!(
                (quant - dequant_score).abs() <= tol,
                "item {}: int8 kernel {} vs dequantized f32 {}", i, quant, dequant_score
            );

            // (b) vs f32 scoring of the original row, within bound_slack.
            let row = &items[i as usize * d..(i as usize + 1) * d];
            let (oout, oin) = inbox_core::simd::d_pb_bounds_parts(row, cen, &lo, &hi);
            let exact = oout + w * oin;
            prop_assert!(
                (quant - exact).abs() <= q.bound_slack(),
                "item {}: |{} - {}| > bound_slack {}", i, quant, exact, q.bound_slack()
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3 + 4 + 5: serving-layer contracts
// ---------------------------------------------------------------------

/// The index suite's fixture: a catalog big enough for meaningful IVF
/// partitions and ≥1000 users with history for a tight agreement
/// estimate.
fn agreement_dataset(seed: u64) -> Dataset {
    let cfg = SyntheticConfig {
        name: "quant-agreement".into(),
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

/// Engine with item points warm-started to the clustered geometry trained
/// InBox models produce — the regime the agreement contract is stated
/// over, exactly like the index recall contract.
fn clustered_engine(ds: &Dataset, index: IndexMode, quantize: Quantization) -> Engine {
    let cfg = inbox_core::InBoxConfig::tiny_test();
    let mut model = inbox_core::InBoxModel::new(harness::sizes_of(ds), &cfg);
    harness::cluster_item_points(&mut model, ds.kg.n_tags().max(1), 0.05, 0x1db0);
    let serve = ServeConfig {
        index,
        quantize,
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

/// Contract 3: agreement@20 ≥ 0.99 between int8 and f32 full-sort
/// rankings over ≥1000 users with history, mirrored into obs counters.
#[test]
fn int8_full_sort_agreement_at_20_is_at_least_99_percent() {
    inbox_obs::set_enabled(true);
    let ds = agreement_dataset(907);
    let f32_engine = clustered_engine(&ds, IndexMode::FullSort, Quantization::None);
    let int8_engine = clustered_engine(&ds, IndexMode::FullSort, Quantization::Int8);
    assert_eq!(int8_engine.quantization(), Quantization::Int8);
    assert!(
        int8_engine.quantization() != Quantization::None,
        "fixture must actually quantize or the contract is vacuous"
    );

    let k = 20;
    let mut hits = 0u64;
    let mut total = 0u64;
    let mut measured_users = 0usize;
    for u in 0..ds.train.n_users() as u32 {
        let want = f32_engine.recommend_now(UserId(u), k).unwrap();
        if want.fallback {
            continue; // cold users are contract 5's business
        }
        let got = int8_engine.recommend_now(UserId(u), k).unwrap();
        assert!(
            !got.fallback,
            "user {u}: quantization must not change fallback"
        );
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
        "agreement estimate needs ≥1000 users with history, got {measured_users}"
    );
    let agreement = hits as f64 / total as f64;
    inbox_obs::counter("testkit.quant.agreement.hits").add(hits);
    inbox_obs::counter("testkit.quant.agreement.total").add(total);
    assert!(
        agreement >= 0.99,
        "agreement@{k} = {agreement:.4} ({hits}/{total}) below the 0.99 contract \
         over {measured_users} users"
    );
}

/// Contract 3, strengthened: the bounded-error ranking oracle makes the
/// quantized full sort **byte-identical** to the f32 full sort — same
/// items, same order, same score bits. The int8 scan only *selects*
/// candidates (everything within `2·bound_slack` of the preliminary k-th
/// int8 score); the answer itself is exact f32 arithmetic, so quantized
/// serving cannot drift from the reference ranking at all.
#[test]
fn int8_full_sort_is_byte_identical_to_f32_full_sort() {
    let ds = agreement_dataset(907);
    let f32_engine = clustered_engine(&ds, IndexMode::FullSort, Quantization::None);
    let int8_engine = clustered_engine(&ds, IndexMode::FullSort, Quantization::Int8);
    for u in 0..400u32 {
        let want = f32_engine.recommend_now(UserId(u), 20).unwrap();
        let got = int8_engine.recommend_now(UserId(u), 20).unwrap();
        assert_answers_bit_identical(&got, &want, &format!("user {u}"));
    }
}

/// Contract 4: quantized IVF at full probe width is byte-identical to the
/// quantized full sort — the `bound_slack`-widened prune never discards a
/// partition holding a quantized top-k item, even though the rectangle
/// bound is computed over f32 geometry.
#[test]
fn int8_ivf_full_probe_is_byte_identical_to_int8_full_sort() {
    let ds = agreement_dataset(911);
    let full = clustered_engine(&ds, IndexMode::FullSort, Quantization::Int8);
    let nlist = 64;
    let ivf = clustered_engine(
        &ds,
        IndexMode::Ivf {
            nlist,
            nprobe: nlist,
        },
        Quantization::Int8,
    );
    assert_eq!(ivf.index_active(), Some((nlist, nlist)));
    for u in 0..400u32 {
        let want = full.recommend_now(UserId(u), 20).unwrap();
        let got = ivf.recommend_now(UserId(u), 20).unwrap();
        assert_answers_bit_identical(&got, &want, &format!("user {u}"));
    }
}

/// Contract 5: cold users (no history at all) get the popularity fallback
/// byte-identically whether or not the engine quantizes — the int8 path
/// is never consulted for them.
#[test]
fn cold_users_bypass_quantization_byte_identically() {
    let ds = agreement_dataset(919);
    // Drop the first 50 users' histories: they exist but are cold.
    let cold_users = 50u32;
    let train = harness::with_cold_users(&ds.train, cold_users);
    let cfg = inbox_core::InBoxConfig::tiny_test();
    let mk = |quantize: Quantization| {
        let model = inbox_core::InBoxModel::new(harness::sizes_of(&ds), &cfg);
        let serve = ServeConfig {
            quantize,
            ..ServeConfig::default()
        };
        Engine::new(model, cfg.clone(), ds.kg.clone(), &train, &serve)
    };
    let plain = mk(Quantization::None);
    let quant = mk(Quantization::Int8);
    for u in 0..cold_users {
        let want = plain.recommend_now(UserId(u), 20).unwrap();
        let got = quant.recommend_now(UserId(u), 20).unwrap();
        assert!(want.fallback, "user {u} should be cold");
        assert!(
            got.fallback,
            "user {u}: quantization must preserve the fallback"
        );
        assert_answers_bit_identical(&got, &want, &format!("cold user {u}"));
    }
}
