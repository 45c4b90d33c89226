//! SIMD-vs-scalar bit-identity suite for every row-kernel entry point.
//!
//! The workspace's reduction-order contract (`inbox_autodiff::simd`, DESIGN
//! §13) promises that the SIMD kernels are **bit-identical** to a scalar
//! program that follows the same lane-striped fold: term `k` accumulates
//! into lane `k % 8`, the eight lanes reduce through the fixed pairwise
//! tree, min/max are selects with `maxps`/`minps` semantics. This suite
//! holds the production kernels to that promise against replicas written
//! *here*, with plain arrays and explicit adds — independent of both the
//! kernel implementation and the `testkit::oracle` copies.
//!
//! Inputs deliberately include the values where floating-point folds and
//! select-based min/max diverge from naive scalar code: ±0.0, subnormals,
//! tiny/normal magnitude mixes, and every remainder-lane width (dims not
//! divisible by 8).
//!
//! Every kernel runs through each lane type the host supports — the
//! portable `F32x8Scalar`, the SSE2 pair, and AVX2 when the CPU has it —
//! via its `…_with::<L>` body; the AVX2 calls go through a
//! `#[target_feature(enable = "avx2")]` shim, so they are compiled the
//! way the serving twin compiles them. The plain-named kernels (the
//! default `F32x8`) are checked too. CI runs the suite in release mode,
//! where the twins' inlining happens, and under `--features
//! scalar-fallback`.

use inbox_core::geometry::{self, BoxEmb};
use inbox_core::simd::{
    backend, d_pb_bounds_parts, d_pb_bounds_parts_with, d_pb_box_parts, d_pb_box_parts_with,
    d_pb_row_interleaved, d_pb_row_interleaved_with, l1_row, l1_row_with, quantized_d_pb_parts,
    quantized_d_pb_parts_with, F32x8, F32x8Scalar, Lanes, WithLanes,
};
use proptest::prelude::*;

/// Largest dimensionality exercised; covers 5 full chunks and every
/// remainder width 1..=7 as `dim` sweeps 1..=MAX_DIM.
const MAX_DIM: usize = 40;

// ---------------------------------------------------------------------
// Independent scalar replica of the reduction-order contract
// ---------------------------------------------------------------------

/// Select-based max (`maxps`: second operand wins ties/unordered).
fn smax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Select-based min (`minps`).
fn smin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `relu` as the kernels define it: `smax(x, 0.0)` (so `-0.0 → +0.0`).
fn relu(x: f32) -> f32 {
    smax(x, 0.0)
}

/// The lane-striped fold: eight explicit accumulators, pairwise tree.
fn striped(terms: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (k, &t) in terms.iter().enumerate() {
        lanes[k % 8] += t;
    }
    let b = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let c = [b[0] + b[2], b[1] + b[3]];
    c[0] + c[1]
}

// ---------------------------------------------------------------------
// Every lane backend the host supports
// ---------------------------------------------------------------------

/// One kernel call, runnable on any lane type.
#[derive(Clone)]
enum Kernel<'a> {
    L1(&'a [f32], &'a [f32]),
    Bounds(&'a [f32], &'a [f32], &'a [f32], &'a [f32]),
    Box(&'a [f32], &'a [f32], &'a [f32]),
    Interleaved(&'a [f32], &'a [f32], &'a [f32], f32),
    Quantized(&'a [i8], &'a [f32], &'a [f32], &'a [f32], &'a [f32]),
    /// `load_i8` of 8 bytes, as lanes.
    LoadI8(&'a [i8]),
    /// `hsum` of 8 lanes.
    Hsum(&'a [f32]),
}

impl WithLanes for Kernel<'_> {
    /// Output bits, so backends compare bit for bit.
    type Output = Vec<u32>;

    #[inline(always)]
    fn run<L: Lanes>(self) -> Vec<u32> {
        let v = match self {
            Kernel::L1(a, b) => vec![l1_row_with::<L>(a, b)],
            Kernel::Bounds(p, c, lo, hi) => {
                let (o, i) = d_pb_bounds_parts_with::<L>(p, c, lo, hi);
                vec![o, i]
            }
            Kernel::Box(p, c, off) => {
                let (o, i) = d_pb_box_parts_with::<L>(p, c, off);
                vec![o, i]
            }
            Kernel::Interleaved(p, c, off, w) => vec![d_pb_row_interleaved_with::<L>(p, c, off, w)],
            Kernel::Quantized(q, s, lo, hi, c) => {
                let (o, i) = quantized_d_pb_parts_with::<L>(q, s, lo, hi, c);
                vec![o, i]
            }
            Kernel::LoadI8(b) => L::load_i8(b).to_array().to_vec(),
            Kernel::Hsum(a) => vec![L::load(a).hsum()],
        };
        v.into_iter().map(f32::to_bits).collect()
    }
}

/// The AVX2 instantiation, compiled under `target_feature` like the
/// serving twin.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2(k: Kernel<'_>) -> Vec<u32> {
    k.run::<inbox_core::simd::F32x8Avx2>()
}

/// `k`'s output bits under every lane type the host supports, labelled.
fn each_backend(k: Kernel<'_>) -> Vec<(&'static str, Vec<u32>)> {
    let mut out = vec![("scalar", k.clone().run::<F32x8Scalar>())];
    #[cfg(target_arch = "x86_64")]
    {
        out.push(("sse2", k.clone().run::<inbox_core::simd::F32x8Sse2>()));
        if avx2_host() {
            // SAFETY: the CPU supports AVX2 (checked just above).
            out.push(("avx2", unsafe { on_avx2(k) }));
        }
    }
    out
}

/// Asserts every backend's bits equal `want`'s.
fn assert_backends(k: Kernel<'_>, want: &[f32]) -> Result<(), TestCaseError> {
    let want: Vec<u32> = want.iter().map(|w| w.to_bits()).collect();
    for (name, got) in each_backend(k) {
        prop_assert_eq!(&got, &want, "backend {}", name);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Input strategies: remainder widths + adversarial lane values
// ---------------------------------------------------------------------

/// One coordinate: signed zeros, subnormals, smallest normals, and two
/// magnitude bands that force cancellation and rounding in the folds.
fn lane_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.1e-41f32),        // subnormal
        Just(-7.0e-42f32),       // subnormal
        Just(f32::MIN_POSITIVE), // smallest normal
        Just(-f32::MIN_POSITIVE),
        -4.0f32..4.0,
        -2.0e-4f32..2.0e-4,
    ]
}

fn row() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(lane_value(), MAX_DIM)
}

fn dim() -> impl Strategy<Value = usize> {
    1usize..=MAX_DIM
}

/// Per-dimension `(out, inside)` terms of the inference kernels, given
/// prematerialised bounds: `out = relu(p-hi) + relu(lo-p)`,
/// `inside = |cen - clamp(p, lo, hi)|` with a select-based clamp.
fn parts_terms(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let out = (0..p.len())
        .map(|k| relu(p[k] - hi[k]) + relu(lo[k] - p[k]))
        .collect();
    let inside = (0..p.len())
        .map(|k| (cen[k] - smin(smax(p[k], lo[k]), hi[k])).abs())
        .collect();
    (out, inside)
}

proptest! {
    /// `l1_row` (behind `geometry::d_pp` and `Tape::l1_rows`) equals the
    /// striped fold of `|a - b|`, to the bit, at every remainder width.
    #[test]
    fn l1_row_is_bit_identical_to_the_striped_replica(
        d in dim(),
        a in row(),
        b in row(),
    ) {
        let (a, b) = (&a[..d], &b[..d]);
        let terms: Vec<f32> = a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).collect();
        let want = striped(&terms);
        let got = l1_row(a, b);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "dim {}: {} vs {}", d, got, want);
        assert_backends(Kernel::L1(a, b), &[want])?;
        prop_assert_eq!(got.to_bits(), geometry::d_pp(a, b).to_bits());
        prop_assert!(got.is_finite() && got >= 0.0, "dim {}: {}", d, got);
    }

    /// `d_pb_bounds_parts` — the `ItemScorer` inference kernel — equals
    /// the striped replica on both accumulator groups, to the bit.
    #[test]
    fn bounds_parts_are_bit_identical_to_the_striped_replica(
        d in dim(),
        p in row(),
        cen in row(),
        off in row(),
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        // The exact bounds `prepare_box_bounds` materialises.
        let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
        let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
        let (out_terms, in_terms) = parts_terms(p, cen, &lo, &hi);
        let (want_out, want_in) = (striped(&out_terms), striped(&in_terms));
        let (got_out, got_in) = d_pb_bounds_parts(p, cen, &lo, &hi);
        prop_assert_eq!(got_out.to_bits(), want_out.to_bits(), "dim {} out", d);
        prop_assert_eq!(got_in.to_bits(), want_in.to_bits(), "dim {} inside", d);
        assert_backends(Kernel::Bounds(p, cen, &lo, &hi), &[want_out, want_in])?;
        prop_assert!(got_out.is_finite() && got_out >= 0.0);
        prop_assert!(got_in.is_finite() && got_in >= 0.0);
    }

    /// `d_pb_box_parts` — behind `geometry::d_pb`/`d_pb_weighted` — is
    /// bit-identical to the bounds form fed the materialised `lo`/`hi`,
    /// so the full-scan and per-item scoring paths cannot diverge.
    #[test]
    fn box_and_bounds_forms_agree_bitwise(
        d in dim(),
        p in row(),
        cen in row(),
        off in row(),
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
        let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
        let (want_out, want_in) = d_pb_bounds_parts(p, cen, &lo, &hi);
        let (got_out, got_in) = d_pb_box_parts(p, cen, off);
        prop_assert_eq!(got_out.to_bits(), want_out.to_bits(), "dim {} out", d);
        prop_assert_eq!(got_in.to_bits(), want_in.to_bits(), "dim {} inside", d);
        assert_backends(Kernel::Box(p, cen, off), &[want_out, want_in])?;
        // And the geometry entry points are exactly these parts.
        let b = BoxEmb::new(cen.to_vec(), off.to_vec());
        prop_assert_eq!(geometry::d_pb(p, &b).to_bits(), (got_out + got_in).to_bits());
        prop_assert_eq!(
            geometry::d_pb_weighted(p, &b, 0.5).to_bits(),
            (got_out + 0.5 * got_in).to_bits()
        );
    }

    /// `d_pb_row_interleaved` — the training op's fused kernel — equals
    /// the striped fold of the interleaved per-dimension terms
    /// `(over + under) + w·inside`, to the bit.
    #[test]
    fn interleaved_row_is_bit_identical_to_the_striped_replica(
        d in dim(),
        p in row(),
        cen in row(),
        off in row(),
        w in prop_oneof![Just(0.0f32), Just(1.0f32), 0.0f32..2.0],
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        let terms: Vec<f32> = (0..d)
            .map(|k| {
                let half = relu(off[k]);
                let (lo, hi) = (cen[k] - half, cen[k] + half);
                let over = relu(p[k] - hi);
                let under = relu(lo - p[k]);
                let inside = (cen[k] - smin(smax(p[k], lo), hi)).abs();
                (over + under) + w * inside
            })
            .collect();
        let want = striped(&terms);
        let got = d_pb_row_interleaved(p, cen, off, w);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "dim {}: {} vs {}", d, got, want);
        assert_backends(Kernel::Interleaved(p, cen, off, w), &[want])?;
        prop_assert!(got.is_finite() && got >= 0.0, "dim {}: {}", d, got);
    }

    /// Zero-padding identity: appending zero dimensions to every operand
    /// never changes any kernel's bits — the exact property the remainder
    /// (`load_tail`) path relies on.
    #[test]
    fn zero_padding_never_changes_the_bits(
        d in 1usize..=16,
        pad in 1usize..=9,
        p in row(),
        cen in row(),
        off in row(),
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        let extend = |s: &[f32]| {
            let mut v = s.to_vec();
            v.resize(d + pad, 0.0);
            v
        };
        let (pp, pc, po) = (extend(p), extend(cen), extend(off));
        prop_assert_eq!(l1_row(p, cen).to_bits(), l1_row(&pp, &pc).to_bits());
        let (o1, i1) = d_pb_box_parts(p, cen, off);
        let (o2, i2) = d_pb_box_parts(&pp, &pc, &po);
        prop_assert_eq!(o1.to_bits(), o2.to_bits());
        prop_assert_eq!(i1.to_bits(), i2.to_bits());
        prop_assert_eq!(
            d_pb_row_interleaved(p, cen, off, 0.5).to_bits(),
            d_pb_row_interleaved(&pp, &pc, &po, 0.5).to_bits()
        );
    }

    /// `quantized_d_pb_parts` — the int8 coarse scorer — equals the
    /// striped replica of `s·(relu(t - hi) + relu(lo - t))` and
    /// `s·|cen - clamp(t, lo, hi)|` over exactly-converted codes `t`, on
    /// every backend, with pad lanes (`s = 0`, zero bounds) past `dim`.
    #[test]
    fn quantized_parts_are_bit_identical_to_the_striped_replica(
        d in dim(),
        codes in prop::collection::vec(-128i32..=127, MAX_DIM),
        scale in prop::collection::vec(0.0f32..0.02, MAX_DIM),
        qlo in prop::collection::vec(-140.0f32..140.0, MAX_DIM),
        width in prop::collection::vec(0.0f32..80.0, MAX_DIM),
    ) {
        let stride = d.next_multiple_of(8);
        let pad = |v: Vec<f32>| {
            let mut v = v;
            v.resize(stride, 0.0);
            v
        };
        let q: Vec<i8> = (0..stride).map(|k| if k < d { codes[k] as i8 } else { 0 }).collect();
        let s = pad(scale[..d].to_vec());
        let lo = pad(qlo[..d].to_vec());
        let hi = pad((0..d).map(|k| qlo[k] + width[k]).collect());
        let cen = pad((0..d).map(|k| qlo[k] + 0.5 * width[k]).collect());
        let t: Vec<f32> = q.iter().map(|&c| c as f32).collect();
        let (out_terms, in_terms) = parts_terms(&t, &cen, &lo, &hi);
        let out_terms: Vec<f32> = out_terms.iter().zip(&s).map(|(o, s)| s * o).collect();
        let in_terms: Vec<f32> = in_terms.iter().zip(&s).map(|(i, s)| s * i).collect();
        let want = [striped(&out_terms), striped(&in_terms)];
        let (got_out, got_in) = quantized_d_pb_parts(&q, &s, &lo, &hi, &cen);
        prop_assert_eq!([got_out.to_bits(), got_in.to_bits()], [want[0].to_bits(), want[1].to_bits()]);
        assert_backends(Kernel::Quantized(&q, &s, &lo, &hi, &cen), &want)?;
    }

    /// `hsum` is the documented pairwise tree on every backend — the AVX2
    /// halves-first reduction included.
    #[test]
    fn hsum_follows_the_tree_on_every_backend(a in prop::collection::vec(lane_value(), 8)) {
        let b = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let c = [b[0] + b[2], b[1] + b[3]];
        assert_backends(Kernel::Hsum(&a), &[c[0] + c[1]])?;
    }
}

/// All 256 byte values through `load_i8` on every backend, eight at a
/// time: each lane is the byte's exact f32 value.
#[test]
fn load_i8_converts_every_byte_exactly() {
    let bytes: Vec<i8> = (i8::MIN..=i8::MAX).collect();
    assert_eq!(bytes.len(), 256);
    for chunk in bytes.chunks_exact(8) {
        let want: Vec<f32> = chunk.iter().map(|&b| b as f32).collect();
        assert_backends(Kernel::LoadI8(chunk), &want).unwrap();
    }
}

/// One quantized row holding all 256 codes, scored against a box that
/// puts codes outside, inside and on both edges: every backend matches
/// the striped replica.
#[test]
fn quantized_kernel_covers_every_code() {
    let q: Vec<i8> = (i8::MIN..=i8::MAX).collect();
    let n = q.len();
    let s: Vec<f32> = (0..n).map(|k| 0.001 + (k % 13) as f32 * 1e-4).collect();
    let lo: Vec<f32> = (0..n).map(|k| -40.0 + (k % 7) as f32).collect();
    let hi: Vec<f32> = lo.iter().map(|l| l + 60.0).collect();
    let cen: Vec<f32> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
    let t: Vec<f32> = q.iter().map(|&c| c as f32).collect();
    let (out_terms, in_terms) = parts_terms(&t, &cen, &lo, &hi);
    let out_terms: Vec<f32> = out_terms.iter().zip(&s).map(|(o, s)| s * o).collect();
    let in_terms: Vec<f32> = in_terms.iter().zip(&s).map(|(i, s)| s * i).collect();
    let want = [striped(&out_terms), striped(&in_terms)];
    assert_backends(Kernel::Quantized(&q, &s, &lo, &hi, &cen), &want).unwrap();
}

/// The backend `dispatch` runs is the one the host and build allow: a
/// release test run on an AVX2 host cannot silently test only SSE2, and a
/// `scalar-fallback` build (whichever crate's feature turned it on, seen
/// through the default lane type) reports `"scalar"`.
#[test]
fn backend_matches_the_host() {
    let want = if std::any::type_name::<F32x8>().ends_with("F32x8Scalar") {
        "scalar"
    } else if avx2_host() {
        "avx2"
    } else {
        "sse2"
    };
    assert_eq!(backend(), want);
}

fn avx2_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
