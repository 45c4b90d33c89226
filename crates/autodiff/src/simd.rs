//! Explicit 8-lane f32 SIMD for the distance/score hot loops, with a
//! portable fallback that is **bit-identical** by construction.
//!
//! # The lane-striped reduction-order contract
//!
//! f32 addition is not associative, so "SIMD but bit-identical to the old
//! sequential sum" is impossible. Instead the workspace defines one
//! reduction order — *lane striping* — and every implementation (SSE2,
//! portable, and the testkit's independently written scalar oracles)
//! commits to it:
//!
//! * A row of `d` elements is processed in chunks of 8. Lane `j` of the
//!   accumulator sums elements `8c + j` for `c = 0, 1, …` — eight
//!   independent sequential sums.
//! * A remainder of `r = d % 8` elements lands in lanes `0..r`; lanes
//!   `r..8` receive `+0.0`. Every per-dimension term produced by these
//!   kernels is `≥ +0.0` (relu/abs outputs, and non-negative products of
//!   them), and the accumulators start at `+0.0`, so adding `+0.0` is a
//!   bit-exact identity — remainder handling is equivalent to
//!   zero-padding the inputs to a multiple of 8.
//! * The horizontal sum is the fixed pairwise tree
//!   `b = [a0+a4, a1+a5, a2+a6, a3+a7]`, `c = [b0+b2, b1+b3]`,
//!   `sum = c0 + c1` — exactly what two SSE `addps` halves followed by
//!   `movhl`/`shuffle` reductions compute.
//!
//! # min/max selection semantics
//!
//! Rust's `f32::max` lowers to `llvm.maxnum`, whose `±0.0` behaviour is
//! unspecified and differs from SSE's `maxps`. The kernels therefore use
//! *select-based* comparisons matching the SSE instructions exactly:
//! [`pmax`]`(a, b) = if a > b { a } else { b }` (`maxps`) and
//! [`pmin`]`(a, b) = if a < b { a } else { b }` (`minps`) — the second
//! operand wins on equality or unordered inputs. `relu(x) = pmax(x, 0.0)`
//! maps `-0.0` to `+0.0` in both paths. `abs` clears the sign bit.
//!
//! # Backends
//!
//! Three lane types implement the one [`Lanes`] trait and run the same
//! lane-striped program:
//!
//! * [`F32x8Sse2`] (x86_64): two `__m128` halves via SSE2 intrinsics.
//!   SSE2 is part of the x86_64 baseline, so it needs no detection; it is
//!   the default [`F32x8`].
//! * [`F32x8Avx2`] (x86_64): one `__m256`. Lane `j` is element `j`
//!   exactly as in the SSE2 pair, and its [`Lanes::hsum`] first adds the
//!   two 128-bit halves — `[a0+a4, a1+a5, a2+a6, a3+a7]`, the same first
//!   level of the tree — then runs the SSE2 tree on the result, so every
//!   kernel is bit-identical to the SSE2 pair by construction. No FMA is
//!   enabled: a fused multiply-add would round once where the contract
//!   rounds twice.
//! * [`F32x8Scalar`]: a plain `[f32; 8]` loop body with the same lane
//!   semantics. It is [`F32x8`] under the `scalar-fallback` feature or
//!   on any non-x86_64 target.
//!
//! Each row kernel is an `#[inline(always)]` generic body
//! (`…_with::<L>`); the plain names ([`l1_row`], [`d_pb_bounds_parts`],
//! …) are its [`F32x8`] instantiation, so tape ops and other callers
//! never see the choice.
//!
//! AVX2 is chosen **once per request, never per item**: a hot path
//! implements [`WithLanes`] and [`dispatch`] runs it either as is, or
//! inside one `#[target_feature(enable = "avx2")]` twin when the CPU has
//! AVX2 ([`backend`] says which). Everything the twin inlines — the
//! generic kernels, the lane ops, the intrinsics — compiles with AVX2
//! enabled. Dispatching per kernel call instead pays a call per item
//! and keeps the scan loop out of the AVX2 code, which eats the gain: on
//! a 40 000-item f32 scan at d = 32 (2-vCPU Xeon VM with AVX2) the
//! inlined SSE2 pair took 14.0 ns/item, dispatch per item 13.8 and the
//! twin dispatched once per scan 8.7. There is no switch: only CPU
//! detection picks the backend, and `scalar-fallback` compiles the twin
//! out.
//!
//! The testkit's `simd` suite proptests every kernel under every lane
//! type the host supports against the scalar oracles, across
//! remainder-lane dims, signed zeros and subnormals; CI runs it in
//! release mode and under `scalar-fallback`.

#![allow(clippy::needless_range_loop)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Select-based maximum with SSE `maxps` semantics: returns `b` when
/// `a <= b`, when the operands compare unordered, and for `±0.0` ties.
#[inline(always)]
pub fn pmax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Select-based minimum with SSE `minps` semantics: returns `b` when
/// `a >= b`, when the operands compare unordered, and for `±0.0` ties.
#[inline(always)]
pub fn pmin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `relu` under the kernel contract: `pmax(x, +0.0)`. Maps `-0.0` to
/// `+0.0`, unlike `f32::max(x, 0.0)` whose signed-zero result is
/// unspecified.
#[inline(always)]
pub fn relu0(x: f32) -> f32 {
    pmax(x, 0.0)
}

// ---------------------------------------------------------------------
// Lanes: eight f32 lanes, three implementations
// ---------------------------------------------------------------------

/// Eight f32 lanes with the operation set the distance kernels need.
/// All operations are lane-wise; [`Lanes::hsum`] is the only cross-lane
/// operation and follows the documented pairwise tree.
///
/// [`F32x8Avx2`]'s operations execute AVX2 instructions: instantiate a
/// kernel with it only inside a `#[target_feature(enable = "avx2")]`
/// function entered after detection ([`dispatch`] does exactly that).
pub trait Lanes: Copy {
    /// All lanes zero.
    fn zero() -> Self;
    /// All lanes `x`.
    fn splat(x: f32) -> Self;
    /// Loads lanes from `s[0..8]`. Panics if `s` is shorter than 8.
    fn load(s: &[f32]) -> Self;
    /// Loads `s[0..8]` signed bytes as exactly-converted f32 lanes (every
    /// `i8` is representable in f32, so there is no rounding). Panics if
    /// `s` is shorter than 8.
    fn load_i8(s: &[i8]) -> Self;
    /// Lane-wise `a + b`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `a - b`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `a * b`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise [`pmax`] (`maxps`).
    fn max(self, o: Self) -> Self;
    /// Lane-wise [`pmin`] (`minps`).
    fn min(self, o: Self) -> Self;
    /// Lane-wise absolute value (sign bit cleared).
    fn abs(self) -> Self;
    /// Horizontal sum under the documented pairwise tree:
    /// `[a0+a4, a1+a5, a2+a6, a3+a7]` → `[b0+b2, b1+b3]` → `c0 + c1`.
    fn hsum(self) -> f32;
    /// The lanes as an array (tests / diagnostics).
    fn to_array(self) -> [f32; 8];

    /// Lane-wise `relu` ([`relu0`]): `max(x, +0.0)` with `maxps`
    /// semantics, so `-0.0` lanes become `+0.0`.
    #[inline(always)]
    fn relu(self) -> Self {
        self.max(Self::zero())
    }
}

/// The lane type every plain-named kernel runs on: the SSE2 pair on
/// x86_64, the portable emulation under `scalar-fallback` or elsewhere.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
pub type F32x8 = F32x8Sse2;

/// The lane type every plain-named kernel runs on: the SSE2 pair on
/// x86_64, the portable emulation under `scalar-fallback` or elsewhere.
#[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
pub type F32x8 = F32x8Scalar;

/// Eight lanes as two SSE2 `__m128` halves (lanes 0–3, 4–7).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct F32x8Sse2(__m128, __m128);

// SAFETY (every `unsafe` block below): SSE2 is part of the x86_64
// baseline, and the loads are bounds-checked by their asserts.
#[cfg(target_arch = "x86_64")]
impl Lanes for F32x8Sse2 {
    #[inline(always)]
    fn zero() -> Self {
        unsafe { Self(_mm_setzero_ps(), _mm_setzero_ps()) }
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        unsafe { Self(_mm_set1_ps(x), _mm_set1_ps(x)) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        assert!(s.len() >= 8, "F32x8::load needs 8 elements");
        unsafe { Self(_mm_loadu_ps(s.as_ptr()), _mm_loadu_ps(s.as_ptr().add(4))) }
    }

    #[inline(always)]
    fn load_i8(s: &[i8]) -> Self {
        assert!(s.len() >= 8, "F32x8::load_i8 needs 8 elements");
        // loadl_epi64 reads exactly 8 bytes.
        unsafe {
            let raw = _mm_loadl_epi64(s.as_ptr() as *const __m128i);
            // Sign-extend i8 → i16 → i32 by duplicating and arithmetic-
            // shifting the high copy back down.
            let w = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(raw, raw));
            let lo = _mm_srai_epi32::<16>(_mm_unpacklo_epi16(w, w));
            let hi = _mm_srai_epi32::<16>(_mm_unpackhi_epi16(w, w));
            Self(_mm_cvtepi32_ps(lo), _mm_cvtepi32_ps(hi))
        }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        unsafe { Self(_mm_add_ps(self.0, o.0), _mm_add_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        unsafe { Self(_mm_sub_ps(self.0, o.0), _mm_sub_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        unsafe { Self(_mm_mul_ps(self.0, o.0), _mm_mul_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        unsafe { Self(_mm_max_ps(self.0, o.0), _mm_max_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        unsafe { Self(_mm_min_ps(self.0, o.0), _mm_min_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn abs(self) -> Self {
        unsafe {
            let m = _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff));
            Self(_mm_and_ps(self.0, m), _mm_and_ps(self.1, m))
        }
    }

    #[inline(always)]
    fn hsum(self) -> f32 {
        unsafe { hsum_sse(_mm_add_ps(self.0, self.1)) }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        unsafe {
            _mm_storeu_ps(out.as_mut_ptr(), self.0);
            _mm_storeu_ps(out.as_mut_ptr().add(4), self.1);
        }
        out
    }
}

/// The last two levels of the pairwise tree on `b = [b0, b1, b2, b3]`:
/// `c = [b0+b2, b1+b3]`, then `c0 + c1`. Shared by both x86 lane types.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hsum_sse(b: __m128) -> f32 {
    // movhlps pairs lanes (0,2) and (1,3).
    let hi = _mm_movehl_ps(b, b);
    let c = _mm_add_ps(b, hi);
    let c1 = _mm_shuffle_ps::<0b01>(c, c);
    _mm_cvtss_f32(_mm_add_ss(c, c1))
}

/// Eight lanes in one AVX2 `__m256`. Only execute its operations on a
/// CPU with AVX2, inside a `#[target_feature(enable = "avx2")]` function
/// ([`dispatch`]); elsewhere the intrinsics would not inline, and on a
/// CPU without AVX2 they fault.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct F32x8Avx2(__m256);

// SAFETY (every `unsafe` block below): the type is only used under
// `avx2` detection (see its docs); the loads are bounds-checked by their
// asserts.
#[cfg(target_arch = "x86_64")]
impl Lanes for F32x8Avx2 {
    #[inline(always)]
    fn zero() -> Self {
        unsafe { Self(_mm256_setzero_ps()) }
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        unsafe { Self(_mm256_set1_ps(x)) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        assert!(s.len() >= 8, "F32x8::load needs 8 elements");
        unsafe { Self(_mm256_loadu_ps(s.as_ptr())) }
    }

    #[inline(always)]
    fn load_i8(s: &[i8]) -> Self {
        assert!(s.len() >= 8, "F32x8::load_i8 needs 8 elements");
        // loadl_epi64 reads exactly 8 bytes; vpmovsxbd sign-extends them.
        unsafe {
            let raw = _mm_loadl_epi64(s.as_ptr() as *const __m128i);
            Self(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw)))
        }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        unsafe { Self(_mm256_add_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        unsafe { Self(_mm256_sub_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        unsafe { Self(_mm256_mul_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        unsafe { Self(_mm256_max_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        unsafe { Self(_mm256_min_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn abs(self) -> Self {
        unsafe {
            let m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
            Self(_mm256_and_ps(self.0, m))
        }
    }

    #[inline(always)]
    fn hsum(self) -> f32 {
        // Halves first — `[a0+a4, a1+a5, a2+a6, a3+a7]`, the SSE2 pair's
        // first add — then the same tree.
        unsafe {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps::<1>(self.0);
            hsum_sse(_mm_add_ps(lo, hi))
        }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }
}

/// Eight lanes as a plain array: the portable emulation of the same
/// lane semantics, available on every target.
#[derive(Clone, Copy)]
pub struct F32x8Scalar([f32; 8]);

impl F32x8Scalar {
    #[inline(always)]
    fn map2(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = [0.0f32; 8];
        for j in 0..8 {
            out[j] = f(self.0[j], o.0[j]);
        }
        Self(out)
    }
}

impl Lanes for F32x8Scalar {
    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; 8])
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        Self([x; 8])
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        assert!(s.len() >= 8, "F32x8::load needs 8 elements");
        let mut out = [0.0f32; 8];
        out.copy_from_slice(&s[..8]);
        Self(out)
    }

    #[inline(always)]
    fn load_i8(s: &[i8]) -> Self {
        assert!(s.len() >= 8, "F32x8::load_i8 needs 8 elements");
        let mut out = [0.0f32; 8];
        for j in 0..8 {
            out[j] = s[j] as f32;
        }
        Self(out)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.map2(o, |a, b| a + b)
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.map2(o, |a, b| a - b)
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.map2(o, |a, b| a * b)
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.map2(o, pmax)
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.map2(o, pmin)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        let mut out = self.0;
        for o in &mut out {
            *o = f32::from_bits(o.to_bits() & 0x7fff_ffff);
        }
        Self(out)
    }

    #[inline(always)]
    fn hsum(self) -> f32 {
        let a = self.0;
        let b = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let c = [b[0] + b[2], b[1] + b[3]];
        c[0] + c[1]
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        self.0
    }
}

// ---------------------------------------------------------------------
// Backend selection: once per request
// ---------------------------------------------------------------------

/// A hot path generic over the lane type, run once by [`dispatch`].
/// Implementations mark [`run`](WithLanes::run) `#[inline(always)]` so
/// the AVX2 twin compiles their whole body — kernels included — with
/// AVX2 enabled.
pub trait WithLanes {
    /// What the path returns.
    type Output;
    /// Runs the path on lane type `L`.
    fn run<L: Lanes>(self) -> Self::Output;
}

/// Whether the AVX2 twin runs: the CPU has AVX2 and the build is not
/// `scalar-fallback`. `is_x86_feature_detected!` caches its answer, so
/// this is one relaxed atomic load.
#[inline]
fn avx2() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
    {
        false
    }
}

/// The lane backend [`dispatch`] runs on this host: `"avx2"`, `"sse2"`
/// or `"scalar"`. Bench reports and `/metrics` carry it, so numbers from
/// hosts with different backends are never compared blindly.
pub fn backend() -> &'static str {
    if avx2() {
        "avx2"
    } else if cfg!(all(
        target_arch = "x86_64",
        not(feature = "scalar-fallback")
    )) {
        "sse2"
    } else {
        "scalar"
    }
}

/// Runs `w` on the best lane type this CPU supports: inside the AVX2
/// twin when the CPU has AVX2 (and the build is not `scalar-fallback`),
/// else on [`F32x8`]. Call it once per request
/// around the whole hot path, never per item.
#[inline]
pub fn dispatch<W: WithLanes>(w: W) -> W::Output {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above).
        return unsafe { run_avx2(w) };
    }
    w.run::<F32x8>()
}

/// The AVX2 twin: `w`'s body inlined under `target_feature(avx2)`.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
#[target_feature(enable = "avx2")]
fn run_avx2<W: WithLanes>(w: W) -> W::Output {
    w.run::<F32x8Avx2>()
}

/// Loads up to 8 elements of `s` into lanes `0..s.len()`, zero-filling
/// the rest — the remainder-chunk load of the lane-striping contract.
#[inline(always)]
fn load_tail<L: Lanes>(s: &[f32]) -> L {
    debug_assert!(s.len() < 8);
    let mut buf = [0.0f32; 8];
    buf[..s.len()].copy_from_slice(s);
    L::load(&buf)
}

/// Splits a row into full 8-lane chunks plus the remainder slice.
#[inline(always)]
fn chunks(d: usize) -> (usize, usize) {
    (d / 8, d % 8)
}

// ---------------------------------------------------------------------
// Row kernels (shared by tape ops, geometry, and the item scorer)
// ---------------------------------------------------------------------

/// Lane-striped L1 distance `Σ |a - b|` over equal-length rows — the
/// kernel behind `Tape::l1_rows` and `geometry::d_pp`.
#[inline]
pub fn l1_row(a: &[f32], b: &[f32]) -> f32 {
    l1_row_with::<F32x8>(a, b)
}

/// [`l1_row`] on lane type `L`.
#[inline(always)]
pub fn l1_row_with<L: Lanes>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (full, rem) = chunks(a.len());
    let mut acc = L::zero();
    for c in 0..full {
        let va = L::load(&a[c * 8..]);
        let vb = L::load(&b[c * 8..]);
        acc = acc.add(va.sub(vb).abs());
    }
    if rem > 0 {
        let va = load_tail::<L>(&a[full * 8..]);
        let vb = load_tail::<L>(&b[full * 8..]);
        acc = acc.add(va.sub(vb).abs());
    }
    acc.hsum()
}

/// Lane-striped `(D_out, D_in)` of one point against per-dimension box
/// bounds `lo`/`hi` and center `cen` — the inference contract shared by
/// `geometry::d_pb`/`d_pb_weighted` and `ItemScorer`. Separate
/// outside/inside accumulator groups; per dimension:
/// `out += relu(p - hi) + relu(lo - p)`,
/// `in += |cen - clamp(p, lo, hi)|` with `clamp = pmin(pmax(p, lo), hi)`.
#[inline]
pub fn d_pb_bounds_parts(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
    d_pb_bounds_parts_with::<F32x8>(p, cen, lo, hi)
}

/// [`d_pb_bounds_parts`] on lane type `L`.
#[inline(always)]
pub fn d_pb_bounds_parts_with<L: Lanes>(
    p: &[f32],
    cen: &[f32],
    lo: &[f32],
    hi: &[f32],
) -> (f32, f32) {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    let (full, rem) = chunks(p.len());
    let mut out = L::zero();
    let mut inside = L::zero();
    #[inline(always)]
    fn step<L: Lanes>(vp: L, vc: L, vl: L, vh: L, out: &mut L, inside: &mut L) {
        *out = out.add(vp.sub(vh).relu().add(vl.sub(vp).relu()));
        let clamped = vp.max(vl).min(vh);
        *inside = inside.add(vc.sub(clamped).abs());
    }
    for c in 0..full {
        step(
            L::load(&p[c * 8..]),
            L::load(&cen[c * 8..]),
            L::load(&lo[c * 8..]),
            L::load(&hi[c * 8..]),
            &mut out,
            &mut inside,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail::<L>(&p[at..]),
            load_tail::<L>(&cen[at..]),
            load_tail::<L>(&lo[at..]),
            load_tail::<L>(&hi[at..]),
            &mut out,
            &mut inside,
        );
    }
    (out.hsum(), inside.hsum())
}

/// [`d_pb_bounds_parts`] with the bounds derived on the fly from a
/// `(cen, raw off)` box: per lane `half = relu(off)`, `lo = cen - half`,
/// `hi = cen + half` — the exact values `prepare_box_bounds` materialises,
/// so both forms produce bit-identical totals.
#[inline]
pub fn d_pb_box_parts(p: &[f32], cen: &[f32], off: &[f32]) -> (f32, f32) {
    d_pb_box_parts_with::<F32x8>(p, cen, off)
}

/// [`d_pb_box_parts`] on lane type `L`.
#[inline(always)]
pub fn d_pb_box_parts_with<L: Lanes>(p: &[f32], cen: &[f32], off: &[f32]) -> (f32, f32) {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), off.len());
    let (full, rem) = chunks(p.len());
    let mut out = L::zero();
    let mut inside = L::zero();
    #[inline(always)]
    fn step<L: Lanes>(vp: L, vc: L, vo: L, out: &mut L, inside: &mut L) {
        let half = vo.relu();
        let vl = vc.sub(half);
        let vh = vc.add(half);
        *out = out.add(vp.sub(vh).relu().add(vl.sub(vp).relu()));
        let clamped = vp.max(vl).min(vh);
        *inside = inside.add(vc.sub(clamped).abs());
    }
    for c in 0..full {
        step(
            L::load(&p[c * 8..]),
            L::load(&cen[c * 8..]),
            L::load(&off[c * 8..]),
            &mut out,
            &mut inside,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail::<L>(&p[at..]),
            load_tail::<L>(&cen[at..]),
            load_tail::<L>(&off[at..]),
            &mut out,
            &mut inside,
        );
    }
    (out.hsum(), inside.hsum())
}

/// Lane-striped fused point-to-box distance of the **training** op
/// `Tape::d_pb_rows`: a single interleaved accumulator folding
/// `(over + under) + inside_weight · inside` per dimension (deliberately
/// a different fold from the inference kernels' separate out/in groups,
/// matching the fused op's documented contract).
#[inline]
pub fn d_pb_row_interleaved(p: &[f32], cen: &[f32], off: &[f32], inside_weight: f32) -> f32 {
    d_pb_row_interleaved_with::<F32x8>(p, cen, off, inside_weight)
}

/// [`d_pb_row_interleaved`] on lane type `L`.
#[inline(always)]
pub fn d_pb_row_interleaved_with<L: Lanes>(
    p: &[f32],
    cen: &[f32],
    off: &[f32],
    inside_weight: f32,
) -> f32 {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), off.len());
    let (full, rem) = chunks(p.len());
    let w = L::splat(inside_weight);
    let mut acc = L::zero();
    #[inline(always)]
    fn step<L: Lanes>(vp: L, vc: L, vo: L, w: L, acc: &mut L) {
        let half = vo.relu();
        let vl = vc.sub(half);
        let vh = vc.add(half);
        let over = vp.sub(vh).relu();
        let under = vl.sub(vp).relu();
        let clamped = vp.max(vl).min(vh);
        let inside = vc.sub(clamped).abs();
        *acc = acc.add(over.add(under).add(w.mul(inside)));
    }
    for c in 0..full {
        step(
            L::load(&p[c * 8..]),
            L::load(&cen[c * 8..]),
            L::load(&off[c * 8..]),
            w,
            &mut acc,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail::<L>(&p[at..]),
            load_tail::<L>(&cen[at..]),
            load_tail::<L>(&off[at..]),
            w,
            &mut acc,
        );
    }
    acc.hsum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent scalar replica of the lane-striping contract: eight
    /// explicit accumulators and the pairwise tree, no F32x8.
    fn striped_sum(terms: impl Iterator<Item = (usize, f32)>) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (k, t) in terms {
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

    fn vals(seed: u64, n: usize) -> Vec<f32> {
        // Deterministic mixed-magnitude values without pulling in rand.
        (0..n)
            .map(|i| {
                let mixed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                let x = ((mixed >> 33) as f32) / (u32::MAX >> 1) as f32;
                (x - 0.5) * 4.0
            })
            .collect()
    }

    #[test]
    fn lane_ops_match_scalar_semantics() {
        let a = [
            1.0f32,
            -0.0,
            0.0,
            -3.5,
            f32::MIN_POSITIVE,
            -1e-40,
            7.25,
            -2.0,
        ];
        let b = [0.5f32, 0.0, -0.0, -3.5, 0.0, 1e-40, -7.25, 8.0];
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        let max = va.max(vb).to_array();
        let min = va.min(vb).to_array();
        let abs = va.abs().to_array();
        let relu = va.relu().to_array();
        for j in 0..8 {
            assert_eq!(max[j].to_bits(), pmax(a[j], b[j]).to_bits(), "max lane {j}");
            assert_eq!(min[j].to_bits(), pmin(a[j], b[j]).to_bits(), "min lane {j}");
            assert_eq!(
                abs[j].to_bits(),
                f32::from_bits(a[j].to_bits() & 0x7fff_ffff).to_bits(),
                "abs lane {j}"
            );
            assert_eq!(relu[j].to_bits(), relu0(a[j]).to_bits(), "relu lane {j}");
        }
    }

    #[test]
    fn backend_reports_what_dispatch_runs() {
        struct Which;
        impl WithLanes for Which {
            type Output = usize;
            #[inline(always)]
            fn run<L: Lanes>(self) -> usize {
                std::mem::size_of::<L>()
            }
        }
        // Every lane type is 32 bytes, so the name is checked against the
        // build and the CPU rather than against the type.
        assert_eq!(dispatch(Which), 32);
        #[cfg(any(feature = "scalar-fallback", not(target_arch = "x86_64")))]
        assert_eq!(backend(), "scalar");
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
        assert_eq!(
            backend(),
            if std::arch::is_x86_feature_detected!("avx2") {
                "avx2"
            } else {
                "sse2"
            }
        );
    }

    #[test]
    fn hsum_follows_the_documented_tree() {
        let a = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let v = F32x8::load(&a);
        let b = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let c = [b[0] + b[2], b[1] + b[3]];
        assert_eq!(v.hsum().to_bits(), (c[0] + c[1]).to_bits());
    }

    #[test]
    fn l1_row_is_lane_striped_across_remainders() {
        for d in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 32, 40] {
            let a = vals(d as u64, d);
            let b = vals(d as u64 + 99, d);
            let got = l1_row(&a, &b);
            let want = striped_sum((0..d).map(|k| (k, (a[k] - b[k]).abs())));
            assert_eq!(got.to_bits(), want.to_bits(), "dim {d}");
        }
    }

    #[test]
    fn bounds_and_box_forms_agree_bitwise() {
        for d in [4usize, 8, 13, 32] {
            let p = vals(d as u64, d);
            let cen = vals(d as u64 + 7, d);
            let off = vals(d as u64 + 13, d);
            let lo: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c - relu0(o)).collect();
            let hi: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c + relu0(o)).collect();
            let a = d_pb_box_parts(&p, &cen, &off);
            let b = d_pb_bounds_parts(&p, &cen, &lo, &hi);
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "dim {d} d_out");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "dim {d} d_in");
        }
    }

    #[test]
    fn zero_padding_is_a_bit_exact_identity() {
        // A dim-5 row must equal the same row zero-padded to dim 8: the
        // remainder-lane contract in its purest form.
        let p = [0.7f32, -1.2, 0.0, -0.0, 2.5];
        let cen = [0.1f32, 0.2, -0.0, 0.0, -0.3];
        let off = [0.4f32, -0.1, 0.0, 0.2, 0.6];
        let pad = |s: &[f32]| {
            let mut v = s.to_vec();
            v.resize(8, 0.0);
            v
        };
        let a = d_pb_box_parts(&p, &cen, &off);
        let b = d_pb_box_parts(&pad(&p), &pad(&cen), &pad(&off));
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        let ai = d_pb_row_interleaved(&p, &cen, &off, 0.5);
        let bi = d_pb_row_interleaved(&pad(&p), &pad(&cen), &pad(&off), 0.5);
        assert_eq!(ai.to_bits(), bi.to_bits());
    }
}
