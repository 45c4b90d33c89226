//! SIMD scoring kernels and the int8-quantized item matrix for inference.
//!
//! The f32 lane abstraction and the shared row kernels live in
//! [`inbox_autodiff::simd`] (the tape's fused ops use them too); this
//! module re-exports them and adds the inference-only machinery:
//! [`QuantizedItems`], a per-dimension scale/zero-point int8 snapshot of
//! the item-point matrix, and [`quantized_d_pb_parts`], an L1 point-to-box
//! kernel that scores int8 rows **without dequantizing** by moving the
//! user box into the quantized domain once per query.
//!
//! # Int8 scheme (per dimension, asymmetric)
//!
//! Over the item values `x` of dimension `k` with `m = min`, `M = max`
//! (computed in f64):
//!
//! * scale `s = (M - m) / 255`, zero-point `z = -m/s - 128`,
//! * code `q = round((x - m)/s) - 128 ∈ [-128, 127]`,
//! * dequantized value `x̂ = s · (q - z)`, with `|x̂ - x| ≤ s/2`.
//!
//! Degenerate dimensions (all items equal, or range below `1e-12`) store
//! `s = 1, z = -m, q = 0`, making `x̂ = m` exact (up to the value's own
//! f32 representation) and keeping every later division by `s` benign.
//!
//! # Dequantize-free scoring
//!
//! `D_PB` is translation- and scale-equivariant per dimension, so instead
//! of mapping each item code back to f32 we map the **box** into code
//! space once per query: `lo_q = lo/s + z`, `hi_q = hi/s + z`,
//! `cen_q = cen/s + z`. Then with `t = f32(q)` (exact — every `i8` is
//! representable):
//!
//! ```text
//! d_out += s · (relu(t - hi_q) + relu(lo_q - t))
//! d_in  += s · |cen_q - clamp(t, lo_q, hi_q)|
//! ```
//!
//! which in exact arithmetic equals scoring the dequantized point `x̂`.
//! The int8 matrix is padded to a stride that is a multiple of 8 with
//! `q = 0, s = 0` and zero transformed bounds, so pad lanes contribute
//! exactly `+0.0` and the kernel needs no tail handling.
//!
//! # Error bound
//!
//! `D_PB` with inside weight `w` is `(1 + w)`-Lipschitz in the point
//! under the per-dimension L1 metric, so
//! `|score_int8 - score_f32| ≤ (1 + w) · Σ_k s_k/2` plus f32 rounding.
//! [`QuantizedItems::bound_slack`] stores that bound (accumulated in f64,
//! with a small multiplicative + per-dimension epsilon allowance for the
//! kernel's own rounding); the IVF index widens its pruning margin by it
//! so quantized candidate generation never prunes an item the quantized
//! re-rank could have ranked into the top k.

pub use inbox_autodiff::simd::{
    backend, d_pb_bounds_parts, d_pb_bounds_parts_with, d_pb_box_parts, d_pb_box_parts_with,
    d_pb_row_interleaved, d_pb_row_interleaved_with, dispatch, l1_row, l1_row_with, pmax, pmin,
    relu0, F32x8, F32x8Scalar, Lanes, WithLanes,
};
#[cfg(target_arch = "x86_64")]
pub use inbox_autodiff::simd::{F32x8Avx2, F32x8Sse2};

/// Inference quantization mode for the item-point matrix, selected via
/// `ServeConfig::quantize` / `inbox serve --quantize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Full f32 scoring (the default; bit-identical to training geometry).
    #[default]
    None,
    /// Per-dimension asymmetric int8 item points with dequantize-free
    /// scoring, covered by the agreement@k testkit contract.
    Int8,
}

impl Quantization {
    /// Parses the CLI spelling: `none` | `int8`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Self::None),
            "int8" => Ok(Self::Int8),
            other => Err(format!("unknown quantization '{other}' (none|int8)")),
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Int8 => "int8",
        }
    }
}

/// Range below which a dimension is quantized as a constant instead of a
/// 255-step grid: avoids subnormal scales and the overflowing divisions
/// they would cause when the box bounds are transformed.
const DEGENERATE_RANGE: f64 = 1e-12;

/// Per-dimension scale/zero-point int8 snapshot of an item-point matrix,
/// padded to an 8-lane stride. See the module docs for the scheme and the
/// error-bound derivation.
pub struct QuantizedItems {
    n_items: usize,
    dim: usize,
    stride: usize,
    /// Row-major `n_items × stride` codes; pad columns are 0.
    data: Vec<i8>,
    /// Per-dimension scale `s` (`stride` long; pad columns are 0.0, which
    /// zeroes every pad-lane term in the kernel).
    scale: Vec<f32>,
    /// Per-dimension zero-point `z` (`stride` long; pads 0.0).
    zero: Vec<f32>,
    bound_slack: f32,
}

impl QuantizedItems {
    /// Quantizes a row-major `n_items × dim` f32 matrix. `inside_weight`
    /// enters only the stored [`bound_slack`](Self::bound_slack).
    pub fn from_items(items: &[f32], n_items: usize, dim: usize, inside_weight: f32) -> Self {
        assert_eq!(items.len(), n_items * dim, "item matrix shape mismatch");
        let stride = dim.next_multiple_of(8);
        let mut scale = vec![0.0f32; stride];
        let mut zero = vec![0.0f32; stride];
        let mut data = vec![0i8; n_items * stride];
        let mut point_err = 0.0f64; // Σ_k per-dim worst-case |x̂ - x|
        let mut round_allow = 0.0f64; // f32-rounding allowance per dim
        for k in 0..dim {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 0..n_items {
                let v = items[i * dim + k] as f64;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if n_items == 0 {
                lo = 0.0;
                hi = 0.0;
            }
            let range = hi - lo;
            round_allow += (lo.abs().max(hi.abs()) + 1.0) * f32::EPSILON as f64;
            if !range.is_finite() || range <= DEGENERATE_RANGE {
                // Constant dimension: x̂ = m exactly, codes stay 0.
                scale[k] = 1.0;
                zero[k] = (-lo) as f32;
                point_err += range.max(0.0);
                continue;
            }
            let s = range / 255.0;
            scale[k] = s as f32;
            zero[k] = (-(lo / s) - 128.0) as f32;
            for i in 0..n_items {
                let v = items[i * dim + k] as f64;
                let q = ((v - lo) / s).round() - 128.0;
                data[i * stride + k] = q.clamp(-128.0, 127.0) as i8;
            }
            point_err += s / 2.0;
        }
        let bound = (1.0 + inside_weight.max(0.0) as f64) * (point_err + round_allow);
        let bound_slack = (bound * 1.001 + 1e-6) as f32;
        Self {
            n_items,
            dim,
            stride,
            data,
            scale,
            zero,
            bound_slack,
        }
    }

    /// Number of quantized item rows.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Logical (unpadded) embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Padded row stride (a multiple of 8).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Conservative bound on `|score_int8 - score_f32|` for any box —
    /// `(1 + w) · Σ_k s_k/2` plus rounding allowances. The IVF pruning
    /// margin is widened by this value under quantized re-ranking.
    pub fn bound_slack(&self) -> f32 {
        self.bound_slack
    }

    /// Per-dimension scales, padded to [`stride`](Self::stride).
    pub fn scales(&self) -> &[f32] {
        &self.scale
    }

    /// One item's padded code row.
    pub fn row(&self, item: u32) -> &[i8] {
        let i = item as usize;
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Dequantizes one logical dimension of one item: `x̂ = s · (q - z)`.
    pub fn dequant(&self, item: u32, k: usize) -> f32 {
        debug_assert!(k < self.dim);
        let q = self.data[item as usize * self.stride + k] as f32;
        self.scale[k] * (q - self.zero[k])
    }

    /// Transforms a prepared f32 box (`lo`/`hi` bounds and center, `dim`
    /// long) into the quantized domain, writing `stride`-long padded
    /// vectors (`x/s + z` per logical dim, `0.0` pads) into the caller's
    /// buffers — once per query, so per-item scoring never divides.
    pub fn transform_bounds(
        &self,
        lo: &[f32],
        hi: &[f32],
        cen: &[f32],
        qlo: &mut Vec<f32>,
        qhi: &mut Vec<f32>,
        qcen: &mut Vec<f32>,
    ) {
        debug_assert_eq!(lo.len(), self.dim);
        debug_assert_eq!(hi.len(), self.dim);
        debug_assert_eq!(cen.len(), self.dim);
        for buf in [&mut *qlo, &mut *qhi, &mut *qcen] {
            buf.clear();
            buf.resize(self.stride, 0.0);
        }
        for k in 0..self.dim {
            let s = self.scale[k];
            let z = self.zero[k];
            qlo[k] = lo[k] / s + z;
            qhi[k] = hi[k] / s + z;
            qcen[k] = cen[k] / s + z;
        }
    }
}

/// The dequantize-free point-to-box kernel: `(D_out, D_in)` of one int8
/// item row against a box already transformed into the quantized domain
/// by [`QuantizedItems::transform_bounds`]. All slices are padded to the
/// same 8-lane stride; lane striping and the horizontal-sum tree follow
/// the workspace reduction-order contract ([`inbox_autodiff::simd`]).
#[inline]
pub fn quantized_d_pb_parts(
    q: &[i8],
    scale: &[f32],
    qlo: &[f32],
    qhi: &[f32],
    qcen: &[f32],
) -> (f32, f32) {
    quantized_d_pb_parts_with::<F32x8>(q, scale, qlo, qhi, qcen)
}

/// [`quantized_d_pb_parts`] on lane type `L`.
#[inline(always)]
pub fn quantized_d_pb_parts_with<L: Lanes>(
    q: &[i8],
    scale: &[f32],
    qlo: &[f32],
    qhi: &[f32],
    qcen: &[f32],
) -> (f32, f32) {
    debug_assert_eq!(q.len() % 8, 0, "quantized rows are 8-lane padded");
    debug_assert_eq!(q.len(), scale.len());
    debug_assert_eq!(q.len(), qlo.len());
    debug_assert_eq!(q.len(), qhi.len());
    debug_assert_eq!(q.len(), qcen.len());
    let mut out = L::zero();
    let mut inside = L::zero();
    for c in 0..q.len() / 8 {
        let at = c * 8;
        let t = L::load_i8(&q[at..]);
        let s = L::load(&scale[at..]);
        let vl = L::load(&qlo[at..]);
        let vh = L::load(&qhi[at..]);
        let vc = L::load(&qcen[at..]);
        out = out.add(s.mul(t.sub(vh).relu().add(vl.sub(t).relu())));
        let clamped = t.max(vl).min(vh);
        inside = inside.add(s.mul(vc.sub(clamped).abs()));
    }
    (out.hsum(), inside.hsum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(seed: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let mixed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                let x = ((mixed >> 33) as f32) / (u32::MAX >> 1) as f32;
                (x - 0.5) * 2.0
            })
            .collect()
    }

    #[test]
    fn quantization_parse_round_trips() {
        for q in [Quantization::None, Quantization::Int8] {
            assert_eq!(Quantization::parse(q.as_str()), Ok(q));
        }
        assert!(Quantization::parse("fp4").is_err());
    }

    #[test]
    fn round_trip_error_is_within_half_a_scale_step() {
        let (n, d) = (64usize, 13usize);
        let items = vals(3, n * d);
        let q = QuantizedItems::from_items(&items, n, d, 0.5);
        assert_eq!(q.stride(), 16);
        for i in 0..n as u32 {
            for k in 0..d {
                let x = items[i as usize * d + k];
                let err = (q.dequant(i, k) - x).abs();
                // s/2 plus a whisker of f32 rounding.
                let bound = q.scales()[k] * 0.5 + q.scales()[k] * 1e-4 + 1e-7;
                assert!(err <= bound, "item {i} dim {k}: err {err} > {bound}");
            }
        }
    }

    #[test]
    fn degenerate_dimensions_are_exact() {
        // Dim 0 constant, dim 1 varying.
        let items = vec![0.75f32, -1.0, 0.75, 0.5, 0.75, 2.0];
        let q = QuantizedItems::from_items(&items, 3, 2, 0.5);
        for i in 0..3u32 {
            assert_eq!(q.dequant(i, 0).to_bits(), 0.75f32.to_bits(), "item {i}");
        }
    }

    #[test]
    fn kernel_matches_dequantized_f32_scoring() {
        let (n, d) = (40usize, 11usize);
        let items = vals(7, n * d);
        let w = 0.4f32;
        let q = QuantizedItems::from_items(&items, n, d, w);
        let cen = vals(11, d);
        let off = vals(13, d);
        let lo: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c - relu0(o)).collect();
        let hi: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c + relu0(o)).collect();
        let (mut qlo, mut qhi, mut qcen) = (Vec::new(), Vec::new(), Vec::new());
        q.transform_bounds(&lo, &hi, &cen, &mut qlo, &mut qhi, &mut qcen);
        for i in 0..n as u32 {
            let (out, inside) = quantized_d_pb_parts(q.row(i), q.scales(), &qlo, &qhi, &qcen);
            let deq: Vec<f32> = (0..d).map(|k| q.dequant(i, k)).collect();
            let (ro, ri) = d_pb_bounds_parts(&deq, &cen, &lo, &hi);
            let got = out + w * inside;
            let want = ro + w * ri;
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "item {i}: {got} vs {want}"
            );
            // And both stay within the advertised distance of the f32 score.
            let row = &items[i as usize * d..(i as usize + 1) * d];
            let (fo, fi) = d_pb_bounds_parts(row, &cen, &lo, &hi);
            let f32_score = fo + w * fi;
            assert!(
                (got - f32_score).abs() <= q.bound_slack(),
                "item {i}: quantized {got} vs f32 {f32_score} exceeds slack {}",
                q.bound_slack()
            );
        }
    }
}
