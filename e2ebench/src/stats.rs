//! Pure statistics helpers: quantiles with an honest tail, self-time
//! subtraction, and the lateness-growth test. No I/O, no clocks — every
//! function here is unit-tested against hand-computed values.

use std::collections::HashMap;

/// Value at quantile `q` (0..=1) of an ascending slice, by linear
/// interpolation between closest ranks (the "type 7" estimator). `NaN`
/// for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The least disturbed indices of `disturbance`: every `i` whose
/// `disturbance[i]` is at most `limit` when there are at least `min` of
/// them, otherwise the `min` with the smallest disturbance.
pub fn least_disturbed(disturbance: &[f64], limit: f64, min: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..disturbance.len()).collect();
    order.sort_by(|&a, &b| disturbance[a].total_cmp(&disturbance[b]));
    let clean = order.iter().filter(|&&i| disturbance[i] <= limit).count();
    order.truncate(clean.max(min));
    order
}

/// Median of `values[i]` over the [`least_disturbed`] `i`.
pub fn median_least_disturbed(values: &[f64], disturbance: &[f64], limit: f64, min: usize) -> f64 {
    let keep: Vec<f64> = least_disturbed(disturbance, limit, min)
        .into_iter()
        .map(|i| values[i])
        .collect();
    median(&keep)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile in [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it in a sample of `n`, or `None` when even the median
/// has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A latency (or any timing) sample summarised as a median plus the
/// highest percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (e.g. 99.0), or `None` for tiny samples.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct` (`NaN` when `tail_pct` is `None`).
    pub tail: f64,
    /// 99th percentile, whether or not the sample supports it (diagnostic).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        Self {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            tail_pct,
            tail: tail_pct.map_or(f64::NAN, |p| quantile_sorted(&v, p / 100.0)),
            p99: quantile_sorted(&v, 0.99),
            mean: if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            },
        }
    }

    /// One-line human rendering, e.g. `p50 0.912 / p99 3.1 (n=12000)`.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "p50 {:.4}{unit} / p{p} {:.4}{unit} (n={})",
                self.p50, self.tail, self.n
            ),
            None => format!(
                "p50 {:.4}{unit} (n={}, no supported tail)",
                self.p50, self.n
            ),
        }
    }
}

/// Self time of the layer between two nested entry points that were timed
/// over the same request stream: the median, over the request ids both
/// levels answered, of `outer - inner`. Pairing by id makes each difference
/// compare the same work (a rebuild with a rebuild, a cache hit with a cache
/// hit). Not clamped: a negative value says the layer is within noise.
pub fn paired_self_time(outer: &HashMap<u64, f64>, inner: &HashMap<u64, f64>) -> f64 {
    let d: Vec<f64> = outer
        .iter()
        .filter_map(|(id, o)| inner.get(id).map(|i| o - i))
        .collect();
    median(&d)
}

/// Self time of one span: its duration minus the part of `[start, end)`
/// covered by the union of its children's intervals (children may overlap
/// each other and may stick out of the parent; only the covered part of
/// the parent counts).
pub fn span_self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Whether generator lateness grew over a phase: the mean lateness of the
/// last quarter of sends exceeds that of the first quarter by more than
/// `slack_ms`. `lags_ms` is in send order.
pub fn lateness_grows(lags_ms: &[f64], slack_ms: f64) -> bool {
    let q = lags_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&lags_ms[lags_ms.len() - q..]) - mean(&lags_ms[..q]) > slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_least_disturbed_drops_disturbed_rounds() {
        let v = [1.0, 9.0, 2.0, 8.0, 3.0];
        let d = [0.0, 0.1, 0.01, 0.2, 0.02];
        assert_eq!(median_least_disturbed(&v, &d, 0.03, 3), 2.0);
        // Too few clean rounds: the 4 least disturbed count.
        assert_eq!(median_least_disturbed(&v, &d, 0.03, 4), 2.5);
        // All disturbed: still the least disturbed 3.
        let loud = [0.09, 0.2, 0.05, 0.3, 0.07];
        assert_eq!(median_least_disturbed(&v, &loud, 0.03, 3), 2.0);
        assert_eq!(least_disturbed(&loud, 0.03, 3), vec![2, 4, 0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 10 samples beyond p99 needs n >= 1000; beyond p99.9 needs 10_000.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_pct, Some(99.0));
        assert!((s.tail - 990.01).abs() < 1e-9);
        assert!(s.describe("ms").contains("n=1000"));
        let tiny = Summary::of(&[1.0, 2.0]);
        assert_eq!(tiny.tail_pct, None);
        assert!(tiny.tail.is_nan());
    }

    #[test]
    fn paired_self_time_subtracts_the_same_request_at_each_level() {
        // Two modes (cache hits ~100, rebuilds ~500) at both levels; the
        // outer level adds 30 to each request. The median of the levels'
        // medians would land between modes; the paired median does not.
        let inner: HashMap<u64, f64> = (0..10)
            .map(|i| (i, if i % 2 == 0 { 100.0 } else { 500.0 + i as f64 }))
            .collect();
        let outer: HashMap<u64, f64> = inner.iter().map(|(&i, &v)| (i, v + 30.0)).collect();
        assert_eq!(paired_self_time(&outer, &inner), 30.0);
        // Ids missing from either level are ignored.
        let mut partial = outer.clone();
        partial.insert(99, 1e9);
        assert_eq!(paired_self_time(&partial, &inner), 30.0);
        // Not clamped.
        assert_eq!(paired_self_time(&inner, &outer), -30.0);
        assert!(paired_self_time(&HashMap::new(), &inner).is_nan());
    }

    #[test]
    fn span_self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); children cover [10, 30) ∪ [20, 40) = 30 units and
        // [90, 120) clipped to [90, 100) = 10 units.
        assert_eq!(span_self_time(0, 100, &[(10, 30), (20, 40), (90, 120)]), 60);
        assert_eq!(span_self_time(0, 100, &[]), 100);
        assert_eq!(span_self_time(0, 100, &[(0, 100), (5, 6)]), 0);
        assert_eq!(span_self_time(50, 60, &[(0, 10)]), 10);
    }

    #[test]
    fn lateness_growth_compares_first_and_last_quarters() {
        let flat = vec![0.1; 400];
        assert!(!lateness_grows(&flat, 5.0));
        let ramp: Vec<f64> = (0..400).map(|i| i as f64 * 0.1).collect();
        assert!(lateness_grows(&ramp, 5.0));
        assert!(!lateness_grows(&[], 5.0));
    }
}
