//! The `max_rps` search: the highest offered rate that holds the latency
//! limit with no failures and no growing backlog.

use crate::stats::{lateness_grows, quantile_sorted};

/// Latency limit on the 99th percentile, ms (`ServeConfig::slo_objective`).
pub const P99_LIMIT_MS: f64 = 50.0;

/// Lateness growth (last quarter over first quarter, ms) that counts as a
/// growing backlog.
pub const LAG_GROWTH_MS: f64 = 5.0;

/// What one probe at a fixed offered rate produced.
#[derive(Debug, Clone, Default)]
pub struct ProbeOutcome {
    /// Latencies from scheduled send, ms, of the requests the limit is on.
    pub latencies_ms: Vec<f64>,
    /// Generator lateness per send, ms, in send order.
    pub lags_ms: Vec<f64>,
    /// Failed requests (including wrong answers).
    pub failed: usize,
    /// Requests never sent because the generator fell too far behind.
    pub unsent: usize,
}

/// Whether a probe holds the limit: p99 within [`P99_LIMIT_MS`], nothing
/// failed or went unsent, and lateness did not grow.
pub fn passes(o: &ProbeOutcome) -> bool {
    if o.failed > 0 || o.unsent > 0 || o.latencies_ms.is_empty() {
        return false;
    }
    let mut v = o.latencies_ms.clone();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.99) <= P99_LIMIT_MS && !lateness_grows(&o.lags_ms, LAG_GROWTH_MS)
}

/// One probe of the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Whether it held the limit.
    pub ok: bool,
}

/// Geometric search for the highest passing rate, to within `resolution`
/// (0.05 = 5 %). Starts from the bracket `[lo, hi]`; while `lo` fails it
/// steps the bracket down by `widen`, and while `hi` passes it steps it up
/// (never above `cap`). Then it bisects the bracket geometrically. Returns
/// the highest passing rate seen (`lo` of the final bracket, `cap` if even
/// that passed, 0 if nothing passed in 8 steps down) and every probe in
/// order. `probe` returns whether a rate passed.
pub fn max_rate(
    lo: f64,
    hi: f64,
    widen: f64,
    cap: f64,
    resolution: f64,
    mut probe: impl FnMut(f64) -> bool,
) -> (f64, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut run = |rate: f64, probes: &mut Vec<Probe>| {
        let ok = probe(rate);
        probes.push(Probe { rate, ok });
        ok
    };
    let (mut lo, mut hi) = (lo, hi);
    let mut steps_down = 0;
    while !run(lo, &mut probes) {
        hi = lo;
        lo /= widen;
        steps_down += 1;
        if steps_down == 8 {
            return (0.0, probes);
        }
    }
    // Unless stepping down already found a failing rate, step up until one.
    if steps_down == 0 {
        while run(hi, &mut probes) {
            if hi >= cap {
                return (hi, probes);
            }
            lo = hi;
            hi = (hi * widen).min(cap);
        }
    }
    while hi / lo > 1.0 + resolution {
        let mid = (lo * hi).sqrt();
        if run(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: `workers` parallel clients, each request takes
    /// `service_ms`, arrivals every `1/rate` s for `secs` seconds. Returns
    /// what the open-loop generator would have measured (latency from the
    /// scheduled send, lateness per send).
    fn simulate(rate: f64, service_ms: f64, workers: usize, secs: f64) -> ProbeOutcome {
        let n = (rate * secs) as usize;
        let gap = 1000.0 / rate;
        let mut free_at = vec![0.0f64; workers];
        let mut out = ProbeOutcome::default();
        for i in 0..n {
            let w = i % workers;
            let due = i as f64 * gap;
            let start = due.max(free_at[w]);
            free_at[w] = start + service_ms;
            out.lags_ms.push(start - due);
            out.latencies_ms.push(free_at[w] - due);
        }
        out
    }

    #[test]
    fn pass_rule_rejects_failures_tails_and_growing_backlogs() {
        assert!(passes(&simulate(500.0, 1.0, 2, 2.0)));
        // Capacity is 2 / 1 ms = 2000 rps; 10 % over it the backlog grows.
        assert!(!passes(&simulate(2200.0, 1.0, 2, 2.0)));
        let mut failed = simulate(500.0, 1.0, 2, 2.0);
        failed.failed = 1;
        assert!(!passes(&failed));
        // A flat but slow server fails on p99 alone.
        let slow = simulate(10.0, 60.0, 2, 2.0);
        assert!(!lateness_grows(&slow.lags_ms, LAG_GROWTH_MS));
        assert!(!passes(&slow));
        assert!(!passes(&ProbeOutcome::default()));
    }

    #[test]
    fn search_finds_the_synthetic_capacity_within_resolution() {
        for (service_ms, lo, hi) in [
            (1.0, 500.0, 1000.0),
            (1.0, 4000.0, 8000.0),
            (0.25, 1000.0, 3000.0),
            (1.0, 1800.0, 2200.0),
        ] {
            let capacity = 2.0 / service_ms * 1000.0;
            let (found, probes) = max_rate(lo, hi, 1.25, 1e6, 0.05, |r| {
                passes(&simulate(r, service_ms, 2, 2.0))
            });
            assert!(
                found <= capacity * 1.01,
                "{found} above capacity {capacity}"
            );
            assert!(found >= capacity / 1.10, "{found} too far below {capacity}");
            // The final bracket is within 5 %: some failing probe sits
            // within 5 % above the answer.
            assert!(probes.iter().any(|p| !p.ok && p.rate <= found * 1.0501));
            assert!(probes.len() < 16, "{} probes", probes.len());
        }
    }

    #[test]
    fn search_reports_zero_when_nothing_passes() {
        let (found, probes) = max_rate(100.0, 200.0, 2.0, 400.0, 0.05, |_| false);
        assert_eq!(found, 0.0);
        assert_eq!(probes.len(), 8);
        let (found, probes) = max_rate(100.0, 200.0, 2.0, 400.0, 0.05, |_| true);
        assert_eq!(found, 400.0);
        assert_eq!(probes.len(), 3);
    }
}
