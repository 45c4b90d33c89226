//! The perf-regression ledger: append-only history of benchmark runs and
//! direction-aware diffing against a committed baseline.
//!
//! `BENCH_*.json` reports are free-form nested JSON; the ledger flattens
//! every **numeric leaf** into a dotted path (`latency_ms.p99`,
//! `current.stage1_samples_per_sec`, …) so entries stay comparable across
//! report-schema evolution — a renamed field simply stops matching instead
//! of breaking the parser. Entries land in `BENCH_LEDGER.jsonl`, one JSON
//! object per line, stamped with the git revision the run was built from.
//! Reports and ledger lines are read through the vendored
//! `serde_json::Value`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

/// Flattens every finite numeric leaf into `dotted.path → value`. Array
/// elements get numeric segments (`stage3_recalls.0`); booleans, strings,
/// and nulls are skipped — the ledger tracks measurements, not metadata.
pub fn flatten(json: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(json, String::new(), &mut out);
    out
}

fn walk(json: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    let join = |path: &str, seg: &str| {
        if path.is_empty() {
            seg.to_string()
        } else {
            format!("{path}.{seg}")
        }
    };
    match json {
        Value::Number(n) if n.as_f64().is_finite() => {
            out.insert(path, n.as_f64());
        }
        Value::Object(pairs) => {
            for (k, v) in pairs.iter() {
                walk(v, join(&path, k), out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, join(&path, &i.to_string()), out);
            }
        }
        _ => {}
    }
}

/// Which way "better" points for a metric path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a drop is a regression.
    HigherBetter,
    /// Latency-like: a rise is a regression.
    LowerBetter,
    /// Configuration echoes, counts, recalls-per-epoch — tracked, never
    /// flagged.
    Informational,
}

/// Classifies a dotted metric path. The rules are name-conventional:
/// `*_per_sec` / `qps` / `*speedup*` / `*hit_rate` are rates where more is
/// better; `recall*` / `hit*` / `agreement*` are retrieval-quality
/// fractions where more is better (the index's recall@k contract, the
/// quantized scorer's agreement@k contract, and the shadow-oracle audit
/// series land here); `psi*` / `drift*` / `displacement*` leaves are
/// quality-divergence measures where less is better, as is anything under
/// a `*_ms` segment (latencies); everything else is informational.
pub fn direction(path: &str) -> Direction {
    let last = path.rsplit('.').next().unwrap_or(path);
    if last.ends_with("_per_sec")
        || last == "qps"
        || last.ends_with("hit_rate")
        || last.starts_with("recall")
        || last.starts_with("hit")
        || last.starts_with("agreement")
        || path.split('.').any(|seg| seg.contains("speedup"))
    {
        return Direction::HigherBetter;
    }
    if path.split('.').any(|seg| {
        seg.starts_with("psi") || seg.starts_with("drift") || seg.starts_with("displacement")
    }) {
        return Direction::LowerBetter;
    }
    if path.split('.').any(|seg| seg.ends_with("_ms")) {
        return Direction::LowerBetter;
    }
    Direction::Informational
}

/// One ledger line: a benchmark run's flattened metrics plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Short git revision the binary was built from (`unknown` outside a
    /// work tree).
    pub rev: String,
    /// Which benchmark produced the metrics (`throughput`, `serve`, …).
    pub bench: String,
    /// Seconds since the Unix epoch when the entry was recorded.
    pub unix_secs: u64,
    /// Free-form annotation (`--note`).
    pub note: String,
    /// The SIMD lane backend the run used (`avx2`, `sse2`, `scalar`), from
    /// the report's `simd_backend` field; empty for reports that predate
    /// it. Runs on different backends are not compared.
    pub simd_backend: String,
    /// Flattened numeric metrics.
    pub metrics: BTreeMap<String, f64>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an entry as one JSONL line (no trailing newline).
pub fn format_entry(e: &LedgerEntry) -> String {
    let mut out = format!(
        "{{\"rev\":\"{}\",\"bench\":\"{}\",\"unix_secs\":{},\"note\":\"{}\",",
        escape(&e.rev),
        escape(&e.bench),
        e.unix_secs,
        escape(&e.note)
    );
    if !e.simd_backend.is_empty() {
        let _ = write!(out, "\"simd_backend\":\"{}\",", escape(&e.simd_backend));
    }
    out.push_str("\"metrics\":{");
    for (i, (k, v)) in e.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(k), v);
    }
    out.push_str("}}");
    out
}

/// Parses one JSONL ledger line back into an entry.
pub fn parse_entry(line: &str) -> Result<LedgerEntry, String> {
    let json: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let field = |k: &str| -> Result<&Value, String> {
        json.as_object()
            .and_then(|o| o.get(k))
            .ok_or_else(|| format!("ledger line missing {k:?}"))
    };
    let strf = |k: &str| -> Result<String, String> {
        field(k)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{k:?} is not a string"))
    };
    let metrics = match field("metrics")? {
        obj @ Value::Object(_) => flatten(obj),
        _ => return Err("\"metrics\" is not an object".into()),
    };
    Ok(LedgerEntry {
        rev: strf("rev")?,
        bench: strf("bench")?,
        unix_secs: field("unix_secs")?.as_f64().unwrap_or(0.0) as u64,
        note: strf("note")?,
        simd_backend: report_backend(&json),
        metrics,
    })
}

/// A report's (or ledger line's) `simd_backend` string, empty if absent.
pub fn report_backend(json: &Value) -> String {
    json.as_object()
        .and_then(|o| o.get("simd_backend"))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// One metric's baseline-vs-current verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Dotted metric path.
    pub metric: String,
    /// Baseline value from the ledger.
    pub baseline: f64,
    /// Value from the current report.
    pub current: f64,
    /// Signed percent change relative to the baseline.
    pub delta_pct: f64,
    /// Which way "better" points for this metric.
    pub direction: Direction,
    /// True when the change moves against `direction` by more than the
    /// threshold. Informational metrics never regress.
    pub regressed: bool,
}

/// Diffs `current` against `baseline` metric-by-metric (intersection of
/// paths only — schema drift surfaces as missing rows, not errors).
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> Vec<Comparison> {
    baseline
        .iter()
        .filter_map(|(metric, &b)| {
            let &c = current.get(metric)?;
            let delta_pct = if b == 0.0 {
                if c == 0.0 {
                    0.0
                } else {
                    100.0 * c.signum()
                }
            } else {
                (c - b) / b.abs() * 100.0
            };
            let direction = direction(metric);
            let regressed = match direction {
                Direction::HigherBetter => delta_pct < -threshold_pct,
                Direction::LowerBetter => delta_pct > threshold_pct,
                Direction::Informational => false,
            };
            Some(Comparison {
                metric: metric.clone(),
                baseline: b,
                current: c,
                delta_pct,
                direction,
                regressed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> serde_json::Result<Value> {
        serde_json::from_str(text)
    }

    #[test]
    fn parses_nested_documents() {
        let j = parse(r#"{"a": [1, 2.5, {"b": -3e2}], "s": "x\"y", "t": true, "n": null}"#)
            .expect("parses");
        let obj = j.as_object().expect("an object");
        assert_eq!(obj.get("s").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(obj.get("t"), Some(&Value::Bool(true)));
        let flat = flatten(&j);
        assert_eq!(flat.get("a.0"), Some(&1.0));
        assert_eq!(flat.get("a.1"), Some(&2.5));
        assert_eq!(flat.get("a.2.b"), Some(&-300.0));
        assert_eq!(flat.len(), 3, "strings/bools/null are not metrics");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "{} trailing", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn direction_rules_follow_naming_conventions() {
        assert_eq!(
            direction("current.stage1_samples_per_sec"),
            Direction::HigherBetter
        );
        assert_eq!(direction("qps"), Direction::HigherBetter);
        assert_eq!(direction("speedup.rank"), Direction::HigherBetter);
        assert_eq!(direction("cache_hit_rate"), Direction::HigherBetter);
        // Retrieval-quality metrics from the candidate index.
        assert_eq!(direction("indexed.recall_at_20"), Direction::HigherBetter);
        assert_eq!(direction("recall@20"), Direction::HigherBetter);
        assert_eq!(direction("eval.hits"), Direction::HigherBetter);
        // The quantized scorer's ranking-agreement contract.
        assert_eq!(
            direction("quantized.agreement_at_20"),
            Direction::HigherBetter
        );
        assert_eq!(direction("agreement@20"), Direction::HigherBetter);
        assert_eq!(
            direction("indexed.candidates_per_sec"),
            Direction::HigherBetter
        );
        assert_eq!(direction("latency_ms.p99"), Direction::LowerBetter);
        assert_eq!(direction("current.user_boxes_ms"), Direction::LowerBetter);
        // Shadow-oracle audit series: recall/agreement rise, divergence and
        // displacement fall.
        assert_eq!(direction("audit.recall_at_20"), Direction::HigherBetter);
        assert_eq!(direction("audit.agreement_at_20"), Direction::HigherBetter);
        assert_eq!(direction("drift.psi_score"), Direction::LowerBetter);
        assert_eq!(direction("audit.psi.score"), Direction::LowerBetter);
        assert_eq!(direction("audit.displacement_p99"), Direction::LowerBetter);
        assert_eq!(direction("audit.sampled"), Direction::Informational);
        assert_eq!(direction("dim"), Direction::Informational);
        assert_eq!(direction("batches"), Direction::Informational);
        // A rate nested under a latency block is still a rate.
        assert_eq!(
            direction("windowed_latency_ms.rate_per_sec"),
            Direction::HigherBetter
        );
    }

    #[test]
    fn entry_roundtrips_through_jsonl() {
        let entry = LedgerEntry {
            rev: "abc1234".into(),
            bench: "serve".into(),
            unix_secs: 1_754_000_000,
            note: "full run, \"quoted\"".into(),
            simd_backend: "avx2".into(),
            metrics: [("qps".to_string(), 1234.5), ("latency_ms.p99".into(), 7.25)]
                .into_iter()
                .collect(),
        };
        let line = format_entry(&entry);
        assert!(!line.contains('\n'));
        assert_eq!(parse_entry(&line).expect("roundtrip"), entry);
        // Lines recorded before reports named their backend still parse.
        let legacy = LedgerEntry {
            simd_backend: String::new(),
            ..entry
        };
        let line = format_entry(&legacy);
        assert!(!line.contains("simd_backend"));
        assert_eq!(parse_entry(&line).expect("legacy roundtrip"), legacy);
    }

    #[test]
    fn compare_flags_directional_regressions_only() {
        let base: BTreeMap<String, f64> = [
            ("qps".to_string(), 1000.0),
            ("latency_ms.p99".to_string(), 10.0),
            ("batches".to_string(), 50.0),
            ("gone".to_string(), 1.0),
        ]
        .into_iter()
        .collect();
        let cur: BTreeMap<String, f64> = [
            ("qps".to_string(), 900.0),          // -10%: regression
            ("latency_ms.p99".to_string(), 9.0), // improvement
            ("batches".to_string(), 80.0),       // informational
            ("new".to_string(), 2.0),            // unmatched
        ]
        .into_iter()
        .collect();
        let rows = compare(&base, &cur, 3.0);
        assert_eq!(rows.len(), 3, "only intersecting metrics compare");
        let by_name = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert!(by_name("qps").regressed);
        assert!((by_name("qps").delta_pct - -10.0).abs() < 1e-9);
        assert!(!by_name("latency_ms.p99").regressed);
        assert!(!by_name("batches").regressed);

        // Within threshold: no flag either way.
        let cur2: BTreeMap<String, f64> = [("qps".to_string(), 980.0)].into_iter().collect();
        assert!(!compare(&base, &cur2, 3.0)[0].regressed);
    }
}
