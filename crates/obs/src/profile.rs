//! Span-based cooperative profiler: folds the flight recorder's trace
//! trees into flamegraph-compatible folded-stack text.
//!
//! std-only Rust has no portable signal-based sampling profiler (no
//! `setitimer` + unwinding without libc/backtrace crates), but the serving
//! stack already records where time goes: every traced request carries a
//! parent/child span tree with per-span durations. This module aggregates
//! those trees across the retained traces into *cumulative self time per
//! span path* — exactly the semantic of a folded stack file:
//!
//! ```text
//! http.request;engine.recommend;engine.candidates 3120
//! http.request;engine.recommend;engine.rerank 184215
//! ```
//!
//! One line per unique root-to-span path, frames joined with `;`, value =
//! nanoseconds of *self* time (the span's duration minus its children's)
//! summed over every trace that contains the path. Feed the output
//! straight to Brendan Gregg's `flamegraph.pl` (or any folded-stack
//! consumer) to render an SVG. Being trace-based, the profile observes
//! only instrumented spans and only sampled requests — it is a profile of
//! the *request path*, not of the whole process, which is precisely the
//! part the ROADMAP's perf items need attributed.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::trace::{TraceRecord, TraceSpan};

/// Aggregates `traces` into folded-stack text: one `path value` line per
/// unique span path, sorted by path, values in nanoseconds of self time.
/// Spans that never closed (duration 0) contribute no line of their own
/// but still appear as interior frames of their children's paths.
pub fn folded_stacks(traces: &[Arc<TraceRecord>]) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for trace in traces {
        fold_one(trace, &mut agg);
    }
    let mut out = String::new();
    for (path, self_ns) in agg {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

fn fold_one(trace: &TraceRecord, agg: &mut BTreeMap<String, u64>) {
    // Children's time is subtracted from the parent: a span's self time is
    // what it spent *not* delegated to an instrumented child. A child
    // recorded longer than its parent (clock skew across threads, or an
    // unclosed parent) clamps to zero instead of underflowing.
    let mut child_ns = vec![0u64; trace.spans.len()];
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            if let Some(slot) = child_ns.get_mut(parent as usize) {
                *slot = slot.saturating_add(span.dur_ns);
            }
        }
    }
    for (i, span) in trace.spans.iter().enumerate() {
        let self_ns = span.dur_ns.saturating_sub(child_ns[i]);
        if self_ns == 0 {
            continue;
        }
        *agg.entry(span_path(trace, span)).or_insert(0) += self_ns;
    }
}

/// Root-to-span frame path, `;`-joined. Malformed parent links (index out
/// of range, cycles) terminate the walk at the offending hop rather than
/// looping; depth is bounded by the span count.
fn span_path(trace: &TraceRecord, span: &TraceSpan) -> String {
    let mut frames: Vec<&str> = Vec::new();
    let mut cur = Some(span);
    let mut hops = 0;
    while let Some(s) = cur {
        frames.push(&s.name);
        hops += 1;
        if hops > trace.spans.len() {
            break;
        }
        cur = s.parent.and_then(|p| trace.spans.get(p as usize));
    }
    frames.reverse();
    frames.join(";")
}

/// Folded-stack text over everything the flight recorder currently
/// retains: the recent and notable rings merged, de-duplicated by trace
/// id (a notable trace is usually in both). This is what `GET /profile`
/// and `inbox profile` serve.
pub fn folded_text() -> String {
    let mut traces = crate::trace::recent_traces();
    let mut seen: std::collections::BTreeSet<u64> = traces.iter().map(|t| t.id).collect();
    for t in crate::trace::notable_traces() {
        if seen.insert(t.id) {
            traces.push(t);
        }
    }
    folded_stacks(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOutcome;

    fn record(spans: Vec<TraceSpan>) -> Arc<TraceRecord> {
        Arc::new(TraceRecord {
            id: 1,
            kind: spans.first().map(|s| s.name.clone()).unwrap_or_default(),
            outcome: TraceOutcome::Ok,
            total_ns: spans.first().map(|s| s.dur_ns).unwrap_or(0),
            spans,
        })
    }

    fn span(id: u32, parent: Option<u32>, name: &str, dur_ns: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            name: name.to_string(),
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_path() {
        let r = record(vec![
            span(0, None, "root", 1000),
            span(1, Some(0), "a", 600),
            span(2, Some(1), "b", 250),
            span(3, Some(0), "a", 100), // second call of `a` under root
        ]);
        let text = folded_stacks(&[r]);
        let lines: Vec<&str> = text.lines().collect();
        // root self = 1000 - (600 + 100); a self = (600 - 250) + 100.
        assert_eq!(
            lines,
            vec!["root 300", "root;a 450", "root;a;b 250"],
            "{text}"
        );
    }

    #[test]
    fn unclosed_spans_never_underflow() {
        // Parent never closed (dur 0) while its child recorded time.
        let r = record(vec![
            span(0, None, "root", 500),
            span(1, Some(0), "open", 0),
            span(2, Some(1), "leaf", 200),
        ]);
        let text = folded_stacks(&[r]);
        assert!(text.contains("root;open;leaf 200"), "{text}");
        assert!(!text.contains("root;open 0"), "zero self-time line: {text}");
        // Root's self clamps: 500 - (0 child) = 500 (leaf charges `open`).
        assert!(text.contains("root 500"), "{text}");
    }

    #[test]
    fn aggregation_merges_traces_and_sorts_paths() {
        let a = record(vec![span(0, None, "root", 100)]);
        let b = record(vec![span(0, None, "root", 50), span(1, Some(0), "x", 20)]);
        let text = folded_stacks(&[a, b]);
        assert_eq!(text, "root 130\nroot;x 20\n");
    }

    #[test]
    fn malformed_parent_links_terminate() {
        let r = record(vec![
            span(0, None, "root", 10),
            span(1, Some(99), "orphan", 5), // dangling parent index
        ]);
        let text = folded_stacks(&[r]);
        assert!(text.contains("orphan 5"), "{text}");
    }

    #[test]
    fn folded_text_covers_finished_traces() {
        crate::set_enabled(true);
        crate::set_trace_sampling(1);
        let trace = crate::start_trace("test.profile.request").unwrap();
        {
            let _child = trace.span("test.profile.child", Some(0));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        trace.finish(TraceOutcome::Ok);
        let text = folded_text();
        assert!(
            text.lines()
                .any(|l| l.starts_with("test.profile.request;test.profile.child ")),
            "missing path in folded text: {text}"
        );
    }
}
