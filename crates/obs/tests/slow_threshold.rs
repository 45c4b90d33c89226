//! The process-global slow-trace threshold: a trace finished past it is
//! promoted to `Slow` and retained in the notable ring.
//!
//! This lives in an integration test (its own process) because the
//! threshold is process-global: inside the unit-test binary, a 1 ns
//! threshold would promote every concurrently finished `Ok` trace.

use std::time::Duration;

use inbox_obs::{notable_traces, recent_traces, set_slow_threshold, start_trace, TraceOutcome};

#[test]
fn slow_promotion_and_notable_retention() {
    set_slow_threshold(Duration::from_nanos(1));
    let trace = start_trace("test.slow").unwrap();
    std::thread::sleep(Duration::from_millis(1));
    let id = trace.id().0;
    let record = trace.finish(TraceOutcome::Ok);
    set_slow_threshold(Duration::MAX);
    assert_eq!(record.outcome, TraceOutcome::Slow);
    assert!(
        notable_traces().iter().any(|r| r.id == id),
        "slow trace missing from the notable ring"
    );
    assert!(recent_traces().iter().any(|r| r.id == id));
}
