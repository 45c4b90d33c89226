//! The process-global enable gate: while it is off, spans, counters and
//! rate counters record nothing.
//!
//! This lives in an integration test (its own process) because the gate is
//! process-global: inside the unit-test binary, turning it off would
//! silently drop the recordings of every test running alongside.

use std::time::Duration;

use inbox_obs::{counter, counter_value, rate_counter, set_enabled, span, span_snapshot};

#[test]
fn disabled_gate_suppresses_recording() {
    set_enabled(false);
    let g = span("test.registry.disabled");
    let d = g.stop();
    let c = counter("test.registry.disabled_counter");
    c.add(5);
    let rc = rate_counter("test.registry.disabled_rate");
    rc.add(5);
    set_enabled(true);
    assert_eq!(d, Duration::ZERO);
    assert!(span_snapshot("test.registry.disabled").is_none());
    assert_eq!(counter_value("test.registry.disabled_counter"), 0);
    assert_eq!(rc.in_window(60), 0);
}
