//! The process-global trace-sampling knob: 0 disables tracing, 1 keeps
//! every trace.
//!
//! This lives in an integration test (its own process) because the knob is
//! process-global: inside the unit-test binary, sampling 0 would make every
//! concurrently running trace test's `start_trace` return `None`.

use inbox_obs::{set_trace_sampling, start_trace};

#[test]
fn sampling_zero_disables_and_one_keeps_everything() {
    set_trace_sampling(0);
    assert!(start_trace("test.sampled").is_none());
    set_trace_sampling(1);
    assert!(start_trace("test.sampled").is_some());
}
