//! `inbox-testkit`: the workspace's correctness harness.
//!
//! Three pieces, consumed by this crate's own test suites and by the root
//! integration tests:
//!
//! - **Failpoints** (re-exported from [`inbox_obs::failpoints`], inventory
//!   in [`sites`]) — deterministic fault injection threaded through
//!   `core::persist`, `index`, the `serve::Service` facade, and
//!   `serve::{admission, engine, http}`. The sites compile to no-ops unless the `failpoints` cargo feature is on; the chaos and
//!   coverage suites under `tests/` only build with it.
//! - **Differential oracles** ([`oracle`]) — naive scalar reference
//!   implementations of the box geometry, the fused tape ops, the full
//!   InBox forward pass, and top-K ranking, written against the paper's
//!   formulas in plain loops over `Vec<Vec<f32>>`. Where the production
//!   code promises bit-identical results (fused ops vs. their chains,
//!   served rankings vs. a fresh forward pass), the oracle mirrors the
//!   exact accumulation order so comparisons can assert `to_bits`
//!   equality, not tolerances.
//! - **Metamorphic invariants** ([`invariants`]) — properties that must
//!   hold for *any* input (intersection monotonicity, translation
//!   invariance, bounded attention offsets), used by the proptest suites.
//!
//! [`harness`] carries the shared fixtures: tiny dataset/engine builders
//! and bitwise assertion helpers.

#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod oracle;
pub mod sites;

pub use inbox_obs::failpoints;
pub use inbox_obs::failpoints::{FailGuard, Trigger};
