//! Runtime proof of the serving stack's allocation-free steady state.
//!
//! This binary installs the instrumented global allocator and drives real
//! traffic through the full service → engine pipeline. Scoring runs on
//! the caller's thread, so the callers here are long-lived: a sequential
//! caller plus four concurrent ones that live across every round. After
//! warmup rounds have grown each caller's per-thread scratch buffers and
//! registered every metric cell, the `engine.candidates`, `engine.rerank`
//! and `engine.rank` allocation scopes (box-backed users, then cold users)
//! must observe **zero** further allocations — the property the per-thread
//! scratch design claims by construction, checked here against the real
//! allocator. Lives in its own test binary because the global tracking
//! toggle and the scope counters are process-wide.

use std::sync::Barrier;

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, Interactions, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, ServeConfig, Service};

#[global_allocator]
static ALLOC: inbox_obs::InstrumentedAlloc = inbox_obs::InstrumentedAlloc;

/// The steady-state scopes under test and the per-scope allocation counts
/// at a point in time.
const HOT_SCOPES: [&str; 3] = ["engine.candidates", "engine.rerank", "engine.rank"];

/// Concurrent callers that live across every round.
const CALLERS: u32 = 4;

/// Warmup rounds before the measured one: the second already runs warm
/// paths (cache hits as well as rebuilds).
const WARMUP_ROUNDS: usize = 2;

/// Users whose history is dropped, so every sweep also ranks cold users.
const COLD_USERS: u32 = 3;

fn hot_allocs() -> [u64; 3] {
    HOT_SCOPES.map(|s| {
        inbox_obs::alloc_scope_stats(s)
            .map(|st| st.allocs)
            .unwrap_or(0)
    })
}

/// One caller's share of a round: every user once, starting at `offset`.
fn sweep(service: &Service, n_users: u32, offset: u32, k: usize) {
    for u in 0..n_users {
        service
            .recommend(UserId((u + offset) % n_users), k)
            .unwrap_or_else(|e| panic!("request for user {u}: {e}"));
    }
}

#[test]
fn steady_state_serving_allocates_nothing_in_the_hot_scopes() {
    assert!(
        inbox_obs::allocator_installed(),
        "this binary must run under the instrumented allocator"
    );
    inbox_obs::set_trace_sampling(0);

    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 59);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    let train = Interactions::from_pairs(
        ds.train.n_users(),
        ds.train.n_items(),
        (COLD_USERS..ds.train.n_users() as u32).flat_map(|u| {
            ds.train
                .items_of(UserId(u))
                .iter()
                .map(move |&i| (UserId(u), i))
        }),
    )
    .unwrap();
    let serve_cfg = ServeConfig::default();
    let engine = Engine::new(model, cfg, ds.kg.clone(), &train, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    let n_users = ds.train.n_users() as u32;

    inbox_obs::set_alloc_tracking(true);
    // Each round: this thread sweeps alone, then the concurrent callers
    // sweep together. The barrier brackets every round so the counters
    // are read only while no caller is scoring.
    let round = Barrier::new(CALLERS as usize + 1);
    let (before, after) = std::thread::scope(|s| {
        for t in 0..CALLERS {
            let (service, round) = (&service, &round);
            s.spawn(move || {
                for _ in 0..=WARMUP_ROUNDS {
                    round.wait();
                    sweep(service, n_users, t, 5);
                    round.wait();
                }
            });
        }
        let drive = || {
            sweep(&service, n_users, 0, 5);
            round.wait();
            round.wait();
        };
        for _ in 0..WARMUP_ROUNDS {
            drive();
        }
        let before = hot_allocs();
        drive();
        (before, hot_allocs())
    });
    inbox_obs::set_alloc_tracking(false);

    for (scope, (b, a)) in HOT_SCOPES.iter().zip(before.iter().zip(after.iter())) {
        assert_eq!(
            a - b,
            0,
            "scope {scope} allocated {} times at steady state",
            a - b
        );
    }
    service.shutdown();
}
