//! The untraced run: the end-to-end metrics of one workload.

use std::collections::BTreeMap;

use crate::check::{Mirror, OracleTable};
use crate::client::{
    cpu_ticks, http_call, peak_rss_mb, process_cpu_s, reset_peak_rss_mb, run_open_loop,
    steal_share, PhaseResult,
};
use crate::gen::{self, Op, Plan, Users};
use crate::search::{self, ProbeOutcome};
use crate::stats::{least_disturbed, median, median_least_disturbed, Summary};
use crate::workload::{Stack, Workload, World, K, THREADS};
use crate::{Metric, Outcome};

/// Stack set-ups per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, and more while they take under `SETUP_BUDGET_S` in total,
/// up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// Share of `--seconds` spent at the fixed rate; the rest goes to the
/// `max_rps` search.
const FIXED_SHARE: f64 = 0.4;

/// Probe attempts the search budget is divided by. A search from a bracket
/// of ±12 % around the knee takes 5 probes (2 to confirm the bracket, 3 to
/// bisect), about half of which fail and so make two attempts.
const PROBE_BUDGET: f64 = 7.5;

/// Rounds the fixed-rate phase is split into, and how many more may run to
/// make up for rounds the hypervisor disturbed.
const ROUNDS: usize = 10;
const EXTRA_ROUNDS: usize = 4;

/// Attempts a probe gets: it passes if any of them passes.
const PROBE_ATTEMPTS: usize = 2;

/// Share of host CPU time stolen by the hypervisor above which a phase counts
/// as disturbed. Undisturbed stretches of a 2-vCPU VM showed 0–2 %;
/// stretches where latency doubled showed 4–10 %.
const STEAL_LIMIT: f64 = 0.03;

/// Offered rate of the read-only workloads' write-only slices, and the
/// share of `--seconds` that `ROUNDS` of them take. A slice follows every
/// round and every probe.
const INGEST_RATE: f64 = 1000.0;
const INGEST_SHARE: f64 = 0.2;

/// Factor the search bracket moves by while it does not hold the knee.
const WIDEN: f64 = 1.25;

/// The search never offers more than this multiple of its initial bracket
/// top (which also bounds the users churn needs).
const SEARCH_CAP: f64 = 2.0;

/// Search resolution: 5 %.
const RESOLUTION: f64 = 0.05;

/// Plan salts, one per phase kind, so phases draw independent streams.
const SALT_FIXED: u64 = 1;
const SALT_PROBE: u64 = 500;
const SALT_INGEST: u64 = 1000;

/// Phase lengths derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds at the fixed rate.
    pub fixed_secs: f64,
    /// Seconds per search probe.
    pub probe_secs: f64,
}

impl Budget {
    /// Splits `seconds` between the fixed-rate phase and the search.
    pub fn of(seconds: f64) -> Self {
        Self {
            fixed_secs: seconds * FIXED_SHARE,
            probe_secs: (seconds * (1.0 - FIXED_SHARE) / PROBE_BUDGET).max(0.5),
        }
    }

    /// Most requests any single phase of `workload` (a round or a probe)
    /// can send.
    pub fn max_phase_requests(&self, workload: &Workload) -> usize {
        let fixed = workload.fixed_rate * self.fixed_secs / ROUNDS as f64;
        let probe = workload.bracket.1 * SEARCH_CAP * self.probe_secs;
        fixed.max(probe).ceil() as usize
    }
}

/// The world a workload runs in: churn raises the user count so no history
/// reaches the cap within one phase.
pub fn world_for(workload: &Workload, seed: u64, budget: &Budget) -> World {
    let users = workload
        .churn
        .then(|| World::churn_users(workload, budget.max_phase_requests(workload)));
    World::new(workload.clone(), seed, users)
}

/// One round of a workload's fixed-rate traffic. Round 0 is the stream the
/// traced run replays at every level.
pub fn round_plan(world: &World, round: u64, users: &mut Users, count: usize) -> Plan {
    let w = &world.workload;
    let salt = SALT_FIXED + 10 * round;
    if w.churn {
        gen::churn(world.seed, salt, users, w.fixed_rate, count, THREADS)
            .expect("churn users sized for the fixed phase")
    } else {
        gen::read_only(
            world.seed,
            salt,
            world.n_users() as u32,
            w.fixed_rate,
            count,
            THREADS,
        )
    }
}

/// Sends `plan` to `stack` over HTTP.
pub fn over_http(stack: &Stack, plan: &Plan, traced: bool) -> PhaseResult {
    let addr = stack.addr();
    run_open_loop(plan, "http", traced, |req, ctx| {
        http_call(addr, &req.op, K, &mut ctx.buf)
    })
}

/// Checks a phase's answers against the oracle table (read-only
/// workloads) or a fresh mirror (churn); returns the wrong ones.
fn check(world: &World, oracle: Option<&OracleTable>, res: &PhaseResult) -> Vec<String> {
    match oracle {
        Some(table) => table.check(&res.records),
        None => Mirror::new(world).check(&res.records),
    }
}

/// One phase sent over HTTP, with what it cost the server.
struct Measured {
    res: PhaseResult,
    /// Process CPU over the send minus the client threads' CPU, seconds:
    /// the serving stack's own (answers are checked after the window).
    server_cpu_s: f64,
    /// Share of host CPU time the hypervisor stole during the send.
    steal: f64,
}

/// Sends `plan` to `stack` untraced and measures the send alone.
fn measure(stack: &Stack, plan: &Plan) -> Measured {
    let ticks0 = cpu_ticks();
    let cpu0 = process_cpu_s();
    let res = over_http(stack, plan, false);
    let server_cpu_s = process_cpu_s() - cpu0 - res.client_cpu_s;
    Measured {
        steal: steal_share(ticks0, cpu_ticks()),
        server_cpu_s,
        res,
    }
}

/// Phases of a per-phase series that the hypervisor did not disturb.
fn clean(steal: &[f64]) -> usize {
    steal.iter().filter(|&&s| s <= STEAL_LIMIT).count()
}

/// The median of a per-phase series over the phases the hypervisor did
/// not disturb, or over the half it disturbed least when fewer are clean.
fn pick(values: &[f64], steal: &[f64]) -> f64 {
    median_least_disturbed(values, steal, STEAL_LIMIT, ROUNDS / 2)
}

fn is_rec(op: &Op) -> bool {
    matches!(op, Op::Recommend { .. })
}

fn is_ingest(op: &Op) -> bool {
    matches!(op, Op::Ingest { .. })
}

/// The fixed-rate measurement, one round at a time. A round is one slice of
/// the workload's traffic at its fixed rate. Read-only rounds all run on
/// the one serving stack, which only ever serves the initial twin; their
/// ingest latency comes from a write-only slice after each round, sent to a
/// stack that takes only writes. Churn rounds after the first each run on a
/// fresh stack. Each metric is the median of its per-round values, so one
/// slow spell of the host moves a round, not the result. Ingest latency
/// wanders between 0.1 and 0.3 ms over seconds on a 2-vCPU VM, so many
/// short rounds spread over the whole run steady the median more than a few
/// long ones.
struct FixedRate<'w> {
    world: &'w World,
    users: Users,
    mirror: Mirror,
    /// `Engine::oracle` answers for the initial twin (read-only workloads).
    oracle: Option<OracleTable>,
    /// Whether each round is followed by a write slice (read-only
    /// workloads, once `rss_mb` is taken).
    writes: bool,
    /// The stack write slices go to (started again when its users run out
    /// of history room).
    write_stack: Option<Stack>,
    per_round: usize,
    ingests_per_slice: usize,
    rounds: u64,
    wrong: Vec<String>,
    attempted: usize,
    failed: usize,
    /// Per round: recommend p50 (ms), server CPU (s), requests sent and the
    /// share of host CPU time stolen by the hypervisor.
    rec_p50: Vec<f64>,
    cpu_s: Vec<f64>,
    sent: Vec<usize>,
    steal: Vec<f64>,
    /// Per churn round or read-only write slice: ingest latencies (ms) and
    /// steal.
    ingest_ms: Vec<Vec<f64>>,
    ingest_steal: Vec<f64>,
    /// Every recommend latency (ms), for the diagnostics.
    rec_all: Vec<f64>,
}

impl<'w> FixedRate<'w> {
    fn new(world: &'w World, seconds: f64, budget: &Budget) -> Self {
        let w = &world.workload;
        Self {
            world,
            users: world.users(),
            mirror: Mirror::new(world),
            oracle: None,
            writes: false,
            write_stack: None,
            per_round: (w.fixed_rate * budget.fixed_secs / ROUNDS as f64) as usize,
            ingests_per_slice: (INGEST_RATE * seconds * INGEST_SHARE / ROUNDS as f64) as usize,
            rounds: 0,
            wrong: Vec::new(),
            attempted: 0,
            failed: 0,
            rec_p50: Vec::new(),
            cpu_s: Vec::new(),
            sent: Vec::new(),
            steal: Vec::new(),
            ingest_ms: Vec::new(),
            ingest_steal: Vec::new(),
            rec_all: Vec::new(),
        }
    }

    fn rounds_done(&self) -> usize {
        self.rounds as usize
    }

    /// Checks a phase's answers against the oracle table (`reads`) or the
    /// mirror, and folds its counts in.
    fn fold(&mut self, res: &PhaseResult, reads: bool) {
        let wrong = match &self.oracle {
            Some(table) if reads => table.check(&res.records),
            _ => self.mirror.check(&res.records),
        };
        self.attempted += res.records.len() + res.unsent;
        self.failed += res.failed() + res.unsent + wrong.len();
        self.wrong.extend(wrong);
    }

    /// One round on `shared`, or, with `None` (churn after round 0), on a
    /// fresh, warmed stack with matching generator and mirror state, so
    /// histories do not grow from round to round and every round measures
    /// the same workload.
    fn round(&mut self, shared: Option<&Stack>) {
        let world = self.world;
        let fresh = shared.is_none().then(|| {
            self.users = world.users();
            self.mirror = Mirror::new(world);
            let (fresh, _) = Stack::start(world);
            fresh.warm();
            fresh
        });
        let stack = fresh.as_ref().or(shared).expect("a stack for the round");
        let plan = round_plan(world, self.rounds, &mut self.users, self.per_round);
        let m = measure(stack, &plan);
        self.cpu_s.push(m.server_cpu_s);
        self.sent.push(m.res.records.len());
        let rec = m.res.latencies_ms(is_rec);
        self.rec_p50.push(median(&rec));
        self.rec_all.extend(rec);
        self.steal.push(m.steal);
        if world.workload.churn {
            self.ingest_ms.push(m.res.latencies_ms(is_ingest));
            self.ingest_steal.push(m.steal);
        }
        self.fold(&m.res, true);
        self.rounds += 1;
        self.write_slice();
    }

    /// One write-only slice to the write stack, if `writes`. When the
    /// write stack's users run out of history room, a fresh stack with
    /// matching generator and mirror state replaces it.
    fn write_slice(&mut self) {
        if !self.writes {
            return;
        }
        let world = self.world;
        let salt = SALT_INGEST + self.ingest_ms.len() as u64;
        let count = self.ingests_per_slice;
        let slice = |users: &mut Users| {
            gen::ingest_only(world.seed, salt, users, INGEST_RATE, count, THREADS)
        };
        let plan = match slice(&mut self.users) {
            Ok(plan) => plan,
            Err(_) => {
                self.write_stack = None;
                self.users = world.users();
                self.mirror = Mirror::new(world);
                slice(&mut self.users).expect("a fresh twin has room for a write slice")
            }
        };
        let stack = self
            .write_stack
            .get_or_insert_with(|| Stack::start(world).0);
        let m = measure(stack, &plan);
        self.ingest_ms.push(m.res.latencies_ms(is_ingest));
        self.ingest_steal.push(m.steal);
        self.fold(&m.res, false);
    }
}

/// Starts a stack from empty telemetry, as in a fresh process (the audit
/// worker captures its drift reference once per registry), and records how
/// long its set-up took.
fn timed_setup(world: &World, setups: &mut Vec<f64>) -> Stack {
    inbox_obs::reset();
    let (stack, secs) = Stack::start(world);
    setups.push(secs);
    stack
}

/// Runs every phase of an untraced run and returns the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let budget = Budget::of(seconds);
    let world = world_for(&workload, seed, &budget);
    eprintln!(
        "[{}] seed {seed}: {} users x {} items, fixed rate {} rps for {:.1} s, probes {:.2} s",
        workload.name,
        world.n_users(),
        world.ds.kg.n_items(),
        workload.fixed_rate,
        budget.fixed_secs,
        budget.probe_secs
    );
    let mut fixed = FixedRate::new(&world, seconds, &budget);

    // The read-only workloads' write stack and then the serving stack are
    // the run's first set-ups. rss_mb is the peak RSS growth from just
    // before the serving stack (the model it owns included; the dataset,
    // the benchmark's mirror and the write stack, built earlier, excluded)
    // to the end of round 0, before any probe overloads the stack.
    let mut setups = Vec::new();
    if !workload.churn {
        fixed.write_stack = Some(timed_setup(&world, &mut setups));
    }
    let rss_base = reset_peak_rss_mb();
    let stack = timed_setup(&world, &mut setups);
    stack.warm();
    if !workload.churn {
        fixed.oracle = Some(OracleTable::build(stack.service.engine()));
    }
    fixed.round(Some(&stack));
    let rss_mb = peak_rss_mb() - rss_base;
    // Churn's later rounds and probes each start a fresh stack; the set-up
    // stack, dirty after round 0, goes before any of them starts.
    let shared = if workload.churn {
        drop(stack);
        None
    } else {
        Some(stack)
    };
    fixed.writes = shared.is_some();
    fixed.write_slice();

    // The fixed-rate rounds are interleaved with the search's probes (two
    // rounds before each probe, the rest after the search), so that both
    // sample the whole run rather than one stretch of it.
    let mut probe_no = 0u64;
    let mut achieved: Vec<(f64, f64)> = Vec::new();
    let mut probe_wrong: Vec<String> = Vec::new();
    let mut probe = |rate: f64| -> bool {
        for _ in 0..2 {
            if fixed.rounds_done() < ROUNDS {
                fixed.round(shared.as_ref());
            }
        }
        probe_no += 1;
        let count = (rate * budget.probe_secs) as usize;
        let salt = SALT_PROBE + probe_no;
        let plan = if workload.churn {
            gen::churn(seed, salt, &mut world.users(), rate, count, THREADS)
                .expect("churn users sized for the largest probe")
        } else {
            gen::read_only(seed, salt, world.n_users() as u32, rate, count, THREADS)
        };
        // A failing probe is tried once more. One pause of the host (100 to
        // 250 ms, with or without hypervisor steal) pushes p99 past the
        // limit far below the knee; a probe the host disturbed can only
        // fail for it, never pass. Churn probes each start from a fresh
        // stack so every attempt's stream is a pure function of the seed
        // and its rate.
        let mut passed = None;
        for _ in 0..PROBE_ATTEMPTS {
            let fresh = workload.churn.then(|| {
                let (fresh, _) = Stack::start(&world);
                fresh.warm();
                fresh
            });
            let stack = fresh
                .as_ref()
                .or(shared.as_ref())
                .expect("a stack to probe");
            let m = measure(stack, &plan);
            let wrong_here = check(&world, fixed.oracle.as_ref(), &m.res);
            let outcome = ProbeOutcome {
                latencies_ms: m.res.latencies_ms(is_rec),
                lags_ms: m.res.lags_ms(),
                failed: m.res.failed() + wrong_here.len(),
                unsent: m.res.unsent,
            };
            let ok = search::passes(&outcome);
            let last_ns = m
                .res
                .records
                .iter()
                .map(|r| r.req.at_ns + r.latency_ns)
                .max()
                .unwrap_or(0);
            let got = m.res.records.len() as f64 * 1e9 / last_ns.max(1) as f64;
            eprintln!(
                "[{}]   probe {rate:.0} rps: {} {}; lag {}; steal {:.1} %",
                workload.name,
                if ok { "pass" } else { "FAIL" },
                Summary::of(&outcome.latencies_ms).describe("ms"),
                Summary::of(&outcome.lags_ms).describe("ms"),
                m.steal * 100.0,
            );
            probe_wrong.extend(wrong_here);
            if ok {
                passed = Some(got);
                break;
            }
        }
        if let Some(got) = passed {
            achieved.push((rate, got));
        }
        fixed.write_slice();
        passed.is_some()
    };
    let (lo, hi) = workload.bracket;
    let (max_offered, probes) =
        search::max_rate(lo, hi, WIDEN, hi * SEARCH_CAP, RESOLUTION, &mut probe);
    // Reported as the throughput the highest passing probe achieved
    // (completed requests over the time to the last reply), a measured
    // figure rather than one of the search's grid points.
    let max_rps = achieved
        .iter()
        .find(|(rate, _)| *rate == max_offered)
        .map_or(0.0, |&(_, got)| got);
    eprintln!(
        "[{}] max_rps {max_rps:.1} (offered {max_offered:.1}) after {} probes",
        workload.name,
        probes.len()
    );
    // Rounds the hypervisor disturbed are made up for, within a limit.
    while fixed.rounds_done() < ROUNDS
        || (clean(&fixed.steal) < ROUNDS && fixed.rounds_done() < ROUNDS + EXTRA_ROUNDS)
    {
        fixed.round(shared.as_ref());
    }
    // Write slices the hypervisor disturbed are made up for likewise.
    while fixed.writes
        && (fixed.ingest_ms.len() < ROUNDS
            || (clean(&fixed.ingest_steal) < ROUNDS
                && fixed.ingest_ms.len() < ROUNDS + EXTRA_ROUNDS))
    {
        fixed.write_slice();
    }
    fixed.write_stack = None;
    drop(shared);
    let p50_ms = pick(&fixed.rec_p50, &fixed.steal);
    // Ingest latency is pooled over the kept phases: within a run, one
    // slice's median alone ranged from 0.07 to 0.25 ms, so the median of
    // the pooled latencies moves less than a median of slice medians.
    let pooled: Vec<f64> = least_disturbed(&fixed.ingest_steal, STEAL_LIMIT, ROUNDS / 2)
        .into_iter()
        .flat_map(|i| fixed.ingest_ms[i].iter().copied())
        .collect();
    let ingest_p50_ms = median(&pooled);
    // CPU time is read in 10 ms clock ticks, about a tenth of a hot-small
    // round's: so the total over the kept rounds, not a median of
    // per-round ratios.
    let kept = least_disturbed(&fixed.steal, STEAL_LIMIT, ROUNDS / 2);
    let cpu_us_per_req = kept.iter().map(|&i| fixed.cpu_s[i]).sum::<f64>() * 1e6
        / kept.iter().map(|&i| fixed.sent[i]).sum::<usize>().max(1) as f64;
    let FixedRate {
        mut wrong,
        attempted,
        failed,
        rec_p50,
        ingest_ms,
        cpu_s,
        steal,
        ingest_steal,
        rec_all,
        ..
    } = fixed;
    wrong.extend(probe_wrong);

    let audit = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    if audit.mismatched > 0 {
        wrong.push(format!(
            "audit: {} of {} sampled answers mismatched the exact re-rank",
            audit.mismatched, audit.audited
        ));
    }
    for w in wrong.iter().take(10) {
        eprintln!("[{}] WRONG: {w}", workload.name);
    }
    // The remaining set-ups. Cheap set-ups are repeated more to steady the
    // median.
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(timed_setup(&world, &mut setups));
    }

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    };
    put("setup_s", median(&setups), "s");
    put("p50_ms", p50_ms, "ms");
    put("max_rps", max_rps, "1/s");
    put("cpu_us_per_req", cpu_us_per_req, "us");
    put("rss_mb", rss_mb, "MiB");
    put(
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    put("ingest_p50_ms", ingest_p50_ms, "ms");
    let ingest_p50: Vec<f64> = ingest_ms.iter().map(|v| median(v)).collect();
    let rec = Summary::of(&rec_all);
    eprintln!(
        "[{}] rounds: recommend p50 {rec_p50:.4?} ms, server cpu {cpu_s:.2?} s, steal {steal:.3?}; ingest p50 {ingest_p50:.4?} ms, steal {ingest_steal:.3?}",
        workload.name
    );
    eprintln!(
        "[{}] diagnostics: recommend at the fixed rate {}, p99 {:.4} ms; setups {:.5?} s; audit {}/{} audited, {} mismatched",
        workload.name,
        rec.describe("ms"),
        rec.p99,
        setups,
        audit.audited,
        audit.sampled,
        audit.mismatched
    );
    Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
