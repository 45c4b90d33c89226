//! End-to-end serving benchmark for the InBox reproduction.
//!
//! Starts the real serving stack in this process (`Engine::new` →
//! `Service::start` → `HttpServer::bind("127.0.0.1:0")`), drives one
//! workload over loopback HTTP as an open loop, checks every answer, and
//! prints the metrics as one JSON object on the last line of stdout:
//!
//! ```text
//! e2ebench --workload hot-small|catalog-ivf|ingest-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! fixed-rate stream at each layer's entry point and reports the per-layer
//! metrics, writing its spans under `.bench_out/`. The exit code is
//! non-zero when any answer is wrong. See README.md.

mod check;
mod client;
mod e2e;
mod gen;
mod layers;
mod search;
mod stats;
mod workload;

use std::collections::BTreeMap;

use workload::Workload;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// What a run reports.
pub struct Outcome {
    /// Every answer was right.
    pub correct: bool,
    /// Requests attempted in the measured phases.
    pub attempted: usize,
    /// Of those, failed (non-200, connection error or wrong answer).
    pub failed: usize,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::named(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {:?}",
            Workload::NAMES
        )
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    for (name, m) in &outcome.metrics {
        println!("{name:<28} {:>14.4} {}", m.value, m.unit);
    }
    println!(
        "answers {}; {} attempted, {} failed",
        if outcome.correct { "correct" } else { "WRONG" },
        outcome.attempted,
        outcome.failed
    );
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
