//! `inbox` — command-line interface for the InBox reproduction.
//!
//! ```text
//! inbox stats     --preset lastfm | --data DIR
//! inbox export    --preset lastfm --out DIR [--seed N]
//! inbox train     --preset lastfm | --data DIR  --out model.json
//!                 [--dim 32] [--epochs1 40] [--epochs2 25] [--epochs3 40]
//!                 [--lr 0.02] [--seed 42] [--maxmin] [--quick]
//! inbox evaluate  --model model.json (--preset P | --data DIR) [--k 20]
//! inbox recommend --model model.json (--preset P | --data DIR) --user 3 [--k 10] [--explain]
//! inbox serve     --model model.json (--preset P | --data DIR) [--addr HOST:PORT]
//!                 [--queue-cap 1024] [--cache-cap 100000] [--slo-ms 50]
//!                 [--trace-slow-ms 250] [--smoke]
//! inbox obs       [--addr HOST:PORT] [--interval-ms 1000] [--iters 0]
//! inbox profile   [--addr HOST:PORT] [--out FILE]
//! ```
//!
//! Every subcommand also accepts `--log-level quiet|info|debug` (console
//! verbosity) and `--metrics-out PATH` (JSONL telemetry: per-epoch training
//! records plus a final span/counter summary).
//!
//! `--preset` generates a synthetic dataset twin (`tiny`, `small`, `lastfm`,
//! `yelp`, `ifashion`, `amazon`); `--data` loads a KGIN-format directory
//! (`train.txt` / `test.txt` / `kg_final.txt`).

mod args;
mod commands;

use args::Parsed;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Parsed::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = commands::init_observability(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let result = match parsed.command.as_str() {
        "stats" => commands::stats(&parsed),
        "export" => commands::export(&parsed),
        "train" => commands::train(&parsed),
        "evaluate" => commands::evaluate(&parsed),
        "recommend" => commands::recommend(&parsed),
        "serve" => commands::serve(&parsed),
        "obs" => commands::obs(&parsed),
        "profile" => commands::profile(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}\n");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    inbox_obs::flush_sinks();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
