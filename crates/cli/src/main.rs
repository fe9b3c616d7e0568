//! `carbon-edge` — command-line driver for the carbon-neutral edge
//! inference simulator.
//!
//! ```text
//! carbon-edge run     --policy ours --edges 10 --seeds 5 [--task mnist|cifar]
//! carbon-edge compare --edges 10 --seeds 3
//! carbon-edge serve   --quick --seed 1 [--listen unix:PATH|tcp:ADDR]
//!                     [--admin unix:PATH|tcp:ADDR --ready-deadline-ms N]
//!                     [--checkpoint F --checkpoint-every N] [--resume F]
//!                     [--wal DIR --wal-sync every|slot|off]
//!                     [--max-line-bytes N] [--max-bad-lines N]
//! carbon-edge watch   --admin unix:PATH|tcp:ADDR [--interval-ms N]
//!                     [--iterations N]   (or: carbon-edge watch OPS.jsonl)
//! carbon-edge gen-arrivals --process diurnal --edges 10 --slots 40 --seed 1
//! carbon-edge report  trace.jsonl [--strict] [--svg-dir charts]
//! carbon-edge bench-check baseline.json current.json [--tolerance T]
//! carbon-edge zoo     --task cifar [--quantized]
//! carbon-edge help
//! ```

use std::process::ExitCode;

mod admin;
mod args;
mod bench_check;
mod commands;
mod report;
mod serve;
mod watch;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        commands::print_help();
        return ExitCode::FAILURE;
    };
    let opts = match args::Options::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => commands::run(&opts),
        "compare" => commands::compare(&opts),
        "serve" => serve::serve(&opts),
        "watch" => watch::watch(&opts),
        "gen-arrivals" => serve::gen_arrivals(&opts),
        "report" => report::report(&opts),
        "bench-check" => bench_check::bench_check(&opts),
        "zoo" => commands::zoo(&opts),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => Err(format!(
            "unknown command '{other}' (try 'carbon-edge help')"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
