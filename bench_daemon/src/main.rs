//! `bench_daemon`: the end-to-end benchmark of `carbon-edge serve`.
//!
//! ```text
//! bench_daemon --workload NAME --seed S [--seconds N] [--trace 0|1] [--out DIR]
//! bench_daemon --calibrate [--runs N] [--seconds N] [--workload NAME]...
//! ```
//!
//! Run it from the repository root. It builds the release daemon next
//! to its own executable, spawns it once per pass, feeds it generated
//! wire lines over a unix socket, and checks every printed result
//! against an in-process reference. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; each as a `name value unit`
//! line, then one JSON summary line. See `README.md` for the workloads
//! and what each metric means.

mod calibrate;
mod daemon;
mod layers;
mod measure;
mod passes;
mod replay;
mod report;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::TaskKind;
use cne_util::SeedSequence;

use crate::passes::Bench;
use crate::report::{END_TO_END, PER_LAYER};

/// Per-invocation scratch space, relative to the repository root. Kept
/// short: the daemon's unix socket paths live under it.
const SCRATCH: &str = ".bench_run";

/// The seed `carbon-edge` trains its model zoo with.
const ZOO_SEED: u64 = 2025;

/// Parsed command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    calibrate: bool,
    runs: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: Path::new(SCRATCH).join("out"),
        calibrate: false,
        runs: 10,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{v}'"))
        };
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?.clone()),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--calibrate" => args.calibrate = true,
            "--runs" => args.runs = usize::try_from(number(value()?)?.max(1)).unwrap_or(usize::MAX),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.calibrate && args.workloads.len() != 1 {
        return Err("pass exactly one --workload (or --calibrate)".to_owned());
    }
    Ok(args)
}

/// Builds the release `carbon-edge` binary into this executable's own
/// target directory and returns its path.
fn build_daemon() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run bench_daemon from the repository root".to_owned());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let release_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = release_dir
        .parent()
        .ok_or("executable is not in a cargo target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "cne-cli",
            "--bin",
            "carbon-edge",
        ])
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building carbon-edge failed".to_owned());
    }
    let bin = release_dir.join("carbon-edge");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One measured run of one workload; returns the printed result.
fn run(args: &Args) -> Result<String, String> {
    let workload = workload::by_name(&args.workloads[0])?;
    workload.validate()?;
    let bin = build_daemon()?;
    let root = Path::new(SCRATCH).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;

    let began = Instant::now();
    let zoo = ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::default(),
        &SeedSequence::new(ZOO_SEED),
    );
    let zoo_train_ms = began.elapsed().as_secs_f64() * 1e3;
    let stream = workload::generate(&workload, args.seed);
    let reference = passes::reference(&workload, &zoo, &stream);

    let mut bench = Bench::new(bin, &workload, &stream, &reference, root.clone());
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        let inputs = layers::Inputs {
            workload: &workload,
            zoo: &zoo,
            stream: &stream,
            reference: &reference,
            zoo_train_ms,
        };
        layers::trace(&mut bench, &inputs, &root, &args.out, budget)
            .and_then(|r| r.complete(&PER_LAYER).map(|()| r))
    } else {
        let r = measure::measure(&mut bench, &workload, budget);
        r.complete(&END_TO_END).map(|()| r)
    };
    let _ = std::fs::remove_dir_all(&root);
    result.map(|r| r.render())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| {
        if args.calibrate {
            calibrate::calibrate(&args.workloads, args.runs, args.seconds)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_daemon: {e}");
            ExitCode::FAILURE
        }
    }
}
