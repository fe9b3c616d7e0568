//! Minimal flag parsing (no third-party dependency).

use cne_core::daemon::DaemonOptions;
use cne_simdata::dataset::TaskKind;

/// Default cap on one wire line (64 KiB) — far above any legitimate
/// request line, far below what a hostile client would need to exhaust
/// memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// Default `--max-bad-lines` error budget.
pub const DEFAULT_MAX_BAD_LINES: u64 = 100;

/// Parsed command-line options shared by all subcommands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Inference task.
    pub task: TaskKind,
    /// Number of edges `I`.
    pub edges: usize,
    /// Number of averaged seeds.
    pub seeds: u64,
    /// Policy name (for `run`).
    pub policy: String,
    /// Use the reduced fast-test configuration and zoo.
    pub quick: bool,
    /// Extend the zoo with 8-bit quantized variants.
    pub quantized: bool,
    /// Optional output TSV path for per-slot series.
    pub out: Option<String>,
    /// Worker threads for the multi-seed driver (`None` defers to
    /// `CARBON_EDGE_THREADS`, then to the machine's parallelism).
    pub threads: Option<usize>,
    /// `serve`: edge lanes for each slot's serve phase (`None` = 1).
    /// Results are bit-identical at every count.
    pub edge_threads: Option<usize>,
    /// Optional JSONL path for per-run telemetry traces.
    pub telemetry: Option<String>,
    /// Optional JSONL path for the wall-clock span-profile stream
    /// (defaults to `<telemetry>.profile.jsonl` when `--telemetry` is
    /// set).
    pub profile: Option<String>,
    /// `report`: exit non-zero when the trace contains theorem-envelope
    /// violations.
    pub strict: bool,
    /// `report`: also render SVG charts into this directory.
    pub svg_dir: Option<String>,
    /// `bench-check`: relative tolerance for gated wall-clock entries.
    pub tolerance: f64,
    /// `run`/`compare`: path to a fault-scenario JSON file (see
    /// `cne_faults::FaultScenario`); `None` keeps the paper's
    /// fault-free setting.
    pub faults: Option<String>,
    /// `serve`/`gen-arrivals`: the single run seed (the batch driver's
    /// `--seeds K` averages seeds `1..=K`; a daemon serves exactly
    /// one).
    pub seed: u64,
    /// `serve`: the daemon loop's own flags (`--checkpoint`,
    /// `--resume`, `--wal`, `--slot-ms`, …). Its `seed` and `telemetry`
    /// stay unset here; `serve` fills them from `--seed` and
    /// `--telemetry`.
    pub daemon: DaemonOptions,
    /// `serve`: listen on `unix:PATH` or `tcp:ADDR` instead of stdin.
    pub listen: Option<String>,
    /// `serve`: expose `/metrics`, `/healthz`, `/readyz` on `unix:PATH`
    /// or `tcp:HOST:PORT`; `watch`: the endpoint to scrape.
    pub admin: Option<String>,
    /// `serve`: `/readyz` turns 503 when no slot closes within this
    /// many milliseconds (the run being complete always reads ready).
    pub ready_deadline_ms: u64,
    /// `watch`: milliseconds between dashboard refreshes.
    pub interval_ms: u64,
    /// `watch`: stop after N refreshes (default: run until killed).
    pub iterations: Option<u64>,
    /// `gen-arrivals`: arrival-process name (diurnal | bursty |
    /// heavy-tail).
    pub process: String,
    /// `gen-arrivals`: first slot to emit (resume tails regenerate
    /// exactly the suffix a full generation would produce).
    pub start_slot: usize,
    /// `serve`/`gen-arrivals`: slot-count override (`serve`: horizon;
    /// `gen-arrivals`: slots to emit).
    pub slots: Option<usize>,
    /// `gen-arrivals`: expected busiest-edge slot count at the diurnal
    /// peak.
    pub peak: Option<f64>,
    /// Positional arguments (e.g. the trace file for `report`).
    pub inputs: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            task: TaskKind::MnistLike,
            edges: 10,
            seeds: 3,
            policy: "ours".to_owned(),
            quick: false,
            quantized: false,
            out: None,
            threads: None,
            edge_threads: None,
            telemetry: None,
            profile: None,
            strict: false,
            svg_dir: None,
            tolerance: 0.25,
            faults: None,
            seed: 1,
            daemon: DaemonOptions {
                max_line_bytes: DEFAULT_MAX_LINE_BYTES,
                max_bad_lines: DEFAULT_MAX_BAD_LINES,
                ..DaemonOptions::default()
            },
            listen: None,
            admin: None,
            ready_deadline_ms: 5000,
            interval_ms: 1000,
            iterations: None,
            process: "diurnal".to_owned(),
            start_slot: 0,
            slots: None,
            peak: None,
            inputs: Vec::new(),
        }
    }
}

impl Options {
    /// Parses `--flag value` pairs and boolean switches.
    ///
    /// # Errors
    /// Returns a message for unknown flags, missing values, or values
    /// that fail to parse.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--task" => {
                    opts.task = match value("--task")?.to_ascii_lowercase().as_str() {
                        "mnist" | "mnist-like" => TaskKind::MnistLike,
                        "cifar" | "cifar-like" | "cifar10" => TaskKind::CifarLike,
                        other => return Err(format!("unknown task '{other}'")),
                    };
                }
                "--edges" => {
                    opts.edges = value("--edges")?
                        .parse()
                        .map_err(|_| "edges must be a positive integer".to_owned())?;
                    if opts.edges == 0 {
                        return Err("edges must be at least 1".to_owned());
                    }
                }
                "--seeds" => {
                    opts.seeds = value("--seeds")?
                        .parse()
                        .map_err(|_| "seeds must be a positive integer".to_owned())?;
                    if opts.seeds == 0 {
                        return Err("seeds must be at least 1".to_owned());
                    }
                }
                "--policy" => opts.policy = value("--policy")?,
                "--out" => opts.out = Some(value("--out")?),
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|_| "threads must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("threads must be at least 1".to_owned());
                    }
                    opts.threads = Some(n);
                }
                "--edge-threads" => {
                    let n: usize = value("--edge-threads")?
                        .parse()
                        .map_err(|_| "edge-threads must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("edge-threads must be at least 1".to_owned());
                    }
                    opts.edge_threads = Some(n);
                }
                "--telemetry" => opts.telemetry = Some(value("--telemetry")?),
                "--profile" => opts.profile = Some(value("--profile")?),
                "--svg-dir" => opts.svg_dir = Some(value("--svg-dir")?),
                "--tolerance" => {
                    let t: f64 = value("--tolerance")?
                        .parse()
                        .map_err(|_| "tolerance must be a number".to_owned())?;
                    if !t.is_finite() || t < 0.0 {
                        return Err("tolerance must be non-negative".to_owned());
                    }
                    opts.tolerance = t;
                }
                "--faults" => opts.faults = Some(value("--faults")?),
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "seed must be a non-negative integer".to_owned())?;
                }
                "--checkpoint" => opts.daemon.checkpoint = Some(value("--checkpoint")?),
                "--checkpoint-every" => {
                    let n: usize = value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| "checkpoint-every must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("checkpoint-every must be at least 1".to_owned());
                    }
                    opts.daemon.checkpoint_every = Some(n);
                }
                "--resume" => opts.daemon.resume = Some(value("--resume")?),
                "--wal" => opts.daemon.wal = Some(value("--wal")?),
                "--wal-sync" => opts.daemon.wal_sync = value("--wal-sync")?.parse()?,
                "--max-line-bytes" => {
                    let n: usize = value("--max-line-bytes")?
                        .parse()
                        .map_err(|_| "max-line-bytes must be a positive integer".to_owned())?;
                    if n < 64 {
                        return Err("max-line-bytes must be at least 64 (a minimal \
                                    request line must fit)"
                            .to_owned());
                    }
                    opts.daemon.max_line_bytes = n;
                }
                "--max-bad-lines" => {
                    opts.daemon.max_bad_lines = value("--max-bad-lines")?
                        .parse()
                        .map_err(|_| "max-bad-lines must be a non-negative integer".to_owned())?;
                }
                "--halt-at-slot" => {
                    let k: usize = value("--halt-at-slot")?
                        .parse()
                        .map_err(|_| "halt-at-slot must be a positive integer".to_owned())?;
                    if k == 0 {
                        return Err("halt-at-slot must be at least 1 (slot 0 \
                                    has not been served yet)"
                            .to_owned());
                    }
                    opts.daemon.halt_at_slot = Some(k);
                }
                "--slot-requests" => {
                    let n: usize = value("--slot-requests")?
                        .parse()
                        .map_err(|_| "slot-requests must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("slot-requests must be at least 1".to_owned());
                    }
                    opts.daemon.slot_requests = Some(n);
                }
                "--slot-ms" => {
                    let ms: u64 = value("--slot-ms")?
                        .parse()
                        .map_err(|_| "slot-ms must be a positive integer".to_owned())?;
                    if ms == 0 {
                        return Err("slot-ms must be at least 1".to_owned());
                    }
                    opts.daemon.slot_ms = Some(ms);
                }
                "--listen" => opts.listen = Some(value("--listen")?),
                "--admin" => opts.admin = Some(value("--admin")?),
                "--ready-deadline-ms" => {
                    let ms: u64 = value("--ready-deadline-ms")?
                        .parse()
                        .map_err(|_| "ready-deadline-ms must be a positive integer".to_owned())?;
                    if ms == 0 {
                        return Err("ready-deadline-ms must be at least 1".to_owned());
                    }
                    opts.ready_deadline_ms = ms;
                }
                "--interval-ms" => {
                    let ms: u64 = value("--interval-ms")?
                        .parse()
                        .map_err(|_| "interval-ms must be a positive integer".to_owned())?;
                    if ms == 0 {
                        return Err("interval-ms must be at least 1".to_owned());
                    }
                    opts.interval_ms = ms;
                }
                "--iterations" => {
                    let n: u64 = value("--iterations")?
                        .parse()
                        .map_err(|_| "iterations must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("iterations must be at least 1".to_owned());
                    }
                    opts.iterations = Some(n);
                }
                "--process" => opts.process = value("--process")?,
                "--start-slot" => {
                    opts.start_slot = value("--start-slot")?
                        .parse()
                        .map_err(|_| "start-slot must be a non-negative integer".to_owned())?;
                }
                "--slots" => {
                    let n: usize = value("--slots")?
                        .parse()
                        .map_err(|_| "slots must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("slots must be at least 1".to_owned());
                    }
                    opts.slots = Some(n);
                }
                "--peak" => {
                    let p: f64 = value("--peak")?
                        .parse()
                        .map_err(|_| "peak must be a number".to_owned())?;
                    if !p.is_finite() || p <= 0.0 {
                        return Err("peak must be positive and finite".to_owned());
                    }
                    opts.peak = Some(p);
                }
                "--strict" => opts.strict = true,
                "--quick" => opts.quick = true,
                "--quantized" => opts.quantized = true,
                other if !other.starts_with('-') => opts.inputs.push(other.to_owned()),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(opts)
    }

    /// The seed list `1..=seeds`.
    #[must_use]
    pub fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).expect("empty is fine");
        assert_eq!(o.edges, 10);
        assert_eq!(o.task, TaskKind::MnistLike);
        assert!(!o.quick);
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--task",
            "cifar",
            "--edges",
            "20",
            "--seeds",
            "7",
            "--policy",
            "ucb-ly",
            "--quick",
            "--quantized",
            "--out",
            "x.tsv",
        ])
        .expect("valid");
        assert_eq!(o.task, TaskKind::CifarLike);
        assert_eq!(o.edges, 20);
        assert_eq!(o.seed_list(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(o.policy, "ucb-ly");
        assert!(o.quick && o.quantized);
        assert_eq!(o.out.as_deref(), Some("x.tsv"));
    }

    #[test]
    fn threads_and_telemetry() {
        let o = parse(&["--threads", "4", "--telemetry", "trace.jsonl"]).expect("valid");
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.telemetry.as_deref(), Some("trace.jsonl"));
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "four"]).is_err());
    }

    #[test]
    fn edge_threads_flag() {
        let o = parse(&["--edge-threads", "4"]).expect("valid");
        assert_eq!(o.edge_threads, Some(4));
        assert!(parse(&[]).expect("defaults").edge_threads.is_none());
        assert!(parse(&["--edge-threads", "0"]).is_err());
        assert!(parse(&["--edge-threads", "many"]).is_err());
        assert!(parse(&["--edge-threads"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["--nope"]).is_err());
        // Reference-path and tuning switches are not flags.
        for args in [
            &["--serve-per-request"][..],
            &["--wire-decode", "strict"],
            &["--gate-batch", "16"],
        ] {
            assert_eq!(
                parse(args).unwrap_err(),
                format!("unknown flag '{}'", args[0])
            );
        }
    }

    #[test]
    fn report_flags_and_positional_inputs() {
        let o = parse(&[
            "trace.jsonl",
            "--strict",
            "--profile",
            "prof.jsonl",
            "--svg-dir",
            "charts",
        ])
        .expect("valid");
        assert_eq!(o.inputs, vec!["trace.jsonl".to_owned()]);
        assert!(o.strict);
        assert_eq!(o.profile.as_deref(), Some("prof.jsonl"));
        assert_eq!(o.svg_dir.as_deref(), Some("charts"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--edges"]).is_err());
        assert!(parse(&["--edges", "zero"]).is_err());
        assert!(parse(&["--edges", "0"]).is_err());
    }

    #[test]
    fn faults_flag_takes_a_path() {
        let o = parse(&["--faults", "scenarios/ci_smoke.json"]).expect("valid");
        assert_eq!(o.faults.as_deref(), Some("scenarios/ci_smoke.json"));
        assert!(parse(&[]).expect("defaults").faults.is_none());
        assert!(parse(&["--faults"]).is_err());
    }

    #[test]
    fn serve_flags() {
        let o = parse(&[
            "--seed",
            "7",
            "--checkpoint",
            "state.ckpt",
            "--checkpoint-every",
            "5",
            "--resume",
            "old.ckpt",
            "--halt-at-slot",
            "12",
            "--slot-requests",
            "64",
            "--slot-ms",
            "250",
            "--listen",
            "unix:/tmp/serve.sock",
        ])
        .expect("valid");
        assert_eq!(o.seed, 7);
        assert_eq!(o.daemon.checkpoint.as_deref(), Some("state.ckpt"));
        assert_eq!(o.daemon.checkpoint_every, Some(5));
        assert_eq!(o.daemon.resume.as_deref(), Some("old.ckpt"));
        assert_eq!(o.daemon.halt_at_slot, Some(12));
        assert_eq!(o.daemon.slot_requests, Some(64));
        assert_eq!(o.daemon.slot_ms, Some(250));
        assert_eq!(o.listen.as_deref(), Some("unix:/tmp/serve.sock"));

        let d = parse(&[]).expect("defaults");
        assert_eq!(d.seed, 1);
        assert!(d.daemon.checkpoint.is_none() && d.daemon.resume.is_none());
        assert!(d.daemon.checkpoint_every.is_none() && d.daemon.halt_at_slot.is_none());
        assert!(d.daemon.slot_requests.is_none() && d.daemon.slot_ms.is_none());
        assert!(d.listen.is_none());

        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--halt-at-slot", "0"]).is_err());
        assert!(parse(&["--slot-requests", "0"]).is_err());
        assert!(parse(&["--slot-ms", "0"]).is_err());
        assert!(parse(&["--seed", "minus-one"]).is_err());
    }

    #[test]
    fn wal_and_ingest_hardening_flags() {
        let o = parse(&[
            "--wal",
            "state.wal",
            "--wal-sync",
            "every",
            "--max-line-bytes",
            "4096",
            "--max-bad-lines",
            "0",
        ])
        .expect("valid");
        assert_eq!(o.daemon.wal.as_deref(), Some("state.wal"));
        assert_eq!(o.daemon.wal_sync, cne_core::wal::SyncPolicy::Every);
        assert_eq!(o.daemon.max_line_bytes, 4096);
        assert_eq!(o.daemon.max_bad_lines, 0);

        let d = parse(&[]).expect("defaults");
        assert!(d.daemon.wal.is_none());
        assert_eq!(d.daemon.wal_sync, cne_core::wal::SyncPolicy::Slot);
        assert_eq!(d.daemon.max_line_bytes, DEFAULT_MAX_LINE_BYTES);
        assert_eq!(d.daemon.max_bad_lines, DEFAULT_MAX_BAD_LINES);

        assert!(parse(&["--wal-sync", "sometimes"]).is_err());
        assert!(
            parse(&["--max-line-bytes", "12"]).is_err(),
            "below the floor"
        );
        assert!(parse(&["--max-line-bytes", "big"]).is_err());
        assert!(parse(&["--max-bad-lines", "-1"]).is_err());
        assert!(parse(&["--wal"]).is_err());
    }

    #[test]
    fn admin_and_watch_flags() {
        let o = parse(&[
            "--admin",
            "tcp:127.0.0.1:9100",
            "--ready-deadline-ms",
            "2500",
            "--interval-ms",
            "500",
            "--iterations",
            "3",
        ])
        .expect("valid");
        assert_eq!(o.admin.as_deref(), Some("tcp:127.0.0.1:9100"));
        assert_eq!(o.ready_deadline_ms, 2500);
        assert_eq!(o.interval_ms, 500);
        assert_eq!(o.iterations, Some(3));

        let d = parse(&[]).expect("defaults");
        assert!(d.admin.is_none());
        assert_eq!(d.ready_deadline_ms, 5000);
        assert_eq!(d.interval_ms, 1000);
        assert!(d.iterations.is_none());

        assert!(parse(&["--ready-deadline-ms", "0"]).is_err());
        assert!(parse(&["--interval-ms", "0"]).is_err());
        assert!(parse(&["--iterations", "0"]).is_err());
        assert!(parse(&["--admin"]).is_err());
    }

    #[test]
    fn gen_arrivals_flags() {
        let o = parse(&[
            "--process",
            "heavy-tail",
            "--slots",
            "24",
            "--start-slot",
            "8",
            "--peak",
            "200",
        ])
        .expect("valid");
        assert_eq!(o.process, "heavy-tail");
        assert_eq!(o.slots, Some(24));
        assert_eq!(o.start_slot, 8);
        assert_eq!(o.peak, Some(200.0));

        let d = parse(&[]).expect("defaults");
        assert_eq!(d.process, "diurnal");
        assert_eq!(d.start_slot, 0);
        assert!(d.slots.is_none() && d.peak.is_none());

        assert!(parse(&["--slots", "0"]).is_err());
        assert!(parse(&["--peak", "-3"]).is_err());
        assert!(parse(&["--peak", "inf"]).is_err());
    }

    #[test]
    fn tolerance_flag() {
        let o = parse(&["--tolerance", "0.1"]).expect("valid");
        assert!((o.tolerance - 0.1).abs() < 1e-12);
        let d = parse(&[]).expect("defaults");
        assert!((d.tolerance - 0.25).abs() < 1e-12);
        assert!(parse(&["--tolerance", "-0.5"]).is_err());
        assert!(parse(&["--tolerance", "NaN"]).is_err());
        assert!(parse(&["--tolerance", "much"]).is_err());
    }
}
