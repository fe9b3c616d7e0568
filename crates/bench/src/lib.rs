//! Shared harness for the figure-regeneration binaries and the
//! `run_all --bench` wall-clock suite ([`perf`]).
//!
//! Every figure of the paper's Section V has a binary in `src/bin/`
//! (`fig03` … `fig14`), plus ablations (`ablate_*`), future-work
//! extensions (`ext_*`), and `render_figs` (TSV → SVG). Each binary:
//!
//! * accepts `--quick` (or `CNE_QUICK=1`) to run a reduced-scale smoke
//!   version, and `--out <dir>` to redirect the TSV output (default
//!   `results/`);
//! * prints its series to stdout **and** writes a TSV file named after
//!   the figure;
//! * states which paper claim it regenerates in its header comment.
//!
//! Run everything with `cargo run --release -p cne-bench --bin run_all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod plot;

use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};

use cne_core::combos::{Combo, SelectorKind, TraderKind};
use cne_core::runner::{evaluate_many_with, EvalOptions, EvalResult, PolicySpec};
use cne_edgesim::SimConfig;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_util::span::{profile_sidecar_path, Profiler};
use cne_util::telemetry::Recorder;
use cne_util::units::Allowances;
use cne_util::SeedSequence;

/// Experiment scale selected from the command line / environment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Whether this is the reduced smoke-test scale.
    pub quick: bool,
    /// Seeds to average over (paper: 10 runs).
    pub seeds: Vec<u64>,
    /// Zoo training configuration.
    pub zoo: ZooConfig,
    /// Default number of edges.
    pub default_edges: usize,
    /// Edge-count sweep (Figs. 4, 14).
    pub edges_sweep: Vec<usize>,
    /// Horizon sweep (Figs. 10–11).
    pub horizon_sweep: Vec<usize>,
    /// Output directory for TSV files.
    pub out_dir: PathBuf,
    /// Worker threads for the multi-seed driver (`--threads`; `None`
    /// defers to `CARBON_EDGE_THREADS`, then machine parallelism).
    pub threads: Option<usize>,
    /// JSONL telemetry sink (`--telemetry <file>`), shared by every
    /// [`Scale::evaluate_grid`] call of the binary.
    pub telemetry: Option<PathBuf>,
    /// JSONL sink for the wall-clock span-profile stream (`--profile
    /// <file>`; defaults to the telemetry file's `.profile.jsonl`
    /// sidecar). Timings are non-deterministic, so they never share a
    /// file with the trace.
    pub profile: Option<PathBuf>,
    /// Whether the telemetry file has been started (first grid call
    /// truncates, later calls append).
    telemetry_started: Cell<bool>,
    /// Same, for the span-profile file.
    profile_started: Cell<bool>,
}

impl Scale {
    /// Parses `--quick` / `--out <dir>` / `--threads <n>` /
    /// `--telemetry <file>` / `--profile <file>` from
    /// `std::env::args` and `CNE_QUICK` from the environment.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = args.iter().any(|a| a == "--quick")
            || std::env::var("CNE_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false);
        let value_of = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        let out_dir = value_of("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        let mut scale = Self::preset(quick, out_dir);
        scale.threads = value_of("--threads").map(|v| {
            let n: usize = v.parse().expect("--threads takes a positive integer");
            assert!(n >= 1, "--threads must be at least 1");
            n
        });
        scale.telemetry = value_of("--telemetry").map(PathBuf::from);
        scale.profile = value_of("--profile").map(PathBuf::from).or_else(|| {
            scale
                .telemetry
                .as_ref()
                .map(|t| PathBuf::from(profile_sidecar_path(&t.to_string_lossy())))
        });
        scale
    }

    /// Builds the preset for the given mode.
    #[must_use]
    pub fn preset(quick: bool, out_dir: PathBuf) -> Self {
        if quick {
            Self {
                quick,
                seeds: vec![1, 2],
                zoo: ZooConfig::fast(),
                default_edges: 4,
                edges_sweep: vec![4, 8],
                horizon_sweep: vec![40, 80],
                out_dir,
                threads: None,
                telemetry: None,
                profile: None,
                telemetry_started: Cell::new(false),
                profile_started: Cell::new(false),
            }
        } else {
            Self {
                quick,
                seeds: (1..=10).collect(),
                zoo: ZooConfig::default(),
                default_edges: 10,
                edges_sweep: vec![10, 20, 30, 40, 50],
                horizon_sweep: vec![40, 80, 160, 320, 640],
                out_dir,
                threads: None,
                telemetry: None,
                profile: None,
                telemetry_started: Cell::new(false),
                profile_started: Cell::new(false),
            }
        }
    }

    /// The [`EvalOptions`] this scale implies.
    #[must_use]
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            threads: self.threads,
            telemetry: self.telemetry.is_some(),
            profile: self.profile.is_some(),
            ..EvalOptions::default()
        }
    }

    /// Evaluates a policy grid via the parallel multi-seed driver,
    /// streaming per-run telemetry to the `--telemetry` file (if any;
    /// the first call truncates it, later calls append).
    ///
    /// # Panics
    /// Panics if `specs` or the seed list is empty, or if the
    /// telemetry file cannot be written.
    #[must_use]
    pub fn evaluate_grid(
        &self,
        config: &SimConfig,
        zoo: &ModelZoo,
        specs: &[PolicySpec],
    ) -> Vec<EvalResult> {
        let report = evaluate_many_with(config, zoo, &self.seeds, specs, &self.eval_options());
        self.write_recorders(&report.telemetry);
        self.write_profilers(&report.profiles);
        report.results
    }

    /// Appends run traces to the `--telemetry` file, if one was given
    /// (the first call of the process truncates it, later calls
    /// append). No-op without `--telemetry`.
    ///
    /// # Panics
    /// Panics if the telemetry file cannot be written.
    pub fn write_recorders(&self, recorders: &[Recorder]) {
        let Some(path) = &self.telemetry else {
            return;
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(self.telemetry_started.get())
            .truncate(!self.telemetry_started.get())
            .write(true)
            .open(path)
            .expect("open telemetry file");
        let mut sink = std::io::BufWriter::new(file);
        for rec in recorders {
            rec.write_jsonl(&mut sink).expect("write telemetry");
        }
        sink.flush().expect("flush telemetry");
        self.telemetry_started.set(true);
        eprintln!(
            "[bench] appended {} run traces to {}",
            recorders.len(),
            path.display()
        );
    }

    /// Appends span profiles to the `--profile` file (by default the
    /// telemetry file's `.profile.jsonl` sidecar); the first call of
    /// the process truncates it, later calls append. No-op without a
    /// profile sink.
    ///
    /// # Panics
    /// Panics if the profile file cannot be written.
    pub fn write_profilers(&self, profilers: &[Profiler]) {
        let Some(path) = &self.profile else {
            return;
        };
        if profilers.is_empty() {
            return;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(self.profile_started.get())
            .truncate(!self.profile_started.get())
            .write(true)
            .open(path)
            .expect("open profile file");
        let mut sink = std::io::BufWriter::new(file);
        for prof in profilers {
            prof.write_jsonl(&mut sink).expect("write profile");
        }
        sink.flush().expect("flush profile");
        self.profile_started.set(true);
        eprintln!(
            "[bench] appended {} span profiles to {}",
            profilers.len(),
            path.display()
        );
    }

    /// Trains (or reuses) the zoo for a task at this scale.
    #[must_use]
    pub fn train_zoo(&self, task: TaskKind) -> ModelZoo {
        eprintln!("[bench] training {} zoo…", task.name());
        ModelZoo::train(task, &self.zoo, &SeedSequence::new(2025))
    }

    /// The default configuration for this scale at `edges` edges.
    #[must_use]
    pub fn config(&self, task: TaskKind, edges: usize) -> SimConfig {
        if self.quick {
            let mut cfg = SimConfig::fast_test(task);
            cfg.num_edges = edges;
            cfg
        } else {
            SimConfig::paper_default(task, edges)
        }
    }

    /// A configuration stretched/cut to horizon `t` (for the Figs.
    /// 10–11 sweep), keeping the per-slot emission regime constant by
    /// scaling the cap with the horizon.
    #[must_use]
    pub fn config_with_horizon(&self, task: TaskKind, edges: usize, horizon: usize) -> SimConfig {
        let mut cfg = self.config(task, edges);
        let base_t = cfg.horizon as f64;
        cfg.workload.days = horizon.div_ceil(cfg.workload.slots_per_day);
        cfg.horizon = horizon;
        cfg.cap = Allowances::new(cfg.cap.get() * horizon as f64 / base_t);
        cfg
    }
}

/// Writes a TSV file (tab-separated, one header line) and echoes the
/// path to stderr.
///
/// # Panics
/// Panics if the directory cannot be created or the file written.
pub fn write_tsv(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create TSV file");
    writeln!(f, "{}", header.join("\t")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join("\t")).expect("write row");
    }
    eprintln!("[bench] wrote {}", path.display());
}

/// Formats a float for TSV output.
#[must_use]
pub fn fmt(x: f64) -> String {
    format!("{x:.6}")
}

/// The policy subset most figures display (the paper omits some of the
/// twelve for visual clarity).
#[must_use]
pub fn display_combos() -> Vec<Combo> {
    vec![
        Combo::ours(),
        Combo {
            selector: SelectorKind::Ucb2,
            trader: TraderKind::Lyapunov,
        },
        Combo {
            selector: SelectorKind::TsallisInf,
            trader: TraderKind::Lyapunov,
        },
        Combo {
            selector: SelectorKind::Greedy,
            trader: TraderKind::Lyapunov,
        },
        Combo {
            selector: SelectorKind::Random,
            trader: TraderKind::Random,
        },
    ]
}

/// Runs the accuracy-versus-time experiment shared by Figs. 12–13:
/// per-slot stream accuracy of `Ours`, `UCB-Ran`, `TINF-Ran`,
/// `Greedy-Ran`, and `Offline` on the given task, printed and written
/// to `file`.
pub fn accuracy_figure(scale: &Scale, task: TaskKind, file: &str) {
    let zoo = scale.train_zoo(task);
    let config = scale.config(task, scale.default_edges);

    let with_ran = |selector| {
        PolicySpec::Combo(Combo {
            selector,
            trader: TraderKind::Random,
        })
    };
    let specs = vec![
        PolicySpec::Combo(Combo::ours()),
        with_ran(SelectorKind::Ucb2),
        with_ran(SelectorKind::TsallisInf),
        with_ran(SelectorKind::Greedy),
        PolicySpec::Offline,
    ];

    let mut names = Vec::new();
    let mut series = Vec::new();
    for r in scale.evaluate_grid(&config, &zoo, &specs) {
        let mean_acc = r.mean_accuracy.iter().sum::<f64>() / r.mean_accuracy.len() as f64;
        println!("  {:<10} mean accuracy {:.3}", r.name, mean_acc);
        names.push(r.name);
        series.push(r.mean_accuracy);
    }

    let mut header = vec!["t".to_owned()];
    header.extend(names.iter().cloned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..config.horizon)
        .map(|t| {
            let mut row = vec![t.to_string()];
            row.extend(series.iter().map(|s| fmt(s[t])));
            row
        })
        .collect();
    write_tsv(&scale.out_dir, file, &header_refs, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ() {
        let quick = Scale::preset(true, PathBuf::from("/tmp/x"));
        let full = Scale::preset(false, PathBuf::from("/tmp/x"));
        assert!(quick.seeds.len() < full.seeds.len());
        assert_eq!(full.edges_sweep, vec![10, 20, 30, 40, 50]);
        assert_eq!(full.horizon_sweep, vec![40, 80, 160, 320, 640]);
    }

    #[test]
    fn horizon_config_scales_cap() {
        let s = Scale::preset(true, PathBuf::from("/tmp/x"));
        let base = s.config(TaskKind::MnistLike, 3);
        let stretched = s.config_with_horizon(TaskKind::MnistLike, 3, base.horizon * 4);
        assert_eq!(stretched.validate(), Ok(()));
        assert_eq!(stretched.horizon, base.horizon * 4);
        assert!((stretched.cap.get() - base.cap.get() * 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_subset_contains_ours() {
        let combos = display_combos();
        assert!(combos.contains(&Combo::ours()));
        assert!(combos.len() >= 4);
    }

    #[test]
    fn tsv_written() {
        let dir = std::env::temp_dir().join("cne-bench-test");
        write_tsv(&dir, "t.tsv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = std::fs::read_to_string(dir.join("t.tsv")).expect("readable");
        assert_eq!(content, "a\tb\n1\t2\n");
    }
}
