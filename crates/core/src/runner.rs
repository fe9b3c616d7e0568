//! Multi-seed experiment driver.
//!
//! All of the paper's reported numbers are averages of 10 seeded runs
//! (§V-B). [`evaluate`] realizes one environment per seed (shared by
//! every policy evaluated with the same seed list), runs the policy,
//! and aggregates the per-run metrics.
//!
//! # Threading model
//!
//! Every run is a pure function of `(seed, spec)`: the environment is
//! realized from `SeedSequence::new(seed).derive("env")` and the
//! policy from `…derive("alg")`, with no shared mutable state. The
//! driver therefore fans the `specs × seeds` job grid over a pool of
//! [`std::thread::scope`] workers and merges results back in fixed
//! `(spec, seed)` order, so aggregated metrics are **bit-identical at
//! every worker count**. The pool size comes from
//! [`EvalOptions::threads`], the `CARBON_EDGE_THREADS` environment
//! variable, or [`std::thread::available_parallelism`], in that order
//! (see [`resolve_threads`]).
//!
//! Each run itself is sequential: [`Environment::run_with`] steps a
//! one-lane `RunStepper` through the horizon. Only the serve daemon
//! shards a slot's serve phase across edge lanes (see
//! [`ServeOptions::edge_threads`](crate::ServeOptions::edge_threads)).
//!
//! # Telemetry and profiling
//!
//! With [`EvalOptions::telemetry`] set, each run carries a
//! [`Recorder`] through [`Environment::run_traced`], capturing model
//! switches, allowance trades, constraint violations, regret
//! decompositions, theorem-envelope monitor findings, and end-of-run
//! policy state — all deterministic functions of `(seed, spec)`, so
//! the trace is bit-identical at every worker count. Recorders come
//! back in the same fixed `(spec, seed)` order (see
//! [`EvalReport::telemetry`]).
//!
//! With [`EvalOptions::profile`] set, each run additionally carries a
//! wall-clock span [`Profiler`] through [`Environment::run_with`],
//! which times the `run/slot/{select,trade,serve,feedback}` stages.
//! Timing data is inherently non-deterministic, which is exactly why it
//! lives in this separate stream (see [`EvalReport::profiles`]) and
//! never touches the recorders.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cne_edgesim::{Environment, Policy, RunRecord, SimConfig};
use cne_nn::ModelZoo;
use cne_util::series::mean_series;
use cne_util::span::Profiler;
use cne_util::stats::OnlineStats;
use cne_util::telemetry::Recorder;
use cne_util::SeedSequence;

use crate::combos::Combo;
use crate::monitor::{self, MonitorConfig};
use crate::offline::OfflinePolicy;
use crate::regret;

/// Environment variable consulted for the worker count when
/// [`EvalOptions::threads`] is unset. Invalid or zero values are
/// ignored.
pub const THREADS_ENV_VAR: &str = "CARBON_EDGE_THREADS";

/// Which policy to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// A selector × trader combination (including `Ours`).
    Combo(Combo),
    /// The clairvoyant offline benchmark.
    Offline,
}

impl PolicySpec {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Combo(c) => c.name(),
            PolicySpec::Offline => "Offline".to_owned(),
        }
    }
}

/// Knobs for the multi-seed driver.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Worker threads. `None` defers to the `CARBON_EDGE_THREADS`
    /// environment variable, then to the machine's available
    /// parallelism.
    pub threads: Option<usize>,
    /// Collect a telemetry [`Recorder`] per run (see
    /// [`EvalReport::telemetry`]).
    pub telemetry: bool,
    /// Collect a wall-clock span [`Profiler`] per run (see
    /// [`EvalReport::profiles`]). Profiling never affects the
    /// deterministic telemetry stream.
    pub profile: bool,
    /// Print a progress line to stderr as each run completes.
    pub progress: bool,
}

/// The outcome of [`evaluate_many_with`]: aggregated results per spec
/// plus (optionally) per-run telemetry.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// One aggregated result per requested spec, in input order.
    pub results: Vec<EvalResult>,
    /// One recorder per `(spec, seed)` run, spec-major and seed-minor
    /// — i.e. `telemetry[s * seeds.len() + k]` belongs to `specs[s]`
    /// run with `seeds[k]`. Empty unless [`EvalOptions::telemetry`]
    /// was set.
    pub telemetry: Vec<Recorder>,
    /// One wall-clock span profiler per `(spec, seed)` run, in the
    /// same spec-major order as [`telemetry`](Self::telemetry). Empty
    /// unless [`EvalOptions::profile`] was set.
    pub profiles: Vec<Profiler>,
}

/// Aggregated metrics over the seed list.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Policy display name.
    pub name: String,
    /// Mean weighted total cost.
    pub mean_total_cost: f64,
    /// Sample standard deviation of the total cost.
    pub std_total_cost: f64,
    /// Mean terminal constraint violation (allowances).
    pub mean_violation: f64,
    /// Mean fit `[Σ g]⁺`.
    pub mean_fit: f64,
    /// Mean P1 regret + switching (weighted cost units).
    pub mean_p1_regret: f64,
    /// Mean P2 regret (cents).
    pub mean_p2_regret: f64,
    /// Mean total number of model downloads.
    pub mean_switches: f64,
    /// Mean average buy price actually paid (cents/allowance).
    pub mean_unit_purchase_cost: f64,
    /// Total theorem-envelope violations across the seed runs (see
    /// [`crate::monitor`]). Always 0 when telemetry is off — the
    /// monitors read the recorded event stream.
    pub envelope_violations: u64,
    /// Slot-wise mean cumulative cost curve.
    pub mean_cumulative_cost: Vec<f64>,
    /// Slot-wise mean accuracy curve.
    pub mean_accuracy: Vec<f64>,
    /// Slot-wise mean net allowance purchases.
    pub mean_net_purchase: Vec<f64>,
    /// Slot-wise mean arrivals (identical across policies at equal
    /// seeds; kept for the Fig. 9 overlay).
    pub mean_arrivals: Vec<f64>,
    /// Per-run records (one per seed), for custom analyses.
    pub records: Vec<RunRecord>,
}

/// Resolves the worker-thread count: explicit request, then the
/// `CARBON_EDGE_THREADS` environment variable, then the machine's
/// available parallelism (1 if unknown). Always at least 1.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(value) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds and runs a single policy instance on a fresh environment.
///
/// `seed` controls the environment realization *and* the policy's
/// internal randomness; two different specs evaluated with the same
/// seed see the same environment.
#[must_use]
pub fn run_single(config: &SimConfig, zoo: &ModelZoo, seed: u64, spec: &PolicySpec) -> RunRecord {
    run_job(config, zoo, seed, spec, &EvalOptions::default()).record
}

/// Everything one `(seed, spec)` run produces. `p1` is computed while
/// the environment is still alive (it needs the realized prices).
struct JobOutput {
    record: RunRecord,
    p1: f64,
    recorder: Option<Recorder>,
    profiler: Option<Profiler>,
    envelope_violations: u64,
}

/// One `(seed, spec)` run under `options`' instrumentation (its thread
/// and progress knobs act on the seed fan-out, not on the run).
fn run_job(
    config: &SimConfig,
    zoo: &ModelZoo,
    seed: u64,
    spec: &PolicySpec,
    options: &EvalOptions,
) -> JobOutput {
    let root = SeedSequence::new(seed);
    let env = Environment::new(config.clone(), zoo, &root.derive("env"));
    let mut recorder = options.telemetry.then(|| {
        let mut rec = Recorder::new();
        rec.set_label("policy", spec.name());
        rec.set_label("seed", seed.to_string());
        rec
    });
    let mut profiler = options.profile.then(|| {
        let mut p = Profiler::new();
        p.set_label("policy", spec.name());
        p.set_label("seed", seed.to_string());
        p
    });
    let mut policy: Box<dyn Policy> = match spec {
        PolicySpec::Combo(combo) => Box::new(combo.build(&env, &root.derive("alg"))),
        PolicySpec::Offline => Box::new(OfflinePolicy::plan(&env)),
    };
    let record = env.run_with(policy.as_mut(), recorder.as_mut(), profiler.as_mut());
    let (p1, envelope_violations) = finalize_run(config, &env, &record, spec, recorder.as_mut());
    JobOutput {
        record,
        p1,
        recorder,
        profiler,
        envelope_violations,
    }
}

/// Post-run finalization shared by the batch driver and the serve
/// daemon: computes the P1 regret (which needs the live environment's
/// realized prices), adds the regret-decomposition gauges to the
/// trace, and runs the theorem-envelope monitors. Returns the P1
/// regret and the number of envelope violations (always 0 without a
/// recorder — the monitors read the recorded event stream).
pub(crate) fn finalize_run(
    config: &SimConfig,
    env: &Environment<'_>,
    record: &RunRecord,
    spec: &PolicySpec,
    recorder: Option<&mut Recorder>,
) -> (f64, u64) {
    let p1 = regret::p1_regret_with_switching(env, record);
    let mut envelope_violations = 0;
    if let Some(rec) = recorder {
        rec.gauge("regret.p1_plus_switching", p1);
        rec.gauge(
            "regret.p2",
            regret::p2_regret(
                record,
                config.bounds.max_buy.get(),
                config.bounds.max_sell.get(),
            ),
        );
        rec.gauge("regret.fit", regret::fit(record));
        let summary = monitor::check_run(env, record, spec, &MonitorConfig::default(), rec);
        envelope_violations = summary.violations;
    }
    (p1, envelope_violations)
}

/// Folds seed-ordered run outputs into an [`EvalResult`], in exactly
/// the order the sequential driver historically used — aggregation
/// order is part of the determinism contract (floating-point addition
/// does not reassociate).
fn aggregate(
    config: &SimConfig,
    name: String,
    runs: Vec<(RunRecord, f64)>,
    envelope_violations: u64,
) -> EvalResult {
    let mut totals = OnlineStats::new();
    let mut violations = OnlineStats::new();
    let mut fits = OnlineStats::new();
    let mut p1 = OnlineStats::new();
    let mut p2 = OnlineStats::new();
    let mut switches = OnlineStats::new();
    let mut unit_costs = OnlineStats::new();
    let mut cumulative = Vec::new();
    let mut accuracy = Vec::new();
    let mut net_purchase = Vec::new();
    let mut arrivals = Vec::new();
    let mut records = Vec::with_capacity(runs.len());

    for (record, p1_value) in runs {
        totals.push(record.total_cost());
        violations.push(record.violation());
        fits.push(regret::fit(&record));
        p1.push(p1_value);
        p2.push(regret::p2_regret(
            &record,
            config.bounds.max_buy.get(),
            config.bounds.max_sell.get(),
        ));
        switches.push(record.total_switches() as f64);
        unit_costs.push(record.unit_purchase_cost());
        cumulative.push(record.cumulative_cost_series());
        accuracy.push(record.accuracy_series());
        net_purchase.push(record.net_purchase_series());
        arrivals.push(record.arrivals_series());
        records.push(record);
    }

    EvalResult {
        name,
        mean_total_cost: totals.mean(),
        std_total_cost: totals.sample_std(),
        mean_violation: violations.mean(),
        mean_fit: fits.mean(),
        mean_p1_regret: p1.mean(),
        mean_p2_regret: p2.mean(),
        mean_switches: switches.mean(),
        mean_unit_purchase_cost: unit_costs.mean(),
        envelope_violations,
        mean_cumulative_cost: mean_series(&cumulative),
        mean_accuracy: mean_series(&accuracy),
        mean_net_purchase: mean_series(&net_purchase),
        mean_arrivals: mean_series(&arrivals),
        records,
    }
}

/// Runs `spec` once per seed and aggregates.
///
/// Seed-runs execute in parallel (see the [module docs](self) for the
/// threading model); the result is bit-identical at any worker count.
///
/// # Examples
///
/// ```
/// use cne_core::{evaluate, Combo, PolicySpec};
/// use cne_edgesim::SimConfig;
/// use cne_nn::{ModelZoo, ZooConfig};
/// use cne_simdata::dataset::TaskKind;
/// use cne_util::SeedSequence;
///
/// let zoo = ModelZoo::train(TaskKind::MnistLike, &ZooConfig::fast(), &SeedSequence::new(20));
/// let cfg = SimConfig::fast_test(TaskKind::MnistLike);
/// let result = evaluate(&cfg, &zoo, &[1, 2], &PolicySpec::Combo(Combo::ours()));
/// assert_eq!(result.records.len(), 2);
/// assert!(result.mean_total_cost.is_finite());
/// ```
///
/// # Panics
/// Panics if `seeds` is empty.
#[must_use]
pub fn evaluate(
    config: &SimConfig,
    zoo: &ModelZoo,
    seeds: &[u64],
    spec: &PolicySpec,
) -> EvalResult {
    evaluate_with(config, zoo, seeds, spec, &EvalOptions::default())
}

/// [`evaluate`] with explicit [`EvalOptions`].
///
/// # Panics
/// Panics if `seeds` is empty.
#[must_use]
pub fn evaluate_with(
    config: &SimConfig,
    zoo: &ModelZoo,
    seeds: &[u64],
    spec: &PolicySpec,
    options: &EvalOptions,
) -> EvalResult {
    let mut report = evaluate_many_with(config, zoo, seeds, std::slice::from_ref(spec), options);
    report.results.pop().expect("one spec in, one result out")
}

/// Runs every spec of a policy grid across the seed list and
/// aggregates per spec.
///
/// The full `specs × seeds` job grid is one work queue, so a grid of
/// short and long policies still saturates the worker pool.
///
/// # Panics
/// Panics if `seeds` or `specs` is empty.
#[must_use]
pub fn evaluate_many(
    config: &SimConfig,
    zoo: &ModelZoo,
    seeds: &[u64],
    specs: &[PolicySpec],
) -> Vec<EvalResult> {
    evaluate_many_with(config, zoo, seeds, specs, &EvalOptions::default()).results
}

/// [`evaluate_many`] with explicit [`EvalOptions`], also returning
/// per-run telemetry when requested.
///
/// # Panics
/// Panics if `seeds` or `specs` is empty.
#[must_use]
pub fn evaluate_many_with(
    config: &SimConfig,
    zoo: &ModelZoo,
    seeds: &[u64],
    specs: &[PolicySpec],
    options: &EvalOptions,
) -> EvalReport {
    assert!(!seeds.is_empty(), "need at least one seed");
    assert!(!specs.is_empty(), "need at least one policy spec");

    let num_jobs = specs.len() * seeds.len();
    let threads = resolve_threads(options.threads).min(num_jobs);
    let job_spec = |job: usize| (job / seeds.len(), job % seeds.len());

    let mut outputs: Vec<Option<JobOutput>> = if threads <= 1 {
        (0..num_jobs)
            .map(|job| {
                let (s, k) = job_spec(job);
                let out = run_job(config, zoo, seeds[k], &specs[s], options);
                if options.progress {
                    report_progress(job + 1, num_jobs, &specs[s], seeds[k]);
                }
                Some(out)
            })
            .collect()
    } else {
        let slots: Vec<Mutex<Option<JobOutput>>> =
            (0..num_jobs).map(|_| Mutex::new(None)).collect();
        let next_job = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= num_jobs {
                        break;
                    }
                    let (s, k) = job_spec(job);
                    let out = run_job(config, zoo, seeds[k], &specs[s], options);
                    *slots[job].lock().expect("no panics while holding the lock") = Some(out);
                    if options.progress {
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        report_progress(done, num_jobs, &specs[s], seeds[k]);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker threads joined"))
            .collect()
    };

    // Merge in fixed (spec, seed) order. Workers may have finished in
    // any order; the aggregation below is what fixes determinism.
    let mut results = Vec::with_capacity(specs.len());
    let mut telemetry = Vec::new();
    let mut profiles = Vec::new();
    for (s, spec) in specs.iter().enumerate() {
        let mut runs = Vec::with_capacity(seeds.len());
        let mut envelope_violations = 0;
        for k in 0..seeds.len() {
            let out = outputs[s * seeds.len() + k]
                .take()
                .expect("every job ran exactly once");
            if let Some(rec) = out.recorder {
                telemetry.push(rec);
            }
            if let Some(prof) = out.profiler {
                profiles.push(prof);
            }
            envelope_violations += out.envelope_violations;
            runs.push((out.record, out.p1));
        }
        results.push(aggregate(config, spec.name(), runs, envelope_violations));
    }
    EvalReport {
        results,
        telemetry,
        profiles,
    }
}

fn report_progress(done: usize, total: usize, spec: &PolicySpec, seed: u64) {
    eprintln!("  [{done}/{total}] {} seed={seed}", spec.name());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;

    fn setup() -> (ModelZoo, SimConfig) {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(20),
        );
        (zoo, SimConfig::fast_test(TaskKind::MnistLike))
    }

    #[test]
    fn evaluate_aggregates_across_seeds() {
        let (zoo, cfg) = setup();
        let result = evaluate(&cfg, &zoo, &[1, 2, 3], &PolicySpec::Combo(Combo::ours()));
        assert_eq!(result.name, "Ours");
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.mean_cumulative_cost.len(), cfg.horizon);
        assert!(result.mean_total_cost.is_finite());
        assert!(result.mean_total_cost > 0.0);
    }

    #[test]
    fn same_seed_same_environment_across_specs() {
        let (zoo, cfg) = setup();
        let a = run_single(&cfg, &zoo, 7, &PolicySpec::Offline);
        let b = run_single(
            &cfg,
            &zoo,
            7,
            &PolicySpec::Combo(Combo {
                selector: crate::combos::SelectorKind::Greedy,
                trader: crate::combos::TraderKind::Threshold,
            }),
        );
        // Identical arrivals and prices prove the shared realization.
        for (x, y) in a.slots.iter().zip(&b.slots) {
            assert_eq!(x.arrivals, y.arrivals);
            assert_eq!(x.buy_price, y.buy_price);
        }
    }

    #[test]
    fn ours_beats_random_random() {
        let (zoo, cfg) = setup();
        let seeds = [1u64, 2, 3];
        let ours = evaluate(&cfg, &zoo, &seeds, &PolicySpec::Combo(Combo::ours()));
        let ran_ran = evaluate(
            &cfg,
            &zoo,
            &seeds,
            &PolicySpec::Combo(Combo {
                selector: crate::combos::SelectorKind::Random,
                trader: crate::combos::TraderKind::Random,
            }),
        );
        assert!(
            ours.mean_total_cost < ran_ran.mean_total_cost,
            "Ours ({}) must beat Ran-Ran ({})",
            ours.mean_total_cost,
            ran_ran.mean_total_cost
        );
    }

    #[test]
    fn offline_lower_bounds_ours() {
        let (zoo, cfg) = setup();
        let seeds = [4u64, 5];
        let offline = evaluate(&cfg, &zoo, &seeds, &PolicySpec::Offline);
        let ours = evaluate(&cfg, &zoo, &seeds, &PolicySpec::Combo(Combo::ours()));
        // Offline may not always dominate exactly (it satisfies the
        // constraint strictly while online may briefly violate), but at
        // the fast-test scale it should be no worse.
        assert!(
            offline.mean_total_cost <= ours.mean_total_cost * 1.05,
            "offline ({}) should not exceed ours ({}) materially",
            offline.mean_total_cost,
            ours.mean_total_cost
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (zoo, cfg) = setup();
        let seeds = [1u64, 2, 3, 4];
        let spec = PolicySpec::Combo(Combo::ours());
        let one = evaluate_with(
            &cfg,
            &zoo,
            &seeds,
            &spec,
            &EvalOptions {
                threads: Some(1),
                ..EvalOptions::default()
            },
        );
        let four = evaluate_with(
            &cfg,
            &zoo,
            &seeds,
            &spec,
            &EvalOptions {
                threads: Some(4),
                ..EvalOptions::default()
            },
        );
        assert_eq!(one, four, "results must be identical at any thread count");
    }

    #[test]
    fn evaluate_many_matches_individual_evaluates() {
        let (zoo, cfg) = setup();
        let seeds = [6u64, 7];
        let specs = [
            PolicySpec::Combo(Combo::ours()),
            PolicySpec::Offline,
            PolicySpec::Combo(Combo {
                selector: crate::combos::SelectorKind::Greedy,
                trader: crate::combos::TraderKind::Threshold,
            }),
        ];
        let grid = evaluate_many(&cfg, &zoo, &seeds, &specs);
        assert_eq!(grid.len(), specs.len());
        for (spec, from_grid) in specs.iter().zip(&grid) {
            let alone = evaluate(&cfg, &zoo, &seeds, spec);
            assert_eq!(&alone, from_grid, "grid result differs for {}", spec.name());
        }
    }

    #[test]
    fn telemetry_recorders_come_back_in_order() {
        let (zoo, cfg) = setup();
        let seeds = [8u64, 9];
        let specs = [PolicySpec::Combo(Combo::ours()), PolicySpec::Offline];
        let report = evaluate_many_with(
            &cfg,
            &zoo,
            &seeds,
            &specs,
            &EvalOptions {
                telemetry: true,
                ..EvalOptions::default()
            },
        );
        assert_eq!(report.telemetry.len(), specs.len() * seeds.len());
        for (i, rec) in report.telemetry.iter().enumerate() {
            let spec = &specs[i / seeds.len()];
            let seed = seeds[i % seeds.len()];
            let labels = rec.labels();
            assert_eq!(labels[0], ("policy".to_owned(), spec.name()));
            assert_eq!(labels[1], ("seed".to_owned(), seed.to_string()));
            assert_eq!(rec.counter("slots"), cfg.horizon as u64);
            assert!(rec.counter("switches") > 0, "every run downloads models");
            assert!(rec.gauge_value("total_cost").is_some());
        }
    }

    #[test]
    fn profiles_come_back_in_order_and_leave_telemetry_untouched() {
        let (zoo, cfg) = setup();
        let seeds = [8u64, 9];
        let specs = [PolicySpec::Combo(Combo::ours()), PolicySpec::Offline];
        let traced = evaluate_many_with(
            &cfg,
            &zoo,
            &seeds,
            &specs,
            &EvalOptions {
                telemetry: true,
                ..EvalOptions::default()
            },
        );
        let profiled = evaluate_many_with(
            &cfg,
            &zoo,
            &seeds,
            &specs,
            &EvalOptions {
                telemetry: true,
                profile: true,
                ..EvalOptions::default()
            },
        );
        assert_eq!(profiled.profiles.len(), specs.len() * seeds.len());
        for (i, prof) in profiled.profiles.iter().enumerate() {
            let spec = &specs[i / seeds.len()];
            let seed = seeds[i % seeds.len()];
            assert_eq!(prof.labels()[0], ("policy".to_owned(), spec.name()));
            assert_eq!(prof.labels()[1], ("seed".to_owned(), seed.to_string()));
            assert_eq!(prof.count("run"), 1, "one run span per job");
            assert_eq!(prof.count("run/slot"), cfg.horizon as u64);
        }
        assert_eq!(traced.results, profiled.results);
        for (a, b) in traced.telemetry.iter().zip(&profiled.telemetry) {
            assert_eq!(
                a.to_jsonl_string(),
                b.to_jsonl_string(),
                "profiling must not perturb the deterministic trace"
            );
        }
    }

    #[test]
    fn nominal_runs_trip_no_envelope_monitors() {
        let (zoo, cfg) = setup();
        let specs = [
            PolicySpec::Combo(Combo::ours()),
            PolicySpec::Combo(Combo {
                selector: crate::combos::SelectorKind::Greedy,
                trader: crate::combos::TraderKind::Threshold,
            }),
            PolicySpec::Offline,
        ];
        let report = evaluate_many_with(
            &cfg,
            &zoo,
            &[1u64, 2],
            &specs,
            &EvalOptions {
                telemetry: true,
                ..EvalOptions::default()
            },
        );
        for result in &report.results {
            assert_eq!(
                result.envelope_violations, 0,
                "{} tripped an envelope monitor",
                result.name
            );
        }
        for rec in &report.telemetry {
            assert_eq!(rec.counter("envelope.violations"), 0);
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to one worker");
        // No explicit request: whatever the fallback chain yields, it
        // must be a usable worker count. (The environment variable
        // branch is covered end-to-end by CI, which runs the suite
        // under CARBON_EDGE_THREADS=1 and =4.)
        assert!(resolve_threads(None) >= 1);
    }
}
