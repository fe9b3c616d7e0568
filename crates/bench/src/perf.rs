//! The `run_all --bench` benchmark mode: reproducible wall-clock
//! measurements of the three hot paths, written as machine-readable
//! `BENCH_*.json` files.
//!
//! Five paths are timed, each with the [`cne_util::span`] profiler:
//!
//! * **slot serving** in `edgesim::env` — a fixed-placement policy run
//!   over the Fig. 14 runtime-vs-edges grid (each edge's sample draw
//!   and the served table's fold included), wrapped in a single
//!   stopwatch span; at the largest fleet a [`ServeSession`] fed the
//!   same arrivals must reproduce the batch run's
//!   [`cne_edgesim::RunRecord`] bit for bit;
//! * **Tsallis-INF weight solves** in `cne-bandit` — repeated
//!   [`tsallis_weights_into`] solves over a drifting loss vector, cold
//!   versus warm-started;
//! * **primal–dual steps** in `cne-trading` — Algorithm 2's
//!   decide/observe pair over a synthetic price series;
//! * **offline trading solves** in `cne-trading` — the parametric
//!   greedy optimum and its dense-simplex cross-check;
//! * **streaming serve** in `cne-core::serve` — `Ours` driven
//!   slot-by-slot through a [`ServeSession`], plus the checkpoint
//!   encode cost and a hard-floored mid-run resume equivalence check.
//!
//! Output schema (`cne-bench/v1`), shared by every `BENCH_*.json`
//! file:
//!
//! ```json
//! {"schema":"cne-bench/v1","mode":"quick","entries":[
//!   {"name":"slot_loop/batched/edges=8","metric":"us_per_slot",
//!    "value":12.5,"better":"lower","gate":true},
//!   {"name":"slot_loop/identical/edges=50","metric":"bool",
//!    "value":1.0,"better":"higher","min":1.0}]}
//! ```
//!
//! Entries with a `min` are absolute floors on machine-independent
//! ratios (speedup, equivalence); entries with `gate: true` are
//! compared against a committed baseline within a relative tolerance
//! by `carbon-edge bench-check`; `gate: false` entries are recorded
//! for trend analysis but never fail the gate. Wall-clock medians over
//! several repetitions damp scheduler noise.

use std::hint::black_box;

use cne_bandit::omd::tsallis_weights_into;
use cne_core::combos::Combo;
use cne_core::{Checkpoint, ServeOptions, ServeSession};
use cne_edgesim::policy::{Policy, SlotFeedback};
use cne_edgesim::Environment;
use cne_market::TradeBounds;
use cne_nn::ModelZoo;
use cne_simdata::dataset::TaskKind;
use cne_simdata::workload::DiurnalWorkload;
use cne_trading::offline::{
    offline_optimal_trades, offline_optimal_trades_lp, OfflineError, OfflinePlan,
};
use cne_trading::policy::{TradeContext, TradeObservation, TradingPolicy};
use cne_trading::{PrimalDual, PrimalDualConfig};
use cne_util::json::Json;
use cne_util::span::Profiler;
use cne_util::telemetry::Recorder;
use cne_util::units::{Allowances, PricePerAllowance};
use cne_util::SeedSequence;
use rand::Rng;

use crate::Scale;

/// One measured quantity in a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stable identifier, e.g. `"slot_loop/batched/edges=8"`.
    pub name: String,
    /// Unit tag, e.g. `"us_per_slot"` or `"ratio"`.
    pub metric: String,
    /// The measured value (median over repetitions for timings).
    pub value: f64,
    /// `"lower"` or `"higher"` — which direction is an improvement.
    pub better: &'static str,
    /// Whether `bench-check` compares this entry against the baseline
    /// within its relative tolerance.
    pub gate: bool,
    /// Absolute floor: the entry fails whenever `value` drops below
    /// (independent of any baseline).
    pub min: Option<f64>,
}

impl BenchEntry {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("metric".to_owned(), Json::Str(self.metric.clone())),
            ("value".to_owned(), Json::Float(self.value)),
            ("better".to_owned(), Json::Str(self.better.to_owned())),
            ("gate".to_owned(), Json::Bool(self.gate)),
        ];
        if let Some(m) = self.min {
            obj.push(("min".to_owned(), Json::Float(m)));
        }
        Json::Obj(obj)
    }
}

/// A benchmark report: the mode it ran at plus its entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Measured entries, in emission order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serializes the report as a `cne-bench/v1` JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str("cne-bench/v1".to_owned())),
            ("mode".to_owned(), Json::Str(self.mode.clone())),
            (
                "entries".to_owned(),
                Json::Arr(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
        ])
        .encode()
    }

    /// Parses a `cne-bench/v1` JSON document.
    ///
    /// # Errors
    /// Returns a description of the first structural problem.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = cne_util::json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) != Some("cne-bench/v1") {
            return Err("not a cne-bench/v1 document".to_owned());
        }
        let mode = doc
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("missing 'mode'")?
            .to_owned();
        let mut entries = Vec::new();
        for item in doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("missing 'entries' array")?
        {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or("entry missing 'name'")?
                .to_owned();
            let value = item
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry '{name}' missing numeric 'value'"))?;
            if !value.is_finite() {
                return Err(format!("entry '{name}' has non-finite value"));
            }
            let better = match item.get("better").and_then(Json::as_str) {
                Some("higher") => "higher",
                _ => "lower",
            };
            entries.push(BenchEntry {
                name,
                metric: item
                    .get("metric")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                value,
                better,
                gate: item.get("gate").and_then(Json::as_bool).unwrap_or(false),
                min: item.get("min").and_then(Json::as_f64),
            });
        }
        Ok(Self { mode, entries })
    }
}

/// A fixed-placement policy that never trades — serving is the only
/// per-slot work, which makes the serve span a clean measurement of
/// the environment's hot path.
struct FixedPlacement {
    model: usize,
    edges: usize,
}

impl Policy for FixedPlacement {
    fn select_models(&mut self, _t: usize) -> Vec<usize> {
        vec![self.model; self.edges]
    }
    fn select_models_into(&mut self, _t: usize, out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.edges, self.model);
    }
    fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
        (Allowances::ZERO, Allowances::ZERO)
    }
    fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
    fn name(&self) -> String {
        "fixed".into()
    }
}

/// Median of a non-empty sample (mean of the middle pair for even
/// sizes).
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Microseconds per slot for one fixed-placement run. The run itself
/// is unprofiled: a single stopwatch span wraps the whole loop, so the
/// entry times the serve path and nothing else.
fn timed_serve_run(env: &Environment<'_>, model: usize) -> f64 {
    let mut policy = FixedPlacement {
        model,
        edges: env.num_edges(),
    };
    let mut stopwatch = Profiler::new();
    stopwatch.enter("serve_run");
    let _ = env.run(&mut policy);
    stopwatch.exit();
    stopwatch.total_us("serve_run") / env.horizon() as f64
}

/// Times the slot-serving path over the edge sweep and appends its
/// entries. At the largest fleet it also checks that a
/// [`ServeSession`] fed the batch environment's arrivals slot by slot
/// reproduces `env.run`'s record (the `identical` entry, floored at
/// 1.0).
fn bench_slot_loop(scale: &Scale, zoo: &ModelZoo, reps: usize, entries: &mut Vec<BenchEntry>) {
    const SEED: u64 = 7;
    let task = TaskKind::MnistLike;
    let model = zoo.best_by_expected_loss();
    // Always include the paper's largest fleet (50 edges) so the serve
    // loop is measured at the scale the edge-parallel suite targets,
    // even at the reduced quick sweep.
    let mut sweep = scale.edges_sweep.clone();
    if !sweep.contains(&50) {
        sweep.push(50);
    }
    let largest = *sweep.last().expect("non-empty edge sweep");
    for &edges in &sweep {
        let config = scale.config(task, edges);
        let seed = SeedSequence::new(SEED);
        let env = Environment::new(config.clone(), zoo, &seed.derive("env"));
        let slot_us: Vec<f64> = (0..reps).map(|_| timed_serve_run(&env, model)).collect();
        entries.push(BenchEntry {
            name: format!("slot_loop/batched/edges={edges}"),
            metric: "us_per_slot".to_owned(),
            value: median(slot_us),
            better: "lower",
            gate: true,
            min: None,
        });
        if edges == largest {
            // The bench configuration attaches no fault scenario, so the
            // realized workload is the raw arrival stream.
            let mut policy = Combo::ours().build(&env, &seed.derive("alg"));
            let batch_record = env.run(&mut policy);
            let mut session =
                ServeSession::new(config, zoo, SEED, Combo::ours(), &ServeOptions::default());
            for t in 0..env.horizon() {
                let row: Vec<u64> = (0..edges).map(|i| env.workload(i).arrivals(t)).collect();
                session.push_slot(&row);
            }
            let identical = session.finish().record == batch_record;
            entries.push(BenchEntry {
                name: format!("slot_loop/identical/edges={edges}"),
                metric: "bool".to_owned(),
                value: if identical { 1.0 } else { 0.0 },
                better: "higher",
                gate: false,
                min: Some(1.0),
            });
        }
    }
}

/// Times cold and warm-started Tsallis-INF normalization solves on a
/// drifting cumulative-loss vector the size of the model zoo.
fn bench_tsallis(zoo_size: usize, reps: usize, entries: &mut Vec<BenchEntry>) {
    const SOLVES: usize = 2_000;
    let arms = zoo_size.max(2);
    let losses_at = |k: usize| -> Vec<f64> {
        (0..arms)
            .map(|n| 0.1 * k as f64 * (1.0 + 0.3 * n as f64))
            .collect()
    };
    let eta_at = |k: usize| 1.0 / ((k + 1) as f64).sqrt();

    let mut cold_us = Vec::with_capacity(reps);
    let mut warm_us = Vec::with_capacity(reps);
    let mut buf = Vec::new();
    for _ in 0..reps {
        let mut p = Profiler::new();
        p.enter("cold");
        for k in 0..SOLVES {
            let _ = tsallis_weights_into(&losses_at(k), eta_at(k), None, &mut buf);
        }
        p.exit();
        cold_us.push(p.total_us("cold") / SOLVES as f64);

        let mut p = Profiler::new();
        let mut warm = None;
        p.enter("warm");
        for k in 0..SOLVES {
            warm = Some(tsallis_weights_into(
                &losses_at(k),
                eta_at(k),
                warm,
                &mut buf,
            ));
        }
        p.exit();
        warm_us.push(p.total_us("warm") / SOLVES as f64);
    }
    let cold = median(cold_us);
    let warm = median(warm_us);
    entries.push(BenchEntry {
        name: "tsallis/cold".to_owned(),
        metric: "us_per_solve".to_owned(),
        value: cold,
        better: "lower",
        gate: false,
        min: None,
    });
    entries.push(BenchEntry {
        name: "tsallis/warm".to_owned(),
        metric: "us_per_solve".to_owned(),
        value: warm,
        better: "lower",
        gate: false,
        min: None,
    });
    entries.push(BenchEntry {
        name: "tsallis/warm_speedup".to_owned(),
        metric: "ratio".to_owned(),
        value: cold / warm,
        better: "higher",
        gate: false,
        min: None,
    });
}

/// Times Algorithm 2's decide/observe pair over a synthetic price
/// series.
fn bench_primal_dual(horizon: usize, reps: usize, entries: &mut Vec<BenchEntry>) {
    const STEPS: usize = 20_000;
    let bounds = TradeBounds::new(Allowances::new(5.0), Allowances::new(5.0));
    let mut step_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut pd = PrimalDual::with_horizon(PrimalDualConfig::theorem2(horizon, 8.4, 6.0), STEPS);
        let mut p = Profiler::new();
        p.enter("pd");
        for t in 0..STEPS {
            let phase = (t % 40) as f64 / 40.0;
            let buy = PricePerAllowance::new(7.0 + 2.0 * phase);
            let sell = PricePerAllowance::new(0.9 * (7.0 + 2.0 * phase));
            let ctx = TradeContext {
                buy_price: buy,
                sell_price: sell,
                cap_share: 3.0,
                bounds,
            };
            let (z, w) = pd.decide(t, &ctx);
            pd.observe(
                t,
                &TradeObservation {
                    emissions: 3.2 + phase,
                    bought: z,
                    sold: w,
                    buy_price: buy,
                    sell_price: sell,
                    cap_share: 3.0,
                },
            );
        }
        p.exit();
        step_us.push(p.total_us("pd") / STEPS as f64);
    }
    entries.push(BenchEntry {
        name: "primal_dual/step".to_owned(),
        metric: "us_per_step".to_owned(),
        value: median(step_us),
        better: "lower",
        gate: false,
        min: None,
    });
}

/// Times the offline trading optimum — the parametric greedy
/// ([`offline_optimal_trades`]) at growing horizons and the dense
/// simplex it is cross-checked against ([`offline_optimal_trades_lp`])
/// at the horizons it can still solve — over a seeded price series.
/// Recorded for trend analysis, never gated.
fn bench_offline(reps: usize, entries: &mut Vec<BenchEntry>) {
    type Solver = fn(&[f64], &[f64], f64, f64, f64) -> Result<OfflinePlan, OfflineError>;
    let solvers: [(&str, Solver, &[usize], usize); 2] = [
        ("greedy", offline_optimal_trades, &[160, 640, 2560], 200),
        ("simplex", offline_optimal_trades_lp, &[20, 40], 10),
    ];
    for (name, solve, horizons, solves) in solvers {
        for &t in horizons {
            let mut rng = SeedSequence::new(5).rng();
            let buy: Vec<f64> = (0..t).map(|_| rng.gen_range(5.9..10.9)).collect();
            let sell: Vec<f64> = buy.iter().map(|&c| 0.9 * c).collect();
            let mut solve_us = Vec::with_capacity(reps);
            for _ in 0..reps {
                let mut p = Profiler::new();
                p.enter("solve");
                for _ in 0..solves {
                    let plan = solve(
                        black_box(&buy),
                        black_box(&sell),
                        t as f64 * 2.0,
                        40.0,
                        20.0,
                    );
                    black_box(plan.expect("feasible"));
                }
                p.exit();
                solve_us.push(p.total_us("solve") / solves as f64);
            }
            entries.push(BenchEntry {
                name: format!("offline/{name}/T={t}"),
                metric: "us_per_solve".to_owned(),
                value: median(solve_us),
                better: "lower",
                gate: false,
                min: None,
            });
        }
    }
}

/// The streaming serve daemon's hot path: `Ours` driven slot-by-slot
/// through a [`ServeSession`] over exactly the arrivals a batch run of
/// the same seed would draw.
///
/// Determinism first, mirroring the other suites: the served record
/// must equal the batch run's, and the session is checkpointed
/// mid-run, round-tripped through the on-disk encoding, resumed, and
/// byte-compared (record + telemetry trace) against the uninterrupted
/// session — the `resume_identical` entry
/// carries a hard 1.0 floor. The timed entries then measure the
/// per-slot ingest cost, the full checkpoint encode, and the streaming
/// overhead versus the batch driver's `env.run` on the same arrivals.
fn bench_serve_loop(scale: &Scale, zoo: &ModelZoo, reps: usize, entries: &mut Vec<BenchEntry>) {
    const SEED: u64 = 7;
    let edges = scale.default_edges;
    let config = scale.config(TaskKind::MnistLike, edges);
    let horizon = config.horizon;
    // Stream exactly the raw arrivals a batch run of this seed would
    // draw, so the serve session and `env.run` do identical work (the
    // overhead ratio is apples-to-apples and the records must match).
    let env_seed = SeedSequence::new(SEED).derive("env");
    let workload = DiurnalWorkload::new(config.workload);
    let per_edge: Vec<Vec<u64>> = (0..edges)
        .map(|i| {
            workload
                .trace(i, &env_seed.derive("workload"))
                .counts()
                .to_vec()
        })
        .collect();
    let arrivals: Vec<Vec<u64>> = (0..horizon)
        .map(|t| per_edge.iter().map(|row| row[t]).collect())
        .collect();

    let mut identical = true;
    {
        let env = Environment::new(config.clone(), zoo, &env_seed);
        let mut policy = Combo::ours().build(&env, &SeedSequence::new(SEED).derive("alg"));
        let batch_record = env.run(&mut policy);
        let opts = ServeOptions::default();
        let mut session = ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
        for row in &arrivals {
            session.push_slot(row);
        }
        identical &= session.finish().record == batch_record;
    }
    {
        let opts = ServeOptions {
            edge_threads: 1,
            telemetry: true,
            ..ServeOptions::default()
        };
        let mut full = ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
        for row in &arrivals {
            full.push_slot(row);
        }
        let full_out = full.finish();

        let mut head = ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
        for row in &arrivals[..horizon / 2] {
            head.push_slot(row);
        }
        let text = head.checkpoint().expect("Ours checkpoints").encode();
        let ckpt = Checkpoint::parse(&text).expect("well-formed checkpoint");
        let mut tail = ServeSession::resume(config.clone(), zoo, Combo::ours(), &ckpt, &opts)
            .expect("resume from own checkpoint");
        for row in &arrivals[horizon / 2..] {
            tail.push_slot(row);
        }
        let out = tail.finish();
        identical &= ckpt.encode() == text
            && out.record == full_out.record
            && out.telemetry.map(|r| r.to_jsonl_string())
                == full_out.telemetry.map(|r| r.to_jsonl_string());
    }
    entries.push(BenchEntry {
        name: format!("serve_loop/resume_identical/edges={edges}"),
        metric: "bool".to_owned(),
        value: if identical { 1.0 } else { 0.0 },
        better: "higher",
        gate: false,
        min: Some(1.0),
    });

    let mut push_us = Vec::with_capacity(reps);
    let mut ckpt_us = Vec::with_capacity(reps);
    let mut batch_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut session = ServeSession::new(
            config.clone(),
            zoo,
            SEED,
            Combo::ours(),
            &ServeOptions::default(),
        );
        let mut stopwatch = Profiler::new();
        stopwatch.enter("serve");
        for row in &arrivals {
            session.push_slot(row);
        }
        stopwatch.exit();
        push_us.push(stopwatch.total_us("serve") / horizon as f64);

        let mut stopwatch = Profiler::new();
        stopwatch.enter("ckpt");
        let text = session.checkpoint().expect("Ours checkpoints").encode();
        stopwatch.exit();
        assert!(!text.is_empty());
        ckpt_us.push(stopwatch.total_us("ckpt"));

        // A cold batch replay over the same arrivals, for the overhead
        // ratio, construction included. Both sides draw every sample
        // inside their stepper.
        let seed = SeedSequence::new(SEED);
        let mut stopwatch = Profiler::new();
        stopwatch.enter("batch");
        let env = Environment::new(config.clone(), zoo, &seed.derive("env"));
        let mut policy = Combo::ours().build(&env, &seed.derive("alg"));
        let _ = env.run(&mut policy);
        stopwatch.exit();
        batch_us.push(stopwatch.total_us("batch") / horizon as f64);
    }
    let push = median(push_us);
    entries.push(BenchEntry {
        name: format!("serve_loop/push_slot/edges={edges}"),
        metric: "us_per_slot".to_owned(),
        value: push,
        better: "lower",
        gate: true,
        min: None,
    });
    entries.push(BenchEntry {
        name: format!("serve_loop/checkpoint/edges={edges}"),
        metric: "us_per_checkpoint".to_owned(),
        value: median(ckpt_us),
        better: "lower",
        gate: true,
        min: None,
    });
    entries.push(BenchEntry {
        name: format!("serve_loop/overhead/edges={edges}"),
        metric: "ratio".to_owned(),
        value: push / median(batch_us),
        better: "lower",
        gate: false,
        min: None,
    });

    // The admin endpoint re-renders the full Prometheus exposition
    // page after every slot, so its cost rides the serve hot loop:
    // time one render of a completed traced run's recorder.
    let opts = ServeOptions {
        telemetry: true,
        ..ServeOptions::default()
    };
    let mut session = ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
    for row in &arrivals {
        session.push_slot(row);
    }
    let trace = session.telemetry().expect("telemetry is on");
    let mut render_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut stopwatch = Profiler::new();
        stopwatch.enter("render");
        let page = cne_util::expo::render(&[trace]).expect("a run trace renders");
        stopwatch.exit();
        assert!(!page.is_empty());
        render_us.push(stopwatch.total_us("render"));
    }
    entries.push(BenchEntry {
        name: format!("serve_loop/exposition_render/edges={edges}"),
        metric: "us_per_render".to_owned(),
        value: median(render_us),
        better: "lower",
        gate: false,
        min: None,
    });

    bench_wal(&config, zoo, &arrivals, reps, entries);
}

/// The arrival WAL riding the serve hot loop: framing/append cost per
/// record (fsync off — the policies only add `fsync(2)` latency, which
/// is machine noise, not code cost), and a hard-floored recovery
/// equivalence check: a log torn mid-frame, recovered through
/// `Wal::open` → `replay` → `apply_wal_tail`, must finish bit-identical
/// to the uninterrupted session.
fn bench_wal(
    config: &cne_edgesim::SimConfig,
    zoo: &ModelZoo,
    arrivals: &[Vec<u64>],
    reps: usize,
    entries: &mut Vec<BenchEntry>,
) {
    use cne_core::wal::{self, GroupCommit, SyncPolicy, Wal, WalOptions, WalRecord};

    const SEED: u64 = 7;
    let edges = config.num_edges;
    let horizon = config.horizon;
    // The daemon's record stream when each slot's lines (one per edge
    // with traffic) arrive in one block: one group-committed sums frame
    // and one close per slot.
    let mut batch = GroupCommit::new(edges);
    let mut records = Vec::new();
    for (t, row) in arrivals.iter().enumerate() {
        for (e, &c) in row.iter().enumerate() {
            if c > 0 {
                batch.add(e, c);
            }
        }
        records.extend(batch.take(t as u64));
        records.push(WalRecord::SlotClose { slot: t as u64 });
    }
    let dir = std::env::temp_dir().join(format!("cne-bench-wal-{}", std::process::id()));

    let mut append_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        let options = WalOptions {
            sync: SyncPolicy::Off,
            ..WalOptions::default()
        };
        let (mut handle, _) = Wal::open(&dir, options).expect("open bench WAL");
        let mut stopwatch = Profiler::new();
        stopwatch.enter("wal");
        for record in &records {
            handle.append(record).expect("append");
        }
        stopwatch.exit();
        append_us.push(stopwatch.total_us("wal") / records.len() as f64);
    }
    entries.push(BenchEntry {
        name: format!("serve_loop/wal_append/edges={edges}"),
        metric: "us_per_record".to_owned(),
        value: median(append_us),
        better: "lower",
        gate: false,
        min: None,
    });

    // Recovery equivalence over the log the timing loop just wrote,
    // torn a few bytes into its final frame.
    let opts = ServeOptions {
        telemetry: true,
        ..ServeOptions::default()
    };
    let mut full = ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
    for row in arrivals {
        full.push_slot(row);
    }
    let full_out = full.finish();

    let seg = dir.join("wal-00000001.log");
    let bytes = std::fs::read(&seg).expect("read bench WAL");
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear bench WAL");
    let (_, recovery) = Wal::open(&dir, WalOptions::default()).expect("recover bench WAL");
    let identical = recovery.torn.is_some()
        && wal::replay(&recovery.records, edges, 0)
            .map(|tail| {
                let mut session =
                    ServeSession::new(config.clone(), zoo, SEED, Combo::ours(), &opts);
                session
                    .apply_wal_tail(&tail)
                    .expect("tail continues slot 0");
                for row in &arrivals[session.next_slot()..horizon] {
                    session.push_slot(row);
                }
                let out = session.finish();
                out.record == full_out.record
                    && out.telemetry.map(|r| r.to_jsonl_string())
                        == full_out.telemetry.as_ref().map(Recorder::to_jsonl_string)
            })
            .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&dir);
    entries.push(BenchEntry {
        name: format!("serve_loop/wal_recovery_identical/edges={edges}"),
        metric: "bool".to_owned(),
        value: if identical { 1.0 } else { 0.0 },
        better: "higher",
        gate: false,
        min: Some(1.0),
    });
}

/// The daemon's front door: wire-decode throughput over a generated
/// canonical request stream. The fast path is what `carbon-edge
/// serve` runs per block line (`wire::decode_fast`, zero-alloc); the
/// strict path replays the pre-block-reader daemon's per-line work —
/// one owned buffer per line, UTF-8 validation, trim, and the generic
/// JSON reference decoder — so the speedup entry is the ingest
/// engine's req/sec headline against its predecessor.
fn bench_ingest(scale: &Scale, reps: usize, entries: &mut Vec<BenchEntry>) {
    use cne_core::wire;

    let edges = scale.default_edges;
    // A canonical stream of the two wire shapes, the same mix
    // `gen-arrivals` emits: request lines with a slot_end every 97th.
    const LINES: usize = 200_000;
    let mut stream = Vec::with_capacity(LINES * 28);
    let mut state = 0x243F_6A88_85A3_08D3_u64;
    for k in 0..LINES {
        if k % 97 == 96 {
            stream.extend_from_slice(b"{\"slot_end\":true}\n");
            continue;
        }
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let edge = (state >> 33) as usize % edges;
        let count = (state >> 12) % 1_000 + 1;
        stream.extend_from_slice(format!("{{\"edge\":{edge},\"count\":{count}}}\n").as_bytes());
    }

    // Fold the decoded values into a checksum so the work cannot be
    // optimized away, and so both paths provably decode identically.
    let drive = |decode_line: &dyn Fn(&[u8]) -> Option<wire::WireMsg>| -> (u64, f64) {
        let mut checksum = 0u64;
        let mut stopwatch = Profiler::new();
        stopwatch.enter("ingest");
        for raw in stream.split_inclusive(|&b| b == b'\n') {
            let line = match raw.last() {
                Some(b'\n') => &raw[..raw.len() - 1],
                _ => raw,
            };
            match decode_line(line).expect("canonical stream decodes") {
                wire::WireMsg::Request { edge, count } => {
                    checksum = checksum
                        .wrapping_mul(31)
                        .wrapping_add(edge as u64)
                        .wrapping_add(count);
                }
                wire::WireMsg::SlotEnd => checksum = checksum.wrapping_mul(37),
            }
        }
        stopwatch.exit();
        (checksum, stopwatch.total_us("ingest"))
    };

    let fast_line = |line: &[u8]| wire::decode_fast(line, edges);
    let strict_line = |line: &[u8]| {
        // The old daemon's per-line pipeline: owned buffer, UTF-8
        // check, trim, reference JSON decode.
        let owned = line.to_vec();
        let text = std::str::from_utf8(&owned).ok()?;
        wire::decode_strict(text.trim(), edges).ok()
    };

    let mut fast_us = Vec::with_capacity(reps);
    let mut strict_us = Vec::with_capacity(reps);
    let mut identical = true;
    for _ in 0..reps {
        let (sum_f, us_f) = drive(&fast_line);
        let (sum_s, us_s) = drive(&strict_line);
        identical &= sum_f == sum_s;
        fast_us.push(us_f);
        strict_us.push(us_s);
    }
    let req_per_s = |us: f64| LINES as f64 / (us * 1e-6);
    let fast = median(fast_us);
    let strict = median(strict_us);
    entries.push(BenchEntry {
        name: format!("serve_loop/ingest_fast/edges={edges}"),
        metric: "req_per_s".to_owned(),
        value: req_per_s(fast),
        better: "higher",
        gate: true,
        min: None,
    });
    entries.push(BenchEntry {
        name: format!("serve_loop/ingest_strict/edges={edges}"),
        metric: "req_per_s".to_owned(),
        value: req_per_s(strict),
        better: "higher",
        gate: false,
        min: None,
    });
    entries.push(BenchEntry {
        name: format!("serve_loop/ingest_speedup/edges={edges}"),
        metric: "ratio".to_owned(),
        value: strict / fast,
        better: "higher",
        gate: false,
        min: Some(5.0),
    });
    entries.push(BenchEntry {
        name: format!("serve_loop/ingest_identical/edges={edges}"),
        metric: "bool".to_owned(),
        value: if identical { 1.0 } else { 0.0 },
        better: "higher",
        gate: false,
        min: Some(1.0),
    });
}

/// Full-system runs (environment + `Ours`) over the Fig. 14
/// runtime-vs-edges grid.
fn bench_e2e(scale: &Scale, zoo: &ModelZoo, reps: usize, entries: &mut Vec<BenchEntry>) {
    let task = TaskKind::MnistLike;
    for &edges in &scale.edges_sweep {
        let config = scale.config(task, edges);
        let seed = SeedSequence::new(7);
        let env = Environment::new(config, zoo, &seed.derive("env"));
        let mut us_per_slot = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut policy = Combo::ours().build(&env, &seed.derive("alg"));
            let mut profiler = Profiler::new();
            let _ = env.run_with(&mut policy, None, Some(&mut profiler));
            us_per_slot.push(profiler.total_us("run") / env.horizon() as f64);
        }
        entries.push(BenchEntry {
            name: format!("e2e/ours/edges={edges}"),
            metric: "us_per_slot".to_owned(),
            value: median(us_per_slot),
            better: "lower",
            gate: true,
            min: None,
        });
    }
}

/// The sequential engine at fleet scale: `Ours` over a fleet-size
/// grid from the paper's largest setting (50 edges) up to three orders
/// of magnitude beyond it (50 000 edges). The runs are untraced and
/// unprofiled, a single stopwatch around the whole horizon, mirroring
/// [`timed_serve_run`]. The entries keep their historical
/// `edge_parallel/…/threads=1` names so committed baselines stay
/// comparable; the sharded serve path is measured end to end by
/// `bench_daemon` (`engine.speedup_2w`).
fn bench_edge_parallel(scale: &Scale, zoo: &ModelZoo, reps: usize, entries: &mut Vec<BenchEntry>) {
    const EDGE_GRID: [usize; 4] = [50, 500, 5_000, 50_000];
    for &edges in &EDGE_GRID {
        let config = scale.config(TaskKind::MnistLike, edges);
        let seed = SeedSequence::new(7);
        let env = Environment::new(config, zoo, &seed.derive("env"));
        // Large fleets amortize per-slot noise across far more work, so
        // fewer reps buy the same stability — and keep the grid's total
        // wall-clock dominated by measurement, not repetition.
        let reps = if edges >= 5_000 { reps.min(2) } else { reps };
        let mut us_per_slot = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut policy = Combo::ours().build(&env, &seed.derive("alg"));
            let mut stopwatch = Profiler::new();
            stopwatch.enter("run");
            let _ = env.run(&mut policy);
            stopwatch.exit();
            us_per_slot.push(stopwatch.total_us("run") / env.horizon() as f64);
        }
        entries.push(BenchEntry {
            name: format!("edge_parallel/ours/edges={edges}/threads=1"),
            metric: "us_per_slot".to_owned(),
            value: median(us_per_slot),
            better: "lower",
            gate: true,
            min: None,
        });
    }
}

/// Runs the whole benchmark suite at the given scale and writes
/// `BENCH_slot_loop.json`, `BENCH_e2e.json`,
/// `BENCH_edge_parallel.json`, and `BENCH_serve.json` into its output
/// directory.
///
/// # Panics
/// Panics if the output directory cannot be written.
pub fn run_bench(scale: &Scale) {
    let mode = if scale.quick { "quick" } else { "full" };
    let reps = if scale.quick { 3 } else { 5 };
    eprintln!("[bench] perf suite ({mode} mode, {reps} reps/point)…");
    let zoo = scale.train_zoo(TaskKind::MnistLike);

    let mut slot_entries = Vec::new();
    bench_slot_loop(scale, &zoo, reps, &mut slot_entries);
    bench_tsallis(zoo.len(), reps, &mut slot_entries);
    bench_primal_dual(
        *scale.horizon_sweep.last().unwrap_or(&40),
        reps,
        &mut slot_entries,
    );
    bench_offline(reps, &mut slot_entries);
    let slot_report = BenchReport {
        mode: mode.to_owned(),
        entries: slot_entries,
    };

    let mut e2e_entries = Vec::new();
    bench_e2e(scale, &zoo, reps, &mut e2e_entries);
    let e2e_report = BenchReport {
        mode: mode.to_owned(),
        entries: e2e_entries,
    };

    let mut edge_parallel_entries = Vec::new();
    bench_edge_parallel(scale, &zoo, reps, &mut edge_parallel_entries);
    let edge_parallel_report = BenchReport {
        mode: mode.to_owned(),
        entries: edge_parallel_entries,
    };

    let mut serve_entries = Vec::new();
    bench_serve_loop(scale, &zoo, reps, &mut serve_entries);
    bench_ingest(scale, reps, &mut serve_entries);
    let serve_report = BenchReport {
        mode: mode.to_owned(),
        entries: serve_entries,
    };

    std::fs::create_dir_all(&scale.out_dir).expect("create output directory");
    for (file, report) in [
        ("BENCH_slot_loop.json", &slot_report),
        ("BENCH_e2e.json", &e2e_report),
        ("BENCH_edge_parallel.json", &edge_parallel_report),
        ("BENCH_serve.json", &serve_report),
    ] {
        let path = scale.out_dir.join(file);
        std::fs::write(&path, report.to_json_string() + "\n").expect("write bench report");
        eprintln!("[bench] wrote {}", path.display());
    }

    println!("benchmark ({mode})");
    for entry in slot_report
        .entries
        .iter()
        .chain(&e2e_report.entries)
        .chain(&edge_parallel_report.entries)
        .chain(&serve_report.entries)
    {
        println!(
            "  {:<38} {:>12.3} {}",
            entry.name, entry.value, entry.metric
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            mode: "quick".to_owned(),
            entries: vec![
                BenchEntry {
                    name: "slot_loop/batched/edges=8".to_owned(),
                    metric: "us_per_slot".to_owned(),
                    value: 12.5,
                    better: "lower",
                    gate: true,
                    min: None,
                },
                BenchEntry {
                    name: "slot_loop/identical/edges=50".to_owned(),
                    metric: "bool".to_owned(),
                    value: 1.0,
                    better: "higher",
                    gate: false,
                    min: Some(1.0),
                },
            ],
        };
        let text = report.to_json_string();
        assert_eq!(BenchReport::from_json_str(&text).unwrap(), report);
    }

    #[test]
    fn malformed_reports_rejected() {
        assert!(BenchReport::from_json_str("{}").is_err());
        assert!(BenchReport::from_json_str(r#"{"schema":"other/v1"}"#).is_err());
        assert!(BenchReport::from_json_str(
            r#"{"schema":"cne-bench/v1","mode":"quick","entries":[{"name":"x"}]}"#
        )
        .is_err());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
