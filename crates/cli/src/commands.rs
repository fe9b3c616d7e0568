//! The CLI subcommands.

use std::io::Write as _;

use cne_core::combos::Combo;
use cne_core::runner::{evaluate_many_with, EvalOptions, EvalReport, PolicySpec};
use cne_edgesim::SimConfig;
use cne_faults::FaultScenario;
use cne_nn::{ModelZoo, ZooConfig, ZooKey};
use cne_util::span::{profile_sidecar_path, Profiler};
use cne_util::telemetry::Recorder;
use cne_util::SeedSequence;

use crate::args::Options;

/// Prints usage.
pub fn print_help() {
    println!(
        "carbon-edge — carbon-neutral edge AI inference simulator

USAGE:
  carbon-edge <command> [flags]

COMMANDS:
  run          evaluate one policy (default: ours) and print its summary
  compare      evaluate all 13 policies + Offline and print a ranked table
  serve        long-lived streaming daemon: read request lines from stdin
               or a socket, decide online, checkpoint/resume mid-run
  watch        live dashboard for a running serve daemon (scrapes its
               --admin endpoint, or reads an ops sidecar file)
  gen-arrivals emit a seeded JSONL request stream for serve (diurnal,
               bursty, or heavy-tail arrival process)
  report       analyze a telemetry trace: timings, regret vs theory, λ
  bench-check  compare a BENCH_*.json run against its committed baseline
  zoo          train and print the model zoo
  help         show this message

FLAGS:
  --task mnist|cifar    inference task              (default mnist)
  --edges N             number of edges             (default 10)
  --seeds K             seeds averaged, 1..=K       (default 3)
  --policy NAME         run: ours | offline | ucb-ly | ran-ran | …
  --quantized           extend the zoo with 8-bit quantized variants
  --quick               reduced fast-test scale (fast zoo, 40 slots)
  --out FILE.tsv        run: write the per-slot series to a TSV
  --threads N           worker threads for seed runs (default: the
                        CARBON_EDGE_THREADS env var, else all cores;
                        results are identical at any thread count)
  --edge-threads N      serve: edge lanes for each slot's serve phase
                        (default 1); records and traces are
                        bit-identical at any count
  --telemetry F.jsonl   write per-run JSONL traces (switches, trades,
                        violations, regret, envelope monitors); also
                        writes wall-clock span profiles to
                        F.profile.jsonl
  --profile F.jsonl     write the span-profile stream to this path
                        instead (timings are non-deterministic, so
                        they never share a file with the trace)
  --faults FILE.json    run/compare: inject a deterministic fault
                        scenario (edge outages, workload surges, model
                        download failures, lost feedback, market halts
                        and rejections); the schedule derives from the
                        run seed, so a (seed, scenario) pair replays
                        bit-identically at any thread count
  --strict              report: exit non-zero on envelope violations
  --svg-dir DIR         report: also render SVG charts into DIR
  --tolerance T         bench-check: relative tolerance for gated
                        wall-clock entries (default 0.25)
  --seed S              serve/gen-arrivals: the single run seed
                        (default 1)
  --slots T             serve: horizon override; gen-arrivals: slots to
                        emit (default 40)
  --listen ADDR         serve: read the request stream from unix:PATH
                        or tcp:HOST:PORT instead of stdin
  --slot-requests N     serve: close the open slot after N request
                        lines (an explicit slot_end closes it sooner)
  --slot-ms M           serve: close the open slot after M wall-clock
                        milliseconds (live mode; not replayable)
  --checkpoint FILE     serve: write controller+ledger+dual state here
  --checkpoint-every N  serve: rewrite the checkpoint every N slots
  --resume FILE         serve: continue bit-identically from a
                        checkpoint written by an earlier serve (with
                        --wal, also replays the WAL tail past it)
  --wal DIR             serve: append every arrival to a write-ahead
                        log in DIR before applying it, so --resume
                        recovers bit-identically even from SIGKILL
  --wal-sync POLICY     serve: WAL fsync policy — every (each frame),
                        slot (each slot close; default), off (kernel
                        writeback only; still SIGKILL-safe)
  --max-line-bytes N    serve: reject wire lines longer than N bytes
                        (default 65536; hostile input is discarded
                        without buffering it)
  --max-bad-lines N     serve: exit with an error after N rejected
                        wire lines (default 100; each is counted,
                        logged, and skipped — not fatal on its own)
  --halt-at-slot K      serve: checkpoint and exit once K slots are
                        served (planned handoffs, resume drills, CI)
  --admin ADDR          serve: expose /metrics, /healthz and /readyz on
                        unix:PATH or tcp:HOST:PORT, off the serve path
                        (traces stay byte-identical with it on or off);
                        with --telemetry, operational metrics are also
                        written to F.jsonl.ops.jsonl at exit
  --ready-deadline-ms N serve: /readyz turns 503 when no slot completed
                        for N ms (default 5000)
  --interval-ms N       watch: refresh every N ms (default 1000)
  --iterations N        watch: stop after N refreshes (default: forever)
  --process NAME        gen-arrivals: diurnal | bursty | heavy-tail
  --start-slot K        gen-arrivals: emit slots K.. only (a resume
                        tail; identical to the suffix of a full stream)
  --peak P              gen-arrivals: busiest-edge peak slot count
                        (default 120)

EXAMPLES:
  carbon-edge run --policy ours --edges 10 --seeds 5
  carbon-edge compare --quick --threads 4
  carbon-edge run --quick --telemetry trace.jsonl
  carbon-edge run --quick --faults scenarios/ci_smoke.json --telemetry trace.jsonl
  carbon-edge gen-arrivals --edges 4 --slots 40 | carbon-edge serve \\
      --quick --edges 4 --telemetry served.jsonl
  carbon-edge serve --quick --checkpoint state.ckpt --checkpoint-every 10
  carbon-edge serve --quick --checkpoint state.ckpt --checkpoint-every 10 \\
      --wal state.wal --wal-sync slot
  carbon-edge serve --quick --resume state.ckpt --wal state.wal \\
      --telemetry served.jsonl
  carbon-edge serve --quick --admin tcp:127.0.0.1:9100 &
  carbon-edge watch --admin tcp:127.0.0.1:9100 --interval-ms 500
  carbon-edge report trace.jsonl --strict
  carbon-edge bench-check results/BENCH_e2e.json /tmp/bench/BENCH_e2e.json
  carbon-edge zoo --task cifar --quantized"
    );
}

/// What the CLI's zoo is a function of: the task, `--quick` and
/// `--quantized`, over the fixed zoo seed.
pub(crate) fn zoo_key(opts: &Options) -> ZooKey {
    ZooKey {
        task: opts.task,
        config: if opts.quick {
            ZooConfig::fast()
        } else {
            ZooConfig::default()
        },
        seed: SeedSequence::new(2025),
        quantized_bits: opts.quantized.then_some(8),
    }
}

pub(crate) fn build_zoo(opts: &Options) -> ModelZoo {
    eprintln!("training the {} model zoo…", opts.task.name());
    zoo_key(opts).train()
}

pub(crate) fn build_config(opts: &Options) -> Result<SimConfig, String> {
    let mut cfg = if opts.quick {
        let mut cfg = SimConfig::fast_test(opts.task);
        cfg.num_edges = opts.edges;
        cfg
    } else {
        SimConfig::paper_default(opts.task, opts.edges)
    };
    cfg.faults = load_fault_scenario(opts.faults.as_deref())?;
    cfg.validate()?;
    Ok(cfg)
}

/// Loads `--faults SCENARIO.json` into a validated scenario, mapping
/// I/O and schema failures to actionable messages.
fn load_fault_scenario(path: Option<&str>) -> Result<Option<FaultScenario>, String> {
    let Some(path) = path else { return Ok(None) };
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read fault scenario {path}: {e}\n\
             hint: pass --faults a JSON file like scenarios/ci_smoke.json \
             (all fields optional, e.g. {{\"edge_outage_rate\": 0.05}})"
        )
    })?;
    let scenario = FaultScenario::from_json_str(&text).map_err(|e| {
        format!(
            "fault scenario {path} is invalid: {e}\n\
             hint: see scenarios/ci_smoke.json or the FaultScenario docs \
             for the schema (rates in [0, 1], integer retry/backoff knobs)"
        )
    })?;
    Ok(Some(scenario))
}

fn parse_spec(name: &str) -> Result<PolicySpec, String> {
    if name.eq_ignore_ascii_case("offline") {
        return Ok(PolicySpec::Offline);
    }
    name.parse::<Combo>()
        .map(PolicySpec::Combo)
        .map_err(|e| e.to_string())
}

fn eval_options(opts: &Options) -> EvalOptions {
    EvalOptions {
        threads: opts.threads,
        telemetry: opts.telemetry.is_some(),
        profile: opts.profile.is_some() || opts.telemetry.is_some(),
        progress: true,
    }
}

/// Writes every run's recorder to one JSONL file, in `(spec, seed)`
/// order, and prints a confirmation line.
pub(crate) fn write_telemetry(path: &str, recorders: &[Recorder]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut sink = std::io::BufWriter::new(file);
    for rec in recorders {
        rec.write_jsonl(&mut sink)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    sink.flush()
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "telemetry    : {} run traces written to {path}",
        recorders.len()
    );
    Ok(())
}

/// Writes every run's span profiler to the requested `--profile` path,
/// or to the telemetry file's `.profile.jsonl` sidecar. Timing data is
/// non-deterministic, which is why it never shares a file with the
/// trace.
fn write_profiles(opts: &Options, profiles: &[Profiler]) -> Result<(), String> {
    let path = match (&opts.profile, &opts.telemetry) {
        (Some(path), _) => path.clone(),
        (None, Some(trace)) => profile_sidecar_path(trace),
        (None, None) => return Ok(()),
    };
    if profiles.is_empty() {
        return Ok(());
    }
    let file = std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut sink = std::io::BufWriter::new(file);
    for prof in profiles {
        prof.write_jsonl(&mut sink)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    sink.flush()
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "profiles     : {} span profiles written to {path}",
        profiles.len()
    );
    Ok(())
}

/// `carbon-edge run`.
pub fn run(opts: &Options) -> Result<(), String> {
    let spec = parse_spec(&opts.policy)?;
    let config = build_config(opts)?;
    let zoo = build_zoo(opts);
    let EvalReport {
        results,
        telemetry,
        profiles,
    } = evaluate_many_with(
        &config,
        &zoo,
        &opts.seed_list(),
        std::slice::from_ref(&spec),
        &eval_options(opts),
    );
    let result = &results[0];

    println!("policy       : {}", result.name);
    println!(
        "system       : {} edges, {} slots, cap {}, {} models, {} seeds",
        config.num_edges,
        config.horizon,
        config.cap.get(),
        zoo.len(),
        opts.seeds
    );
    println!(
        "total cost   : {:.1} ± {:.1}",
        result.mean_total_cost, result.std_total_cost
    );
    println!("violation    : {:.2} allowances", result.mean_violation);
    println!("switches     : {:.1}", result.mean_switches);
    println!(
        "unit price   : {:.2} ¢/allowance bought",
        result.mean_unit_purchase_cost
    );
    let mean_acc =
        result.mean_accuracy.iter().sum::<f64>() / result.mean_accuracy.len().max(1) as f64;
    println!("accuracy     : {mean_acc:.3}");
    if opts.telemetry.is_some() {
        println!(
            "envelopes    : {} theorem-envelope violations",
            result.envelope_violations
        );
    }

    if let Some(path) = &opts.out {
        let mut f =
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        writeln!(f, "t\tcumulative_cost\taccuracy\tnet_purchase\tarrivals")
            .map_err(|e| e.to_string())?;
        for t in 0..config.horizon {
            writeln!(
                f,
                "{t}\t{:.6}\t{:.6}\t{:.6}\t{:.1}",
                result.mean_cumulative_cost[t],
                result.mean_accuracy[t],
                result.mean_net_purchase[t],
                result.mean_arrivals[t]
            )
            .map_err(|e| e.to_string())?;
        }
        println!("series       : written to {path}");
    }
    if let Some(path) = &opts.telemetry {
        write_telemetry(path, &telemetry)?;
    }
    write_profiles(opts, &profiles)?;
    Ok(())
}

/// `carbon-edge compare`.
pub fn compare(opts: &Options) -> Result<(), String> {
    let config = build_config(opts)?;
    let zoo = build_zoo(opts);
    let mut specs: Vec<PolicySpec> = Combo::all_baselines()
        .into_iter()
        .map(PolicySpec::Combo)
        .collect();
    specs.push(PolicySpec::Combo(Combo::ours()));
    specs.push(PolicySpec::Offline);

    let EvalReport {
        results,
        telemetry,
        profiles,
    } = evaluate_many_with(
        &config,
        &zoo,
        &opts.seed_list(),
        &specs,
        &eval_options(opts),
    );
    let mut rows: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.mean_total_cost,
                r.mean_violation,
                r.mean_switches,
                r.envelope_violations,
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    if let Some(path) = &opts.telemetry {
        write_telemetry(path, &telemetry)?;
    }
    write_profiles(opts, &profiles)?;

    println!(
        "\n{:<12} {:>12} {:>11} {:>10} {:>10}",
        "policy", "total cost", "violation", "switches", "envelopes"
    );
    for (name, cost, violation, switches, envelopes) in &rows {
        println!("{name:<12} {cost:>12.1} {violation:>11.2} {switches:>10.1} {envelopes:>10}");
    }
    Ok(())
}

/// `carbon-edge zoo`.
pub fn zoo(opts: &Options) -> Result<(), String> {
    let zoo = build_zoo(opts);
    println!(
        "{:<16} {:>8} {:>8} {:>12} {:>10} {:>9} {:>9}",
        "model", "E[loss]", "acc", "φ kWh/sample", "lat ms", "size MB", "params"
    );
    for m in zoo.models() {
        println!(
            "{:<16} {:>8.3} {:>8.3} {:>12.2e} {:>10.0} {:>9.2} {:>9}",
            m.profile.name,
            m.eval.expected_loss(),
            m.eval.accuracy(),
            m.profile.energy_per_sample.get(),
            m.profile.base_latency.get(),
            m.profile.size.get(),
            m.profile.param_count,
        );
    }
    Ok(())
}
