//! The per-layer run (`--trace 1`): a few daemon passes for the numbers
//! only the daemon has (its wall time on these inputs, the harness's
//! own costs, the real `/metrics` page), then in-process replays of the
//! same inputs, with spans and without.
//!
//! The durable layers (WAL, checkpoint) are measured on the replays
//! that have them: the uninterrupted ones when the workload's daemon
//! runs durably, and always the crash replay.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use cne_nn::ModelZoo;
use cne_util::json::Json;

use crate::measure::cores;
use crate::passes::{Bench, Summary};
use crate::replay::{self, Replay, Span, STAGES};
use crate::report::{Report, PER_LAYER};
use crate::stats::{median, percentile};
use crate::workload::{Stream, Workload};

/// Share of the run spent on daemon passes.
const DAEMON_SHARE: f64 = 0.35;

/// Share of the run after which replays of uninterrupted passes stop.
const REPLAY_SHARE: f64 = 0.75;

/// Fewest daemon passes, and fewest replays of each kind.
const MIN_EACH: usize = 2;

/// What a traced run needs besides the bench.
pub struct Inputs<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// The trained zoo.
    pub zoo: &'a ModelZoo,
    /// The run's inputs.
    pub stream: &'a Stream,
    /// The expected result.
    pub reference: &'a Summary,
    /// In-process zoo training time, ms.
    pub zoo_train_ms: f64,
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> Vec<f64> {
    spans
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

fn busy_ms(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Runs the traced workload for `budget`; writes every span to
/// `out/trace-<workload>.jsonl`.
///
/// # Errors
/// A message when a replay cannot run or the span file cannot be written.
pub fn trace(
    bench: &mut Bench<'_>,
    inp: &Inputs<'_>,
    root: &Path,
    out: &Path,
    budget: Duration,
) -> Result<Report, String> {
    let started = Instant::now();
    let share = |f: f64| budget.mul_f64(f);
    let mut report = Report::default();

    let mut passes = Vec::new();
    while passes.len() < MIN_EACH || started.elapsed() < share(DAEMON_SHARE) {
        passes.push(bench.pass());
    }
    let crash = bench.crash_pass();
    for p in &passes {
        report.count(p.lines, p.error.is_none());
    }
    report.count(crash.lines, crash.error.is_none());
    let passes: Vec<_> = passes.into_iter().filter(|p| p.error.is_none()).collect();

    let mut runs = 0usize;
    let mut fresh_dir = || {
        runs += 1;
        let dir = root.join(format!("r{runs}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok::<_, String>(dir)
    };
    let (w, zoo, stream, reference) = (inp.workload, inp.zoo, inp.stream, inp.reference);
    let mut traced: Vec<Replay> = Vec::new();
    let mut untraced: Vec<Replay> = Vec::new();
    while traced.len() < MIN_EACH || started.elapsed() < share(REPLAY_SHARE) {
        for on in [false, true] {
            let dir = fresh_dir()?;
            let run = replay::uninterrupted(w, zoo, stream, reference, &dir, on)?;
            let _ = std::fs::remove_dir_all(&dir);
            report.count(run.lines, run.correct);
            if on {
                traced.push(run)
            } else {
                untraced.push(run)
            }
        }
    }
    let dir = fresh_dir()?;
    let crashed = replay::crashed(w, zoo, stream, reference, &dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    report.count(crashed.lines, crashed.correct);

    let threads1 = replay::push_only(w, zoo, stream, 1, true);
    let threads2 = replay::push_only(w, zoo, stream, 2, true);
    let monitor_off = replay::push_only(w, zoo, stream, w.edge_threads, false);
    let monitor_on = if w.edge_threads == 1 {
        &threads1
    } else {
        &threads2
    };

    write_spans(out, w.name, &traced, &crashed)?;

    // Layers with durable state are measured where they run.
    let durable: Vec<&Replay> = if w.durable.is_some() {
        traced.iter().chain([&crashed]).collect()
    } else {
        vec![&crashed]
    };
    let durable_spans = || durable.iter().flat_map(|r| r.spans.iter());
    let main_spans = || traced.iter().flat_map(|r| r.spans.iter());
    let per_run = |runs: &[&Replay], f: &dyn Fn(&Replay) -> f64| {
        median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let traced_refs: Vec<&Replay> = traced.iter().collect();
    let first = &traced[0].tally;

    let t = &PER_LAYER;
    report.put(t, "zoo.train_ms", inp.zoo_train_ms);
    report.put(
        t,
        "session.new_ms",
        median(
            &traced
                .iter()
                .chain(&untraced)
                .map(|r| r.session_new_ms)
                .collect::<Vec<_>>(),
        ),
    );
    report.put(t, "wire.lines", first.lines as f64);
    report.put(
        t,
        "wire.decode_ns_per_line",
        per_run(&traced_refs, &|r| {
            busy_ms(&r.spans, &["wire.decode"]) * 1e6 / r.tally.lines as f64
        }),
    );
    report.put(
        t,
        "wire.fast_hit_frac",
        first.fast as f64 / first.lines as f64,
    );
    report.put(t, "wire.strict_lines", first.strict as f64);
    let strict: (u64, u64) = traced.iter().fold((0, 0), |(n, ns), r| {
        (n + r.tally.strict, ns + r.tally.strict_ns)
    });
    if strict.0 > 0 {
        report.note(
            "wire.strict_ns_per_line",
            strict.1 as f64 / strict.0 as f64,
            "ns",
        );
    }

    report.put(
        t,
        "wal.frames",
        per_run(&durable, &|r| r.tally.wal_frames as f64),
    );
    let wal_bytes: u64 = durable.iter().map(|r| r.tally.wal_bytes).sum();
    let wal_lines: u64 = durable.iter().map(|r| r.lines).sum();
    report.put(t, "wal.bytes_per_req", wal_bytes as f64 / wal_lines as f64);
    let appends = durations_us(durable_spans(), "wal.append");
    let syncs = durations_us(durable_spans(), "wal.sync");
    report.put(t, "wal.append_us_p50", percentile(&appends, 50.0));
    report.put(t, "wal.append_us_p99", percentile(&appends, 99.0));
    report.put(t, "wal.sync_us_p50", percentile(&syncs, 50.0));
    report.put(t, "wal.sync_us_p99", percentile(&syncs, 99.0));
    report.put(
        t,
        "wal.busy_ms",
        per_run(&durable, &|r| {
            busy_ms(
                &r.spans,
                &["wal.append", "wal.sync", "wal.install_checkpoint"],
            )
        }),
    );

    let pushes = durations_us(main_spans(), "session.push_slot");
    report.put(t, "session.push_slot_us_p50", percentile(&pushes, 50.0));
    report.put(t, "session.push_slot_us_p99", percentile(&pushes, 99.0));
    report.put(
        t,
        "session.busy_ms",
        per_run(&traced_refs, &|r| busy_ms(&r.spans, &["session.push_slot"])),
    );
    for (i, (stage, _)) in STAGES.iter().enumerate() {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.tally.stage_us[i].iter().copied())
            .collect();
        report.put(
            t,
            &format!("stage.{stage}_us_p50"),
            percentile(&samples, 50.0),
        );
    }
    report.put(
        t,
        "monitor.overhead_us_p50",
        percentile(monitor_on, 50.0) - percentile(&monitor_off, 50.0),
    );
    report.put(
        t,
        "session.push_slot_us_p50.threads1",
        percentile(&threads1, 50.0),
    );
    report.put(
        t,
        "session.push_slot_us_p50.threads2",
        percentile(&threads2, 50.0),
    );
    report.put(
        t,
        "engine.speedup_2w",
        threads1.iter().sum::<f64>() / threads2.iter().sum::<f64>(),
    );

    report.put(
        t,
        "checkpoint.count",
        per_run(&durable, &|r| r.tally.checkpoints.len() as f64),
    );
    let (mut sizes, mut encodes) = (Vec::new(), Vec::new());
    for ckpt in durable.iter().flat_map(|r| &r.tally.checkpoints) {
        let began = Instant::now();
        let text = ckpt.encode();
        encodes.push(began.elapsed().as_secs_f64() * 1e6);
        sizes.push(text.len() as f64);
    }
    report.put(t, "checkpoint.bytes", median(&sizes));
    report.put(t, "checkpoint.encode_us", median(&encodes));
    report.put(
        t,
        "checkpoint.save_us",
        median(&durations_us(durable_spans(), "checkpoint.save")),
    );

    for step in ["load", "resume", "wal_open", "replay", "apply_tail"] {
        let name = format!("recovery.{step}");
        let ms = durations_us(crashed.spans.iter(), &name);
        report.put(t, &format!("{name}_ms"), median(&ms) / 1e3);
    }

    report.put(
        t,
        "expo.render_us_p50",
        percentile(&durations_us(main_spans(), "expo.render"), 50.0),
    );
    let pages: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.page_bytes.iter().copied())
        .collect();
    report.put(t, "expo.page_bytes", median(&pages));
    report.put(
        t,
        "harness.send_ms",
        median(&passes.iter().map(|p| p.send_ms).collect::<Vec<_>>()),
    );
    let lags: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.gen_lag_us.iter().copied())
        .collect();
    report.put(t, "harness.gen_lag_p99_us", percentile(&lags, 99.0));
    let rtts: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.probe_rtt_us.iter().copied())
        .collect();
    report.put(t, "harness.probe_rtt_us_p50", percentile(&rtts, 50.0));

    report.put(
        t,
        "trace.coverage",
        per_run(&traced_refs, &|r| {
            let root_self = replay::self_times_ns(&r.spans)[0] as f64;
            1.0 - root_self / r.spans[0].dur_ns() as f64
        }),
    );
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let daemon_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.put(t, "trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    report.put(
        t,
        "trace.daemon_gap_frac",
        1.0 - untraced_wall / daemon_wall,
    );

    report.note("replays.traced", traced.len() as f64, "count");
    report.note("replays.untraced", untraced.len() as f64, "count");
    report.note("daemon.passes", passes.len() as f64, "count");
    report.note("harness.cores", cores() as f64, "count");
    Ok(report)
}

/// Writes every span, one JSON object per line, with its self time.
fn write_spans(
    out: &Path,
    workload: &str,
    traced: &[Replay],
    crashed: &Replay,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{workload}.jsonl"));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut sink = std::io::BufWriter::new(file);
    for (i, run) in traced.iter().chain([crashed]).enumerate() {
        for (span, self_ns) in run.spans.iter().zip(replay::self_times_ns(&run.spans)) {
            let line = Json::Obj(vec![
                ("replay".to_owned(), Json::UInt(i as u64)),
                ("name".to_owned(), Json::Str(span.name.to_owned())),
                ("start_ns".to_owned(), Json::UInt(span.start_ns)),
                ("end_ns".to_owned(), Json::UInt(span.end_ns)),
                ("self_ns".to_owned(), Json::UInt(self_ns)),
                (
                    "parent".to_owned(),
                    span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("slot".to_owned(), Json::UInt(span.slot as u64)),
            ]);
            writeln!(sink, "{}", line.encode())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    sink.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
