//! The end-to-end run (`--trace 0`): daemon passes for the run's
//! seconds. Timings come from the run's best pass, set-up time and
//! memory are medians over passes. The pooled slot-close percentiles
//! (all slots of all passes) are printed beside them.

use std::time::{Duration, Instant};

use crate::passes::Bench;
use crate::report::{Report, END_TO_END};
use crate::stats::{least, median, most, percentile, tail_percentile};
use crate::workload::Workload;

/// Uninterrupted passes a run makes at least: seven passes of 160 slots
/// leave eleven pooled slot-close samples beyond the 99th percentile.
pub const MIN_PASSES: usize = 7;

/// Crash passes a run makes at least.
pub const MIN_CRASHES: usize = 2;

/// Uninterrupted passes before each crash pass.
const PASSES_PER_CRASH: usize = 3;

/// No new pass starts after this, whatever the minimums say, so a run
/// on a very slow machine still ends in time.
const HARD_STOP: Duration = Duration::from_secs(110);

/// Runs passes for `budget` (and at least the minimums), one crash pass
/// after every [`PASSES_PER_CRASH`] uninterrupted ones.
pub fn measure(bench: &mut Bench<'_>, workload: &Workload, budget: Duration) -> Report {
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut crashes = Vec::new();
    loop {
        let minimums = passes.len() >= MIN_PASSES && crashes.len() >= MIN_CRASHES;
        if (minimums && started.elapsed() >= budget) || started.elapsed() >= HARD_STOP {
            break;
        }
        if passes.len() >= (crashes.len() + 1) * PASSES_PER_CRASH {
            crashes.push(bench.crash_pass());
        } else {
            passes.push(bench.pass());
        }
    }

    let mut report = Report::default();
    for p in &passes {
        report.count(p.lines, p.error.is_none());
    }
    for c in &crashes {
        report.count(c.lines, c.error.is_none());
    }
    for e in passes
        .iter()
        .filter_map(|p| p.error.as_ref())
        .chain(crashes.iter().filter_map(|c| c.error.as_ref()))
    {
        eprintln!("bench_daemon: pass failed: {e}");
    }
    let ok: Vec<_> = passes.iter().filter(|p| p.error.is_none()).collect();
    let ok_crashes: Vec<_> = crashes.iter().filter(|c| c.error.is_none()).collect();
    let slots = workload.slots as f64;
    let close: Vec<f64> = ok
        .iter()
        .flat_map(|p| p.slot_close_us.iter().copied())
        .collect();
    let setup: Vec<f64> = ok
        .iter()
        .map(|p| p.setup_s)
        .chain(ok_crashes.iter().map(|c| c.setup_s))
        .collect();

    report.note("passes", ok.len() as f64, "count");
    report.note("crash_passes", ok_crashes.len() as f64, "count");
    report.note("slot_close.pooled_samples", close.len() as f64, "count");
    report.note("slot_close.pooled_p50_us", percentile(&close, 50.0), "us");
    if let Some(p) = tail_percentile(close.len()) {
        report.note(
            format!("slot_close.pooled_p{p}_us"),
            percentile(&close, p),
            "us",
        );
    }
    report.note(
        "error_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.note("harness.cores", cores() as f64, "count");

    // Timings take the run's best pass. Other tenants of the machine
    // only ever slow a pass down, so the best pass is the one they
    // disturbed least: on a shared 2-vCPU VM the median over passes
    // moved with their load by up to 0.3 of itself from run to run, the
    // best pass by at most 0.19. Set-up time stays a median over every
    // start, so that work moved into set-up shows at its typical cost.
    let t = &END_TO_END;
    report.put(t, "setup_s", median(&setup));
    report.put(
        t,
        "req_per_s",
        most(ok.iter().map(|p| p.lines as f64 / p.wall_s)),
    );
    // Each pass's own percentile: pooled, the slowest pass alone would
    // set the p99.
    report.put(
        t,
        "slot_close_p50_us",
        least(ok.iter().map(|p| percentile(&p.slot_close_us, 50.0))),
    );
    report.put(
        t,
        "slot_close_p99_us",
        least(ok.iter().map(|p| percentile(&p.slot_close_us, 99.0))),
    );
    report.put(
        t,
        "cpu_us_per_slot",
        least(ok.iter().map(|p| p.cpu_us / slots)),
    );
    report.put(
        t,
        "peak_rss_mb",
        median(&ok.iter().map(|p| p.maxrss_kib / 1024.0).collect::<Vec<_>>()),
    );
    report.put(
        t,
        "recovery_s",
        least(ok_crashes.iter().flat_map(|c| c.recovery_s.iter().copied())),
    );
    report
}

/// Cores this process may use, reported with every result since the
/// engine's edge threads compete with the harness for them.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
