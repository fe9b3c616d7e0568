//! `--calibrate`: two sets of runs per workload with fresh seeds, as the
//! benchmark's acceptance check makes them, and each end-to-end metric's
//! median, quartiles, spread and between-set change. The bounds in
//! `BENCHMARK.json` come from this table: a metric's bound must exceed
//! three times its spread, and the change between the sets must stay
//! inside the bound.

use std::fmt::Write as _;
use std::process::Command;

use cne_util::json::{self, Json};

use crate::report::END_TO_END;
use crate::stats::quartiles;
use crate::workload;

/// End-to-end metrics where a larger value is better.
const HIGHER_IS_BETTER: [&str; 1] = ["req_per_s"];

/// Largest bound `BENCHMARK.json` may give a metric.
const MAX_BOUND: f64 = 0.25;

/// One child run's end-to-end metrics, in [`END_TO_END`] order.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|_| {
        format!(
            "{workload} seed {seed} printed no result: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: result was not correct"));
    }
    END_TO_END
        .iter()
        .map(|(name, _)| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {name}"))
        })
        .collect()
}

/// Runs `runs` seeds per set, two sets per workload, and renders the
/// table.
///
/// # Errors
/// A message when a run fails or prints no result.
pub fn calibrate(names: &[String], runs: usize, seconds: u64) -> Result<String, String> {
    let names: Vec<String> = if names.is_empty() {
        workload::all().iter().map(|w| w.name.to_owned()).collect()
    } else {
        names.to_vec()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>9}",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "A iqr",
        "B median",
        "B iqr",
        "B-A",
        "bound>="
    );
    for name in &names {
        workload::by_name(name)?;
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let seed = (s * runs + i + 1) as u64;
                eprintln!("calibrate: {name} set {} seed {seed}", ["A", "B"][s]);
                set.push(run_once(name, seed, seconds)?);
            }
        }
        for (m, (metric, _)) in END_TO_END.iter().enumerate() {
            let column = |set: &[Vec<f64>]| set.iter().map(|r| r[m]).collect::<Vec<f64>>();
            let (a1, a2, a3) = quartiles(&column(&sets[0]));
            let (b1, b2, b3) = quartiles(&column(&sets[1]));
            let (spread_a, spread_b) = ((a3 - a1) / a2, (b3 - b1) / b2);
            // Positive: set B reads worse than set A.
            let worse = if HIGHER_IS_BETTER.contains(metric) {
                (a2 - b2) / a2
            } else {
                (b2 - a2) / a2
            };
            let bound = (3.0 * spread_a.max(spread_b)).max(worse).min(MAX_BOUND);
            let _ = writeln!(
                out,
                "{name:<16} {metric:<18} {a1:>12.4} {a2:>12.4} {a3:>12.4} {spread_a:>8.4} {b2:>12.4} {spread_b:>8.4} {worse:>8.4} {bound:>9.4}"
            );
        }
    }
    Ok(out)
}
