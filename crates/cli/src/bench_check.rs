//! `carbon-edge bench-check` — the CI benchmark-regression gate.
//!
//! Compares a freshly measured `BENCH_*.json` report against a
//! committed baseline:
//!
//! * entries with a `min` floor fail when the **current** value drops
//!   below it (machine-independent ratios such as the fast-decode
//!   ingest speedup or the bit-identical-equivalence flag); the
//!   effective floor is the *stricter* of the baseline's and the
//!   current run's, so a regenerated report cannot relax a committed
//!   floor;
//! * entries with `gate: true` fail when the current value regresses
//!   past the baseline by more than `--tolerance` (default ±25%) in
//!   the entry's bad direction — improvements never fail;
//! * everything else is informational.
//!
//! On failure, every regressed entry is printed as a table before the
//! non-zero exit, so CI logs show *what* regressed and by how much.
//! When the `GITHUB_STEP_SUMMARY` environment variable points at a
//! writable file (as it does inside GitHub Actions), the full
//! comparison table is additionally appended there as Markdown.

use cne_bench::perf::{BenchEntry, BenchReport};

use crate::args::Options;

/// One failed comparison, for the printed table.
struct Regression {
    name: String,
    baseline: String,
    current: f64,
    limit: f64,
    reason: &'static str,
}

/// Compares `current` against `baseline` and returns the regressions.
fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    if baseline.mode != current.mode {
        return Err(format!(
            "mode mismatch: baseline is '{}', current is '{}' — \
             regenerate the baseline at the same scale",
            baseline.mode, current.mode
        ));
    }
    let mut regressions = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.name == base.name) else {
            regressions.push(Regression {
                name: base.name.clone(),
                baseline: format!("{:.3}", base.value),
                current: f64::NAN,
                limit: f64::NAN,
                reason: "missing from current run",
            });
            continue;
        };
        check_entry(base, cur, tolerance, &mut regressions);
    }
    Ok(regressions)
}

fn check_entry(
    base: &BenchEntry,
    cur: &BenchEntry,
    tolerance: f64,
    regressions: &mut Vec<Regression>,
) {
    // Absolute floors apply to the current run's value. The effective
    // floor is the stricter of the two reports': the baseline's cannot
    // be relaxed by regenerating, and a current run may carry a floor
    // the baseline lacks.
    let floor = match (base.min, cur.min) {
        (Some(b), Some(c)) => Some(b.max(c)),
        (floor, None) | (None, floor) => floor,
    };
    if let Some(min) = floor {
        if cur.value < min {
            regressions.push(Regression {
                name: base.name.clone(),
                baseline: format!("floor {min:.3}"),
                current: cur.value,
                limit: min,
                reason: "below absolute floor",
            });
        }
        return;
    }
    if !base.gate {
        return;
    }
    // Relative gate: only the bad direction fails.
    let (limit, regressed) = if base.better == "higher" {
        let limit = base.value * (1.0 - tolerance);
        (limit, cur.value < limit)
    } else {
        let limit = base.value * (1.0 + tolerance);
        (limit, cur.value > limit)
    };
    if regressed {
        regressions.push(Regression {
            name: base.name.clone(),
            baseline: format!("{:.3}", base.value),
            current: cur.value,
            limit,
            reason: "outside relative tolerance",
        });
    }
}

/// Renders the full comparison as a Markdown section for
/// `$GITHUB_STEP_SUMMARY`.
fn markdown_summary(
    baseline_path: &str,
    current_path: &str,
    baseline: &BenchReport,
    current: &BenchReport,
    regressions: &[Regression],
    tolerance: f64,
) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "### bench-check: `{baseline_path}` vs `{current_path}`\n\n"
    ));
    let verdict = if regressions.is_empty() {
        "✅ OK".to_owned()
    } else {
        format!("❌ {} regressed entries", regressions.len())
    };
    md.push_str(&format!(
        "- mode: `{}`, tolerance ±{:.0}%\n- verdict: {verdict}\n\n",
        baseline.mode,
        tolerance * 100.0,
    ));
    md.push_str("| entry | metric | baseline | current | Δ | status |\n");
    md.push_str("|---|---|---:|---:|---:|---|\n");
    for base in &baseline.entries {
        let cur = current.entries.iter().find(|e| e.name == base.name);
        let regressed = regressions.iter().find(|r| r.name == base.name);
        let (current_cell, delta_cell) = match cur {
            Some(cur) => {
                let delta = if base.value.abs() > f64::EPSILON {
                    format!("{:+.1}%", (cur.value - base.value) / base.value * 100.0)
                } else {
                    "—".to_owned()
                };
                (format!("{:.3}", cur.value), delta)
            }
            None => ("—".to_owned(), "—".to_owned()),
        };
        let status = if let Some(r) = regressed {
            format!("❌ {}", r.reason)
        } else {
            let floor = match (base.min, cur.and_then(|c| c.min)) {
                (Some(b), Some(c)) => Some(b.max(c)),
                (floor, None) | (None, floor) => floor,
            };
            if let Some(min) = floor {
                format!("✅ floor ≥ {min:.2}")
            } else if base.gate {
                "✅ gated".to_owned()
            } else {
                "info".to_owned()
            }
        };
        md.push_str(&format!(
            "| `{}` | {} | {:.3} | {} | {} | {} |\n",
            base.name, base.metric, base.value, current_cell, delta_cell, status
        ));
    }
    md.push('\n');
    md
}

/// Appends to the `$GITHUB_STEP_SUMMARY` file when the variable is
/// set (inside GitHub Actions). A write failure only warns: the gate's
/// exit code must come from the comparison, not the reporting.
fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(markdown.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: cannot append to GITHUB_STEP_SUMMARY ({path}): {e}");
    }
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read benchmark report {path}: {e}\n\
             hint: committed baselines live in results/; regenerate one \
             with 'cargo run --release --bin run_all -- --bench'"
        )
    })?;
    BenchReport::from_json_str(&text).map_err(|e| {
        format!(
            "benchmark report {path} is corrupt: {e}\n\
             hint: regenerate it with 'cargo run --release --bin run_all \
             -- --bench' (reports are BENCH_*.json files)"
        )
    })
}

/// `carbon-edge bench-check <baseline.json> <current.json>`.
///
/// # Errors
/// Returns an error (non-zero exit) on unreadable/malformed files,
/// mode mismatch, or any regressed entry.
pub fn bench_check(opts: &Options) -> Result<(), String> {
    let [baseline_path, current_path] = opts.inputs.as_slice() else {
        return Err(
            "bench-check needs exactly two files: <baseline.json> <current.json>".to_owned(),
        );
    };
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let regressions = compare_reports(&baseline, &current, opts.tolerance)?;
    append_step_summary(&markdown_summary(
        baseline_path,
        current_path,
        &baseline,
        &current,
        &regressions,
        opts.tolerance,
    ));

    let gated = baseline
        .entries
        .iter()
        .filter(|e| e.gate || e.min.is_some())
        .count();
    if regressions.is_empty() {
        println!(
            "bench-check  : OK — {gated} gated entries within ±{:.0}% of {baseline_path}",
            opts.tolerance * 100.0,
        );
        return Ok(());
    }

    println!(
        "bench-check  : {} regressed entries (tolerance ±{:.0}%)\n",
        regressions.len(),
        opts.tolerance * 100.0,
    );
    println!(
        "{:<36} {:>14} {:>12} {:>12}  reason",
        "entry", "baseline", "current", "limit"
    );
    for r in &regressions {
        println!(
            "{:<36} {:>14} {:>12.3} {:>12.3}  {}",
            r.name, r.baseline, r.current, r.limit, r.reason
        );
    }
    Err(format!(
        "{} benchmark entries regressed vs {baseline_path}",
        regressions.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        name: &str,
        value: f64,
        better: &'static str,
        gate: bool,
        min: Option<f64>,
    ) -> BenchEntry {
        BenchEntry {
            name: name.to_owned(),
            metric: "us".to_owned(),
            value,
            better,
            gate,
            min,
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            mode: "quick".to_owned(),
            entries,
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report(vec![entry("a", 100.0, "lower", true, None)]);
        let cur = report(vec![entry("a", 120.0, "lower", true, None)]);
        assert!(compare_reports(&base, &cur, 0.25).unwrap().is_empty());
    }

    #[test]
    fn regression_past_tolerance_fails() {
        let base = report(vec![entry("a", 100.0, "lower", true, None)]);
        let cur = report(vec![entry("a", 126.0, "lower", true, None)]);
        let regressions = compare_reports(&base, &cur, 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "a");
    }

    #[test]
    fn improvements_never_fail() {
        let base = report(vec![
            entry("t", 100.0, "lower", true, None),
            entry("r", 2.0, "higher", true, None),
        ]);
        let cur = report(vec![
            entry("t", 10.0, "lower", true, None),
            entry("r", 9.0, "higher", true, None),
        ]);
        assert!(compare_reports(&base, &cur, 0.25).unwrap().is_empty());
    }

    #[test]
    fn floors_bind_the_current_run() {
        let base = report(vec![entry("speedup", 4.0, "higher", false, Some(1.5))]);
        let ok = report(vec![entry("speedup", 1.6, "higher", false, Some(1.5))]);
        assert!(compare_reports(&base, &ok, 0.25).unwrap().is_empty());
        let bad = report(vec![entry("speedup", 1.4, "higher", false, Some(1.5))]);
        assert_eq!(compare_reports(&base, &bad, 0.25).unwrap().len(), 1);
    }

    #[test]
    fn floor_armed_by_the_current_run_binds() {
        // The committed baseline came from a machine that could not arm
        // the floor (min: None); the CI machine arms it itself.
        let base = report(vec![entry("speedup", 1.0, "higher", false, None)]);
        let ok = report(vec![entry("speedup", 2.1, "higher", false, Some(1.8))]);
        assert!(compare_reports(&base, &ok, 0.25).unwrap().is_empty());
        let bad = report(vec![entry("speedup", 1.2, "higher", false, Some(1.8))]);
        let regressions = compare_reports(&base, &bad, 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].reason, "below absolute floor");
        // The stricter of the two floors wins in both directions.
        let strict_base = report(vec![entry("speedup", 2.0, "higher", false, Some(1.9))]);
        let lax_cur = report(vec![entry("speedup", 1.85, "higher", false, Some(1.8))]);
        assert_eq!(
            compare_reports(&strict_base, &lax_cur, 0.25).unwrap().len(),
            1
        );
    }

    #[test]
    fn ungated_entries_are_informational() {
        let base = report(vec![entry("info", 1.0, "lower", false, None)]);
        let cur = report(vec![entry("info", 50.0, "lower", false, None)]);
        assert!(compare_reports(&base, &cur, 0.25).unwrap().is_empty());
    }

    #[test]
    fn markdown_summary_covers_every_entry() {
        let base = report(vec![
            entry(
                "edge_parallel/ours/edges=50/threads=1",
                8.0,
                "lower",
                true,
                None,
            ),
            entry("edge_parallel/speedup/edges=50", 0.4, "higher", false, None),
            entry("tsallis/warm_speedup", 1.6, "higher", false, None),
            entry("gone", 1.0, "lower", true, None),
        ]);
        let cur = report(vec![
            entry(
                "edge_parallel/ours/edges=50/threads=1",
                6.0,
                "lower",
                true,
                None,
            ),
            entry(
                "edge_parallel/speedup/edges=50",
                2.5,
                "higher",
                false,
                Some(1.0),
            ),
            entry("tsallis/warm_speedup", 1.2, "higher", false, None),
        ]);
        let regressions = compare_reports(&base, &cur, 0.25).unwrap();
        let md = markdown_summary(
            "results/b.json",
            "/tmp/c.json",
            &base,
            &cur,
            &regressions,
            0.25,
        );
        assert!(md.contains("| `edge_parallel/ours/edges=50/threads=1` |"));
        assert!(md.contains("-25.0%"), "delta column renders: {md}");
        assert!(md.contains("floor ≥ 1.00"), "current-armed floor shows");
        assert!(md.contains("missing from current run"));
        // A floorless ratio is informational, not a disarmed gate.
        assert!(md.contains("| `tsallis/warm_speedup` | us | 1.600 | 1.200 | -25.0% | info |"));
        assert!(md.contains("❌ 1 regressed entries"));
    }

    #[test]
    fn missing_entries_and_mode_mismatch_fail() {
        let base = report(vec![entry("a", 1.0, "lower", true, None)]);
        let cur = report(vec![]);
        assert_eq!(compare_reports(&base, &cur, 0.25).unwrap().len(), 1);
        let mut full = report(vec![]);
        full.mode = "full".to_owned();
        assert!(compare_reports(&full, &report(vec![]), 0.25).is_err());
    }
}
