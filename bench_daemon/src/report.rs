//! Metric names and units, and the result a run prints: one
//! `name value unit` line per metric, then the JSON summary line.

use cne_util::json::Json;

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("req_per_s", "req/s"),
    ("slot_close_p50_us", "us"),
    ("slot_close_p99_us", "us"),
    ("cpu_us_per_slot", "us"),
    ("peak_rss_mb", "MB"),
    ("recovery_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("zoo.train_ms", "ms"),
    ("session.new_ms", "ms"),
    ("wire.lines", "count"),
    ("wire.decode_ns_per_line", "ns"),
    ("wire.fast_hit_frac", "ratio"),
    ("wire.strict_lines", "count"),
    ("wal.frames", "count"),
    ("wal.bytes_per_req", "B"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p99", "us"),
    ("wal.sync_us_p50", "us"),
    ("wal.sync_us_p99", "us"),
    ("wal.busy_ms", "ms"),
    ("session.push_slot_us_p50", "us"),
    ("session.push_slot_us_p99", "us"),
    ("session.busy_ms", "ms"),
    ("stage.select_us_p50", "us"),
    ("stage.trade_us_p50", "us"),
    ("stage.serve_us_p50", "us"),
    ("stage.feedback_us_p50", "us"),
    ("monitor.overhead_us_p50", "us"),
    ("session.push_slot_us_p50.threads1", "us"),
    ("session.push_slot_us_p50.threads2", "us"),
    ("engine.speedup_2w", "ratio"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.save_us", "us"),
    ("recovery.load_ms", "ms"),
    ("recovery.resume_ms", "ms"),
    ("recovery.wal_open_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.apply_tail_ms", "ms"),
    ("expo.render_us_p50", "us"),
    ("expo.page_bytes", "B"),
    ("harness.send_ms", "ms"),
    ("harness.gen_lag_p99_us", "us"),
    ("harness.probe_rtt_us_p50", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.daemon_gap_frac", "ratio"),
];

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of the JSON summary, in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed before the summary but kept out of it.
    notes: Vec<(String, f64, &'static str)>,
    /// Request lines sent to daemons or replayed.
    pub attempted: u64,
    /// Request lines of passes whose result was wrong or missing.
    pub failed: u64,
}

impl Report {
    /// Sets a metric of `table` by name.
    ///
    /// # Panics
    /// On a name outside `table`: the metric tables are this program's own.
    pub fn put(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.metrics.push((name, value, unit));
    }

    /// Adds a printed-only line.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Counts one pass's request lines, failed or not.
    pub fn count(&mut self, lines: u64, ok: bool) {
        self.attempted += lines;
        if !ok {
            self.failed += lines;
        }
    }

    /// Checks that every metric of `table` is set to a finite number.
    ///
    /// # Errors
    /// Names the missing or non-finite metrics.
    pub fn complete(&self, table: &[(&str, &str)]) -> Result<(), String> {
        let missing: Vec<&str> = table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.metrics.iter().any(|(m, v, _)| m == n && v.is_finite()))
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("no measurement for {}", missing.join(", ")))
        }
    }

    /// The `name value unit` lines, then the JSON summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.notes {
            out.push_str(&format!("{name} {value} {unit}\n"));
        }
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name} {value} {unit}\n"));
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Float(*value)),
                        ("unit".to_owned(), Json::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect();
        let summary = Json::Obj(vec![
            (
                "correct".to_owned(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]);
        out.push_str(&summary.encode());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: {unit}"
            );
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are unique");
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = cne_util::json::parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<String> = crate::workload::all()
            .iter()
            .map(|w| w.name.to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn summary_is_the_last_line_and_parses() {
        let mut r = Report::default();
        r.put(&END_TO_END, "setup_s", 0.8127);
        r.note("passes", 3.0, "count");
        r.count(1000, true);
        let text = r.render();
        let last = text.lines().last().expect("summary line");
        let doc = cne_util::json::parse(last).expect("JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert!(r.complete(&END_TO_END).is_err());
    }
}
