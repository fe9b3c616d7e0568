//! Hierarchical wall-clock span profiling.
//!
//! A [`Profiler`] records a tree of named spans — run → slot → stage —
//! with monotonic clocks ([`std::time::Instant`]). Wall-clock data is
//! inherently nondeterministic, so it lives in this *separate* profile
//! stream and never touches [`crate::telemetry::Recorder`]: the
//! deterministic telemetry trace stays bit-identical across thread
//! counts while timings go to a `.profile.jsonl` sidecar.
//!
//! Spans with the same name under the same parent aggregate into one
//! node (count, total time, and a per-entry latency histogram in
//! microseconds), so profiling a 10⁵-slot run costs a handful of tree
//! nodes, not 10⁵ allocations. [`Profiler::text_report`] renders a
//! flamegraph-style self/total table; [`Profiler::write_jsonl`] and
//! [`parse_profile_jsonl`] round-trip the aggregates through the
//! sidecar file.
//!
//! # Examples
//!
//! ```
//! use cne_util::span::Profiler;
//!
//! let mut prof = Profiler::new();
//! prof.set_label("policy", "ours");
//! prof.enter("run");
//! for _ in 0..3 {
//!     prof.enter("slot");
//!     prof.enter("select");
//!     prof.exit();
//!     prof.exit();
//! }
//! prof.exit();
//! assert_eq!(prof.count("run/slot/select"), 3);
//! assert!(prof.text_report().contains("select"));
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::encode_string;
use crate::telemetry::{Histogram, DEFAULT_BUCKETS};

/// One aggregated node in the span tree.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    children: Vec<usize>,
    total_ns: u128,
    count: u64,
    /// Per-entry latency distribution, in microseconds.
    hist: Histogram,
}

impl Node {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            children: Vec::new(),
            total_ns: 0,
            count: 0,
            hist: Histogram::new(&DEFAULT_BUCKETS),
        }
    }
}

/// Aggregated statistics for one span path, as read back from a
/// profile stream by [`parse_profile_jsonl`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Slash-joined path from the root, e.g. `"run/slot/select"`.
    pub path: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total wall-clock time inside the span, microseconds.
    pub total_us: f64,
    /// Time inside the span minus time inside its children,
    /// microseconds.
    pub self_us: f64,
}

/// One profiled run read back from a profile stream: its labels and
/// the flattened span statistics in depth-first order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileRun {
    /// Run-level labels (policy, seed, …) copied from the header line.
    pub labels: Vec<(String, String)>,
    /// Span aggregates, depth-first.
    pub spans: Vec<SpanStat>,
}

impl ProfileRun {
    /// Structural sanity checks on a parsed profile run, returning one
    /// human-readable finding per problem (empty = clean).
    ///
    /// Checked per span: a positive entry count, finite non-negative
    /// timings, and `self_us` not exceeding `total_us` (beyond a small
    /// float-accumulation slack). Checked per run: no duplicate span
    /// paths (the writer emits one aggregate line per path).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for span in &self.spans {
            let path = span.path.as_str();
            if span.count == 0 {
                findings.push(format!("span '{path}': zero entry count"));
            }
            if !span.total_us.is_finite() || span.total_us < 0.0 {
                findings.push(format!("span '{path}': bad total_us {}", span.total_us));
            }
            if !span.self_us.is_finite() || span.self_us < 0.0 {
                findings.push(format!("span '{path}': bad self_us {}", span.self_us));
            }
            if span.self_us.is_finite()
                && span.total_us.is_finite()
                && span.self_us > span.total_us + 1e-6 * (1.0 + span.total_us.abs())
            {
                findings.push(format!(
                    "span '{path}': self_us {} exceeds total_us {}",
                    span.self_us, span.total_us
                ));
            }
            if seen.contains(&path) {
                findings.push(format!("span '{path}': duplicate path"));
            } else {
                seen.push(path);
            }
        }
        findings
    }
}

/// A hierarchical wall-clock profiler for one run.
///
/// Use [`enter`](Profiler::enter)/[`exit`](Profiler::exit) around each
/// stage; nodes aggregate by `(parent, name)`. The profiler is a plain
/// value like `Recorder` — no globals, no locks — so parallel runs
/// each own one and the runner collects them in deterministic order.
#[derive(Debug, Clone)]
pub struct Profiler {
    labels: Vec<(String, String)>,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Open spans: node index and entry instant, innermost last.
    stack: Vec<(usize, Instant)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self {
            labels: Vec::new(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Attaches a run-level label, mirrored into the profile header
    /// line. Re-setting a key overwrites in place.
    pub fn set_label(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.labels.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.labels.push((key.to_owned(), value)),
        }
    }

    /// Run-level labels, in insertion order.
    #[must_use]
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Opens a span named `name` under the currently open span (or at
    /// the root). Starts the clock for this entry.
    pub fn enter(&mut self, name: &str) {
        let siblings = match self.stack.last() {
            Some(&(parent, _)) => &self.nodes[parent].children,
            None => &self.roots,
        };
        let node = match siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name)
        {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node::new(name));
                match self.stack.last() {
                    Some(&(parent, _)) => self.nodes[parent].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.stack.push((node, Instant::now()));
    }

    /// Closes the innermost open span, accumulating its elapsed time.
    ///
    /// # Panics
    /// Panics if no span is open (an `enter`/`exit` imbalance is a
    /// programming error, not a data error).
    pub fn exit(&mut self) {
        let (node, started) = self.stack.pop().expect("exit() without a matching enter()");
        let elapsed = started.elapsed();
        let n = &mut self.nodes[node];
        n.total_ns += elapsed.as_nanos();
        n.count += 1;
        n.hist.record(elapsed.as_secs_f64() * 1e6);
    }

    /// Number of spans currently open.
    #[must_use]
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Whether any span was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Looks up a node by slash-joined path, e.g. `"run/slot/select"`.
    fn node_at(&self, path: &str) -> Option<usize> {
        let mut level = &self.roots;
        let mut found = None;
        for segment in path.split('/') {
            let idx = level
                .iter()
                .copied()
                .find(|&i| self.nodes[i].name == segment)?;
            found = Some(idx);
            level = &self.nodes[idx].children;
        }
        found
    }

    /// Entry count for the span at `path` (zero if absent).
    #[must_use]
    pub fn count(&self, path: &str) -> u64 {
        self.node_at(path).map_or(0, |i| self.nodes[i].count)
    }

    /// Total time inside the span at `path`, microseconds.
    #[must_use]
    pub fn total_us(&self, path: &str) -> f64 {
        self.node_at(path)
            .map_or(0.0, |i| self.nodes[i].total_ns as f64 / 1e3)
    }

    /// Self time for the span at `path`: total minus the total of its
    /// direct children, clamped at zero (child clock reads can jitter
    /// past the parent's).
    #[must_use]
    pub fn self_us(&self, path: &str) -> f64 {
        self.node_at(path).map_or(0.0, |i| self.node_self_us(i))
    }

    fn node_self_us(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        let child_ns: u128 = n.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        n.total_ns.saturating_sub(child_ns) as f64 / 1e3
    }

    /// Per-entry latency histogram (microseconds) for the span at
    /// `path`, if it was ever entered.
    #[must_use]
    pub fn stage_histogram(&self, path: &str) -> Option<&Histogram> {
        self.node_at(path).map(|i| &self.nodes[i].hist)
    }

    /// Folds another profiler's tree into this one, matching spans by
    /// path. Used by the runner to aggregate per-run profilers into a
    /// fleet-wide view.
    pub fn merge(&mut self, other: &Profiler) {
        let mut pairs: Vec<(Option<usize>, usize)> =
            other.roots.iter().map(|&o| (None, o)).collect();
        while let Some((parent, theirs)) = pairs.pop() {
            let name = other.nodes[theirs].name.clone();
            let siblings = match parent {
                Some(p) => &self.nodes[p].children,
                None => &self.roots,
            };
            let mine = match siblings
                .iter()
                .copied()
                .find(|&i| self.nodes[i].name == name)
            {
                Some(i) => i,
                None => {
                    let i = self.nodes.len();
                    self.nodes.push(Node::new(&name));
                    match parent {
                        Some(p) => self.nodes[p].children.push(i),
                        None => self.roots.push(i),
                    }
                    i
                }
            };
            self.nodes[mine].total_ns += other.nodes[theirs].total_ns;
            self.nodes[mine].count += other.nodes[theirs].count;
            let their_hist = other.nodes[theirs].hist.clone();
            self.nodes[mine].hist.merge(&their_hist);
            for &child in &other.nodes[theirs].children {
                pairs.push((Some(mine), child));
            }
        }
    }

    /// Depth-first `(path, node)` walk of the tree.
    fn walk(&self) -> Vec<(String, usize, usize)> {
        // (path, node index, depth)
        let mut out = Vec::new();
        let mut stack: Vec<(String, usize, usize)> = self
            .roots
            .iter()
            .rev()
            .map(|&i| (self.nodes[i].name.clone(), i, 0))
            .collect();
        while let Some((path, i, depth)) = stack.pop() {
            out.push((path.clone(), i, depth));
            for &c in self.nodes[i].children.iter().rev() {
                stack.push((format!("{path}/{}", self.nodes[c].name), c, depth + 1));
            }
        }
        out
    }

    /// Renders a flamegraph-style text table: one indented row per
    /// span with entry count, total, self time, and mean per entry.
    #[must_use]
    pub fn text_report(&self) -> String {
        let rows: Vec<(String, String, String, String, String)> = self
            .walk()
            .into_iter()
            .map(|(_, i, depth)| {
                let n = &self.nodes[i];
                let total_ms = n.total_ns as f64 / 1e6;
                let self_ms = self.node_self_us(i) / 1e3;
                let mean_us = if n.count > 0 {
                    n.total_ns as f64 / 1e3 / n.count as f64
                } else {
                    0.0
                };
                (
                    format!("{}{}", "  ".repeat(depth), n.name),
                    n.count.to_string(),
                    format!("{total_ms:.3}"),
                    format!("{self_ms:.3}"),
                    format!("{mean_us:.1}"),
                )
            })
            .collect();
        let headers = ["span", "count", "total ms", "self ms", "mean µs"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        for r in &rows {
            for (w, cell) in widths.iter_mut().zip([&r.0, &r.1, &r.2, &r.3, &r.4]) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}",
            headers[0],
            headers[1],
            headers[2],
            headers[3],
            headers[4],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
            w4 = widths[4],
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}",
                r.0,
                r.1,
                r.2,
                r.3,
                r.4,
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
                w4 = widths[4],
            );
        }
        out
    }

    /// Writes the profile stream for this run: a `profile` header with
    /// the labels, then one `span` line per node in depth-first order.
    ///
    /// # Errors
    /// Propagates I/O errors from the sink.
    pub fn write_jsonl<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut line = String::new();
        line.push_str("{\"type\":\"profile\"");
        for (k, v) in &self.labels {
            line.push(',');
            encode_string(k, &mut line);
            line.push(':');
            encode_string(v, &mut line);
        }
        line.push('}');
        writeln!(w, "{line}")?;
        for (path, i, _) in self.walk() {
            let n = &self.nodes[i];
            line.clear();
            line.push_str("{\"type\":\"span\",\"path\":");
            encode_string(&path, &mut line);
            let _ = write!(
                line,
                ",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                n.count,
                n.total_ns as f64 / 1e3,
                self.node_self_us(i)
            );
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// [`Profiler::write_jsonl`] into a `String`.
    #[must_use]
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("encoder emits UTF-8")
    }
}

/// Parses a profile stream back into per-run span statistics — the
/// inverse of [`Profiler::write_jsonl`].
///
/// # Errors
/// Returns a message naming the first malformed line.
pub fn parse_profile_jsonl(input: &str) -> Result<Vec<ProfileRun>, String> {
    let mut runs: Vec<ProfileRun> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let doc =
            crate::json::parse(raw).map_err(|e| format!("line {line_no}: invalid JSON: {e}"))?;
        let line_type = doc
            .get("type")
            .and_then(crate::json::Json::as_str)
            .ok_or_else(|| format!("line {line_no}: missing string \"type\""))?;
        match line_type {
            "profile" => {
                let mut run = ProfileRun::default();
                for (k, v) in doc
                    .as_object()
                    .expect("a doc with a type field is an object")
                    .iter()
                    .filter(|(k, _)| k != "type")
                {
                    let v = v
                        .as_str()
                        .ok_or_else(|| format!("line {line_no}: label {k:?} is not a string"))?;
                    run.labels.push((k.clone(), v.to_owned()));
                }
                runs.push(run);
            }
            "span" => {
                let run = runs
                    .last_mut()
                    .ok_or_else(|| format!("line {line_no}: span before any profile header"))?;
                let path = doc
                    .get("path")
                    .and_then(crate::json::Json::as_str)
                    .ok_or_else(|| format!("line {line_no}: span is missing \"path\""))?
                    .to_owned();
                let count = doc
                    .get("count")
                    .and_then(crate::json::Json::as_u64)
                    .ok_or_else(|| format!("line {line_no}: span is missing u64 \"count\""))?;
                let total_us = doc
                    .get("total_us")
                    .and_then(crate::json::Json::as_f64)
                    .ok_or_else(|| format!("line {line_no}: span is missing \"total_us\""))?;
                let self_us = doc
                    .get("self_us")
                    .and_then(crate::json::Json::as_f64)
                    .ok_or_else(|| format!("line {line_no}: span is missing \"self_us\""))?;
                run.spans.push(SpanStat {
                    path,
                    count,
                    total_us,
                    self_us,
                });
            }
            other => return Err(format!("line {line_no}: unknown line type {other:?}")),
        }
    }
    Ok(runs)
}

/// The conventional profile-sidecar path for a telemetry trace:
/// `trace.jsonl` → `trace.profile.jsonl` (a `.profile.jsonl` suffix is
/// appended when the trace path has no `.jsonl` extension).
#[must_use]
pub fn profile_sidecar_path(trace: &str) -> String {
    match trace.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}.profile.jsonl"),
        None => format!("{trace}.profile.jsonl"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profiler {
        let mut p = Profiler::new();
        p.enter("run");
        for _ in 0..4 {
            p.enter("slot");
            p.enter("select");
            p.exit();
            p.enter("trade");
            p.exit();
            p.exit();
        }
        p.exit();
        p
    }

    #[test]
    fn spans_aggregate_by_path() {
        let p = sample();
        assert_eq!(p.count("run"), 1);
        assert_eq!(p.count("run/slot"), 4);
        assert_eq!(p.count("run/slot/select"), 4);
        assert_eq!(p.count("run/slot/trade"), 4);
        assert_eq!(p.count("run/absent"), 0);
        assert_eq!(p.open_depth(), 0);
        assert!(p.total_us("run") >= p.total_us("run/slot"));
        assert_eq!(p.stage_histogram("run/slot/select").unwrap().count(), 4);
    }

    #[test]
    fn self_time_excludes_children() {
        let p = sample();
        let total = p.total_us("run/slot");
        let children = p.total_us("run/slot/select") + p.total_us("run/slot/trade");
        assert!((p.self_us("run/slot") - (total - children).max(0.0)).abs() < 1.0);
    }

    #[test]
    fn merge_adds_counts_and_times() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.count("run"), 2);
        assert_eq!(a.count("run/slot/select"), 8);
        assert_eq!(a.stage_histogram("run/slot/select").unwrap().count(), 8);
        // Merging an unseen subtree grafts it in.
        let mut c = Profiler::new();
        c.enter("other");
        c.exit();
        a.merge(&c);
        assert_eq!(a.count("other"), 1);
    }

    #[test]
    fn text_report_lists_every_span_indented() {
        let report = sample().text_report();
        assert!(report.contains("run"));
        assert!(report.contains("  slot"));
        assert!(report.contains("    select"));
        assert!(report.contains("mean µs"));
    }

    #[test]
    fn jsonl_round_trip() {
        let mut p = sample();
        p.set_label("policy", "ours");
        p.set_label("seed", "3");
        let runs = parse_profile_jsonl(&p.to_jsonl_string()).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].labels,
            vec![
                ("policy".to_owned(), "ours".to_owned()),
                ("seed".to_owned(), "3".to_owned())
            ]
        );
        let paths: Vec<&str> = runs[0].spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["run", "run/slot", "run/slot/select", "run/slot/trade"]
        );
        let select = &runs[0].spans[2];
        assert_eq!(select.count, 4);
        assert!((select.total_us - p.total_us("run/slot/select")).abs() < 1e-9);
    }

    #[test]
    fn parse_profile_rejects_malformed() {
        assert!(parse_profile_jsonl("not json").is_err());
        assert!(parse_profile_jsonl("{\"type\":\"span\",\"path\":\"x\"}").is_err());
        assert!(parse_profile_jsonl("{\"type\":\"mystery\"}").is_err());
    }

    #[test]
    fn sidecar_path_convention() {
        assert_eq!(
            profile_sidecar_path("/tmp/trace.jsonl"),
            "/tmp/trace.profile.jsonl"
        );
        assert_eq!(profile_sidecar_path("trace"), "trace.profile.jsonl");
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_panics() {
        Profiler::new().exit();
    }

    #[test]
    fn real_profiles_validate_clean() {
        let mut p = Profiler::new();
        p.enter("run");
        p.enter("slot");
        p.exit();
        p.exit();
        let runs = parse_profile_jsonl(&p.to_jsonl_string()).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].validate().is_empty());
    }

    #[test]
    fn validate_flags_structural_problems() {
        let run = ProfileRun {
            labels: Vec::new(),
            spans: vec![
                SpanStat {
                    path: "run".into(),
                    count: 0,
                    total_us: 5.0,
                    self_us: 9.0,
                },
                SpanStat {
                    path: "run".into(),
                    count: 1,
                    total_us: f64::NAN,
                    self_us: -1.0,
                },
            ],
        };
        let findings = run.validate();
        let text = findings.join("\n");
        assert!(text.contains("zero entry count"), "{text}");
        assert!(text.contains("self_us 9 exceeds total_us 5"), "{text}");
        assert!(text.contains("duplicate path"), "{text}");
        assert!(text.contains("bad total_us"), "{text}");
        assert!(text.contains("bad self_us"), "{text}");
    }
}
