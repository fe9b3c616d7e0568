//! Prometheus text exposition (format 0.0.4) for [`Recorder`]s, plus
//! a hand-rolled parser used to validate it.
//!
//! [`render`] turns one or more recorders into the classic
//! `# TYPE`-annotated text format scraped by Prometheus-compatible
//! collectors. The encoding is fully deterministic so two renders of
//! the same recorders are byte-identical:
//!
//! * families sort by exposed name, series within a family sort by
//!   their rendered label set, labels sort by key;
//! * floats use Rust's shortest-roundtrip formatting (plus the
//!   `NaN`/`+Inf`/`-Inf` tokens), counters print as exact integers;
//! * metric names are sanitized to the Prometheus charset
//!   (`[a-zA-Z_:][a-zA-Z0-9_:]*`, invalid characters become `_`);
//!   when sanitization changed the name, the original is preserved in
//!   a `raw_name` label so the mapping stays injective.
//!
//! Histograms expose the usual cumulative `_bucket{le="…"}` series,
//! `_sum`, and `_count`; the `le="+Inf"` bucket equals `_count`
//! (including NaN/±∞ observations), and each histogram additionally
//! exposes a `<name>_nonfinite` counter so the non-finite tally
//! (kept out of the numeric buckets by
//! [`Histogram::record`](crate::telemetry::Histogram::record)) is
//! visible and the bucket layout stays recoverable.
//!
//! [`parse`] is the inverse: a strict reader for the exact dialect
//! [`render`] emits (every sample must follow a `# TYPE` line). It
//! exists so tests can property-check the round trip and so
//! `carbon-edge watch` can consume a scraped page without trusting
//! the encoder blindly.
//!
//! # Examples
//!
//! ```
//! use cne_util::{expo, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.set_label("policy", "ours");
//! rec.incr("slots", 3);
//! rec.gauge("lambda", 0.25);
//! let text = expo::render(&[&rec]).unwrap();
//! assert!(text.contains("# TYPE lambda gauge"));
//! let page = expo::parse(&text).unwrap();
//! assert_eq!(page.value("slots", &[("policy", "ours")]), Some(3.0));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::telemetry::{Histogram, Recorder};

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket distribution (`_bucket`/`_sum`/`_count`).
    Histogram,
}

impl FamilyKind {
    fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(FamilyKind::Counter),
            "gauge" => Some(FamilyKind::Gauge),
            "histogram" => Some(FamilyKind::Histogram),
            _ => None,
        }
    }
}

/// Sanitizes a metric or label name to the Prometheus charset:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Invalid characters map to `_`; a
/// leading digit gets a `_` prefix. Empty names become `_`.
#[must_use]
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for c in raw.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if out.is_empty() && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Writes a sample value: shortest-roundtrip floats plus the
/// `NaN`/`+Inf`/`-Inf` tokens.
fn push_value(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x == f64::INFINITY {
        out.push_str("+Inf");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// A family being accumulated during rendering.
struct FamilyAcc {
    kind: FamilyKind,
    /// Each series' rendered lines, keyed by its rendered label set
    /// (deterministic series order; duplicate keys are an error).
    series: BTreeMap<String, String>,
}

/// Renders recorders as deterministic Prometheus text exposition.
/// Each recorder's run labels (`policy`, `seed`, …) become series
/// labels, so several recorders can share one page without colliding.
///
/// # Errors
/// Returns a message when two metrics map to the same family with
/// different kinds, when two recorders produce the same series (same
/// family and label set), or when a histogram family name collides
/// with another family's `_bucket`/`_sum`/`_count`/`_nonfinite`
/// companion names.
pub fn render(recorders: &[&Recorder]) -> Result<String, String> {
    let mut families: BTreeMap<String, FamilyAcc> = BTreeMap::new();

    for rec in recorders {
        // Sanitized keys, sorted; the first value wins a key collision.
        let mut base: Vec<(String, &str)> = rec
            .labels()
            .iter()
            .map(|(k, v)| (sanitize_name(k), v.as_str()))
            .collect();
        base.sort_by(|a, b| a.0.cmp(&b.0));
        base.dedup_by(|a, b| a.0 == b.0);

        for (name, value) in rec.counters() {
            add_scalar(&mut families, name, FamilyKind::Counter, &base, |out| {
                let _ = write!(out, "{value}");
            })?;
        }
        for (name, value) in rec.gauges() {
            add_scalar(&mut families, name, FamilyKind::Gauge, &base, |out| {
                push_value(out, value);
            })?;
        }
        for (name, hist) in rec.histograms() {
            add_histogram(&mut families, name, hist, &base)?;
        }
    }

    // A histogram's companion sample names must not collide with a
    // standalone family, or the page stops being parseable.
    for (name, fam) in &families {
        if fam.kind != FamilyKind::Histogram {
            continue;
        }
        for suffix in ["_bucket", "_sum", "_count", "_nonfinite"] {
            let companion = format!("{name}{suffix}");
            if families.contains_key(&companion)
                && !(suffix == "_nonfinite" && families[&companion].kind == FamilyKind::Counter)
            {
                return Err(format!(
                    "histogram family {name:?} collides with family {companion:?}"
                ));
            }
        }
    }

    let mut out = String::new();
    for (name, fam) in &families {
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
        for lines in fam.series.values() {
            out.push_str(lines);
        }
    }
    Ok(out)
}

/// The rendered label set `{k="v",…}` (empty when there are none) of a
/// metric exposed as `name`: the sorted run labels `base`, plus
/// `raw_name` in its sorted place when sanitization changed the name
/// and no run label already has that key.
fn label_text(base: &[(String, &str)], name: &str, raw_name: &str) -> String {
    let mut raw =
        Some(raw_name).filter(|_| name != raw_name && base.iter().all(|(k, _)| k != "raw_name"));
    let mut out = String::new();
    let mut push = |key: &str, value: &str| {
        out.push(if out.is_empty() { '{' } else { ',' });
        let _ = write!(out, "{key}=\"");
        push_escaped(&mut out, value);
        out.push('"');
    };
    for (key, value) in base {
        if key.as_str() > "raw_name" {
            if let Some(raw) = raw.take() {
                push("raw_name", raw);
            }
        }
        push(key, value);
    }
    if let Some(raw) = raw {
        push("raw_name", raw);
    }
    if !out.is_empty() {
        out.push('}');
    }
    out
}

/// Inserts one series' rendered lines into its family.
fn add_series(
    families: &mut BTreeMap<String, FamilyAcc>,
    name: &str,
    raw_name: &str,
    kind: FamilyKind,
    label_text: String,
    lines: String,
) -> Result<(), String> {
    let fam = families
        .entry(name.to_owned())
        .or_insert_with(|| FamilyAcc {
            kind,
            series: BTreeMap::new(),
        });
    if fam.kind != kind {
        return Err(format!(
            "metric {raw_name:?} renders as family {name:?} with kind {}, which already has kind {}",
            kind.as_str(),
            fam.kind.as_str()
        ));
    }
    if fam.series.contains_key(&label_text) {
        return Err(format!(
            "duplicate series: family {name:?} with labels {label_text:?}"
        ));
    }
    fam.series.insert(label_text, lines);
    Ok(())
}

/// Inserts a single-sample (counter/gauge) series.
fn add_scalar(
    families: &mut BTreeMap<String, FamilyAcc>,
    raw_name: &str,
    kind: FamilyKind,
    base: &[(String, &str)],
    value: impl FnOnce(&mut String),
) -> Result<(), String> {
    let name = sanitize_name(raw_name);
    let labels = label_text(base, &name, raw_name);
    let mut line = format!("{name}{labels} ");
    value(&mut line);
    line.push('\n');
    add_series(families, &name, raw_name, kind, labels, line)
}

/// Expands a histogram into its `_bucket`/`_sum`/`_count` lines plus
/// the `_nonfinite` companion counter.
fn add_histogram(
    families: &mut BTreeMap<String, FamilyAcc>,
    raw_name: &str,
    hist: &Histogram,
    base: &[(String, &str)],
) -> Result<(), String> {
    let name = sanitize_name(raw_name);
    let labels = label_text(base, &name, raw_name);
    // Every bucket line is `<name>_bucket{<labels>,le="<bound>"} <cum>`.
    let le_at = match labels.strip_suffix('}') {
        Some(open) => format!("{name}_bucket{open},le=\""),
        None => format!("{name}_bucket{{le=\""),
    };
    let mut lines = String::with_capacity((hist.bounds().len() + 3) * (le_at.len() + 24));
    let mut cum = 0u64;
    for (&bound, count) in hist.bounds().iter().zip(hist.bucket_counts()) {
        cum += count;
        lines.push_str(&le_at);
        push_value(&mut lines, bound);
        let _ = writeln!(lines, "\"}} {cum}");
    }
    // `le="+Inf"` equals `_count`: every observation, including the
    // NaN/±∞ tally kept out of the numeric buckets.
    let _ = writeln!(lines, "{le_at}+Inf\"}} {}", hist.count());
    let _ = write!(lines, "{name}_sum{labels} ");
    push_value(&mut lines, hist.sum());
    lines.push('\n');
    let _ = writeln!(lines, "{name}_count{labels} {}", hist.count());
    add_series(
        families,
        &name,
        raw_name,
        FamilyKind::Histogram,
        labels,
        lines,
    )?;
    add_scalar(
        families,
        &format!("{raw_name}_nonfinite"),
        FamilyKind::Counter,
        base,
        |out| {
            let _ = write!(out, "{}", hist.nonfinite());
        },
    )
}

/// Writes a label value escaped per the exposition format: `\\`,
/// `\"`, `\n`.
fn push_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// `(key, value)` label pairs, in exposition order.
pub type Labels = Vec<(String, String)>;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name as exposed (`x`, `x_bucket`, `x_sum`, …).
    pub name: String,
    /// Parsed labels in exposition order.
    pub labels: Labels,
    /// Parsed value (`NaN`/`±Inf` tokens decode to the matching
    /// float).
    pub value: f64,
    /// The verbatim value text, for exact integer comparisons.
    pub value_text: String,
}

impl Sample {
    /// True when every `(key, value)` pair in `subset` appears in this
    /// sample's labels.
    #[must_use]
    pub fn matches(&self, subset: &[(&str, &str)]) -> bool {
        subset
            .iter()
            .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }

    /// The value of one label, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed metric family: the `# TYPE` line and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Exposed family name.
    pub name: String,
    /// Declared kind.
    pub kind: FamilyKind,
    /// Samples in exposition order.
    pub samples: Vec<Sample>,
}

/// A parsed exposition page.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exposition {
    /// Families in exposition order.
    pub families: Vec<Family>,
}

/// A reconstructed histogram series: per-bound cumulative counts plus
/// the `_sum`/`_count` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramView {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Cumulative counts per finite bound.
    pub cumulative: Vec<f64>,
    /// Total observations (the `le="+Inf"` bucket / `_count`).
    pub count: f64,
    /// Sum of finite observations.
    pub sum: f64,
}

impl HistogramView {
    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// inside the owning bucket — the standard Prometheus
    /// `histogram_quantile` scheme. Returns `None` when the histogram
    /// is empty; values beyond the last finite bound clamp to it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.count <= 0.0 {
            return None;
        }
        let target = q * self.count;
        let mut prev_cum = 0.0;
        let mut prev_bound = 0.0;
        for (bound, cum) in self.bounds.iter().zip(&self.cumulative) {
            if *cum >= target {
                let in_bucket = cum - prev_cum;
                if in_bucket <= 0.0 {
                    return Some(*bound);
                }
                let frac = (target - prev_cum) / in_bucket;
                return Some(prev_bound + (bound - prev_bound) * frac);
            }
            prev_cum = *cum;
            prev_bound = *bound;
        }
        self.bounds.last().copied()
    }
}

impl Exposition {
    /// The family with the given exposed name, if present.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// All samples with the given full sample name.
    pub fn samples<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Sample> + 'a {
        let name = name.to_owned();
        self.families
            .iter()
            .flat_map(|f| f.samples.iter())
            .filter(move |s| s.name == name)
    }

    /// The value of the first sample with this name whose labels
    /// contain every pair in `subset`.
    #[must_use]
    pub fn value(&self, name: &str, subset: &[(&str, &str)]) -> Option<f64> {
        self.samples(name)
            .find(|s| s.matches(subset))
            .map(|s| s.value)
    }

    /// Reconstructs one histogram series of `family` (selected by
    /// `subset`, which must disambiguate when several series share
    /// the family). Returns `None` when the family is missing, not a
    /// histogram, or the series is incomplete.
    #[must_use]
    pub fn histogram_view(&self, family: &str, subset: &[(&str, &str)]) -> Option<HistogramView> {
        let fam = self.family(family)?;
        if fam.kind != FamilyKind::Histogram {
            return None;
        }
        let bucket = format!("{family}_bucket");
        let mut bounds = Vec::new();
        let mut cumulative = Vec::new();
        let mut count = None;
        for s in &fam.samples {
            if !s.matches(subset) {
                continue;
            }
            if s.name == bucket {
                let le = s.label("le")?;
                if le == "+Inf" {
                    count = Some(s.value);
                } else {
                    bounds.push(le.parse::<f64>().ok()?);
                    cumulative.push(s.value);
                }
            }
        }
        if bounds.is_empty() {
            return None;
        }
        let sum = self.value(&format!("{family}_sum"), subset)?;
        Some(HistogramView {
            bounds,
            cumulative,
            count: count?,
            sum,
        })
    }
}

/// Parses a page of the exact dialect [`render`] emits. Strict on
/// purpose: every sample must follow a `# TYPE` line for its family
/// (histogram samples attach via the `_bucket`/`_sum`/`_count`
/// suffixes), labels must be well formed, and values must be numbers
/// or the `NaN`/`+Inf`/`-Inf` tokens. Other comment lines are
/// ignored.
///
/// # Errors
/// Returns `"line N: reason"` for the first malformed line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut page = Exposition::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |m: &str| format!("line {line_no}: {m}");
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| err("TYPE line is missing a name"))?;
                let kind = parts
                    .next()
                    .and_then(FamilyKind::from_str)
                    .ok_or_else(|| err("TYPE line has an unknown kind"))?;
                if page.families.iter().any(|f| f.name == name) {
                    return Err(err("duplicate TYPE declaration"));
                }
                page.families.push(Family {
                    name: name.to_owned(),
                    kind,
                    samples: Vec::new(),
                });
            }
            continue;
        }

        let sample = parse_sample(line).map_err(|m| err(&m))?;
        let fam = page
            .families
            .iter_mut()
            .rev()
            .find(|f| sample_belongs(&sample.name, f))
            .ok_or_else(|| err("sample has no preceding TYPE declaration"))?;
        fam.samples.push(sample);
    }
    Ok(page)
}

/// Does a sample name belong to this family? Exact match, or the
/// histogram companion suffixes.
fn sample_belongs(name: &str, fam: &Family) -> bool {
    if name == fam.name {
        return fam.kind != FamilyKind::Histogram;
    }
    fam.kind == FamilyKind::Histogram
        && name
            .strip_prefix(fam.name.as_str())
            .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))
}

/// Parses one `name{labels} value` sample line.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or("sample line has no value")?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err("sample line has an empty name".to_owned());
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(inner) = rest.strip_prefix('{') {
        let (parsed, after) = parse_labels(inner)?;
        labels = parsed;
        rest = after;
    }
    let value_text = rest.trim();
    if value_text.is_empty() {
        return Err("sample line has no value".to_owned());
    }
    let value = match value_text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value {v:?}"))?,
    };
    Ok(Sample {
        name: name.to_owned(),
        labels,
        value,
        value_text: value_text.to_owned(),
    })
}

/// Parses `k="v",…}` (the text after the opening brace), returning
/// the pairs and the remainder after the closing brace.
fn parse_labels(mut s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches(',');
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or("label is missing '='")?;
        let key = s[..eq].trim().to_owned();
        if key.is_empty() {
            return Err("label has an empty name".to_owned());
        }
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value is not quoted")?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let close = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break i,
                '\\' => {
                    let (_, esc) = chars.next().ok_or("dangling escape")?;
                    match esc {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => value.push(c),
            }
        };
        labels.push((key, value));
        s = &s[close + 1..];
    }
}

/// The conventional sidecar path for the serve daemon's operational
/// telemetry (wall-clock latency histograms and live envelope
/// events), kept in a separate stream so the deterministic trace at
/// `trace_path` stays byte-comparable across runs:
/// `<trace_path>.ops.jsonl`.
#[must_use]
pub fn ops_sidecar_path(trace_path: &str) -> String {
    format!("{trace_path}.ops.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new();
        rec.set_label("policy", "ours");
        rec.set_label("seed", "3");
        rec.incr("slots", 40);
        rec.incr("envelope.violations", 2);
        rec.gauge("lambda", 0.125);
        rec.gauge("bad", f64::NAN);
        let h = rec.histogram_with_bounds("slot_total_us", &[10.0, 100.0]);
        h.record(5.0);
        h.record(50.0);
        h.record(5000.0);
        h.record(f64::INFINITY);
        rec
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let rec = sample_recorder();
        let a = render(&[&rec]).unwrap();
        let b = render(&[&rec]).unwrap();
        assert_eq!(a, b);
        let type_lines: Vec<&str> = a.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut sorted = type_lines.clone();
        sorted.sort_unstable();
        assert_eq!(type_lines, sorted, "families sort by name:\n{a}");
    }

    #[test]
    fn render_shapes_histograms_and_sanitizes_names() {
        let rec = sample_recorder();
        let text = render(&[&rec]).unwrap();
        assert!(text.contains("# TYPE envelope_violations counter"));
        assert!(text.contains(
            "envelope_violations{policy=\"ours\",raw_name=\"envelope.violations\",seed=\"3\"} 2"
        ));
        assert!(text.contains("slot_total_us_bucket{policy=\"ours\",seed=\"3\",le=\"10\"} 1"));
        assert!(text.contains("slot_total_us_bucket{policy=\"ours\",seed=\"3\",le=\"+Inf\"} 4"));
        assert!(text.contains("slot_total_us_count{policy=\"ours\",seed=\"3\"} 4"));
        assert!(text.contains("slot_total_us_nonfinite{policy=\"ours\",seed=\"3\"} 1"));
        assert!(text.contains("bad{policy=\"ours\",seed=\"3\"} NaN"));
    }

    #[test]
    fn parse_inverts_render() {
        let rec = sample_recorder();
        let text = render(&[&rec]).unwrap();
        let page = parse(&text).unwrap();
        assert_eq!(page.value("slots", &[]), Some(40.0));
        assert_eq!(page.value("lambda", &[("seed", "3")]), Some(0.125));
        assert!(page.value("bad", &[]).unwrap().is_nan());
        let view = page.histogram_view("slot_total_us", &[]).unwrap();
        assert_eq!(view.bounds, vec![10.0, 100.0]);
        assert_eq!(view.cumulative, vec![1.0, 2.0]);
        assert_eq!(view.count, 4.0);
        assert_eq!(view.sum, 5055.0);
        assert_eq!(
            page.value("slot_total_us_nonfinite", &[]),
            Some(1.0),
            "nonfinite tally is exposed"
        );
    }

    #[test]
    fn multiple_recorders_become_distinct_series() {
        let mut a = Recorder::new();
        a.set_label("seed", "1");
        a.incr("slots", 1);
        let mut b = Recorder::new();
        b.set_label("seed", "2");
        b.incr("slots", 2);
        let text = render(&[&a, &b]).unwrap();
        let page = parse(&text).unwrap();
        assert_eq!(page.value("slots", &[("seed", "1")]), Some(1.0));
        assert_eq!(page.value("slots", &[("seed", "2")]), Some(2.0));
        // Same labels twice is an error, not a silent merge.
        assert!(render(&[&a, &a]).unwrap_err().contains("duplicate series"));
    }

    #[test]
    fn kind_conflicts_are_detected() {
        let mut a = Recorder::new();
        a.set_label("seed", "1");
        a.incr("x", 1);
        let mut b = Recorder::new();
        b.set_label("seed", "2");
        b.gauge("x", 1.0);
        let err = render(&[&a, &b]).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn histogram_companion_collisions_are_detected() {
        let mut rec = Recorder::new();
        rec.observe("x", 1.0);
        rec.gauge("x_sum", 9.0);
        let err = render(&[&rec]).unwrap_err();
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn label_escaping_round_trips() {
        let mut rec = Recorder::new();
        rec.set_label("policy", "a\"b\\c\nd");
        rec.incr("x", 7);
        let text = render(&[&rec]).unwrap();
        let page = parse(&text).unwrap();
        let s = page.samples("x").next().unwrap();
        assert_eq!(s.label("policy"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let view = HistogramView {
            bounds: vec![10.0, 100.0],
            cumulative: vec![50.0, 100.0],
            count: 100.0,
            sum: 0.0,
        };
        assert_eq!(view.quantile(0.25), Some(5.0));
        assert_eq!(view.quantile(0.75), Some(55.0));
        // Mass beyond the last finite bound clamps to it.
        let tail = HistogramView {
            bounds: vec![10.0],
            cumulative: vec![0.0],
            count: 5.0,
            sum: 0.0,
        };
        assert_eq!(tail.quantile(0.5), Some(10.0));
    }

    #[test]
    fn parser_rejects_malformed_pages() {
        for (bad, hint) in [
            ("x 1\n", "no preceding TYPE"),
            ("# TYPE x counter\nx{a=b} 1\n", "not quoted"),
            ("# TYPE x counter\nx{a=\"b} 1\n", "unterminated"),
            ("# TYPE x counter\nx nope\n", "invalid sample value"),
            ("# TYPE x counter\n# TYPE x gauge\n", "duplicate TYPE"),
            ("# TYPE x wat\n", "unknown kind"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(hint), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn sanitize_name_maps_into_charset() {
        assert_eq!(sanitize_name("envelope.violations"), "envelope_violations");
        assert_eq!(sanitize_name("7seas"), "_7seas");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("ok_name:x9"), "ok_name:x9");
    }

    /// The serve daemon's page pinned byte for byte: a run trace, the
    /// ops recorder with its seven latency histograms on the daemon's
    /// bounds (one holding a NaN), and an unlabeled recorder.
    #[test]
    fn daemon_page_bytes_are_pinned() {
        const BOUNDS_US: [f64; 14] = [
            50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6,
        ];
        let mut trace = Recorder::new();
        trace.set_label("policy", "Ours");
        trace.set_label("seed", "7");
        trace.incr("slots", 160);
        trace.incr("switches", 23);
        trace.incr("trade.buys", 41);
        trace.gauge("lambda", 0.031_25);
        trace.gauge("violation", -0.0);
        trace.observe("slot_loss", 0.25);
        trace.observe("slot_loss", 1.5e-3);

        let mut ops = Recorder::new();
        ops.set_label("policy", "Ours");
        ops.set_label("seed", "7");
        ops.set_label("stream", "ops");
        ops.incr("serve.slots", 160);
        ops.incr("serve.requests", 2_000_123);
        ops.gauge("serve.next_slot", 160.0);
        ops.gauge("carbon.emitted", 1_234.567_890_123);
        ops.gauge("dual.lambda", f64::INFINITY);
        for (k, name) in [
            "serve.latency.select_us",
            "serve.latency.trade_us",
            "serve.latency.serve_us",
            "serve.latency.feedback_us",
            "serve.latency.ingest_us",
            "serve.latency.slot_us",
            "serve.latency.checkpoint_us",
        ]
        .into_iter()
        .enumerate()
        {
            let h = ops.histogram_with_bounds(name, &BOUNDS_US);
            for j in 0..40 {
                h.record(12.5 * (k as f64 + 1.0) * f64::from(j * j + 1));
            }
            if k == 5 {
                h.record(f64::NAN);
            }
        }

        let mut bare = Recorder::new();
        bare.incr("build_info", 1);
        bare.gauge("up", 1.0);

        let page = render(&[&trace, &ops, &bare]).unwrap();
        assert_eq!(page, include_str!("../tests/data/daemon_page.prom"));
    }

    #[test]
    fn ops_sidecar_path_appends_suffix() {
        assert_eq!(ops_sidecar_path("trace.jsonl"), "trace.jsonl.ops.jsonl");
    }
}
