//! Zero-dependency instrumentation: counters, gauges, fixed-bucket
//! histograms, per-slot event records, and a JSONL sink.
//!
//! A [`Recorder`] is a plain value — no globals, no locks, no
//! background threads — so each simulation run owns its own recorder
//! and parallel runs never contend. The runner merges recorders in
//! deterministic `(spec, seed)` order when writing a trace file, so
//! telemetry output is bit-identical across thread counts.
//!
//! The sink format is JSON Lines: one self-describing JSON object per
//! line, written by [`Recorder::write_jsonl`]. The encoder is
//! hand-rolled (the workspace builds offline, without `serde_json`)
//! and emits only objects, arrays, strings, booleans, `null`, and
//! finite numbers — non-finite floats serialize as `null`.
//!
//! # Examples
//!
//! ```
//! use cne_util::telemetry::{Recorder, Value};
//!
//! let mut rec = Recorder::new();
//! rec.set_label("policy", "ours");
//! rec.incr("trades", 1);
//! rec.gauge("lambda", 0.35);
//! rec.observe("trade_size", 12.5);
//! rec.event(Some(3), "switch", &[("from", Value::from(0u64)), ("to", Value::from(2u64))]);
//!
//! let jsonl = rec.to_jsonl_string();
//! // One JSON object per line: run header, events, then summaries.
//! assert!(jsonl.lines().count() >= 4);
//! assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::json::{self, encode_string, Json};

/// Default histogram bucket upper bounds, in the unit of the observed
/// quantity. Chosen to cover both per-stage timings in microseconds
/// and trade volumes; callers with tighter needs can register a
/// histogram explicitly via [`Recorder::histogram_with_bounds`].
pub const DEFAULT_BUCKETS: [f64; 12] = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
];

/// A dynamically typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean flag.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (slot indices, arm ids, …).
    UInt(u64),
    /// A floating-point quantity. Non-finite values serialize as
    /// `null`.
    Float(f64),
    /// A string label.
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One recorded occurrence: what happened (`kind`), when (`slot`),
/// and structured details (`fields`, in insertion order).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Slot index the event belongs to, if it is tied to a slot.
    pub slot: Option<u64>,
    /// Event kind, e.g. `"switch"`, `"trade"`, `"violation"`.
    pub kind: String,
    /// Ordered `(name, value)` detail fields.
    pub fields: Vec<(String, Value)>,
}

/// A histogram with fixed, caller-supplied bucket boundaries.
///
/// Bucket `i` counts observations `x <= bounds[i]` (with `x` larger
/// than every earlier bound); one extra overflow bucket counts
/// `x > bounds[last]`. NaN and ±∞ observations are tallied in a
/// dedicated non-finite bucket — they count toward `count` but never
/// pollute the numeric buckets or the sum/min/max moments. The
/// histogram also tracks count, sum, min, and max exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    nonfinite: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            nonfinite: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite values count toward
    /// `count` and the dedicated [`nonfinite`](Self::nonfinite)
    /// bucket; they do not perturb the numeric buckets or
    /// sum/min/max.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x.is_finite() {
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
            let idx = self
                .bounds
                .iter()
                .position(|&b| x <= b)
                .unwrap_or(self.bounds.len());
            self.counts[idx] += 1;
        } else {
            self.nonfinite += 1;
        }
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of NaN/±∞ observations, kept out of the numeric
    /// buckets.
    #[must_use]
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations, or `None` before any were
    /// recorded.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let finite = self.count - self.nonfinite;
        (finite > 0).then(|| self.sum / finite as f64)
    }

    /// Upper bucket bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; `bucket_counts().len() == bounds().len() + 1`
    /// (the final entry is the overflow bucket).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest finite observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Reassembles a histogram from its serialized parts — the inverse
    /// of the `histogram` JSONL line. `min`/`max` are `None` when no
    /// finite observation was ever recorded; `nonfinite` is the
    /// NaN/±∞ tally (0 for traces written before it existed).
    ///
    /// # Errors
    /// Returns a message when the parts are inconsistent (empty or
    /// unsorted bounds, or a counts length that does not match).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        nonfinite: u64,
        count: u64,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Result<Self, String> {
        if bounds.is_empty() {
            return Err("histogram needs at least one bound".to_owned());
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds must be strictly increasing".to_owned());
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram counts length {} does not match {} bounds + overflow",
                counts.len(),
                bounds.len()
            ));
        }
        Ok(Self {
            bounds,
            counts,
            nonfinite,
            count,
            sum,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }

    /// Folds another histogram with identical bounds into this one.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.nonfinite += other.nonfinite;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An in-memory telemetry store for one simulation run.
///
/// All iteration orders are deterministic: counters, gauges, and
/// histograms sort by name; events and labels keep insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    labels: Vec<(String, String)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<Event>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a run-level label (seed, policy name, …), emitted in
    /// the JSONL run header. Re-setting a key overwrites its value in
    /// place.
    pub fn set_label(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.labels.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.labels.push((key.to_owned(), value)),
        }
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records an observation into the named histogram, creating it
    /// with [`DEFAULT_BUCKETS`] on first use.
    pub fn observe(&mut self, name: &str, x: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS))
            .record(x);
    }

    /// Returns the named histogram, creating it with the given bounds
    /// on first use (later calls ignore `bounds`).
    pub fn histogram_with_bounds(&mut self, name: &str, bounds: &[f64]) -> &mut Histogram {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
    }

    /// Installs a fully built histogram under `name`, replacing any
    /// existing one. Used when reassembling a recorder from a trace.
    pub fn set_histogram(&mut self, name: &str, hist: Histogram) {
        self.histograms.insert(name.to_owned(), hist);
    }

    /// Appends a structured event record.
    pub fn event(&mut self, slot: Option<u64>, kind: &str, fields: &[(&str, Value)]) {
        self.events.push(Event {
            slot,
            kind: kind.to_owned(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }

    /// Appends an already-built event record. Used when replaying
    /// events buffered outside the recorder (e.g. by parallel workers
    /// that must not share the recorder) in a deterministic order.
    pub fn record_event(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Current value of a counter (zero if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest value of a gauge, if set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation created it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Run-level labels, in insertion order.
    #[must_use]
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// True if nothing was recorded (labels do not count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Writes the whole recorder as JSON Lines: a `run` header with
    /// the labels, one line per event, then `counters`, `gauges`, and
    /// one `histogram` line per histogram.
    ///
    /// # Errors
    /// Propagates I/O errors from the sink.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut line = String::new();
        line.push_str("{\"type\":\"run\"");
        for (k, v) in &self.labels {
            push_kv_str(&mut line, k, v);
        }
        line.push('}');
        writeln!(w, "{line}")?;

        for ev in &self.events {
            line.clear();
            line.push_str("{\"type\":\"event\",\"kind\":");
            encode_string(&ev.kind, &mut line);
            if let Some(slot) = ev.slot {
                let _ = write!(line, ",\"slot\":{slot}");
            }
            for (k, v) in &ev.fields {
                line.push(',');
                encode_string(k, &mut line);
                line.push(':');
                push_value(&mut line, v);
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }

        if !self.counters.is_empty() {
            line.clear();
            line.push_str("{\"type\":\"counters\"");
            for (k, v) in &self.counters {
                line.push(',');
                encode_string(k, &mut line);
                let _ = write!(line, ":{v}");
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }

        if !self.gauges.is_empty() {
            line.clear();
            line.push_str("{\"type\":\"gauges\"");
            for (k, v) in &self.gauges {
                line.push(',');
                encode_string(k, &mut line);
                line.push(':');
                push_f64(&mut line, *v);
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }

        for (name, hist) in &self.histograms {
            line.clear();
            line.push_str("{\"type\":\"histogram\",\"name\":");
            encode_string(name, &mut line);
            line.push_str(",\"bounds\":[");
            for (i, b) in hist.bounds().iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_f64(&mut line, *b);
            }
            line.push_str("],\"counts\":[");
            for (i, c) in hist.bucket_counts().iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{c}");
            }
            // Written only when non-zero so traces recorded before the
            // field existed stay byte-identical.
            if hist.nonfinite() > 0 {
                let _ = write!(line, "],\"nonfinite\":{}", hist.nonfinite());
                let _ = write!(line, ",\"count\":{}", hist.count());
            } else {
                let _ = write!(line, "],\"count\":{}", hist.count());
            }
            line.push_str(",\"sum\":");
            push_f64(&mut line, hist.sum());
            if let Some(min) = hist.min() {
                line.push_str(",\"min\":");
                push_f64(&mut line, min);
            }
            if let Some(max) = hist.max() {
                line.push_str(",\"max\":");
                push_f64(&mut line, max);
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// [`Recorder::write_jsonl`] into a `String`.
    #[must_use]
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("encoder emits UTF-8")
    }
}

/// Failure while parsing a JSONL trace: which line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a telemetry trace back into [`Recorder`]s — the inverse of
/// [`Recorder::write_jsonl`]. Each `run` header starts a new recorder;
/// subsequent `event`/`counters`/`gauges`/`histogram` lines accumulate
/// into it. Blank lines are skipped.
///
/// Float `null`s decode to `NaN` (the encoder collapses every
/// non-finite float to `null`, so the distinction between `NaN` and
/// the infinities is not recoverable).
///
/// # Errors
/// Returns a [`ParseError`] naming the first malformed line: invalid
/// JSON, an unknown line type, a data line before any `run` header, or
/// fields with unexpected types.
pub fn parse_jsonl(input: &str) -> Result<Vec<Recorder>, ParseError> {
    let mut recorders: Vec<Recorder> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let doc = json::parse(raw).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| err("line is not a JSON object".to_owned()))?;
        let line_type = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string \"type\" field".to_owned()))?;

        if line_type == "run" {
            let mut rec = Recorder::new();
            for (k, v) in obj.iter().filter(|(k, _)| k != "type") {
                let v = v
                    .as_str()
                    .ok_or_else(|| err(format!("run label {k:?} is not a string")))?;
                rec.set_label(k, v);
            }
            recorders.push(rec);
            continue;
        }

        let rec = recorders
            .last_mut()
            .ok_or_else(|| err(format!("{line_type:?} line before any run header")))?;
        match line_type {
            "event" => {
                let kind = doc
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("event is missing a string \"kind\"".to_owned()))?
                    .to_owned();
                let slot = match doc.get("slot") {
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| err("event \"slot\" is not an integer".to_owned()))?,
                    ),
                    None => None,
                };
                let mut fields = Vec::new();
                for (k, v) in obj
                    .iter()
                    .filter(|(k, _)| k != "type" && k != "kind" && k != "slot")
                {
                    fields.push((
                        k.clone(),
                        json_to_value(v).ok_or_else(|| {
                            err(format!("event field {k:?} has unsupported type"))
                        })?,
                    ));
                }
                rec.events.push(Event { slot, kind, fields });
            }
            "counters" => {
                for (k, v) in obj.iter().filter(|(k, _)| k != "type") {
                    let v = v
                        .as_u64()
                        .ok_or_else(|| err(format!("counter {k:?} is not a u64")))?;
                    rec.incr(k, v);
                }
            }
            "gauges" => {
                for (k, v) in obj.iter().filter(|(k, _)| k != "type") {
                    let v = json_to_f64(v)
                        .ok_or_else(|| err(format!("gauge {k:?} is not a number")))?;
                    rec.gauge(k, v);
                }
            }
            "histogram" => {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("histogram is missing a string \"name\"".to_owned()))?;
                let bounds = doc
                    .get("bounds")
                    .and_then(Json::as_array)
                    .ok_or_else(|| err("histogram is missing a \"bounds\" array".to_owned()))?
                    .iter()
                    .map(|b| b.as_f64())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| err("histogram bound is not a number".to_owned()))?;
                let counts = doc
                    .get("counts")
                    .and_then(Json::as_array)
                    .ok_or_else(|| err("histogram is missing a \"counts\" array".to_owned()))?
                    .iter()
                    .map(|c| c.as_u64())
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| err("histogram count is not a u64".to_owned()))?;
                let nonfinite = match doc.get("nonfinite") {
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| err("histogram \"nonfinite\" is not a u64".to_owned()))?,
                    None => 0,
                };
                let count = doc
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("histogram is missing a u64 \"count\"".to_owned()))?;
                let sum = doc
                    .get("sum")
                    .and_then(json_to_f64)
                    .ok_or_else(|| err("histogram is missing a numeric \"sum\"".to_owned()))?;
                let min = doc.get("min").and_then(Json::as_f64);
                let max = doc.get("max").and_then(Json::as_f64);
                let hist = Histogram::from_parts(bounds, counts, nonfinite, count, sum, min, max)
                    .map_err(|e| err(format!("inconsistent histogram: {e}")))?;
                rec.set_histogram(name, hist);
            }
            other => return Err(err(format!("unknown line type {other:?}"))),
        }
    }
    Ok(recorders)
}

/// Decodes one JSON scalar into an event [`Value`]. `null` maps to
/// `Float(NaN)` (the encoder's image of every non-finite float);
/// arrays and objects are not valid event field values.
fn json_to_value(v: &Json) -> Option<Value> {
    match v {
        Json::Null => Some(Value::Float(f64::NAN)),
        Json::Bool(b) => Some(Value::Bool(*b)),
        Json::UInt(u) => Some(Value::UInt(*u)),
        Json::Int(i) => Some(Value::Int(*i)),
        Json::Float(f) => Some(Value::Float(*f)),
        Json::Str(s) => Some(Value::Str(s.clone())),
        Json::Arr(_) | Json::Obj(_) => None,
    }
}

/// A JSON number (or `null`, decoded as `NaN`) as `f64`.
fn json_to_f64(v: &Json) -> Option<f64> {
    if v.is_null() {
        Some(f64::NAN)
    } else {
        v.as_f64()
    }
}

fn push_kv_str(out: &mut String, key: &str, value: &str) {
    out.push(',');
    encode_string(key, out);
    out.push(':');
    encode_string(value, out);
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => push_f64(out, *f),
        Value::Str(s) => encode_string(s, out),
    }
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_on_boundaries() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Upper-inclusive buckets: x <= bound.
        h.record(0.5); // bucket 0
        h.record(1.0); // bucket 0 (boundary is inclusive)
        h.record(1.5); // bucket 1
        h.record(2.0); // bucket 1
        h.record(4.0); // bucket 2
        h.record(4.1); // overflow
        h.record(-3.0); // bucket 0
        assert_eq!(h.bucket_counts(), &[3, 2, 1, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(4.1));
    }

    #[test]
    fn histogram_ignores_nonfinite_in_moments() {
        let mut h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        // Non-finite observations land in their own bucket, not the
        // numeric overflow bucket.
        assert_eq!(h.bucket_counts(), &[0, 0]);
        assert_eq!(h.nonfinite(), 3);
        h.record(0.5);
        assert_eq!(h.mean(), Some(0.5));
    }

    #[test]
    fn histogram_nonfinite_round_trips_and_stays_off_legacy_lines() {
        let mut rec = Recorder::new();
        rec.observe("clean", 2.0);
        rec.observe("dirty", f64::NAN);
        rec.observe("dirty", 7.0);
        let text = rec.to_jsonl_string();
        // Histograms without non-finite observations keep the legacy
        // line shape (no "nonfinite" key — old traces stay
        // byte-identical).
        let clean_line = text.lines().find(|l| l.contains("\"clean\"")).unwrap();
        assert!(!clean_line.contains("nonfinite"));
        let dirty_line = text.lines().find(|l| l.contains("\"dirty\"")).unwrap();
        assert!(dirty_line.contains("\"nonfinite\":1"));

        let back = &parse_jsonl(&text).unwrap()[0];
        let dirty = back.histogram("dirty").unwrap();
        assert_eq!(dirty.nonfinite(), 1);
        assert_eq!(dirty.count(), 2);
        assert_eq!(dirty.sum(), 7.0);
        assert_eq!(back.to_jsonl_string(), text, "fixpoint");
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        b.record(f64::NAN);
        a.merge(&b);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 4);
        assert_eq!(a.nonfinite(), 1);
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        a.merge(&Histogram::new(&[2.0]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn counters_and_gauges() {
        let mut rec = Recorder::new();
        rec.incr("trades", 2);
        rec.incr("trades", 3);
        rec.gauge("lambda", 0.1);
        rec.gauge("lambda", 0.2);
        assert_eq!(rec.counter("trades"), 5);
        assert_eq!(rec.counter("absent"), 0);
        assert_eq!(rec.gauge_value("lambda"), Some(0.2));
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let mut rec = Recorder::new();
        rec.set_label("policy", "tsallis\"inf\\");
        rec.set_label("seed", "7");
        rec.incr("switches", 1);
        rec.gauge("bad", f64::NAN);
        rec.observe("latency_us", 3.0);
        rec.event(
            Some(12),
            "switch",
            &[
                ("from", Value::from(0u64)),
                ("to", Value::from(2u64)),
                ("note", Value::from("line\nbreak")),
                ("ok", Value::from(true)),
                ("delta", Value::from(-1.5)),
            ],
        );

        let out = rec.to_jsonl_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "run + event + counters + gauges + histogram"
        );
        assert_eq!(
            lines[0],
            r#"{"type":"run","policy":"tsallis\"inf\\","seed":"7"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"type":"event","kind":"switch","slot":12,"from":0,"to":2,"note":"line\nbreak","ok":true,"delta":-1.5}"#
        );
        assert_eq!(lines[2], r#"{"type":"counters","switches":1}"#);
        assert_eq!(lines[3], r#"{"type":"gauges","bad":null}"#);
        assert!(lines[4].starts_with(r#"{"type":"histogram","name":"latency_us""#));
        assert!(lines[4].contains(r#""count":1"#));
        // Every line is a braced object.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn relabel_overwrites_in_place() {
        let mut rec = Recorder::new();
        rec.set_label("seed", "1");
        rec.set_label("policy", "x");
        rec.set_label("seed", "2");
        assert_eq!(
            rec.labels(),
            &[
                ("seed".to_owned(), "2".to_owned()),
                ("policy".to_owned(), "x".to_owned())
            ]
        );
    }

    #[test]
    fn parse_jsonl_round_trips_a_recorder() {
        let mut rec = Recorder::new();
        rec.set_label("policy", "ours");
        rec.set_label("seed", "3");
        rec.incr("switches", 4);
        rec.gauge("lambda", 8.25);
        rec.gauge("bad", f64::INFINITY);
        rec.observe("trade_size", 3.0);
        rec.observe("trade_size", 9000.0);
        rec.event(
            Some(7),
            "switch",
            &[("to", Value::from(2u64)), ("note", Value::from("hé\"y"))],
        );
        rec.event(None, "settle", &[("cost", Value::from(-1.5))]);

        let parsed = parse_jsonl(&rec.to_jsonl_string()).unwrap();
        assert_eq!(parsed.len(), 1);
        let back = &parsed[0];
        assert_eq!(back.labels(), rec.labels());
        assert_eq!(back.counter("switches"), 4);
        assert_eq!(back.gauge_value("lambda"), Some(8.25));
        // Non-finite gauges collapse to null on disk, NaN on re-read.
        assert!(back.gauge_value("bad").unwrap().is_nan());
        let h = back.histogram("trade_size").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(3.0));
        assert_eq!(h.max(), Some(9000.0));
        assert_eq!(
            h.bucket_counts(),
            rec.histogram("trade_size").unwrap().bucket_counts()
        );
        assert_eq!(back.events()[0], rec.events()[0]);
        assert_eq!(back.events()[1], rec.events()[1]);
        // Re-serialization is a fixpoint.
        assert_eq!(back.to_jsonl_string(), rec.to_jsonl_string());
    }

    #[test]
    fn parse_jsonl_splits_runs_and_reports_line_numbers() {
        let input = concat!(
            "{\"type\":\"run\",\"seed\":\"1\"}\n",
            "{\"type\":\"counters\",\"slots\":40}\n",
            "\n",
            "{\"type\":\"run\",\"seed\":\"2\"}\n",
            "{\"type\":\"gauges\",\"x\":1.5}\n",
        );
        let runs = parse_jsonl(input).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].counter("slots"), 40);
        assert_eq!(runs[1].gauge_value("x"), Some(1.5));

        for (bad, want_line) in [
            ("{\"type\":\"counters\",\"x\":1}", 1), // before any run
            ("{\"type\":\"run\"}\nnot json", 2),    // invalid JSON
            ("{\"type\":\"run\"}\n{\"type\":\"wat\"}", 2), // unknown type
            ("{\"type\":\"run\"}\n{\"type\":\"counters\",\"x\":-1}", 2), // negative counter
        ] {
            let e = parse_jsonl(bad).unwrap_err();
            assert_eq!(e.line, want_line, "input: {bad:?} -> {e}");
        }
    }

    #[test]
    fn empty_recorder_reports_empty() {
        let mut rec = Recorder::new();
        assert!(rec.is_empty());
        rec.set_label("seed", "1");
        assert!(rec.is_empty(), "labels alone do not make a recorder dirty");
        rec.incr("x", 1);
        assert!(!rec.is_empty());
    }
}
