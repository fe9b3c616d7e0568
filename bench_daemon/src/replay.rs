//! In-process replay of a pass through each layer's public functions,
//! in the daemon's order, with an optional span around every call.
//!
//! For each 256 KiB block of the stream (the daemon's read buffer):
//! decode every line (`wire::decode_fast`, falling back to
//! `wire::decode_strict`), then accumulate the decoded lines, then
//! group-commit the block's arrivals with one `Wal::append`. At each
//! `slot_end`: the `SlotClose` append and the fsync the policy calls
//! for, `ServeSession::push_slot`, the checkpoint on its schedule, and
//! the admin page render. The daemon decodes and accumulates line by
//! line; the replay does the same work per block in two loops so the
//! two layers get separate spans.
//!
//! The transport reader thread, its channel and the daemon's process
//! set-up cannot be called from outside; they are what the replay
//! leaves out (see `trace.daemon_gap_frac`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use cne_core::wal::{self, SyncPolicy, Wal, WalOptions, WalRecord};
use cne_core::wire::{self, WireMsg};
use cne_core::{Checkpoint, Combo, ServeSession};
use cne_nn::ModelZoo;
use cne_util::expo;
use cne_util::telemetry::{Recorder, Value};

use crate::passes::{
    crash_point, dir_bytes, remainder, serve_options, sim_config, Summary, DAEMON_SEED,
};
use crate::workload::{Durable, Stream, Workload};

/// The daemon's transport read buffer, and so its largest line block.
const READ_CHUNK: usize = 256 * 1024;

/// The daemon's latency-histogram buckets, µs.
const LATENCY_BOUNDS_US: [f64; 14] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
];

/// Stage-latency histogram names and the profiler paths they read.
pub const STAGES: [(&str, &str); 4] = [
    ("select", "slot/select"),
    ("trade", "slot/trade"),
    ("serve", "slot/serve"),
    ("feedback", "slot/feedback"),
];

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `session.push_slot`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The open slot when the call began: the id every span of one
    /// slot's requests shares.
    pub slot: usize,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; a disabled tracer records nothing and reads
/// no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, slot: usize) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            slot,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the time its children
/// cover. Children of one span never overlap (the replay is sequential).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Counts and samples a replay collects besides its spans.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wire lines decoded (slot markers included).
    pub lines: u64,
    /// Lines the fast decoder took.
    pub fast: u64,
    /// Lines handed to the strict decoder.
    pub strict: u64,
    /// Time in the strict decoder (traced replays only), ns.
    pub strict_ns: u64,
    /// Lines neither decoder accepted.
    pub bad: u64,
    /// WAL frames appended (checkpoint markers excluded).
    pub wal_frames: u64,
    /// WAL bytes written.
    pub wal_bytes: u64,
    /// Per slot, per stage of [`STAGES`]: the stage profiler's time, µs.
    pub stage_us: [Vec<f64>; 4],
    /// Checkpoints written, kept to time their encoding afterwards.
    pub checkpoints: Vec<Checkpoint>,
}

/// The daemon's operational recorder, updated as `DaemonOps::after_slot`
/// updates it, so its rendered page has the daemon's shape.
struct OpsMirror {
    rec: Recorder,
    prev_us: [f64; 5],
}

impl OpsMirror {
    fn new(session: &ServeSession<'_>) -> Self {
        let mut rec = Recorder::new();
        rec.set_label("policy", session.policy_name());
        rec.set_label("seed", DAEMON_SEED.to_string());
        rec.set_label("stream", "ops");
        rec.gauge("serve.start_slot", session.next_slot() as f64);
        rec.gauge("serve.horizon", session.horizon() as f64);
        Self {
            rec,
            prev_us: [0.0; 5],
        }
    }

    fn after_slot(
        &mut self,
        session: &mut ServeSession<'_>,
        requests: u64,
        slot_wall_us: f64,
        tally: &mut Tally,
    ) {
        self.rec.incr("serve.slots", 1);
        self.rec.incr("serve.requests", requests);
        self.rec
            .gauge("serve.next_slot", session.next_slot() as f64);
        let ledger = *session.ledger();
        self.rec.gauge("carbon.cap", ledger.cap().get());
        self.rec
            .gauge("carbon.emitted", ledger.emitted().to_allowances().get());
        self.rec.gauge("carbon.held", ledger.held().get());
        self.rec
            .gauge("carbon.slack", ledger.neutrality_slack().get());
        self.rec.gauge("allowance.bought", ledger.bought().get());
        self.rec.gauge("allowance.sold", ledger.sold().get());
        self.rec
            .gauge("market.net_cost_cents", ledger.net_trading_cost().get());
        if let Some(monitor) = session.live_monitor() {
            if let Some(lambda) = monitor.last_lambda() {
                self.rec.gauge("dual.lambda", lambda);
            }
            self.rec
                .gauge("envelope.live.fit_observed", monitor.fit_observed());
            self.rec
                .gauge("envelope.live.fit_bound", monitor.fit_bound());
            self.rec
                .gauge("envelope.live.lambda_ceiling", monitor.lambda_ceiling());
        }
        for finding in session.take_live_findings() {
            let class = if finding.excused {
                "envelope.live.excused"
            } else {
                "envelope.live.violations"
            };
            self.rec.incr(class, 1);
            self.rec
                .incr(&format!("envelope.live.{}", finding.monitor), 1);
            let mut fields: Vec<(&str, Value)> = vec![
                ("monitor", finding.monitor.into()),
                ("excused", finding.excused.into()),
            ];
            fields.extend(finding.detail.iter().cloned());
            self.rec.event(finding.slot, "envelope_live", &fields);
        }
        if let Some(profiler) = session.profiler() {
            for (i, (stage, path)) in STAGES.iter().enumerate() {
                let total = profiler.total_us(path);
                let delta = (total - self.prev_us[i]).max(0.0);
                self.prev_us[i] = total;
                tally.stage_us[i].push(delta);
                self.rec
                    .histogram_with_bounds(&format!("serve.latency.{stage}_us"), &LATENCY_BOUNDS_US)
                    .record(delta);
            }
            let step_total = profiler.total_us("slot");
            let step = (step_total - self.prev_us[4]).max(0.0);
            self.prev_us[4] = step_total;
            self.rec
                .histogram_with_bounds("serve.latency.ingest_us", &LATENCY_BOUNDS_US)
                .record((slot_wall_us - step).max(0.0));
        }
        self.rec
            .histogram_with_bounds("serve.latency.slot_us", &LATENCY_BOUNDS_US)
            .record(slot_wall_us);
    }
}

/// Where a replay keeps its durable state, if it has any.
#[derive(Debug, Clone)]
pub struct Layers {
    /// WAL directory and the fsync policy the daemon would apply.
    pub wal: Option<(PathBuf, SyncPolicy)>,
    /// Checkpoint path and interval.
    pub checkpoint: Option<(PathBuf, usize)>,
    /// Telemetry trace path (the ops sidecar goes next to it).
    pub telemetry: Option<PathBuf>,
}

impl Layers {
    /// The layers of a daemon run with `durable` flags, kept in `dir`.
    #[must_use]
    pub fn new(workload: &Workload, durable: Option<Durable>, dir: &Path) -> Self {
        Self {
            wal: durable.map(|d| (dir.join("wal"), d.wal_sync)),
            checkpoint: durable.map(|d| (dir.join("state.ckpt"), d.checkpoint_every)),
            telemetry: workload.telemetry.then(|| dir.join("trace.jsonl")),
        }
    }
}

/// Feeds wire bytes through one session and its layers.
pub struct Replayer<'z> {
    session: ServeSession<'z>,
    wal: Option<Wal>,
    sync: SyncPolicy,
    wal_base: u64,
    checkpoint: Option<(PathBuf, usize)>,
    telemetry: Option<PathBuf>,
    ops: OpsMirror,
    open: Vec<u64>,
    pending: Vec<(u64, u64)>,
    msgs: Vec<WireMsg>,
    timed_strict: bool,
    /// What the replay counted.
    pub tally: Tally,
}

fn opened_wal(dir: &Path) -> Result<(Wal, wal::WalRecovery), String> {
    // The replay applies the fsync policy itself, so each fsync gets
    // its own span.
    Wal::open(
        dir,
        WalOptions {
            sync: SyncPolicy::Off,
            ..WalOptions::default()
        },
    )
}

impl<'z> Replayer<'z> {
    /// A replayer over `session`, with a fresh WAL when `layers` has one.
    ///
    /// # Errors
    /// A message when the WAL cannot be opened.
    pub fn new(session: ServeSession<'z>, layers: &Layers, traced: bool) -> Result<Self, String> {
        let wal = match &layers.wal {
            Some((dir, _)) => Some(opened_wal(dir)?.0),
            None => None,
        };
        Ok(Self::with_wal(session, wal, layers, traced))
    }

    fn with_wal(
        session: ServeSession<'z>,
        wal: Option<Wal>,
        layers: &Layers,
        traced: bool,
    ) -> Self {
        let wal_base = layers.wal.as_ref().map_or(0, |(dir, _)| dir_bytes(dir));
        Self {
            ops: OpsMirror::new(&session),
            open: vec![0; session.num_edges()],
            session,
            wal,
            sync: layers.wal.as_ref().map_or(SyncPolicy::Off, |(_, s)| *s),
            wal_base,
            checkpoint: layers.checkpoint.clone(),
            telemetry: layers.telemetry.clone(),
            pending: Vec::new(),
            msgs: Vec::new(),
            timed_strict: traced,
            tally: Tally::default(),
        }
    }

    /// Feeds `bytes` in the daemon's read-buffer blocks.
    ///
    /// # Errors
    /// A message when a WAL or checkpoint write fails.
    pub fn feed(&mut self, bytes: &[u8], tr: &mut Tracer) -> Result<(), String> {
        let mut at = 0;
        while at < bytes.len() {
            let end = (at + READ_CHUNK).min(bytes.len());
            let cut = if end == bytes.len() {
                end
            } else {
                bytes[at..end]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(end, |p| at + p + 1)
            };
            self.block(&bytes[at..cut], tr)?;
            at = cut;
        }
        Ok(())
    }

    fn block(&mut self, block: &[u8], tr: &mut Tracer) -> Result<(), String> {
        let edges = self.open.len();
        let mut msgs = std::mem::take(&mut self.msgs);
        msgs.clear();
        tr.enter("wire.decode", self.session.next_slot());
        for line in block.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            self.tally.lines += 1;
            if let Some(msg) = wire::decode_fast(line, edges) {
                self.tally.fast += 1;
                msgs.push(msg);
                continue;
            }
            let began = self.timed_strict.then(Instant::now);
            let parsed = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|text| wire::decode_strict(text.trim(), edges));
            if let Some(began) = began {
                self.tally.strict_ns +=
                    u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            self.tally.strict += 1;
            match parsed {
                Ok(msg) => msgs.push(msg),
                Err(_) => self.tally.bad += 1,
            }
        }
        tr.exit();
        tr.enter("ingest.accumulate", self.session.next_slot());
        for msg in &msgs {
            match *msg {
                WireMsg::Request { edge, count } => {
                    self.pending.push((edge as u64, count));
                    self.open[edge] += count;
                }
                WireMsg::SlotEnd => self.close_slot(tr)?,
            }
        }
        tr.exit();
        self.msgs = msgs;
        self.flush(tr)
    }

    /// Group commit: the arrivals applied since the last append.
    fn flush(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.wal.is_none() {
            self.pending.clear();
            return Ok(());
        }
        let pairs = std::mem::take(&mut self.pending);
        let slot = self.session.next_slot() as u64;
        self.append(&WalRecord::Arrivals { slot, pairs }, tr)
    }

    fn append(&mut self, record: &WalRecord, tr: &mut Tracer) -> Result<(), String> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let slot = self.session.next_slot();
        tr.enter("wal.append", slot);
        wal.append(record)?;
        tr.exit();
        self.tally.wal_frames += 1;
        let must_sync = match self.sync {
            SyncPolicy::Every => true,
            SyncPolicy::Slot => matches!(record, WalRecord::SlotClose { .. }),
            SyncPolicy::Off => false,
        };
        if must_sync {
            tr.enter("wal.sync", slot);
            wal.sync()?;
            tr.exit();
        }
        Ok(())
    }

    fn close_slot(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let slot = self.session.next_slot();
        self.flush(tr)?;
        self.append(&WalRecord::SlotClose { slot: slot as u64 }, tr)?;
        let requests: u64 = self.open.iter().sum();
        tr.enter("session.push_slot", slot);
        let began = Instant::now();
        self.session.push_slot(&self.open);
        let push_us = began.elapsed().as_secs_f64() * 1e6;
        tr.exit();
        self.open.iter_mut().for_each(|c| *c = 0);
        if let Some((path, every)) = self.checkpoint.clone() {
            let next = self.session.next_slot();
            if next % every == 0 && !self.session.is_done() {
                tr.enter("checkpoint.snapshot", slot);
                let ckpt = self.session.checkpoint()?;
                tr.exit();
                tr.enter("checkpoint.save", slot);
                ckpt.save(&path)?;
                tr.exit();
                if let Some(wal) = self.wal.as_mut() {
                    // The install garbage-collects every older segment:
                    // count their bytes first.
                    self.tally.wal_bytes += dir_bytes(wal.dir()).saturating_sub(self.wal_base);
                    tr.enter("wal.install_checkpoint", slot);
                    wal.install_checkpoint(next as u64)?;
                    tr.exit();
                    self.wal_base = dir_bytes(wal.dir());
                }
                self.tally.checkpoints.push(ckpt);
            }
        }
        tr.enter("ops.after_slot", slot);
        self.ops
            .after_slot(&mut self.session, requests, push_us, &mut self.tally);
        tr.enter("expo.render", slot);
        let mut recorders: Vec<&Recorder> = Vec::with_capacity(2);
        if let Some(trace) = self.session.telemetry() {
            recorders.push(trace);
        }
        recorders.push(&self.ops.rec);
        let page = expo::render(&recorders)?;
        std::hint::black_box(page);
        tr.exit();
        tr.exit();
        Ok(())
    }

    /// Stops as a killed daemon would: the WAL holds everything fed so
    /// far, nothing else is written.
    pub fn crash(mut self) -> Tally {
        self.seal_wal_bytes();
        self.tally
    }

    fn seal_wal_bytes(&mut self) {
        if let Some(wal) = &self.wal {
            self.tally.wal_bytes += dir_bytes(wal.dir()).saturating_sub(self.wal_base);
            self.wal_base = dir_bytes(wal.dir());
        }
    }

    /// Ends the run as the daemon does after its last slot: final WAL
    /// fsync, ops sidecar, `ServeSession::finish`, telemetry trace.
    ///
    /// # Errors
    /// A message when a write fails.
    pub fn finish(mut self, tr: &mut Tracer) -> Result<(Summary, Tally), String> {
        let slot = self.session.next_slot();
        self.flush(tr)?;
        if let Some(wal) = self.wal.as_mut() {
            tr.enter("wal.sync", slot);
            wal.sync()?;
            tr.exit();
        }
        self.seal_wal_bytes();
        if let Some(path) = &self.telemetry {
            tr.enter("telemetry.write", slot);
            let sidecar = expo::ops_sidecar_path(&path.to_string_lossy());
            std::fs::write(&sidecar, self.ops.rec.to_jsonl_string())
                .map_err(|e| format!("cannot write {sidecar}: {e}"))?;
            tr.exit();
        }
        tr.enter("session.finish", slot);
        let outcome = self.session.finish();
        tr.exit();
        if let (Some(path), Some(rec)) = (&self.telemetry, &outcome.telemetry) {
            tr.enter("telemetry.write", slot);
            std::fs::write(path, rec.to_jsonl_string())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            tr.exit();
        }
        Ok((Summary::of(&outcome), self.tally))
    }
}

/// What one replay produced.
pub struct Replay {
    /// The root span's wall time (the whole replay), s.
    pub wall_s: f64,
    /// `ServeSession::new` before the replay, ms.
    pub session_new_ms: f64,
    /// Spans, empty when untraced.
    pub spans: Vec<Span>,
    /// Counts and samples.
    pub tally: Tally,
    /// Whether the replay's result matched the reference.
    pub correct: bool,
    /// Request lines replayed.
    pub lines: u64,
}

/// Replays one uninterrupted pass in `dir`.
///
/// # Errors
/// A message when a layer call fails.
pub fn uninterrupted(
    workload: &Workload,
    zoo: &ModelZoo,
    stream: &Stream,
    reference: &Summary,
    dir: &Path,
    traced: bool,
) -> Result<Replay, String> {
    let layers = Layers::new(workload, workload.durable, dir);
    let opts = serve_options(workload, workload.edge_threads, true);
    let began = Instant::now();
    let session = ServeSession::new(sim_config(workload), zoo, DAEMON_SEED, Combo::ours(), &opts);
    let session_new_ms = began.elapsed().as_secs_f64() * 1e3;
    let mut replayer = Replayer::new(session, &layers, traced)?;
    let mut tr = Tracer::new(traced);
    let began = Instant::now();
    tr.enter("pass", 0);
    replayer.feed(&stream.bytes, &mut tr)?;
    let (summary, tally) = replayer.finish(&mut tr)?;
    tr.exit();
    let wall_s = began.elapsed().as_secs_f64();
    Ok(Replay {
        wall_s,
        session_new_ms,
        spans: tr.into_spans(),
        correct: &summary == reference && tally.bad == 0,
        lines: stream.request_lines(),
        tally,
    })
}

/// Replays one crash pass in `dir`: the same inputs up to the crash
/// point, then the recovery calls `--resume` makes, then the rest.
///
/// # Errors
/// A message when a layer call fails.
pub fn crashed(
    workload: &Workload,
    zoo: &ModelZoo,
    stream: &Stream,
    reference: &Summary,
    dir: &Path,
) -> Result<Replay, String> {
    let layers = Layers::new(workload, Some(workload.crash_durable()), dir);
    let (wal_dir, ckpt) = match (&layers.wal, &layers.checkpoint) {
        (Some((w, _)), Some((c, _))) => (w.clone(), c.clone()),
        _ => unreachable!("crash passes always run with a WAL and checkpoints"),
    };
    let opts = serve_options(workload, workload.edge_threads, true);
    let config = sim_config(workload);
    let began = Instant::now();
    let session = ServeSession::new(config.clone(), zoo, DAEMON_SEED, Combo::ours(), &opts);
    let session_new_ms = began.elapsed().as_secs_f64() * 1e3;
    let (_, cut, prefix_lines) = crash_point(stream);

    let mut tr = Tracer::new(true);
    let began = Instant::now();
    tr.enter("crash_pass", 0);
    let mut before = Replayer::new(session, &layers, true)?;
    before.feed(&stream.bytes[..cut], &mut tr)?;
    let mut tally = before.crash();

    tr.enter("recovery.load", 0);
    let checkpoint = Checkpoint::load(&ckpt)?;
    tr.exit();
    let slot = checkpoint.arrivals.len();
    tr.enter("recovery.resume", slot);
    let session = ServeSession::resume(config, zoo, Combo::ours(), &checkpoint, &opts)?;
    tr.exit();
    tr.enter("recovery.wal_open", slot);
    let (wal, recovery) = opened_wal(&wal_dir)?;
    tr.exit();
    tr.enter("recovery.replay", slot);
    let tail = wal::replay(&recovery.records, session.num_edges(), slot as u64)?;
    tr.exit();
    let mut session = session;
    tr.enter("recovery.apply_tail", slot);
    session.apply_wal_tail(&tail)?;
    tr.exit();
    let cursor = session.next_slot();
    let (head, rest, rest_lines) = remainder(stream, cursor, &tail.open)?;

    let mut after = Replayer::with_wal(session, Some(wal), &layers, true);
    after.open.copy_from_slice(&tail.open);
    after.feed(&head, &mut tr)?;
    after.feed(rest, &mut tr)?;
    let (summary, after_tally) = after.finish(&mut tr)?;
    tr.exit();
    let wall_s = began.elapsed().as_secs_f64();
    merge(&mut tally, after_tally);
    Ok(Replay {
        wall_s,
        session_new_ms,
        spans: tr.into_spans(),
        correct: &summary == reference && tally.bad == 0,
        lines: prefix_lines + rest_lines,
        tally,
    })
}

fn merge(into: &mut Tally, from: Tally) {
    into.lines += from.lines;
    into.fast += from.fast;
    into.strict += from.strict;
    into.strict_ns += from.strict_ns;
    into.bad += from.bad;
    into.wal_frames += from.wal_frames;
    into.wal_bytes += from.wal_bytes;
    for (a, b) in into.stage_us.iter_mut().zip(from.stage_us) {
        a.extend(b);
    }
    into.checkpoints.extend(from.checkpoints);
}

/// `push_slot` alone over the stream's slot totals: per-slot times, µs.
#[must_use]
pub fn push_only(
    workload: &Workload,
    zoo: &ModelZoo,
    stream: &Stream,
    edge_threads: usize,
    live_monitor: bool,
) -> Vec<f64> {
    let opts = serve_options(workload, edge_threads, live_monitor);
    let mut session =
        ServeSession::new(sim_config(workload), zoo, DAEMON_SEED, Combo::ours(), &opts);
    stream
        .counts
        .iter()
        .map(|counts| {
            let began = Instant::now();
            session.push_slot(counts);
            let us = began.elapsed().as_secs_f64() * 1e6;
            // The daemon drains live findings after every slot.
            std::hint::black_box(session.take_live_findings());
            us
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("ingest.accumulate", 10, 60, Some(0)),
            span("session.push_slot", 20, 50, Some(1)),
            span("wal.append", 70, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.enter("pass", 0);
        tr.enter("wire.decode", 0);
        tr.exit();
        tr.enter("session.push_slot", 3);
        tr.exit();
        tr.exit();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].slot, 3);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times partition the root");

        let mut off = Tracer::new(false);
        off.enter("pass", 0);
        off.exit();
        assert!(off.into_spans().is_empty());
    }
}
