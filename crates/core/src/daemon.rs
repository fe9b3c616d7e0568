//! The serve daemon's loop, the one place that fixes its order of
//! work: [`pump`] reads any [`Read`] source into line blocks on a
//! bounded [`channel`]; [`SlotLoop`] decodes each line, group-commits
//! arrivals to the WAL before their slot closes, serves closed slots
//! through the [`ServeSession`], checkpoints and garbage-collects the
//! WAL; [`SlotLoop::recover`] rebuilds the session and open slot from
//! the last checkpoint plus the WAL tail. The loop also keeps the
//! operational side channel (`/metrics`, the ops sidecar) and the
//! degraded-durability state, never the deterministic trace. Opening
//! the transport, signals and the admin HTTP server stay with the
//! caller, which passes a shutdown predicate and an [`AdminState`].

use std::io::{BufRead as _, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cne_edgesim::SimConfig;
use cne_faults::WallRetry;
use cne_nn::ModelZoo;
use cne_util::expo;
use cne_util::json::Json;
use cne_util::telemetry::{Recorder, Value};

use crate::checkpoint::Checkpoint;
use crate::combos::Combo;
use crate::serve::{ServeOptions, ServeOutcome, ServeSession};
use crate::wal::{self, AppendError, GroupCommit, SyncPolicy, Wal, WalOptions, WalRecord};
use crate::wire::{self, WireMsg};

/// Interval at which the serve loop polls for shutdown signals while
/// no request line is pending.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Transport read buffer, and therefore the upper bound on one
/// [`LineBlock`]. Large enough to amortize syscalls and channel sends
/// over thousands of wire lines, small enough that the group-commit
/// loss window after a hard kill (arrivals applied but not yet
/// WAL-flushed — at most one block) stays well under a second of
/// stream at any realistic rate.
pub const READ_CHUNK: usize = 256 * 1024;

/// Blocks the reader → loop [`channel`] holds before the reader
/// blocks. A sender faster than the loop then fills the kernel's
/// socket or pipe buffer and is slowed down there, so the daemon
/// buffers at most `(CHANNEL_BLOCKS + 2) × READ_CHUNK` plus one
/// `--max-line-bytes` partial line of the stream, whatever the client.
pub const CHANNEL_BLOCKS: usize = 4;

/// Longest `bad_line` snippet shipped in events, in bytes.
const SNIPPET_MAX: usize = 64;

/// Bucket upper bounds for the ops latency histograms, microseconds
/// (50µs … 1s; slower observations land in the overflow bucket).
pub const LATENCY_BOUNDS_US: [f64; 14] = [
    50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6,
];

/// Every ops latency histogram the daemon publishes, each on
/// [`LATENCY_BOUNDS_US`]: the four stages the stepper times itself
/// (the spans in `STAGE_SPANS`), the daemon's time outside the
/// stepper, the whole slot, and one checkpoint write.
pub const LATENCY_HISTOGRAMS: [&str; 7] = [
    "serve.latency.select_us",
    "serve.latency.trade_us",
    "serve.latency.serve_us",
    "serve.latency.feedback_us",
    "serve.latency.ingest_us",
    "serve.latency.slot_us",
    "serve.latency.checkpoint_us",
];

/// The profiler span path behind each stage histogram, in order.
const STAGE_SPANS: [&str; 4] = ["slot/select", "slot/trade", "slot/serve", "slot/feedback"];

/// What the daemon loop takes from its invocation: the `carbon-edge
/// serve` flag named beside each field (see `SERVING.md`).
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// `--seed`, of a fresh start (a resume keeps the checkpoint's).
    pub seed: u64,
    /// `--resume`: the checkpoint to continue from.
    pub resume: Option<String>,
    /// `--checkpoint`: where checkpoints are written.
    pub checkpoint: Option<String>,
    /// `--checkpoint-every`: checkpoint at every multiple of this slot.
    pub checkpoint_every: Option<usize>,
    /// `--halt-at-slot`: checkpoint and stop once this slot is reached.
    pub halt_at_slot: Option<usize>,
    /// `--wal`: the write-ahead log directory.
    pub wal: Option<String>,
    /// `--wal-sync`: the WAL's fsync policy.
    pub wal_sync: SyncPolicy,
    /// `--slot-requests`: close the slot after this many request lines.
    pub slot_requests: Option<usize>,
    /// `--slot-ms`: close the slot after this many milliseconds.
    pub slot_ms: Option<u64>,
    /// `--max-line-bytes`: the longest accepted wire line.
    pub max_line_bytes: usize,
    /// `--max-bad-lines`: rejected lines tolerated before failing.
    pub max_bad_lines: u64,
    /// `--telemetry`: the trace path; the ops sidecar goes beside it.
    pub telemetry: Option<String>,
}

impl DaemonOptions {
    /// Reads the `--resume` checkpoint. `None` without `--resume`, or
    /// when the file is missing but a WAL can recover the run alone.
    ///
    /// # Errors
    /// Returns the load error of an unreadable or malformed checkpoint.
    pub fn resume_checkpoint(&self) -> Result<Option<Checkpoint>, String> {
        match &self.resume {
            Some(path) if Path::new(path).exists() || self.wal.is_none() => {
                Checkpoint::load(Path::new(path)).map(Some)
            }
            _ => Ok(None),
        }
    }
}

/// A batch of complete wire lines, shipped to the serve loop as one
/// buffer: raw bytes, `\n`-separated (the final line may omit the
/// terminator at EOF), never a partial line. One channel send and one
/// allocation cover the whole block, which is what lets the ingest
/// loop run at millions of lines per second.
pub struct LineBlock {
    /// Raw line bytes, each line within the `--max-line-bytes` cap
    /// unless it arrived whole inside one read chunk (the serve loop
    /// re-checks per line; the cap's *memory* bound is enforced here).
    data: Vec<u8>,
    /// Stream byte offset of `data[0]`, for `bad_line` diagnostics.
    offset: u64,
}

/// What the transport reader hands the serve loop. Transport errors
/// have already been retried; oversized lines that could not be
/// buffered have been classified and consumed. UTF-8 and length
/// classification of in-block lines happens in the serve loop, which
/// sees the raw bytes.
pub enum ReaderMsg {
    /// A batch of complete wire lines.
    Block(LineBlock),
    /// A line the reader rejected without shipping — oversized; the
    /// rest of it was discarded up to the next newline. Counts against
    /// the `--max-bad-lines` budget.
    Bad(BadLine),
    /// The transport died and stayed dead through the retry budget.
    Fatal(String),
}

/// One rejected wire line.
pub struct BadLine {
    /// Human-readable cause (canonical strict-path or reader text).
    reason: String,
    /// Absolute stream byte offset where the line began.
    offset: u64,
    /// Up to [`SNIPPET_MAX`] bytes of the line, lossily decoded.
    snippet: String,
}

/// An oversized line mid-discard: [`pump`] stopped buffering it and is
/// counting bytes until the next newline.
struct Oversize {
    /// Stream byte offset where the line began.
    offset: u64,
    /// Content bytes seen so far (excluding the newline).
    total: usize,
    /// The line's first bytes, kept for the `bad_line` event.
    snippet: Vec<u8>,
}

impl Oversize {
    fn into_msg(self, max_line: usize) -> ReaderMsg {
        ReaderMsg::Bad(BadLine {
            reason: oversize_reason(max_line, self.total),
            offset: self.offset,
            snippet: snippet_of(&self.snippet),
        })
    }
}

/// Lossily decodes the first [`SNIPPET_MAX`] bytes of a line for a
/// `bad_line` event.
fn snippet_of(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[..line.len().min(SNIPPET_MAX)]).into_owned()
}

/// The `bad_line` reason for a line over `--max-line-bytes`, whether
/// the reader discarded it mid-stream or the serve loop found it
/// whole inside a block.
fn oversize_reason(max_line: usize, len: usize) -> String {
    format!("line exceeds --max-line-bytes {max_line} ({len} bytes discarded)")
}

/// Classifies one raw wire line (without its newline): a decoded
/// message, `Ok(None)` for a blank line, or the `bad_line` reason
/// (see [`wire::decode`]).
fn decode_line(line: &[u8], num_edges: usize, max_line: usize) -> Result<Option<WireMsg>, String> {
    // The reader's memory bound only catches lines that span read
    // chunks; one that arrived whole inside a block is rejected here,
    // with the same reason.
    if line.len() > max_line {
        return Err(oversize_reason(max_line, line.len()));
    }
    wire::decode(line, num_edges)
}

/// One structured retry event for stderr: `event` names the retried
/// layer (`transport_retry`, `wal_retry` or `checkpoint_retry`).
#[must_use]
pub fn retry_event(event: &str, attempt: u32, delay: Duration, error: &str) -> String {
    format!(
        "{{\"event\":\"{event}\",\"attempt\":{attempt},\"delay_ms\":{},\"error\":{}}}",
        delay.as_millis(),
        Json::Str(error.to_owned()).encode()
    )
}

/// The reader → loop channel, bounded at [`CHANNEL_BLOCKS`] blocks.
#[must_use]
pub fn channel() -> (mpsc::SyncSender<ReaderMsg>, mpsc::Receiver<ReaderMsg>) {
    mpsc::sync_channel(CHANNEL_BLOCKS)
}

/// Drains one transport connection into the channel as line blocks.
/// Returns when the input ends, the receiver hangs up, or the
/// transport fails for good (after sending [`ReaderMsg::Fatal`]).
/// Run it on its own thread, so the serve loop can poll deadlines and
/// signals while the transport blocks.
///
/// The reader never holds more than one read chunk plus one
/// `--max-line-bytes` partial line: a line that outgrows the cap
/// before its newline arrives flips into discard-and-count mode,
/// exactly like the old bounded per-line reader.
pub fn pump<R: Read>(source: R, tx: &mpsc::SyncSender<ReaderMsg>, max_line: usize) {
    let mut reader = std::io::BufReader::with_capacity(READ_CHUNK, source);
    let retry = WallRetry::daemon_default();
    // Absolute stream offset of the next byte `fill_buf` returns.
    let mut pos: u64 = 0;
    // Partial line carried across read chunks, and its start offset.
    let mut carry: Vec<u8> = Vec::new();
    let mut carry_at: u64 = 0;
    let mut oversize: Option<Oversize> = None;
    loop {
        // Fill with retries; the chunk below is then borrowed from the
        // filled buffer, with no further I/O that could fail.
        let probe = retry.run(
            || match reader.fill_buf() {
                Ok(buf) => Ok(buf.len()),
                Err(e) => Err(format!("transport read failed: {e}")),
            },
            |attempt, err, delay| {
                eprintln!("{}", retry_event("transport_retry", attempt, delay, err))
            },
        );
        let n = match probe {
            Ok(n) => n,
            Err(e) => {
                let _ = tx.send(ReaderMsg::Fatal(e));
                return;
            }
        };
        if n == 0 {
            // EOF: a pending partial line still counts (as with
            // `BufRead::lines`), and an oversized one is still bad.
            if let Some(over) = oversize.take() {
                let _ = tx.send(over.into_msg(max_line));
            } else if !carry.is_empty() {
                let _ = tx.send(ReaderMsg::Block(LineBlock {
                    data: std::mem::take(&mut carry),
                    offset: carry_at,
                }));
            }
            return;
        }
        let (msg, consumed) = {
            let chunk = reader.buffer();
            if let Some(over) = &mut oversize {
                // Discarding: count until the line's newline.
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        over.total = over.total.saturating_add(nl);
                        let msg = oversize.take().expect("checked above").into_msg(max_line);
                        (Some(msg), nl + 1)
                    }
                    None => {
                        over.total = over.total.saturating_add(chunk.len());
                        (None, chunk.len())
                    }
                }
            } else {
                match chunk.iter().rposition(|&b| b == b'\n') {
                    Some(last) => {
                        // Complete lines available: ship carry + chunk
                        // up to the last newline as one block.
                        let block_at = if carry.is_empty() { pos } else { carry_at };
                        let mut data = std::mem::take(&mut carry);
                        data.extend_from_slice(&chunk[..=last]);
                        carry_at = pos + last as u64 + 1;
                        carry.extend_from_slice(&chunk[last + 1..]);
                        (
                            Some(ReaderMsg::Block(LineBlock {
                                data,
                                offset: block_at,
                            })),
                            chunk.len(),
                        )
                    }
                    None => {
                        if carry.is_empty() {
                            carry_at = pos;
                        }
                        carry.extend_from_slice(chunk);
                        (None, chunk.len())
                    }
                }
            }
        };
        reader.consume(consumed);
        pos += consumed as u64;
        // The carried partial line hit the cap: stop buffering it and
        // switch to counting (memory stays bounded by the cap).
        if oversize.is_none() && carry.len() > max_line {
            oversize = Some(Oversize {
                offset: carry_at,
                total: carry.len(),
                snippet: carry[..carry.len().min(SNIPPET_MAX)].to_vec(),
            });
            carry.clear();
            carry.shrink_to_fit();
        }
        if let Some(msg) = msg {
            if tx.send(msg).is_err() {
                return;
            }
        }
    }
}

/// The metrics page and readiness state shared between the serve loop
/// (writer) and the admin endpoint (reader).
#[derive(Debug)]
pub struct AdminState {
    metrics: Mutex<String>,
    last_progress: Mutex<Instant>,
    done: AtomicBool,
    degraded: AtomicBool,
    /// How long the slot clock may stall before the daemon reads as
    /// not ready.
    pub ready_deadline: Duration,
}

impl AdminState {
    /// Creates the shared state. The slot clock starts now: a daemon
    /// that never serves its first slot within `ready_deadline` reads
    /// as not ready.
    #[must_use]
    pub fn new(ready_deadline: Duration) -> Arc<Self> {
        Arc::new(Self {
            metrics: Mutex::new(String::new()),
            last_progress: Mutex::new(Instant::now()),
            done: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            ready_deadline,
        })
    }

    /// Publishes a freshly rendered metrics page and restarts the
    /// slot clock — called by the serve loop after each slot.
    pub fn publish(&self, page: String) {
        *self.metrics.lock().expect("admin metrics lock") = page;
        *self.last_progress.lock().expect("admin progress lock") = Instant::now();
    }

    /// Marks the run complete: a finished daemon is permanently ready
    /// (it is draining, not stalled).
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::SeqCst);
    }

    /// Flips the degraded-durability flag: `true` while the daemon is
    /// still serving but can no longer make its WAL/checkpoint
    /// guarantees (persistent storage failure), `false` once a
    /// successful checkpoint restores them. A degraded daemon reads
    /// 503 on `/readyz` so orchestrators stop routing traffic that
    /// would be lost in a crash.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::SeqCst);
    }

    /// Whether durability is currently degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The current metrics page.
    #[must_use]
    pub fn metrics_page(&self) -> String {
        self.metrics.lock().expect("admin metrics lock").clone()
    }

    /// Time since the slot clock was last restarted.
    #[must_use]
    pub fn stalled_for(&self) -> Duration {
        self.last_progress
            .lock()
            .expect("admin progress lock")
            .elapsed()
    }

    /// Readiness: the run is complete, or the slot clock moved within
    /// the deadline.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.done.load(Ordering::SeqCst) || self.stalled_for() <= self.ready_deadline
    }
}

/// The daemon's durability manager: the optional WAL handle, the
/// retry schedule shared by WAL and checkpoint writes, and the
/// degraded-durability state machine.
///
/// The state machine has two states. **Normal**: every arrival and
/// slot close is appended to the WAL before it is applied, and
/// checkpoints garbage-collect the log. **Degraded** (entered when a
/// WAL or checkpoint write keeps failing through the retry budget):
/// serving continues — availability over durability — but WAL appends
/// stop entirely, because a log with a gap would replay silently
/// wrong, which is strictly worse than a log that honestly ends.
/// `/readyz` reads 503 for the duration. The only way back to normal
/// is a fully durable checkpoint: it supersedes everything the log
/// missed, the WAL restarts fresh from its marker, and `/readyz`
/// recovers.
struct Durability {
    wal: Option<Wal>,
    retry: WallRetry,
    degraded: bool,
}

impl Durability {
    fn new(wal: Option<Wal>) -> Self {
        Self {
            wal,
            retry: WallRetry::daemon_default(),
            degraded: false,
        }
    }

    /// Appends one record ahead of applying it, retrying transient
    /// failures; a persistent failure flips the daemon to degraded.
    /// No-op without `--wal` or while degraded (see the struct docs).
    fn append(&mut self, record: &WalRecord, ops: &mut DaemonOps) {
        if self.degraded {
            return;
        }
        let Some(wal) = self.wal.as_mut() else { return };
        let retry = self.retry;
        // Only `Io` failures are retried: `Wal::append` has cut the
        // segment back to its last whole frame. An oversized frame
        // never fits, and after a failed fsync the frame may already be
        // on disk (a retry could log it twice) while the kernel may
        // report the next fsync as a success, so both degrade at once.
        let result = retry
            .run(
                || match wal.append(record) {
                    Err(AppendError::Io(e)) => Err(e),
                    other => Ok(other),
                },
                |attempt, err, delay| {
                    ops.rec.incr("serve.wal_retries", 1);
                    eprintln!("{}", retry_event("wal_retry", attempt, delay, err));
                },
            )
            .and_then(|appended| appended.map_err(String::from));
        if let Err(e) = result {
            self.degrade(ops, &format!("WAL append failed: {e}"));
        }
    }

    /// Writes the session's checkpoint durably (with retries) and
    /// prints the confirmation line. The caller decides whether a
    /// persistent failure degrades (periodic checkpoints) or aborts
    /// (halt and shutdown, where the operator asked for the state).
    fn write_checkpoint(
        &mut self,
        session: &ServeSession<'_>,
        path: &str,
        ops: &mut DaemonOps,
    ) -> Result<(), String> {
        let ckpt = session.checkpoint()?;
        let retry = self.retry;
        retry.run(
            || ckpt.save(Path::new(path)),
            |attempt, err, delay| {
                ops.rec.incr("serve.checkpoint_retries", 1);
                eprintln!("{}", retry_event("checkpoint_retry", attempt, delay, err));
            },
        )?;
        println!(
            "checkpoint   : slot {} written to {path}",
            session.next_slot()
        );
        Ok(())
    }

    /// After a durable checkpoint at a slot boundary (the open
    /// accumulator is empty, so every WAL record is covered):
    /// garbage-collects the log and, if degraded, restores full
    /// durability — the checkpoint supersedes whatever the log missed.
    ///
    /// Only call at a slot boundary: GC deletes every record before
    /// the marker, which must not include open-slot arrivals.
    fn checkpoint_installed(&mut self, slot: u64, ops: &mut DaemonOps) {
        let result = match self.wal.as_mut() {
            Some(wal) => self.retry.run(
                || wal.install_checkpoint(slot),
                |attempt, err, delay| {
                    ops.rec.incr("serve.wal_retries", 1);
                    eprintln!("{}", retry_event("wal_retry", attempt, delay, err));
                },
            ),
            None => Ok(()),
        };
        match result {
            Ok(()) if self.degraded => self.restore(ops),
            Ok(()) => {}
            Err(e) => self.degrade(ops, &format!("WAL checkpoint marker failed: {e}")),
        }
    }

    /// Best-effort final fsync on clean exits, so the open slot's
    /// arrivals survive even under `--wal-sync off`/`slot`.
    fn shutdown_sync(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.sync() {
                let error = format!("final sync failed: {e}");
                eprintln!("{}", retry_event("wal_retry", 0, Duration::ZERO, &error));
            }
        }
    }

    fn degrade(&mut self, ops: &mut DaemonOps, why: &str) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        ops.set_degraded(true);
        eprintln!(
            "{{\"event\":\"durability_degraded\",\"error\":{}}}",
            Json::Str(why.to_owned()).encode()
        );
    }

    fn restore(&mut self, ops: &mut DaemonOps) {
        self.degraded = false;
        ops.set_degraded(false);
        eprintln!("{{\"event\":\"durability_restored\"}}");
    }
}

/// The daemon's operational side channel: a wall-clock [`Recorder`]
/// (slot/request counters, carbon and allowance gauges, per-stage
/// latency histograms, live envelope verdicts) that is rendered into
/// the admin endpoint's `/metrics` page after every slot and written
/// to the `<telemetry>.ops.jsonl` sidecar at exit. Everything here is
/// operational — the deterministic telemetry trace never sees any of
/// it, so traces stay byte-identical with observability on or off.
struct DaemonOps {
    rec: Recorder,
    admin: Option<Arc<AdminState>>,
    /// The profiler's cumulative per-stage totals after the previous
    /// slot (µs): `STAGE_SPANS` order, then the `slot` root.
    prev_us: [f64; 5],
}

impl DaemonOps {
    fn new(session: &ServeSession<'_>, run_seed: u64) -> Self {
        let mut rec = Recorder::new();
        rec.set_label("policy", session.policy_name());
        rec.set_label("seed", run_seed.to_string());
        rec.set_label("stream", "ops");
        // A resumed daemon only observes slots from here on; `report`
        // restricts its live-vs-recomputed cross-check accordingly.
        rec.gauge("serve.start_slot", session.next_slot() as f64);
        rec.gauge("serve.horizon", session.horizon() as f64);
        Self {
            rec,
            admin: None,
            prev_us: [0.0; 5],
        }
    }

    /// Folds one closed slot into the ops recorder: counters, ledger
    /// gauges, live envelope verdicts, stage latencies — then
    /// republishes the metrics page.
    fn after_slot(&mut self, session: &mut ServeSession<'_>, requests: u64, slot_wall_us: f64) {
        self.rec.incr("serve.slots", 1);
        self.rec.incr("serve.requests", requests);
        let ledger = *session.ledger();
        let mut gauges = vec![
            ("serve.next_slot", session.next_slot() as f64),
            ("carbon.cap", ledger.cap().get()),
            ("carbon.emitted", ledger.emitted().to_allowances().get()),
            ("carbon.held", ledger.held().get()),
            ("carbon.slack", ledger.neutrality_slack().get()),
            ("allowance.bought", ledger.bought().get()),
            ("allowance.sold", ledger.sold().get()),
            ("market.net_cost_cents", ledger.net_trading_cost().get()),
        ];
        if let Some(monitor) = session.live_monitor() {
            if let Some(lambda) = monitor.last_lambda() {
                gauges.push(("dual.lambda", lambda));
            }
            gauges.extend([
                ("envelope.live.fit_observed", monitor.fit_observed()),
                ("envelope.live.fit_bound", monitor.fit_bound()),
                ("envelope.live.lambda_ceiling", monitor.lambda_ceiling()),
            ]);
        }
        for (name, value) in gauges {
            self.rec.gauge(name, value);
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
            // The moment-it-happened structured event for operators.
            let head = [
                ("event", Json::Str("envelope_breach".to_owned())),
                ("slot", finding.slot.map_or(Json::Null, Json::UInt)),
                ("monitor", Json::Str(finding.monitor.to_owned())),
                ("excused", Json::Bool(finding.excused)),
            ];
            let detail = finding.detail.iter().map(|(k, v)| (*k, json_value(v)));
            let line = head.into_iter().chain(detail);
            let line = line.map(|(k, v)| (k.to_owned(), v)).collect();
            eprintln!("{}", Json::Obj(line).encode());
        }

        let [.., ingest_us, slot_us, _] = LATENCY_HISTOGRAMS;
        if let Some(profiler) = session.profiler() {
            for (i, (metric, path)) in LATENCY_HISTOGRAMS.iter().zip(STAGE_SPANS).enumerate() {
                let total = profiler.total_us(path);
                let delta = (total - self.prev_us[i]).max(0.0);
                self.prev_us[i] = total;
                self.rec
                    .histogram_with_bounds(metric, &LATENCY_BOUNDS_US)
                    .record(delta);
            }
            let step_total = profiler.total_us("slot");
            let step = (step_total - self.prev_us[4]).max(0.0);
            self.prev_us[4] = step_total;
            // What the daemon spent outside the stepper: recording the
            // slot's arrivals, live monitoring, bookkeeping. (Each
            // edge's sample draw is inside the `serve` stage.)
            self.rec
                .histogram_with_bounds(ingest_us, &LATENCY_BOUNDS_US)
                .record((slot_wall_us - step).max(0.0));
        }
        self.rec
            .histogram_with_bounds(slot_us, &LATENCY_BOUNDS_US)
            .record(slot_wall_us);
        self.publish(session);
    }

    /// Tallies one checkpoint write into the ops recorder.
    fn record_checkpoint(&mut self, wall_us: f64) {
        let [.., checkpoint_us] = LATENCY_HISTOGRAMS;
        self.rec.incr("serve.checkpoints", 1);
        self.rec
            .histogram_with_bounds(checkpoint_us, &LATENCY_BOUNDS_US)
            .record(wall_us);
    }

    /// Tallies one rejected wire line and emits the structured stderr
    /// event operators alert on, carrying the absolute stream byte
    /// offset and a truncated snippet so the offending input can be
    /// located in a multi-GB stream. The same fields land in the ops
    /// recorder as a `bad_line` event (surfaced by `report`). The
    /// budget check stays with the caller.
    fn record_bad_line(&mut self, bad: &BadLine, slot: u64, total: u64, budget: u64) {
        self.rec.incr("serve.bad_lines", 1);
        self.rec.event(
            Some(slot),
            "bad_line",
            &[
                ("reason", Value::Str(bad.reason.clone())),
                ("offset", Value::UInt(bad.offset)),
                ("snippet", Value::Str(bad.snippet.clone())),
            ],
        );
        eprintln!(
            "{{\"event\":\"bad_line\",\"total\":{total},\"budget\":{budget},\"offset\":{},\
             \"snippet\":{},\"reason\":{}}}",
            bad.offset,
            Json::Str(bad.snippet.clone()).encode(),
            Json::Str(bad.reason.clone()).encode()
        );
    }

    /// Publishes the degraded-durability state to the ops gauge and
    /// the admin endpoint (`/readyz` flips 503 while set).
    fn set_degraded(&mut self, on: bool) {
        self.rec.gauge("serve.degraded", if on { 1.0 } else { 0.0 });
        if let Some(state) = &self.admin {
            state.set_degraded(on);
        }
    }

    /// Renders the exposition page — the deterministic trace (when
    /// carried) plus the ops recorder — and hands it to the admin
    /// endpoint. Read-only with respect to the session.
    fn publish(&self, session: &ServeSession<'_>) {
        let Some(state) = &self.admin else { return };
        let mut recorders: Vec<&Recorder> = Vec::with_capacity(2);
        if let Some(trace) = session.telemetry() {
            recorders.push(trace);
        }
        recorders.push(&self.rec);
        let page =
            expo::render(&recorders).unwrap_or_else(|e| format!("# exposition error: {e}\n"));
        state.publish(page);
    }

    /// Marks the run complete for `/readyz` and writes the ops sidecar
    /// next to the telemetry trace (when one is being written).
    fn finish(&self, telemetry_path: Option<&str>) -> Result<(), String> {
        if let Some(state) = &self.admin {
            state.mark_done();
        }
        if let Some(trace_path) = telemetry_path {
            let path = expo::ops_sidecar_path(trace_path);
            std::fs::write(&path, self.rec.to_jsonl_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("ops          : operational metrics written to {path}");
        }
        Ok(())
    }
}

/// Telemetry [`Value`] → [`Json`], for the live-breach stderr events.
fn json_value(value: &Value) -> Json {
    match value {
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::UInt(u) => Json::UInt(*u),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(_) => Json::Null,
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// The daemon's slot loop: the session plus everything that changes
/// as wire lines arrive — the open slot's accumulator, the
/// group-commit buffer, the bad-line tally and the wall-clock slot
/// deadline.
pub struct SlotLoop<'a> {
    opts: DaemonOptions,
    session: ServeSession<'a>,
    ops: DaemonOps,
    dur: Durability,
    /// Arrivals per edge in the open slot.
    open: Vec<u64>,
    /// Request lines accepted into the open slot (`--slot-requests`).
    requests_in_slot: usize,
    /// Group-commit buffer: the per-edge sums of the lines applied to
    /// `open` but not yet WAL-appended. Flushed as one `ArrivalSums`
    /// record at every block boundary and before anything that closes,
    /// checkpoints, or ends the slot (see [`SlotLoop::flush_arrivals`]).
    pending: GroupCommit,
    /// Wire lines rejected so far (`--max-bad-lines`).
    bad_lines: u64,
    /// When the open slot closes by wall clock (`--slot-ms`).
    deadline: Option<Instant>,
}

impl<'a> SlotLoop<'a> {
    /// Builds the session the daemon serves and opens its WAL: a fresh
    /// session, or with `--resume` the `checkpoint` (see
    /// [`DaemonOptions::resume_checkpoint`]; slot 0 when it is missing)
    /// plus the WAL tail. Closed slots in the tail are served again;
    /// the open slot's logged arrivals seed the accumulator.
    ///
    /// # Errors
    /// A checkpoint or WAL that does not fit this run, a fresh start
    /// over an old WAL, or a `--halt-at-slot` outside the run.
    pub fn recover(
        config: SimConfig,
        zoo: &'a ModelZoo,
        combo: Combo,
        checkpoint: Option<&Checkpoint>,
        serve_opts: &ServeOptions,
        opts: DaemonOptions,
    ) -> Result<Self, String> {
        let run_seed = checkpoint.map_or(opts.seed, |c| c.seed);
        let mut session = match (&opts.resume, checkpoint) {
            (Some(path), Some(ckpt)) => {
                let session = ServeSession::resume(config, zoo, combo, ckpt, serve_opts)?;
                println!(
                    "resume       : slot {} of {} from {path}",
                    session.next_slot(),
                    session.horizon()
                );
                session
            }
            (Some(path), None) => {
                // The checkpoint never made it to disk (e.g. the daemon
                // died before the first --checkpoint-every boundary), but
                // the WAL holds every arrival: recover from slot 0.
                eprintln!(
                    "resume       : checkpoint {path} is missing — recovering from \
                     the WAL alone (slot 0, seed {})",
                    opts.seed
                );
                ServeSession::new(config, zoo, opts.seed, combo, serve_opts)
            }
            (None, _) => ServeSession::new(config, zoo, opts.seed, combo, serve_opts),
        };

        let num_edges = session.num_edges();
        let mut open = vec![0; num_edges];
        let mut requests_in_slot = 0;
        let wal_handle = match &opts.wal {
            Some(dir) => {
                let dir_path = Path::new(dir);
                if opts.resume.is_none() && wal::dir_has_segments(dir_path) {
                    return Err(format!(
                        "--wal {dir}: the directory already holds WAL segments from a \
                         previous run; pass --resume to continue it, or remove the \
                         directory to genuinely start fresh"
                    ));
                }
                let wal_opts = WalOptions {
                    sync: opts.wal_sync,
                    ..WalOptions::default()
                };
                let (wal, recovery) = Wal::open(dir_path, wal_opts)?;
                if let Some(torn) = &recovery.torn {
                    eprintln!(
                        "{{\"event\":\"wal_torn_tail\",\"segment\":{},\"offset\":{},\
                         \"reason\":{}}}",
                        Json::Str(torn.segment.display().to_string()).encode(),
                        torn.offset,
                        Json::Str(torn.reason.clone()).encode()
                    );
                }
                if opts.resume.is_some() {
                    let tail =
                        wal::replay(&recovery.records, num_edges, session.next_slot() as u64)?;
                    if !tail.is_empty() {
                        println!(
                            "wal          : replayed {} closed slot(s) and {} open-slot \
                             line(s) from {dir}",
                            tail.closed.len(),
                            tail.open_lines
                        );
                    }
                    session.apply_wal_tail(&tail)?;
                    // The tail ended mid-slot: pre-seed the accumulator
                    // with the arrivals already acknowledged for it.
                    open = tail.open;
                    requests_in_slot = tail.open_lines as usize;
                }
                Some(wal)
            }
            None => None,
        };

        if let Some(k) = opts.halt_at_slot {
            if k <= session.next_slot() || k >= session.horizon() {
                return Err(format!(
                    "--halt-at-slot {k} is outside the remaining run \
                     (next slot {}, horizon {})",
                    session.next_slot(),
                    session.horizon()
                ));
            }
        }
        Ok(Self {
            ops: DaemonOps::new(&session, run_seed),
            opts,
            session,
            dur: Durability::new(wal_handle),
            open,
            requests_in_slot,
            pending: GroupCommit::new(num_edges),
            bad_lines: 0,
            deadline: None,
        })
    }

    /// The session being served.
    #[must_use]
    pub fn session(&self) -> &ServeSession<'a> {
        &self.session
    }

    /// Publishes into `state` from now on, starting with the current
    /// page, so `/metrics` is never empty even before the first slot
    /// closes.
    pub fn attach_admin(&mut self, state: Arc<AdminState>) {
        self.ops.admin = Some(state);
        self.ops.publish(&self.session);
    }

    /// Serves slots from `rx` until the horizon is complete (`Ok(true)`)
    /// or `--halt-at-slot` or `shutdown` stops the daemon cleanly
    /// (`Ok(false)`). Input that ends early pads the remaining slots
    /// with zero arrivals. Transport death and a blown bad-line budget
    /// return the error after a final flush, checkpoint and sync.
    ///
    /// # Errors
    /// The transport or bad-line error, or a failed halt or shutdown
    /// checkpoint.
    pub fn run(
        &mut self,
        rx: &mpsc::Receiver<ReaderMsg>,
        shutdown: &dyn Fn() -> bool,
    ) -> Result<bool, String> {
        self.deadline = self.slot_deadline();
        let mut eof = false;
        while !self.session.is_done() {
            if shutdown() {
                self.flush_arrivals();
                if let Some(path) = &self.opts.checkpoint {
                    self.dur
                        .write_checkpoint(&self.session, path, &mut self.ops)?;
                }
                self.dur.shutdown_sync();
                self.ops.finish(self.opts.telemetry.as_deref())?;
                eprintln!(
                    "serve        : shutdown signal at slot {} — exiting cleanly{}",
                    self.session.next_slot(),
                    if self.opts.checkpoint.is_some() || self.dur.wal.is_some() {
                        ""
                    } else {
                        " (no --checkpoint path; state discarded)"
                    }
                );
                return Ok(false);
            }
            if eof {
                // Input ended before the horizon: pad the remaining slots
                // with zero arrivals so the run still settles cleanly.
                // (`pending` is empty here — every block was flushed when
                // it finished processing, and EOF arrives between blocks.)
                if self.requests_in_slot == 0 {
                    self.open.fill(0);
                }
                if self.close_slot()? {
                    return Ok(false);
                }
                continue;
            }
            let wait = self.deadline.map_or(IDLE_POLL, |d| {
                d.saturating_duration_since(Instant::now()).min(IDLE_POLL)
            });
            let block = match rx.recv_timeout(wait) {
                Ok(ReaderMsg::Block(block)) => block,
                Ok(ReaderMsg::Bad(bad)) => {
                    self.reject(&bad)?;
                    continue;
                }
                Ok(ReaderMsg::Fatal(e)) => return Err(self.fail(format!("transport error: {e}"))),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Wall-clock slot close (live mode only).
                    if self.deadline.is_some_and(|d| Instant::now() >= d) && self.close_slot()? {
                        return Ok(false);
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let remaining = self.session.horizon() - self.session.next_slot();
                    eprintln!(
                        "serve        : input ended at slot {} — padding {remaining} \
                         remaining slot(s) with zero arrivals",
                        self.session.next_slot()
                    );
                    eof = true;
                    continue;
                }
            };
            if self.ingest(&block.data, block.offset)? {
                return Ok(false);
            }
        }
        self.dur.shutdown_sync();
        Ok(true)
    }

    /// Applies one block of complete wire lines that starts at stream
    /// byte `offset`, closing slots on `slot_end` markers and
    /// `--slot-requests`, then group-commits what the block left in
    /// the open slot. Returns whether `--halt-at-slot` stopped the
    /// daemon.
    ///
    /// # Errors
    /// As [`SlotLoop::run`].
    pub fn ingest(&mut self, data: &[u8], offset: u64) -> Result<bool, String> {
        // Raw wire input, for the ingest throughput panel (`watch`,
        // `/metrics`).
        self.ops.rec.incr("serve.ingest.bytes", data.len() as u64);
        let mut line_at = offset;
        for raw in data.split_inclusive(|&b| b == b'\n') {
            let at = line_at;
            line_at += raw.len() as u64;
            let line = raw.strip_suffix(b"\n").unwrap_or(raw);
            let msg = match decode_line(line, self.open.len(), self.opts.max_line_bytes) {
                Ok(Some(msg)) => msg,
                Ok(None) => continue,
                Err(reason) => {
                    self.reject(&BadLine {
                        reason,
                        offset: at,
                        snippet: snippet_of(line),
                    })?;
                    continue;
                }
            };
            let close = match msg {
                WireMsg::Request { edge, count } => {
                    // Write-ahead at batch granularity: the line joins
                    // the group-commit sums now and is WAL-appended
                    // (one record per flush) before the slot closes
                    // or the block ends.
                    self.pending.add(edge, count);
                    self.open[edge] += count;
                    self.requests_in_slot += 1;
                    self.opts
                        .slot_requests
                        .is_some_and(|n| self.requests_in_slot >= n)
                }
                WireMsg::SlotEnd => true,
            };
            if close && self.close_slot()? {
                return Ok(true);
            }
            if self.session.is_done() {
                break;
            }
        }
        // End of block: group-commit whatever the block accumulated
        // for the still-open slot.
        self.flush_arrivals();
        Ok(false)
    }

    /// Completes a served horizon: writes the ops sidecar (beside the
    /// `--telemetry` trace) and settles the session.
    ///
    /// # Errors
    /// Returns a message when the ops sidecar cannot be written.
    pub fn finish(self) -> Result<ServeOutcome, String> {
        self.ops.finish(self.opts.telemetry.as_deref())?;
        Ok(self.session.finish())
    }

    fn slot_deadline(&self) -> Option<Instant> {
        self.opts
            .slot_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Counts one rejected wire line against `--max-bad-lines` and
    /// logs it; a blown budget fails the daemon with the exact count.
    fn reject(&mut self, bad: &BadLine) -> Result<(), String> {
        self.bad_lines += 1;
        let budget = self.opts.max_bad_lines;
        self.ops
            .record_bad_line(bad, self.session.next_slot() as u64, self.bad_lines, budget);
        if self.bad_lines > budget {
            let error = format!(
                "too many bad wire lines ({} rejected, --max-bad-lines {budget})",
                self.bad_lines
            );
            return Err(self.fail(error));
        }
        Ok(())
    }

    /// Flushes the group-commit buffer: the applied-but-unlogged lines
    /// of the open slot go out as one `ArrivalSums` WAL record. The
    /// write-ahead invariant holds at batch granularity —
    /// a flush always precedes the slot close, checkpoint, shutdown
    /// sync, or fatal exit that would otherwise leave the log behind
    /// the applied state — so recovery still replays a clean prefix of
    /// the stream, and a hard kill can lose at most the current
    /// block's tail.
    fn flush_arrivals(&mut self) {
        if let Some(record) = self.pending.take(self.session.next_slot() as u64) {
            self.dur.append(&record, &mut self.ops);
        }
    }

    /// Ingests the open slot into the session, resets the accumulator
    /// and the wall-clock deadline, honors `--checkpoint-every`, and
    /// halts at `--halt-at-slot`; returns whether it halted. The
    /// pending arrivals and then the slot close are WAL-appended
    /// *before* the session serves it, so recovery replays exactly the
    /// slots the live run committed to; a persistent periodic-
    /// checkpoint failure degrades durability instead of killing the
    /// daemon.
    fn close_slot(&mut self) -> Result<bool, String> {
        self.flush_arrivals();
        let requests: u64 = self.open.iter().sum();
        self.dur.append(
            &WalRecord::SlotClose {
                slot: self.session.next_slot() as u64,
            },
            &mut self.ops,
        );
        let started = Instant::now();
        self.session.push_slot(&self.open);
        let slot_wall_us = started.elapsed().as_secs_f64() * 1e6;
        self.open.fill(0);
        self.requests_in_slot = 0;
        self.deadline = self.slot_deadline();
        if let (Some(every), Some(path)) = (self.opts.checkpoint_every, &self.opts.checkpoint) {
            if self.session.next_slot() % every == 0 && !self.session.is_done() {
                let started = Instant::now();
                match self
                    .dur
                    .write_checkpoint(&self.session, path, &mut self.ops)
                {
                    Ok(()) => {
                        self.ops
                            .record_checkpoint(started.elapsed().as_secs_f64() * 1e6);
                        // The accumulator was just reset: a slot boundary,
                        // so the WAL can be garbage-collected.
                        self.dur
                            .checkpoint_installed(self.session.next_slot() as u64, &mut self.ops);
                    }
                    Err(e) => {
                        // Availability over durability: keep serving, flip
                        // /readyz, and let the next boundary try again.
                        self.dur
                            .degrade(&mut self.ops, &format!("checkpoint write failed: {e}"));
                    }
                }
            }
        }
        self.ops
            .after_slot(&mut self.session, requests, slot_wall_us);
        if self.opts.halt_at_slot == Some(self.session.next_slot()) {
            self.halt()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// `--halt-at-slot`: write the checkpoint and exit cleanly. Unlike
    /// the periodic path, a checkpoint failure here is fatal — the
    /// operator asked for durable state and there is no later boundary
    /// to retry at.
    fn halt(&mut self) -> Result<(), String> {
        let path = self
            .opts
            .checkpoint
            .as_deref()
            .ok_or("--halt-at-slot needs --checkpoint FILE")?;
        self.dur
            .write_checkpoint(&self.session, path, &mut self.ops)?;
        // A slot just closed: a slot boundary, so GC is safe and the
        // next resume starts from a freshly anchored WAL.
        self.dur
            .checkpoint_installed(self.session.next_slot() as u64, &mut self.ops);
        self.ops.finish(self.opts.telemetry.as_deref())?;
        println!(
            "halt         : {} slots served, as requested — continue with \
             --resume {path}",
            self.session.next_slot()
        );
        Ok(())
    }

    /// Fatal-exit path for transport death and a blown bad-line budget:
    /// preserve whatever durable state we can (pending arrivals, final
    /// checkpoint if configured, WAL fsync, ops sidecar), then hand the
    /// error back.
    fn fail(&mut self, error: String) -> String {
        self.flush_arrivals();
        if let Some(path) = &self.opts.checkpoint {
            if let Err(e) = self
                .dur
                .write_checkpoint(&self.session, path, &mut self.ops)
            {
                eprintln!("serve        : final checkpoint failed: {e}");
            }
        }
        self.dur.shutdown_sync();
        if let Err(e) = self.ops.finish(self.opts.telemetry.as_deref()) {
            eprintln!("serve        : ops sidecar failed: {e}");
        }
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_nobody_drains_holds_a_bounded_prefix() {
        // A stream far longer than the bound (it ends only so that a
        // broken bound fails the test instead of exhausting memory),
        // counting every byte the reader pulls from it.
        struct Source {
            read: Arc<std::sync::atomic::AtomicU64>,
            left: usize,
        }
        impl Read for Source {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                const LINE: &[u8] = b"{\"edge\":3,\"count\":17}\n";
                let n = buf.len().min(self.left);
                let at = self.read.fetch_add(n as u64, Ordering::SeqCst) as usize;
                for (i, b) in buf[..n].iter_mut().enumerate() {
                    *b = LINE[(at + i) % LINE.len()];
                }
                self.left -= n;
                Ok(n)
            }
        }
        let read = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let source = Source {
            read: Arc::clone(&read),
            left: 64 * READ_CHUNK,
        };
        let max_line = 4096;
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || pump(source, &tx, max_line));
        // Nobody receives: wait until the reader stops pulling.
        let (mut last, mut still) = (u64::MAX, 0);
        for _ in 0..1000 {
            std::thread::sleep(Duration::from_millis(10));
            let now = read.load(Ordering::SeqCst);
            still = if now == last { still + 1 } else { 0 };
            last = now;
            if still == 10 {
                break;
            }
        }
        let bound = ((CHANNEL_BLOCKS + 2) * READ_CHUNK + max_line) as u64;
        assert!(
            last <= bound,
            "the reader pulled {last} bytes with nobody receiving (bound {bound})"
        );
        assert!(
            last >= (CHANNEL_BLOCKS * READ_CHUNK / 2) as u64,
            "the channel filled"
        );
        drop(rx);
        reader
            .join()
            .expect("the reader ends once the receiver is gone");
    }

    #[test]
    fn retry_events_are_byte_stable() {
        // Operators alert on these exact stderr lines.
        assert_eq!(
            retry_event(
                "transport_retry",
                1,
                Duration::from_millis(50),
                "transport read failed: Connection reset by peer (os error 104)"
            ),
            r#"{"event":"transport_retry","attempt":1,"delay_ms":50,"error":"transport read failed: Connection reset by peer (os error 104)"}"#
        );
        assert_eq!(
            retry_event(
                "wal_retry",
                3,
                Duration::from_millis(200),
                "cannot append to \"wal-0.log\": No space left on device (os error 28)"
            ),
            r#"{"event":"wal_retry","attempt":3,"delay_ms":200,"error":"cannot append to \"wal-0.log\": No space left on device (os error 28)"}"#
        );
        assert_eq!(
            retry_event(
                "checkpoint_retry",
                4,
                Duration::from_millis(800),
                "cannot write /x/state.ckpt.tmp: No such file or directory (os error 2)"
            ),
            r#"{"event":"checkpoint_retry","attempt":4,"delay_ms":800,"error":"cannot write /x/state.ckpt.tmp: No such file or directory (os error 2)"}"#
        );
        assert_eq!(
            retry_event(
                "wal_retry",
                0,
                Duration::ZERO,
                "final sync failed: Input/output error (os error 5)"
            ),
            r#"{"event":"wal_retry","attempt":0,"delay_ms":0,"error":"final sync failed: Input/output error (os error 5)"}"#
        );
    }

    #[test]
    fn block_reader_ships_complete_lines() {
        use std::io::Cursor;
        // Small stream, one read chunk: one block up to the last
        // newline, then the unterminated tail flushed at EOF as its
        // own block (a final line without `\n` still counts).
        let (tx, rx) = channel();
        pump(
            Cursor::new(b"short\nlonger line here\ntail".to_vec()),
            &tx,
            64,
        );
        drop(tx);
        let msgs: Vec<ReaderMsg> = rx.iter().collect();
        assert_eq!(msgs.len(), 2);
        match &msgs[0] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, b"short\nlonger line here\n");
                assert_eq!(b.offset, 0);
            }
            _ => panic!("expected a block"),
        }
        match &msgs[1] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, b"tail");
                assert_eq!(b.offset, 23);
            }
            _ => panic!("expected the EOF carry block"),
        }
    }

    #[test]
    fn block_reader_spans_chunks_with_correct_offsets() {
        use std::io::Cursor;
        // A stream larger than one read chunk: lines land in several
        // blocks, every block starts on a line boundary, offsets are
        // absolute, and reassembly is byte-identical.
        let line: &[u8] = b"{\"edge\":3,\"count\":17}\n";
        let mut stream = Vec::new();
        while stream.len() < READ_CHUNK + READ_CHUNK / 2 {
            stream.extend_from_slice(line);
        }
        let (tx, rx) = channel();
        pump(Cursor::new(stream.clone()), &tx, 4096);
        drop(tx);
        let mut rebuilt = Vec::new();
        let mut blocks = 0;
        for msg in rx.iter() {
            match msg {
                ReaderMsg::Block(b) => {
                    assert_eq!(b.offset as usize, rebuilt.len(), "offsets are absolute");
                    assert_eq!(
                        b.data.len() % line.len(),
                        0,
                        "blocks split on line boundaries"
                    );
                    rebuilt.extend_from_slice(&b.data);
                    blocks += 1;
                }
                _ => panic!("clean stream must not produce Bad/Fatal"),
            }
        }
        assert!(blocks >= 2, "stream spans chunks");
        assert_eq!(rebuilt, stream);
    }

    #[test]
    fn block_reader_discards_oversized_spanning_lines() {
        use std::io::Cursor;
        // A line that outgrows the cap before its newline arrives is
        // discarded in counting mode: memory stays bounded, the true
        // length, stream offset, and a snippet are reported, and the
        // stream recovers at the next newline.
        let huge = READ_CHUNK + 1000;
        let mut stream = b"ok\n".to_vec();
        stream.extend_from_slice(&vec![b'y'; huge]);
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"edge\":1}\n");
        let (tx, rx) = channel();
        pump(Cursor::new(stream), &tx, 64);
        drop(tx);
        let msgs: Vec<ReaderMsg> = rx.iter().collect();
        assert_eq!(msgs.len(), 3);
        assert!(matches!(
            &msgs[0],
            ReaderMsg::Block(b) if b.data == b"ok\n" && b.offset == 0
        ));
        match &msgs[1] {
            ReaderMsg::Bad(BadLine {
                reason,
                offset,
                snippet,
            }) => {
                assert_eq!(
                    reason,
                    &format!("line exceeds --max-line-bytes 64 ({huge} bytes discarded)")
                );
                assert_eq!(*offset, 3);
                assert_eq!(snippet, &"y".repeat(SNIPPET_MAX));
            }
            _ => panic!("expected the oversize rejection"),
        }
        assert!(matches!(
            &msgs[2],
            ReaderMsg::Block(b)
                if b.data == b"{\"edge\":1}\n" && b.offset == 3 + huge as u64 + 1
        ));

        // Oversized with no newline before EOF: still classified.
        let (tx, rx) = channel();
        pump(Cursor::new(vec![b'z'; READ_CHUNK + 500]), &tx, 64);
        drop(tx);
        let msgs: Vec<ReaderMsg> = rx.iter().collect();
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            ReaderMsg::Bad(BadLine { reason, offset, .. }) => {
                assert!(reason.contains(&format!("{} bytes discarded", READ_CHUNK + 500)));
                assert_eq!(*offset, 0);
            }
            _ => panic!("expected the oversize rejection"),
        }
    }

    #[test]
    fn pump_ships_raw_bytes_for_consumer_classification() {
        use std::io::Cursor;
        // Non-UTF-8 bytes and overlong lines that arrived whole inside
        // a chunk are the serve loop's to classify: the reader ships
        // them raw inside the block. Only the *memory* bound — a line
        // spanning chunks past the cap — is enforced reader-side.
        let (tx, rx) = channel();
        let mut stream = b"{\"edge\":0}\n".to_vec();
        stream.extend_from_slice(&[0xFF, 0xFE, 0x80, b'\n']); // non-UTF-8
        stream.extend_from_slice(&vec![b'z'; 300]);
        stream.push(b'\n'); // over the 128-byte cap, but in-block
        stream.extend_from_slice(b"{\"slot_end\":true}\n");
        pump(Cursor::new(stream.clone()), &tx, 128);
        drop(tx);
        let msgs: Vec<ReaderMsg> = rx.iter().collect();
        assert_eq!(msgs.len(), 1, "one chunk in, one block out");
        match &msgs[0] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, stream);
                assert_eq!(b.offset, 0);
            }
            _ => panic!("expected a block"),
        }
    }
}
