//! `carbon-edge serve` — a long-lived streaming daemon — and
//! `carbon-edge gen-arrivals`, its seeded request-stream generator.
//!
//! The daemon reads newline-delimited JSON request lines from stdin, a
//! Unix socket, or a TCP socket, accumulates them into the open slot,
//! and closes the slot on an explicit `{"slot_end": true}` marker, a
//! `--slot-requests` count, or a `--slot-ms` wall-clock deadline. Each
//! closed slot flows through the same `ServeSession` machinery the
//! batch driver uses, so a served trace is byte-comparable to a batch
//! replay of the same arrivals. Between slots the daemon can write a
//! versioned checkpoint (`--checkpoint`/`--checkpoint-every`), halt at
//! a planned slot (`--halt-at-slot`), or catch SIGINT/SIGTERM — and a
//! later `--resume` continues the run bit-identically. With `--wal DIR`
//! every arrival is also appended to a durable write-ahead log before
//! it is applied, so `--resume` recovers bit-identically even from a
//! SIGKILL or power loss: last checkpoint + WAL-tail replay. Ingest is
//! hardened against hostile clients (`--max-line-bytes`,
//! `--max-bad-lines`), transient transport/storage failures retry with
//! backoff, and persistent storage failures flip the daemon into an
//! explicit degraded-durability mode (503 on `/readyz`) instead of
//! killing it. The wire protocol, checkpoint format, and WAL format
//! are specified in `SERVING.md`.

use std::io::BufRead as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cne_core::checkpoint::{load_zoo_snapshot, save_zoo_snapshot, zoo_snapshot_path};
use cne_core::combos::Combo;
use cne_core::wal::{self, AppendError, GroupCommit, Wal, WalOptions, WalRecord};
use cne_core::wire::{self, WireMsg};
use cne_core::{Checkpoint, ServeOptions, ServeSession};
use cne_faults::WallRetry;
use cne_nn::{ModelZoo, ZooKey};
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::expo;
use cne_util::json::Json;
use cne_util::telemetry::{Recorder, Value};
use cne_util::SeedSequence;

use crate::admin::{self, AdminState};
use crate::args::Options;
use crate::commands::{build_config, build_zoo, write_telemetry, zoo_key};

/// Interval at which the serve loop polls for shutdown signals while
/// no request line is pending.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Slots per synthetic day for `gen-arrivals` (matches the fast-test
/// workload cadence so a 40-slot quick horizon spans 2.5 days).
const SLOTS_PER_DAY: usize = 16;

/// Bucket upper bounds for the ops latency histograms, microseconds
/// (50µs … 1s; slower observations land in the overflow bucket).
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

/// Ops latency-histogram name → profiler span path, for the stages the
/// stepper times itself.
const STAGE_LATENCIES: [(&str, &str); 4] = [
    ("serve.latency.select_us", "slot/select"),
    ("serve.latency.trade_us", "slot/trade"),
    ("serve.latency.serve_us", "slot/serve"),
    ("serve.latency.feedback_us", "slot/feedback"),
];

#[cfg(unix)]
mod signals {
    //! Cooperative SIGINT/SIGTERM handling: the handler only flips an
    //! atomic flag (async-signal-safe); the serve loop polls it
    //! between slots and turns it into a checkpoint + clean exit.

    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: `signal` with a handler that only stores to an
        // atomic is async-signal-safe; both signals default to
        // process termination, so replacing them cannot lose any
        // behavior the daemon relies on.
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    pub fn triggered() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn triggered() -> bool {
        false
    }
}

/// Transport read buffer, and therefore the upper bound on one
/// [`LineBlock`]. Large enough to amortize syscalls and channel sends
/// over thousands of wire lines, small enough that the group-commit
/// loss window after a hard kill (arrivals applied but not yet
/// WAL-flushed — at most one block) stays well under a second of
/// stream at any realistic rate.
const READ_CHUNK: usize = 256 * 1024;

/// Longest `bad_line` snippet shipped in events, in bytes.
const SNIPPET_MAX: usize = 64;

/// A batch of complete wire lines, shipped to the serve loop as one
/// buffer: raw bytes, `\n`-separated (the final line may omit the
/// terminator at EOF), never a partial line. One channel send and one
/// allocation cover the whole block, which is what lets the ingest
/// loop run at millions of lines per second.
struct LineBlock {
    /// Raw line bytes, each line within the `--max-line-bytes` cap
    /// unless it arrived whole inside one read chunk (the serve loop
    /// re-checks per line; the cap's *memory* bound is enforced here).
    data: Vec<u8>,
    /// Stream byte offset of `data[0]`, for `bad_line` diagnostics.
    offset: u64,
}

/// What the transport reader thread hands the serve loop. Transport
/// errors have already been retried; oversized lines that could not be
/// buffered have been classified and consumed. UTF-8 and length
/// classification of in-block lines happens in the serve loop, which
/// sees the raw bytes.
enum ReaderMsg {
    /// A batch of complete wire lines.
    Block(LineBlock),
    /// A line the reader rejected without shipping — oversized; the
    /// rest of it was discarded up to the next newline. Counts against
    /// the `--max-bad-lines` budget.
    Bad(BadLine),
    /// The transport died and stayed dead through the retry budget.
    Fatal(String),
}

/// An oversized line mid-discard: `read_blocks` stopped buffering it
/// and is counting bytes until the next newline.
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
fn retry_event(event: &str, attempt: u32, delay: Duration, error: &str) -> String {
    format!(
        "{{\"event\":\"{event}\",\"attempt\":{attempt},\"delay_ms\":{},\"error\":{}}}",
        delay.as_millis(),
        Json::Str(error.to_owned()).encode()
    )
}

/// One rejected wire line, as recorded by [`DaemonOps::record_bad_line`].
struct BadLine {
    /// Human-readable cause (canonical strict-path or reader text).
    reason: String,
    /// Absolute stream byte offset where the line began.
    offset: u64,
    /// Up to [`SNIPPET_MAX`] bytes of the line, lossily decoded.
    snippet: String,
}

/// Drains one transport connection into the channel as line blocks.
/// Returns when the input ends, the receiver hangs up, or the
/// transport fails for good (after sending [`ReaderMsg::Fatal`]).
///
/// The reader never holds more than one read chunk plus one
/// `--max-line-bytes` partial line: a line that outgrows the cap
/// before its newline arrives flips into discard-and-count mode
/// ([`Oversize`]), exactly like the old bounded per-line reader.
fn pump<R: std::io::Read>(source: R, tx: &mpsc::Sender<ReaderMsg>, max_line: usize) {
    let mut reader = std::io::BufReader::with_capacity(READ_CHUNK, source);
    let retry = WallRetry::daemon_default();
    // Absolute stream offset of the next byte `fill_buf` returns.
    let mut pos: u64 = 0;
    // Partial line carried across read chunks, and its start offset.
    let mut carry: Vec<u8> = Vec::new();
    let mut carry_at: u64 = 0;
    let mut oversize: Option<Oversize> = None;
    loop {
        // Probe with retries first; `fill_buf` is then repeatable
        // without I/O while its buffer is non-empty, so the zero-copy
        // borrow below cannot hit a fresh transport error.
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
            let chunk = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) => {
                    let _ = tx.send(ReaderMsg::Fatal(format!("transport read failed: {e}")));
                    return;
                }
            };
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

/// Accepts one connection, retrying transient `accept()` failures with
/// backoff. Returns `None` (after sending [`ReaderMsg::Fatal`]) when
/// the listener fails for good.
fn accept_with_retry<L, S>(
    listener: &L,
    accept: impl Fn(&L) -> std::io::Result<S>,
    tx: &mpsc::Sender<ReaderMsg>,
) -> Option<S> {
    let retry = WallRetry::daemon_default();
    match retry.run(
        || accept(listener).map_err(|e| format!("accept failed: {e}")),
        |attempt, err, delay| eprintln!("{}", retry_event("transport_retry", attempt, delay, err)),
    ) {
        Ok(stream) => Some(stream),
        Err(e) => {
            let _ = tx.send(ReaderMsg::Fatal(e));
            None
        }
    }
}

/// Spawns the transport reader: a thread that feeds classified request
/// lines into a channel, so the serve loop can poll deadlines and
/// signals while the transport blocks. Dropping the sender signals EOF.
fn spawn_reader(
    listen: Option<&str>,
    max_line: usize,
) -> Result<mpsc::Receiver<ReaderMsg>, String> {
    let (tx, rx) = mpsc::channel();
    match listen {
        None => {
            std::thread::spawn(move || pump(std::io::stdin(), &tx, max_line));
        }
        #[cfg(unix)]
        Some(addr) if addr.starts_with("unix:") => {
            let Some(path) = addr.strip_prefix("unix:").map(str::to_owned) else {
                return Err(format!("malformed transport address '{addr}'"));
            };
            // Stale socket files from a previous run would make bind
            // fail; the daemon owns the path.
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot listen on unix:{path}: {e}"))?;
            eprintln!("serve        : listening on unix:{path}");
            std::thread::spawn(move || {
                if let Some(stream) =
                    accept_with_retry(&listener, |l| l.accept().map(|(s, _)| s), &tx)
                {
                    pump(stream, &tx, max_line);
                }
                let _ = std::fs::remove_file(&path);
            });
        }
        Some(addr) if addr.starts_with("tcp:") => {
            let Some(host) = addr.strip_prefix("tcp:").map(str::to_owned) else {
                return Err(format!("malformed transport address '{addr}'"));
            };
            let listener = std::net::TcpListener::bind(&host)
                .map_err(|e| format!("cannot listen on tcp:{host}: {e}"))?;
            eprintln!("serve        : listening on tcp:{host}");
            std::thread::spawn(move || {
                if let Some(stream) =
                    accept_with_retry(&listener, |l| l.accept().map(|(s, _)| s), &tx)
                {
                    pump(stream, &tx, max_line);
                }
            });
        }
        Some(other) => {
            return Err(format!(
                "unknown transport '{other}' (expected 'unix:PATH' or 'tcp:HOST:PORT')"
            ));
        }
    }
    Ok(rx)
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
                    ops.record_wal_retry();
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
                ops.record_checkpoint_retry();
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
        let Some(wal) = self.wal.as_mut() else {
            if self.degraded {
                self.restore(ops);
            }
            return;
        };
        let retry = self.retry;
        let result = retry.run(
            || wal.install_checkpoint(slot),
            |attempt, err, delay| {
                ops.record_wal_retry();
                eprintln!("{}", retry_event("wal_retry", attempt, delay, err));
            },
        );
        match result {
            Ok(()) => {
                if self.degraded {
                    self.restore(ops);
                }
            }
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
    /// slot (µs): `STAGE_LATENCIES` order, then the `slot` root.
    prev_us: [f64; 5],
}

impl DaemonOps {
    fn new(session: &ServeSession<'_>, run_seed: u64, admin: Option<Arc<AdminState>>) -> Self {
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
            admin,
            prev_us: [0.0; 5],
        }
    }

    /// Folds one closed slot into the ops recorder: counters, ledger
    /// gauges, live envelope verdicts, stage latencies — then
    /// republishes the metrics page.
    fn after_slot(&mut self, session: &mut ServeSession<'_>, requests: u64, slot_wall_us: f64) {
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
            // The moment-it-happened structured event for operators.
            let mut line = vec![
                ("event".to_owned(), Json::Str("envelope_breach".to_owned())),
                (
                    "slot".to_owned(),
                    finding.slot.map_or(Json::Null, Json::UInt),
                ),
                ("monitor".to_owned(), Json::Str(finding.monitor.to_owned())),
                ("excused".to_owned(), Json::Bool(finding.excused)),
            ];
            for (name, value) in &finding.detail {
                line.push(((*name).to_owned(), json_value(value)));
            }
            eprintln!("{}", Json::Obj(line).encode());
        }

        if let Some(profiler) = session.profiler() {
            for (i, (metric, path)) in STAGE_LATENCIES.iter().enumerate() {
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
                .histogram_with_bounds("serve.latency.ingest_us", &LATENCY_BOUNDS_US)
                .record((slot_wall_us - step).max(0.0));
        }
        self.rec
            .histogram_with_bounds("serve.latency.slot_us", &LATENCY_BOUNDS_US)
            .record(slot_wall_us);
        self.publish(session);
    }

    /// Tallies one checkpoint write into the ops recorder.
    fn record_checkpoint(&mut self, wall_us: f64) {
        self.rec.incr("serve.checkpoints", 1);
        self.rec
            .histogram_with_bounds("serve.latency.checkpoint_us", &LATENCY_BOUNDS_US)
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

    /// Tallies raw wire input shipped by the transport reader, for the
    /// ingest throughput panel (`watch`, `/metrics`).
    fn record_ingest_bytes(&mut self, bytes: u64) {
        self.rec.incr("serve.ingest.bytes", bytes);
    }

    /// Tallies one WAL append/marker retry.
    fn record_wal_retry(&mut self) {
        self.rec.incr("serve.wal_retries", 1);
    }

    /// Tallies one checkpoint-write retry.
    fn record_checkpoint_retry(&mut self) {
        self.rec.incr("serve.checkpoint_retries", 1);
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

/// The daemon's zoo, and whether it was loaded from a snapshot.
///
/// `--resume F` loads `F.zoo` when it is an intact snapshot of this
/// invocation's zoo. Otherwise — and on every fresh start — the zoo is
/// trained, and a rejected snapshot is reported as one
/// `zoo_snapshot_rejected` event.
fn obtain_zoo(opts: &Options, key: &ZooKey) -> (ModelZoo, bool) {
    if let Some(resume) = &opts.resume {
        let path = zoo_snapshot_path(Path::new(resume));
        match load_zoo_snapshot(&path, key) {
            Ok(zoo) => {
                eprintln!("zoo          : loaded snapshot {}", path.display());
                return (zoo, true);
            }
            Err(e) => eprintln!(
                "{{\"event\":\"zoo_snapshot_rejected\",\"path\":{},\"kind\":\"{}\",\
                 \"error\":{}}}",
                Json::Str(path.display().to_string()).encode(),
                e.kind(),
                Json::Str(e.to_string()).encode()
            ),
        }
    }
    (build_zoo(opts), false)
}

/// The one-line structured startup banner, written to stderr so it
/// never interleaves with the stdout summary or a piped trace.
fn startup_banner(
    opts: &Options,
    session: &ServeSession<'_>,
    run_seed: u64,
    scenario: Option<&str>,
    admin_addr: Option<&str>,
    zoo_loaded: bool,
) {
    let opt_str = |v: Option<&str>| v.map_or(Json::Null, |s| Json::Str(s.to_owned()));
    let mut triggers = vec![Json::Str("slot_end".to_owned())];
    if let Some(n) = opts.slot_requests {
        triggers.push(Json::Str(format!("requests:{n}")));
    }
    if let Some(ms) = opts.slot_ms {
        triggers.push(Json::Str(format!("ms:{ms}")));
    }
    let banner = Json::Obj(vec![
        ("event".to_owned(), Json::Str("serve_start".to_owned())),
        ("policy".to_owned(), Json::Str(opts.policy.clone())),
        ("seed".to_owned(), Json::UInt(run_seed)),
        ("scenario".to_owned(), opt_str(scenario)),
        ("serve_mode".to_owned(), Json::Str("batched".to_owned())),
        (
            "zoo".to_owned(),
            Json::Str(if zoo_loaded { "snapshot" } else { "trained" }.to_owned()),
        ),
        (
            "edge_threads".to_owned(),
            Json::UInt(opts.edge_threads.unwrap_or(1) as u64),
        ),
        (
            "next_slot".to_owned(),
            Json::UInt(session.next_slot() as u64),
        ),
        ("horizon".to_owned(), Json::UInt(session.horizon() as u64)),
        ("edges".to_owned(), Json::UInt(session.num_edges() as u64)),
        (
            "listen".to_owned(),
            Json::Str(opts.listen.clone().unwrap_or_else(|| "stdin".to_owned())),
        ),
        ("admin".to_owned(), opt_str(admin_addr)),
        ("slot_triggers".to_owned(), Json::Arr(triggers)),
        ("telemetry".to_owned(), opt_str(opts.telemetry.as_deref())),
        ("checkpoint".to_owned(), opt_str(opts.checkpoint.as_deref())),
        ("wal".to_owned(), opt_str(opts.wal.as_deref())),
        ("wal_sync".to_owned(), Json::Str(opts.wal_sync.to_string())),
        (
            "max_line_bytes".to_owned(),
            Json::UInt(opts.max_line_bytes as u64),
        ),
        ("max_bad_lines".to_owned(), Json::UInt(opts.max_bad_lines)),
    ]);
    eprintln!("{}", banner.encode());
}

/// `carbon-edge serve`.
pub fn serve(opts: &Options) -> Result<(), String> {
    if opts.policy.eq_ignore_ascii_case("offline") {
        return Err("serve needs an online policy — the offline oracle \
                    requires the whole arrival sequence in advance"
            .to_owned());
    }
    let combo: Combo = opts.policy.parse().map_err(|e| format!("{e}"))?;
    if opts.checkpoint.is_none() && (opts.checkpoint_every.is_some() || opts.halt_at_slot.is_some())
    {
        return Err(
            "--checkpoint-every and --halt-at-slot need --checkpoint FILE \
                    (where should the state go?)"
                .to_owned(),
        );
    }

    let mut config = build_config(opts)?;
    if let Some(slots) = opts.slots {
        config.horizon = slots;
        config.validate()?;
    }
    // Read the checkpoint before the zoo exists, so a bad one costs one
    // error line rather than a zoo build first.
    let checkpoint = match &opts.resume {
        Some(path) if Path::new(path).exists() || opts.wal.is_none() => {
            Some(Checkpoint::load(Path::new(path))?)
        }
        _ => None,
    };
    let key = zoo_key(opts);
    let (zoo, zoo_loaded) = obtain_zoo(opts, &key);
    let scenario = config.faults.as_ref().map(|s| s.name.clone());
    let serve_opts = ServeOptions {
        edge_threads: opts.edge_threads.unwrap_or(1),
        telemetry: opts.telemetry.is_some(),
        // Both feed only the ops side channel (admin endpoint, watch,
        // ops sidecar); the deterministic trace never sees them.
        live_monitor: true,
        stage_profiler: true,
    };

    let run_seed = checkpoint.as_ref().map_or(opts.seed, |c| c.seed);
    let mut session = match (&opts.resume, &checkpoint) {
        (Some(path), Some(ckpt)) => {
            let session = ServeSession::resume(config, &zoo, combo, ckpt, &serve_opts)?;
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
            ServeSession::new(config, &zoo, opts.seed, combo, &serve_opts)
        }
        (None, _) => ServeSession::new(config, &zoo, opts.seed, combo, &serve_opts),
    };

    // --- durability: open the WAL and replay its tail ---------------
    let mut wal_seed_open: Option<(Vec<u64>, u64)> = None;
    let wal_handle = if let Some(dir) = &opts.wal {
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
            let tail = wal::replay(
                &recovery.records,
                session.num_edges(),
                session.next_slot() as u64,
            )?;
            if !tail.is_empty() {
                println!(
                    "wal          : replayed {} closed slot(s) and {} open-slot \
                     line(s) from {dir}",
                    tail.closed.len(),
                    tail.open_lines
                );
            }
            session.apply_wal_tail(&tail)?;
            wal_seed_open = Some((tail.open, tail.open_lines));
        }
        Some(wal)
    } else {
        None
    };
    let dur = Durability::new(wal_handle);

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

    // A trained zoo goes beside the checkpoint for the next --resume.
    // The snapshot only shortens that recovery, so a failed write is
    // reported, not fatal.
    if let (Some(checkpoint), false) = (&opts.checkpoint, zoo_loaded) {
        let path = zoo_snapshot_path(Path::new(checkpoint));
        if let Err(e) = save_zoo_snapshot(&path, &zoo, &key) {
            eprintln!(
                "{{\"event\":\"zoo_snapshot_unwritten\",\"error\":{}}}",
                Json::Str(e).encode()
            );
        }
    }
    signals::install();
    let admin_state = opts
        .admin
        .as_deref()
        .map(|addr| {
            let state = AdminState::new(Duration::from_millis(opts.ready_deadline_ms));
            let bound = admin::spawn(addr, state.clone())?;
            eprintln!("admin        : /metrics /healthz /readyz on {bound}");
            Ok::<_, String>((state, bound))
        })
        .transpose()?;
    let admin_addr = admin_state.as_ref().map(|(_, bound)| bound.clone());
    let ops = DaemonOps::new(&session, run_seed, admin_state.map(|(state, _)| state));
    startup_banner(
        opts,
        &session,
        run_seed,
        scenario.as_deref(),
        admin_addr.as_deref(),
        zoo_loaded,
    );
    // Publish an initial page so `/metrics` is never empty, even
    // before the first slot closes.
    ops.publish(&session);
    let rx = spawn_reader(opts.listen.as_deref(), opts.max_line_bytes)?;
    println!(
        "serve        : policy {} seed {run_seed}, slot {} of {}, {} edges",
        opts.policy,
        session.next_slot(),
        session.horizon(),
        session.num_edges()
    );

    let num_edges = session.num_edges();
    let (open, requests_in_slot) = match wal_seed_open {
        // The WAL tail ended mid-slot: pre-seed the accumulator with
        // the arrivals already acknowledged for the open slot.
        Some((recovered, lines)) => (recovered, lines as usize),
        None => (vec![0; num_edges], 0),
    };
    let mut daemon = SlotLoop {
        opts,
        session,
        ops,
        dur,
        open,
        requests_in_slot,
        pending: GroupCommit::new(num_edges),
        bad_lines: 0,
        deadline: opts
            .slot_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
    };
    if !daemon.run(&rx)? {
        return Ok(());
    }
    let SlotLoop { session, ops, .. } = daemon;

    let horizon = session.horizon();
    ops.finish(opts.telemetry.as_deref())?;
    let outcome = session.finish();
    println!("served       : {horizon} slots, policy {}", opts.policy);
    println!("total cost   : {:.1}", outcome.record.total_cost());
    println!(
        "violation    : {:.2} allowances",
        outcome.record.violation()
    );
    println!("switches     : {}", outcome.record.total_switches());
    println!("p1 regret    : {:.1}", outcome.p1_regret);
    if opts.telemetry.is_some() {
        println!(
            "envelopes    : {} theorem-envelope violations",
            outcome.envelope_violations
        );
    }
    if let Some(path) = &opts.telemetry {
        let rec = outcome.telemetry.expect("telemetry was requested");
        write_telemetry(path, std::slice::from_ref(&rec))?;
    }
    Ok(())
}

/// The daemon's slot loop: the session plus everything that changes
/// as wire lines arrive — the open slot's accumulator, the
/// group-commit buffer, the bad-line tally and the wall-clock slot
/// deadline.
struct SlotLoop<'a> {
    opts: &'a Options,
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

impl SlotLoop<'_> {
    /// Serves slots until the horizon is complete (`Ok(true)`) or
    /// `--halt-at-slot` or a shutdown signal stops the daemon cleanly
    /// (`Ok(false)`). Transport death and a blown bad-line budget
    /// return the error after [`SlotLoop::fail`].
    fn run(&mut self, rx: &mpsc::Receiver<ReaderMsg>) -> Result<bool, String> {
        let opts = self.opts;
        let mut eof = false;
        while !self.session.is_done() {
            if signals::triggered() {
                self.flush_arrivals();
                if let Some(path) = &opts.checkpoint {
                    self.dur
                        .write_checkpoint(&self.session, path, &mut self.ops)?;
                }
                self.dur.shutdown_sync();
                self.ops.finish(opts.telemetry.as_deref())?;
                eprintln!(
                    "serve        : shutdown signal at slot {} — exiting cleanly{}",
                    self.session.next_slot(),
                    if opts.checkpoint.is_some() || opts.wal.is_some() {
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
            let wait = match self.deadline {
                Some(d) => d.saturating_duration_since(Instant::now()).min(IDLE_POLL),
                None => IDLE_POLL,
            };
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
            if self.ingest(&block)? {
                return Ok(false);
            }
        }
        self.dur.shutdown_sync();
        Ok(true)
    }

    /// Applies one block of wire lines to the open slot, closing slots
    /// on `slot_end` markers and `--slot-requests`. Returns whether
    /// `--halt-at-slot` stopped the daemon.
    fn ingest(&mut self, block: &LineBlock) -> Result<bool, String> {
        self.ops.record_ingest_bytes(block.data.len() as u64);
        let mut line_at = block.offset;
        for raw in block.data.split_inclusive(|&b| b == b'\n') {
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
        let opts = self.opts;
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
        self.deadline = opts
            .slot_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        if let (Some(every), Some(path)) = (opts.checkpoint_every, &opts.checkpoint) {
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
        if opts.halt_at_slot == Some(self.session.next_slot()) {
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
            .expect("validated at startup");
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

/// `carbon-edge gen-arrivals`.
pub fn gen_arrivals(opts: &Options) -> Result<(), String> {
    let process: ArrivalProcess = opts.process.parse().map_err(|e| format!("{e}"))?;
    let slots = opts.slots.unwrap_or(40);
    if opts.start_slot >= slots {
        return Err(format!(
            "--start-slot {} is past the last slot ({})",
            opts.start_slot,
            slots - 1
        ));
    }
    let peak = opts.peak.unwrap_or(120.0);
    let gen = ArrivalGen::new(
        process,
        opts.edges,
        SLOTS_PER_DAY,
        peak,
        &SeedSequence::new(opts.seed),
    );
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut io_err = |e: std::io::Error| format!("cannot write the request stream: {e}");
    for t in opts.start_slot..slots {
        for (i, &count) in gen.slot(t).iter().enumerate() {
            // Zero-count edges are omitted: the daemon defaults
            // unmentioned edges to zero arrivals.
            if count > 0 {
                writeln!(out, "{{\"edge\":{i},\"count\":{count}}}").map_err(&mut io_err)?;
            }
        }
        writeln!(out, "{{\"slot_end\":true}}").map_err(&mut io_err)?;
    }
    out.flush().map_err(&mut io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_lines_parse() {
        match wire::decode_strict("{\"edge\": 2, \"count\": 7}", 4).expect("valid") {
            WireMsg::Request { edge, count } => {
                assert_eq!((edge, count), (2, 7));
            }
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        match wire::decode_strict("{\"edge\": 0}", 4).expect("count defaults to 1") {
            WireMsg::Request { edge, count } => {
                assert_eq!((edge, count), (0, 1));
            }
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        assert!(matches!(
            wire::decode_strict("{\"slot_end\": true}", 4),
            Ok(WireMsg::SlotEnd)
        ));
    }

    #[test]
    fn wire_lines_reject_malformed_input() {
        assert!(wire::decode_strict("not json", 4).is_err());
        assert!(wire::decode_strict("[1, 2]", 4).is_err());
        assert!(wire::decode_strict("{\"slot_end\": false}", 4).is_err());
        assert!(
            wire::decode_strict("{\"count\": 3}", 4).is_err(),
            "edge is required"
        );
        assert!(wire::decode_strict("{\"edge\": -1}", 4).is_err());
        assert!(
            wire::decode_strict("{\"edge\": 4}", 4).is_err(),
            "out of range"
        );
        assert!(wire::decode_strict("{\"edge\": 1, \"count\": -2}", 4).is_err());
    }

    #[test]
    fn adversarial_wire_corpus_is_rejected_or_well_defined() {
        // Torn / partial JSON — every prefix of a valid line must be
        // rejected, never panic or mis-parse.
        let full = "{\"edge\": 3, \"count\": 17}";
        for cut in 1..full.len() {
            let prefix = &full[..cut];
            if prefix == full {
                continue;
            }
            assert!(
                wire::decode_strict(prefix, 8).is_err(),
                "torn prefix must not parse: {prefix:?}"
            );
        }

        // Duplicate keys: the first occurrence wins (the hand-rolled
        // parser keeps both; lookup is first-match). Pinned so the
        // behavior is deliberate, not accidental.
        match wire::decode_strict("{\"edge\": 1, \"edge\": 7}", 8).expect("first edge wins") {
            WireMsg::Request { edge, count } => assert_eq!((edge, count), (1, 1)),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }
        match wire::decode_strict("{\"edge\": 0, \"count\": 2, \"count\": 9}", 8)
            .expect("first count wins")
        {
            WireMsg::Request { edge, count } => assert_eq!((edge, count), (0, 2)),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }

        // slot_end interleaved with request fields: slot_end takes
        // precedence regardless of field order.
        assert!(matches!(
            wire::decode_strict("{\"edge\": 1, \"slot_end\": true}", 8),
            Ok(WireMsg::SlotEnd)
        ));
        assert!(matches!(
            wire::decode_strict("{\"slot_end\": true, \"count\": 5}", 8),
            Ok(WireMsg::SlotEnd)
        ));
        assert!(wire::decode_strict("{\"slot_end\": 1}", 8).is_err());
        assert!(wire::decode_strict("{\"slot_end\": \"true\"}", 8).is_err());

        // Huge, negative, and non-integer edge/count values.
        assert!(
            wire::decode_strict("{\"edge\": 18446744073709551615}", 8).is_err(),
            "u64::MAX edge"
        );
        assert!(
            wire::decode_strict("{\"edge\": 99999999999999999999999}", 8).is_err(),
            "overflow"
        );
        assert!(wire::decode_strict("{\"edge\": -3}", 8).is_err());
        assert!(wire::decode_strict("{\"edge\": 1.5}", 8).is_err());
        assert!(wire::decode_strict("{\"edge\": \"1\"}", 8).is_err());
        assert!(wire::decode_strict("{\"edge\": 1, \"count\": -9223372036854775808}", 8).is_err());
        assert!(wire::decode_strict("{\"edge\": 1, \"count\": 3.7}", 8).is_err());
        assert!(wire::decode_strict("{\"edge\": 1, \"count\": null}", 8).is_err());
        // u64::MAX count is structurally valid — the accumulator is
        // u64 and the daemon's per-slot sum may saturate, but parsing
        // must not reject or wrap it.
        match wire::decode_strict("{\"edge\": 0, \"count\": 18446744073709551615}", 8)
            .expect("valid")
        {
            WireMsg::Request { count, .. } => assert_eq!(count, u64::MAX),
            WireMsg::SlotEnd => panic!("not a slot end"),
        }

        // Structural garbage.
        for line in [
            "",
            "   ",
            "null",
            "true",
            "42",
            "\"edge\"",
            "[{\"edge\": 1}]",
            "{\"edge\": {\"nested\": 1}}",
            "{}",
            "{\"unrelated\": 1}",
            "{\"edge\": 1,}",
            "{'edge': 1}",
            "{\"edge\" 1}",
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(
                wire::decode_strict(line, 8).is_err(),
                "must reject {line:?}"
            );
        }
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
        let (tx, rx) = mpsc::channel();
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
        let (tx, rx) = mpsc::channel();
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
        let (tx, rx) = mpsc::channel();
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
        let (tx, rx) = mpsc::channel();
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
        let (tx, rx) = mpsc::channel();
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

    #[test]
    fn generated_stream_is_deterministic_and_well_formed() {
        let gen = ArrivalGen::new(
            ArrivalProcess::Bursty,
            3,
            SLOTS_PER_DAY,
            90.0,
            &SeedSequence::new(5),
        );
        // Every generated line must round-trip through the daemon's
        // own parser, and slot counts must reconstruct exactly.
        for t in 0..20 {
            let counts = gen.slot(t);
            let mut rebuilt = vec![0u64; 3];
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let line = format!("{{\"edge\":{i},\"count\":{c}}}");
                match wire::decode_strict(&line, 3).expect("generated lines parse") {
                    WireMsg::Request { edge, count } => rebuilt[edge] += count,
                    WireMsg::SlotEnd => panic!("not a slot end"),
                }
            }
            assert_eq!(rebuilt, counts, "slot {t}");
        }
    }
}
