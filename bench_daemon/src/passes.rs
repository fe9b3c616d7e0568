//! Daemon passes, timed from outside: one harness process feeds a
//! `carbon-edge serve` child over its unix socket, probes its admin
//! endpoint, and checks its printed result against an in-process
//! reference.
//!
//! * An uninterrupted pass sends the whole stream (all at once, or slot
//!   by slot on the workload's schedule) and waits for the daemon to
//!   finish the horizon and exit.
//! * A crash pass sends slots 0–87 and half of slot 88, SIGKILLs the
//!   daemon once it has durably logged all of that, resumes it from its
//!   checkpoint and WAL, and sends the rest.
//!
//! At most two harness threads run: a writer and the main thread, which
//! probes `/metrics` and reaps the daemon.

use std::io::Write as _;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cne_core::wal;
use cne_core::{Checkpoint, Combo, ServeOptions, ServeOutcome, ServeSession};
use cne_edgesim::SimConfig;
use cne_nn::ModelZoo;
use cne_simdata::TaskKind;

use crate::daemon::{next_slot, scrape, Daemon};
use crate::workload::{request_line, Arrival, Durable, Stream, Workload, SLOT_END};

/// The daemon's run seed on every pass.
pub const DAEMON_SEED: u64 = 1;

/// Longest wait for a daemon's listening line.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(20);

/// Longest a pass may run once the daemon listens.
const PASS_TIMEOUT: Duration = Duration::from_secs(40);

/// How often the harness checks for a daemon's exit when it has nothing
/// to probe.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long the WAL must stay the same size before a crash pass kills
/// the daemon: long enough that every line sent has been logged.
const WAL_QUIET: Duration = Duration::from_millis(100);

/// Daemons each crash pass resumes from the same on-disk state.
const RESUMES: usize = 3;

/// The stderr event the daemon writes for each rejected wire line.
const BAD_LINE: &str = "\"event\":\"bad_line\"";

/// The summary lines a finished daemon prints, in order.
const SUMMARY_PREFIXES: [&str; 4] = [
    "total cost   :",
    "violation    :",
    "switches     :",
    "p1 regret    :",
];

/// A run's printed result: `total cost`, `violation`, `switches` and
/// `p1 regret`, formatted as the daemon formats them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary(Vec<String>);

impl Summary {
    /// The lines `carbon-edge serve` prints for `outcome`, with its own
    /// format strings.
    #[must_use]
    pub fn of(outcome: &ServeOutcome) -> Self {
        Self(vec![
            format!("total cost   : {:.1}", outcome.record.total_cost()),
            format!(
                "violation    : {:.2} allowances",
                outcome.record.violation()
            ),
            format!("switches     : {}", outcome.record.total_switches()),
            format!("p1 regret    : {:.1}", outcome.p1_regret),
        ])
    }

    /// The summary lines found in a daemon's stdout.
    #[must_use]
    pub fn from_stdout(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| SUMMARY_PREFIXES.iter().any(|p| l.starts_with(p)))
                .map(str::to_owned)
                .collect(),
        )
    }
}

/// The daemon's simulator configuration for `workload`
/// (`SimConfig::paper_default`, as `carbon-edge serve` builds it without
/// `--quick`).
#[must_use]
pub fn sim_config(workload: &Workload) -> SimConfig {
    let mut config = SimConfig::paper_default(TaskKind::MnistLike, workload.edges);
    config.horizon = workload.slots;
    config
}

/// The daemon's session options (it always runs the live monitor and
/// the stage profiler), at `edge_threads` workers.
#[must_use]
pub fn serve_options(workload: &Workload, edge_threads: usize, live_monitor: bool) -> ServeOptions {
    ServeOptions {
        edge_threads,
        telemetry: workload.telemetry,
        live_monitor,
        stage_profiler: true,
        ..ServeOptions::default()
    }
}

/// What the daemon must print for `stream`: the same session fed each
/// slot's summed counts in-process.
#[must_use]
pub fn reference(workload: &Workload, zoo: &ModelZoo, stream: &Stream) -> Summary {
    let opts = serve_options(workload, workload.edge_threads, true);
    let mut session =
        ServeSession::new(sim_config(workload), zoo, DAEMON_SEED, Combo::ours(), &opts);
    for counts in &stream.counts {
        session.push_slot(counts);
    }
    Summary::of(&session.finish())
}

/// One uninterrupted pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Spawn to listening line, s.
    pub setup_s: f64,
    /// First byte written to daemon exit, s.
    pub wall_s: f64,
    /// Request lines sent.
    pub lines: u64,
    /// Daemon CPU from its listening line to exit, µs.
    pub cpu_us: f64,
    /// Daemon peak RSS, KiB.
    pub maxrss_kib: f64,
    /// Per slot: from when it was due to the first probe showing it
    /// closed (daemon exit for slots it never showed), µs.
    pub slot_close_us: Vec<f64>,
    /// Time the writer spent in `write`, ms.
    pub send_ms: f64,
    /// Per slot: how late its first byte was written, µs.
    pub gen_lag_us: Vec<f64>,
    /// `/metrics` round trips, µs.
    pub probe_rtt_us: Vec<f64>,
    /// `/metrics` page sizes, bytes.
    pub page_bytes: Vec<f64>,
    /// Why the pass failed, if it did.
    pub error: Option<String>,
}

/// One crash-and-resume pass.
#[derive(Debug, Clone, Default)]
pub struct CrashPass {
    /// Spawn to listening line of the first daemon, s.
    pub setup_s: f64,
    /// Spawn to listening line of each resumed daemon, s.
    pub recovery_s: Vec<f64>,
    /// Request lines sent to the first and the last daemon.
    pub lines: u64,
    /// Why the pass failed, if it did.
    pub error: Option<String>,
}

/// Runs passes of one workload against one daemon binary.
pub struct Bench<'a> {
    bin: PathBuf,
    workload: &'a Workload,
    stream: &'a Stream,
    reference: &'a Summary,
    root: PathBuf,
    passes: usize,
}

impl<'a> Bench<'a> {
    /// A bench that keeps each pass's files under its own directory of
    /// `root` (which must be a short relative path: unix socket paths
    /// are limited to 107 bytes).
    #[must_use]
    pub fn new(
        bin: PathBuf,
        workload: &'a Workload,
        stream: &'a Stream,
        reference: &'a Summary,
        root: PathBuf,
    ) -> Self {
        Self {
            bin,
            workload,
            stream,
            reference,
            root,
            passes: 0,
        }
    }

    /// A fresh directory for the next pass. Every pass gets its own
    /// socket, WAL and checkpoint paths: a daemon's reader unlinks its
    /// socket path on exit, so a reused path could delete a live
    /// daemon's socket.
    fn pass_dir(&mut self) -> Result<PathBuf, String> {
        self.passes += 1;
        let dir = self.root.join(format!("p{}", self.passes));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    fn daemon_args(&self, dir: &Path, durable: Option<Durable>, tag: &str) -> Vec<String> {
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let w = self.workload;
        let mut args = vec![
            "--edges".to_owned(),
            w.edges.to_string(),
            "--slots".to_owned(),
            w.slots.to_string(),
            "--seed".to_owned(),
            DAEMON_SEED.to_string(),
            "--edge-threads".to_owned(),
            w.edge_threads.to_string(),
            "--listen".to_owned(),
            format!("unix:{}", path(&format!("{tag}l.sock"))),
            "--admin".to_owned(),
            format!("unix:{}", path(&format!("{tag}a.sock"))),
        ];
        if w.telemetry {
            args.extend(["--telemetry".to_owned(), path("trace.jsonl")]);
        }
        if let Some(d) = durable {
            args.extend([
                "--wal".to_owned(),
                path("wal"),
                "--wal-sync".to_owned(),
                d.wal_sync.to_string(),
                "--checkpoint".to_owned(),
                path("state.ckpt"),
                "--checkpoint-every".to_owned(),
                d.checkpoint_every.to_string(),
            ]);
        }
        args
    }

    /// Checks a finished daemon's exit, result and stderr.
    fn check(&self, daemon: &mut Daemon) -> Result<(), String> {
        let exit = daemon.try_reap().ok_or("daemon still running")?;
        if !exit.success {
            return Err(format!("daemon failed: {}", daemon.stderr_text().trim()));
        }
        if daemon.stderr_text().contains(BAD_LINE) {
            return Err("daemon rejected wire lines".to_owned());
        }
        let got = Summary::from_stdout(&daemon.stdout_text());
        if &got != self.reference {
            return Err(format!(
                "result {got:?} differs from the reference {:?}",
                self.reference
            ));
        }
        Ok(())
    }

    /// One uninterrupted pass.
    pub fn pass(&mut self) -> Pass {
        let mut pass = Pass {
            lines: self.stream.request_lines(),
            ..Pass::default()
        };
        if let Err(e) = self.try_pass(&mut pass) {
            pass.error = Some(e);
        }
        pass
    }

    fn try_pass(&mut self, pass: &mut Pass) -> Result<(), String> {
        let dir = self.pass_dir()?;
        let args = self.daemon_args(&dir, self.workload.durable, "");
        let spawned = Instant::now();
        let mut daemon = Daemon::spawn(&self.bin, &args, &dir, "serve")?;
        pass.setup_s = (daemon.wait_listening(STARTUP_TIMEOUT)? - spawned).as_secs_f64();
        let cpu_at_listen = daemon.cpu_us_now()?;
        let mut conn =
            UnixStream::connect(dir.join("l.sock")).map_err(|e| format!("connect: {e}"))?;
        let admin = dir.join("a.sock");

        let slots = self.workload.slots;
        let due: Vec<Duration> = (0..slots)
            .map(|t| match self.workload.arrival {
                Arrival::Drain => Duration::ZERO,
                Arrival::Paced { slots_per_s } => Duration::from_secs_f64(t as f64 / slots_per_s),
            })
            .collect();
        let poll = self.workload.poll();
        let sent = AtomicUsize::new(0);
        let mut closed_at: Vec<Option<Instant>> = vec![None; slots];
        let start = Instant::now();
        let (written, ended) = std::thread::scope(|s| {
            let writer = s.spawn(|| write_slots(&mut conn, self.stream, &due, start, &sent));
            let mut seen = 0usize;
            let ended = loop {
                if daemon.try_reap().is_some() {
                    break Some(Instant::now());
                }
                if start.elapsed() > PASS_TIMEOUT {
                    daemon.kill();
                    break None;
                }
                // Probe only while the oldest open slot is due (or already
                // sent): every scrape costs the daemon CPU. Otherwise just
                // watch for the daemon's exit until that slot is due.
                let now = Instant::now();
                let due_now = seen < slots
                    && (seen < sent.load(Ordering::Acquire) || start + due[seen] <= now);
                if !due_now {
                    let until_due = due
                        .get(seen)
                        .map_or(IDLE_POLL, |d| (start + *d).saturating_duration_since(now));
                    std::thread::sleep(until_due.min(IDLE_POLL));
                    continue;
                }
                if let Ok(page) = scrape(&admin) {
                    let answered = Instant::now();
                    pass.probe_rtt_us.push((answered - now).as_secs_f64() * 1e6);
                    pass.page_bytes.push(page.len() as f64);
                    let closed = next_slot(&page).map_or(0, |n| (n as usize).min(slots));
                    while seen < closed {
                        closed_at[seen] = Some(answered);
                        seen += 1;
                    }
                }
                std::thread::sleep(poll);
            };
            (writer.join().expect("writer thread panicked"), ended)
        });
        let ended = ended.ok_or("pass timed out")?;
        let (gen_lag_us, send) = written?;
        self.check(&mut daemon)?;
        let exit = daemon.try_reap().expect("checked above");

        pass.wall_s = (ended - start).as_secs_f64();
        pass.cpu_us = exit.cpu_us - cpu_at_listen;
        pass.maxrss_kib = exit.maxrss_kib;
        pass.send_ms = send.as_secs_f64() * 1e3;
        pass.gen_lag_us = gen_lag_us;
        pass.slot_close_us = closed_at
            .iter()
            .zip(&due)
            .map(|(at, d)| (at.unwrap_or(ended) - (start + *d)).as_secs_f64() * 1e6)
            .collect();
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// One crash-and-resume pass.
    pub fn crash_pass(&mut self) -> CrashPass {
        let mut pass = CrashPass::default();
        if let Err(e) = self.try_crash_pass(&mut pass) {
            pass.error = Some(e);
        }
        pass
    }

    fn try_crash_pass(&mut self, pass: &mut CrashPass) -> Result<(), String> {
        let dir = self.pass_dir()?;
        let w = self.workload;
        let durable = Some(w.crash_durable());
        let (crash_slot, cut, prefix_lines) = crash_point(self.stream);
        pass.lines = prefix_lines;

        let spawned = Instant::now();
        let mut daemon = Daemon::spawn(
            &self.bin,
            &self.daemon_args(&dir, durable, ""),
            &dir,
            "serve",
        )?;
        pass.setup_s = (daemon.wait_listening(STARTUP_TIMEOUT)? - spawned).as_secs_f64();
        let mut conn =
            UnixStream::connect(dir.join("l.sock")).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(&self.stream.bytes[..cut])
            .map_err(|e| format!("send: {e}"))?;
        // Keep the connection open: EOF would make the daemon pad out
        // the horizon and exit cleanly instead.
        wait_logged(
            &mut daemon,
            &dir.join("a.sock"),
            &dir.join("wal"),
            crash_slot,
        )?;
        daemon.kill();
        drop(conn);
        if daemon.stderr_text().contains(BAD_LINE) {
            return Err("daemon rejected wire lines".to_owned());
        }

        let (cursor, open) = recovered_state(&dir, w.edges)?;
        let (head, tail, rest_lines) = remainder(self.stream, cursor, &open)?;
        pass.lines = prefix_lines + rest_lines;

        // Every resume but the last is killed as soon as it listens,
        // before it is sent anything, so each one recovers the same
        // checkpoint and WAL.
        let mut resumed = None;
        for k in 0..RESUMES {
            let mut args = self.daemon_args(&dir, durable, &format!("r{k}"));
            args.extend([
                "--resume".to_owned(),
                dir.join("state.ckpt").to_string_lossy().into_owned(),
            ]);
            let spawned = Instant::now();
            let mut daemon = Daemon::spawn(&self.bin, &args, &dir, &format!("resume{k}"))?;
            let listening = daemon.wait_listening(STARTUP_TIMEOUT)?;
            pass.recovery_s.push((listening - spawned).as_secs_f64());
            if k + 1 < RESUMES {
                daemon.kill();
            }
            resumed = Some(daemon);
        }
        let mut resumed = resumed.expect("at least one resume");
        let last = format!("r{}l.sock", RESUMES - 1);
        let mut conn = UnixStream::connect(dir.join(last)).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(&head)
            .and_then(|()| conn.write_all(tail))
            .map_err(|e| format!("send: {e}"))?;
        let _ = conn.shutdown(Shutdown::Write);
        let deadline = Instant::now() + PASS_TIMEOUT;
        while resumed.try_reap().is_none() {
            if Instant::now() > deadline {
                return Err("resumed daemon timed out".to_owned());
            }
            std::thread::sleep(IDLE_POLL);
        }
        self.check(&mut resumed)?;
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// Where a crash pass stops sending: `(slot, byte offset, request
/// lines before it)` — slots 0–87 and the first half of slot 88's lines
/// at the 160-slot horizon (slot `11/20` of the horizon in general).
#[must_use]
pub fn crash_point(stream: &Stream) -> (usize, usize, u64) {
    let slots = stream.counts.len();
    let slot = slots * 11 / 20;
    let half = stream.slot_lines[slot] / 2;
    let start = stream.slot_start[slot];
    let cut = match half.checked_sub(1) {
        None => start,
        Some(last) => stream.bytes[start..]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(last as usize)
            .map_or(start, |(i, _)| start + i + 1),
    };
    (
        slot,
        cut,
        stream.slot_lines[..slot].iter().sum::<u64>() + half,
    )
}

/// What the source re-sends after a crash, given the recovered next
/// slot `cursor` and the arrivals the WAL holds for it: the open slot's
/// missing requests as one line per edge plus its `slot_end` (`head`),
/// then every later slot verbatim (`tail`), and the request lines in
/// both.
///
/// # Errors
/// A message when the WAL holds more than was sent, or the run already
/// ended.
pub fn remainder<'s>(
    stream: &'s Stream,
    cursor: usize,
    open: &[u64],
) -> Result<(Vec<u8>, &'s [u8], u64), String> {
    let counts = stream
        .counts
        .get(cursor)
        .ok_or_else(|| format!("recovered slot {cursor} is past the horizon"))?;
    let mut head = Vec::new();
    let mut lines = stream.slot_lines[cursor + 1..].iter().sum::<u64>();
    for (edge, (&want, &have)) in counts.iter().zip(open).enumerate() {
        if have > want {
            return Err(format!(
                "WAL holds {have} requests for edge {edge} in slot {cursor}, only {want} were sent"
            ));
        }
        if want > have {
            head.extend_from_slice(&request_line(edge, want - have));
            lines += 1;
        }
    }
    head.extend_from_slice(SLOT_END);
    Ok((head, &stream.bytes[stream.slot_start[cursor + 1]..], lines))
}

/// Polls the admin endpoint until the daemon has closed `slot` slots and
/// its WAL has stopped growing for [`WAL_QUIET`].
fn wait_logged(
    daemon: &mut Daemon,
    admin: &Path,
    wal_dir: &Path,
    slot: usize,
) -> Result<(), String> {
    let deadline = Instant::now() + PASS_TIMEOUT;
    let mut last = (u64::MAX, Instant::now());
    loop {
        if daemon.try_reap().is_some() {
            return Err(format!(
                "daemon exited before the crash point: {}",
                daemon.stderr_text().trim()
            ));
        }
        if Instant::now() > deadline {
            return Err("daemon never reached the crash point".to_owned());
        }
        let closed = scrape(admin).ok().and_then(|p| next_slot(&p)).unwrap_or(0);
        let size = dir_bytes(wal_dir);
        if size != last.0 {
            last = (size, Instant::now());
        } else if closed as usize >= slot && last.1.elapsed() >= WAL_QUIET {
            return Ok(());
        }
        std::thread::sleep(IDLE_POLL);
    }
}

/// Total size of the files in `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What `--resume` will recover in `dir`: the next slot to serve and the
/// arrivals the WAL already holds for it.
fn recovered_state(dir: &Path, edges: usize) -> Result<(usize, Vec<u64>), String> {
    let ckpt = dir.join("state.ckpt");
    let start = if ckpt.exists() {
        Checkpoint::load(&ckpt)?.arrivals.len()
    } else {
        0
    };
    let recovery = wal::read_records(&dir.join("wal"))?;
    let tail = wal::replay(&recovery.records, edges, start as u64)?;
    Ok((start + tail.closed.len(), tail.open))
}

/// Writes each slot at its due time; returns per-slot lateness (µs) and
/// the time spent writing. Shuts the write side down after the last slot.
fn write_slots(
    conn: &mut UnixStream,
    stream: &Stream,
    due: &[Duration],
    start: Instant,
    sent: &AtomicUsize,
) -> Result<(Vec<f64>, Duration), String> {
    let mut lag_us = Vec::with_capacity(due.len());
    let mut busy = Duration::ZERO;
    for (t, d) in due.iter().enumerate() {
        let at = start + *d;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let began = Instant::now();
        lag_us.push((began - at).as_secs_f64() * 1e6);
        conn.write_all(stream.slot(t))
            .map_err(|e| format!("send slot {t}: {e}"))?;
        busy += began.elapsed();
        sent.store(t + 1, Ordering::Release);
    }
    let _ = conn.shutdown(Shutdown::Write);
    Ok((lag_us, busy))
}
