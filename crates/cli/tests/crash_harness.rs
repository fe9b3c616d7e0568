//! Chaos harness for the serve daemon: SIGKILL a live daemon at a
//! randomized point in its input stream (or abort it from an injected
//! crash point inside a WAL append / checkpoint write), recover with
//! `--resume` + `--wal`, and require the stitched run's telemetry to be
//! byte-identical to an uninterrupted reference run — at a different
//! resume `--edge-threads`, under the ci_smoke fault scenario.
//!
//! The kill points come from a seeded generator (`0xC0FFEE`; override
//! with the `CHAOS_SEED` env var). Every assertion message carries the
//! seed so a CI failure is reproducible locally.

#![cfg(unix)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use cne_core::wal;
use cne_core::Checkpoint;
use cne_util::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_carbon-edge");
const FAULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/ci_smoke.json");
const DEFAULT_CHAOS_SEED: u64 = 0xC0FFEE;
const SLOTS: usize = 12;
const EDGES: usize = 4;
const SEED: &str = "7";

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED)
}

/// splitmix64 — deterministic kill-point generator, no dependencies.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cne-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The known arrival schedule: `rows[t][e]` requests for edge `e` in
/// slot `t`. The upstream source can re-send any suffix of it, which is
/// exactly what crash recovery needs.
fn rows() -> Vec<Vec<u64>> {
    (0..SLOTS)
        .map(|t| (0..EDGES).map(|e| ((t * 7 + e * 3) % 5) as u64).collect())
        .collect()
}

/// The full wire stream: one request line per `(slot, edge)` with
/// traffic, then an explicit `slot_end` per slot.
fn full_stream() -> Vec<String> {
    let rows = rows();
    let mut lines = Vec::new();
    for row in &rows {
        for (e, &c) in row.iter().enumerate() {
            if c > 0 {
                lines.push(format!("{{\"edge\":{e},\"count\":{c}}}"));
            }
        }
        lines.push("{\"slot_end\":true}".to_owned());
    }
    lines
}

/// What the source re-sends after a crash: the open slot's missing
/// arrivals (full row minus what the WAL already acknowledged), then
/// every later slot verbatim.
fn remainder_stream(cursor: usize, open: &[u64]) -> Vec<String> {
    let rows = rows();
    let mut lines = Vec::new();
    for (t, row) in rows.iter().enumerate().skip(cursor) {
        for (e, &want) in row.iter().enumerate() {
            let have = if t == cursor { open[e] } else { 0 };
            assert!(
                have <= want,
                "WAL acknowledged {have} requests for edge {e} in slot {t}, \
                 but the source only ever sent {want}"
            );
            if want > have {
                lines.push(format!("{{\"edge\":{e},\"count\":{}}}", want - have));
            }
        }
        lines.push("{\"slot_end\":true}".to_owned());
    }
    lines
}

/// Base `serve` invocation; every run shares the deterministic knobs so
/// traces are comparable.
fn serve_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .args(["--quick", "--edges", "4", "--slots", "12"])
        .args(["--seed", SEED, "--policy", "ours", "--faults", FAULTS])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs a daemon to completion over the given lines; returns its output.
/// Each line goes out with its newline in one write, so a line of at
/// most `PIPE_BUF` bytes reaches the daemon whole inside one read.
fn run_to_completion<L: AsRef<[u8]>>(mut cmd: Command, lines: &[L]) -> Output {
    let mut child = cmd.spawn().expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in lines {
        let mut bytes = line.as_ref().to_vec();
        bytes.push(b'\n');
        // EPIPE is expected when the daemon dies mid-stream (crash
        // injection) or finishes its horizon early.
        if stdin.write_all(&bytes).is_err() {
            break;
        }
    }
    drop(stdin);
    child.wait_with_output().expect("wait")
}

/// The uninterrupted reference run's telemetry bytes.
fn reference_trace(dir: &Path) -> Vec<u8> {
    let out = dir.join("ref.jsonl");
    let output = run_to_completion(
        serve_cmd(&["--telemetry", out.to_str().expect("utf-8 path")]),
        &full_stream(),
    );
    assert!(
        output.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read(&out).expect("reference telemetry")
}

/// Feeds `kill_after` lines to a daemon, waits for its WAL to stop
/// growing (it has durably acknowledged everything it will), then
/// SIGKILLs it. The stdin pipe stays open throughout — EOF would make
/// the daemon pad out the horizon and exit cleanly instead.
fn run_and_kill(mut cmd: Command, lines: &[String], kill_after: usize, waldir: &Path) {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in &lines[..kill_after] {
        writeln!(stdin, "{line}").expect("write stream");
    }
    stdin.flush().expect("flush stream");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = usize::MAX;
    let mut stable = 0;
    while Instant::now() < deadline && stable < 4 {
        std::thread::sleep(Duration::from_millis(75));
        let n = wal::read_records(waldir).map_or(0, |r| r.records.len());
        if n == last && n > 0 {
            stable += 1;
        } else {
            stable = 0;
            last = n;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(stdin);
}

/// Reconstructs the recovered cursor the same way `--resume` will: the
/// checkpoint's covered prefix plus the WAL tail's closed slots, and
/// the open slot's acknowledged arrivals.
fn recovered_state(ckpt: &Path, waldir: &Path) -> (usize, Vec<u64>) {
    let start = if ckpt.exists() {
        Checkpoint::load(ckpt)
            .expect("readable checkpoint")
            .arrivals
            .len()
    } else {
        0
    };
    let recovery = wal::read_records(waldir).expect("scan WAL");
    let tail = wal::replay(&recovery.records, EDGES, start as u64).expect("replay");
    (start + tail.closed.len(), tail.open)
}

/// Resumes a crashed run and returns `(daemon output, telemetry bytes)`.
fn resume_run(dir: &Path, waldir: &Path, ckpt: &Path, edge_threads: &str) -> (Output, Vec<u8>) {
    let (cursor, open) = recovered_state(ckpt, waldir);
    assert!(cursor < SLOTS, "daemon was killed after its horizon");
    let out = dir.join(format!("resume-{edge_threads}.jsonl"));
    let output = run_to_completion(
        serve_cmd(&[
            "--resume",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "3",
            "--wal",
            waldir.to_str().expect("utf-8 path"),
            "--edge-threads",
            edge_threads,
            "--telemetry",
            out.to_str().expect("utf-8 path"),
        ]),
        &remainder_stream(cursor, &open),
    );
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (output, std::fs::read(&out).expect("resumed telemetry"))
}

/// The `serve_start` banner's `zoo` field: `"snapshot"` when the
/// daemon loaded its zoo, `"trained"` when it trained it.
fn zoo_source(stderr: &str) -> String {
    let banner = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"serve_start\""))
        .unwrap_or_else(|| panic!("no serve_start banner in {stderr}"));
    let banner = cne_util::json::parse(banner).expect("the banner is JSON");
    banner
        .get("zoo")
        .and_then(Json::as_str)
        .expect("the banner names the zoo's source")
        .to_owned()
}

/// Asserts that a resumed daemon loaded the zoo snapshot instead of
/// retraining.
fn assert_loaded_snapshot(resumed: &Output, context: &str) {
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(zoo_source(&stderr), "snapshot", "{context}: {stderr}");
    assert!(
        !stderr.contains("training the") && !stderr.contains("zoo_snapshot_rejected"),
        "{context}: the resumed daemon retrained: {stderr}"
    );
}

/// SIGKILL at seeded random stream offsets, across fsync policies and
/// resume edge-thread counts: recovery is always byte-identical to the
/// uninterrupted run, and loads the zoo snapshot instead of retraining.
#[test]
fn sigkill_recovery_is_bit_identical() {
    let seed = chaos_seed();
    let mut rng = seed;
    eprintln!("chaos seed   : {seed:#x} (override with CHAOS_SEED)");
    let lines = full_stream();

    // (wal_sync, resume edge threads)
    let grid = [("every", "4"), ("slot", "1"), ("off", "4")];
    for (i, (wal_sync, threads)) in grid.into_iter().enumerate() {
        let dir = temp_dir(&format!("kill{i}"));
        let reference = reference_trace(&dir);
        let waldir = dir.join("wal");
        let ckpt = dir.join("state.ckpt");
        let kill_after = 1 + (next_rand(&mut rng) as usize) % (lines.len() - 1);
        run_and_kill(
            serve_cmd(&[
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "3",
                "--wal",
                waldir.to_str().expect("utf-8 path"),
                "--wal-sync",
                wal_sync,
                "--telemetry",
                dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
            ]),
            &lines,
            kill_after,
            &waldir,
        );
        let (resumed, trace) = resume_run(&dir, &waldir, &ckpt, threads);
        let context = format!(
            "SIGKILL at line {kill_after} (chaos seed {seed:#x}, wal-sync={wal_sync}, \
             resume threads {threads})"
        );
        assert_loaded_snapshot(&resumed, &context);
        assert_eq!(trace, reference, "telemetry diverged after {context}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// SIGKILL immediately after a group-committed burst: a batch of
/// request lines delivered as one pipe write lands in the WAL as a
/// single `ArrivalSums` record of per-edge sums (the group commit must
/// actually happen, not degrade to per-line appends), the surviving
/// log is a clean record prefix, and resuming from it reproduces the
/// reference telemetry byte-for-byte.
#[test]
fn group_commit_burst_survives_sigkill() {
    let dir = temp_dir("group-commit");
    let reference = reference_trace(&dir);
    let waldir = dir.join("wal");
    let ckpt = dir.join("state.ckpt");

    // Slot 0 complete, then slot 1's request burst with no slot_end:
    // the daemon is killed with slot 1 open but its burst durably
    // acknowledged as one coalesced record.
    let lines = full_stream();
    let open_requests = rows()[1].iter().filter(|&&c| c > 0).count();
    let kill_after = lines
        .iter()
        .position(|l| l.contains("slot_end"))
        .expect("slot 0 end")
        + 1
        + open_requests;
    let burst = lines[..kill_after].join("\n") + "\n";

    let mut child = serve_cmd(&[
        "--checkpoint",
        ckpt.to_str().expect("utf-8 path"),
        "--checkpoint-every",
        "3",
        "--wal",
        waldir.to_str().expect("utf-8 path"),
        "--wal-sync",
        "every",
        "--telemetry",
        dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    // One write syscall: the whole burst reaches the block reader as a
    // single chunk, so the daemon must coalesce it into one record.
    stdin.write_all(burst.as_bytes()).expect("write burst");
    stdin.flush().expect("flush burst");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = usize::MAX;
    let mut stable = 0;
    while Instant::now() < deadline && stable < 4 {
        std::thread::sleep(Duration::from_millis(75));
        let n = wal::read_records(&waldir).map_or(0, |r| r.records.len());
        if n == last && n > 0 {
            stable += 1;
        } else {
            stable = 0;
            last = n;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(stdin);

    // The surviving log is a readable prefix and the burst was group
    // committed: at least one ArrivalSums record covers several lines,
    // with at most one pair per edge.
    let recovery = wal::read_records(&waldir).expect("clean WAL prefix after SIGKILL");
    assert!(
        recovery.records.iter().any(|r| matches!(
            r,
            wal::WalRecord::ArrivalSums { lines, pairs, .. }
                if *lines > 1 && pairs.windows(2).all(|w| w[0].0 < w[1].0)
        )),
        "burst was not group committed: {:?}",
        recovery.records
    );
    let tail = wal::replay(&recovery.records, EDGES, 0).expect("replay");
    assert_eq!(
        tail.open_lines, open_requests as u64,
        "group-committed record must replay per-line accounting"
    );

    let (resumed, trace) = resume_run(&dir, &waldir, &ckpt, "4");
    assert_loaded_snapshot(&resumed, "SIGKILL mid group-committed burst");
    assert_eq!(
        trace, reference,
        "telemetry diverged after SIGKILL mid group-committed burst"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected crash points inside the storage layer itself — a torn WAL
/// append, a torn checkpoint temp file, a fully written but un-renamed
/// checkpoint, a torn zoo snapshot temp file — all recover
/// bit-identically, and the torn WAL tail is reported (then truncated),
/// never a panic. Only the torn snapshot makes the resume retrain.
#[test]
fn injected_crash_points_recover_bit_identically() {
    let cases = [
        ("wal-torn-append:5", true),
        ("ckpt-torn-tmp:1", false),
        ("ckpt-pre-rename:2", false),
        ("zoo-torn-tmp:1", false),
    ];
    for (spec, expect_torn) in cases {
        let tag = spec.split(':').next().expect("point");
        let dir = temp_dir(tag);
        let reference = reference_trace(&dir);
        let waldir = dir.join("wal");
        let ckpt = dir.join("state.ckpt");
        let mut cmd = serve_cmd(&[
            "--checkpoint",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "3",
            "--wal",
            waldir.to_str().expect("utf-8 path"),
            "--telemetry",
            dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
        ]);
        cmd.env("CARBON_EDGE_CRASH", spec);
        let output = run_to_completion(cmd, &full_stream());
        assert!(!output.status.success(), "{spec} must abort the daemon");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("\"event\":\"crash_injected\""),
            "{spec}: missing crash event in {stderr}"
        );

        let (resumed, trace) = resume_run(&dir, &waldir, &ckpt, "4");
        let resumed_err = String::from_utf8_lossy(&resumed.stderr);
        if expect_torn {
            assert!(
                resumed_err.contains("\"event\":\"wal_torn_tail\""),
                "{spec}: torn tail not reported in {resumed_err}"
            );
        }
        if tag == "zoo-torn-tmp" {
            assert_eq!(zoo_source(&resumed_err), "trained", "{spec}");
            assert_eq!(
                snapshot_rejections(&resumed_err),
                ["missing"],
                "{spec}: {resumed_err}"
            );
        } else {
            assert_loaded_snapshot(&resumed, spec);
        }
        assert_eq!(trace, reference, "telemetry diverged after {spec}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The `kind` of every `zoo_snapshot_rejected` stderr event, in order.
fn snapshot_rejections(stderr: &str) -> Vec<String> {
    stderr
        .lines()
        .filter(|l| l.contains("\"event\":\"zoo_snapshot_rejected\""))
        .map(|l| {
            let event = cne_util::json::parse(l).expect("rejection events are JSON");
            event
                .get("kind")
                .and_then(Json::as_str)
                .expect("kind")
                .to_owned()
        })
        .collect()
}

/// A zoo snapshot with one flipped byte is rejected — one structured
/// event — and the resumed daemon retrains, serves the reference trace
/// and rewrites the snapshot byte-for-byte as the fresh start wrote it.
#[test]
fn corrupt_zoo_snapshot_is_rejected_and_retrained() {
    let dir = temp_dir("zoo-flip");
    let reference = reference_trace(&dir);
    let waldir = dir.join("wal");
    let ckpt = dir.join("state.ckpt");
    let snapshot = dir.join("state.ckpt.zoo");
    let lines = full_stream();
    run_and_kill(
        serve_cmd(&[
            "--checkpoint",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "3",
            "--wal",
            waldir.to_str().expect("utf-8 path"),
            "--telemetry",
            dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
        ]),
        &lines,
        lines.len() / 2,
        &waldir,
    );

    let written = std::fs::read(&snapshot).expect("the fresh daemon wrote its zoo snapshot");
    let mut flipped = written.clone();
    flipped[written.len() / 2] ^= 0x40;
    std::fs::write(&snapshot, &flipped).expect("flip a byte");
    let (resumed, trace) = resume_run(&dir, &waldir, &ckpt, "1");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(snapshot_rejections(&stderr), ["corrupt"], "{stderr}");
    assert!(stderr.contains("training the"), "{stderr}");
    assert_eq!(zoo_source(&stderr), "trained");
    assert_eq!(trace, reference, "telemetry diverged after a retrain");
    assert!(
        std::fs::read(&snapshot).expect("rewritten snapshot") == written,
        "the retrained zoo must replace the corrupt snapshot with identical bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Startup refusals: a fresh (non-`--resume`) start refuses to clobber
/// a WAL directory that still holds a previous run's segments, and a
/// horizon past the workload trace is one error line before any zoo
/// training, not a panic.
#[test]
fn fresh_start_refuses_existing_wal() {
    let dir = temp_dir("clobber");
    let waldir = dir.join("wal");
    let (mut handle, _) = wal::Wal::open(&waldir, wal::WalOptions::default()).expect("seed WAL");
    handle
        .append(&wal::WalRecord::SlotClose { slot: 0 })
        .expect("append");
    drop(handle);

    let output = run_to_completion(
        serve_cmd(&["--wal", waldir.to_str().expect("utf-8 path")]),
        &[] as &[String],
    );
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("already holds WAL segments"),
        "missing clobber refusal in {stderr}"
    );

    let output = run_to_completion(serve_cmd(&["--slots", "41"]), &[] as &[String]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        stderr,
        "error: horizon exceeds the workload trace (41 > 40)\n"
    );
    assert!(!stderr.contains("panicked") && !stderr.contains("training the"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `(offset, reason)` of every `bad_line` stderr event, in order.
fn bad_line_events(stderr: &str) -> Vec<(u64, String)> {
    stderr
        .lines()
        .filter(|l| l.contains("\"event\":\"bad_line\""))
        .map(|l| {
            let event = cne_util::json::parse(l).expect("bad_line events are JSON");
            (
                event.get("offset").and_then(Json::as_u64).expect("offset"),
                event
                    .get("reason")
                    .and_then(Json::as_str)
                    .expect("reason")
                    .to_owned(),
            )
        })
        .collect()
}

/// Hostile wire input end-to-end, through every reject source:
/// malformed JSON and bad field values (strict decoder), raw non-UTF-8
/// bytes, an oversized line that arrives whole inside one read (the
/// serve loop's length check), and one that spans read chunks (the
/// transport reader's discard mode). Garbage within the
/// `--max-bad-lines` budget is rejected line by line, each with its
/// reason and absolute stream offset, without touching the
/// deterministic run; a blown budget kills the daemon with a
/// structured error naming the exact rejected count.
#[test]
fn bad_line_budget_is_enforced_end_to_end() {
    const MAX_LINE: usize = 64;
    let strict = |line: &str| cne_core::wire::decode_strict(line, EDGES).unwrap_err();
    let oversize =
        |len: usize| format!("line exceeds --max-line-bytes {MAX_LINE} ({len} bytes discarded)");
    // A well-formed request padded past the cap: accepting it would
    // change the trace.
    let mut in_block = b"{\"edge\":0,\"count\":9}".to_vec();
    in_block.resize(100, b' ');
    let spanning = vec![b'x'; 256 * 1024 + 1000];
    let garbage: Vec<(Vec<u8>, String)> = vec![
        (
            b"### not json at all".to_vec(),
            strict("### not json at all"),
        ),
        (
            b"{\"edge\": \"zero\"}".to_vec(),
            strict("{\"edge\": \"zero\"}"),
        ),
        (
            b"{\"edge\": 0, \"count\": -3}".to_vec(),
            strict("{\"edge\": 0, \"count\": -3}"),
        ),
        (
            vec![0xFF, 0xFE, b'{', 0xFF],
            "non-UTF-8 line (4 bytes)".to_owned(),
        ),
        (in_block, oversize(100)),
        (spanning.clone(), oversize(spanning.len())),
    ];
    let max_line = MAX_LINE.to_string();

    // Within budget: the run completes and matches the clean reference.
    let dir = temp_dir("budget-ok");
    let reference = reference_trace(&dir);
    let mut lines: Vec<Vec<u8>> = full_stream().into_iter().map(String::into_bytes).collect();
    let mut expected = Vec::new();
    for (i, (line, reason)) in garbage.iter().enumerate() {
        let at = i * 7;
        lines.insert(at, line.clone());
        let offset: usize = lines[..at].iter().map(|l| l.len() + 1).sum();
        expected.push((offset as u64, reason.clone()));
    }
    let out = dir.join("noisy.jsonl");
    let output = run_to_completion(
        serve_cmd(&[
            "--max-line-bytes",
            &max_line,
            "--telemetry",
            out.to_str().expect("utf-8 path"),
        ]),
        &lines,
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "in-budget garbage must not kill the daemon: {stderr}"
    );
    assert_eq!(
        bad_line_events(&stderr),
        expected,
        "every rejection is logged with its reason and stream offset"
    );
    assert_eq!(
        std::fs::read(&out).expect("telemetry"),
        reference,
        "garbage lines leaked into the deterministic trace"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Blown budget, with each reject source as the line that blows it:
    // a structured fatal error, not a hang or a panic.
    for (line, reason) in &garbage[2..] {
        let mut lines: Vec<Vec<u8>> = garbage[..2].iter().map(|(g, _)| g.clone()).collect();
        lines.push(line.clone());
        lines.extend(full_stream().into_iter().map(String::into_bytes));
        let output = run_to_completion(
            serve_cmd(&["--max-line-bytes", &max_line, "--max-bad-lines", "2"]),
            &lines,
        );
        assert!(
            !output.status.success(),
            "budget must be fatal after {reason}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            bad_line_events(&stderr).last().map(|(_, r)| r),
            Some(reason),
            "{stderr}"
        );
        assert!(
            stderr.contains("too many bad wire lines (3 rejected, --max-bad-lines 2)"),
            "missing budget error in {stderr}"
        );
    }
}

/// A persistently failing checkpoint path flips the daemon into
/// degraded-durability mode (structured event, retries logged) but the
/// run itself keeps serving and still produces the reference trace.
#[test]
fn persistent_checkpoint_failure_degrades_but_serves() {
    let dir = temp_dir("degraded");
    let reference = reference_trace(&dir);
    let out = dir.join("degraded.jsonl");
    let ckpt = dir.join("no-such-dir").join("state.ckpt");
    let output = run_to_completion(
        serve_cmd(&[
            "--checkpoint",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "6",
            "--telemetry",
            out.to_str().expect("utf-8 path"),
        ]),
        &full_stream(),
    );
    assert!(
        output.status.success(),
        "a durability failure must not kill the run: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("\"event\":\"checkpoint_retry\""),
        "retries must be logged: {stderr}"
    );
    assert!(
        stderr.contains("\"event\":\"durability_degraded\""),
        "degradation must be announced: {stderr}"
    );
    assert_eq!(
        std::fs::read(&out).expect("telemetry"),
        reference,
        "degraded mode leaked into the deterministic trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}
