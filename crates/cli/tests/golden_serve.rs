//! Golden digests of one durable `carbon-edge serve` session, end to
//! end through the binary: a run from a file on stdin with WAL,
//! periodic checkpoints and telemetry, halted with `--halt-at-slot`;
//! a resume of it that dies inside a WAL append; and a resume of that
//! from the last checkpoint plus the WAL tail. Stdout (paths stripped),
//! checkpoint bytes, WAL records, the replayed tail and the final trace
//! are pinned in `tests/golden/digests.tsv` at the workspace root.

#![cfg(unix)]

#[path = "../../../tests/golden/table.rs"]
mod table;

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use cne_core::wal;
use cne_core::Checkpoint;
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::SeedSequence;

const BIN: &str = env!("CARGO_BIN_EXE_carbon-edge");
const TABLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/digests.tsv"
);
const FAULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/ci_smoke.json");
const EDGES: usize = 4;
const SLOTS: usize = 40;
const HALT: usize = 20;

/// Per-slot arrivals: `gen-arrivals diurnal --edges 4 --seed 3`, plus
/// the two requests of the non-canonical line slot 0 carries.
fn rows() -> Vec<Vec<u64>> {
    let gen = ArrivalGen::new(
        ArrivalProcess::Diurnal,
        EDGES,
        16,
        120.0,
        &SeedSequence::new(3),
    );
    let mut rows: Vec<Vec<u64>> = (0..SLOTS).map(|t| gen.slot(t)).collect();
    rows[0][1] += 2;
    rows
}

/// The wire stream from slot `from` on; `open` is what the WAL already
/// acknowledged for slot `from`. Slot 0 also carries a key-reordered
/// line (the strict decoder's) and a blank line.
fn stream(rows: &[Vec<u64>], from: usize, open: &[u64]) -> Vec<u8> {
    let mut text = String::new();
    if from == 0 {
        text.push_str("{ \"count\": 2, \"edge\": 1 }\n\n");
    }
    for (t, row) in rows.iter().enumerate().skip(from) {
        for (e, &want) in row.iter().enumerate() {
            let have = if t == from { open[e] } else { 0 };
            let have = have + u64::from(t == 0 && e == 1) * 2;
            if want > have {
                text.push_str(&format!("{{\"edge\":{e},\"count\":{}}}\n", want - have));
            }
        }
        text.push_str("{\"slot_end\":true}\n");
    }
    text.into_bytes()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cne-golden-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `serve` over `input` (a file on stdin); returns whether it
/// exited cleanly and its stdout with `dir` replaced by `DIR`.
fn serve(dir: &Path, input: &[u8], extra: &[&str], crash: Option<&str>) -> (bool, String) {
    let path = dir.join("input.jsonl");
    std::fs::write(&path, input).expect("write input");
    let d = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .args(["--quick", "--edges", "4", "--slots", "40", "--seed", "7"])
        .args(["--policy", "ours", "--faults", FAULTS])
        .args(["--wal", &d("wal"), "--checkpoint", &d("state.ckpt")])
        .args(["--checkpoint-every", "7", "--telemetry", &d("trace.jsonl")])
        .args(extra)
        .env_remove(cne_core::crashpoint::ENV_VAR)
        .stdin(File::open(&path).expect("open input"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(point) = crash {
        cmd.env(cne_core::crashpoint::ENV_VAR, point);
    }
    let out = cmd.output().expect("run serve");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (
        out.status.success(),
        stdout.replace(dir.to_str().expect("utf-8 path"), "DIR"),
    )
}

#[test]
fn halted_crashed_and_recovered_serve_session() {
    let dir = temp_dir();
    let rows = rows();
    let ckpt = dir.join("state.ckpt");
    let waldir = dir.join("wal");
    let resume = ["--resume", ckpt.to_str().expect("utf-8 path")];
    let mut out = Vec::new();
    let mut pin = |name: &str, bytes: &[u8]| out.push((name.to_owned(), table::digest(bytes)));
    let wal_records = || {
        format!(
            "{:?}",
            wal::read_records(&waldir).expect("scan WAL").records
        )
    };

    let (ok, stdout) = serve(
        &dir,
        &stream(&rows, 0, &[0; EDGES]),
        &["--halt-at-slot", "20"],
        None,
    );
    assert!(ok, "halted run failed:\n{stdout}");
    pin("serve_cli/halt/stdout", stdout.as_bytes());
    pin(
        "serve_cli/halt/checkpoint",
        &std::fs::read(&ckpt).expect("checkpoint"),
    );
    pin("serve_cli/halt/wal", wal_records().as_bytes());

    // Resume, then die tearing the 13th WAL append: slot 26's sums.
    let (ok, stdout) = serve(
        &dir,
        &stream(&rows, HALT, &[0; EDGES]),
        &resume,
        Some("wal-torn-append:13"),
    );
    assert!(!ok, "the armed crash point must abort the daemon");
    pin("serve_cli/crash/stdout", stdout.as_bytes());
    pin(
        "serve_cli/crash/checkpoint",
        &std::fs::read(&ckpt).expect("checkpoint"),
    );
    pin("serve_cli/crash/wal", wal_records().as_bytes());

    // Recover from the last checkpoint plus the WAL tail.
    let start = Checkpoint::load(&ckpt).expect("checkpoint").arrivals.len();
    let scan = wal::read_records(&waldir).expect("scan WAL");
    let tail = wal::replay(&scan.records, EDGES, start as u64).expect("replay");
    pin("serve_cli/recover/tail", format!("{tail:?}").as_bytes());
    let cursor = start + tail.closed.len();
    let (ok, stdout) = serve(&dir, &stream(&rows, cursor, &tail.open), &resume, None);
    assert!(ok, "recovered run failed:\n{stdout}");
    pin("serve_cli/recover/stdout", stdout.as_bytes());
    pin(
        "serve_cli/recover/checkpoint",
        &std::fs::read(&ckpt).expect("checkpoint"),
    );
    pin("serve_cli/recover/wal", wal_records().as_bytes());
    pin(
        "serve_cli/recover/trace",
        &std::fs::read(dir.join("trace.jsonl")).expect("trace"),
    );

    table::check(Path::new(TABLE), &out);
    std::fs::remove_dir_all(&dir).ok();
}
