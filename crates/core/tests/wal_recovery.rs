//! Recovery-equivalence contract of the arrival WAL: a run cut off at
//! *any* byte of its log — frame boundaries, torn mid-frame tails,
//! before or after a checkpoint install — and recovered the way
//! `serve --resume` recovers (`SlotLoop::recover`: checkpoint, then
//! `Wal::open` → `replay` → `ServeSession::apply_wal_tail`) finishes
//! bit-identically to the uninterrupted run, at any resume edge-thread
//! count, under a mixed fault scenario. Every log here is written by
//! the daemon's own loop from wire bytes.

use std::path::{Path, PathBuf};

use cne_core::daemon::{DaemonOptions, SlotLoop};
use cne_core::wal::{self, WalRecord};
use cne_core::{Checkpoint, Combo, ServeOptions, ServeOutcome, ServeSession};
use cne_edgesim::{RunRecord, SimConfig};
use cne_faults::FaultScenario;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_simdata::workload::DiurnalWorkload;
use cne_util::SeedSequence;

const SEED: u64 = 11;

fn setup() -> (ModelZoo, SimConfig) {
    let zoo = ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::fast(),
        &SeedSequence::new(20),
    );
    let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
    cfg.faults = Some(FaultScenario::mixed("mixed-20", 0.2));
    (zoo, cfg)
}

fn raw_arrivals(cfg: &SimConfig, seed: u64) -> Vec<Vec<u64>> {
    let env_seed = SeedSequence::new(seed).derive("env");
    let gen = DiurnalWorkload::new(cfg.workload);
    (0..cfg.num_edges)
        .map(|i| gen.trace(i, &env_seed.derive("workload")).counts().to_vec())
        .collect()
}

fn slot_row(arrivals: &[Vec<u64>], t: usize) -> Vec<u64> {
    arrivals.iter().map(|row| row[t]).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cne-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn serve_opts(edge_threads: usize) -> ServeOptions {
    ServeOptions {
        edge_threads,
        telemetry: true,
        ..ServeOptions::default()
    }
}

/// The daemon's options over the WAL in `dir`; `resume` continues
/// from `dir/state.ckpt`, or from the WAL alone while it is missing.
fn daemon_opts(dir: &Path, resume: bool) -> DaemonOptions {
    let path = |name: &str| Some(dir.join(name).to_str().expect("utf-8 path").to_owned());
    DaemonOptions {
        seed: SEED,
        resume: if resume { path("state.ckpt") } else { None },
        wal: path("wal"),
        max_line_bytes: 1024,
        ..DaemonOptions::default()
    }
}

/// Starts (or recovers) the daemon's loop over `opts`.
fn daemon<'z>(
    zoo: &'z ModelZoo,
    cfg: &SimConfig,
    opts: DaemonOptions,
    edge_threads: usize,
) -> SlotLoop<'z> {
    let checkpoint = opts.resume_checkpoint().expect("readable checkpoint");
    SlotLoop::recover(
        cfg.clone(),
        zoo,
        Combo::ours(),
        checkpoint.as_ref(),
        &serve_opts(edge_threads),
        opts,
    )
    .expect("recover")
}

/// Slot `t`'s wire lines as `gen-arrivals` writes them (one per edge
/// with traffic beyond what `acked` already holds), then its `slot_end`.
fn slot_block(arrivals: &[Vec<u64>], t: usize, acked: &[u64]) -> Vec<u8> {
    let mut block = String::new();
    for (edge, row) in arrivals.iter().enumerate() {
        if row[t] > acked[edge] {
            block.push_str(&format!(
                "{{\"edge\":{edge},\"count\":{}}}\n",
                row[t] - acked[edge]
            ));
        }
    }
    block.push_str("{\"slot_end\":true}\n");
    block.into_bytes()
}

/// Feeds each of `slots` to the loop as one block of wire bytes.
fn feed(daemon: &mut SlotLoop<'_>, arrivals: &[Vec<u64>], slots: std::ops::Range<usize>) {
    let none = vec![0; arrivals.len()];
    for t in slots {
        let halted = daemon
            .ingest(&slot_block(arrivals, t, &none), 0)
            .expect("ingest");
        assert!(!halted);
    }
}

/// The record and trace of a finished run.
fn outcome(out: ServeOutcome) -> (RunRecord, String) {
    let trace = out.telemetry.expect("telemetry on").to_jsonl_string();
    (out.record, trace)
}

/// Uninterrupted reference run, straight through the session.
fn reference(zoo: &ModelZoo, cfg: &SimConfig, arrivals: &[Vec<u64>]) -> (RunRecord, String) {
    let mut session = ServeSession::new(cfg.clone(), zoo, SEED, Combo::ours(), &serve_opts(1));
    for t in 0..cfg.horizon {
        session.push_slot(&slot_row(arrivals, t));
    }
    outcome(session.finish())
}

/// A daemon that logged every slot of the run into `dir/wal`.
fn log_whole_run(zoo: &ModelZoo, cfg: &SimConfig, arrivals: &[Vec<u64>], dir: &Path) {
    let mut head = daemon(zoo, cfg, daemon_opts(dir, false), 1);
    feed(&mut head, arrivals, 0..cfg.horizon);
}

/// Recovers from whatever `dir` holds (checkpoint, WAL or both), has
/// the upstream source re-send what the WAL never acknowledged, and
/// returns the finished run.
fn recover_and_finish(
    zoo: &ModelZoo,
    cfg: &SimConfig,
    arrivals: &[Vec<u64>],
    dir: &Path,
    edge_threads: usize,
) -> (RunRecord, String) {
    let mut daemon = daemon(zoo, cfg, daemon_opts(dir, true), edge_threads);
    // The recovered cursor is the checkpoint's slot plus the closed
    // slots of the WAL tail.
    let start = Checkpoint::load(&dir.join("state.ckpt")).map_or(0, |c| c.arrivals.len());
    let records = wal::read_records(&dir.join("wal")).expect("scan").records;
    let tail = wal::replay(&records, cfg.num_edges, start as u64).expect("replay");
    let cursor = daemon.session().next_slot();
    assert_eq!(cursor, start + tail.closed.len());
    if cursor < cfg.horizon {
        // The open slot's recovered arrivals must be a sub-accumulation
        // of the true row; the source re-sends only the difference.
        let acked = tail.open;
        let row = slot_row(arrivals, cursor);
        for (e, &seen) in acked.iter().enumerate() {
            assert!(
                seen <= row[e],
                "recovered open-slot count {seen} exceeds the true row {} (edge {e})",
                row[e]
            );
        }
        daemon
            .ingest(&slot_block(arrivals, cursor, &acked), 0)
            .expect("ingest");
        feed(&mut daemon, arrivals, cursor + 1..cfg.horizon);
    }
    outcome(daemon.finish().expect("finish"))
}

/// A full WAL replayed from slot 0 reconstructs the run byte-for-byte
/// at 1 and 4 edge threads.
#[test]
fn full_wal_replay_is_bit_identical() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let dir = temp_dir("full");
    log_whole_run(&zoo, &cfg, &arrivals, &dir);
    let (ref_record, ref_trace) = reference(&zoo, &cfg, &arrivals);
    for edge_threads in [1usize, 4] {
        let (record, trace) = recover_and_finish(&zoo, &cfg, &arrivals, &dir, edge_threads);
        assert_eq!(
            record, ref_record,
            "record diverged ({edge_threads} edge threads)"
        );
        assert_eq!(
            trace, ref_trace,
            "trace diverged ({edge_threads} edge threads)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cuts the log at a spread of byte offsets — frame boundaries and torn
/// mid-frame tails — and checks every recovery reproduces the reference
/// run exactly. Mid-frame cuts must be reported (and truncated), never
/// a panic or a silent divergence.
#[test]
fn every_truncation_point_recovers_bit_identically() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);

    // Byte image of the single segment the daemon wrote.
    let src = temp_dir("cutsrc");
    log_whole_run(&zoo, &cfg, &arrivals, &src);
    let seg_name = "wal-00000001.log";
    let full = std::fs::read(src.join("wal").join(seg_name)).expect("read segment");
    let records = wal::read_records(&src.join("wal")).expect("scan").records;
    std::fs::remove_dir_all(&src).ok();

    // Cumulative frame-boundary offsets.
    let boundaries: Vec<usize> = records
        .iter()
        .scan(0usize, |acc, r| {
            // frame = len(4) + crc(4) + payload
            let payload = match r {
                WalRecord::Arrivals { pairs, .. } => 1 + 8 + 4 + 16 * pairs.len(),
                WalRecord::ArrivalSums { pairs, .. } => 1 + 8 + 8 + 4 + 16 * pairs.len(),
                WalRecord::SlotClose { .. } | WalRecord::CheckpointInstalled { .. } => 1 + 8,
            };
            *acc += 8 + payload;
            Some(*acc)
        })
        .collect();
    assert_eq!(*boundaries.last().expect("frames"), full.len());

    // Sampled cuts: ~12 frame boundaries spread over the log, plus a
    // torn cut inside the frame that follows each (3 bytes into its
    // header) and one inside its own payload.
    let step = (boundaries.len() / 12).max(1);
    let mut cuts: Vec<usize> = vec![0];
    for (i, &b) in boundaries.iter().enumerate() {
        if i % step == 0 || i + 1 == boundaries.len() {
            cuts.push(b);
            cuts.push(b + 3); // torn header of the next frame
            cuts.push(b.saturating_sub(5)); // torn payload of this frame
        }
    }
    cuts.retain(|&c| c <= full.len());
    cuts.sort_unstable();
    cuts.dedup();

    let (ref_record, ref_trace) = reference(&zoo, &cfg, &arrivals);
    for &cut in &cuts {
        let dir = temp_dir("cut");
        std::fs::create_dir_all(dir.join("wal")).expect("wal dir");
        std::fs::write(dir.join("wal").join(seg_name), &full[..cut]).expect("write cut");
        if cut > 0 && !boundaries.contains(&cut) {
            let scan = wal::read_records(&dir.join("wal")).expect("scan");
            assert!(scan.torn.is_some(), "mid-frame cut at {cut} must be torn");
        }
        let (record, trace) = recover_and_finish(&zoo, &cfg, &arrivals, &dir, 1);
        assert_eq!(record, ref_record, "record diverged at cut {cut}");
        assert_eq!(trace, ref_trace, "trace diverged at cut {cut}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Checkpoint + WAL tail: a crash after a durable checkpoint install
/// (which garbage-collects the covered prefix) recovers from the
/// checkpoint and the surviving tail alone — bit-identical at 1 and 4
/// resume edge threads, including when the tail ends mid-slot.
#[test]
fn checkpoint_plus_wal_tail_resumes_bit_identically() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let horizon = cfg.horizon;
    let k = horizon / 2; // checkpoint slot
    let m = k + horizon / 4 + 1; // slots fully logged past the checkpoint
    assert!(m < horizon);

    let (ref_record, ref_trace) = reference(&zoo, &cfg, &arrivals);

    for edge_threads in [1usize, 4] {
        // The daemon checkpoints at slot k, logs up to slot m, and takes
        // a block holding only part of slot m — the first edge with
        // traffic and a zero-count line — before the "crash".
        let dir = temp_dir("ckpt");
        let mut opts = daemon_opts(&dir, false);
        opts.checkpoint = Some(dir.join("state.ckpt").to_string_lossy().into_owned());
        opts.checkpoint_every = Some(k);
        let mut head = daemon(&zoo, &cfg, opts, 1);
        feed(&mut head, &arrivals, 0..m);
        let edge = (0..cfg.num_edges)
            .find(|&e| arrivals[e][m] > 0)
            .unwrap_or(0);
        let partial = format!(
            "{{\"edge\":{edge},\"count\":{}}}\n{{\"edge\":{edge},\"count\":0}}\n",
            arrivals[edge][m]
        );
        assert!(!head.ingest(partial.as_bytes(), 0).expect("ingest"));
        drop(head);

        let records = wal::read_records(&dir.join("wal")).expect("scan").records;
        let tail = wal::replay(&records, cfg.num_edges, k as u64).expect("replay");
        assert_eq!(tail.start_slot as usize, k);
        assert_eq!(tail.closed.len(), m - k);
        assert_eq!(tail.open_lines, 2, "both logged lines of slot {m}");

        let (record, trace) = recover_and_finish(&zoo, &cfg, &arrivals, &dir, edge_threads);
        assert_eq!(
            record, ref_record,
            "record diverged ({edge_threads} edge threads)"
        );
        assert_eq!(
            trace, ref_trace,
            "trace diverged ({edge_threads} edge threads)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A tail that does not continue the checkpoint is refused — wrong
/// start slot, too many closed slots, wrong fleet width.
#[test]
fn apply_wal_tail_rejects_inconsistent_tails() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let opts = serve_opts(1);
    let mut session = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
    for t in 0..3 {
        session.push_slot(&slot_row(&arrivals, t));
    }

    let records = vec![
        WalRecord::Arrivals {
            slot: 5,
            pairs: vec![(0, 1)],
        },
        WalRecord::SlotClose { slot: 5 },
    ];
    let tail = wal::replay(&records, cfg.num_edges, 5).expect("replay");
    let err = session.apply_wal_tail(&tail).unwrap_err();
    assert!(err.contains("does not continue"), "{err}");

    let long: Vec<WalRecord> = (0..cfg.horizon as u64)
        .map(|t| WalRecord::SlotClose { slot: 3 + t })
        .collect();
    let tail = wal::replay(&long, cfg.num_edges, 3).expect("replay");
    let err = session.apply_wal_tail(&tail).unwrap_err();
    assert!(err.contains("horizon"), "{err}");

    let narrow =
        wal::replay(&[WalRecord::SlotClose { slot: 3 }], cfg.num_edges - 1, 3).expect("replay");
    let err = session.apply_wal_tail(&narrow).unwrap_err();
    assert!(err.contains("edge counts"), "{err}");
}
