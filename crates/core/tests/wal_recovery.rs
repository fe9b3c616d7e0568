//! Recovery-equivalence contract of the arrival WAL: a run cut off at
//! *any* byte of its log — frame boundaries, torn mid-frame tails,
//! before or after a checkpoint install — and recovered through
//! `Wal::open` → `replay` → `ServeSession::apply_wal_tail` finishes
//! bit-identically to the uninterrupted run, at any resume edge-thread
//! count, in both serve modes, under a mixed fault scenario.

use std::path::PathBuf;

use cne_core::wal::{self, GroupCommit, Wal, WalOptions, WalRecord};
use cne_core::{Checkpoint, Combo, ServeOptions, ServeSession};
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

/// The exact record stream the daemon would append for slots
/// `0..upto` when each slot's lines (one per edge with traffic, as
/// `gen-arrivals` writes them) arrive in one block: one group-committed
/// `ArrivalSums` frame, then a `SlotClose` per slot.
fn daemon_records(arrivals: &[Vec<u64>], upto: usize) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut batch = GroupCommit::new(arrivals.len());
    for t in 0..upto {
        for (edge, row) in arrivals.iter().enumerate() {
            if row[t] > 0 {
                batch.add(edge, row[t]);
            }
        }
        records.extend(batch.take(t as u64));
        records.push(WalRecord::SlotClose { slot: t as u64 });
    }
    records
}

fn serve_opts(edge_threads: usize) -> ServeOptions {
    ServeOptions {
        edge_threads,
        telemetry: true,
        ..ServeOptions::default()
    }
}

/// Uninterrupted reference run: `(record json-able struct, trace bytes)`.
fn reference(zoo: &ModelZoo, cfg: &SimConfig, arrivals: &[Vec<u64>]) -> (RunRecord, String) {
    let mut session = ServeSession::new(cfg.clone(), zoo, SEED, Combo::ours(), &serve_opts(1));
    for t in 0..cfg.horizon {
        session.push_slot(&slot_row(arrivals, t));
    }
    let out = session.finish();
    let trace = out.telemetry.expect("telemetry on").to_jsonl_string();
    (out.record, trace)
}

/// Recovers from whatever the WAL directory holds (no checkpoint:
/// replay starts at slot 0), feeds the rest of the arrival stream, and
/// returns the finished run.
fn recover_and_finish(
    zoo: &ModelZoo,
    cfg: &SimConfig,
    arrivals: &[Vec<u64>],
    dir: &std::path::Path,
    edge_threads: usize,
) -> (RunRecord, String) {
    let (_wal, recovery) = Wal::open(dir, WalOptions::default()).expect("open WAL");
    let tail = wal::replay(&recovery.records, cfg.num_edges, 0).expect("replay");
    let mut session = ServeSession::new(
        cfg.clone(),
        zoo,
        SEED,
        Combo::ours(),
        &serve_opts(edge_threads),
    );
    session.apply_wal_tail(&tail).expect("apply tail");
    let cursor = session.next_slot();
    // The open slot's recovered arrivals must be a sub-accumulation of
    // the true row — re-delivering the full row closes the gap, exactly
    // as the upstream arrival source re-sends what was never acked.
    if cursor < cfg.horizon {
        let row = slot_row(arrivals, cursor);
        for (e, &seen) in tail.open.iter().enumerate() {
            assert!(
                seen <= row[e],
                "recovered open-slot count {seen} exceeds the true row {} (edge {e})",
                row[e]
            );
        }
    }
    for t in cursor..cfg.horizon {
        session.push_slot(&slot_row(arrivals, t));
    }
    let out = session.finish();
    let trace = out.telemetry.expect("telemetry on").to_jsonl_string();
    (out.record, trace)
}

/// A full WAL replayed from slot 0 reconstructs the run byte-for-byte
/// in both serve modes at 1 and 4 edge threads.
#[test]
fn full_wal_replay_is_bit_identical() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let dir = temp_dir("full");
    let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
    for record in daemon_records(&arrivals, cfg.horizon) {
        wal.append(&record).expect("append");
    }
    drop(wal);
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
    let records = daemon_records(&arrivals, cfg.horizon);

    // Byte image of the single segment the daemon would have written.
    let src = temp_dir("cutsrc");
    let (mut wal, _) = Wal::open(&src, WalOptions::default()).expect("open");
    for record in &records {
        wal.append(record).expect("append");
    }
    drop(wal);
    let seg_name = "wal-00000001.log";
    let full = std::fs::read(src.join(seg_name)).expect("read segment");
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
        std::fs::write(dir.join(seg_name), &full[..cut]).expect("write cut");
        if cut > 0 && !boundaries.contains(&cut) {
            let scan = wal::read_records(&dir).expect("scan");
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
/// checkpoint and the surviving tail alone — bit-identical in both
/// serve modes at 1 and 4 resume edge threads, including when the tail
/// ends mid-slot.
#[test]
fn checkpoint_plus_wal_tail_resumes_bit_identically() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let horizon = cfg.horizon;
    let k = horizon / 2; // checkpoint slot
    let m = k + horizon / 4 + 1; // slots fully logged past the checkpoint
    assert!(m < horizon);

    let (ref_record, ref_trace) = reference(&zoo, &cfg, &arrivals);

    // Head run with the daemon's write-ahead discipline, a durable
    // checkpoint at slot k, then more logged slots and a torn
    // mid-slot batch for slot m before the "crash".
    let dir = temp_dir("ckpt");
    let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
    let mut head = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &serve_opts(1));
    for record in daemon_records(&arrivals, k) {
        wal.append(&record).expect("append");
    }
    for t in 0..k {
        head.push_slot(&slot_row(&arrivals, t));
    }
    let text = head.checkpoint().expect("checkpoint").encode();
    wal.install_checkpoint(k as u64).expect("install");
    for record in daemon_records(&arrivals, m)
        .into_iter()
        .filter(|r| match r {
            WalRecord::Arrivals { slot, .. }
            | WalRecord::ArrivalSums { slot, .. }
            | WalRecord::SlotClose { slot } => *slot >= k as u64,
            WalRecord::CheckpointInstalled { .. } => true,
        })
    {
        wal.append(&record).expect("append");
    }
    // A partial batch for the open slot m: the first edge with
    // traffic and a zero-count line are group-committed before the
    // crash.
    let edge = (0..cfg.num_edges)
        .find(|&e| arrivals[e][m] > 0)
        .unwrap_or(0);
    let mut partial = GroupCommit::new(cfg.num_edges);
    partial.add(edge, arrivals[edge][m]);
    partial.add(edge, 0);
    wal.append(&partial.take(m as u64).expect("two lines"))
        .expect("append");
    drop(wal);

    for edge_threads in [1usize, 4] {
        let ckpt = Checkpoint::parse(&text).expect("well-formed checkpoint");
        let mut session = ServeSession::resume(
            cfg.clone(),
            &zoo,
            Combo::ours(),
            &ckpt,
            &serve_opts(edge_threads),
        )
        .expect("resume");
        let (_wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        let tail = wal::replay(&recovery.records, cfg.num_edges, k as u64).expect("replay");
        assert_eq!(tail.start_slot as usize, k);
        assert_eq!(tail.closed.len(), m - k);
        assert_eq!(tail.open_lines, 2, "both logged lines of slot {m}");
        session.apply_wal_tail(&tail).expect("apply tail");
        assert_eq!(session.next_slot(), m);
        for t in m..horizon {
            session.push_slot(&slot_row(&arrivals, t));
        }
        let out = session.finish();
        assert_eq!(
            out.record, ref_record,
            "record diverged ({edge_threads} edge threads)"
        );
        assert_eq!(
            out.telemetry.expect("telemetry on").to_jsonl_string(),
            ref_trace,
            "trace diverged ({edge_threads} edge threads)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
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
