//! Property tests for the arrival WAL: group-committed `ArrivalSums`
//! frames replay exactly like one `Arrivals` pair per request line,
//! whatever the flush points, and no segment bytes make the reader
//! panic.

use std::path::{Path, PathBuf};

use cne_core::wal::{self, GroupCommit, Wal, WalOptions, WalRecord};
use cne_util::crc::crc32;
use proptest::prelude::*;

const EDGES: usize = 5;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cne-walprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One daemon input step: a request line, a group-commit flush (block
/// end), or a slot close.
#[derive(Debug, Clone, Copy)]
enum Step {
    Line(usize, u64),
    Flush,
    SlotEnd,
}

fn step((kind, edge, count): (u8, usize, u64)) -> Step {
    match kind {
        0..=6 => Step::Line(edge, count),
        7 => Step::Flush,
        _ => Step::SlotEnd,
    }
}

/// The record streams the two framings produce for `steps`: one
/// `Arrivals` pair per line, and the daemon's `ArrivalSums` per flush.
fn streams(steps: &[Step]) -> (Vec<WalRecord>, Vec<WalRecord>) {
    let (mut per_line, mut sums) = (Vec::new(), Vec::new());
    let mut batch = GroupCommit::new(EDGES);
    let mut slot = 0u64;
    for &s in steps {
        match s {
            Step::Line(edge, count) => {
                per_line.push(WalRecord::Arrivals {
                    slot,
                    pairs: vec![(edge as u64, count)],
                });
                batch.add(edge, count);
            }
            Step::Flush => sums.extend(batch.take(slot)),
            Step::SlotEnd => {
                sums.extend(batch.take(slot));
                for stream in [&mut per_line, &mut sums] {
                    stream.push(WalRecord::SlotClose { slot });
                }
                slot += 1;
            }
        }
    }
    sums.extend(batch.take(slot));
    (per_line, sums)
}

fn write_log(dir: &Path, records: &[WalRecord]) {
    let (mut log, _) = Wal::open(dir, WalOptions::default()).expect("open");
    for record in records {
        log.append(record).expect("append");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replaying the daemon's sums, after a round trip through disk,
    /// gives the same tail as one pair per line, from any start slot;
    /// every sums frame is 29 + 16·(edges touched) bytes.
    #[test]
    fn sums_replay_like_one_pair_per_line(
        raw in prop::collection::vec((0u8..10, 0..EDGES, 0u64..4), 0..120),
        start in 0u64..3,
    ) {
        let steps: Vec<Step> = raw.into_iter().map(step).collect();
        let (per_line, sums) = streams(&steps);
        let dir = temp_dir("sums");
        write_log(&dir, &sums);
        let read = wal::read_records(&dir).expect("read");
        let bytes = std::fs::metadata(dir.join("wal-00000001.log")).map_or(0, |m| m.len());
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(read.torn.is_none());
        prop_assert_eq!(&read.records, &sums);
        let expected: usize = sums
            .iter()
            .map(|r| match r {
                WalRecord::ArrivalSums { pairs, .. } => 29 + 16 * pairs.len(),
                _ => 17,
            })
            .sum();
        prop_assert_eq!(bytes, expected as u64);

        let reference = wal::replay(&per_line, EDGES, start).expect("replay per line");
        let tail = wal::replay(&read.records, EDGES, start).expect("replay sums");
        prop_assert_eq!(tail, reference);
    }

    /// Arbitrary bytes as the last segment scan to a record prefix and
    /// a torn report; as an earlier segment, to that or a typed error.
    /// Neither panics. Half the cases wrap the bytes in a frame with a
    /// valid CRC and a plausible tag, so they reach the record decoder.
    #[test]
    fn arbitrary_segment_bytes_never_panic(
        raw in prop::collection::vec(0u8..=255, 0..512),
        keep in 0usize..4,
        framed in 0u8..2,
        tag in 0u8..6,
    ) {
        let garbage = match raw.split_first() {
            Some((_, rest)) if framed == 1 => {
                let payload: Vec<u8> = std::iter::once(tag).chain(rest.iter().copied()).collect();
                let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&crc32(&payload).to_le_bytes());
                frame.extend_from_slice(&payload);
                frame
            }
            _ => raw.clone(),
        };
        // A valid prefix first, so the scan reaches deeper frames.
        let valid = [
            WalRecord::ArrivalSums { slot: 0, lines: 2, pairs: vec![(1, 3)] },
            WalRecord::Arrivals { slot: 0, pairs: vec![(0, 1)] },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::CheckpointInstalled { slot: 1 },
        ];
        let dir = temp_dir("bytes");
        write_log(&dir, &valid[..keep]);
        let seg = dir.join("wal-00000001.log");
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes.extend_from_slice(&garbage);
        std::fs::write(&seg, &bytes).expect("write");

        let last = wal::read_records(&dir).expect("a last segment never errors");
        prop_assert_eq!(&last.records[..keep], &valid[..keep]);
        prop_assert!(last.torn.is_some() || last.records.len() > keep || garbage.is_empty());

        std::fs::write(dir.join("wal-00000002.log"), b"").expect("second segment");
        let earlier = wal::read_records(&dir);
        std::fs::remove_dir_all(&dir).ok();
        match earlier {
            Ok(scan) => prop_assert!(last.torn.is_none() && scan.records == last.records),
            Err(e) => prop_assert!(last.torn.is_some() && e.contains("not the last segment")),
        }
    }
}
