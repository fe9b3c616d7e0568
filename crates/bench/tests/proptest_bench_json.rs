//! Property tests for the bench-report loader behind `bench-check`:
//! whatever bytes a baseline file holds, `BenchReport::from_json_str`
//! returns a report or an error, and never panics.

use cne_bench::perf::BenchReport;
use proptest::prelude::*;

/// The committed baselines: valid reports to mutate.
const BASELINES: [&str; 4] = [
    include_str!("../../../results/BENCH_slot_loop.json"),
    include_str!("../../../results/BENCH_e2e.json"),
    include_str!("../../../results/BENCH_edge_parallel.json"),
    include_str!("../../../results/BENCH_serve.json"),
];

/// Loads `bytes` as `bench-check` reads a file (lossy UTF-8), and
/// checks that an accepted report carries only finite values.
fn load(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(report) = BenchReport::from_json_str(&text) {
        assert!(report.entries.iter().all(|e| e.value.is_finite()));
    }
}

#[test]
fn committed_baselines_load() {
    for text in BASELINES {
        let report = BenchReport::from_json_str(text).expect("committed baseline parses");
        assert!(!report.entries.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        load(&bytes);
    }

    #[test]
    fn byte_mutated_reports_never_panic(
        which in 0usize..4,
        edits in prop::collection::vec((0usize..usize::MAX, 0u8..=255, 0u8..3), 1..8),
    ) {
        let mut bytes = BASELINES[which].as_bytes().to_vec();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                // Overwrite, insert, or delete one byte.
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        load(&bytes);
    }

    #[test]
    fn truncated_reports_never_panic(which in 0usize..4, cut in 0usize..usize::MAX) {
        let bytes = BASELINES[which].as_bytes();
        load(&bytes[..cut % (bytes.len() + 1)]);
    }
}
