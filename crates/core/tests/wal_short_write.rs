//! A short write to a WAL segment, a retry, then a slot close: recovery
//! must return every record the log acknowledged.
//!
//! The test lowers this process's file-size limit (`RLIMIT_FSIZE`) so
//! that one append writes only the first 12 bytes of its frame and then
//! fails with `EFBIG`, and it retries the append the way the daemon's
//! `Durability::append` does. The limit applies to the whole process,
//! so this file holds this one test only.

#[cfg(target_os = "linux")]
mod linux {
    use std::os::raw::{c_int, c_ulong};
    use std::path::PathBuf;

    use cne_core::wal::{self, AppendError, SyncPolicy, Wal, WalOptions, WalRecord};

    #[repr(C)]
    struct Rlimit {
        cur: c_ulong,
        max: c_ulong,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    const RLIMIT_FSIZE: c_int = 1;
    const SIGXFSZ: c_int = 25;
    const SIG_IGN: usize = 1;

    /// Runs `f` with the soft file-size limit at `bytes`. `SIGXFSZ` is
    /// ignored meanwhile, so a write past the limit fails with `EFBIG`
    /// instead of killing the process.
    fn with_file_size_limit<T>(bytes: u64, f: impl FnOnce() -> T) -> T {
        let mut old = Rlimit { cur: 0, max: 0 };
        // SAFETY: plain libc calls on a valid, properly laid out
        // `struct rlimit`; only the soft limit is lowered, and both it
        // and the signal disposition are restored before returning.
        let old_handler = unsafe {
            assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0, "getrlimit");
            let lowered = Rlimit {
                cur: bytes as c_ulong,
                max: old.max,
            };
            let handler = signal(SIGXFSZ, SIG_IGN);
            assert_eq!(setrlimit(RLIMIT_FSIZE, &lowered), 0, "setrlimit");
            handler
        };
        let out = f();
        // SAFETY: as above; restores the saved limit and handler.
        unsafe {
            assert_eq!(setrlimit(RLIMIT_FSIZE, &old), 0, "restore setrlimit");
            signal(SIGXFSZ, old_handler);
        }
        out
    }

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cne-wal-short-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn short_write_then_retry_keeps_every_acknowledged_record() {
        let dir = temp_dir();
        let options = WalOptions {
            sync: SyncPolicy::Slot,
            ..WalOptions::default()
        };
        let (mut log, recovery) = Wal::open(&dir, options).expect("open");
        assert!(recovery.records.is_empty());
        let first = WalRecord::ArrivalSums {
            slot: 0,
            lines: 3,
            pairs: vec![(0, 3)],
        };
        let second = WalRecord::ArrivalSums {
            slot: 0,
            lines: 2,
            pairs: vec![(1, 2), (3, 5)],
        };
        let close = WalRecord::SlotClose { slot: 0 };
        log.append(&first).expect("first append");

        let segment = std::fs::read_dir(&dir)
            .expect("list WAL")
            .map(|entry| entry.expect("entry").path())
            .next()
            .expect("one segment");
        let len = || std::fs::metadata(&segment).expect("stat segment").len();
        let before = len();
        // Room for the 8-byte frame header and 4 payload bytes only.
        let err = with_file_size_limit(before + 12, || log.append(&second))
            .expect_err("the frame cannot fit under the limit");
        assert!(matches!(err, AppendError::Io(_)), "{err:?}");
        assert_eq!(len(), before, "the failed append left part of its frame");

        // The daemon's retry, then the slot close it acknowledges.
        log.append(&second).expect("retried append");
        log.append(&close).expect("slot close");
        drop(log);

        let recovery = wal::read_records(&dir).expect("read WAL");
        assert_eq!(recovery.torn, None, "the log must end at a whole frame");
        let want = vec![first, second, close];
        assert_eq!(recovery.records, want);
        let (_log, reopened) = Wal::open(&dir, options).expect("reopen");
        assert_eq!(reopened.records, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
