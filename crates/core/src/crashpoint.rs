//! Deterministic crash injection for the chaos harness.
//!
//! The crash harness (`crates/cli/tests/crash_harness.rs`, and the CI
//! `chaos-smoke` job) needs to kill the daemon at points an external
//! `SIGKILL` cannot reliably hit — half-way through a WAL append, with
//! a half-written checkpoint tmp file, after the checkpoint is written
//! but before the rename. Those sites consult this module: when the
//! `CARBON_EDGE_CRASH` environment variable is set to `point:N`, the
//! `N`-th occurrence of `point` persists a deliberately torn artifact
//! and aborts the process without unwinding — exactly what a kernel
//! kill at that instant would leave behind.
//!
//! Recognized points:
//!
//! | point | effect at occurrence `N` |
//! |---|---|
//! | `wal-torn-append` | writes a prefix of the frame, then aborts |
//! | `ckpt-torn-tmp` | leaves half of the checkpoint tmp on disk, then aborts |
//! | `ckpt-pre-rename` | writes + fsyncs the full tmp, aborts before rename |
//! | `zoo-torn-tmp` | leaves half of the zoo snapshot tmp on disk, then aborts |
//! | `zoo-pre-rename` | writes + fsyncs the full snapshot tmp, aborts before rename |
//!
//! When the variable is unset (every production run), the fast path is
//! a single relaxed atomic load of a cached parse — no environment
//! lookup, no branching on strings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable holding the armed crash point, as `point:N`
/// (1-based occurrence count).
pub const ENV_VAR: &str = "CARBON_EDGE_CRASH";

/// The parsed spec, cached for the process lifetime.
fn spec() -> Option<&'static (String, u64)> {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = std::env::var(ENV_VAR).ok()?;
        let (point, n) = raw.split_once(':')?;
        let n: u64 = n.parse().ok()?;
        (n > 0).then(|| (point.to_owned(), n))
    })
    .as_ref()
}

/// Whether the armed crash point matches `point` at this `occurrence`
/// (a 1-based count the call site maintains). Always `false` when
/// [`ENV_VAR`] is unset.
#[must_use]
pub fn hit(point: &str, occurrence: u64) -> bool {
    match spec() {
        Some((armed, n)) => armed == point && occurrence == *n,
        None => false,
    }
}

/// Like [`hit`] for call sites without a natural counter: maintains a
/// process-global occurrence count that only advances while `point` is
/// the armed point (at most one point is armed per process, so a
/// single counter suffices).
#[must_use]
pub fn hit_auto(point: &str) -> bool {
    static COUNT: AtomicU64 = AtomicU64::new(0);
    match spec() {
        Some((armed, n)) if armed == point => COUNT.fetch_add(1, Ordering::Relaxed) + 1 == *n,
        _ => false,
    }
}

/// Dies the way a kernel kill would: a structured stderr event for the
/// harness log, then `abort()` — no unwinding, no destructors, no
/// flushes beyond what the call site already persisted.
pub fn crash(point: &str) -> ! {
    eprintln!("{{\"event\":\"crash_injected\",\"point\":\"{point}\"}}");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_env_never_hits() {
        // The test binary does not set CARBON_EDGE_CRASH, so the
        // cached spec is None and every probe is cold.
        assert!(!hit("wal-torn-append", 1));
        assert!(!hit_auto("ckpt-pre-rename"));
    }
}
