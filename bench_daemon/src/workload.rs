//! The four workloads and their seeded wire-stream generator.
//!
//! Every workload runs the daemon at the paper's full scale (trained
//! zoo, 160 slots) and differs in what it stresses:
//!
//! * `ingest_burst` — transport, wire decode and accumulation.
//! * `ingest_durable` — the same ingest path with WAL writes, fsync,
//!   checkpoints and the strict-decoder fallback beside it.
//! * `fleet_decide` — the per-slot engine (`push_slot`) over 5 000
//!   edges, with almost no wire traffic.
//! * `live_paced` — an open loop well below saturation, where the
//!   per-slot fixed costs set latency.
//!
//! The workload seed drives only this generator; the daemon always runs
//! with `--seed 1`.

use std::time::Duration;

use cne_core::wal::SyncPolicy;
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::SeedSequence;

/// Slots in every run: the paper's horizon.
pub const HORIZON: usize = 160;

/// The longest horizon the daemon accepts. Past it, `SimConfig::validate`
/// panics inside the daemon instead of returning an error, so the
/// benchmark refuses such a workload before spawning anything.
pub const MAX_HORIZON: usize = 160;

/// Slots per synthetic day of `carbon-edge gen-arrivals`.
const SLOTS_PER_DAY: usize = 16;

/// Busiest-edge peak of `carbon-edge gen-arrivals` (its default).
const DIURNAL_PEAK: f64 = 120.0;

/// How request lines arrive at the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// The whole stream is offered at once and written as fast as the
    /// socket takes it (a saturating drain).
    Drain,
    /// Open loop: slot `t`'s lines are written at `t / slots_per_s`
    /// seconds after the pass starts, whatever the daemon is doing.
    Paced {
        /// Slot rate.
        slots_per_s: f64,
    },
}

/// What the request lines look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// `lines_per_slot` lines per slot to uniformly drawn edges with
    /// counts 1–3; `reordered_pct` percent of them put `count` before
    /// `edge`, which the fast wire decoder hands to the strict one.
    Uniform {
        /// Request lines per slot.
        lines_per_slot: usize,
        /// Share of key-reordered lines, in percent.
        reordered_pct: u64,
    },
    /// The `gen-arrivals` diurnal process: one line per edge with
    /// traffic in the slot.
    Diurnal,
}

/// WAL and checkpoint flags of a daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Durable {
    /// `--wal-sync`.
    pub wal_sync: SyncPolicy,
    /// `--checkpoint-every`.
    pub checkpoint_every: usize,
}

/// The durability flags crash passes add on workloads whose daemon runs
/// without a WAL: the daemon's default fsync policy.
pub const CRASH_DURABLE: Durable = Durable {
    wal_sync: SyncPolicy::Slot,
    checkpoint_every: 16,
};

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Edges in the fleet.
    pub edges: usize,
    /// Slots per pass.
    pub slots: usize,
    /// Line shape.
    pub traffic: Traffic,
    /// Drain or open loop.
    pub arrival: Arrival,
    /// WAL/checkpoint flags of the measured passes, if any.
    pub durable: Option<Durable>,
    /// `--edge-threads`.
    pub edge_threads: usize,
    /// Whether the daemon writes a `--telemetry` trace.
    pub telemetry: bool,
    /// Salt that keeps two workloads' streams apart under one seed.
    salt: u64,
}

impl Workload {
    /// `--wal-sync`/`--checkpoint-every` of this workload's crash passes.
    #[must_use]
    pub fn crash_durable(&self) -> Durable {
        self.durable.unwrap_or(CRASH_DURABLE)
    }

    /// How often the harness scrapes `/metrics` while a due slot is still
    /// open. Every scrape costs the daemon's admin thread CPU, so the
    /// probe runs no more often than the latencies need. A drained slot
    /// closes 0.1–1 s after the pass starts, so 2 ms is plenty. A paced
    /// slot closes a millisecond or two after it is sent, so the probe
    /// runs every 250 µs.
    #[must_use]
    pub fn poll(&self) -> Duration {
        match self.arrival {
            Arrival::Drain => Duration::from_millis(2),
            Arrival::Paced { .. } => Duration::from_micros(250),
        }
    }

    /// Refuses horizons the daemon cannot run.
    ///
    /// # Errors
    /// A message when `slots` exceeds [`MAX_HORIZON`] or is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.slots == 0 || self.slots > MAX_HORIZON {
            return Err(format!(
                "workload {} asks for {} slots; the daemon runs 1 to {MAX_HORIZON}",
                self.name, self.slots
            ));
        }
        Ok(())
    }
}

/// Every workload, in `BENCHMARK.json` order.
#[must_use]
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "ingest_burst",
            edges: 10,
            slots: HORIZON,
            traffic: Traffic::Uniform {
                lines_per_slot: 50_000,
                reordered_pct: 0,
            },
            arrival: Arrival::Drain,
            durable: None,
            edge_threads: 1,
            telemetry: false,
            salt: 0x1b,
        },
        Workload {
            name: "ingest_durable",
            edges: 10,
            slots: HORIZON,
            traffic: Traffic::Uniform {
                lines_per_slot: 50_000,
                reordered_pct: 5,
            },
            arrival: Arrival::Drain,
            durable: Some(Durable {
                wal_sync: SyncPolicy::Every,
                checkpoint_every: 16,
            }),
            edge_threads: 1,
            telemetry: false,
            salt: 0x2d,
        },
        Workload {
            name: "fleet_decide",
            edges: 5_000,
            slots: HORIZON,
            traffic: Traffic::Diurnal,
            arrival: Arrival::Drain,
            durable: None,
            edge_threads: 2,
            telemetry: false,
            salt: 0x3f,
        },
        Workload {
            name: "live_paced",
            edges: 50,
            slots: HORIZON,
            traffic: Traffic::Uniform {
                lines_per_slot: 2_000,
                reordered_pct: 0,
            },
            arrival: Arrival::Paced { slots_per_s: 100.0 },
            durable: Some(Durable {
                wal_sync: SyncPolicy::Slot,
                checkpoint_every: 32,
            }),
            edge_threads: 1,
            telemetry: true,
            salt: 0x4e,
        },
    ]
}

/// Looks a workload up by name.
///
/// # Errors
/// A message listing the known names.
pub fn by_name(name: &str) -> Result<Workload, String> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}' (expected one of {})",
            names.join(", ")
        )
    })
}

/// A generated request stream and what the daemon must make of it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The wire bytes: each slot's request lines, then `{"slot_end":true}`.
    pub bytes: Vec<u8>,
    /// Byte offset where each slot starts, plus the end of the stream.
    pub slot_start: Vec<usize>,
    /// Per-slot, per-edge request totals the daemon should accumulate.
    pub counts: Vec<Vec<u64>>,
    /// Request lines (not counting `slot_end` markers) in each slot.
    pub slot_lines: Vec<u64>,
}

impl Stream {
    /// Request lines in the whole stream.
    #[must_use]
    pub fn request_lines(&self) -> u64 {
        self.slot_lines.iter().sum()
    }

    /// Slot `t`'s bytes, `slot_end` included.
    #[must_use]
    pub fn slot(&self, t: usize) -> &[u8] {
        &self.bytes[self.slot_start[t]..self.slot_start[t + 1]]
    }
}

/// splitmix64: a small, fully specified generator, so the same seed
/// gives the same bytes on every platform and toolchain.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Appends the decimal digits of `x`.
fn push_u64(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn push_request(out: &mut Vec<u8>, edge: u64, count: u64, reordered: bool) {
    if reordered {
        out.extend_from_slice(b"{\"count\":");
        push_u64(out, count);
        out.extend_from_slice(b",\"edge\":");
        push_u64(out, edge);
    } else {
        out.extend_from_slice(b"{\"edge\":");
        push_u64(out, edge);
        out.extend_from_slice(b",\"count\":");
        push_u64(out, count);
    }
    out.extend_from_slice(b"}\n");
}

/// The request line reporting `count` requests at `edge`.
#[must_use]
pub fn request_line(edge: usize, count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    push_request(&mut out, edge as u64, count, false);
    out
}

/// The slot-closing marker line.
pub const SLOT_END: &[u8] = b"{\"slot_end\":true}\n";

/// Generates `workload`'s stream for `seed`: identical bytes for the
/// same seed, different bytes for different seeds.
#[must_use]
pub fn generate(workload: &Workload, seed: u64) -> Stream {
    let mut rng = SplitMix(seed ^ workload.salt.wrapping_mul(0xA076_1D64_78BD_642F));
    let diurnal = ArrivalGen::new(
        ArrivalProcess::Diurnal,
        workload.edges,
        SLOTS_PER_DAY,
        DIURNAL_PEAK,
        &SeedSequence::new(rng.next()),
    );
    let mut stream = Stream {
        bytes: Vec::new(),
        slot_start: Vec::with_capacity(workload.slots + 1),
        counts: Vec::with_capacity(workload.slots),
        slot_lines: Vec::with_capacity(workload.slots),
    };
    if let Traffic::Uniform { lines_per_slot, .. } = workload.traffic {
        stream
            .bytes
            .reserve(workload.slots * (lines_per_slot * 24 + SLOT_END.len()));
    }
    for t in 0..workload.slots {
        stream.slot_start.push(stream.bytes.len());
        let mut counts = vec![0u64; workload.edges];
        let mut lines = 0u64;
        match workload.traffic {
            Traffic::Uniform {
                lines_per_slot,
                reordered_pct,
            } => {
                for _ in 0..lines_per_slot {
                    let edge = rng.below(workload.edges as u64);
                    let count = 1 + rng.below(3);
                    let reordered = rng.below(100) < reordered_pct;
                    push_request(&mut stream.bytes, edge, count, reordered);
                    counts[edge as usize] += count;
                    lines += 1;
                }
            }
            Traffic::Diurnal => {
                for (edge, &count) in diurnal.slot(t).iter().enumerate() {
                    if count > 0 {
                        push_request(&mut stream.bytes, edge as u64, count, false);
                        counts[edge] = count;
                        lines += 1;
                    }
                }
            }
        }
        stream.bytes.extend_from_slice(SLOT_END);
        stream.counts.push(counts);
        stream.slot_lines.push(lines);
    }
    stream.slot_start.push(stream.bytes.len());
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Workload {
        let mut w = by_name(name).expect("known workload");
        w.slots = 3;
        if let Traffic::Uniform { reordered_pct, .. } = w.traffic {
            w.traffic = Traffic::Uniform {
                lines_per_slot: 200,
                reordered_pct,
            };
        }
        w
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        for w in all() {
            let w = small(w.name);
            let a = generate(&w, 7);
            assert_eq!(a.bytes, generate(&w, 7).bytes, "{}", w.name);
            assert_ne!(a.bytes, generate(&w, 8).bytes, "{}", w.name);
        }
    }

    #[test]
    fn stream_bookkeeping_matches_the_bytes() {
        for w in all() {
            let w = small(w.name);
            let s = generate(&w, 3);
            assert_eq!(s.slot_start.len(), w.slots + 1);
            for t in 0..w.slots {
                let slot = s.slot(t);
                assert!(slot.ends_with(SLOT_END));
                let mut sums = vec![0u64; w.edges];
                let mut lines = 0;
                for line in slot.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                    let text = std::str::from_utf8(line).expect("ascii");
                    match cne_core::wire::decode_strict(text, w.edges).expect("valid line") {
                        cne_core::WireMsg::Request { edge, count } => {
                            sums[edge] += count;
                            lines += 1;
                        }
                        cne_core::WireMsg::SlotEnd => {}
                    }
                }
                assert_eq!(sums, s.counts[t], "{} slot {t}", w.name);
                assert_eq!(lines, s.slot_lines[t], "{} slot {t}", w.name);
            }
        }
    }

    #[test]
    fn durable_traffic_mixes_in_reordered_keys() {
        let s = generate(&small("ingest_durable"), 11);
        let reordered = s
            .bytes
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"{\"count\""))
            .count();
        let share = reordered as f64 / s.request_lines() as f64;
        assert!((0.01..0.12).contains(&share), "share {share}");
    }

    #[test]
    fn horizons_past_the_daemon_limit_are_refused() {
        let mut w = by_name("ingest_burst").expect("known");
        assert!(w.validate().is_ok());
        w.slots = MAX_HORIZON + 1;
        assert!(w.validate().is_err());
        w.slots = 0;
        assert!(w.validate().is_err());
    }
}
