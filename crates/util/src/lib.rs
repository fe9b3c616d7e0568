//! Shared utilities for the `carbon-edge` workspace.
//!
//! This crate is the lowest layer of the workspace. It provides:
//!
//! * [`units`] — zero-cost newtypes for the physical and monetary
//!   quantities the paper's formulation mixes (energy, carbon mass,
//!   money, latency, data size), so that emission and cost arithmetic
//!   cannot silently confuse units;
//! * [`rng`] — deterministic seeding helpers so every experiment is
//!   reproducible from a single root seed;
//! * [`stats`] — summary statistics (mean, variance, quantiles) and
//!   online accumulators used by the metrics recorder and the tests;
//! * [`series`] — small time-series helpers (cumulative sums,
//!   normalization, trapezoid averaging) used when regenerating the
//!   paper's figures;
//! * [`telemetry`] — zero-dependency instrumentation (counters,
//!   gauges, fixed-bucket histograms, per-slot events) with a JSONL
//!   sink and a [`telemetry::parse_jsonl`] reader, used to trace model
//!   switches and allowance trades;
//! * [`json`] — a hand-rolled JSON parser (the workspace builds
//!   offline without `serde_json`), the inverse of the telemetry
//!   encoder;
//! * [`crc`] — CRC-32 (IEEE) for integrity-checking on-disk frames
//!   such as the serve daemon's write-ahead arrival log;
//! * [`expo`] — a deterministic Prometheus text-exposition encoder
//!   for recorders (scraped live from the serve daemon's admin
//!   endpoint) and a strict parser used to validate it;
//! * [`span`] — a hierarchical wall-clock span profiler kept in a
//!   stream separate from the deterministic telemetry trace, so
//!   timing data never perturbs bit-identical trace output;
//! * [`pad`] — cache-line padding ([`pad::CachePadded`]) so per-worker
//!   slots in shared allocations never false-share a line.
//!
//! # Examples
//!
//! ```
//! use cne_util::units::{KWh, GramsCo2, EmissionRate};
//!
//! let energy = KWh::new(2.0);
//! let rate = EmissionRate::new(500.0); // gCO2 per kWh
//! let emitted: GramsCo2 = rate.emissions_for(energy);
//! assert_eq!(emitted.get(), 1000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod expo;
pub mod json;
pub mod pad;
pub mod rng;
pub mod series;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod units;

pub use rng::SeedSequence;
pub use span::Profiler;
pub use stats::{OnlineStats, Summary};
pub use telemetry::Recorder;
