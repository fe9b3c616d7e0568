//! The paper's contribution, assembled: joint online control of model
//! placement and carbon-allowance trading for a cloud–edge inference
//! system, with baselines, an offline oracle, and regret/fit evaluation.
//!
//! The problem `P0` (Section II-B of the paper) minimizes, over `T`
//! slots,
//!
//! ```text
//! Σ_t Σ_i Σ_n x_{i,n}^t (E[l_n] + v_{i,n})    expected inference cost
//! + Σ_t Σ_i y_i^t u_i                         model switching cost
//! + Σ_t (z^t c^t − w^t r^t)                   allowance trading cost
//! s.t. Σ_t emissions_t ≤ R + Σ_t z^t − Σ_t w^t   (carbon neutrality)
//! ```
//!
//! The learning-centric decomposition solves the placement subproblem
//! `P1` per edge with the switching-aware block Tsallis-INF bandit
//! (`cne-bandit`, Algorithm 1) and the trading subproblem `P2` with
//! rectified online primal–dual steps (`cne-trading`, Algorithm 2).
//!
//! Modules:
//!
//! * [`problem`] — loss normalization and cost scales shared by the
//!   controllers;
//! * [`controller`] — [`ComboController`]: any model selector × any
//!   trading policy as an [`cne_edgesim::Policy`];
//! * [`combos`] — the paper's named algorithm grid (`Ran-Ran` …
//!   `UCB-LY`, and `Ours`);
//! * [`offline`] — the clairvoyant `Offline` benchmark (best fixed
//!   model per edge + exact offline trading LP);
//! * [`runner`] — multi-seed experiment driver with averaging;
//! * [`serve`] — the streaming serve session behind `carbon-edge
//!   serve`: slot-at-a-time ingestion through the same decision
//!   machinery, byte-comparable to a batch replay;
//! * [`daemon`] — the serve daemon's loop over any byte stream: block
//!   reader, wire decode, WAL group commit, slot closing, checkpoints,
//!   and recovery from the last checkpoint plus the WAL tail;
//! * [`checkpoint`] — the versioned on-disk snapshot format behind
//!   `serve --checkpoint-every`/`--resume`;
//! * [`wire`] — the serve daemon's request-stream decoders: the
//!   strict reference JSON path and a zero-allocation fast path for
//!   the two canonical wire shapes, equivalence-tested byte for byte;
//! * [`wal`] — the durable write-ahead arrival log that closes the
//!   gap between checkpoints: CRC-framed records, segment rotation,
//!   torn-tail truncation, and checkpoint-anchored garbage collection,
//!   so `serve --resume` recovers bit-identically from a hard kill;
//! * [`crashpoint`] — deterministic crash injection
//!   (`CARBON_EDGE_CRASH=point:N`) used by the chaos harness to die at
//!   points an external `SIGKILL` cannot reliably hit;
//! * [`regret`] — regret (for `P0`, `P1`, `P2`) and fit computation;
//! * [`monitor`] — theorem-envelope monitors flagging runs that stray
//!   outside the paper's guarantees.
//!
//! # Examples
//!
//! ```no_run
//! use cne_core::combos::Combo;
//! use cne_core::runner::{evaluate, PolicySpec};
//! use cne_edgesim::SimConfig;
//! use cne_nn::{ModelZoo, ZooConfig};
//! use cne_simdata::dataset::TaskKind;
//! use cne_util::SeedSequence;
//!
//! let zoo = ModelZoo::train(TaskKind::MnistLike, &ZooConfig::default(),
//!                           &SeedSequence::new(1));
//! let config = SimConfig::paper_default(TaskKind::MnistLike, 10);
//! let ours = evaluate(&config, &zoo, &[1, 2, 3], &PolicySpec::Combo(Combo::ours()));
//! println!("mean total cost: {}", ours.mean_total_cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod combos;
pub mod controller;
pub mod crashpoint;
pub mod daemon;
pub mod monitor;
pub mod offline;
pub mod problem;
pub mod regret;
pub mod runner;
pub mod serve;
pub mod wal;
pub mod wire;

pub use checkpoint::Checkpoint;
pub use combos::{Combo, SelectorKind, TraderKind};
pub use controller::ComboController;
pub use monitor::{LiveFinding, LiveMonitor, MonitorConfig, MonitorSummary};
pub use offline::OfflinePolicy;
pub use problem::LossNormalizer;
pub use runner::{
    evaluate, evaluate_many, evaluate_many_with, evaluate_with, resolve_threads, EvalOptions,
    EvalReport, EvalResult, PolicySpec, THREADS_ENV_VAR,
};
pub use serve::{ServeOptions, ServeOutcome, ServeSession};
pub use wal::{SyncPolicy, Wal, WalOptions, WalRecord, WalTail};
pub use wire::WireMsg;
