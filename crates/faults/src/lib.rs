//! Deterministic, seeded fault injection for the carbon-edge stack.
//!
//! The paper's guarantees (Theorems 1–3) assume every slot delivers
//! clean loss feedback, every model download succeeds, and the
//! allowance market always clears. Production edge fleets violate all
//! three: edges drop out, downloads fail, demand surges, and markets
//! halt or reject orders. This crate provides the *fault plane* the
//! simulator injects those events from, plus the graceful-degradation
//! primitives the control stack uses to ride them out:
//!
//! * [`FaultScenario`] — a declarative description of fault rates and
//!   retry parameters, loadable from a JSON file (`--faults` in the
//!   CLI).
//! * [`FaultSchedule`] — the scenario *realized* against a seed: every
//!   per-edge-per-slot and per-slot fault draw is made once, up front,
//!   from a dedicated RNG stream derived off the run seed. Because the
//!   schedule is pre-realized in a fixed order, a given
//!   `(seed, scenario)` pair is bit-identical across driver thread
//!   counts, batch-built or streamed.
//! * [`Backoff`] — the shared bounded exponential backoff rule used by
//!   download retries and market resubmissions. It is a pure function
//!   of the attempt number, hence trivially deterministic.
//! * [`TradeCarry`] — the carry-forward account for unmet market
//!   positions: when the market halts or rejects an order, the
//!   requested allowances are not dropped but carried into the next
//!   attempt, so the carbon-neutrality ledger never silently leaks
//!   (`requested == executed + unmet` holds at settlement).
//!
//! The plane is intentionally independent of the simulator: it only
//! answers "does fault X fire at (edge, slot)?" and bookkeeps retries.
//! Degradation *semantics* (serve the stale model, skip the
//! importance-weighted update, defer the switch cost) live with the
//! components that degrade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod retry;
mod scenario;
mod schedule;

pub use retry::{Backoff, TradeCarry, TradeCarryParts, WallRetry};
pub use scenario::{FaultScenario, ScenarioError};
pub use schedule::FaultSchedule;
