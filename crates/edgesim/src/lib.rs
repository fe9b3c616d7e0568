//! Discrete-time cloud–edge inference simulator.
//!
//! This crate is the testbed stand-in: it wires the synthetic inputs
//! (`cne-simdata`), the trained model zoo (`cne-nn`), and the carbon
//! market (`cne-market`) into the per-slot workflow of the paper's
//! Fig. 2 and drives a pluggable control [`Policy`] through it:
//!
//! 1. the policy selects one model per edge (download on change);
//! 2. the policy proposes allowance trades, executed by the market;
//! 3. each edge serves its slot's stream with the hosted model,
//!    observing the empirical loss `L_{i,n}^t`, accuracy, and energy;
//! 4. emissions are posted to the ledger and the slot's feedback is
//!    returned to the policy.
//!
//! The [`Environment`] pre-realizes everything that does not depend on
//! policy decisions — topology, workload traces, price series, and the
//! seeds of each edge's sample stream — so that competing policies are
//! compared on exactly the same realization, as in the paper's
//! evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod env;
mod lanes;
pub mod policy;
pub mod queueing;
pub mod record;

pub use config::{CostWeights, SimConfig};
pub use env::{EdgeServeState, Environment, RunStepper, StepperState};
pub use policy::{EdgeSlotOutcome, Policy, SlotFeedback};
pub use queueing::QueueingConfig;
pub use record::{RunRecord, SlotRecord};
