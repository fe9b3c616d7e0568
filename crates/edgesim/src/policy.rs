//! The control-policy interface the simulator drives.

use cne_trading::policy::{TradeContext, TradeObservation};
use cne_util::telemetry::Recorder;
use cne_util::units::{Allowances, GramsCo2};

/// What one edge experienced during a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSlotOutcome {
    /// Model hosted during the slot.
    pub model: usize,
    /// Whether a download occurred (`y_i^t`).
    pub switched: bool,
    /// Arrivals `M_i^t`.
    pub arrivals: u64,
    /// Empirical slot loss `L_{i,n}^t` (mean Brier over the sampled
    /// stream; 0 when no arrivals).
    pub empirical_loss: f64,
    /// Fraction of sampled stream classified correctly.
    pub accuracy: f64,
    /// Computation cost `v_{i,n}` in milliseconds.
    pub compute_latency_ms: f64,
    /// Offered utilization of the edge cluster this slot (may exceed
    /// 1 under overload; observational, see `crate::queueing`).
    pub utilization: f64,
    /// Estimated mean queueing delay in milliseconds (observational).
    pub queueing_delay_ms: f64,
    /// Carbon emitted by this edge this slot (inference + transfer).
    pub emissions: GramsCo2,
    /// The slot's loss feedback never reached the controller: the edge
    /// was down, it served a stale model because a download failed, or
    /// the loss report itself was lost in transit (see `cne_faults`).
    /// Learning policies must not feed this outcome's loss into their
    /// estimators; `model` is the model *actually served*, which may
    /// differ from the placement the policy requested. Always `false`
    /// in fault-free runs.
    pub feedback_lost: bool,
}

/// End-of-slot feedback for the policy: everything Step 4 of the
/// paper's workflow collects.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFeedback {
    /// Per-edge outcomes (indexed by edge).
    pub edges: Vec<EdgeSlotOutcome>,
    /// The slot's executed trades, prices, emissions, and cap share
    /// (from which `f^t` and `g^t` are computable).
    pub trade: TradeObservation,
}

impl SlotFeedback {
    /// Total slot emissions across edges, in allowance units.
    #[must_use]
    pub fn total_emission_allowances(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.emissions.to_allowances().get())
            .sum()
    }
}

/// A joint control policy: model placement (`x`, `y`) plus carbon
/// trading (`z`, `w`).
///
/// Call order per slot `t`: [`select_models`](Self::select_models) →
/// [`decide_trades`](Self::decide_trades) →
/// [`end_of_slot`](Self::end_of_slot).
///
/// Policies never see a profiler. A profiled run times each of these
/// three calls as one whole stage span (`select`, `trade`,
/// `feedback`); finer costs are measured by the micro-benchmarks in
/// `cne-bench`'s `perf` module instead.
pub trait Policy {
    /// Returns the model to host on each edge during slot `t`
    /// (`placements[i] = n` ⇒ `x_{i,n}^t = 1`).
    fn select_models(&mut self, t: usize) -> Vec<usize>;

    /// Proposes `(z^t, w^t)`; the market clamps to the bounds in `ctx`.
    fn decide_trades(&mut self, t: usize, ctx: &TradeContext) -> (Allowances, Allowances);

    /// Receives the realized slot outcome.
    fn end_of_slot(&mut self, t: usize, feedback: &SlotFeedback);

    /// As [`select_models`](Self::select_models), but writes the
    /// placement into a caller-owned buffer so the simulator's slot
    /// loop can reuse one allocation across the horizon. The default
    /// delegates to [`select_models`](Self::select_models); policies
    /// that keep an internal placement vector override this to copy
    /// without allocating.
    fn select_models_into(&mut self, t: usize, out: &mut Vec<usize>) {
        let placements = self.select_models(t);
        out.clear();
        out.extend_from_slice(&placements);
    }

    /// Display name, e.g. `"Ours"` or `"UCB-LY"`.
    fn name(&self) -> String;

    /// Dumps end-of-run internal policy state into a telemetry
    /// recorder (called by [`Environment::run_traced`] after the final
    /// slot). The default records nothing; composite policies forward
    /// to their parts.
    ///
    /// [`Environment::run_traced`]: crate::Environment::run_traced
    fn record_telemetry(&self, rec: &mut Recorder) {
        let _ = rec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_util::units::PricePerAllowance;

    #[test]
    fn feedback_totals_emissions() {
        let fb = SlotFeedback {
            edges: vec![
                EdgeSlotOutcome {
                    model: 0,
                    switched: false,
                    arrivals: 10,
                    empirical_loss: 0.5,
                    accuracy: 0.9,
                    compute_latency_ms: 50.0,
                    utilization: 0.4,
                    queueing_delay_ms: 3.0,
                    emissions: GramsCo2::new(1500.0),
                    feedback_lost: false,
                },
                EdgeSlotOutcome {
                    model: 1,
                    switched: true,
                    arrivals: 20,
                    empirical_loss: 0.2,
                    accuracy: 0.95,
                    compute_latency_ms: 80.0,
                    utilization: 0.6,
                    queueing_delay_ms: 7.0,
                    emissions: GramsCo2::new(500.0),
                    feedback_lost: false,
                },
            ],
            trade: TradeObservation {
                emissions: 2.0,
                bought: Allowances::ZERO,
                sold: Allowances::ZERO,
                buy_price: PricePerAllowance::new(8.0),
                sell_price: PricePerAllowance::new(7.2),
                cap_share: 3.0,
            },
        };
        assert!((fb.total_emission_allowances() - 2.0).abs() < 1e-12);
    }
}
