//! [`ComboController`]: per-edge model selectors plus one trading
//! policy, packaged as a simulator [`Policy`].
//!
//! This is the glue of the paper's decomposition: Algorithm 1 runs
//! independently per edge (constraints (2a)–(2b) decompose over `i`),
//! Algorithm 2 runs once for the whole system, and the simulator's
//! per-slot feedback is split accordingly. The same wrapper hosts every
//! baseline combination of §V-A.

use cne_bandit::ModelSelector;
use cne_edgesim::policy::{Policy, SlotFeedback};
use cne_trading::policy::{TradeContext, TradingPolicy};
use cne_util::json::Json;
use cne_util::units::Allowances;

use crate::problem::LossNormalizer;

/// A joint policy: one [`ModelSelector`] per edge plus one
/// [`TradingPolicy`].
pub struct ComboController {
    selectors: Vec<Box<dyn ModelSelector>>,
    trader: Box<dyn TradingPolicy>,
    normalizer: LossNormalizer,
    /// Last placement, needed to route slot losses back to selectors.
    last_placement: Vec<usize>,
    display_name: String,
}

impl ComboController {
    /// Assembles a controller.
    ///
    /// # Panics
    /// Panics if `selectors` is empty or the selectors disagree on the
    /// number of arms.
    #[must_use]
    pub fn new(
        selectors: Vec<Box<dyn ModelSelector>>,
        trader: Box<dyn TradingPolicy>,
        normalizer: LossNormalizer,
        display_name: String,
    ) -> Self {
        assert!(!selectors.is_empty(), "need one selector per edge");
        let arms = selectors[0].num_arms();
        assert!(
            selectors.iter().all(|s| s.num_arms() == arms),
            "selectors disagree on the number of models"
        );
        let edges = selectors.len();
        Self {
            selectors,
            trader,
            normalizer,
            last_placement: vec![0; edges],
            display_name,
        }
    }

    /// Number of edges this controller manages.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.selectors.len()
    }

    /// The loss normalizer in use.
    #[must_use]
    pub fn normalizer(&self) -> LossNormalizer {
        self.normalizer
    }

    /// The trader's current dual variable λ, when it maintains one.
    #[must_use]
    pub fn lambda(&self) -> Option<f64> {
        self.trader.lambda()
    }

    /// Exports the controller's mutable state as JSON for a checkpoint
    /// taken between slots: every selector's learned state (in edge
    /// order), the trader's state, and the last placement.
    ///
    /// # Errors
    /// Returns an error when any selector or the trader does not
    /// support checkpoint/restore.
    pub fn export_state(&self) -> Result<Json, String> {
        let mut selectors = Vec::with_capacity(self.selectors.len());
        for (i, sel) in self.selectors.iter().enumerate() {
            let state = sel.export_state().map_err(|e| format!("edge {i}: {e}"))?;
            selectors.push(state);
        }
        Ok(Json::Obj(vec![
            ("kind".to_owned(), Json::Str("combo-controller".to_owned())),
            ("selectors".to_owned(), Json::Arr(selectors)),
            ("trader".to_owned(), self.trader.export_state()?),
            (
                "last_placement".to_owned(),
                Json::Arr(
                    self.last_placement
                        .iter()
                        .map(|&n| Json::UInt(n as u64))
                        .collect(),
                ),
            ),
        ]))
    }

    /// Restores state produced by [`export_state`](Self::export_state)
    /// onto a freshly built controller (same combo, environment, and
    /// seed — i.e. rebuilt through `Combo::build`, no slots visited),
    /// for a run whose next slot is `slot`.
    ///
    /// # Errors
    /// Returns an error when `state` does not match this controller's
    /// shape, a component rejects its snapshot, or a restored selector
    /// or trader expects a slot other than `slot`.
    pub fn import_state(&mut self, state: &Json, slot: usize) -> Result<(), String> {
        if state.as_object().is_none() {
            return Err("controller state must be an object".to_owned());
        }
        let kind = state
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("controller state is missing its 'kind' tag")?;
        if kind != "combo-controller" {
            return Err(format!("expected a combo-controller state, got '{kind}'"));
        }
        let selectors = state
            .get("selectors")
            .and_then(Json::as_array)
            .ok_or("controller state is missing 'selectors'")?;
        if selectors.len() != self.selectors.len() {
            return Err(format!(
                "checkpoint has {} selector states but the controller has {} edges",
                selectors.len(),
                self.selectors.len()
            ));
        }
        let trader = state
            .get("trader")
            .ok_or("controller state is missing 'trader'")?;
        let placement = state
            .get("last_placement")
            .and_then(Json::as_array)
            .ok_or("controller state is missing 'last_placement'")?;
        if placement.len() != self.last_placement.len() {
            return Err("last_placement length does not match the number of edges".to_owned());
        }
        let num_arms = self.selectors[0].num_arms();
        let mut restored_placement = Vec::with_capacity(placement.len());
        for p in placement {
            let n = p
                .as_u64()
                .ok_or("last_placement entries must be unsigned integers")?;
            let n = usize::try_from(n).map_err(|_| "placement index overflow".to_owned())?;
            if n >= num_arms {
                return Err(format!("placement index {n} out of range (<{num_arms})"));
            }
            restored_placement.push(n);
        }
        let at_slot = |next: Option<usize>| match next {
            Some(next) if next != slot => Err(format!(
                "state is at slot {next} but the run resumes at slot {slot}"
            )),
            _ => Ok(()),
        };
        // Validate everything before mutating anything, so a rejected
        // snapshot leaves the fresh controller untouched.
        for (i, (sel, snap)) in self.selectors.iter_mut().zip(selectors).enumerate() {
            sel.import_state(snap)
                .and_then(|()| at_slot(sel.next_slot()))
                .map_err(|e| format!("edge {i}: {e}"))?;
        }
        self.trader
            .import_state(trader)
            .and_then(|()| at_slot(self.trader.next_slot()))
            .map_err(|e| format!("trader: {e}"))?;
        self.last_placement = restored_placement;
        Ok(())
    }
}

impl std::fmt::Debug for ComboController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComboController")
            .field("name", &self.display_name)
            .field("edges", &self.selectors.len())
            .finish_non_exhaustive()
    }
}

impl Policy for ComboController {
    fn select_models(&mut self, t: usize) -> Vec<usize> {
        for (i, sel) in self.selectors.iter_mut().enumerate() {
            self.last_placement[i] = sel.select(t);
        }
        self.last_placement.clone()
    }

    fn select_models_into(&mut self, t: usize, out: &mut Vec<usize>) {
        for (i, sel) in self.selectors.iter_mut().enumerate() {
            self.last_placement[i] = sel.select(t);
        }
        out.clear();
        out.extend_from_slice(&self.last_placement);
    }

    fn decide_trades(&mut self, t: usize, ctx: &TradeContext) -> (Allowances, Allowances) {
        self.trader.decide(t, ctx)
    }

    fn end_of_slot(&mut self, t: usize, feedback: &SlotFeedback) {
        assert_eq!(
            feedback.edges.len(),
            self.selectors.len(),
            "feedback does not match the number of edges"
        );
        for (i, outcome) in feedback.edges.iter().enumerate() {
            if outcome.feedback_lost {
                // The edge was down, served a stale model, or the loss
                // report never arrived: the served model may differ
                // from the requested placement and the loss is not
                // trustworthy. Skip the slot instead of observing.
                self.selectors[i].observe_lost(t);
                continue;
            }
            debug_assert_eq!(outcome.model, self.last_placement[i]);
            let loss = self
                .normalizer
                .slot_loss(outcome.empirical_loss, outcome.compute_latency_ms);
            self.selectors[i].observe(t, outcome.model, loss);
        }
        self.trader.observe(t, &feedback.trade);
    }

    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn record_telemetry(&self, rec: &mut cne_util::telemetry::Recorder) {
        for (i, sel) in self.selectors.iter().enumerate() {
            sel.record_telemetry(i, rec);
        }
        self.trader.record_telemetry(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_bandit::{FixedArm, RandomSelector};
    use cne_edgesim::CostWeights;
    use cne_market::TradeBounds;
    use cne_trading::policy::TradeObservation;
    use cne_trading::Threshold;
    use cne_trading::ThresholdConfig;
    use cne_util::units::{GramsCo2, PricePerAllowance};
    use cne_util::SeedSequence;

    fn controller() -> ComboController {
        let selectors: Vec<Box<dyn ModelSelector>> = vec![
            Box::new(FixedArm::new(3, 1)),
            Box::new(RandomSelector::new(3, SeedSequence::new(1))),
        ];
        ComboController::new(
            selectors,
            Box::new(Threshold::new(ThresholdConfig::for_band(Allowances::new(
                1.0,
            )))),
            LossNormalizer::new(CostWeights::default()),
            "Fixed-TH".into(),
        )
    }

    #[test]
    fn placement_has_one_model_per_edge() {
        let mut c = controller();
        let p = c.select_models(0);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], 1, "fixed selector must pick its arm");
        assert!(p[1] < 3);
        assert_eq!(c.name(), "Fixed-TH");
    }

    #[test]
    fn feedback_is_routed() {
        let mut c = controller();
        let placement = c.select_models(0);
        let ctx = TradeContext {
            buy_price: PricePerAllowance::new(8.0),
            sell_price: PricePerAllowance::new(7.2),
            cap_share: 3.0,
            bounds: TradeBounds::new(Allowances::new(5.0), Allowances::new(5.0)),
        };
        let _ = c.decide_trades(0, &ctx);
        let feedback = SlotFeedback {
            edges: placement
                .iter()
                .map(|&n| cne_edgesim::EdgeSlotOutcome {
                    model: n,
                    switched: true,
                    arrivals: 10,
                    empirical_loss: 0.4,
                    accuracy: 0.9,
                    compute_latency_ms: 50.0,
                    utilization: 0.3,
                    queueing_delay_ms: 1.0,
                    emissions: GramsCo2::new(100.0),
                    feedback_lost: false,
                })
                .collect(),
            trade: TradeObservation {
                emissions: 0.2,
                bought: Allowances::ZERO,
                sold: Allowances::ZERO,
                buy_price: ctx.buy_price,
                sell_price: ctx.sell_price,
                cap_share: 3.0,
            },
        };
        c.end_of_slot(0, &feedback);
        // Next slot proceeds without panicking (selector slot counters
        // advanced correctly).
        let _ = c.select_models(1);
    }

    #[test]
    #[should_panic(expected = "need one selector")]
    fn empty_selectors_rejected() {
        let _ = ComboController::new(
            vec![],
            Box::new(Threshold::new(ThresholdConfig::for_band(Allowances::new(
                1.0,
            )))),
            LossNormalizer::new(CostWeights::default()),
            "x".into(),
        );
    }
}
