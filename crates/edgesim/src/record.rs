//! Metrics recorded by a simulation run.

use cne_market::AllowanceLedger;
use cne_util::series::cumsum;

/// Aggregated metrics of one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRecord {
    /// Slot index `t`.
    pub t: usize,
    /// Total arrivals across edges.
    pub arrivals: u64,
    /// Weighted expected-inference-loss cost `Σ_i E[l_{n_i}] · w_loss`.
    pub loss_cost: f64,
    /// Weighted computation cost `Σ_i v_{i,n_i} · w_latency`.
    pub latency_cost: f64,
    /// Weighted switching cost `Σ_i y_i u_i · w_switch · switch_weight`.
    pub switch_cost: f64,
    /// Weighted net trading cost `(z c − w r) · w_money`.
    pub trading_cost: f64,
    /// Number of model downloads this slot.
    pub switches: usize,
    /// Slot emissions in allowance units.
    pub emissions: f64,
    /// Executed purchase `z^t` (allowances).
    pub bought: f64,
    /// Executed sale `w^t` (allowances).
    pub sold: f64,
    /// Posted buy price `c^t` (cents/allowance).
    pub buy_price: f64,
    /// Posted sell price `r^t` (cents/allowance).
    pub sell_price: f64,
    /// Net trading cash flow `z c − w r` in cents (unweighted).
    pub trade_cash: f64,
    /// Arrival-weighted mean stream accuracy across edges.
    pub accuracy: f64,
    /// Arrival-weighted mean empirical loss across edges.
    pub empirical_loss: f64,
    /// Mean edge-cluster utilization this slot (observational).
    pub utilization: f64,
    /// Mean estimated queueing delay this slot, ms (observational).
    pub queueing_delay_ms: f64,
}

impl SlotRecord {
    /// The slot's weighted total cost (the per-slot summand of the
    /// paper's objective (1)).
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.loss_cost + self.latency_cost + self.switch_cost + self.trading_cost
    }

    /// The constraint function `g^t = e^t − R/T − z^t + w^t` given the
    /// cap share.
    #[must_use]
    pub fn constraint_value(&self, cap_share: f64) -> f64 {
        self.emissions - cap_share - self.bought + self.sold
    }
}

/// Per-edge tallies over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRecord {
    /// How many slots each model was hosted (`Σ_t x_{i,n}^t`).
    pub selection_counts: Vec<u64>,
    /// Total downloads (`Σ_t y_i^t`).
    pub switches: u64,
    /// Highest single-slot utilization this edge reached
    /// (observational queueing metric; stored ×1e6 as an integer to
    /// keep the record `Eq`-comparable).
    pub peak_utilization_millionths: u64,
}

/// The full record of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// Per-slot metrics.
    pub slots: Vec<SlotRecord>,
    /// Per-edge tallies.
    pub edges: Vec<EdgeRecord>,
    /// Final market ledger.
    pub ledger: AllowanceLedger,
    /// The cap share `R/T` used by the run.
    pub cap_share: f64,
    /// Weighted end-of-horizon compliance settlement: any terminal
    /// violation of constraint (1c) is fined at the configured penalty
    /// rate, so ignoring the constraint is never cheaper than trading.
    pub settlement_cost: f64,
}

impl RunRecord {
    /// Total weighted cost over the horizon (the realized objective of
    /// `P0`), including the compliance settlement.
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.slots.iter().map(SlotRecord::total_cost).sum::<f64>() + self.settlement_cost
    }

    /// Per-slot total-cost series (settlement excluded; it has no slot).
    #[must_use]
    pub fn cost_series(&self) -> Vec<f64> {
        self.slots.iter().map(SlotRecord::total_cost).collect()
    }

    /// Cumulative total-cost series (Fig. 3 before normalization); the
    /// compliance settlement lands on the final slot.
    #[must_use]
    pub fn cumulative_cost_series(&self) -> Vec<f64> {
        let mut series = cumsum(&self.cost_series());
        if let Some(last) = series.last_mut() {
            *last += self.settlement_cost;
        }
        series
    }

    /// Per-slot accuracy series (Figs. 12–13).
    #[must_use]
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.accuracy).collect()
    }

    /// Per-slot net allowance purchases `z − w` (Fig. 9).
    #[must_use]
    pub fn net_purchase_series(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.bought - s.sold).collect()
    }

    /// Per-slot arrivals (the workload of Fig. 9).
    #[must_use]
    pub fn arrivals_series(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.arrivals as f64).collect()
    }

    /// Per-slot mean edge utilization (observational queueing metric).
    #[must_use]
    pub fn utilization_series(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.utilization).collect()
    }

    /// Highest single-edge, single-slot utilization of the run — the
    /// number provisioning must cover.
    #[must_use]
    pub fn peak_edge_utilization(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.peak_utilization_millionths as f64 / 1e6)
            .fold(0.0, f64::max)
    }

    /// Average cents paid per allowance actually bought
    /// (`Σ z c / Σ z`); 0 when nothing was bought.
    #[must_use]
    pub fn unit_purchase_cost(&self) -> f64 {
        let bought: f64 = self.slots.iter().map(|s| s.bought).sum();
        if bought <= 0.0 {
            return 0.0;
        }
        let paid: f64 = self.slots.iter().map(|s| s.bought * s.buy_price).sum();
        paid / bought
    }

    /// Terminal violation of the neutrality constraint (allowances).
    #[must_use]
    pub fn violation(&self) -> f64 {
        self.ledger.violation().get()
    }

    /// Running violation series `[Σ_{s≤t} g^s]⁺` (Fig. 11's integrand).
    #[must_use]
    pub fn violation_series(&self) -> Vec<f64> {
        let g: Vec<f64> = self
            .slots
            .iter()
            .map(|s| s.constraint_value(self.cap_share))
            .collect();
        cumsum(&g).into_iter().map(|v| v.max(0.0)).collect()
    }

    /// Total switches across all edges.
    #[must_use]
    pub fn total_switches(&self) -> u64 {
        self.edges.iter().map(|e| e.switches).sum()
    }

    /// Horizon length.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_util::units::Allowances;

    fn slot(t: usize, cost_parts: [f64; 4], bought: f64, sold: f64, e: f64) -> SlotRecord {
        SlotRecord {
            t,
            arrivals: 100,
            loss_cost: cost_parts[0],
            latency_cost: cost_parts[1],
            switch_cost: cost_parts[2],
            trading_cost: cost_parts[3],
            switches: 0,
            emissions: e,
            bought,
            sold,
            buy_price: 8.0,
            sell_price: 7.2,
            trade_cash: bought * 8.0 - sold * 7.2,
            accuracy: 0.9,
            empirical_loss: 0.3,
            utilization: 0.5,
            queueing_delay_ms: 2.0,
        }
    }

    fn record() -> RunRecord {
        RunRecord {
            policy: "test".into(),
            slots: vec![
                slot(0, [1.0, 0.5, 0.2, 0.3], 2.0, 0.0, 4.0),
                slot(1, [0.8, 0.5, 0.0, 0.1], 1.0, 0.5, 3.0),
            ],
            edges: vec![EdgeRecord {
                selection_counts: vec![2, 0],
                switches: 1,
                peak_utilization_millionths: 500_000,
            }],
            ledger: AllowanceLedger::new(Allowances::new(5.0)),
            cap_share: 2.5,
            settlement_cost: 0.5,
        }
    }

    #[test]
    fn totals_and_series() {
        let r = record();
        assert!((r.total_cost() - 3.9).abs() < 1e-12);
        let cost = r.cost_series();
        assert!((cost[0] - 2.0).abs() < 1e-12 && (cost[1] - 1.4).abs() < 1e-12);
        let cum = r.cumulative_cost_series();
        assert!(
            (cum[0] - 2.0).abs() < 1e-12 && (cum[1] - 3.9).abs() < 1e-12,
            "settlement lands on the final slot: {cum:?}"
        );
        assert_eq!(r.net_purchase_series(), vec![2.0, 0.5]);
        assert_eq!(r.total_switches(), 1);
        assert_eq!(r.horizon(), 2);
    }

    #[test]
    fn unit_purchase_cost_weighted() {
        let r = record();
        // (2·8 + 1·8) / 3 = 8.
        assert!((r.unit_purchase_cost() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn violation_series_positive_part() {
        let r = record();
        // g0 = 4 − 2.5 − 2 = −0.5 → cum −0.5 → [·]⁺ = 0
        // g1 = 3 − 2.5 − 1 + 0.5 = 0 → cum −0.5 → 0
        assert_eq!(r.violation_series(), vec![0.0, 0.0]);
    }

    #[test]
    fn constraint_value_formula() {
        let s = slot(0, [0.0; 4], 1.0, 0.25, 5.0);
        assert!((s.constraint_value(3.0) - 1.25).abs() < 1e-12);
    }
}
