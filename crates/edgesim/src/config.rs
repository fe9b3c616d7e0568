//! Simulation configuration: the paper's §V-A experimental settings as
//! a builder-style struct.

use cne_faults::FaultScenario;
use cne_market::{EmissionModel, TradeBounds};

use crate::queueing::QueueingConfig;
use cne_simdata::dataset::TaskKind;
use cne_simdata::prices::{PriceModel, DEFAULT_SELL_RATIO};
use cne_simdata::topology::TopologyConfig;
use cne_simdata::workload::WorkloadConfig;
use cne_util::units::{Allowances, EmissionRate};

/// Weights mapping the heterogeneous cost components of the objective
/// (1) onto one scalar "total cost".
///
/// The paper's objective adds expected inference loss (dimensionless),
/// computation latency (ms), download delay (ms), and trading cash flow
/// (cents). The defaults make the per-slot components commensurate at
/// the default scale: a full-accuracy-gap loss ≈ the latency spread ≈ a
/// couple of model downloads ≈ the per-slot trading bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the expected inference loss `E[l_n]` (per edge·slot).
    pub loss: f64,
    /// Weight per millisecond of computation latency `v_{i,n}`.
    pub latency_per_ms: f64,
    /// Weight per millisecond of download delay `u_i` on a switch.
    /// (Multiplied by [`SimConfig::switch_weight`], the Fig. 5 knob.)
    pub switch_per_ms: f64,
    /// Weight per cent of carbon-trading net cost.
    pub money_per_cent: f64,
}

impl Default for CostWeights {
    /// Calibrated so that, at the default scale, the per-slot expected
    /// inference cost dominates and one model download costs a fraction
    /// of a slot's inference cost (the paper's Fig. 3 regime, where the
    /// switching weight is at its base value of 1 and grows only in the
    /// Fig. 5 sweep).
    fn default() -> Self {
        Self {
            loss: 3.0,
            latency_per_ms: 1.0 / 600.0,
            switch_per_ms: 0.012,
            money_per_cent: 0.05,
        }
    }
}

/// Full configuration of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of time slots `T` (paper: 160 ≙ two days of 15-minute
    /// slots).
    pub horizon: usize,
    /// Number of edges `I` (paper: 10–50).
    pub num_edges: usize,
    /// The inference task (MNIST-like or CIFAR-10-like stream).
    pub task: TaskKind,
    /// Initial carbon cap `R` in allowances (paper: 500).
    pub cap: Allowances,
    /// Emission accounting (rate `ρ` and workload calibration).
    pub emission: EmissionModel,
    /// Per-slot trade bounds.
    pub bounds: TradeBounds,
    /// Buy-price process.
    pub price_model: PriceModel,
    /// Sell price as a fraction of the buy price (paper: 0.9).
    pub sell_ratio: f64,
    /// Workload trace generator settings.
    pub workload: WorkloadConfig,
    /// Topology sampler settings.
    pub topology: TopologyConfig,
    /// Per-slot cap on drawn loss samples (`min(M, cap)` stream draws
    /// estimate the slot loss; see `cne_simdata::stream`).
    pub loss_sample_cap: usize,
    /// Multiplier on the switching-cost weight (the Fig. 5 sweep knob).
    pub switch_weight: f64,
    /// Cost aggregation weights.
    pub weights: CostWeights,
    /// Compliance penalty per allowance of terminal constraint
    /// violation (cents). Cap-and-trade programs fine uncovered
    /// emissions well above the market price (the EU ETS charges
    /// €100/t *plus* surrender); the default is ≈ 2.3× the band's top
    /// price, so violating is never cheaper than buying.
    pub violation_penalty: f64,
    /// Optional distribution-shift experiment: at this slot the data
    /// distribution changes so that the models' quality ranking
    /// *reverses* (the best model becomes the worst and vice versa),
    /// while deployment profiles (size, energy, latency) stay with the
    /// models. `None` (the default) keeps the paper's IID streams.
    /// Used by the `ext_drift` robustness extension.
    pub quality_drift_at: Option<usize>,
    /// Edge-cluster queueing model (observational utilization/delay
    /// metrics; does not enter the paper's objective).
    pub queueing: QueueingConfig,
    /// Optional fault-injection scenario (edge outages, workload
    /// surges, download failures, lost feedback, market halts). `None`
    /// — the default everywhere — keeps the paper's fault-free setting;
    /// the realized schedule draws from its own `"faults"` seed stream,
    /// so attaching a scenario never perturbs the rest of the
    /// environment. See `cne_faults` and the `--faults` CLI flag.
    pub faults: Option<FaultScenario>,
}

impl SimConfig {
    /// The paper's default setting at the given scale.
    ///
    /// The emission `workload_scale` is calibrated so a default run's
    /// cumulative emissions are ≈ 2.5× the 500-allowance cap, the
    /// regime in which cap-and-trade binds (see `DESIGN.md`,
    /// substitution 6 and `cne_market::emission`). Derivation: expected
    /// total arrivals ≈ `num_edges · 260k` for the default diurnal
    /// profile over 160 slots; with `φ ≈ 8×10⁻⁸ kWh` and `ρ = 500 g/kWh`
    /// that is `≈ num_edges · 0.0104` allowances unscaled, so scale
    /// `= 1250 / (num_edges · 0.0104)` targets 1250 allowances emitted.
    #[must_use]
    pub fn paper_default(task: TaskKind, num_edges: usize) -> Self {
        assert!(num_edges > 0, "need at least one edge");
        let workload = WorkloadConfig::default();
        let expected_total_arrivals = num_edges as f64 * 260_000.0;
        let unscaled_allowances = expected_total_arrivals * 8.0e-8 * 500.0 / 1000.0;
        let scale = 1250.0 / unscaled_allowances;
        Self {
            horizon: workload.total_slots(),
            num_edges,
            task,
            cap: Allowances::new(500.0),
            emission: EmissionModel::new(EmissionRate::default(), scale),
            bounds: TradeBounds::new(Allowances::new(10.0), Allowances::new(5.0)),
            price_model: PriceModel::default(),
            sell_ratio: DEFAULT_SELL_RATIO,
            workload,
            topology: TopologyConfig::default(),
            loss_sample_cap: 200,
            switch_weight: 1.0,
            weights: CostWeights::default(),
            violation_penalty: 25.0,
            quality_drift_at: None,
            queueing: QueueingConfig::default(),
            faults: None,
        }
    }

    /// A reduced configuration for fast unit tests (short horizon, few
    /// edges, small streams).
    #[must_use]
    pub fn fast_test(task: TaskKind) -> Self {
        let mut cfg = Self::paper_default(task, 3);
        cfg.horizon = 40;
        cfg.workload = WorkloadConfig {
            slots_per_day: 20,
            days: 2,
            peak_arrivals: 800.0,
            ..WorkloadConfig::default()
        };
        cfg.loss_sample_cap = 50;
        // Keep emissions ≈ 2.5× a smaller cap on the reduced workload
        // (scale calibrated empirically: a run emits ≈ 125 allowances
        // against the cap of 50).
        cfg.cap = Allowances::new(50.0);
        cfg.emission = EmissionModel::new(EmissionRate::default(), 108_000.0);
        cfg.bounds = TradeBounds::new(Allowances::new(4.0), Allowances::new(2.0));
        cfg
    }

    /// The per-slot cap share `R/T` in allowances.
    #[must_use]
    pub fn cap_share(&self) -> f64 {
        self.cap.get() / self.horizon as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a one-line message naming the first problem of a
    /// degenerate configuration (zero horizon/edges, horizon longer
    /// than the workload trace, bad sell ratio, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon == 0 {
            return Err("horizon must be positive".into());
        }
        if self.num_edges == 0 {
            return Err("need at least one edge".into());
        }
        if self.horizon > self.workload.total_slots() {
            return Err(format!(
                "horizon exceeds the workload trace ({} > {})",
                self.horizon,
                self.workload.total_slots()
            ));
        }
        if !(self.sell_ratio > 0.0 && self.sell_ratio <= 1.0) {
            return Err("sell ratio must lie in (0, 1]".into());
        }
        if self.loss_sample_cap == 0 {
            return Err("loss sample cap must be positive".into());
        }
        if !(self.switch_weight >= 0.0 && self.switch_weight.is_finite()) {
            return Err("switch weight must be non-negative".into());
        }
        if let Some(scenario) = &self.faults {
            scenario
                .validate()
                .map_err(|e| format!("invalid fault scenario: {e}"))?;
        }
        self.queueing.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_shaped() {
        let cfg = SimConfig::paper_default(TaskKind::MnistLike, 10);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.horizon, 160);
        assert_eq!(cfg.num_edges, 10);
        assert_eq!(cfg.cap.get(), 500.0);
        assert!((cfg.cap_share() - 3.125).abs() < 1e-12);
        assert_eq!(cfg.sell_ratio, 0.9);
    }

    #[test]
    fn emission_calibration_targets_cap_multiple() {
        // scale · unscaled ≈ 1250 allowances regardless of edge count.
        for edges in [10usize, 30, 50] {
            let cfg = SimConfig::paper_default(TaskKind::MnistLike, edges);
            let unscaled = edges as f64 * 260_000.0 * 8.0e-8 * 500.0 / 1000.0;
            let target = cfg.emission.workload_scale() * unscaled;
            assert!(
                (target - 1250.0).abs() < 1.0,
                "calibration off for {edges} edges: {target}"
            );
        }
    }

    #[test]
    fn fast_test_validates() {
        let cfg = SimConfig::fast_test(TaskKind::CifarLike);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.horizon, 40);
    }

    #[test]
    #[should_panic(expected = "horizon exceeds the workload trace (1000 > 160)")]
    fn validate_catches_horizon_overrun() {
        let mut cfg = SimConfig::paper_default(TaskKind::MnistLike, 2);
        cfg.horizon = 1000;
        cfg.validate().expect("invalid config");
    }
}
