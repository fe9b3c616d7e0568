//! The clairvoyant `Offline` benchmark.
//!
//! Following §V-A: Offline (i) keeps, on each edge, the single model
//! minimizing the posterior expected inference cost
//! `E[l_n] · w_loss + v_{i,n} · w_latency` (sample mean over the whole
//! test pool approximating the unknown expectation), and (ii) solves
//! the carbon-trading subproblem exactly with the offline LP, knowing
//! the entire price series and the emissions its fixed placement will
//! produce (the paper uses Gurobi; we use the exact parametric greedy
//! of `cne-trading`).

use cne_edgesim::policy::{Policy, SlotFeedback};
use cne_edgesim::Environment;
use cne_trading::offline::offline_optimal_trades;
use cne_trading::policy::TradeContext;
use cne_util::units::Allowances;

/// The offline oracle policy.
#[derive(Debug, Clone)]
pub struct OfflinePolicy {
    placements: Vec<usize>,
    buys: Vec<f64>,
    sells: Vec<f64>,
}

impl OfflinePolicy {
    /// Plans the oracle for a realized environment.
    ///
    /// When even buying the per-slot maximum every slot cannot cover
    /// the placement's emissions (possible in the extreme Fig. 6
    /// emission-rate sweeps), the oracle degrades gracefully to the
    /// best feasible plan — buy the maximum every slot, sell nothing —
    /// and pays the unavoidable compliance settlement like everyone
    /// else.
    #[must_use]
    pub fn plan(env: &Environment<'_>) -> Self {
        let cfg = env.config();
        let zoo = env.zoo();
        // Best fixed model per edge by expected inference cost.
        let placements: Vec<usize> = (0..env.num_edges())
            .map(|i| {
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                for n in 0..zoo.len() {
                    let cost = env.inference_cost(i, n);
                    if cost < best_cost {
                        best_cost = cost;
                        best = n;
                    }
                }
                best
            })
            .collect();

        // Exact emissions of this placement: per-edge inference energy
        // over the realized workload plus one initial download.
        let mut total_grams = 0.0;
        for (i, &n) in placements.iter().enumerate() {
            let profile = &zoo.model(n).profile;
            for t in 0..env.horizon() {
                let arrivals = env.workload(i).arrivals(t);
                total_grams += cfg
                    .emission
                    .slot_emissions(
                        profile.energy_per_sample,
                        arrivals,
                        t == 0,
                        env.topology().transfer_energy(i),
                        profile.size,
                    )
                    .get();
            }
        }
        let deficit = total_grams / 1000.0 - cfg.cap.get();

        let buy: Vec<f64> = env.prices().buy_series().iter().map(|p| p.get()).collect();
        let sell: Vec<f64> = env.prices().sell_series().iter().map(|p| p.get()).collect();
        match offline_optimal_trades(
            &buy,
            &sell,
            deficit,
            cfg.bounds.max_buy.get(),
            cfg.bounds.max_sell.get(),
        ) {
            Ok(plan) => Self {
                placements,
                buys: plan.buys,
                sells: plan.sells,
            },
            Err(_) => Self {
                placements,
                buys: vec![cfg.bounds.max_buy.get(); env.horizon()],
                sells: vec![0.0; env.horizon()],
            },
        }
    }

    /// The fixed placement (model per edge).
    #[must_use]
    pub fn placements(&self) -> &[usize] {
        &self.placements
    }
}

impl Policy for OfflinePolicy {
    fn select_models(&mut self, _t: usize) -> Vec<usize> {
        self.placements.clone()
    }

    fn decide_trades(&mut self, t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
        (
            Allowances::new(self.buys[t]),
            Allowances::new(self.sells[t]),
        )
    }

    fn end_of_slot(&mut self, _t: usize, _feedback: &SlotFeedback) {}

    fn name(&self) -> String {
        "Offline".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_edgesim::SimConfig;
    use cne_nn::{ModelZoo, ZooConfig};
    use cne_simdata::dataset::TaskKind;
    use cne_util::SeedSequence;

    fn setup() -> (ModelZoo, SimConfig) {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(5),
        );
        (zoo, SimConfig::fast_test(TaskKind::MnistLike))
    }

    #[test]
    fn offline_is_neutral_and_never_switches_after_start() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(6));
        let mut offline = OfflinePolicy::plan(&env);
        let record = env.run(&mut offline);
        // One initial download per edge, none after.
        assert_eq!(record.total_switches() as usize, env.num_edges());
        // Fully covered emissions (constraint (1c) holds exactly).
        assert!(
            record.ledger.is_neutral(),
            "offline must satisfy neutrality; violation {}",
            record.violation()
        );
    }

    #[test]
    fn offline_placement_minimizes_expected_cost() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(7));
        let offline = OfflinePolicy::plan(&env);
        for (i, &chosen) in offline.placements().iter().enumerate() {
            let cost = |n: usize| env.inference_cost(i, n);
            for n in 0..zoo.len() {
                assert!(
                    cost(chosen) <= cost(n) + 1e-12,
                    "edge {i}: model {chosen} not optimal vs {n}"
                );
            }
        }
    }

    #[test]
    fn offline_beats_every_fixed_suboptimal_trading() {
        // Offline's trading cost must not exceed the trivial plan that
        // buys the deficit uniformly.
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(8));
        let mut offline = OfflinePolicy::plan(&env);
        let record = env.run(&mut offline);
        let deficit = record.ledger.emitted().to_allowances().get() - env.config().cap.get();
        if deficit > 0.0 {
            // Uniform plan cost at average buy price.
            let avg_price: f64 =
                record.slots.iter().map(|s| s.buy_price).sum::<f64>() / record.horizon() as f64;
            let uniform_cost = deficit * avg_price;
            let offline_cash: f64 = record.slots.iter().map(|s| s.trade_cash).sum();
            assert!(
                offline_cash <= uniform_cost + 1e-6,
                "offline trading ({offline_cash}) worse than uniform ({uniform_cost})"
            );
        }
    }
}
