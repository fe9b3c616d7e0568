//! Regret and fit computation (Theorems 1–3, empirically).
//!
//! * **P1 regret** (per edge): expected inference cost of the pulled
//!   models versus the single best model at hindsight, evaluated with
//!   the pool expectations — exactly the `Reg_{1,i}^T` of Theorem 1,
//!   with the realized switching cost available separately.
//! * **P2 regret**: the trading objective versus the sequence of
//!   one-shot optima `Z̄^{t*} ∈ argmin f^t s.t. g^t(Z) ≤ 0` (Theorem 2).
//! * **Fit**: the positive part of the accumulated constraint,
//!   `‖[Σ_t g^t]⁺‖` (Theorem 2).
//! * **P0 regret**: realized total cost versus the offline benchmark
//!   (Theorem 3's quantity, with `Offline` standing in for `P*`).

use cne_edgesim::{Environment, RunRecord};

/// Per-edge P1 regret: `Σ_n counts_{i,n} κ_{i,n} − T · min_n κ_{i,n}`
/// where `κ_{i,n} = E[l_n] w_loss + v_{i,n} w_latency`.
#[must_use]
pub fn p1_regret_per_edge(env: &Environment<'_>, record: &RunRecord) -> Vec<f64> {
    record
        .edges
        .iter()
        .enumerate()
        .map(|(i, edge)| {
            let costs: Vec<f64> = (0..env.num_models())
                .map(|n| env.inference_cost(i, n))
                .collect();
            let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
            let incurred: f64 = edge
                .selection_counts
                .iter()
                .zip(&costs)
                .map(|(&cnt, &c)| cnt as f64 * c)
                .sum();
            incurred - record.horizon() as f64 * best
        })
        .collect()
}

/// Total P1 regret plus realized switching cost (the left-hand side of
/// Theorem 1 summed over edges, in weighted cost units).
#[must_use]
pub fn p1_regret_with_switching(env: &Environment<'_>, record: &RunRecord) -> f64 {
    let per_edge: f64 = p1_regret_per_edge(env, record).iter().sum();
    let switching: f64 = record.slots.iter().map(|s| s.switch_cost).sum();
    per_edge + switching
}

/// The sequence of one-shot trading optima `f^t(Z̄^{t*})` for the
/// emissions the record realized: cover any slot deficit at the slot's
/// buy price (up to the buy bound), sell any slot surplus at the slot's
/// sell price (up to the sell bound).
#[must_use]
pub fn p2_oneshot_optima(record: &RunRecord, max_buy: f64, max_sell: f64) -> Vec<f64> {
    record
        .slots
        .iter()
        .map(|s| {
            let imbalance = s.emissions - record.cap_share;
            if imbalance >= 0.0 {
                imbalance.min(max_buy) * s.buy_price
            } else {
                -(-imbalance).min(max_sell) * s.sell_price
            }
        })
        .collect()
}

/// P2 regret: realized trading cash flow minus the one-shot optima sum.
#[must_use]
pub fn p2_regret(record: &RunRecord, max_buy: f64, max_sell: f64) -> f64 {
    let realized: f64 = record.slots.iter().map(|s| s.trade_cash).sum();
    let oneshot: f64 = p2_oneshot_optima(record, max_buy, max_sell).iter().sum();
    realized - oneshot
}

/// Fit: `[Σ_t g^t]⁺` at the horizon, in allowances.
#[must_use]
pub fn fit(record: &RunRecord) -> f64 {
    let total_g: f64 = record
        .slots
        .iter()
        .map(|s| s.constraint_value(record.cap_share))
        .sum();
    total_g.max(0.0)
}

/// P0 regret: realized weighted total cost minus the offline
/// benchmark's.
#[must_use]
pub fn p0_regret(record: &RunRecord, offline: &RunRecord) -> f64 {
    record.total_cost() - offline.total_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combos::Combo;
    use crate::offline::OfflinePolicy;
    use cne_edgesim::SimConfig;
    use cne_nn::{ModelZoo, ZooConfig};
    use cne_simdata::dataset::TaskKind;
    use cne_util::SeedSequence;

    fn setup() -> (ModelZoo, SimConfig) {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(9),
        );
        (zoo, SimConfig::fast_test(TaskKind::MnistLike))
    }

    #[test]
    fn offline_p1_regret_is_zero() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(10));
        let mut offline = OfflinePolicy::plan(&env);
        let record = env.run(&mut offline);
        for r in p1_regret_per_edge(&env, &record) {
            assert!(
                r.abs() < 1e-9,
                "offline plays the best fixed model; regret {r}"
            );
        }
    }

    #[test]
    fn offline_fit_is_zero() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(11));
        let mut offline = OfflinePolicy::plan(&env);
        let record = env.run(&mut offline);
        assert!(fit(&record) < 1e-6, "offline fit {}", fit(&record));
    }

    #[test]
    fn random_selector_has_positive_regret() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(12));
        let combo = Combo {
            selector: crate::combos::SelectorKind::Random,
            trader: crate::combos::TraderKind::PrimalDual,
        };
        let mut policy = combo.build(&env, &SeedSequence::new(13));
        let record = env.run(&mut policy);
        let total: f64 = p1_regret_per_edge(&env, &record).iter().sum();
        assert!(total > 0.0, "random selection must incur P1 regret");
    }

    #[test]
    fn oneshot_optima_cover_or_sell() {
        let (zoo, cfg) = setup();
        let max_buy = cfg.bounds.max_buy.get();
        let max_sell = cfg.bounds.max_sell.get();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(14));
        let mut offline = OfflinePolicy::plan(&env);
        let record = env.run(&mut offline);
        let optima = p2_oneshot_optima(&record, max_buy, max_sell);
        for (s, &f) in record.slots.iter().zip(&optima) {
            if s.emissions > record.cap_share {
                assert!(f >= 0.0, "deficit slots cost money");
            } else {
                assert!(f <= 0.0, "surplus slots earn money");
            }
        }
    }

    #[test]
    fn p0_regret_signs() {
        let (zoo, cfg) = setup();
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(15));
        let mut offline = OfflinePolicy::plan(&env);
        let off_record = env.run(&mut offline);
        assert_eq!(p0_regret(&off_record, &off_record), 0.0);
    }
}
