//! The common interface of all trading policies.

use cne_market::TradeBounds;
use cne_util::json::Json;
use cne_util::telemetry::Recorder;
use cne_util::units::{Allowances, PricePerAllowance};

/// Everything a policy may look at when deciding slot `t`'s trades.
///
/// The posted prices of the *current* slot are included because the
/// paper's Threshold and Lyapunov baselines react to them; the paper's
/// own Algorithm 2 deliberately uses only quantities observed up to
/// `t − 1` (delivered through [`TradeObservation`]) and ignores the
/// current prices at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeContext {
    /// Posted buy price `c^t`.
    pub buy_price: PricePerAllowance,
    /// Posted sell price `r^t`.
    pub sell_price: PricePerAllowance,
    /// The per-slot cap share `R/T` in allowances.
    pub cap_share: f64,
    /// The per-slot trade bounds (the feasible box).
    pub bounds: TradeBounds,
}

/// End-of-slot feedback delivered to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeObservation {
    /// Slot emissions `e^t` in allowance units.
    pub emissions: f64,
    /// Executed purchase `z^t` (after clamping).
    pub bought: Allowances,
    /// Executed sale `w^t` (after clamping).
    pub sold: Allowances,
    /// The slot's buy price `c^t`.
    pub buy_price: PricePerAllowance,
    /// The slot's sell price `r^t`.
    pub sell_price: PricePerAllowance,
    /// The per-slot cap share `R/T`.
    pub cap_share: f64,
}

impl TradeObservation {
    /// The constraint function value
    /// `g^t = e^t − R/T − z^t + w^t`.
    #[must_use]
    pub fn constraint_value(&self) -> f64 {
        self.emissions - self.cap_share - self.bought.get() + self.sold.get()
    }

    /// The objective value `f^t = z^t c^t − w^t r^t` in cents.
    #[must_use]
    pub fn objective_value(&self) -> f64 {
        self.bought.get() * self.buy_price.get() - self.sold.get() * self.sell_price.get()
    }
}

/// A sequential carbon-trading policy.
///
/// Slot protocol: [`decide`](Self::decide) is called first (the policy
/// proposes `(z^t, w^t)`), the market executes and the system serves
/// its streams, then [`observe`](Self::observe) reports the realized
/// emissions and executed trades.
pub trait TradingPolicy {
    /// Proposes `(z^t, w^t)` for slot `t` (subsequently clamped by the
    /// market to the bounds in `ctx`).
    fn decide(&mut self, t: usize, ctx: &TradeContext) -> (Allowances, Allowances);

    /// Reports the realized outcome of slot `t`.
    fn observe(&mut self, t: usize, obs: &TradeObservation);

    /// Short display name (used in figure legends).
    fn name(&self) -> &'static str;

    /// The current dual variable λ, for policies that maintain one.
    /// Streaming runs flush the λ-trajectory telemetry only at finish,
    /// so live monitors and dashboards read λ through this accessor
    /// instead. The default (policies without a dual) is `None`.
    fn lambda(&self) -> Option<f64> {
        None
    }

    /// The slot the policy expects to [`decide`](Self::decide) next,
    /// for policies that track it. A resumed run checks it against the
    /// checkpoint's slot. The default (policies that keep no slot
    /// history) is `None`.
    fn next_slot(&self) -> Option<usize> {
        None
    }

    /// Dumps end-of-run internal state (gauges under a `trader.`
    /// prefix) into a telemetry recorder. The default records nothing;
    /// stateful policies override it.
    fn record_telemetry(&self, rec: &mut Recorder) {
        let _ = rec;
    }

    /// Exports the policy's mutable state as JSON, for a checkpoint
    /// taken between slots. The default refuses — a serve daemon would
    /// rather fail the checkpoint than silently drop trading state on
    /// resume. Stateless policies return [`Json::Null`].
    ///
    /// # Errors
    /// Returns an error when the policy does not support
    /// checkpoint/restore.
    fn export_state(&self) -> Result<Json, String> {
        Err(format!(
            "trading policy '{}' does not support checkpoint/restore",
            self.name()
        ))
    }

    /// Restores state produced by [`export_state`](Self::export_state)
    /// onto a freshly built policy (same configuration).
    ///
    /// # Errors
    /// Returns an error when the policy does not support
    /// checkpoint/restore, or when `state` does not match its shape.
    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let _ = state;
        Err(format!(
            "trading policy '{}' does not support checkpoint/restore",
            self.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_and_objective_values() {
        let obs = TradeObservation {
            emissions: 5.0,
            bought: Allowances::new(2.0),
            sold: Allowances::new(1.0),
            buy_price: PricePerAllowance::new(8.0),
            sell_price: PricePerAllowance::new(7.2),
            cap_share: 3.0,
        };
        // g = 5 − 3 − 2 + 1 = 1
        assert!((obs.constraint_value() - 1.0).abs() < 1e-12);
        // f = 2·8 − 1·7.2 = 8.8
        assert!((obs.objective_value() - 8.8).abs() < 1e-12);
    }

    #[test]
    fn object_safe() {
        struct Noop;
        impl TradingPolicy for Noop {
            fn decide(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
                (Allowances::ZERO, Allowances::ZERO)
            }
            fn observe(&mut self, _t: usize, _obs: &TradeObservation) {}
            fn name(&self) -> &'static str {
                "noop"
            }
        }
        let boxed: Box<dyn TradingPolicy> = Box::new(Noop);
        assert_eq!(boxed.name(), "noop");
    }
}
