//! Algorithm 2: long-term-aware online primal–dual carbon trading.
//!
//! The long-term constraint is absorbed into the Lagrangian
//! `L^t(Z, λ) = f^t(Z) + λ g^t(Z)` and solved by alternating steps
//! (paper equations (4)–(5)):
//!
//! * **primal** (decide `Z̄^t` at the start of slot `t`):
//!
//!   ```text
//!   Z̄^t = argmin_{Z ∈ X̄}  ∇f^{t−1}(Z̄^{t−1})·(Z − Z̄^{t−1})
//!                          + λ^t g^{t−1}(Z)
//!                          + ‖Z − Z̄^{t−1}‖² / (2 γ₂)
//!   ```
//!
//!   Note the *rectified* step: the actual previous constraint function
//!   `g^{t−1}` is penalized (it is already linear in `Z`), not a
//!   first-order surrogate, and a proximal term anchors the update.
//!   With `f` linear and `g` linear, the minimizer is the closed-form
//!   box projection
//!
//!   ```text
//!   z^t = clamp( z^{t−1} − γ₂ (c^{t−1} − λ^t), 0, Z_max )
//!   w^t = clamp( w^{t−1} − γ₂ (λ^t − r^{t−1}), 0, W_max )
//!   ```
//!
//! * **dual** (after observing slot `t`):
//!   `λ^{t+1} = [λ^t + γ₁ g^t(Z̄^t)]⁺`.
//!
//! No information about future prices or emissions is used. Theorem 2
//! gives `O(T^{2/3})` regret and fit with `γ₁, γ₂ ∝ T^{−1/3}`.

use cne_util::json::Json;
use cne_util::units::Allowances;

use crate::policy::{TradeContext, TradeObservation, TradingPolicy};

/// Step sizes of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimalDualConfig {
    /// Dual ascent step `γ₁` (price units per allowance of violation).
    pub gamma1: f64,
    /// Primal proximal step `γ₂` (allowances per price unit).
    pub gamma2: f64,
}

impl PrimalDualConfig {
    /// Explicit step sizes.
    ///
    /// # Panics
    /// Panics unless both steps are positive and finite.
    #[must_use]
    pub fn new(gamma1: f64, gamma2: f64) -> Self {
        assert!(
            gamma1 > 0.0 && gamma1.is_finite(),
            "gamma1 must be positive"
        );
        assert!(
            gamma2 > 0.0 && gamma2.is_finite(),
            "gamma2 must be positive"
        );
        Self { gamma1, gamma2 }
    }

    /// The Theorem 2 schedule `γ₁, γ₂ ∝ T^{−1/3}`, dimensionally scaled:
    /// `price_scale` is a typical allowance price (cents) and
    /// `trade_scale` a typical per-slot trade volume (allowances), so
    /// that the dual variable λ lives on the price scale and primal
    /// moves live on the volume scale.
    ///
    /// # Panics
    /// Panics if `horizon` is zero or a scale is not positive.
    #[must_use]
    pub fn theorem2(horizon: usize, price_scale: f64, trade_scale: f64) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        assert!(
            price_scale > 0.0 && trade_scale > 0.0,
            "scales must be positive"
        );
        let t13 = (horizon as f64).powf(-1.0 / 3.0);
        Self {
            gamma1: (price_scale / trade_scale) * t13 * 4.0,
            gamma2: (trade_scale / price_scale) * t13 * 4.0,
        }
    }
}

/// The paper's Algorithm 2.
///
/// # Examples
///
/// Driving the policy by hand through one slot. The first decision is
/// always `(0, 0)` (no history yet); observing a violating slot raises
/// the dual variable λ, which prices future allowance purchases:
///
/// ```
/// use cne_market::TradeBounds;
/// use cne_trading::policy::{TradeContext, TradeObservation, TradingPolicy};
/// use cne_trading::{PrimalDual, PrimalDualConfig};
/// use cne_util::units::{Allowances, PricePerAllowance};
///
/// let mut alg = PrimalDual::new(PrimalDualConfig::new(0.5, 0.25));
/// let ctx = TradeContext {
///     buy_price: PricePerAllowance::new(8.0),
///     sell_price: PricePerAllowance::new(7.2),
///     cap_share: 3.0,
///     bounds: TradeBounds::new(Allowances::new(10.0), Allowances::new(10.0)),
/// };
/// let (z0, w0) = alg.decide(0, &ctx);
/// assert_eq!((z0.get(), w0.get()), (0.0, 0.0));
///
/// // Slot 0 emitted 5 allowances against a cap share of 3: g = 2.
/// alg.observe(0, &TradeObservation {
///     emissions: 5.0,
///     bought: z0,
///     sold: w0,
///     buy_price: ctx.buy_price,
///     sell_price: ctx.sell_price,
///     cap_share: ctx.cap_share,
/// });
/// assert!((alg.lambda() - 1.0).abs() < 1e-12); // λ ← [0 + 0.5·2]⁺
/// ```
#[derive(Debug, Clone)]
pub struct PrimalDual {
    config: PrimalDualConfig,
    /// Previous primal decision `Z̄^{t−1}`.
    z_prev: f64,
    w_prev: f64,
    /// Dual variable `λ^t`.
    lambda: f64,
    /// `c^{t−1}` / `r^{t−1}` from the last observation.
    prev_buy_price: Option<f64>,
    prev_sell_price: Option<f64>,
    /// `(t, λ^{t+1})` after each dual update — the shadow-price
    /// trajectory dumped into telemetry for the `report` diagnostics.
    trajectory: Vec<(u64, f64)>,
}

impl PrimalDual {
    /// Creates the policy with `Z̄⁰ = (0, 0)` and `λ¹ = 0`
    /// (Algorithm 2's initialization).
    #[must_use]
    pub fn new(config: PrimalDualConfig) -> Self {
        Self {
            config,
            z_prev: 0.0,
            w_prev: 0.0,
            lambda: 0.0,
            prev_buy_price: None,
            prev_sell_price: None,
            trajectory: Vec::new(),
        }
    }

    /// As [`PrimalDual::new`], pre-reserving the λ-trajectory buffer
    /// for a known horizon so the per-slot dual update never
    /// reallocates mid-run.
    #[must_use]
    pub fn with_horizon(config: PrimalDualConfig, horizon: usize) -> Self {
        let mut s = Self::new(config);
        s.trajectory.reserve_exact(horizon);
        s
    }

    /// The current dual variable `λ` (the shadow carbon price).
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The dual-variable trajectory: `(t, λ^{t+1})` after each
    /// observed slot.
    #[must_use]
    pub fn lambda_trajectory(&self) -> &[(u64, f64)] {
        &self.trajectory
    }

    /// The step sizes in use.
    #[must_use]
    pub fn config(&self) -> PrimalDualConfig {
        self.config
    }
}

impl TradingPolicy for PrimalDual {
    /// The rectified proximal primal step (eq. (4)'s closed form).
    fn decide(&mut self, _t: usize, ctx: &TradeContext) -> (Allowances, Allowances) {
        let (z, w) = match (self.prev_buy_price, self.prev_sell_price) {
            // First slot: no history yet, stay at Z̄⁰.
            (None, _) | (_, None) => (self.z_prev, self.w_prev),
            (Some(c_prev), Some(r_prev)) => {
                let z = (self.z_prev - self.config.gamma2 * (c_prev - self.lambda))
                    .clamp(0.0, ctx.bounds.max_buy.get());
                let w = (self.w_prev - self.config.gamma2 * (self.lambda - r_prev))
                    .clamp(0.0, ctx.bounds.max_sell.get());
                (z, w)
            }
        };
        self.z_prev = z;
        self.w_prev = w;
        (Allowances::new(z), Allowances::new(w))
    }

    fn observe(&mut self, t: usize, obs: &TradeObservation) {
        // Dual ascent on the realized constraint value (eq. (5)).
        let g = obs.constraint_value();
        self.lambda = (self.lambda + self.config.gamma1 * g).max(0.0);
        self.trajectory.push((t as u64, self.lambda));
        self.prev_buy_price = Some(obs.buy_price.get());
        self.prev_sell_price = Some(obs.sell_price.get());
    }

    fn name(&self) -> &'static str {
        "primal-dual"
    }

    fn lambda(&self) -> Option<f64> {
        Some(self.lambda)
    }

    fn next_slot(&self) -> Option<usize> {
        // `observe` appends one trajectory point per slot, and
        // `import_state` only accepts trajectories over slots 0, 1, ….
        Some(self.trajectory.len())
    }

    fn record_telemetry(&self, rec: &mut cne_util::telemetry::Recorder) {
        for &(t, lambda) in &self.trajectory {
            rec.event(Some(t), "lambda", &[("value", lambda.into())]);
        }
        rec.gauge("trader.lambda", self.lambda);
        rec.gauge("trader.z_prev", self.z_prev);
        rec.gauge("trader.w_prev", self.w_prev);
    }

    fn export_state(&self) -> Result<Json, String> {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
        Ok(Json::Obj(vec![
            ("kind".into(), Json::Str("primal-dual".into())),
            ("z_prev".into(), Json::Float(self.z_prev)),
            ("w_prev".into(), Json::Float(self.w_prev)),
            ("lambda".into(), Json::Float(self.lambda)),
            ("prev_buy_price".into(), opt(self.prev_buy_price)),
            ("prev_sell_price".into(), opt(self.prev_sell_price)),
            (
                "trajectory".into(),
                Json::Arr(
                    self.trajectory
                        .iter()
                        .map(|&(t, l)| Json::Arr(vec![Json::UInt(t), Json::Float(l)]))
                        .collect(),
                ),
            ),
        ]))
    }

    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        if state.get("kind").and_then(Json::as_str) != Some("primal-dual") {
            return Err("trading state is not a primal-dual snapshot".into());
        }
        let float = |key: &str| -> Result<f64, String> {
            state
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trading state is missing number '{key}'"))
        };
        let opt = |key: &str| -> Result<Option<f64>, String> {
            match state.get(key) {
                None => Err(format!("trading state is missing '{key}'")),
                Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("non-numeric '{key}'")),
            }
        };
        let trajectory = state
            .get("trajectory")
            .and_then(Json::as_array)
            .ok_or_else(|| "trading state is missing 'trajectory'".to_owned())?
            .iter()
            .map(|pair| {
                let items = pair.as_array().filter(|a| a.len() == 2);
                let items = items.ok_or_else(|| "malformed trajectory entry".to_owned())?;
                let t = items[0]
                    .as_u64()
                    .ok_or_else(|| "malformed trajectory slot".to_owned())?;
                let l = items[1]
                    .as_f64()
                    .ok_or_else(|| "malformed trajectory value".to_owned())?;
                Ok((t, l))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(k) = (0..trajectory.len()).find(|&k| trajectory[k].0 != k as u64) {
            return Err(format!(
                "trajectory entry {k} is for slot {}, expected slot {k}",
                trajectory[k].0
            ));
        }
        self.z_prev = float("z_prev")?;
        self.w_prev = float("w_prev")?;
        self.lambda = float("lambda")?;
        self.prev_buy_price = opt("prev_buy_price")?;
        self.prev_sell_price = opt("prev_sell_price")?;
        self.trajectory = trajectory;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_market::TradeBounds;
    use cne_util::units::PricePerAllowance;

    fn ctx(c: f64, r: f64, cap_share: f64) -> TradeContext {
        TradeContext {
            buy_price: PricePerAllowance::new(c),
            sell_price: PricePerAllowance::new(r),
            cap_share,
            bounds: TradeBounds::new(Allowances::new(10.0), Allowances::new(10.0)),
        }
    }

    fn obs(z: f64, w: f64, e: f64, c: f64, r: f64, cap_share: f64) -> TradeObservation {
        TradeObservation {
            emissions: e,
            bought: Allowances::new(z),
            sold: Allowances::new(w),
            buy_price: PricePerAllowance::new(c),
            sell_price: PricePerAllowance::new(r),
            cap_share,
        }
    }

    /// Runs the policy against constant prices/emissions and returns
    /// cumulative (bought, sold, violation of Σg ≤ 0).
    fn run_constant(
        emissions: f64,
        cap_share: f64,
        horizon: usize,
        cfg: PrimalDualConfig,
    ) -> (f64, f64, f64) {
        let mut alg = PrimalDual::new(cfg);
        let mut total_z = 0.0;
        let mut total_w = 0.0;
        let mut sum_g = 0.0;
        for t in 0..horizon {
            let c = ctx(8.0, 7.2, cap_share);
            let (z, w) = alg.decide(t, &c);
            total_z += z.get();
            total_w += w.get();
            let o = obs(z.get(), w.get(), emissions, 8.0, 7.2, cap_share);
            sum_g += o.constraint_value();
            alg.observe(t, &o);
        }
        (total_z, total_w, sum_g.max(0.0))
    }

    #[test]
    fn primal_step_matches_closed_form() {
        let cfg = PrimalDualConfig::new(0.5, 0.25);
        let mut alg = PrimalDual::new(cfg);
        let c = ctx(8.0, 7.2, 3.0);
        // t = 0: no history → (0, 0).
        let (z0, w0) = alg.decide(0, &c);
        assert_eq!((z0.get(), w0.get()), (0.0, 0.0));
        // Observe a violating slot: g = 5 − 3 − 0 + 0 = 2 → λ = 1.0.
        alg.observe(0, &obs(0.0, 0.0, 5.0, 8.0, 7.2, 3.0));
        assert!((alg.lambda() - 1.0).abs() < 1e-12);
        // t = 1: z = clamp(0 − 0.25(8 − 1)) = 0; w = clamp(0 − 0.25(1 − 7.2)) = 1.55.
        let (z1, w1) = alg.decide(1, &c);
        assert!((z1.get() - 0.0).abs() < 1e-12);
        assert!((w1.get() - 1.55).abs() < 1e-12);
    }

    #[test]
    fn dual_variable_is_nonnegative() {
        let mut alg = PrimalDual::new(PrimalDualConfig::new(1.0, 1.0));
        // Strongly satisfied constraint drives λ toward 0, never below.
        for t in 0..10 {
            let c = ctx(8.0, 7.2, 10.0);
            let (z, w) = alg.decide(t, &c);
            alg.observe(t, &obs(z.get(), w.get(), 0.0, 8.0, 7.2, 10.0));
            assert!(alg.lambda() >= 0.0);
        }
        assert_eq!(alg.lambda(), 0.0);
    }

    #[test]
    fn covers_persistent_deficit() {
        // Emissions exceed the cap share by 2 every slot; the policy
        // must end up buying roughly the deficit.
        let horizon = 400;
        let cfg = PrimalDualConfig::theorem2(horizon, 8.0, 5.0);
        let (z, w, violation) = run_constant(5.0, 3.0, horizon, cfg);
        let deficit = 2.0 * horizon as f64;
        let net = z - w;
        assert!(
            (net - deficit).abs() < 0.25 * deficit,
            "net purchases {net} should approach the deficit {deficit}"
        );
        // Time-averaged violation must be small (sub-linear fit).
        let avg_violation = violation / horizon as f64;
        assert!(
            avg_violation < 0.5,
            "time-averaged violation too large: {avg_violation}"
        );
    }

    #[test]
    fn surplus_gets_sold() {
        // Emissions far below the cap share: the policy should sell.
        let horizon = 400;
        let cfg = PrimalDualConfig::theorem2(horizon, 8.0, 5.0);
        let (z, w, _) = run_constant(0.5, 3.0, horizon, cfg);
        assert!(w > z, "should be a net seller: bought {z}, sold {w}");
    }

    #[test]
    fn lambda_tracks_price_scale_under_deficit() {
        let horizon = 600;
        let cfg = PrimalDualConfig::theorem2(horizon, 8.0, 5.0);
        let mut alg = PrimalDual::new(cfg);
        for t in 0..horizon {
            let c = ctx(8.0, 7.2, 3.0);
            let (z, w) = alg.decide(t, &c);
            alg.observe(t, &obs(z.get(), w.get(), 5.0, 8.0, 7.2, 3.0));
        }
        // In steady state the shadow price settles near the market
        // price band (λ ≈ c makes buying marginal).
        assert!(
            (4.0..=14.0).contains(&alg.lambda()),
            "λ off the price scale: {}",
            alg.lambda()
        );
    }

    #[test]
    fn buys_more_when_prices_drop() {
        // Two-phase price series: expensive then cheap, with deficit.
        let horizon = 600;
        let cfg = PrimalDualConfig::theorem2(horizon, 8.0, 5.0);
        let mut alg = PrimalDual::new(cfg);
        let mut bought_dear = 0.0;
        let mut bought_cheap = 0.0;
        for t in 0..horizon {
            let price = if t % 2 == 0 { 10.5 } else { 6.0 };
            let c = ctx(price, price * 0.9, 3.0);
            let (z, w) = alg.decide(t, &c);
            // Decision at t uses price of t−1; attribute to that price.
            if t > 0 {
                let prev_price = if (t - 1) % 2 == 0 { 10.5 } else { 6.0 };
                if prev_price > 8.0 {
                    bought_dear += z.get();
                } else {
                    bought_cheap += z.get();
                }
            }
            alg.observe(t, &obs(z.get(), w.get(), 5.0, price, price * 0.9, 3.0));
        }
        assert!(
            bought_cheap > bought_dear,
            "should buy more after cheap slots: cheap {bought_cheap} vs dear {bought_dear}"
        );
    }

    #[test]
    #[should_panic(expected = "gamma1")]
    fn rejects_bad_steps() {
        let _ = PrimalDualConfig::new(0.0, 1.0);
    }

    #[test]
    fn export_import_resumes_bit_identically() {
        let horizon = 50;
        for k in [1usize, 20, horizon - 1] {
            let cfg = PrimalDualConfig::theorem2(horizon, 8.0, 5.0);
            let mut reference = PrimalDual::new(cfg);
            let mut halted = PrimalDual::new(cfg);
            for t in 0..horizon {
                if t == k {
                    let snap = halted.export_state().expect("export");
                    let text = snap.encode();
                    let reparsed = cne_util::json::parse(&text).expect("parse");
                    assert_eq!(reparsed.encode(), text, "snapshot not byte-stable");
                    let mut resumed = PrimalDual::new(cfg);
                    resumed.import_state(&reparsed).expect("import");
                    halted = resumed;
                }
                let price = 6.0 + ((t * 3) % 5) as f64;
                let c = ctx(price, price * 0.9, 3.0);
                let (za, wa) = reference.decide(t, &c);
                let (zb, wb) = halted.decide(t, &c);
                assert_eq!(
                    (za, wa),
                    (zb, wb),
                    "trades diverged at slot {t} (resume {k})"
                );
                let o = obs(za.get(), wa.get(), 5.0, price, price * 0.9, 3.0);
                reference.observe(t, &o);
                halted.observe(t, &o);
            }
            assert_eq!(reference.lambda(), halted.lambda());
            assert_eq!(reference.lambda_trajectory(), halted.lambda_trajectory());
        }
    }

    #[test]
    fn import_rejects_foreign_snapshots() {
        let mut alg = PrimalDual::new(PrimalDualConfig::new(0.5, 0.25));
        let bad = cne_util::json::parse("{\"kind\":\"other\"}").unwrap();
        assert!(alg.import_state(&bad).is_err());
    }
}
