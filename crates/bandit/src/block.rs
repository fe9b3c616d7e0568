//! Algorithm 1: the switching-aware block Tsallis-INF selector.
//!
//! Per block `k` (Algorithm 1 in the paper):
//!
//! 1. compute `p_k = argmin_{p∈Δ} ⟨p, Ĉ_{k−1}⟩ − Σ_n (4√p_n − 2p_n)/η_k`
//!    ([`crate::omd::tsallis_weights`]);
//! 2. sample the block's arm `J_k ~ p_k` and keep it for every slot of
//!    the block;
//! 3. observe the cumulative block loss
//!    `c_{k,J_k} = Σ_{t ∈ B_k} (L^t + v)`;
//! 4. update the unbiased importance-weighted estimate
//!    `Ĉ_k(n) = Ĉ_{k−1}(n) + 1{J_k = n} · c_{k,n} / p_{k,n}`.
//!
//! With [`Schedule::unit`] this is exactly the plain Tsallis-INF
//! baseline (one-slot blocks, no switching control).
//!
//! ## Anchored loss estimates
//!
//! The importance-weighted estimator `c/p` has variance `∝ c²/p`, which
//! is punishing when all arms' losses cluster around a common level (as
//! inference costs do — every model pays a latency floor). Subtracting
//! a running anchor `b` from the observed loss before weighting,
//! `ĉ_n = (c − b·|B_k|)/p_n`, shifts *every* arm's estimate by the same
//! constant in expectation (`E[ĉ_n] = c_n − b·|B_k|`), so the argmin —
//! and hence the OMD iterate — is unchanged while the variance shrinks
//! by orders of magnitude. This is the standard control-variate
//! refinement of Tsallis-INF; [`BlockTsallisInf::with_anchor`] controls
//! it (on by default).

use cne_util::SeedSequence;
use rand::rngs::StdRng;
use rand::Rng;

use crate::omd::tsallis_weights_into;
use crate::schedule::Schedule;
use crate::selector::ModelSelector;

/// The paper's Algorithm 1.
#[derive(Debug, Clone)]
pub struct BlockTsallisInf {
    num_arms: usize,
    schedule: Schedule,
    /// Ĉ_k(n): cumulative importance-weighted loss estimates.
    cum_estimates: Vec<f64>,
    /// Probabilities used for the current block's draw.
    current_probs: Vec<f64>,
    /// Arm selected for the current block.
    current_arm: usize,
    /// Loss accumulated within the current block.
    block_loss: f64,
    /// Set when any slot of the current block lost its feedback (see
    /// [`ModelSelector::observe_lost`]): the block's cumulative loss is
    /// then incomplete, and feeding it through the importance-weighted
    /// estimator would bias `Ĉ` *low* for the drawn arm. The whole
    /// block's update is skipped instead.
    block_tainted: bool,
    /// Next slot we expect to see.
    next_slot: usize,
    /// Running mean of observed per-slot losses (the control-variate
    /// anchor), with its observation count.
    anchor_sum: f64,
    anchor_count: u64,
    anchored: bool,
    /// Normalization root λ of the previous block's OMD solve, used to
    /// warm-start the next solve (consecutive blocks move `Ĉ` little,
    /// so the root barely travels).
    warm_lambda: Option<f64>,
    rng: StdRng,
    name: &'static str,
}

impl BlockTsallisInf {
    /// Creates the selector with the given block schedule.
    ///
    /// # Panics
    /// Panics if `num_arms` is zero.
    #[must_use]
    pub fn new(num_arms: usize, schedule: Schedule, seed: SeedSequence) -> Self {
        assert!(num_arms > 0, "need at least one arm");
        Self {
            num_arms,
            schedule,
            cum_estimates: vec![0.0; num_arms],
            current_probs: vec![1.0 / num_arms as f64; num_arms],
            current_arm: 0,
            block_loss: 0.0,
            block_tainted: false,
            next_slot: 0,
            anchor_sum: 0.0,
            anchor_count: 0,
            anchored: true,
            warm_lambda: None,
            rng: seed.derive("block-tsallis").rng(),
            name: "block-tsallis-inf",
        }
    }

    /// Enables or disables the anchored (control-variate) estimator;
    /// enabled by default. Disable to recover the textbook `c/p`
    /// estimator (used by the estimator ablation).
    #[must_use]
    pub fn with_anchor(mut self, anchored: bool) -> Self {
        self.anchored = anchored;
        self
    }

    /// Creates the plain Tsallis-INF baseline (unit blocks).
    #[must_use]
    pub fn plain(num_arms: usize, horizon: usize, seed: SeedSequence) -> Self {
        let mut s = Self::new(num_arms, Schedule::unit(horizon), seed);
        s.name = "tsallis-inf";
        s
    }

    /// The sampling distribution of the current block (for tests and
    /// the Fig. 8 selection-histogram analysis).
    #[must_use]
    pub fn current_distribution(&self) -> &[f64] {
        &self.current_probs
    }

    /// The cumulative loss estimates `Ĉ` (for tests).
    #[must_use]
    pub fn cumulative_estimates(&self) -> &[f64] {
        &self.cum_estimates
    }

    /// The block schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    fn draw_arm(&mut self) -> usize {
        let x: f64 = self.rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.current_probs.iter().enumerate() {
            acc += p;
            if x < acc {
                return i;
            }
        }
        self.num_arms - 1
    }
}

impl ModelSelector for BlockTsallisInf {
    fn select(&mut self, t: usize) -> usize {
        assert_eq!(t, self.next_slot, "slots must be visited in order");
        assert!(t < self.schedule.horizon(), "slot beyond the horizon");
        if self.schedule.is_block_start(t) {
            let k = self.schedule.block_of(t);
            let mut probs = std::mem::take(&mut self.current_probs);
            let root = tsallis_weights_into(
                &self.cum_estimates,
                self.schedule.eta(k),
                self.warm_lambda,
                &mut probs,
            );
            self.current_probs = probs;
            self.warm_lambda = Some(root);
            self.current_arm = self.draw_arm();
            self.block_loss = 0.0;
            self.block_tainted = false;
        }
        self.current_arm
    }

    fn observe(&mut self, t: usize, arm: usize, loss: f64) {
        assert_eq!(t, self.next_slot, "observe out of order");
        assert_eq!(arm, self.current_arm, "observed arm differs from selection");
        assert!(loss.is_finite(), "loss must be finite");
        self.block_loss += loss;
        self.anchor_sum += loss;
        self.anchor_count += 1;
        if self.schedule.is_block_end(t) && !self.block_tainted {
            // Importance-weighted unbiased estimator (Algorithm 1,
            // l. 8–9), with the running-mean anchor subtracted first
            // (a uniform shift of all arms' expectations).
            let p = self.current_probs[self.current_arm];
            let k = self.schedule.block_of(t);
            let anchor = if self.anchored && self.anchor_count > 0 {
                self.anchor_sum / self.anchor_count as f64
            } else {
                0.0
            };
            let shifted = self.block_loss - anchor * self.schedule.block_len(k) as f64;
            self.cum_estimates[self.current_arm] += shifted / p;
        }
        self.next_slot = t + 1;
    }

    fn observe_lost(&mut self, t: usize) {
        assert_eq!(t, self.next_slot, "observe out of order");
        // The block's cumulative loss is now incomplete; taint it so
        // the end-of-block importance-weighted update is skipped. `Ĉ`
        // stays exactly where it was — an unbiased (if less informed)
        // state — and the block schedule stays consistent because the
        // slot clock still advances.
        self.block_tainted = true;
        self.next_slot = t + 1;
    }

    fn num_arms(&self) -> usize {
        self.num_arms
    }

    fn next_slot(&self) -> Option<usize> {
        Some(self.next_slot)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn export_state(&self) -> Result<cne_util::json::Json, String> {
        use cne_util::json::Json;
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Float(x)).collect());
        Ok(Json::Obj(vec![
            ("kind".into(), Json::Str("block-tsallis-inf".into())),
            ("next_slot".into(), Json::UInt(self.next_slot as u64)),
            ("cum_estimates".into(), floats(&self.cum_estimates)),
            ("current_probs".into(), floats(&self.current_probs)),
            ("current_arm".into(), Json::UInt(self.current_arm as u64)),
            ("block_loss".into(), Json::Float(self.block_loss)),
            ("block_tainted".into(), Json::Bool(self.block_tainted)),
            ("anchor_sum".into(), Json::Float(self.anchor_sum)),
            ("anchor_count".into(), Json::UInt(self.anchor_count)),
            ("anchored".into(), Json::Bool(self.anchored)),
            (
                "warm_lambda".into(),
                self.warm_lambda
                    .map_or(cne_util::json::Json::Null, Json::Float),
            ),
        ]))
    }

    fn import_state(&mut self, state: &cne_util::json::Json) -> Result<(), String> {
        use cne_util::json::Json;
        if state.get("kind").and_then(Json::as_str) != Some("block-tsallis-inf") {
            return Err("selector state is not a block-tsallis-inf snapshot".into());
        }
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            state
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("selector state is missing array '{key}'"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("non-numeric entry in '{key}'"))
                })
                .collect()
        };
        let uint = |key: &str| -> Result<u64, String> {
            state
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("selector state is missing integer '{key}'"))
        };
        let float = |key: &str| -> Result<f64, String> {
            state
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("selector state is missing number '{key}'"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            state
                .get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("selector state is missing flag '{key}'"))
        };
        let cum_estimates = floats("cum_estimates")?;
        let current_probs = floats("current_probs")?;
        if cum_estimates.len() != self.num_arms || current_probs.len() != self.num_arms {
            return Err(format!(
                "selector state has {} arms but this selector has {}",
                cum_estimates.len(),
                self.num_arms
            ));
        }
        let next_slot =
            usize::try_from(uint("next_slot")?).map_err(|_| "slot overflow".to_owned())?;
        if next_slot > self.schedule.horizon() {
            return Err(format!(
                "selector state is at slot {next_slot} but the horizon is {}",
                self.schedule.horizon()
            ));
        }
        let current_arm =
            usize::try_from(uint("current_arm")?).map_err(|_| "arm overflow".to_owned())?;
        if current_arm >= self.num_arms {
            return Err(format!(
                "selector state's arm {current_arm} is out of range"
            ));
        }
        if flag("anchored")? != self.anchored {
            return Err("selector state disagrees about the anchored estimator".into());
        }
        let warm_lambda = match state.get("warm_lambda") {
            None => return Err("selector state is missing 'warm_lambda'".into()),
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| "non-numeric 'warm_lambda'".to_owned())?,
            ),
        };
        // Replay the RNG to the checkpointed position: select() makes
        // exactly one uniform draw at each block start, so the number
        // of draws consumed by an uninterrupted run that has finished
        // slots 0..next_slot is the number of block starts among them.
        assert_eq!(
            self.next_slot, 0,
            "import_state requires a freshly built selector"
        );
        let draws = (0..next_slot)
            .filter(|&t| self.schedule.is_block_start(t))
            .count();
        for _ in 0..draws {
            let _: f64 = self.rng.gen();
        }
        self.cum_estimates = cum_estimates;
        self.current_probs = current_probs;
        self.current_arm = current_arm;
        self.block_loss = float("block_loss")?;
        self.block_tainted = flag("block_tainted")?;
        self.next_slot = next_slot;
        self.anchor_sum = float("anchor_sum")?;
        self.anchor_count = uint("anchor_count")?;
        self.warm_lambda = warm_lambda;
        Ok(())
    }

    fn record_telemetry(&self, edge: usize, rec: &mut cne_util::telemetry::Recorder) {
        let (top_arm, top_prob) = self
            .current_probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map_or((0, 0.0), |(i, &p)| (i, p));
        rec.gauge(&format!("selector.edge{edge}.top_arm"), top_arm as f64);
        rec.gauge(&format!("selector.edge{edge}.top_prob"), top_prob);
        rec.gauge(
            &format!("selector.edge{edge}.blocks"),
            self.schedule.num_blocks() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a selector on Bernoulli arms; returns (per-arm pull counts,
    /// number of switches, cumulative realized loss).
    fn run_bernoulli(
        alg: &mut dyn ModelSelector,
        means: &[f64],
        horizon: usize,
        seed: u64,
    ) -> (Vec<usize>, usize, f64) {
        let mut rng = SeedSequence::new(seed).derive("env").rng();
        let mut pulls = vec![0usize; means.len()];
        let mut switches = 0usize;
        let mut last = usize::MAX;
        let mut total = 0.0;
        for t in 0..horizon {
            let arm = alg.select(t);
            if arm != last {
                switches += 1;
                last = arm;
            }
            pulls[arm] += 1;
            let loss = if rng.gen::<f64>() < means[arm] {
                1.0
            } else {
                0.0
            };
            total += loss;
            alg.observe(t, arm, loss);
        }
        (pulls, switches, total)
    }

    #[test]
    fn concentrates_on_best_arm() {
        let means = [0.1, 0.5, 0.5, 0.5, 0.5, 0.5];
        let mut alg =
            BlockTsallisInf::new(6, Schedule::theorem1(1.0, 6, 3000), SeedSequence::new(1));
        let (pulls, _, _) = run_bernoulli(&mut alg, &means, 3000, 2);
        assert!(pulls[0] > 1500, "best arm under-pulled: {pulls:?}");
    }

    #[test]
    fn plain_variant_also_learns() {
        let means = [0.6, 0.2, 0.6];
        let mut alg = BlockTsallisInf::plain(3, 2000, SeedSequence::new(3));
        let (pulls, _, _) = run_bernoulli(&mut alg, &means, 2000, 4);
        assert!(pulls[1] > 1000, "best arm under-pulled: {pulls:?}");
        assert_eq!(alg.name(), "tsallis-inf");
    }

    #[test]
    fn block_variant_switches_less_than_plain() {
        let means = [0.4, 0.45, 0.5, 0.55, 0.5, 0.45];
        let horizon = 2000;
        let mut blocked =
            BlockTsallisInf::new(6, Schedule::theorem1(6.0, 6, horizon), SeedSequence::new(5));
        let mut plain = BlockTsallisInf::plain(6, horizon, SeedSequence::new(5));
        let (_, sw_block, _) = run_bernoulli(&mut blocked, &means, horizon, 6);
        let (_, sw_plain, _) = run_bernoulli(&mut plain, &means, horizon, 6);
        assert!(
            sw_block * 3 < sw_plain,
            "blocking should cut switches: {sw_block} vs {sw_plain}"
        );
        // And the switch count respects the schedule's budget.
        assert!(sw_block <= blocked.schedule().num_blocks());
    }

    #[test]
    fn estimator_is_importance_weighted() {
        let mut alg = BlockTsallisInf::plain(2, 10, SeedSequence::new(7)).with_anchor(false);
        let arm = alg.select(0);
        let p = alg.current_distribution()[arm];
        alg.observe(0, arm, 0.8);
        let c = alg.cumulative_estimates();
        assert!((c[arm] - 0.8 / p).abs() < 1e-12);
        assert_eq!(c[1 - arm], 0.0);
    }

    #[test]
    fn anchored_estimator_subtracts_running_mean() {
        let mut alg = BlockTsallisInf::plain(2, 10, SeedSequence::new(7));
        let arm0 = alg.select(0);
        let p0 = alg.current_distribution()[arm0];
        alg.observe(0, arm0, 0.8);
        // Anchor after one observation equals the observation itself,
        // so the first shifted estimate is zero.
        assert!((alg.cumulative_estimates()[arm0] - 0.0).abs() < 1e-12);
        let _ = p0;
        let arm1 = alg.select(1);
        let p1 = alg.current_distribution()[arm1];
        alg.observe(1, arm1, 0.2);
        // Anchor = mean(0.8, 0.2) = 0.5; shift = 0.2 − 0.5 = −0.3.
        // (When the same arm is drawn twice its estimates accumulate,
        // so only the distinct-arm case is checked exactly.)
        if arm1 != arm0 {
            let expect = -0.3 / p1;
            let got = alg.cumulative_estimates()[arm1];
            assert!(
                (got - expect).abs() < 1e-12,
                "anchored estimate off: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn anchored_concentrates_faster_on_clustered_losses() {
        // Losses cluster at 0.4 vs 0.5: the anchored variant should pull
        // the best arm at least as often as the raw estimator.
        let means = [0.4, 0.5, 0.5, 0.5];
        let run = |anchored: bool| {
            let mut alg =
                BlockTsallisInf::plain(4, 4000, SeedSequence::new(70)).with_anchor(anchored);
            let (pulls, _, _) = run_bernoulli(&mut alg, &means, 4000, 71);
            pulls[0]
        };
        let anchored = run(true);
        let raw = run(false);
        assert!(
            anchored as f64 >= 0.8 * raw as f64,
            "anchoring should not hurt concentration: {anchored} vs {raw}"
        );
    }

    #[test]
    fn arm_constant_within_block() {
        let mut alg = BlockTsallisInf::new(
            4,
            Schedule::from_rule(20, |_k| (5, 0.5)),
            SeedSequence::new(8),
        );
        for block in 0..4 {
            let first = alg.select(block * 5);
            alg.observe(block * 5, first, 0.3);
            for s in 1..5 {
                let t = block * 5 + s;
                assert_eq!(alg.select(t), first, "arm changed inside a block");
                alg.observe(t, first, 0.3);
            }
        }
    }

    #[test]
    fn sublinear_regret_trend() {
        // Empirical check of the Theorem 1 phenomenology: realized
        // regret (vs. always playing the best arm) grows sublinearly.
        let means = [0.2, 0.6, 0.6, 0.6];
        let horizons = [500usize, 2000, 8000];
        let mut regret_rate = Vec::new();
        for &h in &horizons {
            let mut reg_sum = 0.0;
            for trial in 0..3u64 {
                let mut alg = BlockTsallisInf::new(
                    4,
                    Schedule::theorem1(1.0, 4, h),
                    SeedSequence::new(100 + trial),
                );
                let (pulls, _, _) = run_bernoulli(&mut alg, &means, h, 200 + trial);
                // Pseudo-regret from pull counts.
                let reg: f64 = pulls
                    .iter()
                    .zip(&means)
                    .map(|(&n, &m)| n as f64 * (m - 0.2))
                    .sum();
                reg_sum += reg;
            }
            regret_rate.push(reg_sum / 3.0 / h as f64);
        }
        assert!(
            regret_rate[2] < regret_rate[0] * 0.6,
            "per-slot regret failed to shrink: {regret_rate:?}"
        );
    }

    #[test]
    #[should_panic(expected = "slots must be visited in order")]
    fn out_of_order_select_rejected() {
        let mut alg = BlockTsallisInf::plain(2, 10, SeedSequence::new(9));
        let _ = alg.select(3);
    }

    #[test]
    fn lost_feedback_taints_the_whole_block() {
        let mut alg = BlockTsallisInf::new(
            2,
            Schedule::from_rule(8, |_k| (2, 0.5)),
            SeedSequence::new(11),
        )
        .with_anchor(false);
        // Block 0: first slot's feedback is lost; even though the
        // second slot reports normally, the block update must be
        // skipped (its cumulative loss is incomplete).
        let arm = alg.select(0);
        alg.observe_lost(0);
        assert_eq!(alg.select(1), arm, "arm must stay fixed within the block");
        alg.observe(1, arm, 0.9);
        assert!(
            alg.cumulative_estimates().iter().all(|&c| c == 0.0),
            "tainted block leaked into the estimator"
        );
        // Block 1: taint cleared, the estimator updates again.
        let arm1 = alg.select(2);
        let p = alg.current_distribution()[arm1];
        alg.observe(2, arm1, 0.5);
        assert_eq!(alg.select(3), arm1);
        alg.observe(3, arm1, 0.3);
        let got = alg.cumulative_estimates()[arm1];
        assert!(
            (got - 0.8 / p).abs() < 1e-12,
            "post-taint block should update normally: {got}"
        );
        // Block 2: losing the *final* slot also skips the update.
        let arm2 = alg.select(4);
        alg.observe(4, arm2, 0.7);
        assert_eq!(alg.select(5), arm2);
        alg.observe_lost(5);
        let after = alg.cumulative_estimates()[arm1];
        assert!(
            (after - got).abs() < 1e-15 || arm2 != arm1,
            "final-slot loss must not trigger the block update"
        );
        assert!(
            (alg.cumulative_estimates()[arm2] - if arm2 == arm1 { got } else { 0.0 }).abs() < 1e-12
        );
    }

    #[test]
    fn export_import_resumes_bit_identically() {
        // Drive a reference selector to the horizon, an interrupted
        // twin to slot k; restore a fresh same-seed selector from the
        // snapshot and drive both to the end on identical losses.
        let horizon = 60;
        let schedule = || Schedule::theorem1(1.5, 3, horizon);
        let losses: Vec<f64> = (0..horizon)
            .map(|t| ((t * 7 + 3) % 10) as f64 / 10.0)
            .collect();
        for k in [1usize, 17, 30, horizon - 1] {
            let mut reference = BlockTsallisInf::new(3, schedule(), SeedSequence::new(21));
            let mut halted = BlockTsallisInf::new(3, schedule(), SeedSequence::new(21));
            for (t, &loss) in losses.iter().enumerate() {
                if t == k {
                    let snap = halted.export_state().expect("export");
                    // The snapshot survives a JSON round trip exactly.
                    let text = snap.encode();
                    let reparsed = cne_util::json::parse(&text).expect("parse");
                    assert_eq!(reparsed.encode(), text, "snapshot not byte-stable");
                    let mut resumed = BlockTsallisInf::new(3, schedule(), SeedSequence::new(21));
                    resumed.import_state(&reparsed).expect("import");
                    halted = resumed;
                }
                let a = reference.select(t);
                let b = halted.select(t);
                assert_eq!(a, b, "arms diverged at slot {t} after resume at {k}");
                if t % 11 == 5 {
                    reference.observe_lost(t);
                    halted.observe_lost(t);
                } else {
                    reference.observe(t, a, loss);
                    halted.observe(t, b, loss);
                }
            }
            assert_eq!(
                reference.cumulative_estimates(),
                halted.cumulative_estimates(),
                "estimates diverged after resume at {k}"
            );
        }
    }

    #[test]
    fn import_rejects_mismatched_snapshots() {
        let mut alg = BlockTsallisInf::plain(2, 10, SeedSequence::new(22));
        assert!(alg
            .import_state(&cne_util::json::parse("{\"kind\":\"other\"}").unwrap())
            .is_err());
        let four_arms = BlockTsallisInf::plain(4, 10, SeedSequence::new(22))
            .export_state()
            .unwrap();
        assert!(alg.import_state(&four_arms).is_err());
        let unanchored = BlockTsallisInf::plain(2, 10, SeedSequence::new(22))
            .with_anchor(false)
            .export_state()
            .unwrap();
        assert!(alg.import_state(&unanchored).is_err());
    }
}
