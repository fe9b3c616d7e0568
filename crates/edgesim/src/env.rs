//! The pre-realized simulation environment and the run loop.

use std::panic::resume_unwind;

use cne_faults::{FaultSchedule, TradeCarry, TradeCarryParts};
use cne_market::{AllowanceLedger, CarbonMarket, LedgerParts, TradeReceipt};
use cne_nn::ModelZoo;
use cne_simdata::prices::PriceSeries;
use cne_simdata::stream::DataStream;
use cne_simdata::topology::Topology;
use cne_simdata::workload::{DiurnalWorkload, WorkloadTrace};
use cne_trading::policy::{TradeContext, TradeObservation};
use cne_util::pad::CachePadded;
use cne_util::span::Profiler;
use cne_util::telemetry::Recorder;
use cne_util::units::{Allowances, Cents};
use cne_util::SeedSequence;

use crate::config::SimConfig;
use crate::lanes::{replay_tele, EdgeLanes, EdgePartial, PendingDownload, TeleOp, TeleSink};
use crate::policy::{EdgeSlotOutcome, Policy, SlotFeedback};
use crate::record::{RunRecord, SlotRecord};

/// A fully realized simulation instance.
///
/// Everything that does not depend on policy decisions — topology,
/// per-edge workload traces and the price series — is drawn once at
/// construction, so multiple policies run on *identical* inputs (the
/// paper compares algorithms on the same traces). A streaming
/// environment ([`Environment::streaming`]) receives the arrival
/// counts one slot at a time instead. Each edge's request sample is
/// drawn where it is served, by the [`RunStepper`], from a stream
/// seeded here, so every run of one environment sees identical draws.
#[derive(Debug)]
pub struct Environment<'a> {
    config: SimConfig,
    zoo: &'a ModelZoo,
    topology: Topology,
    workloads: Vec<WorkloadTrace>,
    prices: PriceSeries,
    /// `v_{i,n}` in ms: model base latency × edge compute factor,
    /// clamped to the paper's `[25, 150]` ms band.
    latencies: Vec<Vec<f64>>,
    /// Root of the per-edge sample streams: edge `i` draws from
    /// `stream_seed.derive_index(i)` in every stepper.
    stream_seed: SeedSequence,
    market: CarbonMarket,
    /// Model-quality permutation applied from `quality_drift_at`
    /// onward (rank reversal by expected loss), when configured.
    drift_perm: Option<Vec<usize>>,
    /// Realized fault schedule when [`SimConfig::faults`] is set.
    faults: Option<FaultSchedule>,
    /// Slots whose arrivals have been ingested so far. Batch
    /// environments are fully ingested at construction.
    ingested: usize,
}

/// The realized arrival count of edge `i` at slot `t`: a surge
/// multiplies the raw count, then an outage zeroes it.
fn shape_arrivals(schedule: &FaultSchedule, i: usize, t: usize, raw: u64) -> u64 {
    let mut count = raw;
    if schedule.surge(i, t) {
        count = (count as f64 * schedule.scenario().surge_multiplier).round() as u64;
    }
    if schedule.edge_outage(i, t) {
        count = 0;
    }
    count
}

/// What [`resolve_download`] decided for one edge-slot.
struct DownloadResolution {
    /// Model the edge actually hosts this slot.
    served: usize,
    /// Whether a download completed this slot.
    switched: bool,
    /// Fault-delayed slots the completed switch recovered from.
    retries: u32,
    /// The slot's loss feedback is lost (outage or stale model).
    feedback_lost: bool,
}

/// Graceful degradation of model downloads: on an outage or a failed
/// download the edge keeps serving its previous model, retries with
/// bounded exponential backoff, and charges the switching cost only
/// when the download finally lands. The very first download of an edge
/// cannot fail (there is no previous model to fall back to), and after
/// `max_download_retries` consecutive failures the fetch fails over
/// and succeeds, bounding the degradation window.
fn resolve_download(
    schedule: &FaultSchedule,
    pending: &mut PendingDownload,
    i: usize,
    t: usize,
    prev: Option<usize>,
    desired: usize,
    sink: &mut TeleSink,
) -> DownloadResolution {
    let scenario = schedule.scenario();
    if schedule.edge_outage(i, t) {
        if sink.active() {
            sink.incr("faults.injected");
            sink.incr("faults.edge_outage");
            sink.event(
                t as u64,
                "fault",
                &[("fault", "edge_outage".into()), ("edge", i.into())],
            );
        }
        if prev != Some(desired) {
            pending.retarget(desired);
            pending.delayed_slots += 1;
        }
        // Edge down: nothing served, nothing downloaded, feedback lost.
        return DownloadResolution {
            served: prev.unwrap_or(desired),
            switched: false,
            retries: 0,
            feedback_lost: true,
        };
    }
    if prev == Some(desired) {
        // No switch wanted; any retry state for a stale target is moot.
        *pending = PendingDownload::default();
        return DownloadResolution {
            served: desired,
            switched: false,
            retries: 0,
            feedback_lost: false,
        };
    }
    pending.retarget(desired);
    if (t as u64) < pending.next_attempt_slot {
        // Backoff window: keep serving the stale model, no attempt.
        pending.delayed_slots += 1;
        return DownloadResolution {
            served: prev.expect("backoff implies a fallback model"),
            switched: false,
            retries: 0,
            feedback_lost: true,
        };
    }
    let fails = prev.is_some()
        && pending.attempts < scenario.max_download_retries
        && schedule.download_failure(i, t);
    if fails {
        pending.attempts += 1;
        pending.delayed_slots += 1;
        pending.next_attempt_slot = t as u64 + 1 + scenario.backoff().delay_slots(pending.attempts);
        if sink.active() {
            sink.incr("faults.injected");
            sink.incr("faults.download_failure");
            sink.event(
                t as u64,
                "fault",
                &[
                    ("fault", "download_failure".into()),
                    ("edge", i.into()),
                    ("target", desired.into()),
                    ("attempt", u64::from(pending.attempts).into()),
                ],
            );
        }
        return DownloadResolution {
            served: prev.expect("first download cannot fail"),
            switched: false,
            retries: 0,
            feedback_lost: true,
        };
    }
    // Download lands (possibly by failing over past the retry budget).
    let retries = pending.delayed_slots;
    if retries > 0 && sink.active() {
        sink.incr("faults.recoveries");
        sink.event(
            t as u64,
            "recovery",
            &[
                ("recovery", "download".into()),
                ("edge", i.into()),
                ("model", desired.into()),
                ("delayed_slots", u64::from(retries).into()),
            ],
        );
    }
    *pending = PendingDownload::default();
    DownloadResolution {
        served: desired,
        switched: true,
        retries,
        feedback_lost: false,
    }
}

impl<'a> Environment<'a> {
    /// Realizes an environment from a configuration, a trained zoo, and
    /// a seed.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    #[must_use]
    pub fn new(config: SimConfig, zoo: &'a ModelZoo, seed: &SeedSequence) -> Self {
        config.validate().expect("invalid simulator configuration");
        let workload_gen = DiurnalWorkload::new(config.workload);
        let workloads: Vec<WorkloadTrace> = (0..config.num_edges)
            .map(|i| workload_gen.trace(i, &seed.derive("workload")))
            .collect();
        Self::build(config, zoo, seed, workloads)
    }

    /// As [`Environment::new`], but replaying an explicit
    /// per-edge raw arrival trace instead of drawing the diurnal
    /// workload — the batch twin of a streamed run. The counts are
    /// *pre-fault* arrivals: an attached fault scenario shapes them
    /// (surges multiply, outages zero) exactly as it shapes drawn
    /// workloads, so a served stream and its batch replay see
    /// identical realized slots.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, or if `arrivals` is not
    /// one row per edge with one count per slot.
    #[must_use]
    pub fn with_arrival_trace(
        config: SimConfig,
        zoo: &'a ModelZoo,
        seed: &SeedSequence,
        arrivals: &[Vec<u64>],
    ) -> Self {
        config.validate().expect("invalid simulator configuration");
        assert_eq!(
            arrivals.len(),
            config.num_edges,
            "arrival trace needs one row per edge"
        );
        let workloads: Vec<WorkloadTrace> = arrivals
            .iter()
            .map(|row| {
                assert_eq!(
                    row.len(),
                    config.horizon,
                    "each edge's arrival row needs one count per slot"
                );
                WorkloadTrace::from_counts(row.clone())
            })
            .collect();
        Self::build(config, zoo, seed, workloads)
    }

    /// Realizes a *streaming* environment: everything that does not
    /// depend on arrivals (topology, fault schedule, prices,
    /// latencies, the stream seed) is drawn up front from the same
    /// seed subtrees as batch construction, while the per-slot arrival
    /// counts are supplied later, one slot at a time, through
    /// [`Environment::ingest_slot`].
    ///
    /// Stepping slot t once it is ingested, for every t in order,
    /// reproduces a run of [`Environment::with_arrival_trace`] on the
    /// same raw counts bit-identically: the stepper draws each edge's
    /// sample as it serves it, whenever the counts arrived.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    #[must_use]
    pub fn streaming(config: SimConfig, zoo: &'a ModelZoo, seed: &SeedSequence) -> Self {
        config.validate().expect("invalid simulator configuration");
        let workloads: Vec<WorkloadTrace> = (0..config.num_edges)
            .map(|_| WorkloadTrace::from_counts(vec![0; config.horizon]))
            .collect();
        let mut env = Self::build(config, zoo, seed, workloads);
        env.ingested = 0;
        env
    }

    /// Shared constructor body: realizes everything around the given
    /// raw (pre-fault) workload traces, fully ingested.
    fn build(
        config: SimConfig,
        zoo: &'a ModelZoo,
        seed: &SeedSequence,
        mut workloads: Vec<WorkloadTrace>,
    ) -> Self {
        config.validate().expect("invalid simulator configuration");
        assert_eq!(
            config.task,
            zoo.kind(),
            "zoo was trained for a different task"
        );
        let topology = Topology::generate(config.num_edges, config.topology, &seed.derive("topo"));
        // Realize the fault schedule from its own dedicated seed stream
        // (attaching a scenario never perturbs any other realization),
        // then apply the workload-shaping faults — outages zero a
        // slot's arrivals, surges multiply them — to the traces,
        // exactly as `ingest_slot` shapes a streamed slot.
        let faults = config.faults.as_ref().map(|scenario| {
            FaultSchedule::realize(
                scenario.clone(),
                config.num_edges,
                config.horizon,
                &seed.derive("faults"),
            )
        });
        if let Some(schedule) = &faults {
            for (i, trace) in workloads.iter_mut().enumerate() {
                for t in 0..config.horizon {
                    trace.set(t, shape_arrivals(schedule, i, t, trace.arrivals(t)));
                }
            }
        }
        let prices =
            config
                .price_model
                .generate(config.horizon, config.sell_ratio, &seed.derive("prices"));
        let latencies: Vec<Vec<f64>> = (0..config.num_edges)
            .map(|i| {
                zoo.models()
                    .iter()
                    .map(|m| {
                        (m.profile.base_latency.get() * topology.compute_factor(i))
                            .clamp(25.0, 150.0)
                    })
                    .collect()
            })
            .collect();
        let market = CarbonMarket::new(config.bounds);
        // Rank-reversal permutation for the drift extension: the model
        // with the k-th lowest expected loss inherits the table of the
        // k-th highest.
        let drift_perm = config.quality_drift_at.map(|_| {
            let mut order: Vec<usize> = (0..zoo.len()).collect();
            order.sort_by(|&a, &b| {
                zoo.model(a)
                    .eval
                    .expected_loss()
                    .partial_cmp(&zoo.model(b).eval.expected_loss())
                    .expect("finite losses")
            });
            let mut perm = vec![0usize; zoo.len()];
            for (rank, &model) in order.iter().enumerate() {
                perm[model] = order[zoo.len() - 1 - rank];
            }
            perm
        });
        let ingested = config.horizon;
        Self {
            config,
            zoo,
            topology,
            workloads,
            prices,
            latencies,
            stream_seed: seed.derive("stream"),
            market,
            drift_perm,
            faults,
            ingested,
        }
    }

    /// Number of slots whose arrivals are already ingested (always the
    /// full horizon for batch environments).
    #[must_use]
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Feeds one slot of raw (pre-fault) per-edge arrival counts into a
    /// streaming environment: the attached fault schedule shapes the
    /// counts (surges multiply, outages zero) and the workload trace
    /// records them. Slots must be ingested in order, starting at 0.
    ///
    /// # Panics
    /// Panics on a batch environment (already fully ingested), on an
    /// out-of-order or past-horizon slot, or when `raw` is not one
    /// count per edge.
    pub fn ingest_slot(&mut self, t: usize, raw: &[u64]) {
        assert_eq!(t, self.ingested, "slots must be ingested in order");
        assert!(t < self.config.horizon, "slot {t} is past the horizon");
        assert_eq!(
            raw.len(),
            self.config.num_edges,
            "ingest needs one count per edge"
        );
        for (i, &count) in raw.iter().enumerate() {
            let count = match &self.faults {
                Some(schedule) => shape_arrivals(schedule, i, t, count),
                None => count,
            };
            self.workloads[i].set(t, count);
        }
        self.ingested += 1;
    }

    /// The eval-table index model `n` maps to at slot `t` (identity
    /// unless the drift experiment is active and past its onset).
    #[must_use]
    pub fn effective_table(&self, n: usize, t: usize) -> usize {
        match (self.config.quality_drift_at, &self.drift_perm) {
            (Some(at), Some(perm)) if t >= at => perm[n],
            _ => n,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The trained model zoo.
    #[must_use]
    pub fn zoo(&self) -> &ModelZoo {
        self.zoo
    }

    /// The realized topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The realized price series.
    #[must_use]
    pub fn prices(&self) -> &PriceSeries {
        &self.prices
    }

    /// The workload trace of edge `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn workload(&self, i: usize) -> &WorkloadTrace {
        &self.workloads[i]
    }

    /// Expected inference cost `κ_{i,n} = E[l_n] · w_loss + v_{i,n} ·
    /// w_latency` of model `n` on edge `i`: what P1 regret charges and
    /// Offline's placement minimizes.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    #[must_use]
    pub fn inference_cost(&self, i: usize, n: usize) -> f64 {
        self.zoo.model(n).eval.expected_loss() * self.config.weights.loss
            + self.latencies[i][n] * self.config.weights.latency_per_ms
    }

    /// Download delay `u_i` in milliseconds.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn download_delay_ms(&self, i: usize) -> f64 {
        self.topology.download_delay(i).get()
    }

    /// Number of models `N`.
    #[must_use]
    pub fn num_models(&self) -> usize {
        self.zoo.len()
    }

    /// Number of edges `I`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.config.num_edges
    }

    /// Horizon `T`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.config.horizon
    }

    /// Runs a policy through the whole horizon.
    ///
    /// # Panics
    /// Panics if the policy returns a malformed placement vector.
    pub fn run(&self, policy: &mut dyn Policy) -> RunRecord {
        self.run_with(policy, None, None)
    }

    /// Runs a policy through the whole horizon while recording
    /// telemetry: `switch`/`trade` events per slot, a `violation`
    /// event at settlement, counters, and end-of-run gauges.
    ///
    /// The returned [`RunRecord`] is bit-identical to [`Self::run`]
    /// with the same policy state — tracing only observes the run —
    /// and every recorded quantity is deterministic in
    /// `(seed, config, policy)`. Wall-clock timing lives in the
    /// separate profile stream of [`Self::run_with`], never here, so
    /// trace files stay bit-identical across thread counts and
    /// machines.
    ///
    /// # Panics
    /// Panics if the policy returns a malformed placement vector.
    pub fn run_traced(
        &self,
        policy: &mut dyn Policy,
        telemetry: &mut cne_util::telemetry::Recorder,
    ) -> RunRecord {
        self.run_with(policy, Some(telemetry), None)
    }

    /// Runs a policy through the whole horizon with every
    /// instrumentation option explicit, by stepping a one-lane
    /// [`RunStepper`] slot by slot — the same engine a serve daemon
    /// drives, so a batch run and a streamed run of the same arrivals
    /// agree byte-for-byte by construction.
    ///
    /// A supplied profiler records wall-clock stage spans only:
    /// `run` → `slot` → `select` / `trade` / `serve` / `feedback`,
    /// never anything per edge. Profiling only observes the run: the
    /// record and any telemetry are bit-identical to the unprofiled
    /// run.
    ///
    /// # Panics
    /// Panics if the policy returns a malformed placement vector.
    pub fn run_with(
        &self,
        policy: &mut dyn Policy,
        mut telemetry: Option<&mut cne_util::telemetry::Recorder>,
        mut profiler: Option<&mut Profiler>,
    ) -> RunRecord {
        let mut stepper = self.stepper(1);
        span_enter(&mut profiler, "run");
        for _ in 0..self.config.horizon {
            stepper.step(
                self,
                policy,
                telemetry.as_deref_mut(),
                profiler.as_deref_mut(),
            );
        }
        span_exit(&mut profiler); // run
        stepper.finish(self, policy, telemetry)
    }

    /// One slot of allowance trading under an active fault schedule:
    /// halted or rejected orders are retried with bounded exponential
    /// backoff, and the unmet position is carried forward so the
    /// carbon-neutrality accounting never silently leaks a request.
    /// With a zero-rate schedule this reduces exactly to
    /// [`CarbonMarket::execute`] on the policy's request.
    #[allow(clippy::too_many_arguments)]
    fn execute_with_faults(
        &self,
        t: usize,
        schedule: &FaultSchedule,
        carry: &mut TradeCarry,
        ctx: &TradeContext,
        z: Allowances,
        w: Allowances,
        ledger: &mut AllowanceLedger,
        telemetry: Option<&mut Recorder>,
    ) -> TradeReceipt {
        let nothing = TradeReceipt {
            bought: Allowances::ZERO,
            sold: Allowances::ZERO,
            cost: Cents::ZERO,
            revenue: Cents::ZERO,
        };
        // Only the *executable* part of the fresh request enters the
        // carry: the fault-free market silently clamps to the per-slot
        // bounds, so carrying the clamp excess forward would make a
        // zero-rate scenario trade differently from a fault-free run.
        // (The carry itself may exceed a bound after halted slots; it
        // then drains at the bound rate across retries.)
        let (z, w) = self.market.bounds().clamp(z, w);
        // In a backoff window the fresh request still joins the carry;
        // no market attempt is made.
        let Some((buy, sell)) = carry.prepare(t, z.get(), w.get()) else {
            return nothing;
        };
        let halted = schedule.market_halted(t);
        if halted || schedule.order_rejected(t) {
            carry.record_failure(t);
            if let Some(rec) = telemetry {
                let fault = if halted {
                    "market_halt"
                } else {
                    "order_rejected"
                };
                rec.incr("faults.injected", 1);
                rec.incr(&format!("faults.{fault}"), 1);
                rec.event(
                    Some(t as u64),
                    "fault",
                    &[
                        ("fault", fault.into()),
                        ("unmet_buy", carry.unmet_buy().into()),
                        ("unmet_sell", carry.unmet_sell().into()),
                    ],
                );
            }
            return nothing;
        }
        let receipt = self.market.execute(
            ctx.buy_price,
            ctx.sell_price,
            Allowances::new(buy),
            Allowances::new(sell),
            ledger,
        );
        let recovered = carry.record_success(receipt.bought.get(), receipt.sold.get());
        if recovered > 0 {
            if let Some(rec) = telemetry {
                rec.incr("faults.recoveries", 1);
                rec.event(
                    Some(t as u64),
                    "recovery",
                    &[
                        ("recovery", "market".into()),
                        ("attempts", u64::from(recovered).into()),
                        ("bought", receipt.bought.get().into()),
                        ("sold", receipt.sold.get().into()),
                    ],
                );
            }
        }
        receipt
    }

    /// An incremental per-slot driver over this environment. A
    /// `RunStepper` owns everything the run loop mutates — the
    /// allowance ledger, per-edge serve state, trade carry, slot
    /// records — and advances one slot per [`RunStepper::step`] call.
    /// It is the only slot engine: batch runs ([`Environment::run_with`]
    /// and its callers) step it with one lane, and a serve daemon steps
    /// it as arrivals come in.
    ///
    /// `edge_threads > 1` splits the edges into that many contiguous
    /// lanes (clamped to the edge count) and serves them — sample draws
    /// included — on a per-slot scoped worker pool, with buffered
    /// telemetry replayed in edge-index order, so the output is
    /// bit-identical at any lane count. Selection, trading and
    /// feedback stay on the calling thread.
    #[must_use]
    pub fn stepper(&self, edge_threads: usize) -> RunStepper {
        let cfg = &self.config;
        let num_lanes = edge_threads.max(1).min(cfg.num_edges.max(1));
        let lanes = self.edge_lanes(num_lanes);
        let lane_count = lanes.len();
        RunStepper {
            lanes,
            ledger: AllowanceLedger::new(cfg.cap),
            slots: Vec::with_capacity(cfg.horizon),
            cap_share: cfg.cap_share(),
            placements: Vec::with_capacity(cfg.num_edges),
            outcomes: Vec::with_capacity(cfg.num_edges),
            partials: Vec::with_capacity(cfg.num_edges),
            lane_scratch: (0..lane_count).map(|_| CachePadded::default()).collect(),
            // Graceful-degradation state; inert when no scenario is
            // attached, so the fault-free path is untouched.
            trade_carry: self
                .faults
                .as_ref()
                .map(|s| TradeCarry::new(s.scenario().backoff())),
            next_slot: 0,
        }
    }

    /// Fresh serve lanes over the fleet, each edge's sample stream at
    /// its start. One lane covers the whole fleet when sequential: the
    /// single-lane step runs the same serve code as the sharded step,
    /// over the same structure-of-arrays state, so the two paths agree
    /// by construction.
    fn edge_lanes(&self, num_lanes: usize) -> Vec<EdgeLanes> {
        let streams = (0..self.config.num_edges)
            .map(|i| {
                DataStream::new(
                    self.zoo.pool().len(),
                    self.stream_seed.derive_index(i as u64),
                )
            })
            .collect();
        EdgeLanes::split(streams, self.zoo.len(), num_lanes)
    }

    /// The trade context the policy decides against at slot `t`.
    fn trade_context(&self, t: usize, cap_share: f64) -> TradeContext {
        TradeContext {
            buy_price: self.prices.buy(t),
            sell_price: self.prices.sell(t),
            cap_share,
            bounds: self.config.bounds,
        }
    }

    /// One slot of trading: the policy's request goes to the market
    /// (through the fault carry when a schedule is active) and any
    /// executed trade is recorded in the trace.
    #[allow(clippy::too_many_arguments)]
    fn execute_trade(
        &self,
        t: usize,
        ctx: &TradeContext,
        z: Allowances,
        w: Allowances,
        carry: Option<&mut TradeCarry>,
        ledger: &mut AllowanceLedger,
        mut telemetry: Option<&mut Recorder>,
    ) -> TradeReceipt {
        let receipt = match (self.faults.as_ref(), carry) {
            (Some(schedule), Some(carry)) => self.execute_with_faults(
                t,
                schedule,
                carry,
                ctx,
                z,
                w,
                ledger,
                telemetry.as_deref_mut(),
            ),
            _ => self
                .market
                .execute(ctx.buy_price, ctx.sell_price, z, w, ledger),
        };
        if let Some(rec) = telemetry {
            if receipt.bought.get() > 0.0 || receipt.sold.get() > 0.0 {
                rec.incr("trades", 1);
                rec.event(
                    Some(t as u64),
                    "trade",
                    &[
                        ("bought", receipt.bought.get().into()),
                        ("sold", receipt.sold.get().into()),
                        ("buy_price", ctx.buy_price.get().into()),
                        ("sell_price", ctx.sell_price.get().into()),
                        ("net_cost", receipt.net_cost().get().into()),
                    ],
                );
            }
        }
        receipt
    }

    /// Serves every edge of one lane for slot `t`, pushing one outcome
    /// and one cost partial per edge.
    ///
    /// The fault branch is hoisted out of the per-edge loop: each arm
    /// calls [`Self::serve_edge`] with a constant `None`/`Some`
    /// schedule, so after inlining the fault-free arm carries no
    /// per-edge fault checks at all.
    fn serve_chunk(
        &self,
        t: usize,
        lanes: &mut EdgeLanes,
        placements: &[usize],
        sink: &mut TeleSink,
        outcomes: &mut Vec<EdgeSlotOutcome>,
        partials: &mut Vec<EdgePartial>,
    ) {
        debug_assert_eq!(placements.len(), lanes.len());
        match self.faults.as_ref() {
            None => {
                for (k, &placement) in placements.iter().enumerate() {
                    let (outcome, partial) = self.serve_edge(t, lanes, k, placement, None, sink);
                    outcomes.push(outcome);
                    partials.push(partial);
                }
            }
            Some(schedule) => {
                for (k, &placement) in placements.iter().enumerate() {
                    let (outcome, partial) =
                        self.serve_edge(t, lanes, k, placement, Some(schedule), sink);
                    outcomes.push(outcome);
                    partials.push(partial);
                }
            }
        }
    }

    /// Serves one edge for one slot: download resolution, switch
    /// accounting, the slot's sample and the served table's statistics
    /// over it, queueing, and emissions. Ledger posting is deliberately
    /// **not** done here — the stepper posts emissions in edge-index
    /// order during [`Self::reduce_slot`], so the ledger sees the same
    /// sequence at every worker count.
    #[inline]
    fn serve_edge(
        &self,
        t: usize,
        lanes: &mut EdgeLanes,
        k: usize,
        desired: usize,
        schedule: Option<&FaultSchedule>,
        sink: &mut TeleSink,
    ) -> (EdgeSlotOutcome, EdgePartial) {
        let cfg = &self.config;
        let i = lanes.global_index(k);
        let prev = lanes.prev_model(k);
        // Resolve the model the edge actually hosts this slot. Without
        // a fault schedule this is always the requested placement;
        // under one, an outage or a failed download pins the edge to
        // its previous model.
        let resolution = match schedule {
            Some(schedule) => {
                resolve_download(schedule, lanes.pending_mut(k), i, t, prev, desired, sink)
            }
            None => DownloadResolution {
                served: desired,
                switched: prev != Some(desired),
                retries: 0,
                feedback_lost: false,
            },
        };
        let n = resolution.served;
        let switched = resolution.switched;
        let mut switch_cost = 0.0;
        if switched {
            lanes.record_switch(k);
            switch_cost = self.download_delay_ms(i) * cfg.weights.switch_per_ms * cfg.switch_weight;
            if sink.active() {
                sink.incr("switches");
                let mut fields = vec![("edge", i.into()), ("to", n.into())];
                if let Some(prev) = prev {
                    fields.push(("from", prev.into()));
                }
                fields.push(("delay_ms", self.download_delay_ms(i).into()));
                if resolution.retries > 0 {
                    fields.push(("retries", u64::from(resolution.retries).into()));
                }
                sink.event(t as u64, "switch", &fields);
            }
            lanes.set_prev_model(k, n);
        }
        let mut feedback_lost = resolution.feedback_lost;
        if let Some(schedule) = schedule {
            if schedule.feedback_loss(i, t) && !feedback_lost {
                feedback_lost = true;
                if sink.active() {
                    sink.incr("faults.injected");
                    sink.incr("faults.feedback_loss");
                    sink.event(
                        t as u64,
                        "fault",
                        &[("fault", "feedback_loss".into()), ("edge", i.into())],
                    );
                }
            }
            // Surges were applied to the workload trace at
            // construction; flag them here so the trace shows when the
            // edge was riding an inflated load.
            if schedule.surge(i, t) && !schedule.edge_outage(i, t) && sink.active() {
                sink.incr("faults.injected");
                sink.incr("faults.surge");
                sink.event(
                    t as u64,
                    "fault",
                    &[("fault", "surge".into()), ("edge", i.into())],
                );
            }
        }
        lanes.count_selection(k, n);

        let arrivals = self.workloads[i].arrivals(t);
        let effective = self.effective_table(n, t);
        // Algorithm 1 is a bandit: the edge observes the loss of the
        // model it hosts, so only the served table is folded.
        let sample = lanes.draw_sample(k, arrivals, cfg.loss_sample_cap);
        let table = &self.zoo.model(effective).eval;
        let (empirical_loss, accuracy) = (table.mean_loss_at(sample), table.accuracy_at(sample));

        // Observational queueing metrics on the raw stream (the
        // emission model's workload scaling is a carbon-market
        // calibration, not a physical request volume).
        let requests = arrivals as f64;
        let utilization = cfg.queueing.utilization(requests, self.latencies[i][n]);
        let queueing_delay_ms = cfg.queueing.mean_wait_ms(requests, self.latencies[i][n]);
        lanes.observe_utilization(k, (utilization * 1e6) as u64);

        let profile = &self.zoo.model(n).profile;
        let emissions = cfg.emission.slot_emissions(
            profile.energy_per_sample,
            arrivals,
            switched,
            self.topology.transfer_energy(i),
            profile.size,
        );

        let partial = EdgePartial {
            loss_cost: table.expected_loss() * cfg.weights.loss,
            latency_cost: self.latencies[i][n] * cfg.weights.latency_per_ms,
            switch_cost,
        };
        let outcome = EdgeSlotOutcome {
            model: n,
            switched,
            arrivals,
            empirical_loss,
            accuracy,
            compute_latency_ms: self.latencies[i][n],
            utilization,
            queueing_delay_ms,
            emissions,
            feedback_lost,
        };
        (outcome, partial)
    }

    /// Folds a slot's per-edge outcomes and cost partials into the
    /// slot record and trade observation, **in edge-index order** —
    /// this single accumulation site is what makes parallel runs
    /// bit-identical to the sequential loop (floating-point addition
    /// does not reassociate, so fold order is part of the determinism
    /// contract). Ledger emissions are posted here, per edge in order,
    /// for the same reason.
    #[allow(clippy::too_many_arguments)]
    fn reduce_slot(
        &self,
        t: usize,
        ctx: &TradeContext,
        receipt: &TradeReceipt,
        outcomes: &[EdgeSlotOutcome],
        partials: &[EdgePartial],
        ledger: &mut AllowanceLedger,
        cap_share: f64,
    ) -> (SlotRecord, TradeObservation) {
        let cfg = &self.config;
        let mut loss_cost = 0.0;
        let mut latency_cost = 0.0;
        let mut switch_cost = 0.0;
        let mut switches = 0usize;
        let mut arrivals_total = 0u64;
        let mut weighted_acc = 0.0;
        let mut weighted_loss = 0.0;
        let mut weight_sum = 0.0;
        let mut util_sum = 0.0;
        let mut wait_sum = 0.0;
        for (outcome, partial) in outcomes.iter().zip(partials) {
            if outcome.switched {
                switches += 1;
            }
            loss_cost += partial.loss_cost;
            latency_cost += partial.latency_cost;
            switch_cost += partial.switch_cost;
            arrivals_total += outcome.arrivals;
            if outcome.arrivals > 0 {
                weighted_acc += outcome.accuracy * outcome.arrivals as f64;
                weighted_loss += outcome.empirical_loss * outcome.arrivals as f64;
                weight_sum += outcome.arrivals as f64;
            }
            util_sum += outcome.utilization;
            wait_sum += outcome.queueing_delay_ms;
            ledger.record_emission(outcome.emissions);
        }

        let emissions_allowances: f64 = outcomes
            .iter()
            .map(|o| o.emissions.to_allowances().get())
            .sum();
        let observation = TradeObservation {
            emissions: emissions_allowances,
            bought: receipt.bought,
            sold: receipt.sold,
            buy_price: ctx.buy_price,
            sell_price: ctx.sell_price,
            cap_share,
        };
        let record = SlotRecord {
            t,
            arrivals: arrivals_total,
            loss_cost,
            latency_cost,
            switch_cost,
            trading_cost: receipt.net_cost().get() * cfg.weights.money_per_cent,
            switches,
            emissions: emissions_allowances,
            bought: receipt.bought.get(),
            sold: receipt.sold.get(),
            buy_price: ctx.buy_price.get(),
            sell_price: ctx.sell_price.get(),
            trade_cash: receipt.net_cost().get(),
            accuracy: if weight_sum > 0.0 {
                weighted_acc / weight_sum
            } else {
                1.0
            },
            empirical_loss: if weight_sum > 0.0 {
                weighted_loss / weight_sum
            } else {
                0.0
            },
            utilization: util_sum / cfg.num_edges as f64,
            queueing_delay_ms: wait_sum / cfg.num_edges as f64,
        };
        (record, observation)
    }
}

/// Incremental per-slot driver of the run protocol; see
/// [`Environment::stepper`].
///
/// A stepper owns every piece of state the run loop mutates — the
/// allowance ledger, the per-edge serve lanes (previous model,
/// pending-download retry state, counters), the fault trade carry, and
/// the slot records — which is exactly the state a serve daemon must
/// persist to resume a run bit-identically. [`RunStepper::export_state`]
/// and [`RunStepper::restore_state`] snapshot and reinstall it as plain
/// data.
#[derive(Debug)]
pub struct RunStepper {
    lanes: Vec<EdgeLanes>,
    ledger: AllowanceLedger,
    slots: Vec<SlotRecord>,
    cap_share: f64,
    placements: Vec<usize>,
    outcomes: Vec<EdgeSlotOutcome>,
    partials: Vec<EdgePartial>,
    lane_scratch: Vec<CachePadded<LaneScratch>>,
    trade_carry: Option<TradeCarry>,
    next_slot: usize,
}

/// Per-lane scratch buffers for the stepper's sharded serve phase. The
/// buffers live in one contiguous `Vec` while every lane's worker
/// pushes into them concurrently — each push writes the `Vec` length
/// in the header — so each lane's scratch is cache-line padded to keep
/// those header writes from false-sharing with its neighbours.
#[derive(Debug, Default)]
struct LaneScratch {
    outcomes: Vec<EdgeSlotOutcome>,
    partials: Vec<EdgePartial>,
    tele: Vec<TeleOp>,
}

/// Opens span `name` when the run is profiled.
fn span_enter(profiler: &mut Option<&mut Profiler>, name: &str) {
    if let Some(p) = profiler.as_deref_mut() {
        p.enter(name);
    }
}

/// Closes the innermost open span when the run is profiled.
fn span_exit(profiler: &mut Option<&mut Profiler>) {
    if let Some(p) = profiler.as_deref_mut() {
        p.exit();
    }
}

impl RunStepper {
    /// The next slot [`RunStepper::step`] will run (equivalently: how
    /// many slots have been stepped so far).
    #[must_use]
    pub fn slot(&self) -> usize {
        self.next_slot
    }

    /// The slot records accumulated so far.
    #[must_use]
    pub fn records(&self) -> &[SlotRecord] {
        &self.slots
    }

    /// The allowance ledger as of the last stepped slot.
    #[must_use]
    pub fn ledger(&self) -> &AllowanceLedger {
        &self.ledger
    }

    /// Runs one slot of the protocol — select, trade, serve, reduce,
    /// feedback — against `env`, which must be the environment the
    /// stepper was created from.
    ///
    /// A supplied profiler gets exactly one `slot` span with the
    /// `select`, `trade`, `serve` and `feedback` stage spans under it,
    /// at every lane count.
    ///
    /// # Panics
    /// Panics past the horizon, on a slot whose arrivals have not been
    /// ingested, or if the policy returns a malformed placement vector.
    pub fn step(
        &mut self,
        env: &Environment,
        policy: &mut dyn Policy,
        mut telemetry: Option<&mut Recorder>,
        mut profiler: Option<&mut Profiler>,
    ) {
        let cfg = &env.config;
        let t = self.next_slot;
        assert!(t < cfg.horizon, "stepped past the horizon");
        assert!(t < env.ingested, "slot {t} has not been ingested yet");
        span_enter(&mut profiler, "slot");
        // Step 1: model selection and (possible) download.
        span_enter(&mut profiler, "select");
        policy.select_models_into(t, &mut self.placements);
        span_exit(&mut profiler);
        assert_eq!(
            self.placements.len(),
            cfg.num_edges,
            "policy must place one model per edge"
        );
        for &n in &self.placements {
            assert!(n < env.zoo.len(), "model index out of range");
        }

        // Carbon trading (Algorithm 2 decides using history only).
        let ctx = env.trade_context(t, self.cap_share);
        span_enter(&mut profiler, "trade");
        let (z, w) = policy.decide_trades(t, &ctx);
        span_exit(&mut profiler);
        let receipt = env.execute_trade(
            t,
            &ctx,
            z,
            w,
            self.trade_carry.as_mut(),
            &mut self.ledger,
            telemetry.as_deref_mut(),
        );

        // Steps 2–3: serve the streams and account energy/carbon.
        span_enter(&mut profiler, "serve");
        if self.lanes.len() == 1 {
            let mut sink = match telemetry.as_deref_mut() {
                Some(rec) => TeleSink::Direct(rec),
                None => TeleSink::Silent,
            };
            env.serve_chunk(
                t,
                &mut self.lanes[0],
                &self.placements,
                &mut sink,
                &mut self.outcomes,
                &mut self.partials,
            );
        } else {
            self.serve_sharded(env, t, telemetry);
        }
        span_exit(&mut profiler); // serve

        let (record, observation) = env.reduce_slot(
            t,
            &ctx,
            &receipt,
            &self.outcomes,
            &self.partials,
            &mut self.ledger,
            self.cap_share,
        );
        let feedback = SlotFeedback {
            edges: std::mem::take(&mut self.outcomes),
            trade: observation,
        };
        span_enter(&mut profiler, "feedback");
        policy.end_of_slot(t, &feedback);
        span_exit(&mut profiler);
        span_exit(&mut profiler); // slot
        self.slots.push(record);
        // Reclaim the outcome buffer from the feedback for the next
        // slot (the policy only borrowed it).
        self.outcomes = feedback.edges;
        self.outcomes.clear();
        self.partials.clear();
        self.next_slot = t + 1;
    }

    /// The multi-lane serve phase: every lane past the first is served
    /// by a scoped worker while lane 0 runs on the calling thread (one
    /// fewer spawn per slot, and the driver works instead of waiting).
    /// The per-lane buffers are drained **in lane (edge-index) order**
    /// — buffered telemetry replayed first, outcomes and partials
    /// appended after — so every accumulation and every trace line
    /// happens in the same sequence as the single-lane path.
    fn serve_sharded(&mut self, env: &Environment, t: usize, mut telemetry: Option<&mut Recorder>) {
        let traced = telemetry.is_some();
        let Self {
            lanes,
            placements,
            outcomes,
            partials,
            lane_scratch,
            ..
        } = self;
        let placements: &[usize] = placements;
        std::thread::scope(|scope| {
            let mut pairs = lanes.iter_mut().zip(lane_scratch.iter_mut());
            let (first_lane, first_scratch) = pairs.next().expect("at least one lane");
            let mut handles = Vec::new();
            for (lane, scratch) in pairs {
                let chunk = &placements[lane.start()..lane.start() + lane.len()];
                handles.push(scope.spawn(move || {
                    let scratch: &mut LaneScratch = scratch;
                    let mut sink = if traced {
                        TeleSink::Buffer(&mut scratch.tele)
                    } else {
                        TeleSink::Silent
                    };
                    env.serve_chunk(
                        t,
                        lane,
                        chunk,
                        &mut sink,
                        &mut scratch.outcomes,
                        &mut scratch.partials,
                    );
                }));
            }
            let chunk = &placements[first_lane.start()..first_lane.start() + first_lane.len()];
            let scratch: &mut LaneScratch = first_scratch;
            let mut sink = if traced {
                TeleSink::Buffer(&mut scratch.tele)
            } else {
                TeleSink::Silent
            };
            env.serve_chunk(
                t,
                first_lane,
                chunk,
                &mut sink,
                &mut scratch.outcomes,
                &mut scratch.partials,
            );
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
        for scratch in lane_scratch.iter_mut() {
            if let Some(rec) = telemetry.as_deref_mut() {
                replay_tele(rec, &mut scratch.tele);
            } else {
                scratch.tele.clear();
            }
            outcomes.append(&mut scratch.outcomes);
            partials.append(&mut scratch.partials);
        }
    }

    /// Seals the run: settlement accounting, the [`RunRecord`], and
    /// the end-of-run telemetry block.
    pub fn finish(
        self,
        env: &Environment,
        policy: &mut dyn Policy,
        telemetry: Option<&mut Recorder>,
    ) -> RunRecord {
        let Self {
            lanes,
            ledger,
            slots,
            cap_share,
            trade_carry,
            ..
        } = self;
        let cfg = &env.config;
        let settlement_cost =
            ledger.violation().get() * cfg.violation_penalty * cfg.weights.money_per_cent;
        let record = RunRecord {
            policy: policy.name(),
            slots,
            edges: EdgeLanes::into_records(lanes),
            ledger,
            cap_share,
            settlement_cost,
        };
        if let Some(rec) = telemetry {
            if let Some(schedule) = &env.faults {
                rec.set_label("fault_scenario", schedule.scenario().name.clone());
            }
            if let Some(carry) = &trade_carry {
                // Unmet-position accounting: the ledger holds every
                // executed allowance, the carry holds every unmet one,
                // and `requested == executed + unmet` reconciles them
                // (pinned by the fault ledger tests).
                rec.gauge("faults.requested_buy", carry.requested_buy());
                rec.gauge("faults.requested_sell", carry.requested_sell());
                rec.gauge("faults.unmet_buy", carry.unmet_buy());
                rec.gauge("faults.unmet_sell", carry.unmet_sell());
            }
            rec.incr("slots", cfg.horizon as u64);
            let violation = record.violation();
            rec.gauge("violation", violation);
            rec.gauge("total_cost", record.total_cost());
            rec.gauge("cap", cfg.cap.get());
            rec.gauge("cap_share", cap_share);
            rec.gauge("emissions", record.ledger.emitted().to_allowances().get());
            rec.gauge("allowances.bought", record.ledger.bought().get());
            rec.gauge("allowances.sold", record.ledger.sold().get());
            rec.gauge("trade_cash", record.ledger.net_trading_cost().get());
            rec.gauge("settlement_cost", record.settlement_cost);
            if violation > 0.0 {
                rec.event(
                    None,
                    "violation",
                    &[
                        ("allowances", violation.into()),
                        ("settlement_cost", record.settlement_cost.into()),
                    ],
                );
            }
            policy.record_telemetry(rec);
        }
        record
    }

    /// Snapshots everything the stepper mutates as plain data, for a
    /// checkpoint. Edges appear in global edge-index order.
    #[must_use]
    pub fn export_state(&self) -> StepperState {
        let mut edges = Vec::with_capacity(self.lanes.iter().map(EdgeLanes::len).sum());
        for lane in &self.lanes {
            for k in 0..lane.len() {
                edges.push(lane.export_edge(k));
            }
        }
        StepperState {
            next_slot: self.next_slot,
            ledger: self.ledger.to_parts(),
            trade_carry: self.trade_carry.as_ref().map(TradeCarry::to_parts),
            edges,
            records: self.slots.clone(),
        }
    }

    /// Reinstalls a snapshot taken by [`RunStepper::export_state`] on
    /// a stepper over the same environment, after which
    /// [`RunStepper::step`] continues the run bit-identically to one
    /// that was never interrupted. The snapshot holds no stream state:
    /// each edge's stream is replayed through the snapshot's slots from
    /// the environment's ingested arrivals.
    ///
    /// # Errors
    /// Returns an error when the snapshot's shape does not match the
    /// environment (edge count, horizon, ingested slots, fault-carry
    /// presence, per-edge model count, or a model index outside the
    /// zoo), or when a ledger total is negative or not finite.
    pub fn restore_state(&mut self, env: &Environment, state: &StepperState) -> Result<(), String> {
        let num_edges: usize = self.lanes.iter().map(EdgeLanes::len).sum();
        if state.edges.len() != num_edges {
            return Err(format!(
                "checkpoint has {} edges but the environment has {num_edges}",
                state.edges.len()
            ));
        }
        if state.next_slot > env.config.horizon {
            return Err(format!(
                "checkpoint slot {} is past the horizon {}",
                state.next_slot, env.config.horizon
            ));
        }
        if state.next_slot > env.ingested {
            return Err(format!(
                "checkpoint slot {} is past the {} ingested slots",
                state.next_slot, env.ingested
            ));
        }
        if state.records.len() != state.next_slot {
            return Err(format!(
                "checkpoint carries {} slot records but claims slot {}",
                state.records.len(),
                state.next_slot
            ));
        }
        for edge in &state.edges {
            if edge.selection_counts.len() != env.zoo.len() {
                return Err(format!(
                    "checkpoint counts {} models per edge but the zoo has {}",
                    edge.selection_counts.len(),
                    env.zoo.len()
                ));
            }
            if let Some(n) = edge
                .prev_model
                .into_iter()
                .chain(edge.pending_target)
                .find(|&n| n >= env.zoo.len())
            {
                return Err(format!(
                    "checkpoint names model {n} but the zoo has {}",
                    env.zoo.len()
                ));
            }
        }
        let ledger = &state.ledger;
        for (name, value) in [
            ("bought", ledger.bought),
            ("sold", ledger.sold),
            ("emitted", ledger.emitted),
            ("spent", ledger.spent),
            ("earned", ledger.earned),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "checkpoint ledger total `{name}` is {value}, not a finite non-negative amount"
                ));
            }
        }
        match (&mut self.trade_carry, &state.trade_carry) {
            (Some(carry), Some(parts)) => carry.restore_parts(parts),
            (None, None) => {}
            (Some(_), None) => {
                return Err(
                    "the environment has a fault scenario but the checkpoint has no trade-carry \
                     state"
                        .to_owned(),
                )
            }
            (None, Some(_)) => {
                return Err(
                    "the checkpoint has trade-carry state but the environment has no fault \
                     scenario"
                        .to_owned(),
                )
            }
        }
        self.ledger = AllowanceLedger::from_parts(env.config.cap, &state.ledger);
        self.lanes = env.edge_lanes(self.lanes.len());
        let cap = env.config.loss_sample_cap;
        let mut edges = state.edges.iter();
        for lane in &mut self.lanes {
            for k in 0..lane.len() {
                lane.import_edge(k, edges.next().expect("edge count checked above"));
                let arrivals = env.workload(lane.global_index(k));
                for t in 0..state.next_slot {
                    lane.draw_sample(k, arrivals.arrivals(t), cap);
                }
            }
        }
        self.slots = state.records.clone();
        self.next_slot = state.next_slot;
        Ok(())
    }
}

/// Plain-data snapshot of a [`RunStepper`] mid-run — everything the
/// run loop mutates, in checkpoint-friendly form.
#[derive(Debug, Clone, PartialEq)]
pub struct StepperState {
    /// Next slot to run (equals the number of records).
    pub next_slot: usize,
    /// Accumulated allowance-ledger totals.
    pub ledger: LedgerParts,
    /// Fault trade-carry state, when a scenario is attached.
    pub trade_carry: Option<TradeCarryParts>,
    /// Per-edge serve state, in global edge-index order.
    pub edges: Vec<EdgeServeState>,
    /// Slot records of every completed slot.
    pub records: Vec<SlotRecord>,
}

/// Plain-data snapshot of one edge's serve state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeServeState {
    /// Model the edge hosted at the end of the last slot.
    pub prev_model: Option<usize>,
    /// Target of an in-flight (fault-delayed) download, if any.
    pub pending_target: Option<usize>,
    /// Consecutive failed attempts for that target.
    pub pending_attempts: u32,
    /// Slot before which no new download attempt is made.
    pub pending_next_attempt_slot: u64,
    /// Slots the wanted switch has been fault-delayed so far.
    pub pending_delayed_slots: u32,
    /// Completed downloads so far.
    pub switches: u64,
    /// Peak utilization observed, in millionths.
    pub peak_utilization_millionths: u64,
    /// Slots hosted per model.
    pub selection_counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;
    use cne_util::units::Allowances;

    /// A trivial policy: fixed model everywhere, never trades.
    struct Static(usize);
    impl Policy for Static {
        fn select_models(&mut self, _t: usize) -> Vec<usize> {
            vec![self.0; 3]
        }
        fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
            (Allowances::ZERO, Allowances::ZERO)
        }
        fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
        fn name(&self) -> String {
            "static".into()
        }
    }

    /// Every span path of a profile with its entry count, depth-first.
    fn span_counts(prof: &Profiler) -> Vec<(String, u64)> {
        let runs = cne_util::span::parse_profile_jsonl(&prof.to_jsonl_string()).expect("valid");
        runs[0]
            .spans
            .iter()
            .map(|s| (s.path.clone(), s.count))
            .collect()
    }

    fn test_env(zoo: &ModelZoo) -> Environment<'_> {
        Environment::new(
            SimConfig::fast_test(TaskKind::MnistLike),
            zoo,
            &SeedSequence::new(11),
        )
    }

    #[test]
    fn static_policy_switches_once_per_edge() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let env = test_env(&zoo);
        let record = env.run(&mut Static(2));
        assert_eq!(record.horizon(), 40);
        assert_eq!(record.total_switches(), 3, "one initial download per edge");
        for e in &record.edges {
            assert_eq!(e.selection_counts[2], 40);
        }
        // Only slot 0 carries switching cost.
        assert!(record.slots[0].switch_cost > 0.0);
        assert!(record.slots[1..].iter().all(|s| s.switch_cost == 0.0));
    }

    #[test]
    fn emissions_accumulate_in_ledger() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let env = test_env(&zoo);
        let record = env.run(&mut Static(0));
        let slot_total: f64 = record.slots.iter().map(|s| s.emissions).sum();
        let ledger_total = record.ledger.emitted().to_allowances().get();
        assert!(
            (slot_total - ledger_total).abs() < 1e-9,
            "slot records and ledger disagree: {slot_total} vs {ledger_total}"
        );
        // Calibration: untraded emissions should exceed the cap, so the
        // neutrality constraint is actually at stake in experiments.
        assert!(
            ledger_total > env.config().cap.get(),
            "emissions {ledger_total} never threaten the cap"
        );
        assert!(!record.ledger.is_neutral());
    }

    #[test]
    fn profiling_only_observes_the_run() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let env = test_env(&zoo);
        let mut rec_plain = cne_util::telemetry::Recorder::new();
        let plain = env.run_traced(&mut Static(1), &mut rec_plain);
        let mut rec_prof = cne_util::telemetry::Recorder::new();
        let mut prof = Profiler::new();
        let profiled = env.run_with(&mut Static(1), Some(&mut rec_prof), Some(&mut prof));
        assert_eq!(plain, profiled);
        assert_eq!(
            rec_plain.to_jsonl_string(),
            rec_prof.to_jsonl_string(),
            "profiling must not perturb the deterministic trace"
        );
        assert_eq!(prof.open_depth(), 0);
        // Stage spans only: nothing per edge or inside the policy.
        assert_eq!(
            span_counts(&prof),
            [
                ("run", 1),
                ("run/slot", 40),
                ("run/slot/select", 40),
                ("run/slot/trade", 40),
                ("run/slot/serve", 40),
                ("run/slot/feedback", 40),
            ]
            .map(|(path, n)| (path.to_owned(), n))
        );
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let a = test_env(&zoo).run(&mut Static(1));
        let b = test_env(&zoo).run(&mut Static(1));
        assert_eq!(a, b);
    }

    #[test]
    fn latencies_within_band() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let env = test_env(&zoo);
        for i in 0..env.num_edges() {
            for n in 0..env.num_models() {
                let v = env.latencies[i][n];
                assert!((25.0..=150.0).contains(&v), "v out of band: {v}");
            }
        }
    }

    /// Runs `env`'s horizon as the serve daemon does: a streaming twin
    /// of `env` (same seed, fed `env`'s raw arrivals) ingests slot t
    /// and steps it at once, at `edge_threads` lanes.
    pub(crate) fn run_streamed(
        env: &Environment,
        seed: &SeedSequence,
        raw: &[Vec<u64>],
        policy: &mut dyn Policy,
        edge_threads: usize,
    ) -> (RunRecord, String) {
        let mut streamed = Environment::streaming(env.config().clone(), env.zoo(), seed);
        let mut stepper = streamed.stepper(edge_threads);
        let mut rec = cne_util::telemetry::Recorder::new();
        for t in 0..env.horizon() {
            let row: Vec<u64> = raw.iter().map(|edge| edge[t]).collect();
            streamed.ingest_slot(t, &row);
            stepper.step(&streamed, policy, Some(&mut rec), None);
        }
        let record = stepper.finish(&streamed, policy, Some(&mut rec));
        (record, rec.to_jsonl_string())
    }

    /// The raw (pre-fault) diurnal counts [`Environment::new`] draws
    /// for `cfg` under `seed`, one row per edge.
    pub(crate) fn drawn_arrivals(cfg: &SimConfig, seed: &SeedSequence) -> Vec<Vec<u64>> {
        let gen = DiurnalWorkload::new(cfg.workload);
        (0..cfg.num_edges)
            .map(|i| gen.trace(i, &seed.derive("workload")).counts().to_vec())
            .collect()
    }

    #[test]
    fn serve_modes_identical_under_drift() {
        // The drift remap picks the table the served sample is folded
        // over, in batch and streamed runs alike.
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.quality_drift_at = Some(20);
        let seed = SeedSequence::new(5);
        let env = Environment::new(cfg.clone(), &zoo, &seed);
        let mut rec = cne_util::telemetry::Recorder::new();
        let a = env.run_traced(&mut Static(0), &mut rec);
        let (b, trace_b) =
            run_streamed(&env, &seed, &drawn_arrivals(&cfg, &seed), &mut Static(0), 1);
        assert_eq!(a, b, "drift remap must fold the same table");
        assert_eq!(rec.to_jsonl_string(), trace_b);
    }

    #[test]
    fn accuracy_tracks_model_quality() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(1),
        );
        let env = test_env(&zoo);
        let best = zoo.best_by_expected_loss();
        // Find the worst model by expected loss.
        let mut worst = 0;
        for n in 0..zoo.len() {
            if zoo.model(n).eval.expected_loss() > zoo.model(worst).eval.expected_loss() {
                worst = n;
            }
        }
        let good = env.run(&mut Static(best));
        let bad = env.run(&mut Static(worst));
        let mean = |r: &RunRecord| {
            let s = r.accuracy_series();
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!(
            mean(&good) > mean(&bad),
            "hosted model quality must show in stream accuracy"
        );
    }
}
#[cfg(test)]
mod drift_tests {
    use super::*;
    use crate::policy::{Policy, SlotFeedback};
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;
    use cne_trading::policy::TradeContext;
    use cne_util::units::Allowances;

    struct Static(usize);
    impl Policy for Static {
        fn select_models(&mut self, _t: usize) -> Vec<usize> {
            vec![self.0; 3]
        }
        fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
            (Allowances::ZERO, Allowances::ZERO)
        }
        fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
        fn name(&self) -> String {
            "static".into()
        }
    }

    #[test]
    fn drift_reverses_quality_ranking() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(31),
        );
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.quality_drift_at = Some(20);
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(32));
        let best = zoo.best_by_expected_loss();
        // Before the drift the best model maps to itself; after, to the
        // worst.
        assert_eq!(env.effective_table(best, 0), best);
        let after = env.effective_table(best, 20);
        assert_ne!(after, best);
        let worst_loss = zoo.model(after).eval.expected_loss();
        for n in 0..zoo.len() {
            assert!(zoo.model(n).eval.expected_loss() <= worst_loss + 1e-12);
        }
        // Hosting the pre-drift best: accuracy collapses after onset.
        let record = env.run(&mut Static(best));
        let acc = record.accuracy_series();
        let pre: f64 = acc[..20].iter().sum::<f64>() / 20.0;
        let post: f64 = acc[20..].iter().sum::<f64>() / (acc.len() - 20) as f64;
        assert!(
            post < pre - 0.05,
            "drift should hurt the stale placement: {pre} -> {post}"
        );
    }

    #[test]
    fn no_drift_is_identity() {
        let zoo = ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(33),
        );
        let cfg = SimConfig::fast_test(TaskKind::MnistLike);
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(34));
        for n in 0..zoo.len() {
            assert_eq!(env.effective_table(n, 0), n);
            assert_eq!(env.effective_table(n, 39), n);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::policy::{Policy, SlotFeedback};
    use cne_faults::FaultScenario;
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;
    use cne_trading::policy::TradeContext;
    use cne_util::units::Allowances;

    /// Switches models every few slots (exercising download failures)
    /// and trades a fixed in-bounds position every slot (exercising
    /// market halts and rejections).
    struct Churner;
    impl Policy for Churner {
        fn select_models(&mut self, t: usize) -> Vec<usize> {
            vec![(t / 4) % 2; 3]
        }
        fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
            (Allowances::new(2.0), Allowances::new(0.5))
        }
        fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
        fn name(&self) -> String {
            "churner".into()
        }
    }

    fn zoo() -> ModelZoo {
        ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(41),
        )
    }

    fn faulty_cfg(scenario: FaultScenario) -> SimConfig {
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.faults = Some(scenario);
        cfg
    }

    #[test]
    fn serve_modes_and_reruns_bit_identical_under_faults() {
        let zoo = zoo();
        let cfg = faulty_cfg(FaultScenario::mixed("mixed-20", 0.2));
        let seed = SeedSequence::new(42);
        let run = || {
            let env = Environment::new(cfg.clone(), &zoo, &seed);
            let mut rec = cne_util::telemetry::Recorder::new();
            let record = env.run_traced(&mut Churner, &mut rec);
            (record, rec.to_jsonl_string())
        };
        let (a, trace_a) = run();
        let (a2, trace_a2) = run();
        assert_eq!(a, a2, "same (seed, scenario) must replay bit-identically");
        assert_eq!(trace_a, trace_a2);
        // The streamed twin (batch arrivals fed slot by slot) agrees.
        let env = Environment::new(cfg.clone(), &zoo, &seed);
        let raw = super::tests::drawn_arrivals(&cfg, &seed);
        let (b, trace_b) = super::tests::run_streamed(&env, &seed, &raw, &mut Churner, 1);
        assert_eq!(a, b, "serve modes must agree under an active schedule");
        assert_eq!(trace_a, trace_b);
        // The schedule actually fired, and the run survived it.
        assert!(trace_a.contains("\"kind\":\"fault\""), "no fault events");
    }

    #[test]
    fn zero_rate_scenario_matches_fault_free_run() {
        let zoo = zoo();
        let base = Environment::new(
            SimConfig::fast_test(TaskKind::MnistLike),
            &zoo,
            &SeedSequence::new(43),
        )
        .run(&mut Churner);
        let zeroed = Environment::new(
            faulty_cfg(FaultScenario::default()),
            &zoo,
            &SeedSequence::new(43),
        )
        .run(&mut Churner);
        assert_eq!(
            base, zeroed,
            "a never-firing schedule must not perturb the run"
        );
    }

    #[test]
    fn ledger_reconciles_under_market_faults() {
        let zoo = zoo();
        let scenario = FaultScenario {
            name: "market-only".to_owned(),
            market_halt_rate: 0.3,
            order_rejection_rate: 0.3,
            ..FaultScenario::default()
        };
        let env = Environment::new(faulty_cfg(scenario), &zoo, &SeedSequence::new(44));
        let mut rec = cne_util::telemetry::Recorder::new();
        let record = env.run_traced(&mut Churner, &mut rec);
        assert!(rec.counter("faults.market_halt") + rec.counter("faults.order_rejected") > 0);
        // requested == executed + unmet, per side: nothing leaks.
        let requested_buy = rec.gauge_value("faults.requested_buy").unwrap();
        let requested_sell = rec.gauge_value("faults.requested_sell").unwrap();
        let unmet_buy = rec.gauge_value("faults.unmet_buy").unwrap();
        let unmet_sell = rec.gauge_value("faults.unmet_sell").unwrap();
        let executed_buy = record.ledger.bought().get();
        let executed_sell = record.ledger.sold().get();
        assert!(
            (requested_buy - (executed_buy + unmet_buy)).abs() < 1e-9,
            "buy side leaked: {requested_buy} != {executed_buy} + {unmet_buy}"
        );
        assert!(
            (requested_sell - (executed_sell + unmet_sell)).abs() < 1e-9,
            "sell side leaked: {requested_sell} != {executed_sell} + {unmet_sell}"
        );
        // Faults really did block some orders relative to the 40-slot
        // fault-free request stream (2.0 buy / 0.5 sell per slot).
        assert!(executed_buy < 80.0 - 1e-9);
        // And successful retries were recorded as recoveries.
        assert!(rec.counter("faults.recoveries") > 0, "no market recoveries");
    }

    #[test]
    fn full_outage_suppresses_serving_and_switching() {
        let zoo = zoo();
        let scenario = FaultScenario {
            name: "blackout".to_owned(),
            edge_outage_rate: 1.0,
            ..FaultScenario::default()
        };
        let env = Environment::new(faulty_cfg(scenario), &zoo, &SeedSequence::new(45));
        let mut rec = cne_util::telemetry::Recorder::new();
        let record = env.run_traced(&mut Churner, &mut rec);
        assert_eq!(record.total_switches(), 0, "nothing downloads while down");
        let arrivals: u64 = record.slots.iter().map(|s| s.arrivals).sum();
        assert_eq!(arrivals, 0, "outages must suppress arrivals");
        assert_eq!(rec.counter("faults.edge_outage"), 40 * 3);
        assert!(
            record.ledger.emitted().to_allowances().get() < 1e-12,
            "a dark edge emits nothing"
        );
    }

    #[test]
    fn download_failures_delay_but_never_lose_switches() {
        let zoo = zoo();
        let scenario = FaultScenario {
            name: "flaky-registry".to_owned(),
            download_failure_rate: 0.6,
            ..FaultScenario::default()
        };
        let env = Environment::new(faulty_cfg(scenario), &zoo, &SeedSequence::new(46));
        let mut rec = cne_util::telemetry::Recorder::new();
        let record = env.run_traced(&mut Churner, &mut rec);
        assert!(rec.counter("faults.download_failure") > 0, "nothing failed");
        assert!(
            rec.counter("faults.recoveries") > 0,
            "failed downloads must eventually recover"
        );
        // Every switch event either succeeded immediately or carries
        // the number of retries it survived.
        let switches = rec.events().iter().filter(|e| e.kind == "switch").count();
        assert_eq!(switches as u64, record.total_switches());
        // Delayed switches still charge their cost exactly once.
        let charged: usize = record
            .slots
            .iter()
            .map(|s| (s.switch_cost > 0.0) as usize)
            .sum();
        assert!(charged > 0, "switching cost vanished");
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::policy::{Policy, SlotFeedback};
    use cne_faults::FaultScenario;
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;
    use cne_trading::policy::TradeContext;
    use cne_util::units::Allowances;

    /// Same placement churn + trading as the fault tests, over
    /// [`EDGES`] edges: switches every few slots and trades a fixed
    /// in-bounds position.
    struct Churner;
    impl Policy for Churner {
        fn select_models(&mut self, t: usize) -> Vec<usize> {
            vec![(t / 4) % 2; EDGES]
        }
        fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
            (Allowances::new(2.0), Allowances::new(0.5))
        }
        fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
        fn name(&self) -> String {
            "churner".into()
        }
    }

    /// Enough edges that 3 and 4 lanes split them raggedly (3/3/4,
    /// 2/3/2/3).
    const EDGES: usize = 10;

    fn cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.num_edges = EDGES;
        cfg
    }

    fn zoo() -> ModelZoo {
        ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(51),
        )
    }

    fn run_churner(env: &Environment) -> (RunRecord, String) {
        let mut rec = Recorder::new();
        let record = env.run_traced(&mut Churner, &mut rec);
        (record, rec.to_jsonl_string())
    }

    /// Steps the whole horizon on a stepper with `edge_threads` lanes.
    fn step_churner_at(env: &Environment, edge_threads: usize) -> (RunRecord, String) {
        let mut rec = Recorder::new();
        let mut stepper = env.stepper(edge_threads);
        for _ in 0..env.horizon() {
            stepper.step(env, &mut Churner, Some(&mut rec), None);
        }
        let record = stepper.finish(env, &mut Churner, Some(&mut rec));
        (record, rec.to_jsonl_string())
    }

    /// Both ways an environment is fed — built whole, or streamed
    /// slot by slot as the serve daemon does — at every lane count.
    #[test]
    fn worker_counts_agree_in_both_serve_modes() {
        let zoo = zoo();
        let seed = SeedSequence::new(52);
        let env = Environment::new(cfg(), &zoo, &seed);
        let raw = super::tests::drawn_arrivals(&cfg(), &seed);
        let (base, base_trace) = run_churner(&env);
        assert!(base_trace.contains("\"kind\":\"switch\""));
        for edge_threads in [1, 2, 3, 4] {
            let (record, trace) = step_churner_at(&env, edge_threads);
            assert_eq!(
                base, record,
                "records diverge at {edge_threads} edge threads"
            );
            assert_eq!(
                base_trace, trace,
                "traces diverge at {edge_threads} edge threads"
            );
            let (record, trace) =
                super::tests::run_streamed(&env, &seed, &raw, &mut Churner, edge_threads);
            assert_eq!(
                base, record,
                "streamed records diverge at {edge_threads} edge threads"
            );
            assert_eq!(
                base_trace, trace,
                "streamed traces diverge at {edge_threads} edge threads"
            );
        }
    }

    #[test]
    fn worker_counts_agree_under_faults() {
        let zoo = zoo();
        let mut cfg = cfg();
        cfg.faults = Some(FaultScenario::mixed("mixed-20", 0.2));
        let env = Environment::new(cfg, &zoo, &SeedSequence::new(53));
        let (base, base_trace) = run_churner(&env);
        assert!(base_trace.contains("\"kind\":\"fault\""), "no fault events");
        for edge_threads in [2, 3, 4] {
            let (record, trace) = step_churner_at(&env, edge_threads);
            assert_eq!(
                base, record,
                "faulted records diverge at {edge_threads} edge threads"
            );
            assert_eq!(
                base_trace, trace,
                "faulted traces diverge at {edge_threads} edge threads"
            );
        }
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use cne_faults::FaultScenario;
    use cne_nn::ZooConfig;
    use cne_simdata::dataset::TaskKind;
    use cne_util::units::Allowances;

    /// Placement churn + fixed trading, like the parallel tests.
    struct Churner;
    impl Policy for Churner {
        fn select_models(&mut self, t: usize) -> Vec<usize> {
            vec![(t / 4) % 2; 3]
        }
        fn decide_trades(&mut self, _t: usize, _ctx: &TradeContext) -> (Allowances, Allowances) {
            (Allowances::new(2.0), Allowances::new(0.5))
        }
        fn end_of_slot(&mut self, _t: usize, _fb: &SlotFeedback) {}
        fn name(&self) -> String {
            "churner".into()
        }
    }

    fn zoo() -> ModelZoo {
        ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(61),
        )
    }

    fn faulty_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.faults = Some(FaultScenario::mixed("mixed-20", 0.2));
        cfg
    }

    /// A deterministic raw (pre-fault) arrival matrix, one row per
    /// edge, one count per slot.
    fn raw_arrivals(cfg: &SimConfig) -> Vec<Vec<u64>> {
        (0..cfg.num_edges)
            .map(|i| {
                (0..cfg.horizon)
                    .map(|t| ((i as u64 + 1) * 37 + t as u64 * 13) % 90)
                    .collect()
            })
            .collect()
    }

    fn run_traced(env: &Environment) -> (RunRecord, String) {
        let mut rec = Recorder::new();
        let record = env.run_traced(&mut Churner, &mut rec);
        (record, rec.to_jsonl_string())
    }

    /// [`Churner`] that keeps every per-edge outcome it is fed.
    #[derive(Default)]
    struct Recording {
        fed: Vec<Vec<EdgeSlotOutcome>>,
    }
    impl Policy for Recording {
        fn select_models(&mut self, t: usize) -> Vec<usize> {
            Churner.select_models(t)
        }
        fn decide_trades(&mut self, t: usize, ctx: &TradeContext) -> (Allowances, Allowances) {
            Churner.decide_trades(t, ctx)
        }
        fn end_of_slot(&mut self, _t: usize, fb: &SlotFeedback) {
            self.fed.push(fb.edges.clone());
        }
        fn name(&self) -> String {
            "recording".into()
        }
    }

    /// Asserts that every (edge, slot) statistic the policy was fed is
    /// `to_bits`-equal to the served table's scalar folds over indices
    /// redrawn from `seed`, exactly as the environment derives each
    /// edge's stream.
    fn assert_fed_scalar_folds(
        env: &Environment,
        seed: &SeedSequence,
        fed: &[Vec<EdgeSlotOutcome>],
    ) {
        assert_eq!(fed.len(), env.horizon(), "one feedback per slot");
        let cap = env.config().loss_sample_cap;
        for i in 0..env.num_edges() {
            let mut stream = DataStream::new(
                env.zoo().pool().len(),
                seed.derive("stream").derive_index(i as u64),
            );
            for (t, slot) in fed.iter().enumerate() {
                let outcome = &slot[i];
                let arrivals = env.workload(i).arrivals(t);
                assert_eq!(outcome.arrivals, arrivals, "edge {i}, slot {t}");
                let indices = stream.draw_slot_capped(arrivals, cap);
                let table = &env.zoo().model(env.effective_table(outcome.model, t)).eval;
                assert_eq!(
                    outcome.empirical_loss.to_bits(),
                    table.mean_loss_at(&indices).to_bits(),
                    "fed loss of edge {i}, slot {t} is not the served table's fold"
                );
                assert_eq!(
                    outcome.accuracy.to_bits(),
                    table.accuracy_at(&indices).to_bits(),
                    "fed accuracy of edge {i}, slot {t} is not the served table's fold"
                );
            }
        }
    }

    /// The policy is fed the scalar folds of the served table over
    /// each edge's redrawn sample: in a faulty batch run, under quality
    /// drift (the permuted table), and streamed at one and three lanes.
    #[test]
    fn cached_statistics_match_scalar_folds_over_redrawn_indices() {
        let zoo = zoo();
        let cfg = faulty_cfg();
        let seed = SeedSequence::new(69);
        let raw = raw_arrivals(&cfg);

        let batch = Environment::with_arrival_trace(cfg.clone(), &zoo, &seed, &raw);
        let mut policy = Recording::default();
        let want = batch.run(&mut policy);
        assert_fed_scalar_folds(&batch, &seed, &policy.fed);
        assert!(
            (0..cfg.num_edges)
                .any(|i| (0..cfg.horizon).any(|t| batch.workload(i).arrivals(t) != raw[i][t])),
            "the fault schedule never shaped an arrival count"
        );

        let mut drift_cfg = SimConfig::fast_test(TaskKind::MnistLike);
        drift_cfg.quality_drift_at = Some(20);
        let drifted = Environment::new(drift_cfg, &zoo, &seed);
        let mut policy = Recording::default();
        drifted.run(&mut policy);
        assert_fed_scalar_folds(&drifted, &seed, &policy.fed);
        assert!(
            policy.fed[20..]
                .iter()
                .flatten()
                .any(|o| drifted.effective_table(o.model, 20) != o.model),
            "drift never permuted a served table"
        );

        for lanes in [1, 3] {
            let mut streamed = Environment::streaming(cfg.clone(), &zoo, &seed);
            let mut stepper = streamed.stepper(lanes);
            let mut policy = Recording::default();
            for t in 0..cfg.horizon {
                let row: Vec<u64> = raw.iter().map(|edge| edge[t]).collect();
                streamed.ingest_slot(t, &row);
                stepper.step(&streamed, &mut policy, None, None);
            }
            assert_fed_scalar_folds(&streamed, &seed, &policy.fed);
            assert_eq!(stepper.finish(&streamed, &mut policy, None), want);
        }
    }

    #[test]
    fn arrival_trace_replay_matches_drawn_workload() {
        let zoo = zoo();
        let cfg = faulty_cfg();
        let seed = SeedSequence::new(62);
        let raw = super::tests::drawn_arrivals(&cfg, &seed);
        let drawn = Environment::new(cfg.clone(), &zoo, &seed);
        let replayed = Environment::with_arrival_trace(cfg, &zoo, &seed, &raw);
        let (rec_a, trace_a) = run_traced(&drawn);
        let (rec_b, trace_b) = run_traced(&replayed);
        assert_eq!(rec_a, rec_b, "replay diverged from drawn run");
        assert_eq!(trace_a, trace_b, "replay telemetry diverged");
    }

    #[test]
    fn stepper_can_interleave_ingestion_and_stepping() {
        let zoo = zoo();
        let cfg = faulty_cfg();
        let seed = SeedSequence::new(64);
        let raw = raw_arrivals(&cfg);
        let batch = Environment::with_arrival_trace(cfg.clone(), &zoo, &seed, &raw);
        let (want, want_trace) = run_traced(&batch);
        // The serve-daemon shape: ingest slot t, then immediately run
        // it, at one lane and at a ragged three-lane split.
        for lanes in [1, 3] {
            let mut env = Environment::streaming(cfg.clone(), &zoo, &seed);
            assert_eq!(env.ingested(), 0);
            let mut stepper = env.stepper(lanes);
            let mut policy = Churner;
            let mut rec = Recorder::new();
            for t in 0..cfg.horizon {
                let row: Vec<u64> = raw.iter().map(|edge| edge[t]).collect();
                env.ingest_slot(t, &row);
                stepper.step(&env, &mut policy, Some(&mut rec), None);
            }
            assert_eq!(env.ingested(), cfg.horizon);
            let got = stepper.finish(&env, &mut policy, Some(&mut rec));
            assert_eq!(got, want, "interleaved serve diverged at {lanes} lanes");
            assert_eq!(
                rec.to_jsonl_string(),
                want_trace,
                "telemetry diverged at {lanes} lanes"
            );
        }
    }

    #[test]
    fn sharded_stepper_matches_sequential_run() {
        let zoo = zoo();
        let env = Environment::new(faulty_cfg(), &zoo, &SeedSequence::new(65));
        let (want, want_trace) = run_traced(&env);
        for lanes in [2, 3] {
            let mut stepper = env.stepper(lanes);
            let mut policy = Churner;
            let mut rec = Recorder::new();
            for _ in 0..env.horizon() {
                stepper.step(&env, &mut policy, Some(&mut rec), None);
            }
            let got = stepper.finish(&env, &mut policy, Some(&mut rec));
            assert_eq!(got, want, "stepper diverged at {lanes} lanes");
            assert_eq!(
                rec.to_jsonl_string(),
                want_trace,
                "stepper telemetry diverged at {lanes} lanes"
            );
        }
    }

    #[test]
    fn restored_stepper_resumes_bit_identically() {
        let zoo = zoo();
        let env = Environment::new(faulty_cfg(), &zoo, &SeedSequence::new(66));
        let (want, want_trace) = run_traced(&env);
        let horizon = env.horizon();
        for k in [1, horizon / 2, horizon - 1] {
            for resume_lanes in [1, 4] {
                let mut rec = Recorder::new();
                let mut policy = Churner;
                let mut first = env.stepper(1);
                for _ in 0..k {
                    first.step(&env, &mut policy, Some(&mut rec), None);
                }
                let state = first.export_state();
                assert_eq!(state.next_slot, k);
                drop(first);
                // A brand-new stepper (any lane count) picks up where
                // the snapshot left off.
                let mut second = env.stepper(resume_lanes);
                second.restore_state(&env, &state).expect("restore");
                assert_eq!(second.slot(), k);
                for _ in k..horizon {
                    second.step(&env, &mut policy, Some(&mut rec), None);
                }
                let got = second.finish(&env, &mut policy, Some(&mut rec));
                assert_eq!(
                    got, want,
                    "resume at slot {k} diverged ({resume_lanes} lanes)"
                );
                assert_eq!(
                    rec.to_jsonl_string(),
                    want_trace,
                    "resume telemetry diverged at slot {k} ({resume_lanes} lanes)"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let zoo = zoo();
        let faulted = Environment::new(faulty_cfg(), &zoo, &SeedSequence::new(67));
        let clean = Environment::new(
            SimConfig::fast_test(TaskKind::MnistLike),
            &zoo,
            &SeedSequence::new(67),
        );
        let mut stepper = faulted.stepper(1);
        stepper.step(&faulted, &mut Churner, None, None);
        let state = stepper.export_state();
        // Fault-carry state has no home in a fault-free environment.
        let mut other = clean.stepper(1);
        assert!(other.restore_state(&clean, &state).is_err());
        // Truncated edge list.
        let mut short = state.clone();
        short.edges.pop();
        let mut fresh = faulted.stepper(1);
        assert!(fresh.restore_state(&faulted, &short).is_err());
        // Record count must match the claimed slot.
        let mut torn = state.clone();
        torn.records.clear();
        let mut fresh = faulted.stepper(1);
        assert!(fresh.restore_state(&faulted, &torn).is_err());
        // The stream replay needs the restored slots' arrivals.
        let streamed = Environment::streaming(faulty_cfg(), &zoo, &SeedSequence::new(67));
        let mut fresh = streamed.stepper(1);
        let err = fresh.restore_state(&streamed, &state).unwrap_err();
        assert!(err.contains("past the 0 ingested slots"), "{err}");
    }

    #[test]
    #[should_panic(expected = "has not been ingested")]
    fn stepping_past_ingestion_panics() {
        let zoo = zoo();
        let cfg = SimConfig::fast_test(TaskKind::MnistLike);
        let env = Environment::streaming(cfg, &zoo, &SeedSequence::new(68));
        let mut stepper = env.stepper(1);
        stepper.step(&env, &mut Churner, None, None);
    }

    #[test]
    fn ingesting_ahead_of_stepping_matches_batch_replay() {
        // Arrivals may be ingested any number of slots ahead: the
        // stepper draws each edge's sample when it serves the slot.
        let zoo = zoo();
        let cfg = faulty_cfg();
        let seed = SeedSequence::new(68);
        let raw = raw_arrivals(&cfg);
        let batch = Environment::with_arrival_trace(cfg.clone(), &zoo, &seed, &raw);
        let (want, want_trace) = run_traced(&batch);
        let mut env = Environment::streaming(cfg.clone(), &zoo, &seed);
        for t in 0..cfg.horizon {
            let row: Vec<u64> = raw.iter().map(|edge| edge[t]).collect();
            env.ingest_slot(t, &row);
        }
        let mut stepper = env.stepper(1);
        let mut rec = Recorder::new();
        for _ in 0..cfg.horizon {
            stepper.step(&env, &mut Churner, Some(&mut rec), None);
        }
        assert_eq!(stepper.finish(&env, &mut Churner, Some(&mut rec)), want);
        assert_eq!(rec.to_jsonl_string(), want_trace);
    }
}
