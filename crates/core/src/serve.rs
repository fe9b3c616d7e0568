//! The streaming serve session behind `carbon-edge serve`.
//!
//! [`ServeSession`] drives one long-lived run slot-by-slot: the caller
//! feeds it raw per-edge arrival counts as slots close (collected from
//! wire bytes by [`crate::daemon::SlotLoop`]), and the session takes the same
//! Algorithm 1/2 decisions the batch driver would take — identical
//! seeding (`SeedSequence::new(seed)` with the `"env"`/`"alg"`
//! branches), identical serve path (the [`RunStepper`] hot loop,
//! optionally edge-sharded), identical telemetry stream. A served
//! trace is therefore byte-comparable to a batch replay of the same
//! arrivals.
//!
//! Between any two slots the session can snapshot itself into a
//! versioned [`Checkpoint`] and later [`resume`](ServeSession::resume)
//! from it bit-identically: the stored raw arrivals are re-ingested,
//! the simulator's mutable state is restored onto a fresh stepper
//! (which replays each edge's stream RNG through those arrivals), and
//! the controller's learned state is imported onto a freshly built
//! policy.

use cne_edgesim::{Environment, RunRecord, RunStepper, SimConfig};
use cne_nn::ModelZoo;
use cne_util::telemetry::{parse_jsonl, Recorder};
use cne_util::{Profiler, SeedSequence};

use crate::checkpoint::Checkpoint;
use crate::combos::Combo;
use crate::controller::ComboController;
use crate::monitor::{LiveFinding, LiveMonitor, MonitorConfig};
use crate::runner::{finalize_run, PolicySpec};

/// Knobs for a serve session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Edge lanes for each slot's serve phase (1 = sequential): the
    /// stepper splits the edges into this many contiguous lanes and
    /// serves them on a per-slot scoped worker pool (see
    /// `Environment::stepper`). Selection, trading and feedback stay on
    /// the session's thread. Traces are bit-identical at every count.
    /// This is the only place a run shards edges; batch runs are
    /// sequential.
    pub edge_threads: usize,
    /// Carry a telemetry [`Recorder`] through the run. Checkpoints
    /// embed the mid-run trace so a resume continues it seamlessly.
    pub telemetry: bool,
    /// Run the theorem-envelope monitors incrementally, slot by slot
    /// (see [`LiveMonitor`]). Findings accumulate outside the
    /// deterministic trace and never perturb it; the serve daemon
    /// drains them into its operational sidecar and admin endpoint.
    pub live_monitor: bool,
    /// Carry a wall-clock stage [`Profiler`] through the hot loop so
    /// the daemon can histogram per-slot select/trade/serve/feedback
    /// latencies. It records exactly one `slot` span and those four
    /// stage spans per slot, at any edge-thread count — nothing per
    /// edge. Wall-clock only — never part of the trace.
    pub stage_profiler: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            edge_threads: 1,
            telemetry: false,
            live_monitor: false,
            stage_profiler: false,
        }
    }
}

/// Everything a completed serve session produces: the run record, the
/// telemetry trace (when enabled), and the same post-run metrics the
/// batch driver computes.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The completed run record (identical to a batch run over the
    /// same arrivals).
    pub record: RunRecord,
    /// The telemetry recorder, when the session carried one.
    pub telemetry: Option<Recorder>,
    /// P1 regret + switching, as the batch driver reports it.
    pub p1_regret: f64,
    /// Theorem-envelope violations flagged by the monitors (0 without
    /// telemetry).
    pub envelope_violations: u64,
}

/// A long-lived streaming run: ingest one slot's arrivals, decide,
/// serve, learn; checkpoint between slots; resume bit-identically.
pub struct ServeSession<'a> {
    env: Environment<'a>,
    stepper: RunStepper,
    policy: ComboController,
    recorder: Option<Recorder>,
    combo: Combo,
    seed: u64,
    arrivals: Vec<Vec<u64>>,
    live: Option<LiveMonitor>,
    live_findings: Vec<LiveFinding>,
    events_seen: usize,
    profiler: Option<Profiler>,
}

impl<'a> ServeSession<'a> {
    /// Starts a fresh streaming session, seeded exactly like the batch
    /// driver's `run_job`: the environment from
    /// `SeedSequence::new(seed).derive("env")` and the policy from
    /// `…derive("alg")`.
    #[must_use]
    pub fn new(
        config: SimConfig,
        zoo: &'a ModelZoo,
        seed: u64,
        combo: Combo,
        options: &ServeOptions,
    ) -> Self {
        let root = SeedSequence::new(seed);
        let env = Environment::streaming(config, zoo, &root.derive("env"));
        let policy = combo.build(&env, &root.derive("alg"));
        let recorder = options.telemetry.then(|| {
            let mut rec = Recorder::new();
            rec.set_label("policy", combo.name());
            rec.set_label("seed", seed.to_string());
            rec
        });
        let stepper = env.stepper(options.edge_threads);
        let live = options
            .live_monitor
            .then(|| LiveMonitor::new(&env, &combo, &MonitorConfig::default()));
        Self {
            env,
            stepper,
            policy,
            recorder,
            combo,
            seed,
            arrivals: Vec::new(),
            live,
            live_findings: Vec::new(),
            events_seen: 0,
            profiler: options.stage_profiler.then(Profiler::new),
        }
    }

    /// Resumes a session from a checkpoint, continuing the interrupted
    /// run bit-identically. `config` and `combo` must describe the
    /// same run the checkpoint was taken from; the cheap invariants
    /// recorded in the checkpoint header (policy name, horizon, edge
    /// count, fault scenario) are validated, the rest is
    /// the operator's contract (see `SERVING.md`).
    ///
    /// The resumed session's `edge_threads` may differ from the
    /// original's — per-edge state is stored in global edge order.
    ///
    /// # Errors
    /// Returns a message when the checkpoint disagrees with `config`/
    /// `combo`/`options` or a component rejects its snapshot.
    pub fn resume(
        config: SimConfig,
        zoo: &'a ModelZoo,
        combo: Combo,
        checkpoint: &Checkpoint,
        options: &ServeOptions,
    ) -> Result<Self, String> {
        if checkpoint.policy != combo.name() {
            return Err(format!(
                "checkpoint was taken with policy '{}' but this invocation builds '{}'",
                checkpoint.policy,
                combo.name()
            ));
        }
        if checkpoint.horizon != config.horizon {
            return Err(format!(
                "checkpoint horizon {} does not match the configured horizon {}",
                checkpoint.horizon, config.horizon
            ));
        }
        if checkpoint.num_edges != config.num_edges {
            return Err(format!(
                "checkpoint has {} edges but the configuration has {}",
                checkpoint.num_edges, config.num_edges
            ));
        }
        let scenario = config.faults.as_ref().map(|s| s.name.clone());
        if checkpoint.fault_scenario != scenario {
            return Err(format!(
                "checkpoint fault scenario {:?} does not match the configured {:?}",
                checkpoint.fault_scenario, scenario
            ));
        }
        if options.telemetry != checkpoint.telemetry.is_some() {
            return Err(if checkpoint.telemetry.is_some() {
                "checkpoint carries a telemetry trace; resume with telemetry enabled".to_owned()
            } else {
                "checkpoint has no telemetry trace; resume with telemetry disabled".to_owned()
            });
        }

        let mut session = Self::new(config, zoo, checkpoint.seed, combo, options);
        // Re-ingest the stored raw arrivals: this rebuilds the workload
        // traces exactly as the original process saw them, and the
        // stepper restore below replays the per-edge stream RNGs
        // through them.
        for (t, raw) in checkpoint.arrivals.iter().enumerate() {
            session.env.ingest_slot(t, raw);
        }
        session
            .stepper
            .restore_state(&session.env, &checkpoint.stepper)?;
        session
            .policy
            .import_state(&checkpoint.policy_state, checkpoint.stepper.next_slot)?;
        if let Some(text) = &checkpoint.telemetry {
            let mut recorders = parse_jsonl(text)
                .map_err(|e| format!("checkpoint telemetry trace is corrupt: {e}"))?;
            if recorders.len() != 1 {
                return Err(format!(
                    "checkpoint telemetry trace holds {} recorders, expected exactly 1",
                    recorders.len()
                ));
            }
            session.recorder = Some(recorders.remove(0));
        }
        session.arrivals = checkpoint.arrivals.clone();
        // The resumed live monitor replays the served prefix so its
        // running budgets continue exactly; the prefix's findings were
        // the original process's to report.
        if let Some(live) = session.live.as_mut() {
            let events = session.recorder.as_ref().map_or(&[][..], |r| r.events());
            live.warm_up(session.stepper.records(), events);
        }
        session.events_seen = session.recorder.as_ref().map_or(0, |r| r.events().len());
        Ok(session)
    }

    /// The next slot to be served (also the number of completed slots).
    #[must_use]
    pub fn next_slot(&self) -> usize {
        self.stepper.slot()
    }

    /// Horizon `T` of the run.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.env.horizon()
    }

    /// Number of edges `I`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.env.num_edges()
    }

    /// The policy's display name, exactly as the telemetry trace
    /// labels it (so sidecars written alongside match the run).
    #[must_use]
    pub fn policy_name(&self) -> String {
        self.combo.name()
    }

    /// Whether every slot of the horizon has been served.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_slot() >= self.horizon()
    }

    /// The allowance ledger as of the last served slot.
    #[must_use]
    pub fn ledger(&self) -> &cne_market::AllowanceLedger {
        self.stepper.ledger()
    }

    /// The live theorem-envelope monitor, when enabled.
    #[must_use]
    pub fn live_monitor(&self) -> Option<&LiveMonitor> {
        self.live.as_ref()
    }

    /// Drains the live findings accumulated since the last call. The
    /// daemon forwards them to its operational sidecar and admin
    /// endpoint; they are never written into the deterministic trace.
    pub fn take_live_findings(&mut self) -> Vec<LiveFinding> {
        std::mem::take(&mut self.live_findings)
    }

    /// The wall-clock stage profiler, when enabled: cumulative
    /// `slot/select|trade|serve|feedback` spans over every slot served
    /// by this process.
    #[must_use]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The session's deterministic telemetry recorder, when enabled.
    /// Read-only: the admin endpoint renders it into the metrics page
    /// without touching it.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Ingests one closed slot's raw per-edge arrival counts and
    /// serves it: fault shaping, placement, trading, serving, and
    /// learner feedback all happen here, exactly as in a batch run.
    ///
    /// # Panics
    /// Panics if the run is already complete or `raw` does not hold
    /// one count per edge.
    pub fn push_slot(&mut self, raw: &[u64]) {
        let t = self.next_slot();
        assert!(t < self.horizon(), "the run is already complete");
        self.env.ingest_slot(t, raw);
        self.arrivals.push(raw.to_vec());
        self.stepper.step(
            &self.env,
            &mut self.policy,
            self.recorder.as_mut(),
            self.profiler.as_mut(),
        );
        if let Some(live) = self.live.as_mut() {
            let record = self.stepper.records().last().expect("slot was just served");
            let events = self
                .recorder
                .as_ref()
                .map_or(&[][..], |r| &r.events()[self.events_seen..]);
            self.live_findings.extend(live.observe_slot(record, events));
            // The trader flushes its λ trajectory to telemetry only at
            // finish, so feed the post-update dual value directly.
            if let Some(lambda) = self.policy.lambda() {
                self.live_findings
                    .extend(live.observe_lambda(t as u64, lambda));
            }
        }
        self.events_seen = self.recorder.as_ref().map_or(0, |r| r.events().len());
    }

    /// Replays a recovered WAL tail: every slot the log closed after
    /// the checkpoint is pushed through the ordinary [`Self::push_slot`]
    /// machinery, so the recovered state is bit-identical to having
    /// served those slots live. The tail's still-open slot (partial
    /// arrivals) is *not* applied — the caller seeds its accumulator
    /// with [`crate::wal::WalTail::open`] and keeps serving.
    ///
    /// # Errors
    /// Returns a message when the tail does not continue this session
    /// (wrong start slot, wrong fleet width, or more closed slots than
    /// the horizon has room for) — a mismatched checkpoint/WAL pair
    /// must fail loudly, never replay garbage.
    pub fn apply_wal_tail(&mut self, tail: &crate::wal::WalTail) -> Result<(), String> {
        if tail.start_slot != self.next_slot() as u64 {
            return Err(format!(
                "WAL tail starts at slot {}, but the checkpoint resumes at slot {} — \
                 this log does not continue that checkpoint",
                tail.start_slot,
                self.next_slot()
            ));
        }
        let remaining = self.horizon() - self.next_slot();
        if tail.closed.len() > remaining {
            return Err(format!(
                "WAL tail closes {} slots, but only {} remain before the horizon",
                tail.closed.len(),
                remaining
            ));
        }
        for raw in &tail.closed {
            if raw.len() != self.num_edges() {
                return Err(format!(
                    "WAL tail slot holds {} edge counts, but the fleet has {}",
                    raw.len(),
                    self.num_edges()
                ));
            }
            self.push_slot(raw);
        }
        Ok(())
    }

    /// Snapshots the session into a [`Checkpoint`] (always taken
    /// between slots: after the last served slot's feedback, before
    /// the next slot's placement).
    ///
    /// # Errors
    /// Returns an error when the policy does not support
    /// checkpoint/restore (e.g. a baseline with unexportable RNG
    /// state) — the daemon surfaces this instead of silently dropping
    /// learner state.
    pub fn checkpoint(&self) -> Result<Checkpoint, String> {
        Ok(Checkpoint {
            seed: self.seed,
            policy: self.combo.name(),
            fault_scenario: self.env.config().faults.as_ref().map(|s| s.name.clone()),
            horizon: self.horizon(),
            num_edges: self.num_edges(),
            arrivals: self.arrivals.clone(),
            stepper: self.stepper.export_state(),
            policy_state: self.policy.export_state()?,
            telemetry: self.recorder.as_ref().map(Recorder::to_jsonl_string),
        })
    }

    /// Completes the run: settles the ledger, records end-of-run
    /// telemetry and the regret gauges, and runs the theorem-envelope
    /// monitors — the same post-run path as the batch driver, so a
    /// served trace feeds `carbon-edge report` unchanged.
    ///
    /// # Panics
    /// Panics if not every slot has been served yet.
    #[must_use]
    pub fn finish(mut self) -> ServeOutcome {
        assert!(
            self.is_done(),
            "finish called with {} of {} slots served",
            self.next_slot(),
            self.horizon()
        );
        let record = self
            .stepper
            .finish(&self.env, &mut self.policy, self.recorder.as_mut());
        let spec = PolicySpec::Combo(self.combo);
        let (p1_regret, envelope_violations) = finalize_run(
            self.env.config(),
            &self.env,
            &record,
            &spec,
            self.recorder.as_mut(),
        );
        ServeOutcome {
            record,
            telemetry: self.recorder,
            p1_regret,
            envelope_violations,
        }
    }
}

impl std::fmt::Debug for ServeSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSession")
            .field("policy", &self.combo.name())
            .field("seed", &self.seed)
            .field("next_slot", &self.next_slot())
            .field("horizon", &self.horizon())
            .finish_non_exhaustive()
    }
}
