//! Live envelope monitoring on the streaming serve path: it must agree
//! with the post-run monitors' recomputed verdicts and must never
//! perturb the served record or telemetry trace — the serve daemon's
//! byte-identity contract extends to observability being switched on.

use cne_core::{Combo, LiveFinding, ServeOptions, ServeSession};
use cne_edgesim::SimConfig;
use cne_faults::FaultScenario;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_simdata::workload::DiurnalWorkload;
use cne_util::telemetry::{Event, Value};
use cne_util::SeedSequence;

const SEED: u64 = 11;

fn setup(faults: bool) -> (ModelZoo, SimConfig) {
    let zoo = ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::fast(),
        &SeedSequence::new(20),
    );
    let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
    if faults {
        cfg.faults = Some(FaultScenario::mixed("mixed-20", 0.2));
    }
    (zoo, cfg)
}

fn raw_arrivals(cfg: &SimConfig, seed: u64) -> Vec<Vec<u64>> {
    let env_seed = SeedSequence::new(seed).derive("env");
    let gen = DiurnalWorkload::new(cfg.workload);
    (0..cfg.num_edges)
        .map(|i| gen.trace(i, &env_seed.derive("workload")).counts().to_vec())
        .collect()
}

fn slot_row(arrivals: &[Vec<u64>], t: usize) -> Vec<u64> {
    arrivals.iter().map(|row| row[t]).collect()
}

fn str_field(event: &Event, name: &str) -> Option<String> {
    event.fields.iter().find_map(|(n, v)| {
        if n == name {
            if let Value::Str(s) = v {
                return Some(s.clone());
            }
        }
        None
    })
}

fn bool_field(event: &Event, name: &str) -> Option<bool> {
    event.fields.iter().find_map(|(n, v)| {
        if n == name {
            if let Value::Bool(b) = v {
                return Some(*b);
            }
        }
        None
    })
}

#[test]
fn live_monitoring_never_perturbs_the_served_trace() {
    let (zoo, cfg) = setup(true);
    let arrivals = raw_arrivals(&cfg, SEED);
    let mut outputs: Vec<(cne_edgesim::RunRecord, String)> = Vec::new();
    for live in [false, true] {
        let mut session = ServeSession::new(
            cfg.clone(),
            &zoo,
            SEED,
            Combo::ours(),
            &ServeOptions {
                edge_threads: 1,
                telemetry: true,
                live_monitor: live,
                stage_profiler: live,
            },
        );
        for t in 0..cfg.horizon {
            session.push_slot(&slot_row(&arrivals, t));
        }
        if live {
            let monitor = session.live_monitor().expect("live monitor enabled");
            assert_eq!(
                monitor.violations(),
                0,
                "hard live checks must hold under the mixed fault scenario"
            );
        }
        let outcome = session.finish();
        outputs.push((
            outcome.record,
            outcome.telemetry.expect("telemetry on").to_jsonl_string(),
        ));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "live monitoring changed the record"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "live monitoring changed the trace"
    );
}

#[test]
fn live_findings_agree_with_recomputed_verdicts() {
    let (zoo, cfg) = setup(true);
    let arrivals = raw_arrivals(&cfg, SEED);
    let mut session = ServeSession::new(
        cfg.clone(),
        &zoo,
        SEED,
        Combo::ours(),
        &ServeOptions {
            edge_threads: 1,
            telemetry: true,
            live_monitor: true,
            ..ServeOptions::default()
        },
    );
    for t in 0..cfg.horizon {
        session.push_slot(&slot_row(&arrivals, t));
    }
    let live: Vec<LiveFinding> = session.take_live_findings();
    let fit_live = session.live_monitor().expect("monitor on").fit_observed();
    let outcome = session.finish();
    let rec = outcome.telemetry.expect("telemetry on");

    // `finish` ran the post-run monitors into the trace exactly like a
    // batch run would; its envelope events are the recomputed verdicts.
    let post: Vec<(Option<u64>, String, bool)> = rec
        .events()
        .iter()
        .filter(|e| e.kind == "envelope")
        .filter_map(|e| {
            let monitor = str_field(e, "monitor")?;
            Some((e.slot, monitor, bool_field(e, "excused").unwrap_or(false)))
        })
        .collect();

    // Exact-evidence monitors: live and post-run verdict sets coincide,
    // down to the slot and the fault-excusal flag.
    for exact in ["block_boundary", "trade_bounds"] {
        let mut live_set: Vec<_> = live
            .iter()
            .filter(|f| f.monitor == exact)
            .map(|f| (f.slot, f.excused))
            .collect();
        let mut post_set: Vec<_> = post
            .iter()
            .filter(|(_, m, _)| m == exact)
            .map(|(slot, _, excused)| (*slot, *excused))
            .collect();
        live_set.sort();
        post_set.sort();
        assert_eq!(live_set, post_set, "{exact} verdicts diverged");
    }

    // Dual sanity is prefix-tight live: every post-run offender slot
    // must already have been caught as it streamed by.
    let live_dual: Vec<_> = live
        .iter()
        .filter(|f| f.monitor == "dual_sanity")
        .map(|f| f.slot)
        .collect();
    for (slot, monitor, _) in &post {
        if monitor == "dual_sanity" {
            assert!(
                live_dual.contains(slot),
                "post-run dual offender at {slot:?} was missed live"
            );
        }
    }

    // A terminal fit breach implies the running fit crossed the bound
    // at some slot, so the live monitor must have reported it.
    if post.iter().any(|(_, m, _)| m == "thm2_fit") {
        assert!(
            live.iter().any(|f| f.monitor == "thm2_fit"),
            "terminal fit breach was missed live"
        );
    }

    // The running fit ends exactly on the recomputed terminal fit.
    let cap_share = cfg.cap_share();
    let fit_post: f64 = outcome
        .record
        .slots
        .iter()
        .map(|s| s.constraint_value(cap_share))
        .sum::<f64>()
        .max(0.0);
    assert_eq!(fit_live, fit_post, "running fit diverged from terminal fit");
}
