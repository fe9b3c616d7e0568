//! End-to-end contracts of the streaming serve session: a served
//! trace is byte-comparable to a batch replay of the same arrivals,
//! and a `checkpoint → encode → parse → resume` cycle continues the
//! run bit-identically — at any resume edge-thread count, in both
//! serve modes, under a mixed fault scenario.

use cne_core::runner::{evaluate_many_with, EvalOptions, PolicySpec};
use cne_core::{Checkpoint, Combo, ServeOptions, ServeSession};
use cne_edgesim::{Environment, SimConfig};
use cne_faults::FaultScenario;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_simdata::workload::DiurnalWorkload;
use cne_util::span::parse_profile_jsonl;
use cne_util::SeedSequence;

const SEED: u64 = 11;

fn setup() -> (ModelZoo, SimConfig) {
    let zoo = ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::fast(),
        &SeedSequence::new(20),
    );
    let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
    cfg.faults = Some(FaultScenario::mixed("mixed-20", 0.2));
    (zoo, cfg)
}

/// The raw (pre-fault) arrival counts a batch run would draw for this
/// seed — what an external arrival process would stream into `serve`.
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

#[test]
fn served_run_matches_batch_driver() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let report = evaluate_many_with(
        &cfg,
        &zoo,
        &[SEED],
        &[PolicySpec::Combo(Combo::ours())],
        &EvalOptions {
            threads: Some(1),
            telemetry: true,
            ..EvalOptions::default()
        },
    );
    let batch_record = &report.results[0].records[0];
    let batch_trace = report.telemetry[0].to_jsonl_string();

    let mut session = ServeSession::new(
        cfg.clone(),
        &zoo,
        SEED,
        Combo::ours(),
        &ServeOptions {
            edge_threads: 1,
            telemetry: true,
            ..ServeOptions::default()
        },
    );
    for t in 0..cfg.horizon {
        session.push_slot(&slot_row(&arrivals, t));
    }
    assert!(session.is_done());
    let outcome = session.finish();
    assert_eq!(
        &outcome.record, batch_record,
        "served record diverged from the batch driver"
    );
    assert_eq!(
        outcome.telemetry.expect("telemetry on").to_jsonl_string(),
        batch_trace,
        "served trace diverged from the batch driver"
    );
}

#[test]
fn stage_profiler_times_only_the_slot_stages_at_any_edge_threads() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let slots = 12;
    for edge_threads in [1, 3] {
        let mut session = ServeSession::new(
            cfg.clone(),
            &zoo,
            SEED,
            Combo::ours(),
            &ServeOptions {
                edge_threads,
                stage_profiler: true,
                ..ServeOptions::default()
            },
        );
        for t in 0..slots {
            session.push_slot(&slot_row(&arrivals, t));
        }
        let profile = session.profiler().expect("stage profiler on");
        assert_eq!(profile.open_depth(), 0);
        let runs = parse_profile_jsonl(&profile.to_jsonl_string()).expect("valid profile");
        let spans: Vec<(&str, u64)> = runs[0]
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(
            spans,
            [
                "slot",
                "slot/select",
                "slot/trade",
                "slot/serve",
                "slot/feedback"
            ]
            .map(|path| (path, slots as u64)),
            "edge_threads = {edge_threads}"
        );
    }
}

#[test]
fn resume_from_checkpoint_is_bit_identical() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let horizon = cfg.horizon;

    let opts = ServeOptions {
        edge_threads: 1,
        telemetry: true,
        ..ServeOptions::default()
    };
    let mut full = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
    for t in 0..horizon {
        full.push_slot(&slot_row(&arrivals, t));
    }
    let full_out = full.finish();
    let full_trace = full_out
        .telemetry
        .as_ref()
        .expect("telemetry on")
        .to_jsonl_string();

    for k in [1, horizon / 2, horizon - 1] {
        let mut head = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
        for t in 0..k {
            head.push_slot(&slot_row(&arrivals, t));
        }
        let ckpt = head.checkpoint().expect("Ours must checkpoint");
        // Full on-disk round trip: the resumed session reads the
        // parsed document, never the in-memory original.
        let text = ckpt.encode();
        let ckpt = Checkpoint::parse(&text).expect("well-formed checkpoint");
        assert_eq!(ckpt.encode(), text, "checkpoint must be byte-stable");

        for resume_threads in [1usize, 4] {
            let resume_opts = ServeOptions {
                edge_threads: resume_threads,
                telemetry: true,
                ..ServeOptions::default()
            };
            let mut tail =
                ServeSession::resume(cfg.clone(), &zoo, Combo::ours(), &ckpt, &resume_opts)
                    .expect("resume");
            assert_eq!(tail.next_slot(), k);
            for t in k..horizon {
                tail.push_slot(&slot_row(&arrivals, t));
            }
            let out = tail.finish();
            assert_eq!(
                out.record, full_out.record,
                "record diverged resuming at k={k} with {resume_threads} \
                 edge threads"
            );
            assert_eq!(
                out.telemetry.expect("telemetry on").to_jsonl_string(),
                full_trace,
                "trace diverged resuming at k={k} with {resume_threads} \
                 edge threads"
            );
        }
    }
}

/// Serve checkpoints land wherever the operator (or `--halt-at-slot`)
/// puts them. A resume from any slot `k`, at any edge-thread count,
/// must reproduce the sequential batch run's record exactly, and the
/// batch driver's trace byte for byte.
#[test]
fn checkpoints_at_any_slot_resume_bit_identically() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let horizon = cfg.horizon;
    let root = SeedSequence::new(SEED);

    let report = evaluate_many_with(
        &cfg,
        &zoo,
        &[SEED],
        &[PolicySpec::Combo(Combo::ours())],
        &EvalOptions {
            threads: Some(1),
            telemetry: true,
            ..EvalOptions::default()
        },
    );
    let batch_trace = report.telemetry[0].to_jsonl_string();
    // Reference record: the sequential engine, driven directly.
    let env = Environment::new(cfg.clone(), &zoo, &root.derive("env"));
    let mut policy = Combo::ours().build(&env, &root.derive("alg"));
    let batch_record = env.run_with(&mut policy, None, None);
    assert_eq!(
        batch_record, report.results[0].records[0],
        "the batch driver changed the record"
    );

    let opts = ServeOptions {
        edge_threads: 1,
        telemetry: true,
        ..ServeOptions::default()
    };
    for k in [2, 4, 5, 7, horizon / 2 + 1, horizon / 2 + 2] {
        let mut head = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
        for t in 0..k {
            head.push_slot(&slot_row(&arrivals, t));
        }
        let ckpt = head.checkpoint().expect("Ours must checkpoint");
        let text = ckpt.encode();
        let ckpt = Checkpoint::parse(&text).expect("well-formed checkpoint");

        let mut tail = ServeSession::resume(
            cfg.clone(),
            &zoo,
            Combo::ours(),
            &ckpt,
            &ServeOptions {
                edge_threads: 4,
                ..opts.clone()
            },
        )
        .expect("resume");
        for t in k..horizon {
            tail.push_slot(&slot_row(&arrivals, t));
        }
        let out = tail.finish();
        assert_eq!(
            out.record, batch_record,
            "record diverged: checkpoint at k={k}"
        );
        assert_eq!(
            out.telemetry.expect("telemetry on").to_jsonl_string(),
            batch_trace,
            "trace diverged: checkpoint at k={k}"
        );
    }
}

/// A checkpoint can parse yet carry run state no run produces: a
/// negative ledger total, a model index outside the zoo, or a learner
/// whose slot counter disagrees with the checkpoint's slot. Resume must refuse it with an error —
/// not panic inside the ledger, nor accept it and panic on the first
/// slot served.
#[test]
fn resume_rejects_corrupted_run_state() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let opts = ServeOptions::default();
    let slots = 6;
    let mut session = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
    for t in 0..slots {
        session.push_slot(&slot_row(&arrivals, t));
    }
    let ckpt = session.checkpoint().expect("checkpoint");
    let resume = |ckpt: &Checkpoint| {
        ServeSession::resume(cfg.clone(), &zoo, Combo::ours(), ckpt, &opts).map(|_| ())
    };
    assert_eq!(resume(&ckpt), Ok(()), "the intact checkpoint resumes");

    for field in 0..5 {
        let mut bad = ckpt.clone();
        let l = &mut bad.stepper.ledger;
        *[
            &mut l.bought,
            &mut l.sold,
            &mut l.emitted,
            &mut l.spent,
            &mut l.earned,
        ][field] = -1.0;
        let err = resume(&bad).unwrap_err();
        assert!(err.contains("ledger"), "{err}");
    }
    let mut bad = ckpt.clone();
    bad.stepper.edges[0].prev_model = Some(zoo.len());
    let err = resume(&bad).unwrap_err();
    assert!(err.contains("zoo"), "{err}");

    // One token of the controller state changed: a selector's slot
    // counter, or the first slot of the trader's λ trajectory.
    let policy_text = ckpt.policy_state.encode();
    let trajectory = policy_text.find("\"trajectory\":[").expect("trader state");
    let mutations = [
        policy_text.replacen(
            &format!("\"next_slot\":{slots}"),
            &format!("\"next_slot\":{}", slots + 1),
            1,
        ),
        format!(
            "{}{}",
            &policy_text[..trajectory],
            policy_text[trajectory..].replacen("[0,", "[1,", 1)
        ),
    ];
    for (mutated, want) in mutations.iter().zip(["edge 0", "trader"]) {
        assert_ne!(mutated, &policy_text, "mutation must apply");
        let mut bad = ckpt.clone();
        bad.policy_state = cne_util::json::parse(mutated).expect("still valid JSON");
        let err = resume(&bad).unwrap_err();
        assert!(err.contains(want) && err.contains("slot"), "{err}");
    }
}

/// A checkpoint whose slot lies past its own horizon is refused when
/// it is parsed. Resume used to accept it and then panic while
/// re-ingesting the rows past the horizon.
#[test]
fn checkpoint_past_its_horizon_is_refused() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let opts = ServeOptions::default();
    let mut session = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
    for t in 0..6 {
        session.push_slot(&slot_row(&arrivals, t));
    }
    let text = session.checkpoint().expect("checkpoint").encode();
    let edited = text.replacen(&format!("\"horizon\":{}", cfg.horizon), "\"horizon\":4", 1);
    assert_ne!(edited, text, "the edit must apply");
    match Checkpoint::parse(&edited) {
        Err(e) => assert!(e.contains("slot 6 is past the run's horizon 4"), "{e}"),
        Ok(ckpt) => {
            let mut short = cfg;
            short.horizon = 4;
            let resumed = ServeSession::resume(short, &zoo, Combo::ours(), &ckpt, &opts);
            panic!(
                "a checkpoint past its horizon parsed, and resume returned {:?}",
                resumed.map(|_| ())
            );
        }
    }
}

#[test]
fn resume_rejects_mismatched_invocations() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let opts = ServeOptions {
        edge_threads: 1,
        telemetry: false,
        ..ServeOptions::default()
    };
    let mut session = ServeSession::new(cfg.clone(), &zoo, SEED, Combo::ours(), &opts);
    for t in 0..3 {
        session.push_slot(&slot_row(&arrivals, t));
    }
    let ckpt = session.checkpoint().expect("checkpoint");

    // Wrong policy.
    let err = ServeSession::resume(
        cfg.clone(),
        &zoo,
        "greedy-th".parse().expect("combo"),
        &ckpt,
        &opts,
    )
    .unwrap_err();
    assert!(err.contains("policy"), "{err}");

    // A checkpoint written in the removed per-request serve mode.
    let per_request = ckpt.encode().replace(
        "\"serve_mode\":\"batched\"",
        "\"serve_mode\":\"per-request\"",
    );
    let err = Checkpoint::parse(&per_request).unwrap_err();
    assert!(err.contains("serve mode"), "{err}");

    // Wrong fault scenario.
    let mut faultless = cfg.clone();
    faultless.faults = None;
    let err = ServeSession::resume(faultless, &zoo, Combo::ours(), &ckpt, &opts).unwrap_err();
    assert!(err.contains("fault scenario"), "{err}");

    // Telemetry mismatch: the checkpoint has no trace.
    let err = ServeSession::resume(
        cfg.clone(),
        &zoo,
        Combo::ours(),
        &ckpt,
        &ServeOptions {
            telemetry: true,
            ..opts.clone()
        },
    )
    .unwrap_err();
    assert!(err.contains("telemetry"), "{err}");

    // Wrong horizon.
    let mut shorter = cfg;
    shorter.horizon -= 1;
    let err = ServeSession::resume(shorter, &zoo, Combo::ours(), &ckpt, &opts).unwrap_err();
    assert!(err.contains("horizon"), "{err}");
}

#[test]
fn baselines_without_checkpoint_support_fail_loudly() {
    let (zoo, cfg) = setup();
    let arrivals = raw_arrivals(&cfg, SEED);
    let combo: Combo = "ran-th".parse().expect("combo");
    let opts = ServeOptions::default();
    let mut session = ServeSession::new(cfg, &zoo, SEED, combo, &opts);
    session.push_slot(&slot_row(&arrivals, 0));
    let err = session.checkpoint().unwrap_err();
    assert!(err.contains("does not support checkpoint/restore"), "{err}");
    // The session itself keeps serving — only checkpointing is
    // refused for RNG-opaque baselines.
    session.push_slot(&slot_row(&arrivals, 1));
}
