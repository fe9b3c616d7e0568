//! Property-based tests for the assembled controller layer: every
//! expressible combo runs cleanly on arbitrary short horizons and
//! seeds, placements are always well-formed, the accounting
//! identities of the run record hold, and serve-daemon checkpoints
//! are byte-stable through serialize → deserialize → serialize, while
//! arbitrary or damaged checkpoint bytes parse to an error, never a
//! panic.

use std::sync::OnceLock;

use cne_core::combos::{Combo, SelectorKind, TraderKind};
use cne_core::runner::{run_single, PolicySpec};
use cne_core::{Checkpoint, ServeOptions, ServeSession};
use cne_edgesim::SimConfig;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_simdata::workload::DiurnalWorkload;
use cne_util::SeedSequence;
use proptest::prelude::*;

/// One zoo shared across all proptest cases (training is the expensive
/// part; the properties vary the environment and policies).
fn shared_zoo() -> &'static ModelZoo {
    static ZOO: OnceLock<ModelZoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        ModelZoo::train(
            TaskKind::MnistLike,
            &ZooConfig::fast(),
            &SeedSequence::new(9000),
        )
    })
}

/// One valid checkpoint document, taken mid-run under faults.
fn valid_checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.horizon = 12;
        cfg.faults = Some(cne_faults::FaultScenario::mixed("mixed-20", 0.2));
        let opts = ServeOptions::default();
        let mut session = ServeSession::new(cfg.clone(), shared_zoo(), 5, Combo::ours(), &opts);
        for t in 0..6 {
            session.push_slot(&vec![(t as u64 * 7) % 5; cfg.num_edges]);
        }
        session.checkpoint().expect("Ours must checkpoint").encode()
    })
}

fn selector_strategy() -> impl Strategy<Value = SelectorKind> {
    prop_oneof![
        Just(SelectorKind::Random),
        Just(SelectorKind::Greedy),
        Just(SelectorKind::TsallisInf),
        Just(SelectorKind::Ucb2),
        Just(SelectorKind::BlockTsallis),
    ]
}

fn trader_strategy() -> impl Strategy<Value = TraderKind> {
    prop_oneof![
        Just(TraderKind::Random),
        Just(TraderKind::Threshold),
        Just(TraderKind::Lyapunov),
        Just(TraderKind::PrimalDual),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any combo × any short horizon × any seed: the run completes and
    /// its accounting identities hold.
    #[test]
    fn any_combo_runs_and_accounts(
        selector in selector_strategy(),
        trader in trader_strategy(),
        horizon in 1usize..=40,
        edges in 1usize..=4,
        seed in 0u64..500,
    ) {
        let zoo = shared_zoo();
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.horizon = horizon;
        cfg.num_edges = edges;
        let combo = Combo { selector, trader };
        let record = run_single(&cfg, zoo, seed, &PolicySpec::Combo(combo));

        prop_assert_eq!(record.horizon(), horizon);
        prop_assert_eq!(record.edges.len(), edges);
        prop_assert!(record.total_cost().is_finite());

        // Accounting: slots ↔ ledger.
        let slot_emissions: f64 = record.slots.iter().map(|s| s.emissions).sum();
        prop_assert!(
            (slot_emissions - record.ledger.emitted().to_allowances().get()).abs() < 1e-9
        );
        let slot_bought: f64 = record.slots.iter().map(|s| s.bought).sum();
        prop_assert!((slot_bought - record.ledger.bought().get()).abs() < 1e-9);

        // Per-edge selection counts sum to the horizon.
        for edge in &record.edges {
            let total: u64 = edge.selection_counts.iter().sum();
            prop_assert_eq!(total as usize, horizon);
            // Every hosted model needed at least one download.
            prop_assert!(edge.switches >= 1);
        }

        // Bounds respected every slot.
        for s in &record.slots {
            prop_assert!(s.bought <= cfg.bounds.max_buy.get() + 1e-12);
            prop_assert!(s.sold <= cfg.bounds.max_sell.get() + 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s.accuracy));
        }

        // Settlement is exactly the priced terminal violation.
        let expected_settlement = record.violation()
            * cfg.violation_penalty
            * cfg.weights.money_per_cent;
        prop_assert!((record.settlement_cost - expected_settlement).abs() < 1e-9);
    }

    /// The offline oracle is feasible (zero violation) on any workload
    /// realization of the default regime.
    #[test]
    fn offline_is_always_neutral(seed in 0u64..200) {
        let zoo = shared_zoo();
        let cfg = SimConfig::fast_test(TaskKind::MnistLike);
        let record = run_single(&cfg, zoo, seed, &PolicySpec::Offline);
        prop_assert!(record.violation() < 1e-6, "violation {}", record.violation());
        prop_assert_eq!(record.total_switches() as usize, cfg.num_edges);
    }

    /// Checkpoint documents are byte-stable — `encode → parse →
    /// encode` is the identity — and restoring one onto a fresh
    /// session then re-exporting reproduces the same bytes, for any
    /// seed, fault mix, and interruption point. This pins the
    /// serialized shape of the controller (selector fleet + trader),
    /// the allowance ledger, and the primal–dual state all at once.
    #[test]
    fn checkpoints_are_byte_stable_and_reexportable(
        seed in 0u64..300,
        slots_frac in 0.0..1.0f64,
        faulted in prop_oneof![Just(false), Just(true)],
        telemetry in prop_oneof![Just(false), Just(true)],
    ) {
        let zoo = shared_zoo();
        let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
        cfg.horizon = 12;
        if faulted {
            cfg.faults = Some(cne_faults::FaultScenario::mixed("mixed-20", 0.2));
        }
        let k = 1 + ((cfg.horizon - 2) as f64 * slots_frac) as usize;

        let env_seed = SeedSequence::new(seed).derive("env");
        let gen = DiurnalWorkload::new(cfg.workload);
        let arrivals: Vec<Vec<u64>> = (0..cfg.num_edges)
            .map(|i| gen.trace(i, &env_seed.derive("workload")).counts().to_vec())
            .collect();

        let opts = ServeOptions { telemetry, ..ServeOptions::default() };
        let mut session = ServeSession::new(cfg.clone(), zoo, seed, Combo::ours(), &opts);
        for t in 0..k {
            let row: Vec<u64> = arrivals.iter().map(|r| r[t]).collect();
            session.push_slot(&row);
        }
        let text = session.checkpoint().expect("Ours must checkpoint").encode();
        let parsed = Checkpoint::parse(&text).expect("well-formed checkpoint");
        prop_assert_eq!(parsed.encode(), text.clone(), "encode → parse → encode must be identity");

        let resumed = ServeSession::resume(cfg, zoo, Combo::ours(), &parsed, &opts)
            .expect("resume");
        let reexported = resumed.checkpoint().expect("re-checkpoint").encode();
        prop_assert_eq!(reexported, text, "restore → export must reproduce the bytes");
    }

    /// Arbitrary bytes are never a checkpoint.
    #[test]
    fn checkpoint_parse_rejects_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        prop_assert!(Checkpoint::parse(&String::from_utf8_lossy(&bytes)).is_err());
    }

    /// A valid checkpoint cut short is an error; one with a byte
    /// replaced parses or errors, but never panics.
    #[test]
    fn damaged_checkpoints_never_panic(frac in 0.0..1.0f64, byte in 0u8..=255) {
        let text = valid_checkpoint();
        // The document ends in "}\n": any shorter prefix is incomplete.
        let at = (frac * (text.len() - 1) as f64) as usize;
        prop_assert!(Checkpoint::parse(&text[..at]).is_err());
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = byte;
        let _ = Checkpoint::parse(&String::from_utf8_lossy(&bytes));
    }
}
