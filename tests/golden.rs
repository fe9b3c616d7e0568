//! Golden digests of the system's observable outputs: the record and
//! telemetry trace of every policy at quick scale, a fault-injected
//! run, and a served session at several edge-thread counts. A refactor
//! that moves any byte moves a row of `tests/golden/digests.tsv`; see
//! `golden/table.rs` for the table and `CNE_BLESS=1`.

#[path = "golden/table.rs"]
mod table;

use std::fmt::Write as _;
use std::path::Path;

use cne_core::combos::Combo;
use cne_core::runner::{evaluate_many_with, EvalOptions, PolicySpec};
use cne_core::{ServeOptions, ServeSession};
use cne_edgesim::{RunRecord, SimConfig};
use cne_faults::FaultScenario;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::dataset::TaskKind;
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::SeedSequence;

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.tsv");
const FAULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/ci_smoke.json");
const SEEDS: [u64; 2] = [1, 2];

/// The quick-scale zoo and configuration the figure binaries use.
fn quick() -> (ModelZoo, SimConfig) {
    let zoo = ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::fast(),
        &SeedSequence::new(2025),
    );
    let mut cfg = SimConfig::fast_test(TaskKind::MnistLike);
    cfg.num_edges = 4;
    (zoo, cfg)
}

fn ci_smoke() -> FaultScenario {
    let text = std::fs::read_to_string(FAULTS).expect("read ci_smoke.json");
    FaultScenario::from_json_str(&text).expect("valid scenario")
}

/// A run record as TSV: one row per slot, one per edge, one summary.
/// Floats print in Rust's shortest round-trip form, so the text is
/// exact.
fn record_tsv(record: &RunRecord) -> String {
    let mut out = format!("policy\t{}\n", record.policy);
    for s in &record.slots {
        writeln!(
            out,
            "slot\t{}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}",
            s.t,
            s.arrivals,
            s.loss_cost,
            s.latency_cost,
            s.switch_cost,
            s.trading_cost,
            s.switches,
            s.emissions,
            s.bought,
            s.sold,
            s.buy_price,
            s.sell_price,
            s.trade_cash,
            s.accuracy,
            s.empirical_loss,
            s.utilization,
            s.queueing_delay_ms
        )
        .expect("write to a string");
    }
    for (i, e) in record.edges.iter().enumerate() {
        writeln!(
            out,
            "edge\t{i}\t{:?}\t{}\t{}",
            e.selection_counts, e.switches, e.peak_utilization_millionths
        )
        .expect("write to a string");
    }
    writeln!(
        out,
        "summary\t{:?}\t{:?}\t{:?}",
        record.cap_share, record.settlement_cost, record.ledger
    )
    .expect("write to a string");
    out
}

/// Digest rows for every `(spec, seed)` run of a grid: record and trace.
fn grid_rows(
    tag: &str,
    cfg: &SimConfig,
    zoo: &ModelZoo,
    specs: &[PolicySpec],
) -> Vec<(String, String)> {
    let options = EvalOptions {
        threads: Some(2),
        telemetry: true,
        ..EvalOptions::default()
    };
    let report = evaluate_many_with(cfg, zoo, &SEEDS, specs, &options);
    let mut rows = Vec::new();
    for (s, result) in report.results.iter().enumerate() {
        for (k, record) in result.records.iter().enumerate() {
            let name = format!("{tag}/{}/seed={}", result.name, SEEDS[k]);
            let trace = report.telemetry[s * SEEDS.len() + k].to_jsonl_string();
            rows.push((
                format!("{name}/record"),
                table::digest(record_tsv(record).as_bytes()),
            ));
            rows.push((format!("{name}/trace"), table::digest(trace.as_bytes())));
        }
    }
    rows
}

#[test]
fn every_policy_at_quick_scale() {
    let (zoo, cfg) = quick();
    let mut specs: Vec<PolicySpec> = std::iter::once(Combo::ours())
        .chain(Combo::all_baselines())
        .map(PolicySpec::Combo)
        .collect();
    specs.push(PolicySpec::Offline);
    table::check(Path::new(TABLE), &grid_rows("quick", &cfg, &zoo, &specs));
}

#[test]
fn ci_smoke_fault_run() {
    let (zoo, mut cfg) = quick();
    cfg.faults = Some(ci_smoke());
    let rows = grid_rows("faults", &cfg, &zoo, &[PolicySpec::Combo(Combo::ours())]);
    table::check(Path::new(TABLE), &rows);
}

#[test]
fn served_session_at_every_edge_thread_count() {
    let (zoo, mut cfg) = quick();
    cfg.num_edges = 8;
    cfg.faults = Some(ci_smoke());
    // What `carbon-edge gen-arrivals diurnal --edges 8 --seed 3` emits.
    let gen = ArrivalGen::new(ArrivalProcess::Diurnal, 8, 16, 120.0, &SeedSequence::new(3));
    let mut rows = Vec::new();
    for edge_threads in [1usize, 2, 4] {
        let opts = ServeOptions {
            edge_threads,
            telemetry: true,
            ..ServeOptions::default()
        };
        let mut session = ServeSession::new(cfg.clone(), &zoo, 7, Combo::ours(), &opts);
        for t in 0..cfg.horizon {
            session.push_slot(&gen.slot(t));
        }
        let out = session.finish();
        let trace = out.telemetry.expect("telemetry on").to_jsonl_string();
        let name = format!("serve/edge_threads={edge_threads}");
        rows.push((
            format!("{name}/record"),
            table::digest(record_tsv(&out.record).as_bytes()),
        ));
        rows.push((format!("{name}/trace"), table::digest(trace.as_bytes())));
    }
    table::check(Path::new(TABLE), &rows);
}
