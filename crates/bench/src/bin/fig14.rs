//! Fig. 14 — per-slot execution time of Algorithms 1 and 2 versus the
//! number of edges.
//!
//! Paper claim: both algorithms are fast relative to the 15-minute
//! slot (Algorithm 1: ~1 min at 50 edges on the authors' laptop;
//! Algorithm 2: well under a second), with Algorithm 2 orders of
//! magnitude cheaper than Algorithm 1 and Algorithm 1 scaling linearly
//! with the number of edges.
//!
//! Timing comes from the simulator's stage spans: Algorithm 1 is
//! `run/slot/select` plus `run/slot/feedback` (the selectors' loss
//! updates dominate the feedback stage), Algorithm 2 is
//! `run/slot/trade`.

use cne_bench::{fmt, write_tsv, Scale};
use cne_core::combos::Combo;
use cne_edgesim::Environment;
use cne_simdata::dataset::TaskKind;
use cne_util::span::Profiler;
use cne_util::telemetry::Recorder;
use cne_util::SeedSequence;

fn main() {
    let scale = Scale::from_args();
    let zoo = scale.train_zoo(TaskKind::MnistLike);

    let mut rows = Vec::new();
    let mut recorders = Vec::new();
    println!(
        "{:>6} {:>18} {:>18}",
        "edges", "alg1 ms/slot", "alg2 ms/slot"
    );
    for &edges in &scale.edges_sweep {
        let config = scale.config(TaskKind::MnistLike, edges);
        let seed = SeedSequence::new(7);
        let env = Environment::new(config, &zoo, &seed.derive("env"));
        let mut policy = Combo::ours().build(&env, &seed.derive("alg"));
        let mut rec = scale.telemetry.is_some().then(|| {
            let mut rec = Recorder::new();
            rec.set_label("figure", "fig14");
            rec.set_label("edges", edges.to_string());
            rec
        });
        let mut prof = Profiler::new();
        let _record = env.run_with(&mut policy, rec.as_mut(), Some(&mut prof));
        recorders.extend(rec);
        let ms_per_slot = |us: f64| us / 1e3 / env.horizon() as f64;
        let alg1_ms =
            ms_per_slot(prof.total_us("run/slot/select") + prof.total_us("run/slot/feedback"));
        let alg2_ms = ms_per_slot(prof.total_us("run/slot/trade"));
        println!("{edges:>6} {alg1_ms:>18.4} {alg2_ms:>18.4}");
        rows.push(vec![edges.to_string(), fmt(alg1_ms), fmt(alg2_ms)]);
    }
    scale.write_recorders(&recorders);
    write_tsv(
        &scale.out_dir,
        "fig14_runtime_vs_edges.tsv",
        &["edges", "alg1_ms_per_slot", "alg2_ms_per_slot"],
        &rows,
    );
    println!("\nboth are far below the 15-minute (900 000 ms) slot length.");
}
