//! Bounds the cost of the static-analysis gate against real work.
//!
//! Times a full `fcm-check` catalog run over every committed workload
//! model and compares its median against E1 (heuristic ablation) at
//! QUICK scale. The gate is meant to run before every experiment and
//! simulation, so it must be noise: the contract targets **< 2%** of
//! E1 wall time, and the ratio is embedded in the artefact's
//! `overhead` object as `gate_vs_e1` for trend tracking across PRs.
//!
//! Model assembly is excluded from the timed region — the pipelines
//! build those artefacts anyway; the gate only adds the checking.

use fcm_bench::experiments::{self, Scale};
use fcm_bench::models;
use fcm_substrate::bench::Suite;

fn main() {
    let mut suite = Suite::new("check_overhead");
    suite.sample_size(5).warmup(1);

    let workload_models = models::workload_models();
    suite.bench("check/all_models", || {
        workload_models
            .iter()
            .map(|m| fcm_check::run_checks(m).render().len())
            .sum::<usize>()
    });
    suite.bench("e1/quick", || experiments::e1(Scale::QUICK).to_string());

    let (gate, e1) = (suite.median("check/all_models"), suite.median("e1/quick"));
    let ratio = if e1 > 0.0 { gate / e1 } else { 0.0 };
    println!("gate cost vs E1: {:.3}% (target < 2%)", ratio * 100.0);
    suite.overhead("gate_vs_e1", ratio);
    suite.finish();
}
