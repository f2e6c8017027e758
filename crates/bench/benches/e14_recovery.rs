//! E14 timing: repairable-system reliability under the four recovery
//! policies, plus the failover remap itself.

use std::hint::black_box;

use fcm_alloc::heuristics::h1;
use fcm_alloc::mapping::approach_a;
use fcm_alloc::{failover, ShedPolicy};
use fcm_core::ImportanceWeights;
use fcm_eval::{RecoveryPolicy, ReliabilityModel, RepairableModel};
use fcm_graph::NodeIdx;
use fcm_substrate::bench::Suite;
use fcm_workloads::avionics;

fn main() {
    let (ex, _) = avionics::expanded_suite();
    let hw = avionics::platform();
    let clustering = h1(&ex.graph, hw.len()).expect("feasible");
    let mapping =
        approach_a(&ex.graph, &clustering, &hw, &ImportanceWeights::default()).expect("mapping");

    let mut suite = Suite::new("e14_recovery");
    suite.sample_size(10);

    // The raw remap: one dead node, strict vs degraded policy.
    suite.bench("remap_strict", || {
        failover::remap(
            black_box(&ex.graph),
            &clustering,
            &mapping,
            &hw,
            NodeIdx(0),
            ShedPolicy::Never,
        )
    });
    suite.bench("remap_shedding", || {
        failover::remap(
            black_box(&ex.graph),
            &clustering,
            &mapping,
            &hw,
            NodeIdx(0),
            ShedPolicy::ShedBelow { critical_at: 7 },
        )
    });

    // The full repairable mission model per policy.
    for policy in RecoveryPolicy::ALL {
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw: 0.1,
                critical_at: 7,
                trials: 2_000,
                ..ReliabilityModel::default()
            },
            ..RepairableModel::default()
        };
        suite.bench(&format!("missions_{}", policy.label()), || {
            model.evaluate(black_box(&ex.graph), &clustering, &mapping, &hw, policy)
        });
    }
    suite.finish();
}
