//! Timing benches for the extension machinery: s–t cuts, the generic
//! hierarchy, certification bookkeeping, and system materialisation.

use std::hint::black_box;

use fcm_alloc::heuristics::{h1, h2_source_target};
use fcm_alloc::mapping::approach_a;
use fcm_core::certification::CertificationLedger;
use fcm_core::ladder::{GenericFcmHierarchy, LevelLadder};
use fcm_core::{AttributeSet, FcmHierarchy, HierarchyLevel, ImportanceWeights};
use fcm_graph::algo::st_min_cut;
use fcm_graph::NodeIdx;
use fcm_sim::model::SchedulingPolicy;
use fcm_substrate::bench::Suite;
use fcm_workloads::materialize::{system_from_mapping, system_from_mapping_voted};
use fcm_workloads::random::RandomWorkload;
use fcm_workloads::{avionics, topologies};

fn main() {
    let mut suite = Suite::new("extensions");

    // s–t min cut across sizes.
    for &n in &[16usize, 32, 64] {
        let g = RandomWorkload {
            processes: n,
            density: 0.25,
            replicated_fraction: 0.0,
            seed: 5,
            ..RandomWorkload::default()
        }
        .generate();
        suite.bench(&format!("st_min_cut/{n}"), || {
            st_min_cut(black_box(&g), NodeIdx(0), NodeIdx(n - 1)).expect("valid")
        });
    }

    {
        let g = topologies::ring_of_cliques(6, 4, 0.6, 0.05);
        let weights = ImportanceWeights::default();
        suite.bench("h2_source_target_ring_of_cliques", || {
            h2_source_target(black_box(&g), 6, &weights).expect("feasible")
        });
    }

    suite.bench("generic_hierarchy_build_4_levels", || {
        let ladder = LevelLadder::with_objects();
        let top = ladder.top();
        let mut h = GenericFcmHierarchy::new(ladder);
        let p = h.add_root("p", top, AttributeSet::default()).expect("root");
        for ti in 0..4 {
            let t = h
                .add_child(p, format!("t{ti}"), AttributeSet::default())
                .expect("task");
            for oi in 0..4 {
                let o = h
                    .add_child(t, format!("o{oi}"), AttributeSet::default())
                    .expect("object");
                for fi in 0..2 {
                    h.add_child(o, format!("f{fi}"), AttributeSet::default())
                        .expect("procedure");
                }
            }
        }
        h
    });

    {
        let mut h = FcmHierarchy::new();
        let p = h
            .add_root("p", HierarchyLevel::Process, AttributeSet::default())
            .expect("root");
        let mut leaf = None;
        for ti in 0..8 {
            let t = h
                .add_child(p, format!("t{ti}"), AttributeSet::default())
                .expect("task");
            for fi in 0..8 {
                let f = h
                    .add_child(t, format!("f{fi}"), AttributeSet::default())
                    .expect("procedure");
                leaf.get_or_insert(f);
            }
        }
        let leaf = leaf.expect("non-empty");
        let baseline = CertificationLedger::certify_all(&h);
        suite.bench("certification_modify_and_recertify", || {
            let mut ledger = baseline.clone();
            ledger
                .record_modification(black_box(&h), leaf)
                .expect("known fcm");
            ledger.recertify_outstanding(&h)
        });
    }

    suite.sample_size(20);
    let (ex, _) = avionics::expanded_suite();
    let hw = avionics::platform();
    let clustering = h1(&ex.graph, hw.len()).expect("feasible");
    let mapping =
        approach_a(&ex.graph, &clustering, &hw, &ImportanceWeights::default()).expect("mapping");
    suite.bench("materialize/avionics_unvoted", || {
        system_from_mapping(
            black_box(&ex.graph),
            &clustering,
            &mapping,
            SchedulingPolicy::PreemptiveEdf,
            0.2,
        )
        .expect("materialises")
    });
    suite.bench("materialize/avionics_voted", || {
        system_from_mapping_voted(
            black_box(&ex.graph),
            &clustering,
            &mapping,
            SchedulingPolicy::PreemptiveEdf,
            0.2,
        )
        .expect("materialises")
    });
    suite.finish();
}
