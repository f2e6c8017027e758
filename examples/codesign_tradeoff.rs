//! HW/SW codesign: the integration-depth tradeoff and platform
//! selection — the analyses the paper defers to "a later study".
//!
//! 1. Sweeps the integration depth of the avionics suite and locates the
//!    knee ("Is there a limit to the level of integration one should
//!    design for?").
//! 2. Selects the cheapest platform from a menu under a mission-failure
//!    target (the future-work HW/SW tradeoff "when design restrictions
//!    are provided on the choice of an available HW platform").
//! 3. Shows the extended level ladder (the OO footnote's object level).
//!
//! Run with `cargo run --release --example codesign_tradeoff`.

use ddsi::core::ladder::{GenericFcmHierarchy, LevelLadder};
use ddsi::eval::platform::{select_platform, PlatformOption};
use ddsi::eval::tradeoff::integration_sweep;
use ddsi::prelude::*;
use ddsi::workloads::avionics;

fn equipped_platform(k: usize) -> HwGraph {
    let mut hw = HwGraph::complete(k);
    if k >= 1 {
        hw.node_mut(NodeIdx(0))
            .expect("node 0 exists")
            .resources
            .insert("display".into());
    }
    if k >= 2 {
        hw.node_mut(NodeIdx(1))
            .expect("node 1 exists")
            .resources
            .insert("radio".into());
    }
    hw
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (expanded, _) = avionics::expanded_suite();
    let g = &expanded.graph;
    let model = ReliabilityModel {
        p_hw: 0.05,
        p_sw: 0.05,
        cross_node_attenuation: 0.2,
        critical_at: 7,
        trials: 20_000,
        seed: 1998,
    };
    let weights = ImportanceWeights::default();

    println!("== integration-depth tradeoff (12 SW nodes) ==");
    let curve = integration_sweep(g, 1..=g.node_count(), equipped_platform, &model, &weights);
    print!("{curve}");
    if let Some(knee) = curve.knee(0.01) {
        println!(
            "knee: {} processors (mission failure {:.4}) — integrating deeper \
             saves hardware but costs more than 1% mission reliability",
            knee.clusters, knee.reliability.mission_failure
        );
    }

    println!("\n== platform selection under a 16% mission-failure target ==");
    let options = vec![
        PlatformOption::new("4-node bare", HwGraph::complete(4), 4.0),
        PlatformOption::new("6-node equipped", equipped_platform(6), 6.5),
        PlatformOption::new("8-node equipped", equipped_platform(8), 8.5),
        PlatformOption::new("12-node equipped", equipped_platform(12), 12.5),
    ];
    let selection = select_platform(g, &options, &model, &weights, 0.16);
    print!("{selection}");
    if let Some(name) = selection.chosen_name() {
        println!("selected: {name}");
    }

    println!("\n== extended hierarchy: the OO object level ==");
    let ladder = LevelLadder::with_objects();
    let process_rank = ladder
        .rank_of("process")
        .expect("the ladder has a process level");
    let mut h = GenericFcmHierarchy::new(ladder);
    let process = h.add_root(
        "fms",
        process_rank,
        AttributeSet::default().with_criticality(7),
    )?;
    let task = h.add_child(process, "route_planner", AttributeSet::default())?;
    let object = h.add_child(task, "leg", AttributeSet::default())?;
    let method = h.add_child(object, "distance_to", AttributeSet::default())?;
    println!("ladder: {}", h.ladder());
    println!(
        "{} lives at the {} level; modifying it retests {} FCM(s) under R5",
        h.fcm(method)?.name(),
        h.ladder().name(h.fcm(method)?.level()),
        h.retest_set(method)?.size()
    );
    Ok(())
}
