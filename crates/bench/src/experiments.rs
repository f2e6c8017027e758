//! The experiments: paper items T1, F3–F8 and extensions E1–E15.
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

use fcm_alloc::heuristics::{h1, h1_pair_all, h2, h2_source_target, h3};
use fcm_alloc::mapping::{approach_a, approach_b, criticality_pairing, timing_refinement};
use fcm_alloc::Clustering;
use fcm_core::separation::SeparationAnalysis;
use fcm_core::{
    AttributeSet, FactorKind, FaultFactor, FcmHierarchy, HierarchyLevel, ImportanceWeights,
    Influence, IsolationTechnique,
};
use fcm_eval::{Comparison, ReliabilityModel, SweepDriver};
use fcm_graph::algo::BisectPolicy;
use fcm_graph::NodeIdx;
use fcm_sched::{edf, nonpreemptive, Job, JobSet};
use fcm_sim::fault::FaultKind;
use fcm_sim::model::{SchedulingPolicy, SystemSpecBuilder};
use fcm_sim::InfluenceCampaign;
use fcm_substrate::rng::Rng;
use fcm_workloads::{avionics, paper, random::RandomWorkload};

use crate::report::Table;

/// Experiment scale: `QUICK` keeps CI fast, `FULL` is the repro default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Monte-Carlo trials per injection campaign.
    pub trials: u64,
    /// Random seeds (repetitions) per configuration.
    pub seeds: u64,
    /// Monte-Carlo missions per reliability estimate.
    pub reliability_trials: u64,
    /// Base seed offsetting every internal PRNG stream. Two runs with
    /// the same base seed produce byte-identical tables.
    pub base_seed: u64,
}

impl Scale {
    /// Full scale for the `repro` binary.
    pub const FULL: Scale = Scale {
        trials: 3000,
        seeds: 8,
        reliability_trials: 30_000,
        base_seed: 0,
    };
    /// Reduced scale for tests and timing benches.
    pub const QUICK: Scale = Scale {
        trials: 300,
        seeds: 2,
        reliability_trials: 2_000,
        base_seed: 0,
    };

    /// The same scale with a different base seed.
    #[must_use]
    pub const fn with_seed(mut self, base_seed: u64) -> Scale {
        self.base_seed = base_seed;
        self
    }
}

// ---------------------------------------------------------------- T1, F3–F8

/// Table 1: the example processes and their attributes.
pub fn t1() -> String {
    paper::render_table1()
}

/// Fig. 3: the initial SW influence graph, plus the mutual-influence
/// ranking H1 consumes.
pub fn f3() -> String {
    let g = paper::fig3_graph();
    let mut s = g.to_edge_list();
    s.push('\n');
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..g.node_count() {
        for j in (i + 1)..g.node_count() {
            let m = g.mutual_weight(NodeIdx(i), NodeIdx(j));
            if m > 0.0 {
                pairs.push((m, i, j));
            }
        }
    }
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    s.push_str("mutual influence ranking:\n");
    for (m, i, j) in pairs {
        s.push_str(&format!("  p{} - p{}: {:.1}\n", i + 1, j + 1, m));
    }
    s
}

/// Fig. 3 rendered as Graphviz DOT (`dot -Tsvg` recreates the figure).
pub fn f3_dot() -> String {
    let g = paper::fig3_graph();
    fcm_graph::dot::render(
        &g.map(|_, n| n.name.clone(), |_, e| e.weight),
        &fcm_graph::dot::DotOptions {
            name: "fig3".into(),
            ..fcm_graph::dot::DotOptions::default()
        },
    )
}

/// Fig. 4 rendered as Graphviz DOT (replica links dashed).
pub fn f4_dot() -> String {
    let ex = paper::fig4_expansion();
    fcm_graph::dot::render(
        &ex.graph.map(|_, n| n.name.clone(), |_, e| e.weight),
        &fcm_graph::dot::DotOptions {
            name: "fig4".into(),
            ..fcm_graph::dot::DotOptions::default()
        },
    )
}

/// Fig. 4: the replica-expanded 12-node graph.
pub fn f4() -> String {
    let ex = paper::fig4_expansion();
    let mut s = format!(
        "{} nodes: {}\n",
        ex.graph.node_count(),
        ex.graph
            .nodes()
            .map(|(_, n)| n.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let replica_links = ex
        .graph
        .edges()
        .filter(|(_, e)| matches!(e.weight, fcm_alloc::sw::SwEdge::ReplicaLink))
        .count();
    s.push_str(&format!(
        "{} replica links (0-weight), {} influence edges\n",
        replica_links,
        ex.graph.edge_count() - replica_links
    ));
    s
}

/// Fig. 5: Eq. 4 cluster-influence values as clusters grow.
pub fn f5() -> Table {
    let g = paper::fig3_graph();
    let mut t = Table::new(["cluster", "target", "member influences", "Eq.4 combined"]);
    // {p1,p2} on p4, then {p1,p2,p3} on p4 — the 0.76 of the paper.
    for members in [vec![0usize, 1], vec![0, 1, 2]] {
        let mut groups = vec![members.iter().map(|&i| NodeIdx(i)).collect::<Vec<_>>()];
        for i in 0..8 {
            if !members.contains(&i) {
                groups.push(vec![NodeIdx(i)]);
            }
        }
        let c = Clustering::new(&g, groups).expect("valid partition");
        let cond = c.condensed(&g);
        let w: f64 = cond
            .graph
            .edge_weight_between(
                cond.group_of(NodeIdx(0)).expect("clustered"),
                cond.group_of(NodeIdx(3)).expect("clustered"),
            )
            .copied()
            .unwrap_or(0.0);
        let parts: Vec<String> = members
            .iter()
            .filter_map(|&i| {
                g.edge_weight_between(NodeIdx(i), NodeIdx(3))
                    .map(|e| format!("{}", e.influence()))
            })
            .collect();
        t.push([
            format!(
                "{{{}}}",
                members
                    .iter()
                    .map(|&i| format!("p{}", i + 1))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            "p4".into(),
            parts.join(", "),
            format!("{w:.4}"),
        ]);
    }
    t
}

/// Fig. 6: H1 reduction of the expanded graph to the 6-node platform,
/// with the Approach-A placement.
pub fn f6() -> String {
    let ex = paper::fig4_expansion();
    let hw = paper::hw_platform();
    let c = h1(&ex.graph, hw.len()).expect("feasible reduction");
    let m = approach_a(&ex.graph, &c, &hw, &ImportanceWeights::default()).expect("mapping");
    let mut s = String::from("H1 clusters and placement:\n");
    for (cluster, node) in m.iter() {
        s.push_str(&format!(
            "  {} <- {{{}}}\n",
            hw.node(node).expect("mapped").name,
            c.cluster_name(&ex.graph, cluster)
        ));
    }
    s.push_str(&format!(
        "residual cross-node influence: {:.4}\n",
        c.cross_influence(&ex.graph)
    ));
    s
}

/// Fig. 7: the criticality most-with-least pairing (Approach B).
pub fn f7() -> String {
    let ex = paper::fig4_expansion();
    let c = criticality_pairing(&ex.graph, 6).expect("feasible pairing");
    let mut s = String::from("criticality pairing (most critical with least):\n");
    for i in 0..c.len() {
        let attrs = c.combined_attributes(&ex.graph, i);
        s.push_str(&format!(
            "  {{{}}}  summary criticality {}\n",
            c.cluster_name(&ex.graph, i),
            attrs.criticality
        ));
    }
    let max_crit = (0..c.len())
        .map(|i| {
            c.clusters()[i]
                .iter()
                .map(|&n| ex.graph.node(n).expect("member").attributes.criticality.0)
                .sum::<u32>()
        })
        .max()
        .unwrap_or(0);
    s.push_str(&format!("max summed criticality on one node: {max_crit}\n"));
    s
}

/// Fig. 8: the timing-ordered first-fit refinement.
pub fn f8() -> String {
    let ex = paper::fig4_expansion();
    let c = timing_refinement(&ex.graph, 5).expect("feasible refinement");
    let mut s = format!(
        "timing-ordered first-fit into ≤5 nodes ({} used):\n",
        c.len()
    );
    for i in 0..c.len() {
        let attrs = c.combined_attributes(&ex.graph, i);
        let timing = attrs
            .timing
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into());
        s.push_str(&format!(
            "  {{{}}}  envelope {timing}\n",
            c.cluster_name(&ex.graph, i)
        ));
    }
    s
}

// ------------------------------------------------------------------ E1–E7

/// E1: heuristic ablation — residual cross-node influence (normalised by
/// total influence) for H1 / H1′ / H2 / H2′ / H3 over random graphs.
///
/// Each (size, seed) configuration is an independent sweep cell fanned
/// out by [`SweepDriver`]; aggregation happens afterwards in cell order,
/// so the table is byte-identical for any thread count.
pub fn e1(scale: Scale) -> Table {
    let mut t = Table::new(["n", "strategy", "norm residual influence", "failures"]);
    let sizes = [8usize, 16, 32, 64];
    let cells: Vec<(usize, u64)> = sizes
        .iter()
        .flat_map(|&n| (0..scale.seeds).map(move |seed| (n, seed)))
        .collect();
    let per_cell = SweepDriver::new(scale.base_seed).run(&cells, |&(n, seed), _| {
        let g = RandomWorkload {
            processes: n,
            density: 0.25,
            replicated_fraction: 0.15,
            seed: scale
                .base_seed
                .wrapping_add(seed.wrapping_mul(7919))
                .wrapping_add(n as u64),
            ..RandomWorkload::default()
        }
        .generate();
        let g = fcm_alloc::replication::expand_replicas(&g).graph;
        let total: f64 = g
            .edges()
            .map(|(_, e)| e.weight.influence())
            .sum::<f64>()
            .max(1e-9);
        let target = (g.node_count() / 3).max(min_clusters(&g));
        let weights = ImportanceWeights::default();
        [
            h1(&g, target),
            h1_pair_all(&g, target),
            h2(&g, target, BisectPolicy::LargestPart),
            h2(&g, target, BisectPolicy::HeaviestPart),
            h2_source_target(&g, target, &weights),
            h3(&g, target, &weights),
        ]
        .map(|r| r.ok().map(|c| c.cross_influence(&g) / total))
    });
    for &n in &sizes {
        let mut sums = [0.0f64; 6];
        let mut counts = [0u32; 6];
        let mut failures = [0u32; 6];
        for (cell, outcomes) in cells.iter().zip(&per_cell) {
            if cell.0 != n {
                continue;
            }
            for (k, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Some(norm) => {
                        sums[k] += norm;
                        counts[k] += 1;
                    }
                    None => failures[k] += 1,
                }
            }
        }
        for (k, name) in [
            "H1",
            "H1' pair-all",
            "H2 largest",
            "H2 heaviest",
            "H2 s-t",
            "H3",
        ]
        .iter()
        .enumerate()
        {
            let mean = if counts[k] > 0 {
                sums[k] / counts[k] as f64
            } else {
                f64::NAN
            };
            t.push([
                n.to_string(),
                (*name).into(),
                format!("{mean:.4}"),
                failures[k].to_string(),
            ]);
        }
    }
    t
}

/// E2: separation-series convergence — max truncation error vs order.
pub fn e2() -> Table {
    let mut t = Table::new(["order", "max error", "mean error"]);
    let reference_order = 16;
    // Draw graphs until six land in the convergent regime the paper's
    // truncation argument assumes (row sums < 1); divergent draws are
    // skipped rather than silently clamped.
    let analyses: Vec<SeparationAnalysis> = (0..)
        .map(|seed| {
            let m = RandomWorkload {
                processes: 12,
                density: 0.2,
                influence_range: (0.02, 0.3),
                seed,
                ..RandomWorkload::default()
            }
            .generate_matrix();
            SeparationAnalysis::new(m).expect("generated entries are valid")
        })
        .filter(SeparationAnalysis::series_converges)
        .take(6)
        .collect();
    // Each truncation order is an independent sweep cell (the analyses
    // above are shared read-only state); the experiment is deterministic,
    // so the driver's RNG streams go unused.
    let orders: Vec<usize> = (1..=8).collect();
    let rows = SweepDriver::new(0).run(&orders, |&order, _| {
        let mut max_err = 0.0f64;
        let mut sum_err = 0.0f64;
        let mut count = 0u32;
        for a in &analyses {
            let truncated = a.pairwise(order);
            let reference = a.pairwise(reference_order);
            for i in 0..truncated.rows() {
                for j in 0..truncated.cols() {
                    let err = (truncated.get(i, j).expect("in range")
                        - reference.get(i, j).expect("in range"))
                    .abs();
                    max_err = max_err.max(err);
                    sum_err += err;
                    count += 1;
                }
            }
        }
        [
            order.to_string(),
            format!("{max_err:.6}"),
            format!("{:.6}", sum_err / count as f64),
        ]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// E3: measured vs analytic influence over a (p₂, p₃) grid.
pub fn e3(scale: Scale) -> Table {
    let mut t = Table::new(["p2", "p3", "analytic", "measured", "abs err"]);
    for &p2 in &[0.2, 0.5, 0.8] {
        for &p3 in &[0.3, 0.6, 0.9] {
            let mut b = SystemSpecBuilder::new(1);
            let m = b
                .add_medium("gv", FactorKind::GlobalVariable, p2)
                .expect("valid probability");
            b.task("w", 0)
                .one_shot(0, 10, 1)
                .writes(m)
                .build()
                .expect("valid task");
            b.task("r", 0)
                .one_shot(5, 10, 1)
                .reads(m)
                .vulnerability(p3)
                .build()
                .expect("valid task");
            let campaign = InfluenceCampaign::new(
                b.build().expect("valid system"),
                20,
                scale.trials,
                scale.base_seed.wrapping_add(11),
            );
            let measured = campaign
                .measure_influence(0, 1)
                .expect("valid tasks")
                .estimate;
            let analytic = Influence::from_factors(&[FaultFactor::new(
                FactorKind::GlobalVariable,
                1.0,
                p2,
                p3,
            )
            .expect("valid factor")])
            .value();
            t.push([
                format!("{p2:.1}"),
                format!("{p3:.1}"),
                format!("{analytic:.3}"),
                format!("{measured:.3}"),
                format!("{:.3}", (measured - analytic).abs()),
            ]);
        }
    }
    t
}

/// E4: end-to-end mission reliability of competing strategies on the
/// avionics suite, swept over the HW fault rate.
pub fn e4(scale: Scale) -> Table {
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let hw = avionics::platform();
    let weights = ImportanceWeights::default();
    let mut t = Table::new([
        "p_hw",
        "strategy",
        "mission failure",
        "cross infl",
        "crit coloc",
    ]);
    // Each fault rate runs its full strategy comparison as one sweep
    // cell; the Monte-Carlo seed lives in the model, so rows are
    // identical for any thread count.
    let rates = [0.01, 0.05, 0.10];
    let rows_per_rate = SweepDriver::new(scale.base_seed).run(&rates, |&p_hw, _| {
        let model = ReliabilityModel {
            p_hw,
            p_sw: 0.05,
            cross_node_attenuation: 0.2,
            critical_at: 7,
            trials: scale.reliability_trials,
            seed: scale.base_seed.wrapping_add(404),
        };
        let mut cmp = Comparison::new();
        cmp.run_strategy("H1+A", g, &hw, &model, || {
            let c = h1(g, hw.len())?;
            let m = approach_a(g, &c, &hw, &weights)?;
            Ok((c, m))
        });
        cmp.run_strategy("H2+A", g, &hw, &model, || {
            let c = h2(g, hw.len(), BisectPolicy::LargestPart)?;
            let m = approach_a(g, &c, &hw, &weights)?;
            Ok((c, m))
        });
        cmp.run_strategy("H3+A", g, &hw, &model, || {
            let c = h3(g, hw.len(), &weights)?;
            let m = approach_a(g, &c, &hw, &weights)?;
            Ok((c, m))
        });
        cmp.run_strategy("B", g, &hw, &model, || approach_b(g, &hw, &weights));
        let mut rows: Vec<[String; 5]> = Vec::new();
        for o in cmp.outcomes() {
            rows.push([
                format!("{p_hw:.2}"),
                o.name.clone(),
                format!("{:.4}", o.reliability.mission_failure),
                format!("{:.3}", o.quality.cross_influence),
                o.quality.critical_colocations.to_string(),
            ]);
        }
        for (name, err) in cmp.failures() {
            rows.push([
                format!("{p_hw:.2}"),
                name.clone(),
                format!("FAILED: {err}"),
                String::new(),
                String::new(),
            ]);
        }
        rows
    });
    for row in rows_per_rate.into_iter().flatten() {
        t.push(row);
    }
    t
}

/// E5: feasibility of condensed nodes vs utilisation — preemptive EDF vs
/// exact non-preemptive, over random 8-job sets.
pub fn e5(scale: Scale) -> Table {
    let mut t = Table::new(["U", "EDF feasible %", "non-preemptive feasible %"]);
    let seeds = (scale.seeds * 16).max(16);
    for step in 0..7 {
        let u = 0.4 + 0.2 * step as f64;
        let mut edf_ok = 0u32;
        let mut np_ok = 0u32;
        for seed in 0..seeds {
            let set = random_job_set(8, u, scale.base_seed.wrapping_add(seed));
            if edf::feasible(&set) {
                edf_ok += 1;
            }
            if nonpreemptive::feasible(&set).unwrap_or(false) {
                np_ok += 1;
            }
        }
        t.push([
            format!("{u:.1}"),
            format!("{:.1}", 100.0 * f64::from(edf_ok) / seeds as f64),
            format!("{:.1}", 100.0 * f64::from(np_ok) / seeds as f64),
        ]);
    }
    t
}

/// E6: R5 retest-set size vs naive full recertification, over random
/// three-level hierarchies.
pub fn e6() -> Table {
    let mut t = Table::new(["fanout", "tree size", "R5 mean", "naive mean", "savings ×"]);
    for &fanout in &[2usize, 4, 8] {
        let mut h = FcmHierarchy::new();
        let root = h
            .add_root("sys", HierarchyLevel::Process, AttributeSet::default())
            .expect("root");
        let mut procedures = Vec::new();
        for ti in 0..fanout {
            let task = h
                .add_child(root, format!("t{ti}"), AttributeSet::default())
                .expect("task");
            for pi in 0..fanout {
                procedures.push(
                    h.add_child(task, format!("t{ti}_p{pi}"), AttributeSet::default())
                        .expect("procedure"),
                );
            }
        }
        let tree_size = h.len();
        let mut r5_sum = 0usize;
        let mut naive_sum = 0usize;
        for &p in &procedures {
            r5_sum += h.retest_set(p).expect("known fcm").size();
            naive_sum += h.naive_retest_set(p).expect("known fcm").len();
        }
        let r5_mean = r5_sum as f64 / procedures.len() as f64;
        let naive_mean = naive_sum as f64 / procedures.len() as f64;
        t.push([
            fanout.to_string(),
            tree_size.to_string(),
            format!("{r5_mean:.1}"),
            format!("{naive_mean:.1}"),
            format!("{:.1}", naive_mean / r5_mean),
        ]);
    }
    t
}

/// E7: isolation-technique ablation — measured influence with and
/// without each technique (paper §3–§4.2).
pub fn e7(scale: Scale) -> Table {
    let mut t = Table::new(["path", "isolation", "measured influence"]);
    // Value path: sensors → autopilot via shared memory, ± hiding.
    for (label, isolate) in [("none", false), ("information hiding", true)] {
        let mut b = SystemSpecBuilder::new(1);
        let m = b
            .add_medium("shm", FactorKind::SharedMemory, 0.8)
            .expect("valid probability");
        if isolate {
            b.isolate_medium(m, IsolationTechnique::InformationHiding)
                .expect("medium exists");
        }
        b.task("w", 0)
            .one_shot(0, 10, 1)
            .writes(m)
            .build()
            .expect("task");
        b.task("r", 0)
            .one_shot(5, 10, 1)
            .reads(m)
            .build()
            .expect("task");
        let campaign = InfluenceCampaign::new(
            b.build().expect("system"),
            20,
            scale.trials,
            scale.base_seed.wrapping_add(5),
        );
        let infl = campaign.measure_influence(0, 1).expect("tasks").estimate;
        t.push([
            "value (shm)".to_string(),
            label.into(),
            format!("{infl:.3}"),
        ]);
    }
    // Value path with recovery blocks (task-level isolation, §3.2).
    for (label, recovery) in [("recovery blocks 0.6", 0.6), ("recovery blocks 0.9", 0.9)] {
        let mut b = SystemSpecBuilder::new(1);
        let m = b
            .add_medium("shm", FactorKind::SharedMemory, 0.8)
            .expect("valid probability");
        b.task("w", 0)
            .one_shot(0, 10, 1)
            .writes(m)
            .build()
            .expect("task");
        b.task("r", 0)
            .one_shot(5, 10, 1)
            .reads(m)
            .recovery(recovery)
            .build()
            .expect("task");
        let campaign = InfluenceCampaign::new(
            b.build().expect("system"),
            20,
            scale.trials,
            scale.base_seed.wrapping_add(5),
        );
        let infl = campaign.measure_influence(0, 1).expect("tasks").estimate;
        t.push([
            "value (shm)".to_string(),
            label.into(),
            format!("{infl:.3}"),
        ]);
    }
    // Timing path: overrun under FIFO vs preemptive EDF.
    for (label, policy) in [
        ("none (FIFO)", SchedulingPolicy::NonPreemptiveFifo),
        ("preemptive scheduling", SchedulingPolicy::PreemptiveEdf),
    ] {
        let (spec, roles) = avionics::control_loop_system(policy).expect("static system");
        let campaign = InfluenceCampaign::new(
            spec,
            400,
            scale.trials.min(500),
            scale.base_seed.wrapping_add(5),
        );
        let infl = campaign
            .measure_influence_with(
                roles.maintenance,
                roles.autopilot,
                FaultKind::TimingOverrun { factor: 8 },
            )
            .expect("tasks")
            .estimate;
        t.push([
            "timing (overrun)".to_string(),
            label.into(),
            format!("{infl:.3}"),
        ]);
    }
    t
}

/// E8: the integration-depth tradeoff the paper defers — sweep the
/// cluster count on the avionics suite and locate the knee.
///
/// The sweep also exposes a second integration limit the paper only
/// hints at ("need for a resource present on only one processor"):
/// depths 3–5 are infeasible not for timing or anti-affinity but because
/// deep clustering packs the display and radio functions into one
/// cluster while no processor carries both resources.
///
/// The depth sweep itself fans out across the [`SweepDriver`] pool
/// inside [`integration_sweep`](fcm_eval::tradeoff::integration_sweep).
pub fn e8(scale: Scale) -> Table {
    use fcm_eval::tradeoff::integration_sweep;
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let model = ReliabilityModel {
        p_hw: 0.05,
        p_sw: 0.05,
        cross_node_attenuation: 0.2,
        critical_at: 7,
        trials: scale.reliability_trials,
        seed: scale.base_seed.wrapping_add(505),
    };
    let curve = integration_sweep(
        g,
        1..=g.node_count(),
        platform_with_resources,
        &model,
        &ImportanceWeights::default(),
    );
    let mut t = Table::new([
        "clusters",
        "cross infl",
        "crit coloc",
        "mission failure",
        "note",
    ]);
    let knee = curve.knee(0.01).map(|p| p.clusters);
    let best = curve.best().map(|p| p.clusters);
    for p in curve.points() {
        let note = match (Some(p.clusters) == knee, Some(p.clusters) == best) {
            (true, true) => "knee+best",
            (true, false) => "knee",
            (false, true) => "best",
            _ => "",
        };
        t.push([
            p.clusters.to_string(),
            format!("{:.3}", p.quality.cross_influence),
            p.quality.critical_colocations.to_string(),
            format!("{:.4}", p.reliability.mission_failure),
            note.to_string(),
        ]);
    }
    for (k, reason) in curve.infeasible() {
        t.push([
            k.to_string(),
            String::new(),
            String::new(),
            String::new(),
            format!("infeasible: {reason}"),
        ]);
    }
    t
}

/// E9: HW platform selection under a reliability target (the paper's
/// HW/SW codesign future work).
pub fn e9(scale: Scale) -> String {
    use fcm_eval::platform::{select_platform, PlatformOption};
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let model = ReliabilityModel {
        p_hw: 0.05,
        p_sw: 0.05,
        cross_node_attenuation: 0.2,
        critical_at: 7,
        trials: scale.reliability_trials,
        seed: scale.base_seed.wrapping_add(606),
    };
    let options = vec![
        PlatformOption::new("4-node bare", fcm_alloc::HwGraph::complete(4), 4.0),
        PlatformOption::new("5-node equipped", platform_with_resources(5), 5.5),
        PlatformOption::new("6-node equipped", platform_with_resources(6), 6.5),
        PlatformOption::new("8-node equipped", platform_with_resources(8), 8.5),
        PlatformOption::new("12-node equipped", platform_with_resources(12), 12.5),
    ];
    let target = 0.16;
    let sel = select_platform(g, &options, &model, &ImportanceWeights::default(), target);
    format!(
        "mission-failure target: {target}
{sel}"
    )
}

/// E10: heuristic × interaction structure — normalised residual
/// cross-node influence of each heuristic on each canonical topology.
pub fn e10() -> Table {
    use fcm_workloads::topologies;
    let mut t = Table::new(["topology", "n", "H1", "H1'", "H2", "H3"]);
    let cases: Vec<(&str, fcm_alloc::SwGraph, usize)> = vec![
        ("chain", topologies::chain(24, 0.5), 6),
        ("star", topologies::star(24, 0.4), 6),
        (
            "ring-of-cliques",
            topologies::ring_of_cliques(6, 4, 0.6, 0.05),
            6,
        ),
        ("layered", topologies::layered(4, 6, 0.3), 6),
    ];
    let weights = ImportanceWeights::default();
    for (name, g, target) in cases {
        let total: f64 = g
            .edges()
            .map(|(_, e)| e.weight.influence())
            .sum::<f64>()
            .max(1e-9);
        let norm = |r: Result<Clustering, fcm_alloc::AllocError>| match r {
            Ok(c) => format!("{:.3}", c.cross_influence(&g) / total),
            Err(_) => "fail".into(),
        };
        t.push([
            name.to_string(),
            g.node_count().to_string(),
            norm(h1(&g, target)),
            norm(h1_pair_all(&g, target)),
            norm(h2(&g, target, BisectPolicy::LargestPart)),
            norm(h3(&g, target, &weights)),
        ]);
    }
    t
}

/// E11: closing the loop — the integrated avionics system is
/// *materialised* into the discrete-event simulator and a fault is
/// injected into the least critical function (`cabin`); the measured
/// probability that the fault reaches any flight-critical function
/// (criticality ≥ 7) is compared across mappings and HW-boundary
/// strengths. This validates the reliability model's propagation story
/// with an independent mechanism (actual message/shared-memory traffic
/// instead of the analytic Monte-Carlo).
pub fn e11(scale: Scale) -> Table {
    use fcm_workloads::materialize::system_from_mapping;
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let hw = avionics::platform();
    let weights = ImportanceWeights::default();
    let mut t = Table::new(["mapping", "attenuation", "critical exposure"]);
    let strategies: Vec<(&str, (Clustering, fcm_alloc::Mapping))> = vec![
        ("H1+A", {
            let c = h1(g, hw.len()).expect("feasible");
            let m = approach_a(g, &c, &hw, &weights).expect("mapping");
            (c, m)
        }),
        ("B", approach_b(g, &hw, &weights).expect("mapping")),
    ];
    let critical: Vec<usize> = g
        .nodes()
        .filter(|(_, n)| n.attributes.criticality.0 >= 7)
        .map(|(i, _)| i.index())
        .collect();
    let source = g
        .nodes()
        .find(|(_, n)| n.name == "cabin")
        .map(|(i, _)| i)
        .expect("cabin exists");
    for (name, (clustering, mapping)) in &strategies {
        for attenuation in [1.0, 0.2] {
            let mat = system_from_mapping(
                g,
                clustering,
                mapping,
                SchedulingPolicy::PreemptiveEdf,
                attenuation,
            )
            .expect("materialisation succeeds");
            let src_task = mat.task(source);
            let critical_tasks: Vec<usize> = critical.iter().map(|&n| mat.task_of[n]).collect();
            let campaign = InfluenceCampaign::new(
                mat.spec,
                600,
                scale.trials,
                scale.base_seed.wrapping_add(808),
            );
            // Exposure: P(any critical task faulty | cabin fault).
            let mut any = 0u64;
            let trials = scale.trials.min(800);
            for trial in 0..trials {
                let trace = fcm_sim::engine::run(
                    campaign.spec(),
                    &[fcm_sim::Injection::value(0, src_task)],
                    scale.base_seed.wrapping_add(808 + trial),
                    600,
                );
                if critical_tasks.iter().any(|&ct| trace.value_faulty(ct)) {
                    any += 1;
                }
            }
            t.push([
                name.to_string(),
                format!("{attenuation:.1}"),
                format!("{:.3}", any as f64 / trials as f64),
            ]);
        }
    }
    t
}

/// E13: TMR voting end to end — the avionics suite materialised with and
/// without synthesised majority voters; a value fault is injected into
/// one (then two) autopilot replicas and the probability that the fault
/// reaches the display manager is measured.
pub fn e13(scale: Scale) -> Table {
    use fcm_workloads::materialize::{system_from_mapping, system_from_mapping_voted};
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let hw = avionics::platform();
    let weights = ImportanceWeights::default();
    let c = h1(g, hw.len()).expect("feasible clustering");
    let m = approach_a(g, &c, &hw, &weights).expect("mapping");
    let find = |name: &str| {
        g.nodes()
            .find(|(_, n)| n.name == name)
            .map(|(i, _)| i)
            .expect("named node exists")
    };
    let ap_a = find("autopilota");
    let ap_b = find("autopilotb");
    let display = find("display");
    let mut t = Table::new(["materialisation", "corrupt replicas", "P(display faulty)"]);
    for (label, voted) in [("unvoted", false), ("voted", true)] {
        let mat = if voted {
            system_from_mapping_voted(g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0)
        } else {
            system_from_mapping(g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0)
        }
        .expect("materialisation succeeds");
        for (count, sources) in [(1usize, vec![ap_a]), (2, vec![ap_a, ap_b])] {
            let injections: Vec<fcm_sim::Injection> = sources
                .iter()
                .map(|&sw| fcm_sim::Injection::value(0, mat.task(sw)))
                .collect();
            let trials = scale.trials.min(600);
            let mut hits = 0u64;
            for trial in 0..trials {
                let trace = fcm_sim::engine::run(
                    &mat.spec,
                    &injections,
                    scale.base_seed.wrapping_add(900 + trial),
                    200,
                );
                if trace.value_faulty(mat.task(display)) {
                    hits += 1;
                }
            }
            t.push([
                label.to_string(),
                count.to_string(),
                format!("{:.3}", hits as f64 / trials as f64),
            ]);
        }
    }
    t
}

/// E12: the paper's workflow end to end from measurements — run an
/// injection campaign over the executable control loop, turn the
/// measured influence matrix into an SW graph, and integrate it with H1.
/// No influence value is hand-assigned anywhere in the chain.
pub fn e12(scale: Scale) -> String {
    use fcm_workloads::measured::sw_graph_from_measurements;
    let (spec, roles) =
        avionics::control_loop_system(SchedulingPolicy::PreemptiveEdf).expect("static system");
    let campaign =
        InfluenceCampaign::new(spec, 400, scale.trials, scale.base_seed.wrapping_add(4242));
    let g = sw_graph_from_measurements(&campaign, &[], 0.05).expect("attribute vector empty");
    let mut out = String::from(
        "measured influence edges (threshold 0.05):
",
    );
    for (_, e) in g.edges() {
        out.push_str(&format!(
            "  {} -> {}: {}
",
            g.node(e.from).expect("endpoint").name,
            g.node(e.to).expect("endpoint").name,
            e.weight
        ));
    }
    match h1(&g, 3) {
        Ok(c) => {
            out.push_str(
                "H1 integration of the measured graph (3 nodes):
",
            );
            for i in 0..c.len() {
                out.push_str(&format!(
                    "  {{{}}}
",
                    c.cluster_name(&g, i)
                ));
            }
            let sensors_with_autopilot = c.clusters().iter().any(|grp| {
                grp.contains(&NodeIdx(roles.sensors)) && grp.contains(&NodeIdx(roles.autopilot))
            });
            out.push_str(&format!(
                "sensors co-located with autopilot: {sensors_with_autopilot}
"
            ));
        }
        Err(e) => out.push_str(&format!(
            "integration failed: {e}
"
        )),
    }
    out
}

/// E14: node-failure recovery policy sweep. The expanded avionics suite
/// on its 6-cabinet platform, swept over the HW fault rate × the four
/// [`RecoveryPolicy`](fcm_eval::reliability::RecoveryPolicy) levels of
/// the repairable reliability model. The policies share each trial's
/// fault world (common random numbers), so mission failure is monotone
/// non-increasing down the policy column at every fault rate — exactly,
/// not just in expectation.
pub fn e14(scale: Scale) -> Table {
    use fcm_eval::{RecoveryPolicy, RepairableModel};
    let (ex, _) = avionics::expanded_suite();
    let g = &ex.graph;
    let hw = avionics::platform();
    let weights = ImportanceWeights::default();
    let c = h1(g, hw.len()).expect("avionics suite clusters");
    let m = approach_a(g, &c, &hw, &weights).expect("avionics suite maps");
    let mut t = Table::new([
        "p_hw",
        "policy",
        "mission failure",
        "mean shed",
        "mean recoveries",
        "mttr",
    ]);
    // Every (rate, policy) pair is an independent sweep cell — the
    // repairable model replays the same seeded fault worlds per cell, so
    // the common-random-numbers policy ordering survives the fan-out.
    let cells: Vec<(f64, RecoveryPolicy)> = [0.02, 0.05, 0.10, 0.20]
        .iter()
        .flat_map(|&p_hw| RecoveryPolicy::ALL.into_iter().map(move |p| (p_hw, p)))
        .collect();
    let rows = SweepDriver::new(scale.base_seed).run(&cells, |&(p_hw, policy), _| {
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw,
                p_sw: 0.05,
                cross_node_attenuation: 0.2,
                critical_at: 7,
                trials: scale.reliability_trials,
                seed: scale.base_seed.wrapping_add(1414),
            },
            ..RepairableModel::default()
        };
        let est = model.evaluate(g, &c, &m, &hw, policy);
        [
            format!("{p_hw:.2}"),
            policy.label().to_string(),
            format!("{:.4}", est.mission_failure),
            format!("{:.3}", est.mean_shed_processes),
            format!("{:.3}", est.mean_recoveries),
            est.mttr
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
        ]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// E15: the sparse large-n analysis engine. Sweeps fleet sizes through
/// the CSR walk-series kernel (Eq. 3) and the top-k influence query; at
/// oracle sizes (n ≤ 512) the dense blocked kernel is recomputed and
/// compared **bitwise** before the row is emitted — any divergence
/// panics the run. Timings live in `BENCH_sparse_kernel.json`; this
/// table records only deterministic quantities, so `verify.sh` can
/// byte-compare sequential vs parallel sweeps.
pub fn e15(scale: Scale) -> Table {
    use fcm_graph::InfluenceMatrix;
    use fcm_workloads::fleet::SparseFleet;
    const ORDER: usize = 8;
    const EPSILON: f64 = 1e-12;
    let ns: Vec<usize> = if scale.trials >= Scale::FULL.trials {
        vec![128, 512, 1_000, 10_000, 50_000]
    } else {
        vec![128, 512, 1_000]
    };
    let mut t = Table::new([
        "n",
        "repr",
        "nnz",
        "density",
        "series nnz",
        "top-1 from p0",
        "oracle",
    ]);
    let rows = SweepDriver::new(scale.base_seed).run(&ns, |&n, _| {
        let fleet = SparseFleet {
            processes: n,
            seed: scale.base_seed.wrapping_add(n as u64),
            ..SparseFleet::default()
        };
        let m = fleet.matrix();
        let series = m.walk_series(ORDER, EPSILON);
        let oracle = if n <= 512 {
            let want = m.to_dense().walk_series(ORDER, EPSILON);
            for i in 0..n {
                for j in 0..n {
                    let sv = series.get(i, j).unwrap_or(0.0);
                    let dv = want.get(i, j).expect("in bounds");
                    assert_eq!(
                        sv.to_bits(),
                        dv.to_bits(),
                        "sparse/dense divergence at n={n} entry ({i},{j})"
                    );
                }
            }
            "bitwise-equal"
        } else {
            "skipped"
        };
        let mut im = InfluenceMatrix::Sparse(m);
        im.rebalance();
        let top1 = im
            .top_k_influence(0, 1, ORDER)
            .first()
            .map_or_else(|| "-".to_string(), |&(j, v)| format!("p{j} {v:.6}"));
        [
            n.to_string(),
            im.repr().to_string(),
            im.nnz().to_string(),
            format!("{:.5}", im.density()),
            series.nnz().to_string(),
            top1,
            oracle.to_string(),
        ]
    });
    for row in rows {
        t.push(row);
    }
    t
}

/// A complete platform of `k` nodes with the avionics resources on the
/// first two nodes (the display head and the radio).
fn platform_with_resources(k: usize) -> fcm_alloc::HwGraph {
    let mut hw = fcm_alloc::HwGraph::complete(k);
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

// ----------------------------------------------------------------- helpers

/// Minimum cluster count imposed by the largest replica group.
fn min_clusters(g: &fcm_alloc::SwGraph) -> usize {
    use std::collections::BTreeMap;
    let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, n) in g.nodes() {
        if let Some(rg) = n.replica_group {
            *sizes.entry(rg).or_default() += 1;
        }
    }
    sizes.values().copied().max().unwrap_or(1)
}

/// A random job set of `n` jobs with total utilisation ≈ `u` over a
/// 100-tick window.
fn random_job_set(n: usize, u: f64, seed: u64) -> JobSet {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let horizon = 100u64;
    let total_work = (u * horizon as f64) as u64;
    let mut jobs = Vec::with_capacity(n);
    let mut remaining = total_work.max(n as u64);
    for i in 0..n {
        let ct = if i == n - 1 {
            remaining.max(1)
        } else {
            let share = (remaining / (n - i) as u64).max(1);
            rng.gen_range(1..=share * 2)
                .min(remaining.saturating_sub((n - i - 1) as u64))
                .max(1)
        };
        remaining = remaining.saturating_sub(ct);
        let est = rng.gen_range(0..horizon / 2);
        let window = rng.gen_range(ct..=ct + horizon / 2);
        jobs.push(Job::new(i as u64, est, est + window, ct));
    }
    JobSet::new(jobs).expect("generated jobs are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_and_figures_render() {
        assert!(t1().contains("p1"));
        assert!(f3().contains("p1 -> p2 [0.5]"));
        assert!(f3().contains("p1 - p2: 1.2"));
        assert!(f4().starts_with("12 nodes"));
        let f5t = f5();
        assert_eq!(f5t.len(), 2);
        // The famous 0.76 appears in the {p1,p2,p3} row.
        assert!(f5t.rows()[1].iter().any(|c| c == "0.7600"));
        assert!(f6().contains("hw"));
        assert!(f7().contains("summary criticality"));
        assert!(f8().contains("envelope"));
    }

    #[test]
    fn dot_figures_render() {
        let d3 = f3_dot();
        assert!(d3.contains("digraph fig3"));
        assert!(d3.contains("\"p1\" -> \"p2\" [label=\"0.5\"]"));
        let d4 = f4_dot();
        assert!(d4.contains("digraph fig4"));
        assert!(d4.contains("style=dashed"));
        assert!(d4.contains("p1c"));
    }

    #[test]
    fn e1_covers_all_strategies_and_sizes() {
        let t = e1(Scale::QUICK);
        assert_eq!(t.len(), 4 * 6);
        // No strategy fails on every seed for small graphs.
        for row in t.rows().iter().take(5) {
            assert_ne!(row[2], "NaN", "{row:?}");
        }
    }

    #[test]
    fn e2_error_decreases_with_order() {
        let t = e2();
        assert_eq!(t.len(), 8);
        let errs: Vec<f64> = t.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{errs:?}");
        }
        // Order 4 is already tight (the DEFAULT_ORDER rationale).
        assert!(errs[3] < 0.05, "{errs:?}");
    }

    #[test]
    fn e3_measured_tracks_analytic() {
        let t = e3(Scale::QUICK);
        assert_eq!(t.len(), 9);
        for row in t.rows() {
            let err: f64 = row[4].parse().unwrap();
            assert!(err < 0.12, "{row:?}");
        }
    }

    #[test]
    fn e4_reports_all_strategies_per_fault_rate() {
        let t = e4(Scale::QUICK);
        assert_eq!(t.len(), 3 * 4);
        // Mission failure grows with the HW fault rate for each strategy.
        let fail = |row: &Vec<String>| row[2].parse::<f64>().unwrap();
        let h1_rows: Vec<&Vec<String>> = t.rows().iter().filter(|r| r[1] == "H1+A").collect();
        assert!(fail(h1_rows[0]) <= fail(h1_rows[2]) + 0.02);
    }

    #[test]
    fn e14_recovery_policies_are_ordered_at_every_rate() {
        let t = e14(Scale::QUICK);
        // 4 fault rates × 4 policies.
        assert_eq!(t.len(), 4 * 4);
        let fail = |row: &Vec<String>| row[2].parse::<f64>().unwrap();
        for rate_rows in t.rows().chunks(4) {
            // none ≥ retry-only ≥ failover ≥ failover+shedding.
            for pair in rate_rows.windows(2) {
                assert!(
                    fail(&pair[0]) >= fail(&pair[1]),
                    "ordering violated: {rate_rows:?}"
                );
            }
            // Policy labels in sweep order.
            assert_eq!(rate_rows[0][1], "none");
            assert_eq!(rate_rows[3][1], "failover+shedding");
            // No recovery ⇒ no recoveries and no MTTR.
            assert_eq!(rate_rows[0][4], "0.000");
            assert_eq!(rate_rows[0][5], "-");
        }
        // Recovery actually happens at the higher fault rates.
        let last = &t.rows()[15];
        assert!(last[4].parse::<f64>().unwrap() > 0.0, "{last:?}");
    }

    #[test]
    fn e15_sparse_sweep_is_oracle_checked_and_deterministic() {
        let t = e15(Scale::QUICK);
        assert_eq!(t.len(), 3);
        for row in t.rows() {
            assert_eq!(row[1], "csr", "{row:?}");
            let density: f64 = row[3].parse().unwrap();
            assert!(density > 0.0 && density <= 0.05, "{row:?}");
            let nnz: usize = row[2].parse().unwrap();
            let series_nnz: usize = row[4].parse().unwrap();
            assert!(series_nnz > nnz, "the walk extends direct edges: {row:?}");
        }
        // Oracle runs at every n ≤ 512 cell, is skipped above.
        assert_eq!(t.rows()[0][6], "bitwise-equal");
        assert_eq!(t.rows()[1][6], "bitwise-equal");
        assert_eq!(t.rows()[2][6], "skipped");
        // Byte-identical across repeated runs (the verify.sh contract).
        assert_eq!(t.to_string(), e15(Scale::QUICK).to_string());
    }

    #[test]
    fn e5_edf_dominates_nonpreemptive() {
        let t = e5(Scale::QUICK);
        assert_eq!(t.len(), 7);
        for row in t.rows() {
            let edf: f64 = row[1].parse().unwrap();
            let np: f64 = row[2].parse().unwrap();
            assert!(edf >= np - 1e-9, "{row:?}");
        }
        // Feasibility collapses as U crosses 1.
        let first: f64 = t.rows()[0][1].parse().unwrap();
        let last: f64 = t.rows()[6][1].parse().unwrap();
        assert!(first > last);
    }

    #[test]
    fn e6_savings_grow_with_fanout() {
        let t = e6();
        assert_eq!(t.len(), 3);
        let savings: Vec<f64> = t.rows().iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(savings[2] > savings[0], "{savings:?}");
        assert!(savings.iter().all(|&s| s >= 1.0));
    }

    #[test]
    fn e7_isolation_reduces_both_paths() {
        let t = e7(Scale::QUICK);
        assert_eq!(t.len(), 6);
        let infl = |i: usize| t.rows()[i][2].parse::<f64>().unwrap();
        // Hiding reduces the value path; stronger recovery reduces it
        // further; preemption kills the timing path.
        assert!(infl(1) < infl(0), "{:?}", t.rows());
        assert!(infl(2) < infl(0), "{:?}", t.rows());
        assert!(infl(3) < infl(2), "{:?}", t.rows());
        assert!(infl(5) < infl(4), "{:?}", t.rows());
    }

    #[test]
    fn e8_curve_has_a_knee_no_deeper_than_best() {
        let t = e8(Scale::QUICK);
        assert!(t.len() >= 8, "{:?}", t.rows());
        let knee = t.rows().iter().find(|r| r[4].contains("knee"));
        let best = t.rows().iter().find(|r| r[4].contains("best"));
        let (knee, best) = (knee.expect("knee exists"), best.expect("best exists"));
        let k_knee: usize = knee[0].parse().unwrap();
        let k_best: usize = best[0].parse().unwrap();
        assert!(k_knee <= k_best);
        // k = 1, 2 fail on replica anti-affinity (TMR autopilot); k = 3..5
        // fail because deep clustering packs the display and radio
        // functions together while no processor carries both resources.
        let infeasible: Vec<usize> = t
            .rows()
            .iter()
            .filter(|r| r[4].contains("infeasible"))
            .map(|r| r[0].parse().unwrap())
            .collect();
        assert_eq!(infeasible, vec![1, 2, 3, 4, 5], "{:?}", t.rows());
        let feasible_min: usize = t
            .rows()
            .iter()
            .filter(|r| !r[4].contains("infeasible"))
            .map(|r| r[0].parse().unwrap())
            .min()
            .unwrap();
        assert_eq!(feasible_min, 6);
    }

    #[test]
    fn e10_h2_wins_on_ring_of_cliques() {
        let t = e10();
        assert_eq!(t.len(), 4);
        let roc = t
            .rows()
            .iter()
            .find(|r| r[0] == "ring-of-cliques")
            .expect("topology present");
        let h2_score: f64 = roc[4].parse().unwrap();
        let h3_score: f64 = roc[5].parse().unwrap();
        // Min-cut recovers the clique structure exactly (only the thin
        // bridges cross); importance spheres do worse here.
        assert!(h2_score <= h3_score + 1e-9, "{:?}", roc);
        // Every cell is a number or an explicit "fail".
        for row in t.rows() {
            for cell in &row[2..] {
                assert!(cell == "fail" || cell.parse::<f64>().is_ok(), "{cell}");
            }
        }
    }

    #[test]
    fn e11_boundaries_contain_the_materialised_fault() {
        let t = e11(Scale::QUICK);
        assert_eq!(t.len(), 4);
        // For each mapping, strong HW boundaries (attenuation 0.2) leak
        // no more than leaky ones (1.0).
        for pair in t.rows().chunks(2) {
            let leaky: f64 = pair[0][2].parse().unwrap();
            let tight: f64 = pair[1][2].parse().unwrap();
            assert!(tight <= leaky + 0.05, "{pair:?}");
        }
    }

    #[test]
    fn e13_voting_masks_single_replica_faults() {
        let t = e13(Scale::QUICK);
        assert_eq!(t.len(), 4);
        let p = |i: usize| t.rows()[i][2].parse::<f64>().unwrap();
        // Unvoted, one corrupt replica: the fault leaks substantially.
        assert!(p(0) > 0.3, "{:?}", t.rows());
        // Voted, one corrupt replica: fully masked.
        assert!(p(2) < 0.02, "{:?}", t.rows());
        // Voted, two corrupt replicas: the vote can be defeated, but only
        // when two lossy channels (p = 0.2 each) deliver corruption in the
        // same frame — analytically ≈ 0.104 per frame, far above the
        // masked single-replica case yet far below the unvoted leak.
        assert!(p(3) > 0.04, "{:?}", t.rows());
        assert!(p(3) < p(0), "{:?}", t.rows());
    }

    #[test]
    fn e12_measured_workflow_runs_end_to_end() {
        let s = e12(Scale::QUICK);
        assert!(s.contains("sensors -> autopilot"), "{s}");
        assert!(s.contains("sensors co-located with autopilot: true"), "{s}");
    }

    #[test]
    fn e9_selects_an_equipped_platform() {
        let s = e9(Scale::QUICK);
        assert!(s.contains("=> "), "{s}");
        // The bare platform can never host the display/radio functions.
        assert!(s.contains("4-node bare"));
        let bare_line = s.lines().find(|l| l.contains("4-node bare")).unwrap();
        assert!(bare_line.contains("infeasible"), "{bare_line}");
    }
}
