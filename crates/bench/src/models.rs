//! Assembles the analyzable [`SystemModel`]s behind the committed
//! workloads, for `checktool` and `repro --check`.
//!
//! Two complete models are exposed: the paper's §6 worked example
//! (`paper`) and the avionics extension suite (`avionics`). Both are
//! built from the same constructors the experiments use, so a clean
//! bill of health from `fcm-check` covers exactly what the benchmarks
//! run. [`broken_e14_model`] deliberately damages the avionics model
//! for the worked diagnostics example in EXPERIMENTS.md.

use fcm_alloc::heuristics::h1;
use fcm_alloc::mapping::{approach_a, Mapping};
use fcm_alloc::ShedPolicy;
use fcm_check::{FactorView, RecoveryView, SystemModel};
use fcm_core::{AttributeSet, FcmHierarchy, HierarchyLevel, ImportanceWeights};
use fcm_graph::Matrix;
use fcm_workloads::materialize::RecoverySpec;
use fcm_workloads::{avionics, paper};

/// Names of the committed workload models, in report order.
pub const MODEL_NAMES: [&str; 2] = ["paper", "avionics"];

/// Criticality threshold for the degraded-mode shed policy attached to
/// both models: every replicated, pinned, or resource-bound FCM in the
/// committed workloads has criticality ≥ 4, so protected work is never
/// below the shed line (rule C015).
pub const SHED_CRITICAL_AT: u32 = 3;

fn recovery_view(spec: &RecoverySpec) -> RecoveryView {
    RecoveryView {
        heartbeat_period: spec.heartbeat_period,
        detection_latency: spec.detection_latency,
        max_retries: spec.max_retries,
        backoff_base: spec.backoff_base,
        checkpoint_every: spec.checkpoint_every,
    }
}

fn attrs(criticality: u32) -> AttributeSet {
    AttributeSet::default().with_criticality(criticality)
}

/// The FCM tree behind the paper example: each Table 1 process is a
/// root, and p1 (the TMR flight-control process) is given its task and
/// procedure substructure so all three ladder ranks are exercised.
fn paper_hierarchy() -> FcmHierarchy {
    let mut h = FcmHierarchy::new();
    for row in &paper::TABLE_1 {
        let p = h
            .add_root(row.name, HierarchyLevel::Process, paper::attributes(row))
            .expect("root insertion is infallible");
        if row.name == "p1" {
            let control = h
                .add_child(p, "p1.control", attrs(row.criticality))
                .expect("process accepts task children");
            let io = h
                .add_child(p, "p1.io", attrs(row.criticality - 2))
                .expect("process accepts task children");
            h.add_child(control, "p1.control.law", attrs(row.criticality))
                .expect("task accepts procedure children");
            h.add_child(io, "p1.io.read", attrs(row.criticality - 2))
                .expect("task accepts procedure children");
        }
    }
    h
}

/// Eq. 1 factor triples consistent with the Fig. 3 edge weights: the
/// surviving paper values are the products, so occurrence carries the
/// weight and transmission/manifestation are certain.
fn paper_factors() -> Vec<FactorView> {
    paper::FIG_3_EDGES
        .iter()
        .map(|&(from, to, p)| FactorView {
            from: paper::TABLE_1[from].name.to_string(),
            to: paper::TABLE_1[to].name.to_string(),
            occurrence: p,
            transmission: 1.0,
            manifestation: 1.0,
        })
        .collect()
}

/// The complete paper (§6) system model.
#[must_use]
pub fn paper_model() -> SystemModel {
    let ex = paper::fig4_expansion();
    let g = ex.graph;
    let hw = paper::hw_platform();
    let c = h1(&g, hw.len()).expect("paper clustering is feasible");
    let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).expect("paper mapping exists");
    let influence = Matrix::from_graph(&g);
    SystemModel::new("paper")
        .with_hierarchy(&paper_hierarchy())
        .with_retest_from_view()
        .with_factors(paper_factors())
        .with_influence(influence)
        .with_sw(g)
        .with_clustering(c)
        .with_mapping(m, hw)
        .with_recovery(recovery_view(&RecoverySpec::default()))
        .with_shed(ShedPolicy::ShedBelow {
            critical_at: SHED_CRITICAL_AT,
        })
}

/// The FCM tree behind the avionics suite: one process root per
/// function; the autopilot gets task/procedure substructure.
fn avionics_hierarchy() -> FcmHierarchy {
    let mut h = FcmHierarchy::new();
    let rows: [(&str, u32); 8] = [
        ("autopilot", 10),
        ("collision", 9),
        ("sensors", 8),
        ("nav", 7),
        ("display", 5),
        ("datalink", 4),
        ("maintenance", 2),
        ("cabin", 1),
    ];
    for &(name, crit) in &rows {
        let p = h
            .add_root(name, HierarchyLevel::Process, attrs(crit))
            .expect("root insertion is infallible");
        if name == "autopilot" {
            let laws = h
                .add_child(p, "autopilot.laws", attrs(crit))
                .expect("process accepts task children");
            h.add_child(laws, "autopilot.laws.inner", attrs(crit))
                .expect("task accepts procedure children");
            h.add_child(laws, "autopilot.laws.outer", attrs(crit - 1))
                .expect("task accepts procedure children");
        }
    }
    h
}

/// The complete avionics extension system model (the E14 workload).
#[must_use]
pub fn avionics_model() -> SystemModel {
    let (ex, _) = avionics::expanded_suite();
    let g = ex.graph;
    let hw = avionics::platform();
    let c = h1(&g, hw.len()).expect("avionics clustering is feasible");
    let m =
        approach_a(&g, &c, &hw, &ImportanceWeights::default()).expect("avionics mapping exists");
    let influence = Matrix::from_graph(&g);
    SystemModel::new("avionics")
        .with_hierarchy(&avionics_hierarchy())
        .with_retest_from_view()
        .with_influence(influence)
        .with_sw(g)
        .with_clustering(c)
        .with_mapping(m, hw)
        .with_recovery(recovery_view(&RecoverySpec::default()))
        .with_shed(ShedPolicy::ShedBelow {
            critical_at: SHED_CRITICAL_AT,
        })
}

/// The avionics model with three deliberate defects, for the worked
/// example in EXPERIMENTS.md:
///
/// * an Eq. 1 occurrence probability inflated past 1 (→ C008);
/// * two conflicting clusters remapped onto one cabinet (→ C012);
/// * the watchdog heartbeat period zeroed out (→ C016).
#[must_use]
pub fn broken_e14_model() -> SystemModel {
    let mut model = avionics_model();
    model.name = "avionics-broken".to_string();

    model.factors.push(FactorView {
        from: "sensors".to_string(),
        to: "autopilot".to_string(),
        occurrence: 1.4,
        transmission: 1.0,
        manifestation: 1.0,
    });

    let (g, c, m) = (
        model.sw.as_ref().expect("avionics model carries a graph"),
        model
            .clustering
            .as_ref()
            .expect("avionics model carries a clustering"),
        model
            .mapping
            .as_ref()
            .expect("avionics model carries a mapping"),
    );
    let mut assignment: Vec<_> = m.iter().map(|(_, hw)| hw).collect();
    let &(a, b) = c
        .conflicting_pairs(g)
        .first()
        .expect("replicated suite has conflicting cluster pairs");
    assignment[b] = assignment[a];
    model.mapping = Some(Mapping::from_assignment(assignment));

    if let Some(r) = &mut model.recovery {
        r.heartbeat_period = 0;
    }
    model
}

/// Looks a committed workload model up by name.
#[must_use]
pub fn model_by_name(name: &str) -> Option<SystemModel> {
    match name {
        "paper" => Some(paper_model()),
        "avionics" => Some(avionics_model()),
        _ => None,
    }
}

/// All committed workload models, in [`MODEL_NAMES`] order.
#[must_use]
pub fn workload_models() -> Vec<SystemModel> {
    MODEL_NAMES
        .iter()
        .map(|n| model_by_name(n).expect("MODEL_NAMES entries resolve"))
        .collect()
}

/// The workload models an experiment id draws on: the avionics suite
/// backs the extension experiments, everything else runs on the paper
/// example alone.
#[must_use]
pub fn models_for_experiment(id: &str) -> &'static [&'static str] {
    match id {
        "e5" | "e11" | "e12" | "e13" | "e14" => &MODEL_NAMES,
        _ => &["paper"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_check::{run_checks, Severity};

    #[test]
    fn committed_workload_models_have_no_errors() {
        for model in workload_models() {
            let report = run_checks(&model);
            assert_eq!(
                report.count(Severity::Error),
                0,
                "{}:\n{}",
                model.name,
                report.render()
            );
        }
    }

    #[test]
    fn broken_model_fires_the_documented_codes() {
        let report = run_checks(&broken_e14_model());
        let codes: Vec<u16> = report.diagnostics.iter().map(|d| d.code.0).collect();
        for expected in [8u16, 12, 16] {
            assert!(
                codes.contains(&expected),
                "missing C{expected:03}: {codes:?}"
            );
        }
    }

    #[test]
    fn experiment_ids_resolve_to_known_models() {
        for id in ["e1", "e5", "e14"] {
            for name in models_for_experiment(id) {
                assert!(model_by_name(name).is_some(), "unknown model {name}");
            }
        }
    }
}
