//! Property and mutation tests for the static-analysis catalog.
//!
//! Three pillars, as DESIGN.md §8 promises:
//!
//! * **soundness on valid models** — a randomly generated well-formed
//!   system model yields zero `Error` diagnostics;
//! * **sensitivity to seeded mutations** — each rule has a minimal
//!   mutation that makes exactly that code fire (and a negative
//!   witness: the unmutated base model is clean of it);
//! * **determinism** — reports are byte-identical whatever
//!   `FCM_SWEEP_THREADS` says, pinned by comparing explicit 1- and
//!   4-thread runs of the same models.

use fcm_alloc::sw::SwGraphBuilder;
use fcm_alloc::{Clustering, HwGraph, Mapping, ShedPolicy};
use fcm_check::{
    run_checks_with_threads, FactorView, FcmNodeView, RecoveryView, Severity, SystemModel,
};
use fcm_core::{AttributeSet, FcmHierarchy, HierarchyLevel};
use fcm_graph::{InfluenceMatrix, Matrix, NodeIdx};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::ToJson;

fn attrs(criticality: u32) -> AttributeSet {
    AttributeSet::default().with_criticality(criticality)
}

/// Generates a random well-formed model: a criticality-monotone FCM
/// forest, in-domain factors, a small SW graph with satisfiable
/// timings, its own derived influence matrix, singleton clusters mapped
/// one-per-node onto a complete platform, and sane recovery parameters.
fn valid_model(rng: &mut Rng, size: usize) -> SystemModel {
    let mut h = FcmHierarchy::new();
    let n_proc = 1 + size % 4;
    for p in 0..n_proc {
        let crit = rng.gen_range(2..11u32);
        let pid = h
            .add_root(format!("proc{p}"), HierarchyLevel::Process, attrs(crit))
            .expect("root");
        // The first process always gets two tasks and two procedures so
        // mutation tests find siblings and every rank in the base model.
        let n_tasks = if p == 0 { 2 } else { rng.gen_range(0..3usize) };
        for t in 0..n_tasks {
            let tcrit = rng.gen_range(1..=crit);
            let tid = h
                .add_child(pid, format!("proc{p}.t{t}"), attrs(tcrit))
                .expect("task");
            let n_sub = if p == 0 && t == 0 {
                2
            } else {
                rng.gen_range(0..3usize)
            };
            for q in 0..n_sub {
                let qcrit = rng.gen_range(1..=tcrit);
                h.add_child(tid, format!("proc{p}.t{t}.q{q}"), attrs(qcrit))
                    .expect("procedure");
            }
        }
    }

    let factors = (0..size % 5)
        .map(|i| FactorView {
            from: format!("proc{}", i % n_proc),
            to: format!("proc{}", (i + 1) % n_proc),
            occurrence: rng.gen_range(0.0..1.0),
            transmission: rng.gen_range(0.0..1.0),
            manifestation: rng.gen_range(0.0..1.0),
        })
        .collect();

    let k = 2 + size % 4;
    let mut b = SwGraphBuilder::new();
    let mut nodes = Vec::new();
    for i in 0..k {
        let est = rng.gen_range(0..5u64);
        let ct = rng.gen_range(1..4u64);
        let tcd = est + ct + rng.gen_range(0..5u64);
        let a = attrs(rng.gen_range(1..11u32))
            .with_timing(est, tcd, ct)
            .with_throughput(0.1);
        nodes.push(b.add_process(format!("sw{i}"), a));
    }
    for i in 0..k {
        for j in 0..k {
            if i != j && rng.gen_range(0..3u32) == 0 {
                b.add_influence(nodes[i], nodes[j], rng.gen_range(0.05..0.2))
                    .expect("valid influence");
            }
        }
    }
    let g = b.build();
    let influence = Matrix::from_graph(&g);
    let clustering = Clustering::singletons(&g);
    let hw = HwGraph::complete(k);
    let mapping = Mapping::from_assignment((0..k).map(NodeIdx).collect());

    SystemModel::new("generated")
        .with_hierarchy(&h)
        .with_retest_from_view()
        .with_factors(factors)
        .with_influence(influence)
        .with_sw(g)
        .with_clustering(clustering)
        .with_mapping(mapping, hw)
        .with_recovery(RecoveryView {
            heartbeat_period: rng.gen_range(2..10u64),
            detection_latency: 1,
            max_retries: rng.gen_range(0..4u32),
            backoff_base: rng.gen_range(1..4u64),
            checkpoint_every: rng.gen_range(1..6u64),
        })
        .with_shed(ShedPolicy::ShedBelow { critical_at: 3 })
}

/// The fixed base model every mutation test starts from; its shape is
/// deterministic (seeded) and rich enough for every mutation.
fn base_model() -> SystemModel {
    valid_model(&mut Rng::seed_from_u64(42), 11)
}

fn codes_of(m: &SystemModel) -> Vec<u16> {
    run_checks_with_threads(m, 1)
        .diagnostics
        .iter()
        .map(|d| d.code.0)
        .collect()
}

/// Asserts the base model is clean of `code`, and `mutated` fires it.
fn assert_mutation_fires(code: u16, mutated: &SystemModel) {
    let before = codes_of(&base_model());
    assert!(
        !before.contains(&code),
        "base model already carries C{code:03}: {before:?}"
    );
    let after = codes_of(mutated);
    assert!(
        after.contains(&code),
        "mutation failed to fire C{code:03}: {after:?}"
    );
}

#[test]
fn valid_models_have_zero_errors() {
    prop::check(
        "valid-model-clean",
        prop::Config::with_cases(48),
        valid_model,
        |m| {
            let r = run_checks_with_threads(m, 1);
            if r.count(Severity::Error) == 0 {
                Ok(())
            } else {
                Err(format!("errors on a valid model:\n{}", r.render()))
            }
        },
    );
}

#[test]
fn reports_are_identical_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(7);
    let mut models: Vec<SystemModel> = (0..6).map(|s| valid_model(&mut rng, 3 + s)).collect();
    // Include a findings-heavy model so non-empty reports are compared.
    let mut broken = base_model();
    broken.factors.push(bad_factor());
    if let Some(r) = &mut broken.recovery {
        r.heartbeat_period = 0;
    }
    models.push(broken);
    for m in &models {
        let seq = run_checks_with_threads(m, 1);
        let par = run_checks_with_threads(m, 4);
        assert_eq!(
            seq.render(),
            par.render(),
            "render differs across thread counts"
        );
        assert_eq!(
            seq.to_json().to_string_pretty(),
            par.to_json().to_string_pretty(),
            "json differs across thread counts"
        );
    }
}

fn bad_factor() -> FactorView {
    FactorView {
        from: "x".into(),
        to: "y".into(),
        occurrence: 1.5,
        transmission: 1.0,
        manifestation: 1.0,
    }
}

/// First hierarchy node that has a parent, by view index.
fn child_index(m: &SystemModel) -> usize {
    m.hierarchy
        .as_ref()
        .expect("base model has a hierarchy")
        .nodes
        .iter()
        .position(|n| n.parent.is_some())
        .expect("base model has a non-root FCM")
}

#[test]
fn c001_broken_backlink_fires() {
    let mut m = base_model();
    let i = child_index(&m);
    m.hierarchy.as_mut().unwrap().nodes[i].parent = None;
    assert_mutation_fires(1, &m);
}

#[test]
fn c002_level_skip_fires() {
    let mut m = base_model();
    let v = m.hierarchy.as_mut().unwrap();
    let i = v
        .nodes
        .iter()
        .position(|n| n.parent.is_some() && n.rank == 1)
        .expect("base model has a task");
    v.nodes[i].rank = 0; // a procedure directly under a process skips a rank
    assert_mutation_fires(2, &m);
}

#[test]
fn c003_parent_cycle_fires() {
    let mut m = base_model();
    let i = child_index(&m);
    let v = m.hierarchy.as_mut().unwrap();
    let (child_id, parent_id) = (v.nodes[i].id, v.nodes[i].parent.expect("has parent"));
    // Point the parent's own parent link back down at the child.
    let pi = v.nodes.iter().position(|n| n.id == parent_id).unwrap();
    v.nodes[pi].parent = Some(child_id);
    assert_mutation_fires(3, &m);
}

#[test]
fn c004_shared_child_fires() {
    let mut m = base_model();
    let i = child_index(&m);
    let v = m.hierarchy.as_mut().unwrap();
    let child_id = v.nodes[i].id;
    let other = v
        .nodes
        .iter()
        .position(|n| n.id != child_id && n.parent != Some(child_id))
        .expect("another node exists");
    v.nodes[other].children.push(child_id);
    assert_mutation_fires(4, &m);
}

#[test]
fn c005_stray_root_fires() {
    let mut m = base_model();
    m.hierarchy.as_mut().unwrap().nodes.push(FcmNodeView {
        id: 999,
        name: "stray".into(),
        rank: 1,
        parent: None,
        children: Vec::new(),
        criticality: 1,
    });
    assert_mutation_fires(5, &m);
}

#[test]
fn c006_criticality_inversion_fires() {
    let mut m = base_model();
    let i = child_index(&m);
    let v = m.hierarchy.as_mut().unwrap();
    v.nodes[i].criticality = 100;
    assert_mutation_fires(6, &m);
    let r = run_checks_with_threads(&m, 1);
    assert!(
        r.diagnostics
            .iter()
            .all(|d| d.code.0 != 6 || d.severity == Severity::Warn),
        "criticality inversion is advisory, not an error"
    );
}

#[test]
fn c007_retest_drift_fires() {
    let mut m = base_model();
    let plan = m
        .retest
        .iter_mut()
        .find(|r| !r.siblings.is_empty())
        .expect("base model has a multi-child parent");
    plan.siblings.clear();
    assert_mutation_fires(7, &m);
}

#[test]
fn c008_inflated_probability_fires() {
    let mut m = base_model();
    m.factors.push(bad_factor());
    assert_mutation_fires(8, &m);
}

#[test]
fn c009_out_of_domain_entry_fires() {
    let mut m = base_model();
    m.sw = None; // isolate from C011's graph comparison
    m.clustering = None;
    m.mapping = None;
    m.influence = Some(InfluenceMatrix::Dense(Matrix::from_rows(
        2,
        2,
        &[0.1, 1.5, 0.0, 0.2],
    )));
    assert_mutation_fires(9, &m);
}

#[test]
fn c010_divergent_row_warns() {
    let mut m = base_model();
    m.sw = None;
    m.clustering = None;
    m.mapping = None;
    m.influence = Some(InfluenceMatrix::Dense(Matrix::from_rows(
        2,
        2,
        &[0.6, 0.6, 0.1, 0.1],
    )));
    let r = run_checks_with_threads(&m, 1);
    // The base model may carry the (milder) truncation-bound advisory,
    // so assert the row-sum divergence finding specifically.
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.code.0 == 10 && d.message.contains("row sum")),
        "divergent row must warn:\n{}",
        r.render()
    );
    assert_eq!(
        r.count(Severity::Error),
        0,
        "divergence is a warning:\n{}",
        r.render()
    );
}

#[test]
fn c011_stated_matrix_drift_fires() {
    let mut m = base_model();
    let g = m.sw.as_ref().expect("base model has a graph");
    let derived = Matrix::from_graph(g);
    let n = derived.rows();
    let mut data: Vec<f64> = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            data.push(derived.get(i, j).expect("in range"));
        }
    }
    data[1] = (data[1] + 0.5).min(1.0); // perturb entry (0,1), stay in [0,1]
    m.influence = Some(InfluenceMatrix::Dense(Matrix::from_rows(n, n, &data)));
    assert_mutation_fires(11, &m);
}

/// A dedicated two-replica model: `a0`/`a1` are replicas of one module,
/// each its own singleton cluster. Anti-affinity holds on distinct
/// nodes; the mutation co-hosts them.
fn replica_model(same_node: bool) -> SystemModel {
    let mut b = SwGraphBuilder::new();
    let a0 = b.add_process("a0", attrs(9).with_timing(0, 20, 2));
    let a1 = b.add_process("a1", attrs(9).with_timing(0, 20, 2));
    b.mark_replicas(&[a0, a1]).expect("replica marking");
    let g = b.build();
    let clustering = Clustering::singletons(&g);
    let hw = HwGraph::complete(2);
    let assignment = if same_node {
        vec![NodeIdx(0), NodeIdx(0)]
    } else {
        vec![NodeIdx(0), NodeIdx(1)]
    };
    SystemModel::new("replicas")
        .with_sw(g)
        .with_clustering(clustering)
        .with_mapping(Mapping::from_assignment(assignment), hw)
}

#[test]
fn c012_cohosted_replicas_fire() {
    assert!(!codes_of(&replica_model(false)).contains(&12));
    let codes = codes_of(&replica_model(true));
    assert!(
        codes.contains(&12),
        "co-hosted replicas must fire C012: {codes:?}"
    );
    // Co-hosting per se is legal (degraded states): no other error fires.
    assert_eq!(codes, vec![12], "C012 must fire alone: {codes:?}");
}

#[test]
fn c013_missing_resource_and_capacity_fire() {
    // One process demanding a resource the platform lacks and more
    // throughput than its node's capacity.
    let mut b = SwGraphBuilder::new();
    b.add_process(
        "gpuuser",
        attrs(5).with_timing(0, 20, 2).with_throughput(2.0),
    );
    let mut g = b.build();
    g.node_mut(NodeIdx(0))
        .expect("node exists")
        .required_resources
        .insert("gpu".into());
    let clustering = Clustering::singletons(&g);
    let hw = HwGraph::new(
        vec![fcm_alloc::hw::HwNode::new("hw0").with_capacity(1.0)],
        &[],
    );
    let m = SystemModel::new("resources")
        .with_sw(g)
        .with_clustering(clustering)
        .with_mapping(Mapping::from_assignment(vec![NodeIdx(0)]), hw);
    let codes = codes_of(&m);
    assert!(codes.contains(&13), "expected C013: {codes:?}");
    let r = run_checks_with_threads(&m, 1);
    let messages: Vec<&str> = r.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert!(
        messages.iter().any(|t| t.contains("resource")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|t| t.contains("capacity")),
        "{messages:?}"
    );
}

#[test]
fn c014_overloaded_node_fires() {
    let mut b = SwGraphBuilder::new();
    b.add_process("j1", attrs(5).with_timing(0, 4, 3));
    b.add_process("j2", attrs(5).with_timing(0, 4, 3));
    let g = b.build();
    let clustering = Clustering::singletons(&g);
    let hw = HwGraph::complete(2);
    let ok = SystemModel::new("edf")
        .with_sw(g.clone())
        .with_clustering(clustering.clone())
        .with_mapping(
            Mapping::from_assignment(vec![NodeIdx(0), NodeIdx(1)]),
            hw.clone(),
        );
    assert!(
        !codes_of(&ok).contains(&14),
        "spread placement is admissible"
    );
    let overloaded = SystemModel::new("edf")
        .with_sw(g)
        .with_clustering(clustering)
        .with_mapping(Mapping::from_assignment(vec![NodeIdx(0), NodeIdx(0)]), hw);
    let codes = codes_of(&overloaded);
    assert_eq!(
        codes,
        vec![14],
        "co-hosted deadline conflict fires C014 alone: {codes:?}"
    );
}

#[test]
fn c015_sheddable_protected_fcm_fires() {
    let mut b = SwGraphBuilder::new();
    let n = b.add_process("lowpin", attrs(1).with_timing(0, 20, 2));
    b.pin_to_hw(n, "hw0").expect("pin");
    let g = b.build();
    let m = SystemModel::new("shed")
        .with_sw(g)
        .with_shed(ShedPolicy::ShedBelow { critical_at: 3 });
    let codes = codes_of(&m);
    assert!(
        codes.contains(&15),
        "pinned low-criticality FCM must fire C015: {codes:?}"
    );
    // The same node above the threshold is sound.
    let mut b = SwGraphBuilder::new();
    let n = b.add_process("highpin", attrs(5).with_timing(0, 20, 2));
    b.pin_to_hw(n, "hw0").expect("pin");
    let m = SystemModel::new("shed")
        .with_sw(b.build())
        .with_shed(ShedPolicy::ShedBelow { critical_at: 3 });
    assert!(!codes_of(&m).contains(&15));
}

#[test]
fn c016_zero_heartbeat_fires() {
    let mut m = base_model();
    if let Some(r) = &mut m.recovery {
        r.heartbeat_period = 0;
    }
    assert_mutation_fires(16, &m);
}

#[test]
fn c016_busy_loop_retry_fires() {
    let mut m = base_model();
    if let Some(r) = &mut m.recovery {
        r.max_retries = 3;
        r.backoff_base = 0;
    }
    assert_mutation_fires(16, &m);
}
