//! The analyzer's entry points for callers that gate a model before
//! they use it.
//!
//! There are no hooks: each caller that relies on a sound model calls
//! its gate itself. The serve layer's `LiveModel` gates a whole graph
//! with [`check_sw_graph`] when it is built and [`check_sw_graph_owned`]
//! when it is restored, and each mutation's touched nodes and edges
//! with [`check_sw_delta`]; its `check` query reports through
//! [`check_placed_model`] and [`check_unclustered_placement`]. The
//! `checktool` and `repro --check` binaries run the whole catalog
//! through [`crate::rules::run_checks`].

use fcm_alloc::{AllocError, SwGraph};
use fcm_graph::{EdgeIdx, NodeIdx};

use crate::diag::{Code, Diagnostic, Report};
use crate::model::SystemModel;
use crate::rules::{c008_sw_edge, c014_timing, run_checks_with_threads};

/// Analyses a bare SW graph (the alloc pipeline's input): edge
/// influence domains (C008), timing satisfiability (C014).
#[must_use]
pub fn check_sw_graph(g: &SwGraph) -> Report {
    check_sw_graph_owned(g.clone()).1
}

/// [`check_sw_graph`] on a graph the caller hands over and gets back,
/// so a caller that owns the graph pays no copy.
#[must_use]
pub fn check_sw_graph_owned(g: SwGraph) -> (SwGraph, Report) {
    let model = SystemModel {
        name: "alloc.preflight".to_string(),
        sw: Some(g),
        ..SystemModel::default()
    };
    // Single-threaded: the gate runs inline inside the caller's own
    // (possibly pooled) work, so nesting another fan-out buys nothing.
    let report = run_checks_with_threads(&model, 1);
    (model.sw.expect("set above"), report)
}

/// [`check_sw_graph`] restricted to one edit of `g`: C014 over `nodes`
/// and C008 over `edges`, the only rules that fire on a bare SW graph.
/// Both are per node and per edge, so when `g` passed
/// [`check_sw_graph`] before the edit and the edit touched exactly these
/// nodes and edges, the two gates agree on the verdict and on every
/// rendered line. O(touched), and the graph is never copied.
#[must_use]
pub fn check_sw_delta(g: &SwGraph, nodes: &[NodeIdx], edges: &[EdgeIdx]) -> Report {
    let mut report = Report::new("alloc.preflight");
    for &v in nodes {
        let node = g.node(v).expect("touched node exists");
        report.diagnostics.extend(c014_timing(v, node));
    }
    for &e in edges {
        let edge = g.edge(e).expect("touched edge exists");
        report.diagnostics.extend(c008_sw_edge(e, edge.weight));
    }
    report.sort();
    report
}

/// The `check` report of a fully-hosted live model whose hosts' member
/// sets do not form a valid clustering (which the placed-model
/// invariant rules out): the graph's findings plus one error saying
/// why, so a broken placement is never reported as a clean graph.
#[must_use]
pub fn check_unclustered_placement(g: &SwGraph, why: &AllocError) -> Report {
    let code = match why {
        AllocError::ReplicaConflict { .. } => Code(12),
        AllocError::Unschedulable { .. } => Code(14),
        _ => Code(13),
    };
    let mut report = check_sw_graph(g);
    report.diagnostics.push(Diagnostic::error(
        code,
        "mapping".to_string(),
        format!("the placement does not form a valid clustering: {why}"),
    ));
    report.sort();
    report
}

/// Analyses a fully-placed live model — SW graph plus a concrete
/// clustering/mapping and shed policy — with the whole allocation rule
/// set (anti-affinity C012, capacity, shed-line C015, …). The query
/// adapter behind the serve layer's `check` op: long-running services
/// assemble the view here instead of duplicating model plumbing.
#[must_use]
pub fn check_placed_model(
    name: &str,
    g: &SwGraph,
    clustering: fcm_alloc::Clustering,
    mapping: fcm_alloc::Mapping,
    hw: fcm_alloc::HwGraph,
    shed: fcm_alloc::ShedPolicy,
) -> Report {
    let model = SystemModel::new(name)
        .with_sw(g.clone())
        .with_clustering(clustering)
        .with_mapping(mapping, hw)
        .with_shed(shed);
    run_checks_with_threads(&model, 1)
}
