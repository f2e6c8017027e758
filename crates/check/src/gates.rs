//! Pre-flight gates: wiring the analyzer into the build pipelines.
//!
//! `fcm-check` depends on `fcm-alloc` and `fcm-sim`, so those crates
//! cannot call it directly — the dependency would be circular. Instead
//! they expose function-pointer hooks (the same pattern the substrate
//! pool uses for its observability counters): [`install`] plugs
//! [`alloc_preflight`] into [`fcm_alloc::pipeline::set_preflight`] and
//! [`sim_preflight`] into [`fcm_sim::model::set_preflight`]. From then
//! on every [`fcm_alloc::CondensePipeline::run_policy`] run and every
//! [`fcm_sim::SystemSpecBuilder::build`] re-validates its input and
//! fails fast with the rendered `Error` diagnostics when the model is
//! unsound. Binaries treat a gate rejection as a usage-class failure
//! (exit 2): the run never started.
//!
//! While no gate is installed the hooks cost one relaxed atomic load —
//! default behaviour and performance are unchanged.

use fcm_alloc::SwGraph;
use fcm_sim::SystemSpec;

use crate::diag::{Code, Diagnostic, Report};
use crate::model::SystemModel;
use crate::rules::run_checks_with_threads;

/// Analyses a bare SW graph (the alloc pipeline's input): edge
/// influence domains (C008), timing satisfiability (C014).
#[must_use]
pub fn check_sw_graph(g: &SwGraph) -> Report {
    let model = SystemModel {
        name: "alloc.preflight".to_string(),
        sw: Some(g.clone()),
        ..SystemModel::default()
    };
    // Single-threaded: the gate runs inline inside the caller's own
    // (possibly pooled) work, so nesting another fan-out buys nothing.
    run_checks_with_threads(&model, 1)
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

/// Analyses a built [`SystemSpec`] (the simulator's input) without
/// executing it: per-processor utilisation and recovery parameters.
#[must_use]
pub fn check_system_spec(spec: &SystemSpec) -> Report {
    let mut report = Report::new("sim.preflight");
    for p in 0..spec.processors {
        let u = spec.utilisation(p);
        if u > 1.0 {
            report.diagnostics.push(Diagnostic::error(
                Code(14),
                format!("spec/processor[{p}]"),
                format!("periodic utilisation {u:.3} exceeds 1.0: EDF cannot schedule it"),
            ));
        }
    }
    // Same paths as the catalog's C016 rule (`recovery/...`): one code
    // renders one path family wherever it fires, so reports from the
    // gate and the full engine sort and diff identically.
    if let Some(w) = &spec.watchdog {
        if w.heartbeat_period == 0 {
            report.diagnostics.push(Diagnostic::error(
                Code(16),
                "recovery/watchdog".to_string(),
                "heartbeat period 0: node failures are never detected".to_string(),
            ));
        }
    }
    if let Some(r) = &spec.retry {
        if r.max_retries > 0 && r.backoff_base == 0 {
            report.diagnostics.push(Diagnostic::error(
                Code(16),
                "recovery/retry".to_string(),
                format!(
                    "backoff base 0 with {} retries: restarts busy-loop",
                    r.max_retries
                ),
            ));
        }
    }
    report.sort();
    report
}

/// The alloc-pipeline hook body: reject SW graphs with `Error` findings.
///
/// # Errors
///
/// The rendered `Error` diagnostic lines, one per line.
pub fn alloc_preflight(g: &SwGraph) -> Result<(), String> {
    let report = check_sw_graph(g);
    if report.has_errors() {
        Err(report.error_lines())
    } else {
        Ok(())
    }
}

/// The simulator hook body: reject system specs with `Error` findings.
///
/// # Errors
///
/// The rendered `Error` diagnostic lines, one per line.
pub fn sim_preflight(spec: &SystemSpec) -> Result<(), String> {
    let report = check_system_spec(spec);
    if report.has_errors() {
        Err(report.error_lines())
    } else {
        Ok(())
    }
}

/// Installs both pre-flight gates process-wide.
pub fn install() {
    fcm_alloc::pipeline::set_preflight(Some(alloc_preflight));
    fcm_sim::model::set_preflight(Some(sim_preflight));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_sim::model::SystemSpecBuilder;

    #[test]
    fn spec_gate_flags_overutilised_processors() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t0", 0).periodic(10, 0, 7).build().unwrap();
        b.task("t1", 0).periodic(10, 0, 7).build().unwrap();
        let spec = b.build().unwrap();
        let r = check_system_spec(&spec);
        assert!(r.has_errors());
        assert!(
            r.error_lines().contains("utilisation"),
            "{}",
            r.error_lines()
        );
    }

    #[test]
    fn spec_gate_accepts_a_feasible_spec() {
        let mut b = SystemSpecBuilder::new(1);
        b.task("t0", 0).periodic(10, 0, 4).build().unwrap();
        let spec = b.build().unwrap();
        assert!(!check_system_spec(&spec).has_errors());
    }
}
