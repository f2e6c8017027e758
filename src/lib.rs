//! # DDSI — Dependability-Driven Software Integration
//!
//! A Rust implementation of the framework from N. Suri, S. Ghosh and
//! T. Marlowe, *"A Framework for Dependability Driven Software
//! Integration"* (ICDCS 1998), together with the substrates the framework
//! presupposes: a real-time scheduling analyser, a discrete-event
//! multiprocessor simulator with fault injection, graph condensation and
//! min-cut machinery, and a Monte-Carlo reliability evaluator.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and provides a [`prelude`]. See the individual crates for depth:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `fcm-core` | FCM hierarchy, rules R1–R5, influence (Eq. 1–2), separation (Eq. 3), cluster influence (Eq. 4) |
//! | [`graph`] | `fcm-graph` | digraphs, Stoer–Wagner min-cut, condensation, walk-series matrices |
//! | [`sched`] | `fcm-sched` | EDF feasibility, non-preemptive branch-and-bound, periodic tests |
//! | [`sim`] | `fcm-sim` | discrete-event simulator, fault injection, influence measurement |
//! | [`alloc`] | `fcm-alloc` | SW/HW graphs, replica expansion, heuristics H1–H3, mapping approaches A/B |
//! | [`eval`] | `fcm-eval` | mapping quality metrics, mission reliability, strategy comparison |
//! | [`workloads`] | `fcm-workloads` | the paper's §6 example, random graphs, an avionics suite |
//! | [`check`] | `fcm-check` | design-time static analyzer: diagnostics `C001`–`C022` over the whole model |
//!
//! # Quickstart
//!
//! ```
//! use ddsi::prelude::*;
//!
//! // Build a small SW graph, cluster it with H1, map it with Approach A.
//! let mut b = SwGraphBuilder::new();
//! let a = b.add_process("a", AttributeSet::default().with_criticality(9));
//! let c = b.add_process("b", AttributeSet::default().with_criticality(2));
//! b.add_influence(a, c, 0.5)?;
//! let sw = b.build();
//! let hw = HwGraph::complete(2);
//! let clustering = h1(&sw, 2)?;
//! let mapping = approach_a(&sw, &clustering, &hw, &ImportanceWeights::default())?;
//! assert_eq!(mapping.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fcm_alloc as alloc;
pub use fcm_check as check;
pub use fcm_core as core;
pub use fcm_eval as eval;
pub use fcm_graph as graph;
pub use fcm_sched as sched;
pub use fcm_sim as sim;
pub use fcm_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use fcm_alloc::heuristics::{h1, h1_pair_all, h2, h3};
    pub use fcm_alloc::mapping::{approach_a, approach_b, criticality_pairing, timing_refinement};
    pub use fcm_alloc::replication::expand_replicas;
    pub use fcm_alloc::sw::SwGraphBuilder;
    pub use fcm_alloc::{AllocError, Clustering, HwGraph, HwNode, Mapping, SwGraph};
    pub use fcm_core::certification::CertificationLedger;
    pub use fcm_core::ladder::{GenericFcmHierarchy, LevelLadder};
    pub use fcm_core::separation::SeparationAnalysis;
    pub use fcm_core::{
        cluster_influence, AttributeSet, CompositionKind, Criticality, FactorKind, FaultFactor,
        FaultTolerance, FcmError, FcmHierarchy, HierarchyLevel, ImportanceWeights, Influence,
        IsolationTechnique, Probability, TimingConstraint,
    };
    pub use fcm_eval::platform::{select_platform, PlatformOption};
    pub use fcm_eval::tradeoff::integration_sweep;
    pub use fcm_eval::{Comparison, MappingQuality, ReliabilityModel};
    pub use fcm_graph::algo::BisectPolicy;
    pub use fcm_graph::{DiGraph, Matrix, NodeIdx};
    pub use fcm_sched::{edf, Job, JobSet};
    pub use fcm_sim::{InfluenceCampaign, Injection, SystemSpecBuilder};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let _ = AttributeSet::default();
        let _ = HwGraph::complete(1);
        let _ = ImportanceWeights::default();
    }
}
