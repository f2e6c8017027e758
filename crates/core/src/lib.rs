//! Fault containment modules (FCMs): the core of the ICDCS'98
//! dependability-driven software-integration framework.
//!
//! The paper (Suri, Ghosh, Marlowe, *"A Framework for Dependability Driven
//! Software Integration"*, ICDCS 1998) partitions system software into a
//! three-level hierarchy of **fault containment modules** — procedures,
//! tasks, and processes — and gives rules for composing them so that
//! faults stay contained while the system is integrated onto shared
//! hardware. This crate implements that framework:
//!
//! * [`HierarchyLevel`] — the three levels, each with its own fault
//!   classes ([`FaultClass`]) and isolation techniques
//!   ([`IsolationTechnique`]);
//! * [`AttributeSet`] — criticality, fault-tolerance (replication),
//!   timing (the ⟨EST, TCD, CT⟩ triple), throughput and security
//!   attributes, with the paper's *most-stringent / aggregate* combination
//!   rules and the weighted [`importance`](AttributeSet::importance)
//!   measure used by the allocation heuristics;
//! * [`FaultFactor`] and [`Influence`] — Eq. 1
//!   (`p = p₁·p₂·p₃`, occurrence · transmission · manifestation) and
//!   Eq. 2 (`infl = 1 − Π(1 − pᵢ)`);
//! * [`separation`] — Eq. 3, the transitive separation series over the
//!   influence matrix;
//! * [`composition`] — Eq. 4 cluster influence, merging vs grouping, and
//!   attribute combination;
//! * [`Hierarchy`] — the integration tree with rules **R1–R5** enforced
//!   by the API (R1: children are exactly one level below; R2: the DAG is
//!   a tree, no shared children; R3: merge only siblings; R4: integrating
//!   children of different parents forces parent integration; R5: a
//!   modification requires retesting exactly the parent and its sibling
//!   interfaces). The rules are implemented once, generic over a
//!   [`ladder::Ladder`] of levels: [`FcmHierarchy`] is the paper's
//!   three-level instance and the default, and
//!   [`ladder::GenericFcmHierarchy`] runs the same rules over any
//!   [`ladder::LevelLadder`] (e.g. with the OO footnote's object level).
//!
//! # Example
//!
//! ```
//! use fcm_core::{AttributeSet, FcmHierarchy, HierarchyLevel};
//!
//! let mut h = FcmHierarchy::new();
//! let proc_fcm = h.add_root("flight_ctl", HierarchyLevel::Process, AttributeSet::default())?;
//! let task = h.add_child(proc_fcm, "control_loop", AttributeSet::default())?;
//! let p1 = h.add_child(task, "read_sensors", AttributeSet::default())?;
//! let p2 = h.add_child(task, "update_law", AttributeSet::default())?;
//! // R5: modifying a procedure requires retesting its parent task only.
//! let retest = h.retest_set(p1)?;
//! assert_eq!(retest.parent, Some(task));
//! assert_eq!(retest.sibling_interfaces, vec![p2]);
//! # Ok::<(), fcm_core::FcmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod certification;
pub mod composition;
mod error;
mod hierarchy;
pub mod influence;
mod isolation;
pub mod ladder;
mod level;
pub mod separation;

pub use attributes::{
    AttributeSet, Criticality, FaultTolerance, ImportanceWeights, SecurityLevel, Throughput,
    TimingConstraint,
};
pub use composition::{cluster_influence, CompositionKind};
pub use error::FcmError;
pub use hierarchy::{Fcm, FcmHierarchy, FcmId, Hierarchy, RetestSet};
pub use influence::{FactorKind, FaultFactor, Influence, Probability};
pub use isolation::IsolationTechnique;
pub use level::{FaultClass, HierarchyLevel};
