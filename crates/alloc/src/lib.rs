//! HW–SW allocation: clustering SW FCMs and mapping them onto hardware.
//!
//! Section 5 of the ICDCS'98 paper realises an integrated system in two
//! phases: "first, clustering of SW elements into FCMs; second, assigning
//! these elements to processors". This crate implements both phases:
//!
//! * [`sw`] — the weighted directed **SW graph** of process FCMs: nodes
//!   carry attributes and importance, edges carry influence; replicas are
//!   connected by 0-weight edges and "cannot be combined … and must be
//!   mapped onto different HW nodes";
//! * [`replication`] — expansion of a node with fault-tolerance
//!   requirement FT = k into k replica nodes ("an equivalent graph of
//!   three SW nodes with identical attributes and 0 edge weights");
//! * [`hw`] — the **HW graph** of processors (complete, ring, star, mesh
//!   topologies) with per-node resource tags;
//! * [`cluster`] — validated clusterings: replica anti-affinity,
//!   EDF-schedulability of each cluster, combined attributes, and the
//!   Eq. 4 condensed influence graph;
//! * [`pipeline`] — the **condensation pipeline**: an incrementally
//!   maintained Eq. 4 cluster influence matrix (bitwise-equal to a full
//!   recompute after every merge) that every heuristic drives through a
//!   pluggable [`pipeline::CondensePolicy`];
//! * [`heuristics`] — the paper's three condensation heuristics **H1**
//!   (greedy max mutual influence, plus the pair-all variant), **H2**
//!   (recursive min-cut, plus the largest-part variant) and **H3**
//!   (importance spheres), all expressed as pipeline policies;
//! * [`mapping`] — **Approach A** (importance-ordered assignment),
//!   **Approach B** (criticality-first lexicographic assignment, §6.2's
//!   most-with-least pairing) and the timing-ordered refinement of §6.2's
//!   closing example;
//! * [`failover`] — run-time re-placement of the FCMs stranded by a dead
//!   HW node onto the survivors (same constraints as the original
//!   mapping, exact admission via `fcm_sched`), with degraded-mode
//!   shedding of the lowest-criticality FCMs when nothing feasible
//!   remains.
//!
//! # Example
//!
//! ```
//! use fcm_alloc::{hw::HwGraph, heuristics, sw::SwGraphBuilder};
//! use fcm_core::AttributeSet;
//!
//! let mut b = SwGraphBuilder::new();
//! let a = b.add_process("a", AttributeSet::default().with_criticality(5));
//! let c = b.add_process("b", AttributeSet::default().with_criticality(1));
//! b.add_influence(a, c, 0.4)?;
//! let sw = b.build();
//! let hw = HwGraph::complete(1);
//! let clustering = heuristics::h1(&sw, 1)?;
//! assert_eq!(clustering.clusters().len(), 1);
//! # let _ = hw;
//! # Ok::<(), fcm_alloc::AllocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod error;
pub mod failover;
pub mod heuristics;
pub mod hw;
pub mod mapping;
pub mod pipeline;
pub mod replication;
pub mod sw;

pub use cluster::{Clustering, GroupCheck};
pub use error::AllocError;
pub use failover::{FailoverOutcome, ShedPolicy};
pub use hw::{HwGraph, HwNode};
pub use mapping::Mapping;
pub use pipeline::{CondensePipeline, CondensePolicy, H1Greedy, H1PairAll, PartitionReplay};
pub use sw::{SwGraph, SwGraphBuilder, SwNode};
