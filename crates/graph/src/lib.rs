//! Directed weighted graph substrate for the DDSI framework.
//!
//! The ICDCS'98 dependability-integration paper models software fault
//! containment modules (FCMs) as nodes of a *labelled, weighted, directed*
//! graph whose edges carry **influence** values (the probability that a
//! fault in the source FCM manifests in the target FCM), and reduces that
//! graph by repeatedly contracting node groups. This crate provides the
//! graph machinery that the rest of the workspace builds on:
//!
//! * [`DiGraph`] — an adjacency-list directed graph with stable node
//!   indices, arbitrary node payloads and labelled weighted edges;
//! * [`Matrix`] — a dense `f64` matrix with the power-series accumulation
//!   used by the paper's *separation* metric (Eq. 3);
//! * [`SparseMatrix`] — the CSR counterpart for large sparse fleets, with
//!   an SCC-sharded walk series bitwise-equal to the dense oracle;
//! * [`InfluenceMatrix`] — the storage-polymorphic wrapper every upper
//!   layer holds, with an automatic representation-selection policy;
//! * [`algo`] — reachability, strongly connected components, Stoer–Wagner
//!   global min-cut and recursive bisection (heuristic H2 of the paper);
//! * [`mod@condense`] — contraction of node groups into super-nodes, with
//!   pluggable parallel-edge combination (sum, max, or the paper's
//!   probabilistic `1 − Π(1 − p)` rule, Eq. 4).
//!
//! # Example
//!
//! ```
//! use fcm_graph::{DiGraph, algo};
//!
//! let mut g: DiGraph<&str, f64> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! g.add_edge(a, b, 0.7);
//! assert!(algo::is_reachable(&g, a, b));
//! assert!(!algo::is_reachable(&g, b, a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod condense;
mod digraph;
pub mod dot;
mod error;
mod influence_matrix;
mod matrix;
pub mod sparse;

pub use condense::{condense, partition_membership, CombineRule, Condensation};
pub use digraph::{DiGraph, Edge, EdgeIdx, NodeIdx};
pub use error::GraphError;
pub use influence_matrix::{
    fnv, prefer_sparse, InfluenceMatrix, SPARSE_MAX_DENSITY, SPARSE_MIN_N, SPARSE_N_THRESHOLD,
};
pub use matrix::{Matrix, Workspace};
pub use sparse::{Entries, SparseMatrix};
