//! `fcm-check` — design-time static analyzer for DDSI system models.
//!
//! The paper is a *design-time* framework: composition rules R1–R5, the
//! Eq. 1–4 interaction metrics and the allocation constraints are all
//! meant to be checked before anything runs. The construction APIs in
//! `fcm-core`/`fcm-alloc` enforce many of these invariants locally, but
//! a whole model assembled from parts (hierarchy + influence matrix +
//! mapping + recovery spec) can still be inconsistent — and imported or
//! hand-edited models can be arbitrarily broken. This crate analyses a
//! complete [`model::SystemModel`] **without executing anything** and
//! emits structured [`diag::Diagnostic`]s.
//!
//! * [`diag`] — codes (`C001`…), severities, model paths, `ToJson`
//!   machine output and a human renderer;
//! * [`model`] — plain-data views able to represent broken models;
//! * [`rules`] — the 22-rule catalog and the deterministic parallel
//!   engine ([`rules::run_checks`]);
//! * [`contract`] — per-FCM rely-guarantee contracts and the
//!   compositional C017–C022 rule family's shared arithmetic;
//! * [`certify`] — the incremental [`certify::Certifier`] with its
//!   (row-hash, contract-hash)-keyed verdict cache;
//! * [`gates`] — the gates callers run before they use a model: a
//!   whole SW graph, one edit of it, or a placed live model.
//!
//! The check catalog is documented as a table in DESIGN.md §8 (contracts
//! in §13); the `checktool` and `repro --check` binaries in
//! `crates/bench` run it over every committed experiment workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod contract;
pub mod diag;
pub mod gates;
pub mod model;
pub mod rules;

pub use certify::{CertView, Certification, Certifier, Dirty};
pub use contract::{CertifiedBound, Contract, ContractSet, CONTRACTS_SCHEMA};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use model::{FactorView, FcmNodeView, HierarchyView, RecoveryView, RetestView, SystemModel};
pub use rules::{run_checks, run_checks_with_threads, CheckDef, CATALOG};
