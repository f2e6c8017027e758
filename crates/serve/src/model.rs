//! The live model: gate-checked mutations with incremental Eq. 4
//! re-analysis, plus the read-only query surface.
//!
//! A [`LiveModel`] owns a mutable [`SwGraph`] together with the
//! node-level influence matrix, maintained **incrementally** through the
//! `fcm_alloc::pipeline` helpers: `add_fcm` folds the new node's row and
//! column from its own edges ([`pipeline::eq4_incident`]) and splices
//! them into the matrix in place; `remove_fcm` takes one row/column out
//! in place. No mutation ever rebuilds the matrix — the one full build
//! ([`pipeline::eq4_singletons`], an O(E log degree) fold over the edges)
//! happens at construction and is counted, so callers can assert the hot
//! path stays incremental.
//!
//! # The bitwise contract
//!
//! After any mutation sequence the matrix equals — bitwise — a full
//! `condense` over the current graph's singleton partition. This holds
//! because (a) `add_fcm` only adds edges incident to the new node, so
//! every other entry's edge bucket is untouched, and the new row/column
//! folds complement products over the node's edges in edge-id order —
//! the same association `condense` uses; (b) `remove_fcm` removes only
//! edges incident to the removed node and preserves the relative order
//! of the survivors. The protocol property tests and the fleet-scale
//! oracle (`tests/fleet_oracle.rs`) pin this.
//!
//! # The state: primary data only
//!
//! The paper's Eq. 4 makes the matrix a function of the Eq. 2 edge
//! weights, so the state text ([`LiveModel::state_text`], schema
//! `fcm-serve-state/v2`) holds the edges and not the matrix: `contracts`
//! (once in use), `edges`, `failed`, `fcms`, `full_condenses`, `model`,
//! `schema` and `seq`. A load rebuilds the matrix with the same fold as
//! construction, without counting it, and by the contract above the
//! rebuild is bitwise the matrix the saved model held, in the same
//! representation (the selection policy is a function of the size and
//! fill alone). `dump` and [`LiveModel::state_json`] add the derived
//! `influence` section for readers of the matrix. A state that carries
//! the section (a v1 snapshot, or a `state_json` tree) is rebuilt and
//! checked: a section that differs from the rebuild is refused, naming
//! the first entry that differs.
//!
//! # Apply in place, undo on rejection
//!
//! A mutation is validated, applied to `self` in place and then gated on
//! the part it touched: the per-edit pre-flight gate
//! ([`fcm_check::gates::check_sw_delta`]) over the touched node and its
//! new edges, the placement, and the incremental certifier over the
//! dirty rows. A rejection undoes exactly what was applied — the node
//! and its edges, the matrix row and column, the columns, the contract
//! and the certifier's rows — and reports the rendered diagnostics, so
//! the model is as it was. `add_fcm` and `set_attr` are O(degree +
//! log n). `remove_fcm` gates first and only then edits the graph
//! ([`fcm_graph::DiGraph::remove_node`]), the placement
//! ([`Placement::remove`]) and the name index in place, closing the
//! index gap: O(n) integer shifts and memmoves, with no rebuild and no
//! per-FCM allocation. The delta gate is sound because every entry
//! path (`new`, `from_state_text`) runs the full gate once, so every
//! committed state passed it.
//!
//! Placement is a live [`failover::Placement`], the same engine
//! `failover::remap` runs: `add_fcm` commits the FCM to its best host,
//! `remove_fcm` releases it from its host, `set_attr` re-admits the
//! FCM's host, `fail_node` fails a clone of the placement and commits
//! it whole, `propose_placement` fails a clone and discards it, and
//! `restore_node` re-places the unhosted.

use std::collections::{BTreeMap, BTreeSet};

use fcm_alloc::failover::{
    self, FailoverOutcome, HardConstraint, InvalidPlacement, Placement, ShedPolicy,
};
use fcm_alloc::pipeline;
use fcm_alloc::sw::{SwEdge, SwGraph, SwNode};
use fcm_alloc::{AllocError, Clustering, HwGraph, Mapping};
use fcm_check::{CertView, Certification, Certifier, Contract, ContractSet, Dirty, Severity};
use fcm_core::AttributeSet;
use fcm_graph::{Edge, InfluenceMatrix, NodeIdx};
use fcm_sched::{Job, JobId};
use fcm_substrate::json::{write_escaped, write_list, write_num, Reader};
use fcm_substrate::Json;
use fcm_workloads::{avionics, paper};

use crate::proto::{Mutation, Query};

/// State-schema tag embedded in dumps and snapshots.
pub const STATE_SCHEMA: &str = "fcm-serve-state/v2";

/// The schema before the influence section became optional: still
/// loaded, its section checked against the rebuild.
const STATE_SCHEMA_V1: &str = "fcm-serve-state/v1";

/// Names of the models a daemon can start from.
pub const MODEL_NAMES: [&str; 2] = ["paper", "avionics"];

/// The long-lived mutable model behind the daemon.
#[derive(Debug, Clone)]
pub struct LiveModel {
    name: String,
    hw: HwGraph,
    graph: SwGraph,
    /// FCM name → dense node index.
    index: BTreeMap<String, usize>,
    /// FCM names and criticalities in node order: the certifier's view
    /// columns, kept in step with the graph so no pass rebuilds them.
    names: Vec<String>,
    crits: Vec<u32>,
    /// Node-level Eq. 4 influence matrix, incrementally maintained.
    /// Dense for the committed workloads; flips to CSR automatically
    /// when a session grows past the sparse-policy threshold.
    influence: InfluenceMatrix,
    /// Host per FCM, each HW node's members, admission and load, and
    /// the failed HW nodes. Only the hosts and the failed set are
    /// serialized; the rest is rebuilt on resume.
    placement: Placement,
    shed: ShedPolicy,
    /// Accepted mutations (journal cursor).
    seq: u64,
    /// Full Eq. 4 builds performed by *this model* (1 at startup,
    /// carried over by resume, whose rebuild does not count; never
    /// incremented by a mutation).
    full_condenses: u64,
    /// Per-FCM rely-guarantee contracts (serialized with the state;
    /// empty = contracts not in use, certification skipped entirely).
    contracts: ContractSet,
    /// Incremental certifier. Derived state (a verdict cache over the
    /// graph + contracts), never serialized — resume re-certifies.
    certifier: Certifier,
    /// The certification from the last (re-)certification pass; `None`
    /// while no contracts are loaded.
    cert: Option<Certification>,
}

/// Builds the placement from a host per FCM, naming the first
/// inconsistency in the snapshot's terms: the FCM, the HW node and the
/// rule it breaks.
fn build_placement(
    g: &SwGraph,
    hw: &HwGraph,
    host_of: Vec<Option<NodeIdx>>,
    failed: BTreeSet<NodeIdx>,
) -> Result<Placement, String> {
    let fcm = |v: NodeIdx| &g.node(v).expect("hosted fcm").name;
    let hw_name = |h: NodeIdx| &hw.node(h).expect("hw node").name;
    Placement::new(g, hw, host_of, failed).map_err(|e| match e {
        InvalidPlacement::OnDownNode { sw, hw: h } => format!(
            "snapshot fcm \"{}\" hosted on failed hw \"{}\"",
            fcm(sw),
            hw_name(h)
        ),
        InvalidPlacement::Infeasible { hw: h } => {
            format!("infeasible job set on hw node {}", h.index())
        }
        InvalidPlacement::Breaks {
            sw,
            hw: h,
            constraint,
        } => {
            let (rule, why) = match constraint {
                HardConstraint::Resource(r) => ("resource", format!("it requires \"{r}\"")),
                HardConstraint::Pin(pin) => ("pin", format!("it is pinned to \"{pin}\"")),
                HardConstraint::Separation(peer) => (
                    "separation",
                    format!("it shares the node with \"{}\"", fcm(peer)),
                ),
                HardConstraint::Capacity => (
                    "capacity",
                    format!("capacity {}", hw.node(h).expect("hw node").capacity),
                ),
            };
            format!(
                "snapshot fcm \"{}\" on hw \"{}\" breaks the {rule} constraint: {why}",
                fcm(sw),
                hw_name(h)
            )
        }
    })
}

/// The edges of `v` as `(from, to, weight)` triples, out-edges then
/// in-edges, each in edge-id order — the fold order of the bitwise
/// contract for `v`'s row and column.
fn incident_triples(g: &SwGraph, v: NodeIdx) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
    g.out_edges(v)
        .chain(g.in_edges(v))
        .map(|(_, e)| (e.from.index(), e.to.index(), e.weight.influence()))
}

impl LiveModel {
    /// Builds the named committed workload (`paper` or `avionics`),
    /// places every FCM, and performs the one full Eq. 4 build
    /// ([`pipeline::eq4_singletons`]).
    ///
    /// # Errors
    ///
    /// Unknown model name, a pre-flight gate rejection, or an FCM with
    /// no feasible initial placement.
    pub fn new(model: &str) -> Result<LiveModel, String> {
        let (graph, hw) = match model {
            "paper" => (paper::fig4_expansion().graph, paper::hw_platform()),
            "avionics" => (avionics::expanded_suite().0.graph, avionics::platform()),
            other => {
                return Err(format!(
                    "unknown model \"{other}\" (expected one of: {})",
                    MODEL_NAMES.join(", ")
                ))
            }
        };
        let report = fcm_check::gates::check_sw_graph(&graph);
        if report.has_errors() {
            return Err(report.error_lines());
        }
        let influence = pipeline::eq4_singletons(&graph);

        let (index, names, crits) = fcm_columns(&graph);
        // Initial placement: most critical first (index breaks ties), the
        // same order failover uses, so every replica lands before the
        // bulk fills the hosts up.
        let mut placement =
            build_placement(&graph, &hw, vec![None; graph.node_count()], BTreeSet::new())?;
        let (_, unplaced) = placement.place_unhosted(&graph, &hw);
        if let Some(v) = unplaced.first() {
            return Err(format!(
                "no feasible initial placement for {}",
                graph.node(*v).expect("valid index").name
            ));
        }
        Ok(LiveModel {
            name: model.to_string(),
            graph,
            index,
            names,
            crits,
            influence,
            placement,
            hw,
            shed: ShedPolicy::ShedBelow { critical_at: 3 },
            seq: 0,
            full_condenses: 1,
            contracts: ContractSet::new(),
            certifier: Certifier::new(),
            cert: None,
        })
    }

    /// Model name (`paper` / `avionics`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accepted-mutation count — the journal cursor.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of live FCMs.
    #[must_use]
    pub fn fcm_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The live SW graph (read-only — all mutation goes through
    /// [`LiveModel::apply`] so the influence matrix stays in step).
    #[must_use]
    pub fn graph(&self) -> &SwGraph {
        &self.graph
    }

    /// Number of HW nodes.
    #[must_use]
    pub fn hw_count(&self) -> usize {
        self.hw.len()
    }

    /// The HW platform the model is placed on.
    #[must_use]
    pub fn hw(&self) -> &HwGraph {
        &self.hw
    }

    /// The live placement (read-only, like [`LiveModel::graph`]).
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Full condensations performed by this model (stays 1 forever: the
    /// mutation path is exclusively incremental).
    #[must_use]
    pub fn full_condenses(&self) -> u64 {
        self.full_condenses
    }

    fn fcm(&self, name: &str) -> Result<usize, String> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown fcm \"{name}\""))
    }

    fn hw_by_name(&self, name: &str) -> Result<NodeIdx, String> {
        self.hw
            .nodes()
            .find(|(_, n)| n.name == name)
            .map(|(h, _)| h)
            .ok_or_else(|| format!("unknown hw node \"{name}\""))
    }

    fn hw_name(&self, h: NodeIdx) -> String {
        self.hw.node(h).expect("valid index").name.clone()
    }

    /// The contract half of the mutation gate, on the model as it now
    /// stands: certifies with `dirty` rows re-verified (a cold cache —
    /// the first contract — runs a full pass). `Error` findings (a
    /// broken guarantee, rely, floor or cap, a dangling name) reject the
    /// mutation; warnings (partial coverage, a non-converging bound)
    /// pass — partial adoption never blocks. Returns the certification
    /// for the caller to commit (`None` while no contracts are in use);
    /// after a rejection the caller restores the model and calls
    /// [`LiveModel::rewind_certifier`].
    fn gate_contracts(
        &mut self,
        op: &str,
        dirty: &[usize],
    ) -> Result<Option<Certification>, String> {
        if self.contracts.is_empty() {
            self.certifier = Certifier::new();
            return Ok(None);
        }
        let cert = self.certify(Dirty::Rows(dirty));
        if cert.report.has_errors() {
            return Err(format!(
                "contracts rejected {op}: {}",
                cert.report.error_lines()
            ));
        }
        Ok(Some(cert))
    }

    /// Brings the verdict cache back in step with the restored model
    /// after a rejected mutation: re-certifies the `dirty` rows and
    /// drops the result (the committed certification never changed).
    fn rewind_certifier(&mut self, dirty: &[usize]) {
        if self.contracts.is_empty() {
            self.certifier = Certifier::new();
        } else {
            self.certify(Dirty::Rows(dirty));
        }
    }

    /// One certification pass over the model as it now stands.
    /// Single-threaded like the pre-flight gate: the certifier runs
    /// inside the writer thread, so nesting a fan-out buys nothing.
    fn certify(&mut self, dirty: Dirty) -> Certification {
        let view = CertView {
            model: &self.name,
            names: &self.names,
            crits: &self.crits,
            influence: &self.influence,
            contracts: &self.contracts,
        };
        self.certifier.certify(&view, dirty, 1)
    }

    /// Re-certifies the committed state from a cold cache — the resume
    /// path (the verdict cache is derived state, never serialized).
    fn recertify_full(&mut self) {
        self.certifier = Certifier::new();
        self.cert = (!self.contracts.is_empty()).then(|| self.certify(Dirty::Full));
    }

    /// Applies one mutation: validate → apply in place → gate-check the
    /// touched part → commit, or undo exactly what was applied. On
    /// success the seq advances and the op-specific response payload is
    /// returned; on error the model is as it was.
    ///
    /// # Errors
    ///
    /// The rejection reason (domain violation, gate diagnostics, or no
    /// feasible placement), suitable for the wire `"error"` field.
    pub fn apply(&mut self, m: &Mutation) -> Result<Json, String> {
        let payload = match m {
            Mutation::AddFcm {
                name,
                criticality,
                throughput,
                security,
                timing,
                influences,
                influenced_by,
                contract,
            } => self.add_fcm(
                name,
                *criticality,
                *throughput,
                *security,
                *timing,
                influences,
                influenced_by,
                contract.as_ref(),
            )?,
            Mutation::RemoveFcm { name } => self.remove_fcm(name)?,
            Mutation::SetAttr {
                name,
                criticality,
                throughput,
                timing,
            } => self.set_attr(name, *criticality, *throughput, *timing)?,
            Mutation::FailNode { node } => self.fail_node(node)?,
            Mutation::RestoreNode { node } => self.restore_node(node)?,
        };
        self.seq += 1;
        Ok(payload.set("seq", self.seq))
    }

    #[allow(clippy::too_many_arguments)]
    fn add_fcm(
        &mut self,
        name: &str,
        crit: u32,
        throughput: f64,
        security: u8,
        timing: Option<(u64, u64, u64)>,
        influences: &[(String, f64)],
        influenced_by: &[(String, f64)],
        contract: Option<&Contract>,
    ) -> Result<Json, String> {
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err("fcm name must be non-empty without whitespace".to_string());
        }
        if self.index.contains_key(name) {
            return Err(format!("fcm \"{name}\" already exists"));
        }
        if !(throughput.is_finite() && throughput >= 0.0) {
            return Err("\"throughput\" must be finite and non-negative".to_string());
        }
        let mut attrs = AttributeSet::default()
            .with_criticality(crit)
            .with_throughput(throughput)
            .with_security(security);
        if let Some((est, tcd, ct)) = timing {
            attrs = attrs.with_timing(est, tcd, ct);
        }
        // Resolve every edge before touching the model.
        let resolve = |edges: &[(String, f64)]| -> Result<Vec<(NodeIdx, f64)>, String> {
            edges
                .iter()
                .map(|(other, w)| {
                    let u = self.fcm(other)?;
                    check_weight(*w)?;
                    Ok((NodeIdx(u), *w))
                })
                .collect()
        };
        let (outs, ins) = (resolve(influences)?, resolve(influenced_by)?);

        // Apply in place: the node and its edges are the graph's last,
        // so a rejection pops them off again.
        let v = self.graph.add_node(SwNode::new(name, attrs));
        let mut edges = Vec::with_capacity(outs.len() + ins.len());
        for &(t, w) in &outs {
            edges.push(self.graph.add_edge(v, t, SwEdge::Influence(w)));
        }
        for &(f, w) in &ins {
            edges.push(self.graph.add_edge(f, v, SwEdge::Influence(w)));
        }
        let report = fcm_check::gates::check_sw_delta(&self.graph, &[v], &edges);
        if report.has_errors() {
            self.graph.pop_node();
            return Err(format!(
                "preflight rejected add_fcm: {}",
                report.error_lines()
            ));
        }
        let Some(h) = self.placement.best_host(&self.graph, &self.hw, v) else {
            self.graph.pop_node();
            return Err(format!("no feasible placement for \"{name}\""));
        };
        if let Some(c) = contract.filter(|c| c.fcm != name) {
            self.graph.pop_node();
            return Err(format!(
                "contract is for \"{}\", not the added fcm \"{name}\"",
                c.fcm
            ));
        }

        // Incremental Eq. 4: fold the new row and column from the node's
        // own edges and splice them in (the policy re-check may flip the
        // representation afterwards).
        let (row, col) = pipeline::eq4_incident(incident_triples(&self.graph, v), v.index());
        self.influence.push_row_col(&row, &col);
        self.influence.rebalance();
        self.names.push(name.to_string());
        self.crits.push(crit);
        let displaced = contract.map(|c| self.contracts.insert(c.clone()));
        // Dirty rows: the new one and its in-edge sources (their rows
        // gained column `v`); the certifier adds the rows whose caps name
        // the new FCM.
        let sources: Vec<usize> = ins.iter().map(|&(f, _)| f.index()).collect();
        self.certifier.insert_row(v.index(), name);
        let cert = match self.gate_contracts("add_fcm", &[&sources[..], &[v.index()]].concat()) {
            Ok(cert) => cert,
            Err(e) => {
                self.undo_add(name, displaced, &sources);
                return Err(e);
            }
        };
        self.cert = cert;
        self.placement.commit(&self.graph, v, h);
        self.index.insert(name.to_string(), v.index());
        Ok(Json::object()
            .set("fcm", name)
            .set("host", self.hw_name(h).as_str()))
    }

    /// Undoes an add the contract gate rejected: the contract it
    /// displaced (`displaced` is `Some` when the add carried one), the
    /// columns, the matrix row and column, the node and its edges, and
    /// the certifier's row; `sources` are the node's in-edge sources.
    fn undo_add(&mut self, name: &str, displaced: Option<Option<Contract>>, sources: &[usize]) {
        match displaced {
            Some(Some(old)) => {
                self.contracts.insert(old);
            }
            Some(None) => {
                self.contracts.remove(name);
            }
            None => {}
        }
        self.names.pop();
        self.crits.pop();
        self.influence.pop_row_col();
        self.influence.rebalance();
        let v = self.graph.node_count() - 1;
        self.graph.pop_node();
        self.certifier.remove_row(v, name);
        self.rewind_certifier(sources);
    }

    fn remove_fcm(&mut self, name: &str) -> Result<Json, String> {
        let v = self.fcm(name)?;
        let node = NodeIdx(v);
        // The rows that lose their entry in column `v`.
        let sources: Vec<usize> = self
            .graph
            .in_edges(node)
            .map(|(_, e)| e.from.index())
            .collect();
        // Row and column `v` leave in place; a rejection splices their
        // entries back.
        let (row, col) = self.influence.remove_row_col(v);
        self.influence.rebalance();
        let kept_name = self.names.remove(v);
        let kept_crit = self.crits.remove(v);
        // The FCM's own contract leaves with it; survivors' caps naming
        // it would dangle (a C021 error), which rejects the removal.
        let kept_contract = self.contracts.remove(name);
        self.certifier.remove_row(v, name);
        let dirty: Vec<usize> = sources.iter().map(|&u| u - usize::from(u > v)).collect();
        let cert = match self.gate_contracts("remove_fcm", &dirty) {
            Ok(cert) => cert,
            Err(e) => {
                self.influence.insert_row_col(v, &row, &col);
                self.influence.rebalance();
                self.names.insert(v, kept_name);
                self.crits.insert(v, kept_crit);
                if let Some(c) = kept_contract {
                    self.contracts.insert(c);
                }
                self.certifier.insert_row(v, name);
                self.rewind_certifier(&sources);
                return Err(e);
            }
        };
        self.cert = cert;
        // Accepted: these edits cannot fail. Survivors keep their
        // relative node and edge order, so every remaining influence
        // entry's edge bucket is untouched (the bitwise contract's
        // removal half), and every later index drops by one.
        self.placement.remove(&self.graph, node);
        self.graph.remove_node(node);
        self.index.remove(name);
        for i in self.index.values_mut() {
            *i -= usize::from(*i > v);
        }
        Ok(Json::object().set("removed", name))
    }

    fn set_attr(
        &mut self,
        name: &str,
        crit: Option<u32>,
        throughput: Option<f64>,
        timing: Option<Option<(u64, u64, u64)>>,
    ) -> Result<Json, String> {
        let v = self.fcm(name)?;
        if let Some(t) = throughput {
            if !(t.is_finite() && t >= 0.0) {
                return Err("\"throughput\" must be finite and non-negative".to_string());
            }
        }
        let node = NodeIdx(v);
        let kept = self.graph.node(node).expect("valid index").attributes;
        let mut attrs = kept;
        if let Some(c) = crit {
            attrs.criticality.0 = c;
        }
        if let Some(t) = throughput {
            attrs.throughput.0 = t;
        }
        if let Some(t) = timing {
            attrs.timing = t.map(|(est, tcd, ct)| {
                AttributeSet::default()
                    .with_timing(est, tcd, ct)
                    .timing
                    .expect("just set")
            });
        }
        // Apply in place; every rejection below restores `kept`.
        self.set_attributes(v, attrs);
        let report = fcm_check::gates::check_sw_delta(&self.graph, &[node], &[]);
        if report.has_errors() {
            self.set_attributes(v, kept);
            return Err(format!(
                "preflight rejected set_attr: {}",
                report.error_lines()
            ));
        }
        // Contract gate: only row `v` is dirty (the state hash folds the
        // criticality), the O(degree) re-certification path.
        let cert = match self.gate_contracts("set_attr", &[v]) {
            Ok(cert) => cert,
            Err(e) => {
                self.set_attributes(v, kept);
                self.rewind_certifier(&[v]);
                return Err(e);
            }
        };
        // Re-validate the FCM's host under the new attributes: the
        // rely-guarantee per-edit admission check. Only this host's
        // members changed, so only it can stop fitting.
        if let Err(e) = self.placement.readmit(&self.graph, &self.hw, node) {
            self.set_attributes(v, kept);
            self.rewind_certifier(&[v]);
            let h = self.placement.host_of()[v].expect("only a hosted fcm is re-admitted");
            let hw = self.hw.node(h).expect("valid index");
            return Err(match e {
                InvalidPlacement::Infeasible { .. } => {
                    format!("set_attr would make {name} EDF-infeasible on {}", hw.name)
                }
                _ => format!("set_attr would exceed {} capacity {}", hw.name, hw.capacity),
            });
        }
        self.cert = cert;
        Ok(Json::object().set("fcm", name))
    }

    /// Sets FCM `v`'s attributes in the graph and the criticality column.
    fn set_attributes(&mut self, v: usize, attrs: AttributeSet) {
        self.graph
            .node_mut(NodeIdx(v))
            .expect("valid index")
            .attributes = attrs;
        self.crits[v] = attrs.criticality.0;
    }

    fn fail_node(&mut self, node: &str) -> Result<Json, String> {
        let h = self.hw_by_name(node)?;
        if self.placement.down().contains(&h) {
            return Err(format!("hw node \"{node}\" is already failed"));
        }
        // Fail a candidate: the whole failover either commits or the
        // mutation is rejected (a protected victim fit nowhere).
        let mut placement = self.placement.clone();
        let out = placement
            .fail(&self.graph, &self.hw, h, self.shed)
            .map_err(|v| {
                format!(
                    "fail_node rejected: no feasible placement for protected \"{}\"",
                    self.fcm_name(v.index())
                )
            })?;
        self.placement = placement;
        Ok(self.failover_json(&out).set("failed", node))
    }

    fn restore_node(&mut self, node: &str) -> Result<Json, String> {
        let h = self.hw_by_name(node)?;
        if !self.placement.restore(h) {
            return Err(format!("hw node \"{node}\" is not failed"));
        }
        let (placed, mut unplaced) = self.placement.place_unhosted(&self.graph, &self.hw);
        unplaced.sort_unstable();
        Ok(Json::object()
            .set("placed", self.pairs_json(&placed))
            .set("restored", node)
            .set("unplaced", self.names_json(&unplaced)))
    }

    /// The `degraded`/`moved`/`shed` fields of a failover outcome.
    fn failover_json(&self, out: &FailoverOutcome) -> Json {
        let moved: Vec<(NodeIdx, NodeIdx)> = out
            .placement
            .iter()
            .filter_map(|&(v, dest)| dest.map(|d| (v, d)))
            .collect();
        Json::object()
            .set("degraded", out.degraded)
            .set("moved", self.pairs_json(&moved))
            .set("shed", self.names_json(&out.shed))
    }

    /// `[[fcm, hw], ...]` by name.
    fn pairs_json(&self, pairs: &[(NodeIdx, NodeIdx)]) -> Json {
        Json::array(pairs.iter().map(|&(v, h)| {
            Json::array([
                Json::from(self.fcm_name(v.index())),
                Json::from(self.hw_name(h)),
            ])
        }))
    }

    /// The failed HW nodes by name.
    fn failed_json(&self) -> Json {
        Json::array(
            self.placement
                .down()
                .iter()
                .map(|&h| Json::from(self.hw_name(h))),
        )
    }

    /// `[fcm, ...]` by name.
    fn names_json(&self, fcms: &[NodeIdx]) -> Json {
        Json::array(fcms.iter().map(|&v| Json::from(self.fcm_name(v.index()))))
    }

    fn fcm_name(&self, v: usize) -> String {
        self.graph
            .node(NodeIdx(v))
            .expect("valid index")
            .name
            .clone()
    }

    /// Answers a read-only query ([`Query::Snapshot`] is handled by the
    /// server layer, which owns the store).
    ///
    /// # Errors
    ///
    /// Unknown names or an unsatisfiable precondition, as the wire
    /// `"error"` string.
    pub fn query(&self, q: &Query) -> Result<Json, String> {
        match q {
            Query::Influence { from, to, order } => {
                let (i, j) = (self.fcm(from)?, self.fcm(to)?);
                Ok(Json::object()
                    .set("direct", self.influence[(i, j)])
                    .set("from", from.as_str())
                    .set("order", *order as u64)
                    .set("to", to.as_str())
                    .set(
                        "transitive",
                        self.influence.transitive_influence(i, j, *order),
                    ))
            }
            Query::Separation { from, to, order } => {
                let (i, j) = (self.fcm(from)?, self.fcm(to)?);
                let t = self.influence.transitive_influence(i, j, *order);
                Ok(Json::object()
                    .set("from", from.as_str())
                    .set("order", *order as u64)
                    .set("separation", 1.0 - t)
                    .set("to", to.as_str()))
            }
            Query::Check => Ok(self.run_check()),
            Query::Certify => Ok(self.certify_json()),
            Query::Admit {
                node,
                timing,
                throughput,
            } => self.admit(node, *timing, *throughput),
            Query::ProposePlacement { node } => self.propose_placement(node),
            Query::Stats => Ok(self.stats()),
            Query::List => Ok(Json::object()
                .set(
                    "fcms",
                    Json::array(
                        self.graph
                            .nodes()
                            .map(|(_, sw)| Json::from(sw.name.as_str())),
                    ),
                )
                .set(
                    "hw",
                    Json::array(self.hw.nodes().map(|(_, n)| Json::from(n.name.as_str()))),
                )),
            Query::Dump => Ok(Json::object()
                .set("matrix", self.matrix_info())
                .set("state", self.state_json())),
            Query::Ping => Ok(Json::object()),
            Query::Snapshot => Err("snapshot is handled by the server layer".to_string()),
            Query::Metrics => Err("metrics is handled by the server layer".to_string()),
        }
    }

    fn run_check(&self) -> Json {
        let (report, scope) = match self.placed_view() {
            Ok(Some((c, m))) => (
                fcm_check::gates::check_placed_model(
                    &self.name,
                    &self.graph,
                    c,
                    m,
                    self.hw.clone(),
                    self.shed,
                ),
                "placed",
            ),
            Ok(None) => (fcm_check::gates::check_sw_graph(&self.graph), "graph"),
            Err(why) => (
                fcm_check::gates::check_unclustered_placement(&self.graph, &why),
                "placed",
            ),
        };
        Json::object()
            .set(
                "diagnostics",
                Json::array(report.diagnostics.iter().map(|d| Json::from(d.render()))),
            )
            .set("errors", report.count(Severity::Error) as u64)
            .set("infos", report.count(Severity::Info) as u64)
            .set("scope", scope)
            .set("warnings", report.count(Severity::Warn) as u64)
    }

    fn admit(
        &self,
        node: &str,
        timing: Option<(u64, u64, u64)>,
        throughput: f64,
    ) -> Result<Json, String> {
        let h = self.hw_by_name(node)?;
        let verdict = |admit: bool, reason: &str| {
            Ok(Json::object()
                .set("admit", admit)
                .set("node", node)
                .set("reason", reason))
        };
        if self.placement.down().contains(&h) {
            return verdict(false, "hw node is failed");
        }
        let cap = self.hw.node(h).expect("valid index").capacity;
        if self.placement.throughput(h) + throughput > cap {
            return verdict(false, "throughput capacity exceeded");
        }
        if let Some((est, tcd, ct)) = timing {
            let job = Job::new(self.graph.node_count() as JobId, est, tcd, ct);
            if !self.placement.admission(h).would_admit(job) {
                return verdict(false, "EDF admission rejected the timing constraint");
            }
        }
        verdict(true, "feasible")
    }

    /// Whether every FCM is hosted.
    fn fully_placed(&self) -> bool {
        self.placement.host_of().iter().all(Option::is_some)
    }

    /// The current placement as a validated `(Clustering, Mapping)` pair
    /// — `None` unless every FCM is hosted (clusters must partition the
    /// graph), and the clustering's complaint when the hosts' member
    /// sets do not form valid clusters, which the placement invariant
    /// rules out.
    fn placed_view(&self) -> Result<Option<(Clustering, Mapping)>, AllocError> {
        if !self.fully_placed() {
            return Ok(None);
        }
        let mut groups: Vec<Vec<NodeIdx>> = Vec::new();
        let mut assignment: Vec<NodeIdx> = Vec::new();
        for h in (0..self.hw.len()).map(NodeIdx) {
            let members = self.placement.members(h);
            if !members.is_empty() {
                groups.push(members.to_vec());
                assignment.push(h);
            }
        }
        let clustering = Clustering::new(&self.graph, groups)?;
        Ok(Some((clustering, Mapping::from_assignment(assignment))))
    }

    fn propose_placement(&self, node: &str) -> Result<Json, String> {
        let h = self.hw_by_name(node)?;
        if !self.placement.down().is_empty() {
            return Err("propose_placement requires no already-failed hw nodes".to_string());
        }
        if !self.fully_placed() {
            return Err("propose_placement requires a fully-placed model".to_string());
        }
        let out = self
            .placement
            .clone()
            .fail(&self.graph, &self.hw, h, self.shed)
            .map_err(|v| failover::unplaceable(&self.graph, v).to_string())?;
        Ok(self.failover_json(&out).set("node", node))
    }

    /// `(repr, nnz)` of the influence matrix — the cheap pre/post-apply
    /// probe the writer thread uses to stamp subscription events with
    /// the incremental Eq. 4 delta and detect live repr flips.
    #[must_use]
    pub(crate) fn matrix_brief(&self) -> (&'static str, u64) {
        (self.influence.repr(), self.influence.nnz() as u64)
    }

    /// The influence matrix's representation facts: which engine is
    /// serving queries, how many entries are stored, how full it is.
    pub(crate) fn matrix_info(&self) -> Json {
        Json::object()
            .set("density", self.influence.density())
            .set("nnz", self.influence.nnz() as u64)
            .set("repr", self.influence.repr())
    }

    /// The `stats`/`certify` `"certified"` block: contract count, the
    /// certified bound, and the incremental certifier's dirty/reused
    /// split from the last re-certification pass.
    fn certified_json(&self) -> Json {
        let base = Json::object().set("contracts", self.contracts.len() as u64);
        match &self.cert {
            Some(c) => base
                .set("bound", c.bound.to_json())
                .set("certified", c.certified)
                .set("dirty", c.verified as u64)
                .set("reused", c.reused as u64),
            None => base.set("certified", false),
        }
    }

    /// The `certify` query: the `"certified"` block plus the rendered
    /// C017–C022 findings of the last certification pass.
    fn certify_json(&self) -> Json {
        let base = self.certified_json();
        match &self.cert {
            Some(c) => base
                .set(
                    "diagnostics",
                    Json::array(c.report.diagnostics.iter().map(|d| Json::from(d.render()))),
                )
                .set("errors", c.report.count(Severity::Error) as u64)
                .set("warnings", c.report.count(Severity::Warn) as u64),
            None => base
                .set("diagnostics", Json::array(std::iter::empty::<Json>()))
                .set("errors", 0u64)
                .set("warnings", 0u64),
        }
    }

    fn stats(&self) -> Json {
        let unhosted = self
            .placement
            .host_of()
            .iter()
            .filter(|h| h.is_none())
            .count();
        Json::object()
            .set("certified", self.certified_json())
            .set("edges", self.graph.edge_count() as u64)
            .set("failed", self.failed_json())
            .set("fcms", self.graph.node_count() as u64)
            .set("full_condenses", self.full_condenses)
            .set("matrix", self.matrix_info())
            .set("model", self.name.as_str())
            .set("seq", self.seq)
            .set("unhosted", unhosted as u64)
    }

    /// The full canonical state as compact JSON text, the one a snapshot
    /// holds: the primary data that reconstructs the model bit for bit
    /// (substrate JSON emits `f64`s shortest-exact, so edge weights
    /// round-trip exactly). The Eq. 4 matrix is derived, so it is not in
    /// it: a load rebuilds it from the edges. This is the one definition
    /// of the state format (written by the private `write_state`).
    #[must_use]
    pub fn state_text(&self) -> String {
        let mut out = String::with_capacity(self.state_capacity());
        self.write_state(&mut out, false);
        out
    }

    /// A byte estimate of [`LiveModel::state_text`] per FCM and per
    /// edge, above what a fleet-scale state takes (~225 bytes per FCM,
    /// edges included, ~265 with the matrix of `state_json`), so a
    /// buffer of it is not regrown.
    pub(crate) fn state_capacity(&self) -> usize {
        256 * self.graph.node_count() + 32 * self.graph.edge_count() + 1024
    }

    /// Appends [`LiveModel::state_text`] to `out`, with the derived
    /// `influence` section when `with_influence` is set (the form of
    /// `dump` and [`LiveModel::state_json`]). Every section is written
    /// straight into `out`, each object's keys in the sorted order a
    /// [`Json`] object emits, through the substrate's one number and one
    /// string writer: no tree for the model, the contracts or the
    /// influence matrix, and no `Json` value per field.
    pub(crate) fn write_state(&self, out: &mut String, with_influence: bool) {
        write_state_parts(
            out,
            |out| write_contracts(out, &self.contracts),
            self.graph.edges().map(|(_, e)| edge_triple(e)),
            |out| self.write_hosts_and_fcms(out),
            with_influence.then_some(&self.influence),
            &self.name,
            self.seq,
        );
    }

    /// The state's `failed` and `fcms` sections and its `full_condenses`,
    /// written after the `edges` section.
    fn write_hosts_and_fcms(&self, out: &mut String) {
        out.push_str(",\"failed\":");
        write_list(out, self.placement.down(), |out, &h| {
            write_escaped(out, &self.hw.node(h).expect("valid index").name);
        });
        out.push_str(",\"fcms\":");
        write_list(out, self.graph.nodes(), |out, (n, sw)| {
            let a = &sw.attributes;
            let host = self.placement.host_of()[n.index()]
                .map(|h| self.hw.node(h).expect("valid index").name.as_str());
            out.push_str("{\"crit\":");
            write_num(out, f64::from(a.criticality.0));
            out.push_str(",\"ft\":");
            write_num(out, f64::from(a.fault_tolerance.0));
            out.push_str(",\"host\":");
            write_opt_str(out, host);
            out.push_str(",\"name\":");
            write_escaped(out, &sw.name);
            out.push_str(",\"pin\":");
            write_opt_str(out, sw.pinned_to.as_deref());
            out.push_str(",\"rep\":");
            write_opt_num(out, sw.replica_group);
            out.push_str(",\"res\":");
            write_list(out, &sw.required_resources, |out, r| write_escaped(out, r));
            out.push_str(",\"sec\":");
            write_num(out, f64::from(a.security.0));
            out.push_str(",\"sep\":");
            write_opt_num(out, sw.separation_group);
            out.push_str(",\"thr\":");
            write_num(out, a.throughput.0);
            out.push_str(",\"timing\":");
            match a.timing {
                Some(t) => write_list(out, [t.est, t.tcd, t.ct], |out, x| {
                    write_num(out, x as f64);
                }),
                None => out.push_str("null"),
            }
            out.push('}');
        });
        out.push_str(",\"full_condenses\":");
        write_num(out, self.full_condenses as f64);
    }

    /// A [`StateCut`] of this model: what a snapshot at this seq needs,
    /// taken while the caller holds the model. The matrix is not copied:
    /// a snapshot does not hold it.
    #[must_use]
    pub fn state_cut(&self) -> StateCut {
        // Sized above a fleet-scale render (~60 bytes per contract
        // without caps, ~120 per FCM record), so neither buffer regrows.
        let mut contracts = String::with_capacity(64 * self.contracts.len() + 64);
        write_contracts(&mut contracts, &self.contracts);
        let mut hosts_and_fcms = String::with_capacity(128 * self.graph.node_count() + 64);
        self.write_hosts_and_fcms(&mut hosts_and_fcms);
        StateCut {
            contracts,
            edges: self.graph.edges().map(|(_, e)| edge_triple(e)).collect(),
            hosts_and_fcms,
            name: self.name.clone(),
            seq: self.seq,
            capacity: self.state_capacity(),
        }
    }

    /// [`LiveModel::state_text`] with the derived `influence` section,
    /// parsed into a [`Json`] tree: the `state` a `dump` answers with, for
    /// callers that read fields, the matrix included, out of the state.
    /// It loads like the state text, the section checked against the
    /// rebuild.
    #[must_use]
    pub fn state_json(&self) -> Json {
        let mut out = String::with_capacity(self.state_capacity());
        self.write_state(&mut out, true);
        Json::parse(&out).expect("the state text is valid JSON")
    }

    /// [`LiveModel::from_state_text`] of a state tree, for callers that
    /// hold the state as [`Json`].
    ///
    /// # Errors
    ///
    /// As [`LiveModel::from_state_text`].
    pub fn from_state(state: &Json) -> Result<LiveModel, String> {
        LiveModel::from_state_text(&state.to_string_compact())
    }

    /// Reconstructs a model from [`LiveModel::state_text`] output, the
    /// one state decoder: its read phase over the text, a check that
    /// nothing follows the state, then its build phase, which runs every
    /// check in one fixed order. A snapshot file's state is decoded by
    /// the same two phases, the read phase in place in the envelope
    /// ([`crate::store::read_recovered`]).
    ///
    /// # Errors
    ///
    /// Text that is not JSON, or a malformed or internally inconsistent
    /// state object.
    pub fn from_state_text(text: &str) -> Result<LiveModel, String> {
        let syntax = |e: String| format!("corrupt snapshot state: {e}");
        let mut r = Reader::new(text);
        let state = StateRead::read(&mut r).map_err(syntax)?;
        r.finish().map_err(syntax)?;
        state.build()
    }
}

/// A state object as read, before any check: the read phase of the
/// state decoder.
///
/// `fcms`, `edges` and `contracts`, the bulk of a large state, stream
/// straight into the graph and the contract set, and only the other
/// sections are read as [`Json`] subtrees: the small ones, and a v1
/// state's `influence`.
/// Keys may come in any order and with any whitespace, and unknown keys
/// are passed over, as in a parsed tree. The checks run in
/// [`StateRead::build`], in one fixed order, so the error a bad state
/// reports does not depend on where its keys sit.
pub(crate) struct StateRead {
    fcms: Option<FcmsRead>,
    edges: Option<EdgesRead>,
    /// The contract set, or why it does not validate.
    contracts: Option<Result<ContractSet, String>>,
    /// The other sections, as the tree's object would hold them.
    rest: BTreeMap<String, Json>,
}

impl StateRead {
    /// Reads the next value of `r` as a state. Only a syntax error is
    /// returned as an error, in the reader's own words, so the caller
    /// names the document it sits in.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<StateRead, String> {
        let mut read = StateRead {
            fcms: None,
            edges: None,
            contracts: None,
            rest: BTreeMap::new(),
        };
        if r.peek() == Some(b'{') {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "fcms" => read.fcms = read_fcms(r)?,
                    "edges" => read.edges = read_edges(r)?,
                    "contracts" => read.contracts = Some(ContractSet::read(r)?),
                    "failed" | "full_condenses" | "influence" | "model" | "schema" | "seq" => {
                        read.rest.insert(key.into_owned(), r.value()?);
                    }
                    _ => r.skip()?,
                }
            }
        } else {
            // Valid JSON but no object, so no schema.
            r.skip()?;
        }
        Ok(read)
    }

    /// The model the state describes. The influence matrix is rebuilt
    /// from the edges ([`pipeline::eq4_singletons`]; the full-condense
    /// count is carried over, not incremented), and a state that holds an
    /// `influence` section (v1, or a [`LiveModel::state_json`] tree) is
    /// refused unless the section equals the rebuild. Host state is
    /// rebuilt deterministically.
    ///
    /// # Errors
    ///
    /// A malformed or internally inconsistent state object.
    pub(crate) fn build(self) -> Result<LiveModel, String> {
        let StateRead {
            fcms,
            edges,
            contracts,
            rest,
        } = self;
        let state = Json::Obj(rest);

        if !matches!(
            state.get("schema").and_then(Json::as_str),
            Some(STATE_SCHEMA | STATE_SCHEMA_V1)
        ) {
            return Err(format!(
                "snapshot state is not {STATE_SCHEMA} or {STATE_SCHEMA_V1}"
            ));
        }
        let name = state
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("model"))?;
        let hw = match name {
            "paper" => paper::hw_platform(),
            "avionics" => avionics::platform(),
            other => return Err(format!("unknown model \"{other}\" in snapshot")),
        };
        let hw_index: BTreeMap<String, NodeIdx> =
            hw.nodes().map(|(h, n)| (n.name.clone(), h)).collect();

        let FcmsRead {
            mut graph,
            hosts,
            bad,
        } = fcms.ok_or_else(|| missing("fcms"))?;
        // The FCMs before the first bad one each name a host; an unknown
        // one is reported first, as a walk in array order meets it first.
        let mut host_of: Vec<Option<NodeIdx>> = Vec::with_capacity(hosts.len());
        for (v, host) in hosts.iter().enumerate() {
            host_of.push(match host {
                Some(h) => Some(*hw_index.get(h).ok_or_else(|| {
                    format!(
                        "snapshot fcm \"{}\" on unknown hw \"{h}\"",
                        graph.node(NodeIdx(v)).expect("one host per node").name
                    )
                })?),
                None => None,
            });
        }
        if let Some(e) = bad {
            return Err(e);
        }

        let EdgesRead { triples, malformed } = edges.ok_or_else(|| missing("edges"))?;
        let fcms = graph.node_count();
        let index = |x: f64| {
            (x >= 0.0 && x.fract() == 0.0 && x < fcms as f64)
                .then_some(x as usize)
                .ok_or_else(|| format!("snapshot edge endpoint {x} is not an fcm index"))
        };
        for (f, to, w) in triples {
            let (f, to) = (index(f)?, index(to)?);
            if f == to {
                let name = &graph.node(NodeIdx(f)).expect("index checked").name;
                return Err(format!("snapshot edge is a self-loop on fcm \"{name}\""));
            }
            let weight = if w == 0.0 {
                SwEdge::ReplicaLink
            } else {
                SwEdge::Influence(w)
            };
            graph.add_edge(NodeIdx(f), NodeIdx(to), weight);
        }
        if malformed {
            return Err(missing("edges[]"));
        }

        // A stored matrix (v1, or a `state_json` tree), checked against
        // the rebuild below.
        let stored = state
            .get("influence")
            .map(|m| InfluenceMatrix::from_state_json(m).ok_or_else(|| missing("influence")))
            .transpose()?;
        let n = graph.node_count();
        if stored
            .as_ref()
            .is_some_and(|m| m.rows() != n || m.cols() != n)
        {
            return Err("snapshot influence matrix has wrong dimensions".to_string());
        }

        let mut failed = BTreeSet::new();
        for h in state
            .get("failed")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("failed"))?
        {
            let hname = h.as_str().ok_or_else(|| missing("failed[]"))?;
            failed.insert(
                *hw_index
                    .get(hname)
                    .ok_or_else(|| format!("snapshot failed unknown hw \"{hname}\""))?,
            );
        }

        let count = |key: &str| {
            let x = state
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing(key))?;
            as_count(x)
                .ok_or_else(|| format!("snapshot state {key} {x} is not a non-negative integer"))
        };
        let seq = count("seq")?;
        let full_condenses = count("full_condenses")?;
        let contracts = match contracts {
            Some(set) => set.map_err(|e| format!("snapshot contracts: {e}"))?,
            None => ContractSet::new(),
        };
        // Every committed state passed the full pre-flight gate, which is
        // what lets a mutation gate only the part it touched.
        let (graph, report) = fcm_check::gates::check_sw_graph_owned(graph);
        if report.has_errors() {
            return Err(format!(
                "snapshot rejected by preflight: {}",
                report.error_lines()
            ));
        }
        let influence = pipeline::eq4_singletons(&graph);
        if let Some((i, j, was, is)) = stored.and_then(|m| m.first_difference(&influence)) {
            let fcm = |v: usize| &graph.node(NodeIdx(v)).expect("matrix index").name;
            return Err(format!(
                "snapshot influence {:?} -> {:?} is {was} but its edges give {is}",
                fcm(i),
                fcm(j)
            ));
        }
        let placement = build_placement(&graph, &hw, host_of, failed)?;
        let (index, names, crits) = fcm_columns(&graph);
        let mut model = LiveModel {
            name: name.to_string(),
            graph,
            index,
            names,
            crits,
            influence,
            placement,
            hw,
            shed: ShedPolicy::ShedBelow { critical_at: 3 },
            seq,
            full_condenses,
            contracts,
            certifier: Certifier::new(),
            cert: None,
        };
        model.recertify_full();
        Ok(model)
    }
}

/// The state's `fcms` array as read: the FCMs up to the first one that
/// does not decode, as graph nodes, with the host each names (looked up
/// once the state's model is known), and that first error.
struct FcmsRead {
    graph: SwGraph,
    hosts: Vec<Option<String>>,
    bad: Option<String>,
}

/// Reads the `fcms` value: `None` when it is not an array. Only a
/// syntax error is returned as an error.
fn read_fcms(r: &mut Reader<'_>) -> Result<Option<FcmsRead>, String> {
    if r.peek() != Some(b'[') {
        r.skip()?;
        return Ok(None);
    }
    let mut read = FcmsRead {
        graph: SwGraph::new(),
        hosts: Vec::new(),
        bad: None,
    };
    r.begin_array()?;
    while r.next_item()? {
        if read.bad.is_some() {
            r.skip()?;
            continue;
        }
        let entry = match read_fcm(r)? {
            Some(fields) => fields.into_node(),
            None => Err(missing("fcms[].name")),
        };
        match entry {
            Ok((node, host)) => {
                read.graph.add_node(node);
                read.hosts.push(host);
            }
            Err(e) => read.bad = Some(e),
        }
    }
    Ok(Some(read))
}

/// The fields of one `fcms[]` entry as read, before any check; a field
/// of the wrong type reads as absent, as a tree lookup would find it.
#[derive(Default)]
struct FcmFields {
    name: Option<String>,
    pin: Option<String>,
    host: Option<String>,
    crit: Option<f64>,
    thr: Option<f64>,
    sec: Option<f64>,
    ft: Option<f64>,
    rep: Option<f64>,
    sep: Option<f64>,
    timing: Option<Json>,
    res: Option<Json>,
}

/// Reads one `fcms[]` entry: `None` when it is not an object. Only a
/// syntax error is returned as an error.
fn read_fcm(r: &mut Reader<'_>) -> Result<Option<FcmFields>, String> {
    if r.peek() != Some(b'{') {
        r.skip()?;
        return Ok(None);
    }
    let string = |j: Json| match j {
        Json::Str(s) => Some(s),
        _ => None,
    };
    let mut f = FcmFields::default();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "name" => f.name = string(r.value()?),
            "pin" => f.pin = string(r.value()?),
            "host" => f.host = string(r.value()?),
            "crit" => f.crit = r.value()?.as_f64(),
            "thr" => f.thr = r.value()?.as_f64(),
            "sec" => f.sec = r.value()?.as_f64(),
            "ft" => f.ft = r.value()?.as_f64(),
            "rep" => f.rep = r.value()?.as_f64(),
            "sep" => f.sep = r.value()?.as_f64(),
            "timing" => f.timing = Some(r.value()?),
            "res" => f.res = Some(r.value()?),
            _ => r.skip()?,
        }
    }
    Ok(Some(f))
}

impl FcmFields {
    /// The node these fields describe and the host it names, checked in
    /// a fixed order: the name, the four attributes, then the timing.
    /// Every integer field must be a non-negative integer its type
    /// holds; a cast would load `-2.7` as 0 and `300` as a `u8` 44.
    fn into_node(self) -> Result<(SwNode, Option<String>), String> {
        let fname = self.name.ok_or_else(|| missing("fcms[].name"))?;
        let num = |x: Option<f64>, key: &str| {
            x.ok_or_else(|| format!("snapshot fcm \"{fname}\" missing \"{key}\""))
        };
        let int = |x: f64, key: &str, max: u64| {
            as_count(x).filter(|&v| v <= max).ok_or_else(|| {
                format!("snapshot fcm \"{fname}\" {key} {x} is not an integer from 0 to {max}")
            })
        };
        let small = |x: Option<f64>, key: &str| int(num(x, key)?, key, u8::MAX.into());
        let group = |x: Option<f64>, key: &str| x.map(|x| int(x, key, u32::MAX.into())).transpose();
        let crit = int(num(self.crit, "crit")?, "crit", u32::MAX.into())?;
        let mut attrs = AttributeSet::default()
            .with_criticality(crit as u32)
            .with_throughput(num(self.thr, "thr")?)
            .with_security(small(self.sec, "sec")? as u8)
            .with_fault_tolerance(fcm_core::FaultTolerance(small(self.ft, "ft")? as u8));
        if let Some(t) = self.timing.filter(|t| !matches!(t, Json::Null)) {
            let arr = t
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| missing("timing"))?;
            let g = |i: usize| {
                let x = arr[i].as_f64().ok_or_else(|| missing("timing"))?;
                as_count(x).ok_or_else(|| {
                    format!("snapshot fcm \"{fname}\" timing {x} is not a non-negative integer")
                })
            };
            attrs = attrs.with_timing(g(0)?, g(1)?, g(2)?);
        }
        let replica_group = group(self.rep, "rep")?;
        let separation_group = group(self.sep, "sep")?;
        let mut sw = SwNode::new(fname, attrs);
        sw.replica_group = replica_group.map(|x| x as u32);
        sw.separation_group = separation_group.map(|x| x as u32);
        sw.pinned_to = self.pin;
        if let Some(res) = self.res.as_ref().and_then(Json::as_array) {
            for tag in res.iter().filter_map(Json::as_str) {
                sw.required_resources.insert(tag.to_string());
            }
        }
        Ok((sw, self.host))
    }
}

/// The error for a state key that is absent or of the wrong type.
fn missing(key: &str) -> String {
    format!("snapshot state missing \"{key}\"")
}

/// `x` as a seq or a tally: `None` unless it is a non-negative integer
/// that a `u64` holds.
pub(crate) fn as_count(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64).then_some(x as u64)
}

/// The state's `edges` array as read: the `(from, to, weight)` triples
/// up to the first malformed edge, and whether there is one.
struct EdgesRead {
    triples: Vec<(f64, f64, f64)>,
    malformed: bool,
}

/// Reads the `edges` value: `None` when it is not an array. Only a
/// syntax error is returned as an error.
fn read_edges(r: &mut Reader<'_>) -> Result<Option<EdgesRead>, String> {
    if r.peek() != Some(b'[') {
        r.skip()?;
        return Ok(None);
    }
    let mut read = EdgesRead {
        triples: Vec::new(),
        malformed: false,
    };
    r.begin_array()?;
    while r.next_item()? {
        if read.malformed || r.peek() != Some(b'[') {
            r.skip()?;
            read.malformed = true;
            continue;
        }
        let mut t = [None; 3];
        let mut len = 0;
        r.begin_array()?;
        while r.next_item()? {
            let x = r.value()?.as_f64();
            if let Some(slot) = t.get_mut(len) {
                *slot = x;
            }
            len += 1;
        }
        match (len, t) {
            (3, [Some(f), Some(to), Some(w)]) => read.triples.push((f, to, w)),
            _ => read.malformed = true,
        }
    }
    Ok(Some(read))
}

/// A model's state at one seq, detached from the model: the edges
/// copied, and the rest rendered. The edges hold most of the state's
/// non-integral numbers, whose formatting is most of a render, and
/// copying them costs a fraction of rendering them. The daemon's writer
/// takes a cut under the read lock and its persistence thread streams
/// it ([`StateCut::stream`]) as the bytes of [`LiveModel::state_text`].
#[derive(Debug)]
pub struct StateCut {
    /// The rendered `contracts` member, empty while none is in use.
    contracts: String,
    edges: Vec<(usize, usize, f64)>,
    hosts_and_fcms: String,
    name: String,
    seq: u64,
    capacity: usize,
}

impl StateCut {
    /// The seq the cut was taken at.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// A byte estimate of the rendered state (see
    /// [`LiveModel::state_text`]).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Streams the state text of the model the cut was taken from,
    /// without copying the rendered sections: at the place of each,
    /// `buf` so far and then the section are handed to `emit`, and `buf`
    /// is cleared; the rest of the state is left in `buf`.
    pub fn stream(&self, buf: &mut String, emit: &mut dyn FnMut(&str)) {
        let emit = std::cell::RefCell::new(emit);
        let rendered = |buf: &mut String, section: &str| {
            let mut emit = emit.borrow_mut();
            emit(buf);
            buf.clear();
            emit(section);
        };
        write_state_parts(
            buf,
            |buf| rendered(buf, &self.contracts),
            self.edges.iter().copied(),
            |buf| rendered(buf, &self.hosts_and_fcms),
            None,
            &self.name,
            self.seq,
        );
    }
}

/// The state's `contracts` member and its separating comma. Contracts
/// ride along only once in use, so pre-contract snapshots and
/// contract-free sessions stay byte-identical.
fn write_contracts(out: &mut String, contracts: &ContractSet) {
    if !contracts.is_empty() {
        out.push_str("\"contracts\":");
        contracts.write_compact(out);
        out.push(',');
    }
}

/// An edge as the state's `edges` section holds it.
fn edge_triple(e: &Edge<SwEdge>) -> (usize, usize, f64) {
    (e.from.index(), e.to.index(), e.weight.influence())
}

/// The one definition of the state text's layout: the sections in the
/// sorted key order a [`Json`] object emits, `contracts` writing that
/// member ([`write_contracts`]), `hosts_and_fcms` the `failed`, `fcms`
/// and `full_condenses` members, and the derived `influence` member
/// only when given.
fn write_state_parts(
    out: &mut String,
    contracts: impl FnOnce(&mut String),
    edges: impl Iterator<Item = (usize, usize, f64)>,
    hosts_and_fcms: impl FnOnce(&mut String),
    influence: Option<&InfluenceMatrix>,
    name: &str,
    seq: u64,
) {
    out.push('{');
    contracts(out);
    out.push_str("\"edges\":");
    write_list(out, edges, |out, (from, to, weight)| {
        out.push('[');
        write_num(out, from as f64);
        out.push(',');
        write_num(out, to as f64);
        out.push(',');
        write_num(out, weight);
        out.push(']');
    });
    hosts_and_fcms(out);
    if let Some(influence) = influence {
        // Dense emits the array-of-rows; CSR emits the
        // `{"format":"csr",...}` object — both round-trip exactly.
        out.push_str(",\"influence\":");
        influence.write_state(out);
    }
    out.push_str(",\"model\":");
    write_escaped(out, name);
    out.push_str(",\"schema\":");
    write_escaped(out, STATE_SCHEMA);
    out.push_str(",\"seq\":");
    write_num(out, seq as f64);
    out.push('}');
}

/// Appends a JSON string, or `null` for `None`.
fn write_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_escaped(out, s),
        None => out.push_str("null"),
    }
}

/// Appends a JSON number, or `null` for `None`.
fn write_opt_num(out: &mut String, n: Option<u32>) {
    match n {
        Some(n) => write_num(out, f64::from(n)),
        None => out.push_str("null"),
    }
}

/// The name index and the name and criticality columns of `g`.
fn fcm_columns(g: &SwGraph) -> (BTreeMap<String, usize>, Vec<String>, Vec<u32>) {
    (
        g.nodes()
            .map(|(n, sw)| (sw.name.clone(), n.index()))
            .collect(),
        g.nodes().map(|(_, sw)| sw.name.clone()).collect(),
        g.nodes()
            .map(|(_, sw)| sw.attributes.criticality.0)
            .collect(),
    )
}

fn check_weight(w: f64) -> Result<(), String> {
    if w.is_finite() && w > 0.0 && w <= 1.0 {
        Ok(())
    } else {
        Err(format!("influence weight {w} outside (0, 1]"))
    }
}

#[cfg(test)]
#[path = "../tests/support/mutations.rs"]
mod mutations;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Mutation;
    use fcm_graph::{condense, CombineRule, Matrix};
    use fcm_substrate::Rng;
    use mutations::random_mutation;

    fn add(name: &str, crit: u32, influences: &[(&str, f64)]) -> Mutation {
        Mutation::AddFcm {
            name: name.to_string(),
            criticality: crit,
            throughput: 0.0,
            security: 0,
            timing: None,
            influences: influences
                .iter()
                .map(|&(n, w)| (n.to_string(), w))
                .collect(),
            influenced_by: Vec::new(),
            contract: None,
        }
    }

    fn full_recompute(g: &SwGraph) -> Matrix {
        let groups: Vec<Vec<NodeIdx>> = g.node_indices().map(|n| vec![n]).collect();
        condense(g, &groups, CombineRule::Probabilistic)
            .expect("partition")
            .influence_matrix()
    }

    #[test]
    fn models_start_fully_placed_with_one_full_condense() {
        for name in MODEL_NAMES {
            let m = LiveModel::new(name).expect("committed model builds");
            assert_eq!(m.full_condenses(), 1, "{name}");
            let host_of = m.placement.host_of();
            assert!(host_of.iter().all(Option::is_some), "{name} fully placed");
            assert_eq!(m.influence, full_recompute(&m.graph), "{name} matrix");
            // Replicas landed on distinct nodes.
            for a in 0..m.graph.node_count() {
                for b in a + 1..m.graph.node_count() {
                    if failover::separated(&m.graph, NodeIdx(a), NodeIdx(b)) {
                        assert_ne!(host_of[a], host_of[b], "{name}: {a} vs {b}");
                    }
                }
            }
        }
        assert!(LiveModel::new("nope").is_err());
    }

    #[test]
    fn add_and_remove_keep_the_matrix_bitwise_exact() {
        let mut m = LiveModel::new("paper").unwrap();
        m.apply(&add("x1", 2, &[("p2a", 0.4)])).unwrap();
        assert_eq!(m.influence, full_recompute(&m.graph));
        m.apply(&add("x2", 1, &[("x1", 0.9), ("p8", 0.05)]))
            .unwrap();
        assert_eq!(m.influence, full_recompute(&m.graph));
        m.apply(&Mutation::RemoveFcm {
            name: "x1".to_string(),
        })
        .unwrap();
        assert_eq!(m.influence, full_recompute(&m.graph));
        assert_eq!(m.full_condenses(), 1);
        assert_eq!(m.seq(), 3);
        // Removed name is gone, survivor reindexed consistently.
        assert!(m.fcm("x1").is_err());
        let x2 = m.fcm("x2").unwrap();
        assert_eq!(m.fcm_name(x2), "x2");
    }

    #[test]
    fn growth_past_the_policy_threshold_flips_the_matrix_to_csr() {
        let mut m = LiveModel::new("paper").unwrap();
        assert_eq!(m.influence.repr(), "dense", "committed model starts dense");
        // Grow a low-density fringe until the sparse policy fires
        // (n ≥ 64 at well under 5% density).
        let n0 = m.graph.node_count();
        for i in 0..(64 - n0) {
            m.apply(&add(&format!("w{i}"), 1, &[("p8", 0.01)])).unwrap();
        }
        assert_eq!(m.influence.repr(), "csr");
        assert_eq!(
            m.influence,
            full_recompute(&m.graph),
            "bitwise across the flip"
        );
        // Stats and dump surface the representation facts.
        let stats = m.query(&Query::Stats).unwrap();
        let info = stats.get("matrix").expect("stats.matrix");
        assert_eq!(info.get("repr").and_then(Json::as_str), Some("csr"));
        let nnz = info.get("nnz").and_then(Json::as_f64).unwrap();
        assert!(nnz >= 1.0);
        let density = info.get("density").and_then(Json::as_f64).unwrap();
        assert!(density > 0.0 && density <= 0.05);
        let dump = m.query(&Query::Dump).unwrap();
        assert_eq!(
            dump.get("matrix")
                .and_then(|x| x.get("repr"))
                .and_then(Json::as_str),
            Some("csr")
        );
        // Queries answer identically from the CSR engine.
        let q = m
            .query(&Query::Influence {
                from: "w0".to_string(),
                to: "p8".to_string(),
                order: 4,
            })
            .unwrap();
        let direct = q.get("direct").and_then(Json::as_f64).unwrap();
        assert!(
            (direct - 0.01).abs() < 1e-12,
            "Eq. 4 fold of the single edge"
        );
        // The snapshot round-trips through the CSR state form.
        let state = m.state_json();
        assert_eq!(
            state
                .get("influence")
                .and_then(|x| x.get("format"))
                .and_then(Json::as_str),
            Some("csr")
        );
        let restored = LiveModel::from_state(&state).unwrap();
        assert_eq!(restored.influence.repr(), "csr");
        assert_eq!(restored.influence, m.influence);
        assert_eq!(restored.state_json(), state);
        // Shrinking back below the threshold flips the matrix home.
        for i in 0..(64 - n0) {
            m.apply(&Mutation::RemoveFcm {
                name: format!("w{i}"),
            })
            .unwrap();
        }
        assert_eq!(m.influence.repr(), "dense");
        assert_eq!(m.influence, full_recompute(&m.graph));
    }

    #[test]
    fn rejected_mutations_leave_the_model_untouched() {
        let mut m = LiveModel::new("paper").unwrap();
        let before = m.state_text();
        assert!(m.apply(&add("p1a", 0, &[])).is_err()); // duplicate name
        assert!(m.apply(&add("y", 0, &[("p1a", 1.5)])).is_err()); // bad weight
        assert!(m.apply(&add("y", 0, &[("ghost", 0.5)])).is_err()); // unknown target
        assert!(m
            .apply(&Mutation::RemoveFcm {
                name: "ghost".to_string()
            })
            .is_err());
        assert!(m
            .apply(&Mutation::FailNode {
                node: "hw9".to_string()
            })
            .is_err());
        assert_eq!(m.state_text(), before);
        assert_eq!(m.seq(), 0);
    }

    #[test]
    fn fail_and_restore_round_trip_preserves_feasibility() {
        let mut m = LiveModel::new("paper").unwrap();
        let out = m
            .apply(&Mutation::FailNode {
                node: "hw0".to_string(),
            })
            .unwrap();
        assert!(out.get("failed").is_some());
        // Double-fail is rejected.
        assert!(m
            .apply(&Mutation::FailNode {
                node: "hw0".to_string()
            })
            .is_err());
        m.apply(&Mutation::RestoreNode {
            node: "hw0".to_string(),
        })
        .unwrap();
        assert!(m
            .apply(&Mutation::RestoreNode {
                node: "hw0".to_string()
            })
            .is_err());
        // Matrix was never touched by placement-only mutations.
        assert_eq!(m.influence, full_recompute(&m.graph));
        // Every replica pair still separated.
        for a in 0..m.graph.node_count() {
            for b in a + 1..m.graph.node_count() {
                let host_of = m.placement.host_of();
                if failover::separated(&m.graph, NodeIdx(a), NodeIdx(b)) && host_of[a].is_some() {
                    assert_ne!(host_of[a], host_of[b]);
                }
            }
        }
    }

    #[test]
    fn state_round_trips_byte_identically() {
        let mut m = LiveModel::new("avionics").unwrap();
        let anchor = m.fcm_name(0);
        m.apply(&add("monitor", 2, &[(anchor.as_str(), 0.2)]))
            .unwrap();
        m.apply(&Mutation::FailNode {
            node: "hw3".to_string(),
        })
        .unwrap();
        let state = m.state_json();
        let restored = LiveModel::from_state(&state).unwrap();
        assert_eq!(restored.state_json(), state);
        // And the restored model keeps evolving identically.
        let mut a = m.clone();
        let mut b = restored;
        a.apply(&add("z", 1, &[])).unwrap();
        b.apply(&add("z", 1, &[])).unwrap();
        assert_eq!(a.state_text(), b.state_text());
    }

    fn add_contracted(name: &str, crit: u32, influences: &[(&str, f64)], c: Contract) -> Mutation {
        match add(name, crit, influences) {
            Mutation::AddFcm {
                name,
                criticality,
                throughput,
                security,
                timing,
                influences,
                influenced_by,
                ..
            } => Mutation::AddFcm {
                name,
                criticality,
                throughput,
                security,
                timing,
                influences,
                influenced_by,
                contract: Some(c),
            },
            other => other,
        }
    }

    #[test]
    fn contract_lifecycle_gates_mutations_and_serves_certify() {
        let mut m = LiveModel::new("paper").unwrap();
        // No contracts loaded: certification is inert, never blocking.
        let idle = m.query(&Query::Certify).unwrap();
        assert_eq!(idle.get("certified"), Some(&Json::Bool(false)));
        assert_eq!(idle.get("contracts").and_then(Json::as_f64), Some(0.0));

        // A guarantee below the FCM's actual row sum rejects the add.
        let anchor = m.fcm_name(0);
        let before = m.state_text();
        let bad = add_contracted(
            "probe",
            3,
            &[(anchor.as_str(), 0.5)],
            Contract::new("probe", 0.1, 2.0, 1),
        );
        let err = m.apply(&bad).unwrap_err();
        assert!(err.contains("C017"), "{err}");
        assert_eq!(m.state_text(), before, "rejection left no trace");

        // A satisfiable contract is accepted; partial coverage warns
        // but neither errors nor certifies.
        let good = add_contracted(
            "probe",
            3,
            &[(anchor.as_str(), 0.5)],
            Contract::new("probe", 0.9, 9.0, 1),
        );
        m.apply(&good).unwrap();
        let cert = m.query(&Query::Certify).unwrap();
        assert_eq!(cert.get("certified"), Some(&Json::Bool(false)));
        assert_eq!(cert.get("errors").and_then(Json::as_f64), Some(0.0));
        assert!(cert.get("warnings").and_then(Json::as_f64).unwrap() > 0.0);
        let stats = m.query(&Query::Stats).unwrap();
        let block = stats
            .get("certified")
            .expect("stats carries the certified block");
        assert_eq!(block.get("contracts").and_then(Json::as_f64), Some(1.0));

        // Dropping the criticality below the contract floor is rejected
        // in place; a compliant edit passes and re-verifies only the
        // dirty row (the O(degree) path).
        let floor_break = Mutation::SetAttr {
            name: "probe".to_string(),
            criticality: Some(0),
            throughput: None,
            timing: None,
        };
        let err = m.apply(&floor_break).unwrap_err();
        assert!(err.contains("C020"), "{err}");
        m.apply(&Mutation::SetAttr {
            name: "probe".to_string(),
            criticality: Some(4),
            throughput: None,
            timing: None,
        })
        .unwrap();
        let cert = m.query(&Query::Certify).unwrap();
        assert_eq!(cert.get("dirty").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            cert.get("reused").and_then(Json::as_f64),
            Some(m.fcm_count() as f64 - 1.0)
        );

        // Snapshots carry the contracts and re-certify on load.
        let state = m.state_json();
        assert!(state.get("contracts").is_some());
        let restored = LiveModel::from_state(&state).unwrap();
        assert_eq!(restored.state_json(), state);
        assert_eq!(
            restored.query(&Query::Certify).unwrap().get("warnings"),
            m.query(&Query::Certify).unwrap().get("warnings"),
        );

        // The FCM's contract leaves with it; certification goes inert.
        m.apply(&Mutation::RemoveFcm {
            name: "probe".to_string(),
        })
        .unwrap();
        let after = m.query(&Query::Certify).unwrap();
        assert_eq!(after.get("contracts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(after.get("certified"), Some(&Json::Bool(false)));
        assert!(m.state_json().get("contracts").is_none());
    }

    #[test]
    fn a_rejected_removal_splices_the_matrix_back() {
        // A cap naming `x` would dangle once `x` left, so the contract
        // gate rejects the removal after the matrix lost row and column
        // `x`: on the dense paper model and past the CSR flip.
        let mut m = LiveModel::new("paper").unwrap();
        for round in 0..2 {
            let (x, y) = (format!("x{round}"), format!("y{round}"));
            let guarded = Contract::new(y.as_str(), 0.9, 9.0, 0).with_cap(x.as_str(), 0.5);
            m.apply(&add_contracted(
                &x,
                1,
                &[("p8", 0.2)],
                Contract::new(x.as_str(), 0.9, 9.0, 0),
            ))
            .unwrap();
            m.apply(&add_contracted(&y, 1, &[(x.as_str(), 0.3)], guarded))
                .unwrap();
            let before = m.state_json();
            let err = m
                .apply(&Mutation::RemoveFcm { name: x.clone() })
                .unwrap_err();
            assert!(err.starts_with("contracts rejected remove_fcm"), "{err}");
            assert_eq!(m.state_json(), before, "{}", m.influence.repr());
            assert_eq!(m.influence, full_recompute(&m.graph));
            for i in 0..64 {
                m.apply(&add(&format!("w{round}_{i}"), 1, &[("p8", 0.01)]))
                    .unwrap();
            }
        }
        assert_eq!(m.influence.repr(), "csr", "the second round ran on CSR");
    }

    #[test]
    fn queries_answer_on_the_paper_model() {
        let m = LiveModel::new("paper").unwrap();
        let inf = m
            .query(&Query::Influence {
                from: "p4".to_string(),
                to: "p5".to_string(),
                order: 4,
            })
            .unwrap();
        let direct = inf.get("direct").and_then(Json::as_f64).unwrap();
        let transitive = inf.get("transitive").and_then(Json::as_f64).unwrap();
        assert!(direct >= 0.0 && transitive >= direct - 1e-12);
        let sep = m
            .query(&Query::Separation {
                from: "p4".to_string(),
                to: "p5".to_string(),
                order: 4,
            })
            .unwrap();
        let s = sep.get("separation").and_then(Json::as_f64).unwrap();
        assert!((s - (1.0 - transitive)).abs() < 1e-15);
        let stats = m.query(&Query::Stats).unwrap();
        assert_eq!(
            stats.get("full_condenses").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(stats.get("unhosted").and_then(Json::as_f64), Some(0.0));
        let check = m.query(&Query::Check).unwrap();
        assert_eq!(check.get("errors").and_then(Json::as_f64), Some(0.0));
        assert_eq!(check.get("scope").and_then(Json::as_str), Some("placed"));
        assert!(m
            .query(&Query::Influence {
                from: "ghost".to_string(),
                to: "p5".to_string(),
                order: 4
            })
            .is_err());
    }

    #[test]
    fn propose_placement_matches_applied_fail_node() {
        let m = LiveModel::new("paper").unwrap();
        let proposal = m
            .query(&Query::ProposePlacement {
                node: "hw1".to_string(),
            })
            .unwrap();
        let mut applied = m.clone();
        let out = applied
            .apply(&Mutation::FailNode {
                node: "hw1".to_string(),
            })
            .unwrap();
        // Same scoring on both paths: identical destinations and sheds.
        assert_eq!(proposal.get("moved"), out.get("moved"));
        assert_eq!(proposal.get("shed"), out.get("shed"));
        assert_eq!(proposal.get("degraded"), out.get("degraded"));
    }

    #[test]
    fn admit_probe_is_consistent_with_placement() {
        let m = LiveModel::new("paper").unwrap();
        let free = m
            .query(&Query::Admit {
                node: "hw0".to_string(),
                timing: None,
                throughput: 0.0,
            })
            .unwrap();
        assert_eq!(free.get("admit"), Some(&Json::Bool(true)));
        let mut failed = m.clone();
        failed
            .apply(&Mutation::FailNode {
                node: "hw0".to_string(),
            })
            .unwrap();
        let dead = failed
            .query(&Query::Admit {
                node: "hw0".to_string(),
                timing: None,
                throughput: 0.0,
            })
            .unwrap();
        assert_eq!(dead.get("admit"), Some(&Json::Bool(false)));
    }

    #[test]
    fn set_attr_guards_edf_feasibility() {
        let mut m = LiveModel::new("paper").unwrap();
        // An impossible window is rejected and leaves state untouched.
        let before = m.state_text();
        let err = m.apply(&Mutation::SetAttr {
            name: "p8".to_string(),
            criticality: None,
            throughput: None,
            timing: Some(Some((0, 1, 5))),
        });
        assert!(err.is_err());
        assert_eq!(m.state_text(), before);
        // A criticality tweak goes through.
        m.apply(&Mutation::SetAttr {
            name: "p8".to_string(),
            criticality: Some(2),
            throughput: None,
            timing: None,
        })
        .unwrap();
        let p8 = m.graph.node(NodeIdx(m.fcm("p8").unwrap())).unwrap();
        assert_eq!(p8.attributes.criticality.0, 2);
    }

    fn fail(node: &str) -> Mutation {
        Mutation::FailNode {
            node: node.to_string(),
        }
    }

    #[test]
    fn fail_node_sheds_and_displaces_or_rejects_whole() {
        // Three failures on `paper` exhaust the room for protected
        // load: p7 is shed and the protected victims land on survivors.
        let mut m = LiveModel::new("paper").unwrap();
        m.apply(&fail("hw2")).unwrap();
        m.apply(&fail("hw3")).unwrap();
        let out = m.apply(&fail("hw0")).unwrap();
        assert_eq!(
            out.to_string_compact(),
            r#"{"degraded":true,"failed":"hw0","moved":[["p1a","hw4"],["p3b","hw4"],["p6","hw5"]],"seq":3,"shed":["p7"]}"#
        );
        // A protected victim that fits nowhere rejects the whole
        // failover and leaves the state byte-unchanged.
        let mut m = LiveModel::new("avionics").unwrap();
        let before = m.state_text();
        assert_eq!(
            m.apply(&fail("hw0")).unwrap_err(),
            r#"fail_node rejected: no feasible placement for protected "display""#
        );
        assert_eq!(m.state_text(), before);
    }

    #[test]
    fn from_state_rejects_an_fcm_hosted_on_a_failed_node() {
        let mut m = LiveModel::new("paper").unwrap();
        m.apply(&fail("hw0")).unwrap();
        let text = m.state_text();
        // Hand-edit the first hosted FCM onto the failed node: no
        // mutation sequence reaches this state.
        let v = m
            .placement
            .host_of()
            .iter()
            .position(Option::is_some)
            .unwrap();
        let key = r#""host":""#;
        let at = text.find(key).unwrap() + key.len();
        let end = at + text[at..].find('"').unwrap();
        let edited = format!("{}hw0{}", &text[..at], &text[end..]);
        assert_eq!(
            LiveModel::from_state(&Json::parse(&edited).unwrap()).unwrap_err(),
            format!(
                "snapshot fcm \"{}\" hosted on failed hw \"hw0\"",
                m.fcm_name(v)
            )
        );
        // The unedited state still loads.
        assert!(LiveModel::from_state(&Json::parse(&text).unwrap()).is_ok());
    }

    /// `m`'s state with FCM `fcm`'s entry edited, loaded back.
    fn load_edited(
        m: &LiveModel,
        fcm: &str,
        edit: impl FnOnce(Json) -> Json,
    ) -> Result<LiveModel, String> {
        let state = m.state_json();
        let mut edit = Some(edit);
        let fcms: Vec<Json> = state
            .get("fcms")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(
                |f| match f.get("name").and_then(Json::as_str) == Some(fcm) {
                    true => edit.take().expect("one entry per name")(f.clone()),
                    false => f.clone(),
                },
            )
            .collect();
        assert!(edit.is_none(), "no fcm {fcm}");
        LiveModel::from_state(&state.set("fcms", Json::Arr(fcms)))
    }

    #[test]
    fn from_state_rejects_a_state_that_breaks_a_hard_constraint() {
        let paper = LiveModel::new("paper").unwrap();
        let host = |m: &LiveModel, fcm: &str| {
            m.hw_name(m.placement.host_of()[m.fcm(fcm).unwrap()].unwrap())
        };
        // Two replicas co-hosted.
        let at = host(&paper, "p1a");
        assert_eq!(
            load_edited(&paper, "p1b", |f| f.set("host", at.as_str())).unwrap_err(),
            format!(
                r#"snapshot fcm "p1b" on hw "{at}" breaks the separation constraint: it shares the node with "p1a""#
            )
        );
        // An FCM off its pin.
        let p8 = host(&paper, "p8");
        let elsewhere = if p8 == "hw0" { "hw1" } else { "hw0" };
        assert_eq!(
            load_edited(&paper, "p8", |f| f.set("pin", elsewhere)).unwrap_err(),
            format!(
                r#"snapshot fcm "p8" on hw "{p8}" breaks the pin constraint: it is pinned to "{elsewhere}""#
            )
        );
        // A required resource its host lacks.
        let avionics = LiveModel::new("avionics").unwrap();
        assert_eq!(host(&avionics, "display"), "hw0");
        assert_eq!(
            load_edited(&avionics, "display", |f| f.set("host", "hw2")).unwrap_err(),
            r#"snapshot fcm "display" on hw "hw2" breaks the resource constraint: it requires "display""#
        );
        // A timing window the pre-flight gate rejects.
        let err = load_edited(&paper, "p8", |f| {
            f.set(
                "timing",
                Json::array([Json::from(0u64), Json::from(3u64), Json::from(9u64)]),
            )
        })
        .unwrap_err();
        assert!(
            err.starts_with("snapshot rejected by preflight: error[C014]"),
            "{err}"
        );
        // Capacity is unbounded on both committed platforms; `Placement::new`
        // refuses an over-capacity host in its own unit tests. The unedited
        // states load.
        assert!(load_edited(&paper, "p8", |f| f).is_ok());
        assert!(load_edited(&avionics, "display", |f| f).is_ok());
    }

    #[test]
    fn check_reports_a_placement_that_forms_no_clustering() {
        let m = LiveModel::new("paper").unwrap();
        let why = AllocError::ReplicaConflict {
            a: "p1a".to_string(),
            b: "p1b".to_string(),
        };
        let report = fcm_check::gates::check_unclustered_placement(&m.graph, &why);
        assert_eq!(
            report.error_lines(),
            "error[C012] mapping: the placement does not form a valid clustering: replicas p1a and p1b cannot be combined or co-located"
        );
    }

    /// The live placement equals the one rebuilt from `host_of`
    /// (members and admitted jobs; throughput within 1e-9 relative),
    /// and failing any HW node live gives the same outcome as
    /// `failover::remap` on the placed view.
    fn assert_matches_from_scratch_twin(m: &LiveModel, step: usize) {
        let live = &m.placement;
        let twin = Placement::new(
            &m.graph,
            &m.hw,
            live.host_of().to_vec(),
            live.down().clone(),
        )
        .unwrap();
        for h in (0..m.hw.len()).map(NodeIdx) {
            let members = |p: &Placement| {
                let mut v = p.members(h).to_vec();
                v.sort_unstable();
                v
            };
            assert_eq!(members(live), members(&twin), "step {step}: {h:?} members");
            let jobs = |p: &Placement| {
                let mut j: Vec<(JobId, u64, u64, u64)> = p
                    .admission(h)
                    .jobs()
                    .iter()
                    .map(|j| (j.id, j.est, j.tcd, j.ct))
                    .collect();
                j.sort_unstable();
                j
            };
            assert_eq!(jobs(live), jobs(&twin), "step {step}: {h:?} jobs");
            let (a, b) = (live.throughput(h), twin.throughput(h));
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                "step {step}: {h:?} throughput {a} vs {b}"
            );
        }
        let (clustering, mapping) = m
            .placed_view()
            .expect("hosts form clusters")
            .expect("fully placed");
        for h in (0..m.hw.len()).map(NodeIdx) {
            let applied = m.clone().apply(&fail(&m.hw_name(h)));
            let remapped = failover::remap(&m.graph, &clustering, &mapping, &m.hw, h, m.shed);
            match (applied, remapped) {
                (Ok(out), Ok(r)) => {
                    let moved = Json::array(r.placement.iter().filter_map(|&(v, dest)| {
                        dest.map(|d| {
                            Json::array([
                                Json::from(m.fcm_name(v.index())),
                                Json::from(m.hw_name(d)),
                            ])
                        })
                    }));
                    let shed =
                        Json::array(r.shed.iter().map(|&v| Json::from(m.fcm_name(v.index()))));
                    assert_eq!(out.get("moved"), Some(&moved), "step {step}: {h:?} moved");
                    assert_eq!(out.get("shed"), Some(&shed), "step {step}: {h:?} shed");
                    assert_eq!(
                        out.get("degraded"),
                        Some(&Json::Bool(r.degraded)),
                        "step {step}: {h:?} degraded"
                    );
                }
                (Err(_), Err(_)) => {}
                (live, remap) => panic!("step {step}: {h:?} live {live:?} vs remap {remap:?}"),
            }
        }
    }

    #[test]
    fn live_placement_matches_its_from_scratch_twin() {
        for (model, seed) in [("paper", 0x91ace_u64), ("avionics", 0xa710)] {
            let mut m = LiveModel::new(model).unwrap();
            let mut rng = Rng::seed_from_u64(seed);
            let mut pool: Vec<String> = (0..m.fcm_count()).map(|v| m.fcm_name(v)).collect();
            let mut fresh = 0;
            let mut accepted = 0;
            assert_matches_from_scratch_twin(&m, 0);
            for step in 1..=200 {
                let mutation = random_mutation(&mut rng, &pool, &mut fresh);
                if matches!(
                    mutation,
                    Mutation::FailNode { .. } | Mutation::RestoreNode { .. }
                ) || m.apply(&mutation).is_err()
                {
                    continue;
                }
                match &mutation {
                    Mutation::AddFcm { name, .. } => pool.push(name.clone()),
                    Mutation::RemoveFcm { name } => pool.retain(|n| n != name),
                    _ => {}
                }
                accepted += 1;
                assert_matches_from_scratch_twin(&m, step);
            }
            assert!(accepted >= 40, "{model}: only {accepted} accepted");
        }
    }

    #[test]
    fn the_streamed_dump_line_is_the_rendered_dump_tree() {
        for (model, seed) in [("paper", 0xd0_u64), ("avionics", 0xd1)] {
            let mut m = LiveModel::new(model).unwrap();
            let mut rng = Rng::seed_from_u64(seed);
            let mut pool: Vec<String> = (0..m.fcm_count()).map(|v| m.fcm_name(v)).collect();
            let mut fresh = 0;
            for step in 0..120 {
                let mutation = random_mutation(&mut rng, &pool, &mut fresh);
                if m.apply(&mutation).is_ok() {
                    match &mutation {
                        Mutation::AddFcm { name, .. } => pool.push(name.clone()),
                        Mutation::RemoveFcm { name } => pool.retain(|n| n != name),
                        _ => {}
                    }
                }
                if step % 10 != 0 {
                    continue;
                }
                let tree = m.query(&Query::Dump);
                for id in [None, Some(Json::from(7u64)), Some(Json::from("d\"1"))] {
                    let streamed =
                        crate::proto::render_dump(id.as_ref(), &m.matrix_info(), |out| {
                            m.write_state(out, true);
                        });
                    assert_eq!(
                        streamed,
                        crate::proto::render_response(id.as_ref(), &tree),
                        "{model} step {step}"
                    );
                }
            }
            assert!(
                !m.contracts.is_empty(),
                "{model}: the walk loaded contracts"
            );
        }
    }
}
