//! The analyzable system model: raw views over every design artefact.
//!
//! The construction APIs in `fcm-core` and `fcm-alloc` enforce their
//! invariants *by construction* — an [`FcmHierarchy`] cannot hold a
//! level-skipping edge, a [`Clustering`] rejects replica conflicts. A
//! static analyzer is only useful if it can also *represent* broken
//! models (imported from a design tool, hand-edited, drifted across
//! refactors), so [`SystemModel`] is built from plain-data **views**:
//! every field is public, nothing is validated on construction, and all
//! judgement is deferred to the rule catalog in [`crate::rules`].
//!
//! Views are extracted from the real types ([`HierarchyView::from`] an
//! `&FcmHierarchy`, [`RecoveryView`] from a recovery spec's fields) or
//! assembled directly in tests to describe a deliberately broken model.

use fcm_alloc::{Clustering, HwGraph, Mapping, ShedPolicy, SwGraph};
use fcm_core::{FcmHierarchy, HierarchyLevel};
use fcm_graph::{InfluenceMatrix, Matrix};

use crate::contract::ContractSet;

/// One FCM as the analyzer sees it: plain data, no invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcmNodeView {
    /// Identifier (the arena index of the source hierarchy).
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Ladder rank: 0 = procedure (leaf), 1 = task, 2 = process.
    pub rank: usize,
    /// Declared parent, if any.
    pub parent: Option<u64>,
    /// Declared children.
    pub children: Vec<u64>,
    /// Criticality attribute (for the monotonicity rule).
    pub criticality: u32,
}

/// The rank-to-name mapping used in model paths (`hierarchy/task[7]`).
#[must_use]
pub fn level_name(rank: usize) -> String {
    match rank {
        0 => "procedure".to_string(),
        1 => "task".to_string(),
        2 => "process".to_string(),
        r => format!("level{r}"),
    }
}

/// A whole FCM tree (or forest) as plain data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyView {
    /// Every FCM, in id order.
    pub nodes: Vec<FcmNodeView>,
}

impl HierarchyView {
    /// Looks a node up by id.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<&FcmNodeView> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The model path of node `id`, e.g. `hierarchy/task[7]`. Unknown
    /// ids render as `hierarchy/fcm[id]`.
    #[must_use]
    pub fn path_of(&self, id: u64) -> String {
        match self.find(id) {
            Some(n) => format!("hierarchy/{}[{}]", level_name(n.rank), id),
            None => format!("hierarchy/fcm[{id}]"),
        }
    }

    /// The top rank present (roots should live there).
    #[must_use]
    pub fn top_rank(&self) -> usize {
        self.nodes.iter().map(|n| n.rank).max().unwrap_or(0)
    }
}

impl From<&FcmHierarchy> for HierarchyView {
    fn from(h: &FcmHierarchy) -> HierarchyView {
        let nodes = h
            .iter()
            .map(|f| FcmNodeView {
                id: f.id().0,
                name: f.name().to_string(),
                rank: match f.level() {
                    HierarchyLevel::Procedure => 0,
                    HierarchyLevel::Task => 1,
                    HierarchyLevel::Process => 2,
                },
                parent: f.parent().map(|p| p.0),
                children: f.children().iter().map(|c| c.0).collect(),
                criticality: f.attributes().criticality.0,
            })
            .collect();
        HierarchyView { nodes }
    }
}

/// A declared R5 retest plan for one modified FCM: retesting `modified`
/// must cover its parent interface and every sibling interface. Plans
/// drift when the tree is edited without regenerating them — exactly
/// what rule C007 catches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetestView {
    /// The FCM assumed modified.
    pub modified: u64,
    /// The declared parent interface to retest.
    pub parent: Option<u64>,
    /// The declared sibling interfaces to retest.
    pub siblings: Vec<u64>,
}

/// One Eq. 1 fault-influence factor triple, unvalidated.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorView {
    /// Source FCM name.
    pub from: String,
    /// Target FCM name.
    pub to: String,
    /// `p_k1`: fault-occurrence probability.
    pub occurrence: f64,
    /// `p_k2`: fault-transmission probability.
    pub transmission: f64,
    /// `p_k3`: fault-manifestation probability.
    pub manifestation: f64,
}

impl FactorView {
    /// Eq. 1: `p_k = p_k1 · p_k2 · p_k3`.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.occurrence * self.transmission * self.manifestation
    }
}

/// The node-failure recovery parameters, unvalidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryView {
    /// Watchdog heartbeat period (0 = broken: nothing is ever detected).
    pub heartbeat_period: u64,
    /// Latency from the detecting heartbeat to the detection event.
    pub detection_latency: u64,
    /// Retry budget per killed job.
    pub max_retries: u32,
    /// Base backoff delay (0 with retries = busy-loop restart).
    pub backoff_base: u64,
    /// Checkpoint interval (0 = restarts lose all progress).
    pub checkpoint_every: u64,
}

/// A complete (or partial) system model to analyse.
///
/// Every part is optional: rules skip what is absent, so the same
/// catalog serves a full experiment workload, a graph-only pre-flight
/// gate, or a hierarchy-only design review.
#[derive(Debug, Clone, Default)]
pub struct SystemModel {
    /// Display name (used in reports).
    pub name: String,
    /// The FCM tree.
    pub hierarchy: Option<HierarchyView>,
    /// Declared R5 retest plans.
    pub retest: Vec<RetestView>,
    /// Eq. 1 factor triples.
    pub factors: Vec<FactorView>,
    /// The stated node-level influence matrix (dense or CSR — the
    /// C009/C010/C011 checks are representation-aware).
    pub influence: Option<InfluenceMatrix>,
    /// The SW graph (expanded, replica-tagged).
    pub sw: Option<SwGraph>,
    /// The clustering of the SW graph.
    pub clustering: Option<Clustering>,
    /// The cluster → HW assignment.
    pub mapping: Option<Mapping>,
    /// The HW platform.
    pub hw: Option<HwGraph>,
    /// Recovery parameters.
    pub recovery: Option<RecoveryView>,
    /// Degraded-mode shed policy.
    pub shed: Option<ShedPolicy>,
    /// Per-FCM rely-guarantee contracts (the C017–C022 family).
    pub contracts: Option<ContractSet>,
}

impl SystemModel {
    /// An empty model named `name`.
    pub fn new(name: impl Into<String>) -> SystemModel {
        SystemModel {
            name: name.into(),
            ..SystemModel::default()
        }
    }

    /// Attaches a hierarchy view extracted from a real tree.
    #[must_use]
    pub fn with_hierarchy(mut self, h: &FcmHierarchy) -> SystemModel {
        self.hierarchy = Some(HierarchyView::from(h));
        self
    }

    /// Declares retest plans consistent with the current hierarchy view
    /// (one per non-root node). Tests mutate these to model plan drift.
    #[must_use]
    pub fn with_retest_from_view(mut self) -> SystemModel {
        if let Some(view) = &self.hierarchy {
            self.retest = view
                .nodes
                .iter()
                .filter_map(|n| {
                    let p = view.find(n.parent?)?;
                    Some(RetestView {
                        modified: n.id,
                        parent: Some(p.id),
                        siblings: p.children.iter().copied().filter(|&c| c != n.id).collect(),
                    })
                })
                .collect();
        }
        self
    }

    /// Attaches Eq. 1 factor triples.
    #[must_use]
    pub fn with_factors(mut self, factors: Vec<FactorView>) -> SystemModel {
        self.factors = factors;
        self
    }

    /// Attaches a stated dense influence matrix, kept dense so the
    /// diagnostics scan every entry exactly as before.
    #[must_use]
    pub fn with_influence(mut self, m: Matrix) -> SystemModel {
        self.influence = Some(InfluenceMatrix::Dense(m));
        self
    }

    /// Attaches a stated influence matrix in either representation —
    /// large sparse fleets hand the checker their CSR form directly.
    #[must_use]
    pub fn with_influence_matrix(mut self, m: InfluenceMatrix) -> SystemModel {
        self.influence = Some(m);
        self
    }

    /// Attaches the SW graph.
    #[must_use]
    pub fn with_sw(mut self, g: SwGraph) -> SystemModel {
        self.sw = Some(g);
        self
    }

    /// Attaches the clustering.
    #[must_use]
    pub fn with_clustering(mut self, c: Clustering) -> SystemModel {
        self.clustering = Some(c);
        self
    }

    /// Attaches the mapping and its HW platform.
    #[must_use]
    pub fn with_mapping(mut self, m: Mapping, hw: HwGraph) -> SystemModel {
        self.mapping = Some(m);
        self.hw = Some(hw);
        self
    }

    /// Attaches recovery parameters.
    #[must_use]
    pub fn with_recovery(mut self, r: RecoveryView) -> SystemModel {
        self.recovery = Some(r);
        self
    }

    /// Attaches the shed policy.
    #[must_use]
    pub fn with_shed(mut self, s: ShedPolicy) -> SystemModel {
        self.shed = Some(s);
        self
    }

    /// Attaches per-FCM rely-guarantee contracts.
    #[must_use]
    pub fn with_contracts(mut self, c: ContractSet) -> SystemModel {
        self.contracts = Some(c);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_core::AttributeSet;

    #[test]
    fn view_extraction_preserves_links_and_ranks() {
        let mut h = FcmHierarchy::new();
        let p = h
            .add_root(
                "p1",
                HierarchyLevel::Process,
                AttributeSet::default().with_criticality(7),
            )
            .unwrap();
        let t = h
            .add_child(p, "t1", AttributeSet::default().with_criticality(7))
            .unwrap();
        let view = HierarchyView::from(&h);
        assert_eq!(view.nodes.len(), 2);
        let pv = view.find(p.0).unwrap();
        let tv = view.find(t.0).unwrap();
        assert_eq!(pv.rank, 2);
        assert_eq!(tv.rank, 1);
        assert_eq!(tv.parent, Some(p.0));
        assert_eq!(pv.children, vec![t.0]);
        assert_eq!(pv.criticality, 7);
        assert_eq!(view.path_of(t.0), format!("hierarchy/task[{}]", t.0));
    }

    #[test]
    fn retest_from_view_lists_parent_and_siblings() {
        let mut h = FcmHierarchy::new();
        let p = h
            .add_root("p", HierarchyLevel::Process, AttributeSet::default())
            .unwrap();
        let a = h.add_child(p, "a", AttributeSet::default()).unwrap();
        let b = h.add_child(p, "b", AttributeSet::default()).unwrap();
        let m = SystemModel::new("m")
            .with_hierarchy(&h)
            .with_retest_from_view();
        let ra = m.retest.iter().find(|r| r.modified == a.0).unwrap();
        assert_eq!(ra.parent, Some(p.0));
        assert_eq!(ra.siblings, vec![b.0]);
    }
}
