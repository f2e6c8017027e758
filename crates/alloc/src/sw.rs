//! The SW graph of process-level FCMs (paper §5.1).
//!
//! "For SW, a weighted directed graph of process FCMs is created … Nodes
//! are the FCMs, with unidirectional edges weighted by influence. Replicas
//! are connected by edges of weight 0; there is no edge in any other case
//! of non-influence. Each node has an associated list of attributes."

use std::collections::BTreeSet;
use std::fmt;

use fcm_core::{AttributeSet, ImportanceWeights};
use fcm_graph::{DiGraph, NodeIdx};

use crate::error::AllocError;

/// A node of the SW graph: one process-level FCM (possibly a replica, and
/// after clustering, possibly a set of merged processes).
#[derive(Debug, Clone, PartialEq)]
pub struct SwNode {
    /// Display name, e.g. `"p1"` or `"p1a"` for a replica.
    pub name: String,
    /// Combined attribute vector.
    pub attributes: AttributeSet,
    /// Replica-group tag: replicas of one module share a tag and may
    /// never be combined or co-located.
    pub replica_group: Option<u32>,
    /// Resource tags this process needs on its host processor (the
    /// paper's "need for a resource present on only one processor").
    pub required_resources: BTreeSet<String>,
    /// Pin to a specific HW node by name — the paper's §4.3: attributes
    /// can "require a particular SW FCM to be mapped onto a specific HW
    /// module". `None` = free placement.
    pub pinned_to: Option<String>,
    /// Anti-affinity tag — the paper's §4.3: attributes can "forbid
    /// certain FCMs being combined". Nodes sharing a tag may never share
    /// a cluster (unlike replica groups they carry no shared-module
    /// semantics for reliability).
    pub separation_group: Option<u32>,
}

impl SwNode {
    /// Creates a plain (non-replica) node.
    pub fn new(name: impl Into<String>, attributes: AttributeSet) -> Self {
        SwNode {
            name: name.into(),
            attributes,
            replica_group: None,
            required_resources: BTreeSet::new(),
            pinned_to: None,
            separation_group: None,
        }
    }

    /// The §5.1 importance: a weighted sum of the attribute values.
    pub fn importance(&self, weights: &ImportanceWeights) -> f64 {
        self.attributes.importance(weights)
    }

    /// Whether `self` and `other` are replicas of the same module.
    pub fn is_replica_of(&self, other: &SwNode) -> bool {
        matches!((self.replica_group, other.replica_group), (Some(a), Some(b)) if a == b)
    }

    /// Whether `self` and `other` may never share a cluster: replicas of
    /// one module, or members of one anti-affinity separation group.
    pub fn must_separate_from(&self, other: &SwNode) -> bool {
        self.is_replica_of(other)
            || matches!(
                (self.separation_group, other.separation_group),
                (Some(a), Some(b)) if a == b
            )
    }
}

impl fmt::Display for SwNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// An edge of the SW graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwEdge {
    /// Directed influence in `(0, 1]`.
    Influence(f64),
    /// The 0-weight link between two replicas of one module.
    ReplicaLink,
}

impl SwEdge {
    /// The influence value (0 for a replica link), used wherever the graph
    /// algorithms need a numeric weight.
    pub fn influence(self) -> f64 {
        match self {
            SwEdge::Influence(v) => v,
            SwEdge::ReplicaLink => 0.0,
        }
    }
}

impl From<SwEdge> for f64 {
    fn from(e: SwEdge) -> f64 {
        e.influence()
    }
}

impl fmt::Display for SwEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwEdge::Influence(v) => write!(f, "{v}"),
            SwEdge::ReplicaLink => f.write_str("0 (replica)"),
        }
    }
}

/// The SW graph: a directed influence graph over [`SwNode`]s.
pub type SwGraph = DiGraph<SwNode, SwEdge>;

/// Builder for SW graphs with validation of influence values.
///
/// # Example
///
/// ```
/// use fcm_alloc::sw::SwGraphBuilder;
/// use fcm_core::AttributeSet;
///
/// let mut b = SwGraphBuilder::new();
/// let p1 = b.add_process("p1", AttributeSet::default().with_criticality(10));
/// let p2 = b.add_process("p2", AttributeSet::default().with_criticality(8));
/// b.add_influence(p1, p2, 0.5)?;
/// b.add_influence(p2, p1, 0.7)?;
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert!((g.mutual_weight(p1, p2) - 1.2).abs() < 1e-12);
/// # Ok::<(), fcm_alloc::AllocError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwGraphBuilder {
    graph: SwGraph,
    next_replica_group: u32,
    next_separation_group: u32,
}

impl SwGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SwGraphBuilder::default()
    }

    /// Adds a process node.
    pub fn add_process(&mut self, name: impl Into<String>, attributes: AttributeSet) -> NodeIdx {
        self.graph.add_node(SwNode::new(name, attributes))
    }

    /// Adds a directed influence edge.
    ///
    /// # Errors
    ///
    /// * [`AllocError::InvalidInfluence`] — `influence` outside `(0, 1]`
    ///   (weight 0 is reserved for replica links);
    /// * [`AllocError::Graph`] — invalid endpoints.
    pub fn add_influence(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        influence: f64,
    ) -> Result<(), AllocError> {
        if influence.is_nan() || influence <= 0.0 || influence > 1.0 {
            return Err(AllocError::InvalidInfluence { value: influence });
        }
        self.graph
            .try_add_edge(from, to, SwEdge::Influence(influence))?;
        Ok(())
    }

    /// Adds a directed influence edge computed from fault factors via the
    /// paper's Eq. 1 + Eq. 2 — the intended workflow once factor
    /// probabilities have been measured (e.g. by `fcm-sim` campaigns).
    /// No edge is added when the combined influence is zero ("there is no
    /// edge in any other case of non-influence").
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Graph`] for invalid endpoints.
    pub fn add_influence_from_factors(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        factors: &[fcm_core::FaultFactor],
    ) -> Result<Option<f64>, AllocError> {
        let influence = fcm_core::Influence::from_factors(factors).value();
        if influence <= 0.0 {
            // Validate the endpoints anyway so errors do not depend on
            // the factor values.
            if self.graph.node(from).is_none() {
                return Err(AllocError::UnknownSwNode {
                    index: from.index(),
                });
            }
            if self.graph.node(to).is_none() {
                return Err(AllocError::UnknownSwNode { index: to.index() });
            }
            return Ok(None);
        }
        self.add_influence(from, to, influence)?;
        Ok(Some(influence))
    }

    /// Marks a set of nodes as replicas of one module: tags them with a
    /// fresh replica group and links each pair with a 0-weight
    /// [`SwEdge::ReplicaLink`] (both directions, matching the paper's
    /// figures).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownSwNode`] for an invalid index.
    pub fn mark_replicas(&mut self, nodes: &[NodeIdx]) -> Result<u32, AllocError> {
        for &n in nodes {
            if self.graph.node(n).is_none() {
                return Err(AllocError::UnknownSwNode { index: n.index() });
            }
        }
        let group = self.next_replica_group;
        self.next_replica_group += 1;
        for &n in nodes {
            self.graph
                .node_mut(n)
                .expect("validated above")
                .replica_group = Some(group);
        }
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.graph.add_edge(a, b, SwEdge::ReplicaLink);
                self.graph.add_edge(b, a, SwEdge::ReplicaLink);
            }
        }
        Ok(group)
    }

    /// Forbids the given nodes from ever sharing a cluster (a fresh
    /// anti-affinity separation group) — §4.3's "forbid certain FCMs
    /// being combined". Unlike [`SwGraphBuilder::mark_replicas`] this
    /// adds no 0-weight edges and no shared-module semantics.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownSwNode`] for an invalid index.
    pub fn forbid_colocation(&mut self, nodes: &[NodeIdx]) -> Result<u32, AllocError> {
        for &n in nodes {
            if self.graph.node(n).is_none() {
                return Err(AllocError::UnknownSwNode { index: n.index() });
            }
        }
        let group = self.next_separation_group;
        self.next_separation_group += 1;
        for &n in nodes {
            self.graph
                .node_mut(n)
                .expect("validated above")
                .separation_group = Some(group);
        }
        Ok(group)
    }

    /// Pins a node to the named HW node — §4.3's "require a particular SW
    /// FCM to be mapped onto a specific HW module".
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::UnknownSwNode`] for an invalid index.
    pub fn pin_to_hw(
        &mut self,
        node: NodeIdx,
        hw_name: impl Into<String>,
    ) -> Result<(), AllocError> {
        self.graph
            .node_mut(node)
            .ok_or(AllocError::UnknownSwNode {
                index: node.index(),
            })?
            .pinned_to = Some(hw_name.into());
        Ok(())
    }

    /// Finishes the build.
    pub fn build(self) -> SwGraph {
        self.graph
    }
}

/// Sum of influence crossing between different groups of a partition —
/// the quantity every clustering heuristic tries to minimise ("group the
/// nodes into sets such that the sum of weights between the sets is
/// minimized").
pub fn cross_partition_influence(g: &SwGraph, groups: &[Vec<NodeIdx>]) -> f64 {
    let mut membership = vec![usize::MAX; g.node_count()];
    for (gi, group) in groups.iter().enumerate() {
        for &n in group {
            membership[n.index()] = gi;
        }
    }
    g.edges()
        .filter(|(_, e)| {
            let (a, b) = (membership[e.from.index()], membership[e.to.index()]);
            a != b && a != usize::MAX && b != usize::MAX
        })
        .map(|(_, e)| e.weight.influence())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_core::FaultTolerance;

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    #[test]
    fn builder_adds_nodes_and_edges() {
        let mut b = SwGraphBuilder::new();
        let p1 = b.add_process("p1", attrs(10));
        let p2 = b.add_process("p2", attrs(8));
        b.add_influence(p1, p2, 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.node(p1).unwrap().name, "p1");
        assert_eq!(g.edge_weight_between(p1, p2).unwrap().influence(), 0.5);
    }

    #[test]
    fn influence_range_is_validated() {
        let mut b = SwGraphBuilder::new();
        let p1 = b.add_process("p1", attrs(0));
        let p2 = b.add_process("p2", attrs(0));
        assert!(matches!(
            b.add_influence(p1, p2, 0.0),
            Err(AllocError::InvalidInfluence { .. })
        ));
        assert!(b.add_influence(p1, p2, 1.5).is_err());
        assert!(b.add_influence(p1, p2, f64::NAN).is_err());
        assert!(b.add_influence(p1, p2, 1.0).is_ok());
    }

    #[test]
    fn self_influence_is_rejected_via_graph_error() {
        let mut b = SwGraphBuilder::new();
        let p1 = b.add_process("p1", attrs(0));
        assert!(matches!(
            b.add_influence(p1, p1, 0.5),
            Err(AllocError::Graph(_))
        ));
    }

    #[test]
    fn factor_driven_influence_applies_eq1_and_eq2() {
        use fcm_core::{FactorKind, FaultFactor};
        let mut b = SwGraphBuilder::new();
        let src = b.add_process("src", attrs(0));
        let dst = b.add_process("dst", attrs(0));
        let f1 = FaultFactor::new(FactorKind::ParameterPassing, 1.0, 1.0, 0.3).unwrap();
        let f2 = FaultFactor::new(FactorKind::GlobalVariable, 1.0, 1.0, 0.2).unwrap();
        let added = b.add_influence_from_factors(src, dst, &[f1, f2]).unwrap();
        assert!((added.unwrap() - 0.44).abs() < 1e-12);
        let g = b.build();
        assert!((g.edge_weight_between(src, dst).unwrap().influence() - 0.44).abs() < 1e-12);
    }

    #[test]
    fn zero_influence_factors_add_no_edge() {
        use fcm_core::{FactorKind, FaultFactor};
        let mut b = SwGraphBuilder::new();
        let src = b.add_process("src", attrs(0));
        let dst = b.add_process("dst", attrs(0));
        let dead = FaultFactor::new(FactorKind::Timing, 0.0, 0.5, 0.5).unwrap();
        assert_eq!(
            b.add_influence_from_factors(src, dst, &[dead]).unwrap(),
            None
        );
        assert_eq!(b.add_influence_from_factors(src, dst, &[]).unwrap(), None);
        // Bad endpoints still error.
        assert!(b.add_influence_from_factors(src, NodeIdx(9), &[]).is_err());
        let g = b.build();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn replicas_are_tagged_and_linked_with_zero_weight() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("p1a", attrs(10));
        let c = b.add_process("p1b", attrs(10));
        let d = b.add_process("p1c", attrs(10));
        let group = b.mark_replicas(&[a, c, d]).unwrap();
        let g = b.build();
        assert!(g.node(a).unwrap().is_replica_of(g.node(c).unwrap()));
        assert_eq!(g.node(a).unwrap().replica_group, Some(group));
        // 3 pairs × 2 directions = 6 replica links.
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.edge_weight_between(a, c).unwrap().influence(), 0.0);
    }

    #[test]
    fn distinct_groups_are_not_replicas_of_each_other() {
        let mut b = SwGraphBuilder::new();
        let a1 = b.add_process("a1", attrs(0));
        let a2 = b.add_process("a2", attrs(0));
        let b1 = b.add_process("b1", attrs(0));
        let b2 = b.add_process("b2", attrs(0));
        b.mark_replicas(&[a1, a2]).unwrap();
        b.mark_replicas(&[b1, b2]).unwrap();
        let g = b.build();
        assert!(!g.node(a1).unwrap().is_replica_of(g.node(b1).unwrap()));
        // Plain nodes are replicas of nothing.
        let plain = SwNode::new("x", attrs(0));
        assert!(!plain.is_replica_of(g.node(a1).unwrap()));
    }

    #[test]
    fn mark_replicas_rejects_unknown_nodes() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(0));
        assert!(matches!(
            b.mark_replicas(&[a, NodeIdx(9)]),
            Err(AllocError::UnknownSwNode { index: 9 })
        ));
    }

    #[test]
    fn importance_uses_attribute_weights() {
        let n = SwNode::new("x", attrs(10).with_fault_tolerance(FaultTolerance::TMR));
        let w = ImportanceWeights::default();
        assert!((n.importance(&w) - (10.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn cross_partition_influence_counts_only_crossing_edges() {
        let mut b = SwGraphBuilder::new();
        let n0 = b.add_process("a", attrs(0));
        let n1 = b.add_process("b", attrs(0));
        let n2 = b.add_process("c", attrs(0));
        b.add_influence(n0, n1, 0.5).unwrap();
        b.add_influence(n1, n2, 0.3).unwrap();
        b.add_influence(n2, n0, 0.2).unwrap();
        let g = b.build();
        let groups = vec![vec![n0, n1], vec![n2]];
        // Crossing: n1->n2 (0.3) and n2->n0 (0.2).
        assert!((cross_partition_influence(&g, &groups) - 0.5).abs() < 1e-12);
        // Everything in one group: nothing crosses.
        assert_eq!(cross_partition_influence(&g, &[vec![n0, n1, n2]]), 0.0);
    }

    #[test]
    fn forbid_colocation_tags_without_edges() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(9));
        let c = b.add_process("b", attrs(8));
        let d = b.add_process("c", attrs(1));
        b.forbid_colocation(&[a, c]).unwrap();
        let g = b.build();
        assert!(g.node(a).unwrap().must_separate_from(g.node(c).unwrap()));
        assert!(!g.node(a).unwrap().must_separate_from(g.node(d).unwrap()));
        // No edges created, and they are not replicas.
        assert_eq!(g.edge_count(), 0);
        assert!(!g.node(a).unwrap().is_replica_of(g.node(c).unwrap()));
    }

    #[test]
    fn pinning_and_bad_indices() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(0));
        b.pin_to_hw(a, "hw3").unwrap();
        assert!(b.pin_to_hw(NodeIdx(9), "hw0").is_err());
        assert!(b.forbid_colocation(&[a, NodeIdx(9)]).is_err());
        let g = b.build();
        assert_eq!(g.node(a).unwrap().pinned_to.as_deref(), Some("hw3"));
    }

    #[test]
    fn displays() {
        assert_eq!(SwEdge::Influence(0.7).to_string(), "0.7");
        assert_eq!(SwEdge::ReplicaLink.to_string(), "0 (replica)");
        assert_eq!(SwNode::new("p3", attrs(0)).to_string(), "p3");
    }
}
