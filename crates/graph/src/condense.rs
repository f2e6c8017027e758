//! Graph condensation: contracting node groups into super-nodes.
//!
//! When the paper combines SW nodes into a cluster, *"internal influences
//! disappear"* and influences of several members on a common outside
//! neighbour *"need to be combined"* — with the probabilistic rule of
//! Eq. 4, `infl(C→t) = 1 − Π_{i∈C}(1 − infl(i→t))`. [`condense`] performs
//! that contraction with a pluggable [`CombineRule`].

use crate::error::GraphError;
use crate::{DiGraph, Matrix, NodeIdx};

/// How parallel influences from/to a condensed group are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CombineRule {
    /// Probabilistic or-combination `1 − Π(1 − pᵢ)` — the paper's Eq. 4,
    /// correct when the member influences are independent probabilities.
    #[default]
    Probabilistic,
    /// Plain sum — used when edge weights are rates or costs rather than
    /// probabilities (e.g. communication volume).
    Sum,
    /// Maximum — a conservative bound.
    Max,
}

impl CombineRule {
    /// Combines a non-empty list of parallel weights per the rule.
    ///
    /// Returns `0.0` for an empty slice.
    pub fn combine(self, weights: &[f64]) -> f64 {
        match self {
            CombineRule::Probabilistic => 1.0 - weights.iter().fold(1.0, |acc, &p| acc * (1.0 - p)),
            CombineRule::Sum => weights.iter().sum(),
            CombineRule::Max => weights.iter().fold(0.0, |acc, &p| acc.max(p)),
        }
    }
}

/// Result of condensing a graph: the condensed graph plus the node mapping.
///
/// Node payloads of the condensed graph are the member lists of original
/// node indices, preserving the traceability the paper's figures rely on
/// (e.g. the cluster "p1,2,3,4").
#[derive(Debug, Clone, PartialEq)]
pub struct Condensation {
    /// The condensed graph; payloads are original-node member lists.
    pub graph: DiGraph<Vec<NodeIdx>, f64>,
    /// For each original node index, the condensed node that contains it.
    pub membership: Vec<NodeIdx>,
}

impl Condensation {
    /// The condensed node containing original node `orig`.
    pub fn group_of(&self, orig: NodeIdx) -> Option<NodeIdx> {
        self.membership.get(orig.index()).copied()
    }

    /// The group-to-group influence matrix of the condensed graph:
    /// entry `(i, j)` is the combined influence of group `i` on group
    /// `j`, `0.0` where no edge exists. This is the *full-recompute*
    /// reference the incremental pipeline update is checked against
    /// (bitwise) by the equivalence property tests.
    #[must_use]
    pub fn influence_matrix(&self) -> Matrix {
        Matrix::from_graph(&self.graph)
    }
}

/// Checks that `groups` partition the node set `0..n` and returns, for
/// each node, the index of the group that holds it. This is the check
/// [`condense`] makes before contracting; callers that need only the
/// check (not the Eq. 4 condensation) call it directly.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if a group references a node
/// `>= n`, and [`GraphError::TooManyParts`] if the groups do not form a
/// partition (a node missing or listed twice).
pub fn partition_membership(n: usize, groups: &[Vec<NodeIdx>]) -> Result<Vec<usize>, GraphError> {
    let mut membership = vec![usize::MAX; n];
    for (gi, group) in groups.iter().enumerate() {
        for &v in group {
            if v.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    index: v.index(),
                    len: n,
                });
            }
            if membership[v.index()] != usize::MAX {
                // Duplicate membership: not a partition.
                return Err(GraphError::TooManyParts {
                    requested: groups.len(),
                    nodes: n,
                });
            }
            membership[v.index()] = gi;
        }
    }
    if membership.contains(&usize::MAX) {
        return Err(GraphError::TooManyParts {
            requested: groups.len(),
            nodes: n,
        });
    }
    Ok(membership)
}

/// Contracts `groups` (a partition of the node set) into super-nodes.
///
/// Edges internal to a group vanish; edges between groups are combined
/// per `rule`. Groups must be disjoint, non-empty, and cover every node.
///
/// # Errors
///
/// The errors of [`partition_membership`].
///
/// # Example
///
/// ```
/// use fcm_graph::{DiGraph, NodeIdx, condense::{condense, CombineRule}};
///
/// let mut g: DiGraph<(), f64> = DiGraph::new();
/// let n: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
/// g.add_edge(n[0], n[2], 0.7);
/// g.add_edge(n[1], n[2], 0.2);
/// let c = condense(&g, &[vec![n[0], n[1]], vec![n[2]]], CombineRule::Probabilistic)?;
/// // Eq. 4: 1 - (1-0.7)(1-0.2) = 0.76 — the value visible in the paper's Fig. 5.
/// let w = *c.graph.edge_weight_between(NodeIdx(0), NodeIdx(1)).unwrap();
/// assert!((w - 0.76).abs() < 1e-12);
/// # Ok::<(), fcm_graph::GraphError>(())
/// ```
pub fn condense<N, E: Copy + Into<f64>>(
    g: &DiGraph<N, E>,
    groups: &[Vec<NodeIdx>],
    rule: CombineRule,
) -> Result<Condensation, GraphError> {
    let membership = partition_membership(g.node_count(), groups)?;

    let mut out: DiGraph<Vec<NodeIdx>, f64> = DiGraph::with_capacity(groups.len());
    for group in groups {
        let mut sorted = group.clone();
        sorted.sort();
        out.add_node(sorted);
    }

    // Gather parallel weights per (source group, target group).
    let k = groups.len();
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k * k];
    for (_, e) in g.edges() {
        let (gu, gv) = (membership[e.from.index()], membership[e.to.index()]);
        if gu != gv {
            buckets[gu * k + gv].push(e.weight.into());
        }
    }
    for gu in 0..k {
        for gv in 0..k {
            let ws = &buckets[gu * k + gv];
            if !ws.is_empty() {
                out.add_edge(NodeIdx(gu), NodeIdx(gv), rule.combine(ws));
            }
        }
    }

    Ok(Condensation {
        graph: out,
        membership: membership.into_iter().map(NodeIdx).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fan_in() -> (DiGraph<(), f64>, Vec<NodeIdx>) {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[3], 0.7);
        g.add_edge(n[1], n[3], 0.2);
        g.add_edge(n[0], n[1], 0.9); // internal once grouped
        g.add_edge(n[3], n[2], 0.4);
        (g, n)
    }

    #[test]
    fn probabilistic_rule_matches_eq4() {
        assert!((CombineRule::Probabilistic.combine(&[0.7, 0.2]) - 0.76).abs() < 1e-12);
        assert_eq!(CombineRule::Probabilistic.combine(&[]), 0.0);
        assert_eq!(CombineRule::Probabilistic.combine(&[1.0, 0.3]), 1.0);
    }

    #[test]
    fn sum_and_max_rules() {
        assert!((CombineRule::Sum.combine(&[0.7, 0.2]) - 0.9).abs() < 1e-12);
        assert_eq!(CombineRule::Max.combine(&[0.7, 0.2]), 0.7);
        assert_eq!(CombineRule::Sum.combine(&[]), 0.0);
        assert_eq!(CombineRule::Max.combine(&[]), 0.0);
    }

    #[test]
    fn internal_influences_disappear() {
        let (g, n) = fan_in();
        let c = condense(
            &g,
            &[vec![n[0], n[1]], vec![n[2]], vec![n[3]]],
            CombineRule::Probabilistic,
        )
        .unwrap();
        assert_eq!(c.graph.node_count(), 3);
        // 0.9 internal edge is gone; fan-in combined to 0.76; 3->2 kept.
        assert_eq!(c.graph.edge_count(), 2);
        let w = *c
            .graph
            .edge_weight_between(c.group_of(n[0]).unwrap(), c.group_of(n[3]).unwrap())
            .unwrap();
        assert!((w - 0.76).abs() < 1e-12);
        let back = *c
            .graph
            .edge_weight_between(c.group_of(n[3]).unwrap(), c.group_of(n[2]).unwrap())
            .unwrap();
        assert!((back - 0.4).abs() < 1e-12);
    }

    #[test]
    fn membership_maps_every_original_node() {
        let (g, n) = fan_in();
        let c = condense(&g, &[vec![n[0], n[2]], vec![n[1], n[3]]], CombineRule::Sum).unwrap();
        assert_eq!(c.membership.len(), 4);
        assert_eq!(c.group_of(n[0]), Some(NodeIdx(0)));
        assert_eq!(c.group_of(n[3]), Some(NodeIdx(1)));
        assert_eq!(c.group_of(NodeIdx(99)), None);
    }

    #[test]
    fn non_partition_is_rejected() {
        let (g, n) = fan_in();
        // Node 3 missing.
        assert!(condense(&g, &[vec![n[0], n[1]], vec![n[2]]], CombineRule::Sum).is_err());
        // Node 0 duplicated.
        assert!(condense(
            &g,
            &[vec![n[0], n[1]], vec![n[0], n[2], n[3]]],
            CombineRule::Sum
        )
        .is_err());
        // Unknown node.
        assert!(condense(&g, &[vec![NodeIdx(9)]], CombineRule::Sum).is_err());
    }

    #[test]
    fn partition_membership_maps_nodes_to_groups() {
        let (_, n) = fan_in();
        let groups = [vec![n[3], n[0]], vec![n[1], n[2]]];
        assert_eq!(partition_membership(4, &groups), Ok(vec![0, 1, 1, 0]));
        assert_eq!(
            partition_membership(4, &[vec![n[0], n[1]], vec![n[0], n[2], n[3]]]),
            Err(GraphError::TooManyParts {
                requested: 2,
                nodes: 4
            })
        );
        assert_eq!(
            partition_membership(4, &[vec![NodeIdx(9)]]),
            Err(GraphError::NodeOutOfBounds { index: 9, len: 4 })
        );
    }

    #[test]
    fn payloads_record_sorted_members() {
        let (g, n) = fan_in();
        let c = condense(&g, &[vec![n[3], n[0]], vec![n[1], n[2]]], CombineRule::Max).unwrap();
        assert_eq!(c.graph.node(NodeIdx(0)).unwrap(), &vec![n[0], n[3]]);
    }

    #[test]
    fn influence_matrix_mirrors_the_condensed_edges() {
        let (g, n) = fan_in();
        let c = condense(
            &g,
            &[vec![n[0], n[1]], vec![n[2]], vec![n[3]]],
            CombineRule::Probabilistic,
        )
        .unwrap();
        let m = c.influence_matrix();
        assert_eq!(m.rows(), 3);
        let g03 = c.group_of(n[3]).unwrap().index();
        let g02 = c.group_of(n[2]).unwrap().index();
        assert!((m[(0, g03)] - 0.76).abs() < 1e-12);
        assert_eq!(m[(g03, g02)], 0.4);
        assert_eq!(m[(g02, 0)], 0.0, "absent edge is zero");
    }

    #[test]
    fn singleton_partition_is_identity_shape() {
        let (g, n) = fan_in();
        let groups: Vec<Vec<NodeIdx>> = n.iter().map(|&v| vec![v]).collect();
        let c = condense(&g, &groups, CombineRule::Probabilistic).unwrap();
        assert_eq!(c.graph.node_count(), 4);
        assert_eq!(c.graph.edge_count(), 4);
    }
}
