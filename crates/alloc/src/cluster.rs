//! Validated clusterings of the SW graph (paper §5.2).
//!
//! "The process of combining multiple SW nodes into clusters to be
//! collocated on a processor involves several considerations": combined
//! attributes and importance, recomputed influence on induced neighbours
//! (Eq. 4), replica anti-affinity ("two nodes connected by an edge of
//! weight of 0 cannot be combined"), and schedulability ("the processes in
//! the cluster must all be schedulable").

use std::collections::BTreeMap;

use fcm_core::{AttributeSet, CompositionKind, ImportanceWeights};
use fcm_graph::{condense, partition_membership, CombineRule, Condensation, NodeIdx};
use fcm_sched::{edf, Job, JobId, JobSet};

use crate::error::AllocError;
use crate::failover;
use crate::sw::SwGraph;

/// A partition of the SW graph's nodes into clusters, validated against
/// the paper's combination constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    groups: Vec<Vec<NodeIdx>>,
}

impl Clustering {
    /// Creates a validated clustering.
    ///
    /// # Errors
    ///
    /// * [`AllocError::Graph`] — `groups` is not a partition of the node
    ///   set ([`partition_membership`]);
    /// * [`AllocError::ReplicaConflict`] — a cluster contains two replicas
    ///   of one module;
    /// * [`AllocError::Unschedulable`] — a cluster's merged timing
    ///   constraints are not EDF-schedulable on one processor.
    pub fn new(g: &SwGraph, groups: Vec<Vec<NodeIdx>>) -> Result<Self, AllocError> {
        partition_membership(g.node_count(), &groups)?;
        for group in &groups {
            if let Some((a, b)) = replica_conflict(g, group) {
                return Err(AllocError::ReplicaConflict { a, b });
            }
            if !is_schedulable(g, group) {
                return Err(AllocError::Unschedulable {
                    members: member_names(g, group),
                });
            }
        }
        let mut groups = groups;
        for group in &mut groups {
            group.sort();
        }
        Ok(Clustering { groups })
    }

    /// The trivial clustering: every node its own cluster.
    pub fn singletons(g: &SwGraph) -> Self {
        Clustering {
            groups: g.node_indices().map(|n| vec![n]).collect(),
        }
    }

    /// The clusters (each a sorted list of SW node indices).
    pub fn clusters(&self) -> &[Vec<NodeIdx>] {
        &self.groups
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Paper-style display name of cluster `i`, e.g. `"p1a,2a"` when all
    /// members share the `p` prefix, otherwise the names joined with `+`.
    pub fn cluster_name(&self, g: &SwGraph, i: usize) -> String {
        let names = member_names(g, &self.groups[i]);
        if names.len() > 1 && names.iter().all(|n| n.starts_with('p')) {
            let stripped: Vec<&str> = names.iter().map(|n| &n[1..]).collect();
            format!("p{}", stripped.join(","))
        } else {
            names.join("+")
        }
    }

    /// Combined attributes of cluster `i` (group combination: stringent
    /// criticality/security, summed throughput, enveloping timing).
    pub fn combined_attributes(&self, g: &SwGraph, i: usize) -> AttributeSet {
        AttributeSet::combine_all(
            self.groups[i]
                .iter()
                .map(|&n| &g.node(n).expect("validated member").attributes),
            CompositionKind::Group,
        )
        .unwrap_or_default()
    }

    /// Importance of cluster `i` under `weights` (importance of the
    /// combined attribute set).
    pub fn importance(&self, g: &SwGraph, i: usize, weights: &ImportanceWeights) -> f64 {
        self.combined_attributes(g, i).importance(weights)
    }

    /// The condensed influence graph: cluster-level nodes with Eq. 4
    /// combined influences ("internal influences disappear"; fan-in/out
    /// combines probabilistically). Replica links contribute zero weight;
    /// use [`Clustering::conflicting_pairs`] for the anti-affinity they
    /// encode.
    pub fn condensed(&self, g: &SwGraph) -> Condensation {
        condense(g, &self.groups, CombineRule::Probabilistic)
            .expect("clustering was validated as a partition")
    }

    /// Cluster pairs that host replicas of the same module and therefore
    /// "must be mapped onto different HW nodes". Pairs are `(i, j)` with
    /// `i < j`.
    pub fn conflicting_pairs(&self, g: &SwGraph) -> Vec<(usize, usize)> {
        // Map replica group -> clusters hosting one of its replicas.
        let mut hosts: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (ci, group) in self.groups.iter().enumerate() {
            for &n in group {
                if let Some(rg) = g.node(n).expect("validated member").replica_group {
                    let entry = hosts.entry(rg).or_default();
                    if entry.last() != Some(&ci) {
                        entry.push(ci);
                    }
                }
            }
        }
        let mut pairs = Vec::new();
        for clusters in hosts.values() {
            for (k, &a) in clusters.iter().enumerate() {
                for &b in &clusters[k + 1..] {
                    let pair = (a.min(b), a.max(b));
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Total influence crossing between clusters — the objective the
    /// paper's heuristics minimise.
    pub fn cross_influence(&self, g: &SwGraph) -> f64 {
        crate::sw::cross_partition_influence(g, &self.groups)
    }

    /// Merges clusters `i` and `j` into one, revalidating the result.
    ///
    /// # Errors
    ///
    /// * [`AllocError::UnknownSwNode`] — a cluster index out of range;
    /// * the validation errors of [`Clustering::new`].
    pub fn merge_clusters(
        &self,
        g: &SwGraph,
        i: usize,
        j: usize,
    ) -> Result<Clustering, AllocError> {
        if i >= self.groups.len() || j >= self.groups.len() || i == j {
            return Err(AllocError::UnknownSwNode { index: i.max(j) });
        }
        let mut groups = self.groups.clone();
        let (lo, hi) = (i.min(j), i.max(j));
        let moved = groups.remove(hi);
        groups[lo].extend(moved);
        Clustering::new(g, groups)
    }

    /// Whether merging clusters `i` and `j` would be valid (constraint
    /// check without constructing the merged clustering).
    pub fn can_merge(&self, g: &SwGraph, i: usize, j: usize) -> bool {
        if i >= self.groups.len() || j >= self.groups.len() || i == j {
            return false;
        }
        let mut merged = self.groups[i].clone();
        merged.extend_from_slice(&self.groups[j]);
        replica_conflict(g, &merged).is_none() && is_schedulable(g, &merged)
    }

    /// Mutual influence between clusters `i` and `j` in the condensed
    /// graph (sum of both directions) — H1's pairing criterion.
    pub fn mutual_influence(&self, g: &SwGraph, i: usize, j: usize) -> f64 {
        let c = self.condensed(g);
        c.graph.mutual_weight(NodeIdx(i), NodeIdx(j))
    }
}

/// The cluster-fit predicate the heuristics ask of every candidate
/// group: would `group` be a valid cluster of a [`Clustering`] in which
/// every other node stays a singleton?
///
/// Built once per graph, it decides whether every singleton is valid up
/// front. A singleton fails only when its node's timing triple is
/// malformed (a well-formed job meets its deadline alone), and such a
/// node fails every group that holds it. So for a duplicate-free group
/// of valid indices [`GroupCheck::fits`] is exactly whether
/// `Clustering::new` accepts `group` plus the other nodes as singletons,
/// without building that partition.
#[derive(Debug, Clone, Copy)]
pub struct GroupCheck<'g> {
    g: &'g SwGraph,
    singletons_ok: bool,
}

impl<'g> GroupCheck<'g> {
    /// Prepares the predicate for `g`.
    pub fn new(g: &'g SwGraph) -> Self {
        let singletons_ok = g.node_indices().all(|n| is_schedulable(g, &[n]));
        GroupCheck { g, singletons_ok }
    }

    /// Whether `group` (duplicate-free, valid indices) is a valid cluster
    /// while every other node is a singleton: no replica conflict inside
    /// it, and its merged timing constraints are EDF-schedulable.
    pub fn fits(&self, group: &[NodeIdx]) -> bool {
        self.singletons_ok
            && replica_conflict(self.g, group).is_none()
            && is_schedulable(self.g, group)
    }

    /// Whether `group` with `v` appended [`fits`](GroupCheck::fits).
    pub fn fits_with(&self, group: &[NodeIdx], v: NodeIdx) -> bool {
        let mut merged = Vec::with_capacity(group.len() + 1);
        merged.extend_from_slice(group);
        merged.push(v);
        self.fits(&merged)
    }
}

/// First pair inside `group` that must stay separated
/// ([`failover::separated`]), by name. Tagged pairs are looked for
/// first: the tag test is cheap, and replicas made by `mark_replicas` or
/// replica expansion carry tags, so such a group fails before any edge
/// list is scanned.
pub(crate) fn replica_conflict(g: &SwGraph, group: &[NodeIdx]) -> Option<(String, String)> {
    let node = |n: NodeIdx| g.node(n).expect("caller validates indices");
    let first = |apart: &dyn Fn(NodeIdx, NodeIdx) -> bool| {
        group.iter().enumerate().find_map(|(k, &a)| {
            let b = *group[k + 1..].iter().find(|&&b| apart(a, b))?;
            Some((node(a).name.clone(), node(b).name.clone()))
        })
    };
    first(&|a, b| node(a).must_separate_from(node(b)))
        .or_else(|| first(&|a, b| failover::separated(g, a, b)))
}

/// Whether the merged timing constraints of `group` are EDF-schedulable
/// on one processor (members without timing constraints are unconstrained).
pub(crate) fn is_schedulable(g: &SwGraph, group: &[NodeIdx]) -> bool {
    let jobs: Vec<Job> = group
        .iter()
        .filter_map(|&n| {
            g.node(n)
                .expect("caller validates indices")
                .attributes
                .timing
                .map(|t| t.to_job(n.index() as JobId))
        })
        .collect();
    match JobSet::new(jobs) {
        Ok(set) => edf::feasible(&set),
        Err(_) => false,
    }
}

pub(crate) fn member_names(g: &SwGraph, group: &[NodeIdx]) -> Vec<String> {
    group
        .iter()
        .map(|&n| g.node(n).expect("validated member").name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::SwGraphBuilder;
    use fcm_core::AttributeSet;

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    /// p0 -> p1 (0.7), p1 -> p0 (0.2), p1 -> p2 (0.3); p3a/p3b replicas.
    fn sample() -> (SwGraph, Vec<NodeIdx>) {
        let mut b = SwGraphBuilder::new();
        let p0 = b.add_process("p0", attrs(5).with_timing(0, 20, 4));
        let p1 = b.add_process("p1", attrs(3).with_timing(0, 20, 4));
        let p2 = b.add_process("p2", attrs(1));
        let p3a = b.add_process("p3a", attrs(8));
        let p3b = b.add_process("p3b", attrs(8));
        b.add_influence(p0, p1, 0.7).unwrap();
        b.add_influence(p1, p0, 0.2).unwrap();
        b.add_influence(p1, p2, 0.3).unwrap();
        b.mark_replicas(&[p3a, p3b]).unwrap();
        (b.build(), vec![p0, p1, p2, p3a, p3b])
    }

    #[test]
    fn singletons_cover_every_node() {
        let (g, _) = sample();
        let c = Clustering::singletons(&g);
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.cross_influence(&g), 0.7 + 0.2 + 0.3);
    }

    #[test]
    fn valid_clustering_builds() {
        let (g, n) = sample();
        let c = Clustering::new(&g, vec![vec![n[0], n[1]], vec![n[2], n[3]], vec![n[4]]]).unwrap();
        assert_eq!(c.len(), 3);
        // Internal influence 0.7+0.2 vanished from the crossing sum.
        assert!((c.cross_influence(&g) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn replica_conflict_is_rejected() {
        let (g, n) = sample();
        let err = Clustering::new(&g, vec![vec![n[0], n[1], n[2]], vec![n[3], n[4]]]).unwrap_err();
        assert!(matches!(err, AllocError::ReplicaConflict { .. }));
    }

    #[test]
    fn unschedulable_cluster_is_rejected() {
        let mut b = SwGraphBuilder::new();
        // Two processes whose triples cannot share a processor.
        let a = b.add_process("a", attrs(0).with_timing(0, 6, 4));
        let c = b.add_process("b", attrs(0).with_timing(0, 6, 4));
        let g = b.build();
        let err = Clustering::new(&g, vec![vec![a, c]]).unwrap_err();
        assert!(matches!(err, AllocError::Unschedulable { .. }));
        // Apart they are fine.
        assert!(Clustering::new(&g, vec![vec![a], vec![c]]).is_ok());
    }

    #[test]
    fn non_partition_is_rejected() {
        let (g, n) = sample();
        assert!(Clustering::new(&g, vec![vec![n[0]]]).is_err());
    }

    #[test]
    fn condensed_graph_applies_eq4() {
        let mut b = SwGraphBuilder::new();
        let x = b.add_process("x", attrs(0));
        let y = b.add_process("y", attrs(0));
        let t = b.add_process("t", attrs(0));
        b.add_influence(x, t, 0.7).unwrap();
        b.add_influence(y, t, 0.2).unwrap();
        let g = b.build();
        let c = Clustering::new(&g, vec![vec![x, y], vec![t]]).unwrap();
        let cond = c.condensed(&g);
        let w: f64 = *cond
            .graph
            .edge_weight_between(NodeIdx(0), NodeIdx(1))
            .unwrap();
        assert!((w - 0.76).abs() < 1e-12);
    }

    #[test]
    fn conflicting_pairs_track_split_replicas() {
        let (g, n) = sample();
        let c = Clustering::new(&g, vec![vec![n[0], n[3]], vec![n[1], n[4]], vec![n[2]]]).unwrap();
        assert_eq!(c.conflicting_pairs(&g), vec![(0, 1)]);
        // Merging the conflicting clusters is impossible.
        assert!(!c.can_merge(&g, 0, 1));
        assert!(c.merge_clusters(&g, 0, 1).is_err());
    }

    #[test]
    fn merge_clusters_revalidates_and_sorts() {
        let (g, n) = sample();
        let c = Clustering::singletons(&g);
        let merged = c.merge_clusters(&g, 0, 1).unwrap();
        assert_eq!(merged.len(), 4);
        assert!(merged.clusters().iter().any(|grp| grp == &vec![n[0], n[1]]));
        // Out-of-range and self merges error.
        assert!(c.merge_clusters(&g, 0, 9).is_err());
        assert!(c.merge_clusters(&g, 2, 2).is_err());
        assert!(!c.can_merge(&g, 2, 2));
    }

    #[test]
    fn group_check_matches_whole_partition_validation() {
        let (g, n) = sample();
        let check = GroupCheck::new(&g);
        assert!(check.fits(&[n[0], n[1], n[2]]));
        assert!(!check.fits(&[n[3], n[4]]));
        assert!(check.fits_with(&[n[0]], n[3]));
        assert!(!check.fits_with(&[n[0], n[3]], n[4]));
        // A node that cannot run alone fails every group: the groups that
        // hold it, and all others, because it stays a singleton beside them.
        let mut b = SwGraphBuilder::new();
        let ok = b.add_process("ok", attrs(0).with_timing(0, 10, 2));
        let bad = b.add_process("bad", attrs(0).with_timing(0, 3, 5));
        let g2 = b.build();
        let check = GroupCheck::new(&g2);
        assert!(!check.fits(&[ok]));
        assert!(!check.fits(&[bad]));
        assert!(Clustering::new(&g2, vec![vec![ok], vec![bad]]).is_err());
    }

    #[test]
    fn anti_affinity_groups_are_enforced() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(9));
        let c = b.add_process("b", attrs(8));
        b.forbid_colocation(&[a, c]).unwrap();
        let g = b.build();
        let err = Clustering::new(&g, vec![vec![a, c]]).unwrap_err();
        assert!(matches!(err, AllocError::ReplicaConflict { .. }));
        assert!(Clustering::new(&g, vec![vec![a], vec![c]]).is_ok());
    }

    #[test]
    fn combined_attributes_and_importance() {
        let (g, n) = sample();
        let c = Clustering::new(&g, vec![vec![n[0], n[1]], vec![n[2], n[3]], vec![n[4]]]).unwrap();
        let a = c.combined_attributes(&g, 0);
        assert_eq!(a.criticality.0, 5);
        assert_eq!(a.timing.unwrap().ct, 8);
        let w = ImportanceWeights::default();
        assert!(c.importance(&g, 1, &w) > c.importance(&g, 0, &w));
    }

    #[test]
    fn cluster_names_follow_paper_style() {
        let (g, n) = sample();
        let c = Clustering::new(
            &g,
            vec![vec![n[0], n[1]], vec![n[2]], vec![n[3]], vec![n[4]]],
        )
        .unwrap();
        assert_eq!(c.cluster_name(&g, 0), "p0,1");
        assert_eq!(c.cluster_name(&g, 1), "p2");
        // Non-p names join with '+'.
        let mut b = SwGraphBuilder::new();
        let x = b.add_process("nav", attrs(0));
        let y = b.add_process("disp", attrs(0));
        let g2 = b.build();
        let c2 = Clustering::new(&g2, vec![vec![x, y]]).unwrap();
        assert_eq!(c2.cluster_name(&g2, 0), "nav+disp");
    }

    #[test]
    fn mutual_influence_between_clusters() {
        let (g, n) = sample();
        let c = Clustering::singletons(&g);
        let m = c.mutual_influence(&g, n[0].index(), n[1].index());
        assert!((m - 0.9).abs() < 1e-12);
    }
}
