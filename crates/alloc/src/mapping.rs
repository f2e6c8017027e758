//! SW-to-HW mapping (paper §5.3–§5.4 and the worked example of §6).
//!
//! A "good" mapping, per §5.3, satisfies absolute constraints first
//! (resources, schedulability — already guaranteed by the validated
//! [`Clustering`]), then contains faults (strongly influencing FCMs on
//! one node), then separates critical processes. Two satisficing
//! strategies are given:
//!
//! * **Approach A** ("importance of tasks", §5.4 and §6.1): clusters are
//!   placed in decreasing importance order, each onto the HW node that
//!   satisfies its resource needs with the smallest communication
//!   dilation to already-placed clusters;
//! * **Approach B** ("importance of attributes", §5.4 and §6.2): the most
//!   important attribute — criticality — drives everything: the SW list is
//!   sorted by criticality and the most critical process is combined with
//!   the least critical one, "so that the same faults affect a minimal
//!   number of such processes";
//! * the §6.2 closing example orders nodes purely by **timing** and
//!   first-fits them into processors — [`timing_refinement`].

use fcm_core::ImportanceWeights;
use fcm_graph::NodeIdx;

use crate::cluster::{Clustering, GroupCheck};
use crate::error::AllocError;
use crate::hw::HwGraph;
use crate::sw::SwGraph;

/// An injective assignment of clusters to HW nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// `assignment[cluster] = hw node`.
    assignment: Vec<NodeIdx>,
}

impl Mapping {
    /// Wraps a raw `assignment[cluster] = hw node` vector **without
    /// validation** — the constructor for analysis tooling and tests
    /// that must represent infeasible or degraded placements (the
    /// approach-A/B solvers only ever return validated mappings).
    /// Feasibility judgement stays with [`Mapping::validate`] and the
    /// `fcm-check` rule catalog.
    #[must_use]
    pub fn from_assignment(assignment: Vec<NodeIdx>) -> Mapping {
        Mapping { assignment }
    }

    /// The HW node hosting cluster `i`.
    pub fn hw_of(&self, cluster: usize) -> Option<NodeIdx> {
        self.assignment.get(cluster).copied()
    }

    /// Iterates over `(cluster index, hw node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeIdx)> + '_ {
        self.assignment.iter().copied().enumerate()
    }

    /// Number of placed clusters.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Communication dilation: Σ over condensed influence edges of
    /// `influence × hop distance` between the endpoints' processors.
    /// On a complete HW graph this equals the residual cross-node
    /// influence; on sparser topologies remote placements are penalised.
    pub fn dilation(&self, g: &SwGraph, clustering: &Clustering, hw: &HwGraph) -> f64 {
        let cond = clustering.condensed(g);
        cond.graph
            .edges()
            .map(|(_, e)| {
                let d = hw.distance(
                    self.assignment[e.from.index()],
                    self.assignment[e.to.index()],
                );
                e.weight * d
            })
            .sum()
    }

    /// Checks that the mapping is injective, resource-feasible, and keeps
    /// replica-hosting clusters on distinct nodes (the last holds by
    /// injectivity; it is rechecked for defence in depth).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NoFeasibleMapping`] describing the violation.
    pub fn validate(
        &self,
        g: &SwGraph,
        clustering: &Clustering,
        hw: &HwGraph,
    ) -> Result<(), AllocError> {
        if self.assignment.len() != clustering.len() {
            return Err(AllocError::NoFeasibleMapping {
                reason: format!(
                    "{} assignments for {} clusters",
                    self.assignment.len(),
                    clustering.len()
                ),
            });
        }
        let mut used = vec![false; hw.len()];
        for (ci, &h) in self.assignment.iter().enumerate() {
            let node = hw
                .node(h)
                .ok_or(AllocError::UnknownHwNode { index: h.index() })?;
            if used[h.index()] {
                return Err(AllocError::NoFeasibleMapping {
                    reason: format!("hw node {} hosts two clusters", node.name),
                });
            }
            used[h.index()] = true;
            for &sw in &clustering.clusters()[ci] {
                let req = &g
                    .node(sw)
                    .expect("validated cluster member")
                    .required_resources;
                if !req.is_subset(&node.resources) {
                    return Err(AllocError::NoFeasibleMapping {
                        reason: format!(
                            "cluster {} needs resources {:?} missing on {}",
                            clustering.cluster_name(g, ci),
                            req,
                            node.name
                        ),
                    });
                }
            }
            for &sw in &clustering.clusters()[ci] {
                if let Some(pin) = &g.node(sw).expect("validated cluster member").pinned_to {
                    if pin != &node.name {
                        return Err(AllocError::NoFeasibleMapping {
                            reason: format!(
                                "cluster {} is pinned to {pin} but placed on {}",
                                clustering.cluster_name(g, ci),
                                node.name
                            ),
                        });
                    }
                }
            }
            let demand = clustering.combined_attributes(g, ci).throughput.0;
            if demand > node.capacity {
                return Err(AllocError::NoFeasibleMapping {
                    reason: format!(
                        "cluster {} needs throughput {demand} exceeding capacity {} of {}",
                        clustering.cluster_name(g, ci),
                        node.capacity,
                        node.name
                    ),
                });
            }
        }
        for (a, b) in clustering.conflicting_pairs(g) {
            if self.assignment[a] == self.assignment[b] {
                return Err(AllocError::NoFeasibleMapping {
                    reason: "replica-hosting clusters share a hw node".into(),
                });
            }
        }
        Ok(())
    }
}

/// Approach A (§5.4): place clusters in decreasing importance, each onto
/// the resource-feasible free HW node minimising communication dilation
/// against the clusters already placed.
///
/// # Errors
///
/// * [`AllocError::TooFewHwNodes`] — more clusters than processors;
/// * [`AllocError::NoFeasibleMapping`] — resources cannot be satisfied.
pub fn approach_a(
    g: &SwGraph,
    clustering: &Clustering,
    hw: &HwGraph,
    weights: &ImportanceWeights,
) -> Result<Mapping, AllocError> {
    if clustering.len() > hw.len() {
        return Err(AllocError::TooFewHwNodes {
            clusters: clustering.len(),
            hw_nodes: hw.len(),
        });
    }
    let cond = clustering.condensed(g);
    // Order clusters constraint-first ("satisfaction of constraints …
    // this is always the primary concern", §5.3): clusters carrying pins
    // or resource requirements are placed before free clusters so the few
    // nodes that can satisfy them are still available; within each class,
    // most important first.
    let is_constrained = |ci: usize| {
        clustering.clusters()[ci].iter().any(|&sw| {
            let n = g.node(sw).expect("validated cluster member");
            n.pinned_to.is_some() || !n.required_resources.is_empty()
        })
    };
    let mut order: Vec<usize> = (0..clustering.len()).collect();
    order.sort_by(|&a, &b| {
        is_constrained(b)
            .cmp(&is_constrained(a))
            .then(
                clustering
                    .importance(g, b, weights)
                    .partial_cmp(&clustering.importance(g, a, weights))
                    .expect("finite importance"),
            )
            .then(a.cmp(&b))
    });

    let mut assignment = vec![NodeIdx(usize::MAX); clustering.len()];
    let mut used = vec![false; hw.len()];
    // HW names some cluster is pinned to: free clusters avoid them when a
    // tie allows, so pins can still be honoured later in the order.
    let pin_targets: std::collections::BTreeSet<&str> = g
        .nodes()
        .filter_map(|(_, n)| n.pinned_to.as_deref())
        .collect();
    for &ci in &order {
        // Candidates are ranked by dilation cost, then (to keep scarce
        // nodes for the clusters that need them) by: not being another
        // cluster's pin target, fewest special resources, and smallest
        // sufficient capacity (best fit).
        let mut best: Option<(NodeIdx, f64, (bool, usize, f64))> = None;
        let demand = clustering.combined_attributes(g, ci).throughput.0;
        // A pinned member restricts the cluster to its named HW node;
        // contradictory pins inside one cluster make it unplaceable.
        let mut pin: Option<&str> = None;
        let mut pin_conflict = false;
        for &sw in &clustering.clusters()[ci] {
            if let Some(p) = &g.node(sw).expect("validated cluster member").pinned_to {
                match pin {
                    None => pin = Some(p.as_str()),
                    Some(existing) if existing != p => pin_conflict = true,
                    _ => {}
                }
            }
        }
        if pin_conflict {
            return Err(AllocError::NoFeasibleMapping {
                reason: format!(
                    "cluster {} contains members pinned to different hw nodes",
                    clustering.cluster_name(g, ci)
                ),
            });
        }
        for (h, node) in hw.nodes() {
            if used[h.index()]
                || !cluster_resources_ok(g, clustering, ci, &node.resources)
                || demand > node.capacity
                || pin.is_some_and(|p| p != node.name)
            {
                continue;
            }
            // Dilation contribution against already-placed neighbours.
            let cost: f64 = cond
                .graph
                .edges()
                .filter_map(|(_, e)| {
                    let (a, b) = (e.from.index(), e.to.index());
                    let other = if a == ci {
                        b
                    } else if b == ci {
                        a
                    } else {
                        return None;
                    };
                    let placed = assignment[other];
                    if placed.index() == usize::MAX {
                        None
                    } else {
                        Some(e.weight * hw.distance(h, placed))
                    }
                })
                .sum();
            let tiebreak = (
                pin.is_none() && pin_targets.contains(node.name.as_str()),
                node.resources.len(),
                node.capacity,
            );
            let better = best.is_none_or(|(_, c, t)| {
                cost < c - 1e-12
                    || ((cost - c).abs() <= 1e-12
                        && (tiebreak.0, tiebreak.1)
                            .cmp(&(t.0, t.1))
                            .then(
                                tiebreak
                                    .2
                                    .partial_cmp(&t.2)
                                    .expect("capacities are not NaN"),
                            )
                            .is_lt())
            });
            if better {
                best = Some((h, cost, tiebreak));
            }
        }
        let (h, _, _) = best.ok_or_else(|| AllocError::NoFeasibleMapping {
            reason: format!(
                "no free hw node satisfies cluster {}",
                clustering.cluster_name(g, ci)
            ),
        })?;
        assignment[ci] = h;
        used[h.index()] = true;
    }
    let mapping = Mapping { assignment };
    mapping.validate(g, clustering, hw)?;
    Ok(mapping)
}

/// The §6.2 criticality pairing (the clustering half of Approach B):
///
/// 1. list processes in descending order of criticality;
/// 2. combine the most critical with the least critical, the second most
///    critical with the second least, and so on;
/// 3. on a conflict (replicas, timing), combine with "the process
///    preceding pl on the criticality list";
/// 4. re-rank the combined sets by summary criticality and repeat until
///    the desired number of nodes is obtained.
///
/// # Errors
///
/// * [`AllocError::Graph`] — invalid `target`;
/// * [`AllocError::NoFeasibleClustering`] — a stage makes no progress.
pub fn criticality_pairing(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    if target == 0 || target > g.node_count() {
        return Err(AllocError::Graph(fcm_graph::GraphError::TooManyParts {
            requested: target,
            nodes: g.node_count(),
        }));
    }
    let mut clustering = Clustering::singletons(g);
    while clustering.len() > target {
        // Rank clusters by summary criticality (max member criticality).
        let mut rank: Vec<usize> = (0..clustering.len()).collect();
        rank.sort_by(|&a, &b| {
            let ca = clustering.combined_attributes(g, a).criticality;
            let cb = clustering.combined_attributes(g, b).criticality;
            cb.cmp(&ca).then(a.cmp(&b))
        });
        // One stage of most-with-least pairing on the ranked list.
        let mut merges: Vec<(usize, usize)> = Vec::new();
        let mut taken = vec![false; clustering.len()];
        let mut hi = 0usize;
        while hi < rank.len() && clustering.len() - merges.len() > target {
            if taken[rank[hi]] {
                hi += 1;
                continue;
            }
            // Try the least critical untaken partner, then walk upward
            // ("combine ph with the process preceding pl").
            let mut merged = false;
            for lo in (hi + 1..rank.len()).rev() {
                if taken[rank[lo]] {
                    continue;
                }
                if clustering.can_merge(g, rank[hi], rank[lo]) {
                    taken[rank[hi]] = true;
                    taken[rank[lo]] = true;
                    merges.push((rank[hi], rank[lo]));
                    merged = true;
                    break;
                }
            }
            let _ = merged;
            hi += 1;
        }
        if merges.is_empty() {
            return Err(AllocError::NoFeasibleClustering {
                requested: target,
                reached: clustering.len(),
            });
        }
        // Apply merges from the highest indices down to keep indices valid.
        merges.sort_by_key(|&(a, b)| std::cmp::Reverse(a.max(b)));
        for (a, b) in merges {
            if let Ok(next) = clustering.merge_clusters(g, a, b) {
                clustering = next;
            }
        }
    }
    Ok(clustering)
}

/// Approach B (§5.4 + §6.2): criticality pairing down to at most the
/// platform size, then criticality-ordered placement (the most critical
/// cluster gets the lowest-index feasible node; later attributes only
/// break ties via dilation).
///
/// # Errors
///
/// Propagates [`criticality_pairing`] and placement failures.
pub fn approach_b(
    g: &SwGraph,
    hw: &HwGraph,
    weights: &ImportanceWeights,
) -> Result<(Clustering, Mapping), AllocError> {
    let clustering = criticality_pairing(g, hw.len().min(g.node_count()))?;
    let mapping = approach_a(g, &clustering, hw, weights)?;
    Ok((clustering, mapping))
}

/// The §6.2 closing technique: order SW nodes by their timing attributes
/// (EST, then TCD), walk the ordered list, and first-fit each node into an
/// existing cluster ("maintaining their compliance to the specified
/// constraints"), opening a new cluster — up to `target` — when none
/// accepts.
///
/// # Errors
///
/// * [`AllocError::Graph`] — invalid `target`;
/// * [`AllocError::NoFeasibleClustering`] — a node fits no cluster and the
///   cluster budget is exhausted.
pub fn timing_refinement(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
    if target == 0 || target > g.node_count() {
        return Err(AllocError::Graph(fcm_graph::GraphError::TooManyParts {
            requested: target,
            nodes: g.node_count(),
        }));
    }
    let mut order: Vec<NodeIdx> = g.node_indices().collect();
    order.sort_by_key(|&n| {
        let t = g.node(n).expect("valid index").attributes.timing;
        (
            t.map_or(u64::MAX, |t| t.est),
            t.map_or(u64::MAX, |t| t.tcd),
            n,
        )
    });
    let check = GroupCheck::new(g);
    let mut groups: Vec<Vec<NodeIdx>> = Vec::new();
    'nodes: for v in order {
        for group in &mut groups {
            if check.fits_with(group, v) {
                group.push(v);
                continue 'nodes;
            }
        }
        if groups.len() < target {
            groups.push(vec![v]);
        } else {
            return Err(AllocError::NoFeasibleClustering {
                requested: target,
                reached: groups.len(),
            });
        }
    }
    Clustering::new(g, groups)
}

fn cluster_resources_ok(
    g: &SwGraph,
    clustering: &Clustering,
    ci: usize,
    available: &std::collections::BTreeSet<String>,
) -> bool {
    clustering.clusters()[ci].iter().all(|&sw| {
        g.node(sw)
            .expect("validated cluster member")
            .required_resources
            .is_subset(available)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::SwGraphBuilder;
    use fcm_core::AttributeSet;

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    fn line_graph() -> SwGraph {
        let mut b = SwGraphBuilder::new();
        let n: Vec<_> = (0..4)
            .map(|i| b.add_process(format!("p{i}"), attrs(10 - i as u32)))
            .collect();
        b.add_influence(n[0], n[1], 0.8).unwrap();
        b.add_influence(n[1], n[2], 0.4).unwrap();
        b.add_influence(n[2], n[3], 0.2).unwrap();
        b.build()
    }

    #[test]
    fn approach_a_places_every_cluster_on_its_own_node() {
        let g = line_graph();
        let c = Clustering::singletons(&g);
        let hw = HwGraph::complete(4);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        assert_eq!(m.len(), 4);
        m.validate(&g, &c, &hw).unwrap();
        let mut hosts: Vec<usize> = m.iter().map(|(_, h)| h.index()).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 4);
    }

    #[test]
    fn approach_a_rejects_undersized_platform() {
        let g = line_graph();
        let c = Clustering::singletons(&g);
        let hw = HwGraph::complete(3);
        assert!(matches!(
            approach_a(&g, &c, &hw, &ImportanceWeights::default()),
            Err(AllocError::TooFewHwNodes {
                clusters: 4,
                hw_nodes: 3
            })
        ));
    }

    #[test]
    fn approach_a_minimises_dilation_on_a_ring() {
        // Strongly coupled clusters land on adjacent ring nodes.
        let g = line_graph();
        let c = Clustering::singletons(&g);
        let hw = HwGraph::ring(4);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        // p0 and p1 (influence 0.8) must be neighbours on the ring.
        let d01 = hw.distance(m.hw_of(0).unwrap(), m.hw_of(1).unwrap());
        assert_eq!(d01, 1.0);
    }

    #[test]
    fn approach_a_respects_resource_requirements() {
        let mut b = SwGraphBuilder::new();
        let gps = b.add_process("gps_user", attrs(1));
        let other = b.add_process("other", attrs(9));
        let mut g = b.build();
        g.node_mut(gps)
            .unwrap()
            .required_resources
            .insert("gps".into());
        let mut hw = HwGraph::complete(2);
        hw.node_mut(NodeIdx(1))
            .unwrap()
            .resources
            .insert("gps".into());
        let c = Clustering::singletons(&g);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        assert_eq!(m.hw_of(gps.index()).unwrap(), NodeIdx(1));
        let _ = other;
        // Without the resource anywhere, mapping fails.
        let bare = HwGraph::complete(2);
        assert!(matches!(
            approach_a(&g, &c, &bare, &ImportanceWeights::default()),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
    }

    #[test]
    fn approach_a_respects_throughput_capacity() {
        let mut b = SwGraphBuilder::new();
        let heavy = b.add_process("heavy", attrs(9).with_throughput(3.0));
        let light = b.add_process("light", attrs(1).with_throughput(0.5));
        let g = b.build();
        let c = Clustering::singletons(&g);
        // One big node and one small node: heavy must take the big one.
        let hw = HwGraph::new(
            vec![
                crate::hw::HwNode::new("small").with_capacity(1.0),
                crate::hw::HwNode::new("big").with_capacity(4.0),
            ],
            &[(0, 1, 1.0)],
        );
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        assert_eq!(m.hw_of(heavy.index()).unwrap(), NodeIdx(1));
        assert_eq!(m.hw_of(light.index()).unwrap(), NodeIdx(0));
        m.validate(&g, &c, &hw).unwrap();
        // A platform of only small nodes is infeasible.
        let tiny = HwGraph::new(
            vec![
                crate::hw::HwNode::new("s0").with_capacity(1.0),
                crate::hw::HwNode::new("s1").with_capacity(1.0),
            ],
            &[(0, 1, 1.0)],
        );
        assert!(matches!(
            approach_a(&g, &c, &tiny, &ImportanceWeights::default()),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
    }

    #[test]
    fn pinned_nodes_land_on_their_hw_node() {
        let mut b = SwGraphBuilder::new();
        let free = b.add_process("free", attrs(9));
        let pinned = b.add_process("pinned", attrs(1));
        b.pin_to_hw(pinned, "hw2").unwrap();
        let g = b.build();
        let c = Clustering::singletons(&g);
        let hw = HwGraph::complete(3);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        assert_eq!(
            hw.node(m.hw_of(pinned.index()).unwrap()).unwrap().name,
            "hw2"
        );
        m.validate(&g, &c, &hw).unwrap();
        let _ = free;
        // A platform without the named node is infeasible.
        let mut tiny = HwGraph::complete(2); // hw0, hw1 only
        let _ = tiny.node_mut(NodeIdx(0));
        assert!(matches!(
            approach_a(&g, &c, &tiny, &ImportanceWeights::default()),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
    }

    #[test]
    fn contradictory_pins_in_one_cluster_are_rejected() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(5));
        let c = b.add_process("b", attrs(5));
        b.pin_to_hw(a, "hw0").unwrap();
        b.pin_to_hw(c, "hw1").unwrap();
        let g = b.build();
        let clustering = Clustering::new(&g, vec![vec![a, c]]).unwrap();
        let hw = HwGraph::complete(2);
        assert!(matches!(
            approach_a(&g, &clustering, &hw, &ImportanceWeights::default()),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
    }

    #[test]
    fn criticality_pairing_combines_most_with_least() {
        let g = line_graph(); // criticalities 10, 9, 8, 7
        let c = criticality_pairing(&g, 2).unwrap();
        assert_eq!(c.len(), 2);
        // Pairing: (p0, p3) and (p1, p2).
        let mut names: Vec<String> = (0..2).map(|i| c.cluster_name(&g, i)).collect();
        names.sort();
        assert_eq!(names, vec!["p0,3", "p1,2"]);
    }

    #[test]
    fn criticality_pairing_walks_up_on_conflict() {
        // Most critical p0 conflicts (timing) with least critical p3, so it
        // must pair with p2 instead.
        let mut b = SwGraphBuilder::new();
        let p0 = b.add_process("p0", attrs(10).with_timing(0, 6, 4));
        let p1 = b.add_process("p1", attrs(9));
        let p2 = b.add_process("p2", attrs(8));
        let p3 = b.add_process("p3", attrs(7).with_timing(0, 6, 4));
        let g = b.build();
        let c = criticality_pairing(&g, 2).unwrap();
        let cluster_with_p0 = c.clusters().iter().find(|grp| grp.contains(&p0)).unwrap();
        assert!(cluster_with_p0.contains(&p2));
        assert!(!cluster_with_p0.contains(&p3));
        let _ = p1;
    }

    #[test]
    fn criticality_pairing_respects_replicas() {
        let mut b = SwGraphBuilder::new();
        let r1 = b.add_process("p1a", attrs(10));
        let r2 = b.add_process("p1b", attrs(10));
        b.mark_replicas(&[r1, r2]).unwrap();
        let g = b.build();
        assert!(matches!(
            criticality_pairing(&g, 1),
            Err(AllocError::NoFeasibleClustering { .. })
        ));
        assert_eq!(criticality_pairing(&g, 2).unwrap().len(), 2);
    }

    #[test]
    fn approach_b_returns_clustering_and_mapping() {
        let g = line_graph();
        let hw = HwGraph::complete(2);
        let (c, m) = approach_b(&g, &hw, &ImportanceWeights::default()).unwrap();
        assert_eq!(c.len(), 2);
        m.validate(&g, &c, &hw).unwrap();
    }

    #[test]
    fn timing_refinement_first_fits_in_est_order() {
        let mut b = SwGraphBuilder::new();
        // Two early jobs that conflict, one late job compatible with both.
        let a = b.add_process("pa", attrs(0).with_timing(0, 6, 4));
        let c = b.add_process("pb", attrs(0).with_timing(0, 6, 4));
        let late = b.add_process("pc", attrs(0).with_timing(10, 20, 4));
        let g = b.build();
        let clustering = timing_refinement(&g, 2).unwrap();
        assert_eq!(clustering.len(), 2);
        // The late job shares a cluster with one early job.
        let with_late = clustering
            .clusters()
            .iter()
            .find(|grp| grp.contains(&late))
            .unwrap();
        assert_eq!(with_late.len(), 2);
        let _ = (a, c);
    }

    #[test]
    fn timing_refinement_fails_when_target_too_small() {
        let mut b = SwGraphBuilder::new();
        b.add_process("pa", attrs(0).with_timing(0, 6, 4));
        b.add_process("pb", attrs(0).with_timing(0, 6, 4));
        let g = b.build();
        assert!(matches!(
            timing_refinement(&g, 1),
            Err(AllocError::NoFeasibleClustering { .. })
        ));
        assert!(timing_refinement(&g, 0).is_err());
    }

    #[test]
    fn dilation_is_zero_on_complete_when_influence_is_internal() {
        let g = line_graph();
        let c = Clustering::new(
            &g,
            vec![vec![NodeIdx(0), NodeIdx(1)], vec![NodeIdx(2), NodeIdx(3)]],
        )
        .unwrap();
        let hw = HwGraph::complete(2);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        // Only the 0.4 edge crosses; complete topology distance 1.
        assert!((m.dilation(&g, &c, &hw) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_double_occupancy() {
        let g = line_graph();
        let c = Clustering::new(
            &g,
            vec![vec![NodeIdx(0), NodeIdx(1)], vec![NodeIdx(2), NodeIdx(3)]],
        )
        .unwrap();
        let hw = HwGraph::complete(2);
        let bad = Mapping {
            assignment: vec![NodeIdx(0), NodeIdx(0)],
        };
        assert!(matches!(
            bad.validate(&g, &c, &hw),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
        let short = Mapping {
            assignment: vec![NodeIdx(0)],
        };
        assert!(short.validate(&g, &c, &hw).is_err());
        assert!(!short.is_empty());
    }
}
