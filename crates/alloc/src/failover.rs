//! Failover remapping and degraded-mode shedding.
//!
//! When a HW node dies, the process FCMs of the cluster it hosted must
//! be re-placed onto the survivors without violating the constraints the
//! original mapping honoured: replica anti-affinity ("replicas … must be
//! mapped onto different HW nodes"), resource requirements and pins,
//! throughput capacity, and schedulability (via the exact
//! [`fcm_sched::Admission`] check). Victims are re-placed in descending
//! criticality order; criticality separation is kept as a soft
//! preference, exactly as in the original placement heuristics.
//!
//! When no feasible placement exists, [`ShedPolicy`] decides between
//! failing ([`ShedPolicy::Never`]) and degraded mode
//! ([`ShedPolicy::ShedBelow`]): the lowest-criticality FCMs are shed
//! first — a victim below the threshold is dropped when it fits nowhere,
//! and a *critical* victim may displace below-threshold FCMs from a
//! survivor. FCMs at or above the threshold are never shed.

use fcm_graph::NodeIdx;
use fcm_sched::{Admission, Job, JobId};

use crate::cluster::Clustering;
use crate::error::AllocError;
use crate::hw::HwGraph;
use crate::mapping::Mapping;
use crate::sw::{SwEdge, SwGraph};

/// What to do when a victim FCM fits on no surviving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Fail the whole remap: every victim must be re-placed.
    Never,
    /// Degraded mode: FCMs with criticality **below** `critical_at` may
    /// be shed (lowest criticality first); FCMs at or above the
    /// threshold are never shed, and a critical victim may displace
    /// sheddable FCMs from a survivor to make room.
    ShedBelow {
        /// Criticality threshold: `criticality >= critical_at` is
        /// protected.
        critical_at: u32,
    },
}

impl ShedPolicy {
    fn may_shed(&self, criticality: u32) -> bool {
        match *self {
            ShedPolicy::Never => false,
            ShedPolicy::ShedBelow { critical_at } => criticality < critical_at,
        }
    }
}

/// The result of a successful failover remap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverOutcome {
    /// Destination per victim FCM, in placement (descending criticality)
    /// order: `Some(hw)` = moved there, `None` = shed.
    pub placement: Vec<(NodeIdx, Option<NodeIdx>)>,
    /// Victim FCMs successfully moved to a survivor.
    pub moved: Vec<NodeIdx>,
    /// FCMs dropped to reach feasibility: unplaceable victims plus any
    /// survivor-hosted FCMs displaced to admit a critical victim.
    pub shed: Vec<NodeIdx>,
    /// Whether the system is running degraded (something was shed).
    pub degraded: bool,
}

/// Per-survivor placement state during the remap.
struct Host {
    hw: NodeIdx,
    /// SW nodes currently hosted (original members plus placed victims).
    members: Vec<NodeIdx>,
    admission: Admission,
    throughput: f64,
}

/// Re-places the FCMs of the cluster hosted on `dead` onto the surviving
/// HW nodes, honouring replica anti-affinity, resources, pins, capacity
/// and EDF admission; `policy` governs degraded-mode shedding.
///
/// # Errors
///
/// * [`AllocError::UnknownHwNode`] — `dead` is out of range;
/// * [`AllocError::NoFeasibleMapping`] — a victim fits nowhere and the
///   policy forbids shedding it (including every protected victim that
///   cannot displace enough sheddable load).
pub fn remap(
    g: &SwGraph,
    clustering: &Clustering,
    mapping: &Mapping,
    hw: &HwGraph,
    dead: NodeIdx,
    policy: ShedPolicy,
) -> Result<FailoverOutcome, AllocError> {
    if hw.node(dead).is_none() {
        return Err(AllocError::UnknownHwNode {
            index: dead.index(),
        });
    }
    // The victims: members of the cluster hosted on the dead node.
    let victim_cluster = mapping.iter().find(|&(_, h)| h == dead).map(|(ci, _)| ci);
    let mut victims: Vec<NodeIdx> = match victim_cluster {
        Some(ci) => clustering.clusters()[ci].clone(),
        None => Vec::new(), // the dead node was idle
    };
    // Most critical first; index breaks ties deterministically.
    victims.sort_by_key(|&v| (std::cmp::Reverse(criticality(g, v)), v));

    // Survivor state: every live HW node, with the members of the
    // cluster it already hosts (free nodes start empty).
    let mut hosts: Vec<Host> = Vec::new();
    for (h, _) in hw.nodes() {
        if h == dead {
            continue;
        }
        let members: Vec<NodeIdx> = mapping
            .iter()
            .find(|&(_, hosted_on)| hosted_on == h)
            .map(|(ci, _)| clustering.clusters()[ci].clone())
            .unwrap_or_default();
        let jobs: Vec<Job> = members.iter().filter_map(|&m| timing_job(g, m)).collect();
        let admission =
            Admission::with_baseline(&jobs).ok_or_else(|| AllocError::NoFeasibleMapping {
                reason: format!(
                    "surviving node {} carries an infeasible baseline",
                    hw.node(h).expect("iterated node").name
                ),
            })?;
        let throughput = members.iter().map(|&m| throughput_of(g, m)).sum();
        hosts.push(Host {
            hw: h,
            members,
            admission,
            throughput,
        });
    }

    let mut placement = Vec::with_capacity(victims.len());
    let mut moved = Vec::new();
    let mut shed = Vec::new();
    for &v in &victims {
        match place(g, hw, &mut hosts, v, policy, &mut shed)? {
            Some(h) => {
                placement.push((v, Some(h)));
                moved.push(v);
            }
            None => {
                placement.push((v, None));
                shed.push(v);
            }
        }
    }
    shed.sort_unstable();
    shed.dedup();
    let degraded = !shed.is_empty();
    Ok(FailoverOutcome {
        placement,
        moved,
        shed,
        degraded,
    })
}

/// Places one victim, preferring hosts that minimise criticality
/// co-location, then load, then index. Returns `Ok(None)` when the
/// victim was shed, and an error when it fits nowhere and is protected.
fn place(
    g: &SwGraph,
    hw: &HwGraph,
    hosts: &mut [Host],
    v: NodeIdx,
    policy: ShedPolicy,
    shed: &mut Vec<NodeIdx>,
) -> Result<Option<NodeIdx>, AllocError> {
    let crit_v = criticality(g, v);
    // Pass 1: direct placement. Score = (criticality co-location burden,
    // resulting throughput, hw index) — all deterministic.
    let mut best: Option<(usize, (u64, f64, usize))> = None;
    for (i, host) in hosts.iter().enumerate() {
        if !hard_constraints_ok(g, hw, host, v) {
            continue;
        }
        if !admits(&host.admission, timing_job(g, v)) {
            continue;
        }
        let score = host_score(g, host, v, crit_v);
        if best.is_none_or(|(_, s)| score_lt(score, s)) {
            best = Some((i, score));
        }
    }
    if let Some((i, _)) = best {
        commit(g, &mut hosts[i], v);
        return Ok(Some(hosts[i].hw));
    }
    // Pass 2 (degraded mode): a protected victim may displace sheddable
    // members; an unprotected victim is simply shed.
    if policy.may_shed(crit_v) {
        return Ok(None);
    }
    if let ShedPolicy::ShedBelow { .. } = policy {
        let mut best: Option<(usize, Vec<NodeIdx>, HostScore)> = None;
        for (i, host) in hosts.iter().enumerate() {
            if !hard_constraints_ok(g, hw, host, v) {
                continue;
            }
            if let Some(displaced) = displacement_plan(g, hw, host, v, policy) {
                let score = host_score(g, host, v, crit_v);
                let better = match &best {
                    None => true,
                    Some((_, d, s)) => {
                        displaced.len() < d.len()
                            || (displaced.len() == d.len() && score_lt(score, *s))
                    }
                };
                if better {
                    best = Some((i, displaced, score));
                }
            }
        }
        if let Some((i, displaced, _)) = best {
            for &d in &displaced {
                let host = &mut hosts[i];
                host.members.retain(|&m| m != d);
                host.admission.release(d.index() as JobId);
                host.throughput -= throughput_of(g, d);
                shed.push(d);
            }
            commit(g, &mut hosts[i], v);
            return Ok(Some(hosts[i].hw));
        }
    }
    Err(AllocError::NoFeasibleMapping {
        reason: format!(
            "failover cannot re-place {} (criticality {crit_v}) on any survivor",
            g.node(v).expect("victim exists").name
        ),
    })
}

/// The sheddable members (lowest criticality first) whose removal lets
/// `v` fit on `host` under capacity and admission; `None` when even
/// shedding everything allowed does not help.
fn displacement_plan(
    g: &SwGraph,
    hw: &HwGraph,
    host: &Host,
    v: NodeIdx,
    policy: ShedPolicy,
) -> Option<Vec<NodeIdx>> {
    let mut sheddable: Vec<NodeIdx> = host
        .members
        .iter()
        .copied()
        .filter(|&m| policy.may_shed(criticality(g, m)))
        .collect();
    sheddable.sort_by_key(|&m| (criticality(g, m), m));
    let node = hw.node(host.hw).expect("host exists");
    let mut removed = Vec::new();
    let mut admission = host.admission.clone();
    let mut throughput = host.throughput;
    for m in sheddable {
        removed.push(m);
        admission.release(m.index() as JobId);
        throughput -= throughput_of(g, m);
        let fits = throughput + throughput_of(g, v) <= node.capacity
            && admits(&admission, timing_job(g, v));
        if fits {
            return Some(removed);
        }
    }
    None
}

/// Anti-affinity, resources, pin and capacity — the constraints that no
/// amount of shedding relaxes (shedding only frees CPU time and
/// throughput; separation conflicts involve protected replicas too, so
/// they are treated as hard here and rechecked against live members).
fn hard_constraints_ok(g: &SwGraph, hw: &HwGraph, host: &Host, v: NodeIdx) -> bool {
    let node = hw.node(host.hw).expect("host exists");
    let sw = g.node(v).expect("victim exists");
    if !sw.required_resources.is_subset(&node.resources) {
        return false;
    }
    if let Some(pin) = &sw.pinned_to {
        if pin != &node.name {
            return false;
        }
    }
    if host.members.iter().any(|&m| separated(g, v, m)) {
        return false;
    }
    host.throughput + sw.attributes.throughput.0 <= node.capacity
}

/// Whether `a` and `b` may never share a node: replica/separation tags,
/// or an explicit 0-weight replica link in either direction.
fn separated(g: &SwGraph, a: NodeIdx, b: NodeIdx) -> bool {
    let na = g.node(a).expect("valid index");
    let nb = g.node(b).expect("valid index");
    if na.must_separate_from(nb) {
        return true;
    }
    g.out_edges(a)
        .any(|(_, e)| e.to == b && matches!(e.weight, SwEdge::ReplicaLink))
        || g.out_edges(b)
            .any(|(_, e)| e.to == a && matches!(e.weight, SwEdge::ReplicaLink))
}

fn admits(admission: &Admission, job: Option<Job>) -> bool {
    match job {
        Some(job) => admission.would_admit(job),
        None => true, // no timing constraint: always schedulable
    }
}

fn commit(g: &SwGraph, host: &mut Host, v: NodeIdx) {
    if let Some(job) = timing_job(g, v) {
        let ok = host.admission.try_admit(job);
        debug_assert!(ok, "probe admitted but commit failed");
    }
    host.throughput += throughput_of(g, v);
    host.members.push(v);
}

/// Host preference score: (criticality co-location burden, load, index).
type HostScore = (u64, f64, usize);

fn host_score(g: &SwGraph, host: &Host, v: NodeIdx, crit_v: u32) -> HostScore {
    // Criticality co-location burden: pairing two highly critical FCMs
    // on one node is what the original heuristics avoid, so prefer the
    // host minimising Σ min(crit_v, crit_member).
    let burden: u64 = host
        .members
        .iter()
        .map(|&m| u64::from(crit_v.min(criticality(g, m))))
        .sum();
    let load = host.throughput + throughput_of(g, v);
    (burden, load, host.hw.index())
}

fn score_lt(a: HostScore, b: HostScore) -> bool {
    a.0.cmp(&b.0)
        .then(a.1.partial_cmp(&b.1).expect("finite load"))
        .then(a.2.cmp(&b.2))
        .is_lt()
}

fn criticality(g: &SwGraph, n: NodeIdx) -> u32 {
    g.node(n).expect("valid index").attributes.criticality.0
}

fn throughput_of(g: &SwGraph, n: NodeIdx) -> f64 {
    g.node(n).expect("valid index").attributes.throughput.0
}

fn timing_job(g: &SwGraph, n: NodeIdx) -> Option<Job> {
    g.node(n)
        .expect("valid index")
        .attributes
        .timing
        .map(|t| t.to_job(n.index() as JobId))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::SwGraphBuilder;
    use fcm_core::{AttributeSet, ImportanceWeights};

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    /// Three singleton clusters (r_a, r_b replicas; low) mapped onto a
    /// 4-node platform, leaving hw3 free.
    fn replica_system() -> (SwGraph, Clustering, Mapping, HwGraph) {
        let mut b = SwGraphBuilder::new();
        let ra = b.add_process("r_a", attrs(9));
        let rb = b.add_process("r_b", attrs(9));
        let _low = b.add_process("low", attrs(1));
        b.mark_replicas(&[ra, rb]).unwrap();
        let g = b.build();
        let hw = HwGraph::complete(4);
        let c = Clustering::singletons(&g);
        let m = crate::mapping::approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        (g, c, m, hw)
    }

    fn host_of(m: &Mapping, c: &Clustering, sw: NodeIdx) -> NodeIdx {
        let ci = c
            .clusters()
            .iter()
            .position(|grp| grp.contains(&sw))
            .unwrap();
        m.hw_of(ci).unwrap()
    }

    #[test]
    fn victim_avoids_its_replicas_host() {
        let (g, c, m, hw) = replica_system();
        let (ra, rb) = (NodeIdx(0), NodeIdx(1));
        let dead = host_of(&m, &c, ra);
        let peer = host_of(&m, &c, rb);
        let out = remap(&g, &c, &m, &hw, dead, ShedPolicy::Never).unwrap();
        assert_eq!(out.moved, vec![ra]);
        assert!(out.shed.is_empty());
        assert!(!out.degraded);
        let (_, dest) = out.placement[0];
        let dest = dest.unwrap();
        assert_ne!(dest, peer, "replicas may not share a node");
        assert_ne!(dest, dead);
    }

    #[test]
    fn idle_dead_node_is_a_no_op() {
        let (g, c, m, hw) = replica_system();
        // hw3 hosts no cluster in a 3-cluster mapping on 4 nodes.
        let used: Vec<NodeIdx> = m.iter().map(|(_, h)| h).collect();
        let idle = (0..4).map(NodeIdx).find(|h| !used.contains(h)).unwrap();
        let out = remap(&g, &c, &m, &hw, idle, ShedPolicy::Never).unwrap();
        assert!(out.placement.is_empty());
        assert!(!out.degraded);
        // Out-of-range dead node errors.
        assert!(matches!(
            remap(&g, &c, &m, &hw, NodeIdx(9), ShedPolicy::Never),
            Err(AllocError::UnknownHwNode { index: 9 })
        ));
    }

    #[test]
    fn infeasible_without_shedding_errors_and_sheds_with_policy() {
        // Two nodes only: r_a and r_b replicas on hw0/hw1. Killing hw0
        // leaves r_a placeable only beside r_b — forbidden.
        let mut b = SwGraphBuilder::new();
        let ra = b.add_process("r_a", attrs(9));
        let rb = b.add_process("r_b", attrs(9));
        b.mark_replicas(&[ra, rb]).unwrap();
        let g = b.build();
        let hw = HwGraph::complete(2);
        let c = Clustering::singletons(&g);
        let m = crate::mapping::approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        let dead = host_of(&m, &c, ra);
        assert!(matches!(
            remap(&g, &c, &m, &hw, dead, ShedPolicy::Never),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
        // Separation conflicts cannot be shed away either: the replica
        // is protected (criticality 9 ≥ 5), so degraded mode also fails…
        assert!(matches!(
            remap(
                &g,
                &c,
                &m,
                &hw,
                dead,
                ShedPolicy::ShedBelow { critical_at: 5 }
            ),
            Err(AllocError::NoFeasibleMapping { .. })
        ));
        // …but with the threshold above the replicas' criticality the
        // victim itself is sheddable and the system degrades.
        let out = remap(
            &g,
            &c,
            &m,
            &hw,
            dead,
            ShedPolicy::ShedBelow { critical_at: 10 },
        )
        .unwrap();
        assert_eq!(out.shed, vec![ra]);
        assert!(out.degraded);
        assert!(out.moved.is_empty());
    }

    #[test]
    fn admission_rejects_a_timing_conflict() {
        // victim and survivor both need [0,6]×4: unschedulable together.
        let mut b = SwGraphBuilder::new();
        let v = b.add_process("v", attrs(8).with_timing(0, 6, 4));
        let s = b.add_process("s", attrs(8).with_timing(0, 6, 4));
        let free = b.add_process("f", attrs(1));
        let g = b.build();
        let hw = HwGraph::complete(3);
        let c = Clustering::singletons(&g);
        let m = crate::mapping::approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        let dead = host_of(&m, &c, v);
        let out = remap(&g, &c, &m, &hw, dead, ShedPolicy::Never).unwrap();
        let (_, dest) = out.placement[0];
        // v landed beside `f` (or alone), never beside `s`.
        assert_ne!(dest.unwrap(), host_of(&m, &c, s));
        let _ = free;
    }

    #[test]
    fn critical_victim_displaces_sheddable_load() {
        // One survivor, full window: critical victim must displace the
        // low-criticality member to fit.
        let mut b = SwGraphBuilder::new();
        let v = b.add_process("v", attrs(9).with_timing(0, 6, 4));
        let low = b.add_process("low", attrs(1).with_timing(0, 6, 4));
        let g = b.build();
        let hw = HwGraph::complete(2);
        let c = Clustering::singletons(&g);
        let m = crate::mapping::approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        let dead = host_of(&m, &c, v);
        // Without shedding: no room.
        assert!(remap(&g, &c, &m, &hw, dead, ShedPolicy::Never).is_err());
        let out = remap(
            &g,
            &c,
            &m,
            &hw,
            dead,
            ShedPolicy::ShedBelow { critical_at: 5 },
        )
        .unwrap();
        assert_eq!(out.moved, vec![v]);
        assert_eq!(out.shed, vec![low]);
        assert!(out.degraded);
        assert_eq!(out.placement[0].1, Some(host_of(&m, &c, low)));
    }

    #[test]
    fn placement_never_violates_admission_or_separation() {
        // Property-style sweep over every possible dead node of the
        // replica system: re-check all constraints on the outcome.
        let (g, c, m, hw) = replica_system();
        for dead in (0..hw.len()).map(NodeIdx) {
            let Ok(out) = remap(
                &g,
                &c,
                &m,
                &hw,
                dead,
                ShedPolicy::ShedBelow { critical_at: 10 },
            ) else {
                continue;
            };
            // Rebuild final membership: original clusters on survivors
            // minus shed, plus moved victims.
            let mut members: Vec<Vec<NodeIdx>> = vec![Vec::new(); hw.len()];
            for (ci, h) in m.iter() {
                if h != dead {
                    for &swn in &c.clusters()[ci] {
                        if !out.shed.contains(&swn) {
                            members[h.index()].push(swn);
                        }
                    }
                }
            }
            for &(swn, dest) in &out.placement {
                if let Some(h) = dest {
                    members[h.index()].push(swn);
                }
            }
            for (h, group) in members.iter().enumerate() {
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        assert!(!separated(&g, a, b), "separation violated on hw{h}");
                    }
                }
                let jobs: Vec<Job> = group.iter().filter_map(|&n| timing_job(&g, n)).collect();
                assert!(
                    Admission::with_baseline(&jobs).is_some(),
                    "infeasible job set on hw{h}"
                );
            }
        }
    }
}
