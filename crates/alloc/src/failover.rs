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
//!
//! [`Placement`] is the one placement engine: [`remap`] builds it from a
//! clustering and mapping and fails one node, and the online service
//! keeps one live, placing, failing and restoring through it.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use fcm_graph::NodeIdx;
use fcm_sched::{Admission, Job, JobId};

use crate::cluster::Clustering;
use crate::error::AllocError;
use crate::hw::{HwGraph, HwNode};
use crate::mapping::Mapping;
use crate::sw::{SwEdge, SwGraph, SwNode};

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

/// Why a host assignment is not a valid [`Placement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidPlacement {
    /// A SW node is hosted on a failed HW node.
    OnDownNode {
        /// The hosted SW node.
        sw: NodeIdx,
        /// The failed HW node.
        hw: NodeIdx,
    },
    /// The members of a HW node are not EDF-feasible together.
    Infeasible {
        /// The overloaded HW node.
        hw: NodeIdx,
    },
    /// A SW node breaks a hard constraint of its HW node.
    Breaks {
        /// The SW node.
        sw: NodeIdx,
        /// Its HW node.
        hw: NodeIdx,
        /// The constraint it breaks.
        constraint: HardConstraint,
    },
}

/// A hard placement constraint, as one SW node breaks it on one HW node
/// — what [`Placement::best_host`] never breaks and shedding never
/// relaxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HardConstraint {
    /// The SW node needs this resource, which the HW node lacks.
    Resource(String),
    /// The SW node is pinned to this other HW node.
    Pin(String),
    /// The SW node shares the HW node with this replica or
    /// anti-affinity peer.
    Separation(NodeIdx),
    /// The SW node's throughput takes the HW node past its capacity.
    Capacity,
}

/// Which hard constraint a placement would break (details are looked up
/// only when a placement is refused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Resource,
    Pin,
    Separation,
    Capacity,
}

/// Live placement of SW nodes on HW nodes: per HW node the members, an
/// exact [`Admission`] controller (job id = SW node index) and the
/// summed throughput, plus the set of failed HW nodes, which host
/// nothing and receive nothing.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Per HW node, by index.
    hosts: Vec<Host>,
    /// Host per SW node, by index; `None` = unhosted (shed or unplaced).
    host_of: Vec<Option<NodeIdx>>,
    down: BTreeSet<NodeIdx>,
}

#[derive(Debug, Clone, Default)]
struct Host {
    members: Vec<NodeIdx>,
    admission: Admission,
    throughput: f64,
    /// Members per replica group, per separation group and per
    /// criticality: what the separation test and the co-location burden
    /// read, in O(groups) instead of O(members).
    replicas: BTreeMap<u32, u64>,
    separations: BTreeMap<u32, u64>,
    crits: BTreeMap<u32, u64>,
}

impl Host {
    /// A host carrying `members`; `None` when their jobs are not
    /// EDF-feasible together.
    fn new(g: &SwGraph, members: Vec<NodeIdx>) -> Option<Host> {
        let jobs: Vec<Job> = members.iter().filter_map(|&m| timing_job(g, m)).collect();
        let admission = Admission::with_baseline(&jobs)?;
        let throughput = members.iter().map(|&m| throughput_of(g, m)).sum();
        let mut host = Host {
            members: Vec::new(),
            admission,
            throughput,
            ..Host::default()
        };
        for &m in &members {
            host.count(sw_node(g, m), true);
        }
        host.members = members;
        Some(host)
    }

    /// Counts `sw` in (`join`) or out of the per-group tallies.
    fn count(&mut self, sw: &SwNode, join: bool) {
        fn tally(map: &mut BTreeMap<u32, u64>, key: u32, join: bool) {
            let n = map.entry(key).or_insert(0);
            if join {
                *n += 1;
            } else {
                *n -= 1;
                if *n == 0 {
                    map.remove(&key);
                }
            }
        }
        if let Some(r) = sw.replica_group {
            tally(&mut self.replicas, r, join);
        }
        if let Some(sg) = sw.separation_group {
            tally(&mut self.separations, sg, join);
        }
        tally(&mut self.crits, sw.attributes.criticality.0, join);
    }

    /// Releases member `m`: its admission job, its group counts and its
    /// share of the throughput. The throughput is re-summed over the
    /// remaining members, never subtracted, so it reads bit for bit what
    /// [`Host::new`] over the same members reads.
    fn release(&mut self, g: &SwGraph, m: NodeIdx) {
        self.members.retain(|&u| u != m);
        self.admission.release(m.index() as JobId);
        self.count(sw_node(g, m), false);
        self.throughput = self.members.iter().map(|&u| throughput_of(g, u)).sum();
    }

    /// Whether a member shares `sw`'s replica or separation tag.
    fn has_tagged_peer(&self, sw: &SwNode) -> bool {
        sw.replica_group
            .is_some_and(|r| self.replicas.contains_key(&r))
            || sw
                .separation_group
                .is_some_and(|sg| self.separations.contains_key(&sg))
    }

    /// The criticality co-location burden of adding a node of
    /// criticality `crit_v`: Σ over members of min(crit_v, crit_m), as
    /// exact integer arithmetic over the per-criticality counts.
    fn burden(&self, crit_v: u32) -> u64 {
        self.crits
            .iter()
            .map(|(&c, &k)| k * u64::from(crit_v.min(c)))
            .sum()
    }
}

impl Placement {
    /// Builds the placement of `g` on `hw` from a host per SW node, with
    /// the `down` HW nodes failed. Members are listed in SW index order.
    /// Every hard constraint [`Placement::best_host`] enforces must hold:
    /// members join their host in SW index order and each must pass the
    /// same predicate against the members before it.
    ///
    /// # Errors
    ///
    /// The first SW node hosted on a down node, else the first HW node
    /// whose members' jobs are not EDF-feasible together, else the first
    /// member (HW node by HW node, in SW index order) that breaks a hard
    /// constraint: a missing resource, a pin elsewhere, a replica or
    /// anti-affinity peer on the node, or the node's capacity.
    ///
    /// # Panics
    ///
    /// When a host is not a node of `hw`.
    pub fn new(
        g: &SwGraph,
        hw: &HwGraph,
        host_of: Vec<Option<NodeIdx>>,
        down: BTreeSet<NodeIdx>,
    ) -> Result<Placement, InvalidPlacement> {
        let placement = Placement::build(g, hw, host_of, down)?;
        for (h, host) in placement.hosts.iter().enumerate() {
            let h = NodeIdx(h);
            let node = hw.node(h).expect("host exists");
            let mut before = Host::default();
            for &v in &host.members {
                let on_host = |u: NodeIdx| u < v && placement.host_of[u.index()] == Some(h);
                if let Err(rule) = fits(g, node, &before, v, on_host) {
                    let sw = sw_node(g, v);
                    let constraint = match rule {
                        Rule::Resource => HardConstraint::Resource(
                            sw.required_resources
                                .difference(&node.resources)
                                .next()
                                .expect("a resource is missing")
                                .clone(),
                        ),
                        Rule::Pin => HardConstraint::Pin(sw.pinned_to.clone().expect("pinned")),
                        Rule::Separation => HardConstraint::Separation(
                            before
                                .members
                                .iter()
                                .copied()
                                .find(|&m| separated(g, v, m))
                                .expect("a peer is on the node"),
                        ),
                        Rule::Capacity => HardConstraint::Capacity,
                    };
                    return Err(InvalidPlacement::Breaks {
                        sw: v,
                        hw: h,
                        constraint,
                    });
                }
                before.throughput += throughput_of(g, v);
                before.count(sw_node(g, v), true);
                before.members.push(v);
            }
        }
        Ok(placement)
    }

    /// [`Placement::new`] without the hard-constraint checks: what
    /// [`remap`] builds from a clustering and mapping that the mapping
    /// layer has already validated.
    fn build(
        g: &SwGraph,
        hw: &HwGraph,
        host_of: Vec<Option<NodeIdx>>,
        down: BTreeSet<NodeIdx>,
    ) -> Result<Placement, InvalidPlacement> {
        let mut members = vec![Vec::new(); hw.len()];
        for (v, &h) in host_of.iter().enumerate() {
            if let Some(h) = h {
                if down.contains(&h) {
                    return Err(InvalidPlacement::OnDownNode {
                        sw: NodeIdx(v),
                        hw: h,
                    });
                }
                members[h.index()].push(NodeIdx(v));
            }
        }
        let hosts = members
            .into_iter()
            .enumerate()
            .map(|(h, m)| Host::new(g, m).ok_or(InvalidPlacement::Infeasible { hw: NodeIdx(h) }))
            .collect::<Result<_, _>>()?;
        Ok(Placement {
            hosts,
            host_of,
            down,
        })
    }

    /// Host per SW node, by index; `None` = unhosted.
    #[must_use]
    pub fn host_of(&self) -> &[Option<NodeIdx>] {
        &self.host_of
    }

    /// The failed HW nodes.
    #[must_use]
    pub fn down(&self) -> &BTreeSet<NodeIdx> {
        &self.down
    }

    /// The SW nodes hosted on `h`.
    #[must_use]
    pub fn members(&self, h: NodeIdx) -> &[NodeIdx] {
        &self.hosts[h.index()].members
    }

    /// The admission controller of `h`.
    #[must_use]
    pub fn admission(&self, h: NodeIdx) -> &Admission {
        &self.hosts[h.index()].admission
    }

    /// The summed throughput of the members of `h`.
    #[must_use]
    pub fn throughput(&self, h: NodeIdx) -> f64 {
        self.hosts[h.index()].throughput
    }

    fn up(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.hosts.len())
            .map(NodeIdx)
            .filter(|h| !self.down.contains(h))
    }

    /// The best live host for `v`: among the up nodes that meet the hard
    /// constraints and admit its job, the one with the lowest
    /// (criticality co-location burden, resulting load, index). `None`
    /// when no host fits. O(hosts · groups + degree of `v`).
    #[must_use]
    pub fn best_host(&self, g: &SwGraph, hw: &HwGraph, v: NodeIdx) -> Option<NodeIdx> {
        let crit_v = criticality(g, v);
        let job = timing_job(g, v);
        let mut best: Option<(NodeIdx, HostScore)> = None;
        for h in self.up() {
            if !self.hard_constraints_ok(g, hw, h, v) || !admits(self.admission(h), job) {
                continue;
            }
            let score = self.host_score(g, h, v, crit_v);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((h, score));
            }
        }
        best.map(|(h, _)| h)
    }

    /// Commits `v` to host `h`, which must admit it. `v` may be the SW
    /// node just added to `g`, one past the last the placement knows.
    pub fn commit(&mut self, g: &SwGraph, v: NodeIdx, h: NodeIdx) {
        let host = &mut self.hosts[h.index()];
        if let Some(job) = timing_job(g, v) {
            let ok = host.admission.try_admit(job);
            debug_assert!(ok, "probe admitted but commit failed");
        }
        host.throughput += throughput_of(g, v);
        host.count(sw_node(g, v), true);
        host.members.push(v);
        if v.index() == self.host_of.len() {
            self.host_of.push(None);
        }
        self.host_of[v.index()] = Some(h);
    }

    /// Re-admits the host of `v` after `v`'s attributes changed in `g`:
    /// only that host's members changed, so only it can stop fitting.
    /// Rebuilds its admission, throughput and counts; an unhosted `v` is
    /// a no-op.
    ///
    /// # Errors
    ///
    /// [`InvalidPlacement::Infeasible`] when the members are no longer
    /// EDF-feasible together, [`InvalidPlacement::Breaks`] with
    /// [`HardConstraint::Capacity`] when they exceed the node's capacity.
    /// The placement is then left untouched.
    pub fn readmit(
        &mut self,
        g: &SwGraph,
        hw: &HwGraph,
        v: NodeIdx,
    ) -> Result<(), InvalidPlacement> {
        let Some(h) = self.host_of[v.index()] else {
            return Ok(());
        };
        let host =
            Host::new(g, self.members(h).to_vec()).ok_or(InvalidPlacement::Infeasible { hw: h })?;
        if host.throughput > hw.node(h).expect("host exists").capacity {
            return Err(InvalidPlacement::Breaks {
                sw: v,
                hw: h,
                constraint: HardConstraint::Capacity,
            });
        }
        self.hosts[h.index()] = host;
        Ok(())
    }

    /// Removes SW node `v`, which `g` still holds, and closes the index
    /// gap the way [`fcm_graph::DiGraph::remove_node`] does: every later
    /// SW node's index, in the host list, the members and the admission
    /// job ids, drops by one. `v`'s host releases it and re-sums its
    /// throughput; no other host changes. O(SW nodes), without a rebuild.
    pub fn remove(&mut self, g: &SwGraph, v: NodeIdx) {
        if let Some(h) = self.host_of.remove(v.index()) {
            self.hosts[h.index()].release(g, v);
        }
        let cut = v.index() as JobId;
        for host in &mut self.hosts {
            for m in &mut host.members {
                m.0 -= usize::from(*m > v);
            }
            host.admission.relabel(|id| id - JobId::from(id > cut));
        }
    }

    /// Fails HW node `dead`: marks it down, evicts its members and
    /// re-places them most critical first; `policy` governs shedding and
    /// displacement.
    ///
    /// # Errors
    ///
    /// The first protected victim that fits nowhere, even by displacing
    /// sheddable load. The placement is then left part-way, so callers
    /// that must stay whole fail a clone.
    pub fn fail(
        &mut self,
        g: &SwGraph,
        hw: &HwGraph,
        dead: NodeIdx,
        policy: ShedPolicy,
    ) -> Result<FailoverOutcome, NodeIdx> {
        self.down.insert(dead);
        let mut victims = std::mem::take(&mut self.hosts[dead.index()]).members;
        for &v in &victims {
            self.host_of[v.index()] = None;
        }
        by_criticality(g, &mut victims);
        let mut placement = Vec::with_capacity(victims.len());
        let mut shed = Vec::new();
        for v in victims {
            placement.push((v, self.place(g, hw, v, policy, &mut shed)?));
        }
        let moved = placement
            .iter()
            .filter_map(|&(v, d)| d.map(|_| v))
            .collect();
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

    /// Brings `h` back up; `false` when it was not down. Its former
    /// load stays where failover put it: re-place the unhosted with
    /// [`Placement::place_unhosted`].
    pub fn restore(&mut self, h: NodeIdx) -> bool {
        self.down.remove(&h)
    }

    /// Places every unhosted SW node, most critical first, on its
    /// [`Placement::best_host`]. Returns the placed `(sw, hw)` pairs and
    /// the SW nodes that fit nowhere, both in placement order.
    pub fn place_unhosted(
        &mut self,
        g: &SwGraph,
        hw: &HwGraph,
    ) -> (Vec<(NodeIdx, NodeIdx)>, Vec<NodeIdx>) {
        let mut unhosted: Vec<NodeIdx> = (0..self.host_of.len())
            .map(NodeIdx)
            .filter(|v| self.host_of[v.index()].is_none())
            .collect();
        by_criticality(g, &mut unhosted);
        let mut placed = Vec::new();
        let mut unplaced = Vec::new();
        for v in unhosted {
            match self.best_host(g, hw, v) {
                Some(h) => {
                    self.commit(g, v, h);
                    placed.push((v, h));
                }
                None => unplaced.push(v),
            }
        }
        (placed, unplaced)
    }

    /// Places one victim on its best host. Failing that, an unprotected
    /// victim is shed (`Ok(None)`) and a protected one displaces
    /// sheddable members from the host needing the fewest displaced
    /// (host score breaks ties); `Err(v)` when no host can take it.
    /// Shed and displaced nodes are appended to `shed`.
    fn place(
        &mut self,
        g: &SwGraph,
        hw: &HwGraph,
        v: NodeIdx,
        policy: ShedPolicy,
        shed: &mut Vec<NodeIdx>,
    ) -> Result<Option<NodeIdx>, NodeIdx> {
        if let Some(h) = self.best_host(g, hw, v) {
            self.commit(g, v, h);
            return Ok(Some(h));
        }
        let crit_v = criticality(g, v);
        if policy.may_shed(crit_v) {
            shed.push(v);
            return Ok(None);
        }
        let mut best: Option<(NodeIdx, Vec<NodeIdx>, HostScore)> = None;
        for h in self.up() {
            if !self.hard_constraints_ok(g, hw, h, v) {
                continue;
            }
            if let Some(displaced) = self.displacement_plan(g, hw, h, v, policy) {
                let score = self.host_score(g, h, v, crit_v);
                let better = best.as_ref().is_none_or(|(_, d, s)| {
                    displaced.len() < d.len() || (displaced.len() == d.len() && score < *s)
                });
                if better {
                    best = Some((h, displaced, score));
                }
            }
        }
        let (h, displaced, _) = best.ok_or(v)?;
        for d in displaced {
            self.hosts[h.index()].release(g, d);
            self.host_of[d.index()] = None;
            shed.push(d);
        }
        self.commit(g, v, h);
        Ok(Some(h))
    }

    /// The sheddable members of `h` (lowest criticality first) whose
    /// removal lets `v` fit under capacity and admission; `None` when
    /// even shedding everything allowed does not help.
    fn displacement_plan(
        &self,
        g: &SwGraph,
        hw: &HwGraph,
        h: NodeIdx,
        v: NodeIdx,
        policy: ShedPolicy,
    ) -> Option<Vec<NodeIdx>> {
        let host = &self.hosts[h.index()];
        let mut sheddable: Vec<NodeIdx> = host
            .members
            .iter()
            .copied()
            .filter(|&m| policy.may_shed(criticality(g, m)))
            .collect();
        sheddable.sort_by_key(|&m| (criticality(g, m), m));
        let capacity = hw.node(h).expect("host exists").capacity;
        let mut removed = Vec::new();
        let mut host = host.clone();
        for m in sheddable {
            removed.push(m);
            host.release(g, m);
            let fits = host.throughput + throughput_of(g, v) <= capacity
                && admits(&host.admission, timing_job(g, v));
            if fits {
                return Some(removed);
            }
        }
        None
    }

    /// Whether unhosted `v` meets every hard constraint on `h`, against
    /// its live members.
    fn hard_constraints_ok(&self, g: &SwGraph, hw: &HwGraph, h: NodeIdx, v: NodeIdx) -> bool {
        let on_host = |u: NodeIdx| self.host_of.get(u.index()) == Some(&Some(h));
        fits(
            g,
            hw.node(h).expect("host exists"),
            &self.hosts[h.index()],
            v,
            on_host,
        )
        .is_ok()
    }

    fn host_score(&self, g: &SwGraph, h: NodeIdx, v: NodeIdx, crit_v: u32) -> HostScore {
        // Criticality co-location burden: pairing two highly critical
        // FCMs on one node is what the original heuristics avoid, so
        // prefer the host minimising Σ min(crit_v, crit_member).
        let host = &self.hosts[h.index()];
        (
            host.burden(crit_v),
            host.throughput + throughput_of(g, v),
            h.index(),
        )
    }
}

/// Anti-affinity, resources, pin and capacity — the constraints that no
/// amount of shedding relaxes (shedding only frees CPU time and
/// throughput; separation conflicts involve protected replicas too, so
/// they are treated as hard here): `Err` names the first that `v` would
/// break by joining `host` on `node`. `on_host(u)` says whether SW node
/// `u` is among the host's members, for `v`'s replica links.
fn fits(
    g: &SwGraph,
    node: &HwNode,
    host: &Host,
    v: NodeIdx,
    on_host: impl Fn(NodeIdx) -> bool,
) -> Result<(), Rule> {
    let sw = sw_node(g, v);
    if !sw.required_resources.is_subset(&node.resources) {
        return Err(Rule::Resource);
    }
    if sw.pinned_to.as_ref().is_some_and(|pin| pin != &node.name) {
        return Err(Rule::Pin);
    }
    let linked = g.out_edges(v).chain(g.in_edges(v)).any(|(_, e)| {
        matches!(e.weight, SwEdge::ReplicaLink) && on_host(if e.from == v { e.to } else { e.from })
    });
    if host.has_tagged_peer(sw) || linked {
        return Err(Rule::Separation);
    }
    let load = host.throughput + sw.attributes.throughput.0;
    if load.partial_cmp(&node.capacity).is_none_or(Ordering::is_gt) {
        return Err(Rule::Capacity);
    }
    Ok(())
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
    let mut host_of = vec![None; g.node_count()];
    for (ci, h) in mapping.iter() {
        for &v in &clustering.clusters()[ci] {
            host_of[v.index()] = Some(h);
        }
    }
    let mut placement = Placement::build(g, hw, host_of, BTreeSet::new()).map_err(|e| {
        let InvalidPlacement::Infeasible { hw: h } = e else {
            unreachable!("no node is down yet")
        };
        AllocError::NoFeasibleMapping {
            reason: format!(
                "surviving node {} carries an infeasible baseline",
                hw.node(h).expect("mapped node").name
            ),
        }
    })?;
    placement
        .fail(g, hw, dead, policy)
        .map_err(|v| unplaceable(g, v))
}

/// The error for a protected victim `v` that failover cannot re-place.
#[must_use]
pub fn unplaceable(g: &SwGraph, v: NodeIdx) -> AllocError {
    let sw = g.node(v).expect("victim exists");
    AllocError::NoFeasibleMapping {
        reason: format!(
            "failover cannot re-place {} (criticality {}) on any survivor",
            sw.name, sw.attributes.criticality.0
        ),
    }
}

/// Sorts most critical first; index breaks ties deterministically.
fn by_criticality(g: &SwGraph, nodes: &mut [NodeIdx]) {
    nodes.sort_by_key(|&v| (std::cmp::Reverse(criticality(g, v)), v));
}

/// Whether `a` and `b` may never share a node: replica/separation tags,
/// or an explicit 0-weight replica link in either direction.
#[must_use]
pub fn separated(g: &SwGraph, a: NodeIdx, b: NodeIdx) -> bool {
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

/// Whether `admission` takes `job`; no timing constraint always fits.
fn admits(admission: &Admission, job: Option<Job>) -> bool {
    job.is_none_or(|job| admission.would_admit(job))
}

/// Host preference score, compared lexicographically: (criticality
/// co-location burden, load, index). Loads are finite.
type HostScore = (u64, f64, usize);

fn sw_node(g: &SwGraph, n: NodeIdx) -> &SwNode {
    g.node(n).expect("valid index")
}

fn criticality(g: &SwGraph, n: NodeIdx) -> u32 {
    sw_node(g, n).attributes.criticality.0
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
    fn displacement_re_sums_the_hosts_throughput() {
        // hw1 carries `keep` (0.1) and `low` (0.2); the critical victim
        // from hw0 displaces `low`. Subtracting would leave
        // 0.1 + 0.2 - 0.2 = 0.10000000000000003 on hw1.
        let mut b = SwGraphBuilder::new();
        let v = b.add_process("v", attrs(9).with_timing(0, 6, 4));
        let keep = b.add_process("keep", attrs(9).with_throughput(0.1));
        let low = b.add_process("low", attrs(1).with_throughput(0.2).with_timing(0, 6, 4));
        let g = b.build();
        let hw = HwGraph::complete(2);
        let (hw0, hw1) = (NodeIdx(0), NodeIdx(1));
        let mut p = Placement::new(
            &g,
            &hw,
            vec![Some(hw0), Some(hw1), Some(hw1)],
            BTreeSet::new(),
        )
        .unwrap();
        let out = p
            .fail(&g, &hw, hw0, ShedPolicy::ShedBelow { critical_at: 5 })
            .unwrap();
        assert_eq!(out.shed, vec![low]);
        assert_eq!(p.host_of(), &[Some(hw1), Some(hw1), None]);
        assert_eq!(p.members(hw1), &[keep, v]);
        assert_eq!(p.throughput(hw1).to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn new_refuses_every_broken_hard_constraint_and_names_it() {
        // r_a/r_b replicas; `pinned` pinned to hw1; `radio` needs the
        // radio on hw2; `heavy` carries 3 of hw0's capacity of 4.
        let mut b = SwGraphBuilder::new();
        let ra = b.add_process("r_a", attrs(9));
        let rb = b.add_process("r_b", attrs(9));
        let pinned = b.add_process("pinned", attrs(1));
        let radio = b.add_process("radio", attrs(1));
        let heavy = b.add_process("heavy", attrs(1).with_throughput(3.0));
        b.mark_replicas(&[ra, rb]).unwrap();
        b.pin_to_hw(pinned, "hw1").unwrap();
        let mut g = b.build();
        g.node_mut(radio)
            .unwrap()
            .required_resources
            .insert("radio".to_string());
        let hw = HwGraph::new(
            vec![
                HwNode::new("hw0").with_capacity(4.0),
                HwNode::new("hw1"),
                HwNode::new("hw2").with_resource("radio"),
            ],
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
        );
        let place = |g: &SwGraph, hosts: [usize; 5]| {
            Placement::new(
                g,
                &hw,
                hosts.iter().map(|&h| Some(NodeIdx(h))).collect(),
                BTreeSet::new(),
            )
        };
        let breaks = |sw: NodeIdx, h: usize, constraint| {
            Err(InvalidPlacement::Breaks {
                sw,
                hw: NodeIdx(h),
                constraint,
            })
        };
        assert!(place(&g, [0, 1, 1, 2, 0]).is_ok());
        assert_eq!(
            place(&g, [0, 0, 1, 2, 0]).map(|_| ()),
            breaks(rb, 0, HardConstraint::Separation(ra))
        );
        assert_eq!(
            place(&g, [0, 1, 2, 2, 0]).map(|_| ()),
            breaks(pinned, 2, HardConstraint::Pin("hw1".to_string()))
        );
        assert_eq!(
            place(&g, [0, 1, 1, 1, 0]).map(|_| ()),
            breaks(radio, 1, HardConstraint::Resource("radio".to_string()))
        );
        g.node_mut(ra).unwrap().attributes.throughput.0 = 2.0;
        assert_eq!(
            place(&g, [0, 1, 1, 2, 0]).map(|_| ()),
            breaks(heavy, 0, HardConstraint::Capacity)
        );
        // `remap` builds from a mapping the mapping layer validates and
        // does not re-check it: hw0 is over capacity here, and failing
        // it still re-places its load.
        let c = Clustering::singletons(&g);
        let m = Mapping::from_assignment([0, 1, 1, 2, 0].map(NodeIdx).to_vec());
        assert!(remap(&g, &c, &m, &hw, NodeIdx(0), ShedPolicy::Never).is_ok());
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
