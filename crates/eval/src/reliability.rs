//! Monte-Carlo mission reliability of an integrated mapping.
//!
//! The paper argues (§5.3, §6.2) that a good mapping (a) co-locates
//! strongly influencing FCMs so faults stay inside one HW fault
//! containment region, and (b) separates critical processes so "the same
//! faults (in HW or SW) affect a minimal number of such processes". This
//! model lets those claims be tested end to end:
//!
//! 1. each HW node fails independently with `p_hw` (taking down every
//!    process mapped to it);
//! 2. each SW process develops a spontaneous fault with `p_sw`;
//! 3. faults propagate along influence edges, sampled per edge — at full
//!    strength within a HW node, attenuated by `cross_node_attenuation`
//!    across nodes (node boundaries are HW FCRs: separate memory,
//!    separate CPU);
//! 4. a *module* fails when all its replicas fail; the **mission** fails
//!    when any critical module (criticality ≥ threshold) fails.
//!
//! # Repairable-system mode
//!
//! [`RepairableModel`] extends the mission model with the recovery
//! machinery of the run-time subsystem: watchdog detection with imperfect
//! *coverage*, transient-vs-permanent HW faults, checkpoint/retry,
//! failover re-placement (via [`fcm_alloc::failover`]) and degraded-mode
//! shedding. The four [`RecoveryPolicy`] levels are *coupled* by common
//! random numbers: every trial pre-samples all of its uniforms in a fixed
//! order before any policy logic runs, and each stronger policy can only
//! shrink the set of failed processes in that trial. Mission reliability
//! is therefore monotone in the policy — `None ≤ RetryOnly ≤ Failover ≤
//! FailoverShed` — pointwise per trial, at every fault rate.

use fcm_substrate::rng::Rng;

use fcm_alloc::failover::{self, ShedPolicy};
use fcm_alloc::hw::HwGraph;
use fcm_alloc::sw::SwEdge;
use fcm_alloc::{Clustering, Mapping, SwGraph};
use fcm_graph::NodeIdx;

/// Model parameters for the reliability simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityModel {
    /// Per-mission HW node failure probability.
    pub p_hw: f64,
    /// Per-mission spontaneous SW fault probability (per process).
    pub p_sw: f64,
    /// Multiplier on influence for propagation across HW nodes
    /// (`1.0` = node boundaries contain nothing, `0.0` = perfect FCRs).
    pub cross_node_attenuation: f64,
    /// Criticality threshold defining the mission-critical modules.
    pub critical_at: u32,
    /// Number of Monte-Carlo missions.
    pub trials: u64,
    /// Base RNG seed (trial `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for ReliabilityModel {
    fn default() -> Self {
        ReliabilityModel {
            p_hw: 0.02,
            p_sw: 0.05,
            cross_node_attenuation: 0.2,
            critical_at: 5,
            trials: 10_000,
            seed: 42,
        }
    }
}

/// The outcome of a reliability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityEstimate {
    /// Estimated mission failure probability.
    pub mission_failure: f64,
    /// Mean number of failed processes per mission.
    pub mean_failed_processes: f64,
    /// Trials run.
    pub trials: u64,
}

impl fcm_substrate::ToJson for ReliabilityEstimate {
    fn to_json(&self) -> fcm_substrate::Json {
        fcm_substrate::Json::object()
            .set("mission_failure", self.mission_failure)
            .set("mean_failed_processes", self.mean_failed_processes)
            .set("trials", self.trials)
    }
}

impl ReliabilityModel {
    /// Runs the model against a concrete clustering + mapping.
    ///
    /// Trials run in parallel; the result is deterministic in the seed.
    pub fn evaluate(
        &self,
        g: &SwGraph,
        clustering: &Clustering,
        mapping: &Mapping,
    ) -> ReliabilityEstimate {
        let Topology {
            host,
            modules,
            edges,
        } = Topology::of(g, clustering, mapping);
        let n = g.node_count();

        // Trial `i` is seeded `seed + i`, so the totals are independent of
        // how the work-stealing pool divides trials among threads.
        let trials: Vec<u64> = (0..self.trials).collect();
        let (failures, failed_procs) = fcm_substrate::par_reduce(
            &trials,
            |&trial| {
                let mut rng = Rng::seed_from_u64(self.seed.wrapping_add(trial));
                let failed = self.one_mission(&mut rng, n, &host, &edges);
                let procs = failed.iter().filter(|&&f| f).count() as u64;
                let mission_failed = modules.iter().any(|(members, crit)| {
                    *crit >= self.critical_at && members.iter().all(|&m| failed[m])
                });
                (u64::from(mission_failed), procs)
            },
            (0u64, 0u64),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        ReliabilityEstimate {
            mission_failure: failures as f64 / self.trials.max(1) as f64,
            mean_failed_processes: failed_procs as f64 / self.trials.max(1) as f64,
            trials: self.trials,
        }
    }

    /// One mission: returns the per-process failure vector.
    fn one_mission(
        &self,
        rng: &mut Rng,
        n: usize,
        host: &[usize],
        edges: &[(usize, usize, f64)],
    ) -> Vec<bool> {
        let mut failed = vec![false; n];
        // HW node failures.
        let max_host = host.iter().copied().filter(|&h| h != usize::MAX).max();
        let mut hw_failed = vec![false; max_host.map_or(0, |m| m + 1)];
        for h in hw_failed.iter_mut() {
            *h = rng.gen::<f64>() < self.p_hw;
        }
        for (p, f) in failed.iter_mut().enumerate() {
            if host[p] != usize::MAX && hw_failed[host[p]] {
                *f = true;
            }
        }
        // Spontaneous SW faults.
        for f in failed.iter_mut() {
            if !*f && rng.gen::<f64>() < self.p_sw {
                *f = true;
            }
        }
        // Propagation to fixpoint; each edge fires at most once.
        let mut fired = vec![false; edges.len()];
        loop {
            let mut changed = false;
            for (ei, &(from, to, p)) in edges.iter().enumerate() {
                if fired[ei] || !failed[from] || failed[to] {
                    continue;
                }
                fired[ei] = true;
                let strength = if host[from] == host[to] {
                    p
                } else {
                    p * self.cross_node_attenuation
                };
                if rng.gen::<f64>() < strength {
                    failed[to] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        failed
    }
}

/// Shared precomputation: process → HW host, replica modules, influence
/// edges.
struct Topology {
    /// Per process: HW node index, or `usize::MAX` when unmapped.
    host: Vec<usize>,
    /// Module members + criticality (max over members).
    modules: Vec<(Vec<usize>, u32)>,
    /// Influence edges as `(from, to, p)`.
    edges: Vec<(usize, usize, f64)>,
}

impl Topology {
    fn of(g: &SwGraph, clustering: &Clustering, mapping: &Mapping) -> Topology {
        let n = g.node_count();
        let mut host = vec![usize::MAX; n];
        for (ci, cluster) in clustering.clusters().iter().enumerate() {
            let hw = mapping
                .hw_of(ci)
                .expect("mapping covers clustering")
                .index();
            for &p in cluster {
                host[p.index()] = hw;
            }
        }
        // Module = replica group or singleton; record members + criticality.
        let mut modules: Vec<(Vec<usize>, u32)> = Vec::new();
        {
            use std::collections::BTreeMap;
            let mut by_group: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (idx, node) in g.nodes() {
                match node.replica_group {
                    Some(rg) => by_group.entry(rg).or_default().push(idx.index()),
                    None => modules.push((vec![idx.index()], node.attributes.criticality.0)),
                }
            }
            for (_, members) in by_group {
                let crit = members
                    .iter()
                    .map(|&m| {
                        g.node(NodeIdx(m))
                            .expect("member exists")
                            .attributes
                            .criticality
                            .0
                    })
                    .max()
                    .unwrap_or(0);
                modules.push((members, crit));
            }
        }
        let edges: Vec<(usize, usize, f64)> = g
            .edges()
            .filter_map(|(_, e)| match e.weight {
                SwEdge::Influence(p) => Some((e.from.index(), e.to.index(), p)),
                SwEdge::ReplicaLink => None,
            })
            .collect();
        Topology {
            host,
            modules,
            edges,
        }
    }
}

/// The recovery policy levels swept by the E14 experiment, weakest first.
///
/// The declaration order is the strength order: each level includes the
/// machinery of the previous one, so under common random numbers mission
/// reliability is non-decreasing left to right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPolicy {
    /// No recovery: every HW fault kills its processes for the mission.
    None,
    /// Watchdog detection + checkpoint/retry: detected *transient* node
    /// faults recover in place; permanent faults are still fatal.
    RetryOnly,
    /// RetryOnly plus failover: detected *permanent* faults re-place the
    /// stranded FCMs on the survivors ([`ShedPolicy::Never`] — the remap
    /// must fit everything or the node's processes are lost).
    Failover,
    /// Failover plus degraded mode: when the strict remap is infeasible,
    /// sub-critical FCMs are shed ([`ShedPolicy::ShedBelow`] at the
    /// model's `critical_at`) to keep critical service alive.
    FailoverShed,
}

impl RecoveryPolicy {
    /// All policies, weakest first — the E14 sweep order.
    pub const ALL: [RecoveryPolicy; 4] = [
        RecoveryPolicy::None,
        RecoveryPolicy::RetryOnly,
        RecoveryPolicy::Failover,
        RecoveryPolicy::FailoverShed,
    ];

    /// Stable display label (used in tables and JSON artefacts).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::None => "none",
            RecoveryPolicy::RetryOnly => "retry-only",
            RecoveryPolicy::Failover => "failover",
            RecoveryPolicy::FailoverShed => "failover+shedding",
        }
    }
}

/// Repairable-system extension of [`ReliabilityModel`]: HW faults are
/// detected by a watchdog with imperfect coverage, split into transient
/// and permanent, and a [`RecoveryPolicy`] decides what is recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairableModel {
    /// The underlying mission model (fault rates, propagation, trials).
    pub base: ReliabilityModel,
    /// Watchdog coverage: probability a HW fault is detected at all.
    /// Undetected faults are never recovered, under any policy.
    pub coverage: f64,
    /// Fraction of HW faults that are permanent (node dead for the
    /// mission); the rest are transient outages a retry can ride out.
    pub permanent_fraction: f64,
    /// Time from fault to detection (watchdog heartbeat + latency).
    pub detection_latency: f64,
    /// Additional time to recover a transient fault by checkpoint/retry.
    pub retry_time: f64,
    /// Additional time to re-place FCMs after a permanent fault.
    pub failover_time: f64,
}

impl Default for RepairableModel {
    fn default() -> Self {
        RepairableModel {
            base: ReliabilityModel::default(),
            coverage: 0.95,
            permanent_fraction: 0.5,
            detection_latency: 2.0,
            retry_time: 3.0,
            failover_time: 8.0,
        }
    }
}

/// The outcome of a repairable-system reliability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairableEstimate {
    /// Estimated mission failure probability.
    pub mission_failure: f64,
    /// Mean failed processes per mission (shed processes excluded).
    pub mean_failed_processes: f64,
    /// Mean processes shed by degraded mode per mission.
    pub mean_shed_processes: f64,
    /// Mean successful node recoveries (retry or failover) per mission.
    pub mean_recoveries: f64,
    /// Mean time to recover, over all successful recoveries; `None` when
    /// nothing recovered.
    pub mttr: Option<f64>,
    /// Trials run.
    pub trials: u64,
}

impl fcm_substrate::ToJson for RepairableEstimate {
    fn to_json(&self) -> fcm_substrate::Json {
        fcm_substrate::Json::object()
            .set("mission_failure", self.mission_failure)
            .set("mean_failed_processes", self.mean_failed_processes)
            .set("mean_shed_processes", self.mean_shed_processes)
            .set("mean_recoveries", self.mean_recoveries)
            .set("mttr", self.mttr.unwrap_or(0.0))
            .set("trials", self.trials)
    }
}

/// One HW node's precomputed failover plan, flattened for trial-time use.
struct NodePlan {
    /// Per victim: `(process, Some(target hw))` moved, `None` shed.
    placement: Vec<(usize, Option<usize>)>,
    /// Survivor-hosted processes displaced (shed) to admit victims.
    displaced: Vec<usize>,
}

impl RepairableModel {
    /// Runs the repairable mission model under `policy`.
    ///
    /// Trials are seeded exactly as [`ReliabilityModel::evaluate`]
    /// (`seed + trial`), and every trial pre-samples all uniforms in a
    /// fixed order *before* applying policy logic, so different policies
    /// see identical fault worlds (common random numbers). A stronger
    /// policy can only shrink the failed set in each world, which makes
    /// the E14 ordering exact rather than statistical.
    pub fn evaluate(
        &self,
        g: &SwGraph,
        clustering: &Clustering,
        mapping: &Mapping,
        hw: &HwGraph,
        policy: RecoveryPolicy,
    ) -> RepairableEstimate {
        let topo = Topology::of(g, clustering, mapping);
        let n = g.node_count();
        let hw_count = hw.len();

        // Precompute one failover plan per HW node; the shedding plan is
        // the strict plan whenever that one is feasible (identical pass-1
        // scoring), so the coupled policies agree wherever both succeed.
        let plan_for = |shed: ShedPolicy| -> Vec<Option<NodePlan>> {
            (0..hw_count)
                .map(|h| {
                    failover::remap(g, clustering, mapping, hw, NodeIdx(h), shed)
                        .ok()
                        .map(|out| {
                            let victims: Vec<usize> =
                                out.placement.iter().map(|&(v, _)| v.index()).collect();
                            NodePlan {
                                placement: out
                                    .placement
                                    .iter()
                                    .map(|&(v, d)| (v.index(), d.map(NodeIdx::index)))
                                    .collect(),
                                displaced: out
                                    .shed
                                    .iter()
                                    .map(|s| s.index())
                                    .filter(|s| !victims.contains(s))
                                    .collect(),
                            }
                        })
                })
                .collect()
        };
        let strict_plans = plan_for(ShedPolicy::Never);
        let shed_plans = plan_for(ShedPolicy::ShedBelow {
            critical_at: self.base.critical_at,
        });

        let trials: Vec<u64> = (0..self.base.trials).collect();
        let totals = fcm_substrate::par_reduce(
            &trials,
            |&trial| {
                let mut rng = Rng::seed_from_u64(self.base.seed.wrapping_add(trial));
                self.one_mission(
                    &mut rng,
                    n,
                    hw_count,
                    &topo,
                    &strict_plans,
                    &shed_plans,
                    policy,
                )
            },
            MissionTally::default(),
            MissionTally::merge,
        );
        let t = self.base.trials.max(1) as f64;
        RepairableEstimate {
            mission_failure: totals.mission_failures as f64 / t,
            mean_failed_processes: totals.failed as f64 / t,
            mean_shed_processes: totals.shed as f64 / t,
            mean_recoveries: totals.recoveries as f64 / t,
            mttr: (totals.recoveries > 0).then(|| totals.recovery_time / totals.recoveries as f64),
            trials: self.base.trials,
        }
    }

    /// One repairable mission. All randomness is drawn up front in a
    /// fixed order (HW fates, coverage, permanence, SW faults, edge
    /// propagation) so the draw sequence is identical across policies.
    #[allow(clippy::too_many_arguments)]
    fn one_mission(
        &self,
        rng: &mut Rng,
        n: usize,
        hw_count: usize,
        topo: &Topology,
        strict_plans: &[Option<NodePlan>],
        shed_plans: &[Option<NodePlan>],
        policy: RecoveryPolicy,
    ) -> MissionTally {
        // Fixed-order pre-sampling (common random numbers).
        let u_hw: Vec<f64> = (0..hw_count).map(|_| rng.gen::<f64>()).collect();
        let u_cov: Vec<f64> = (0..hw_count).map(|_| rng.gen::<f64>()).collect();
        let u_perm: Vec<f64> = (0..hw_count).map(|_| rng.gen::<f64>()).collect();
        let u_sw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let u_edge: Vec<f64> = (0..topo.edges.len()).map(|_| rng.gen::<f64>()).collect();

        let hw_failed: Vec<bool> = u_hw.iter().map(|&u| u < self.base.p_hw).collect();
        let mut tally = MissionTally::default();
        let mut failed = vec![false; n];
        let mut removed = vec![false; n];

        for h in 0..hw_count {
            if !hw_failed[h] {
                continue;
            }
            let detected = u_cov[h] < self.coverage;
            let permanent = u_perm[h] < self.permanent_fraction;
            // Transient + detected: checkpoint/retry rides it out.
            if detected && !permanent && policy >= RecoveryPolicy::RetryOnly {
                tally.recoveries += 1;
                tally.recovery_time += self.detection_latency + self.retry_time;
                continue;
            }
            // Permanent + detected: failover re-places the victims.
            if detected && permanent && policy >= RecoveryPolicy::Failover {
                let plan = if policy == RecoveryPolicy::FailoverShed {
                    &shed_plans[h]
                } else {
                    &strict_plans[h]
                };
                if let Some(plan) = plan {
                    tally.recoveries += 1;
                    tally.recovery_time += self.detection_latency + self.failover_time;
                    for &(v, dest) in &plan.placement {
                        match dest {
                            // A victim survives on its target unless the
                            // target node failed in this trial too.
                            Some(t) if !hw_failed[t] => {}
                            Some(_) => failed[v] = true,
                            None => removed[v] = true,
                        }
                    }
                    for &d in &plan.displaced {
                        removed[d] = true;
                    }
                    continue;
                }
            }
            // Unrecovered: the node's processes are lost.
            for (f, &host) in failed.iter_mut().zip(&topo.host) {
                if host == h {
                    *f = true;
                }
            }
        }
        // A process is dead before it is shed: failure wins.
        for (r, &f) in removed.iter_mut().zip(&failed) {
            if f {
                *r = false;
            }
        }
        // Spontaneous SW faults — shed processes are offline and immune.
        for ((f, &r), &u) in failed.iter_mut().zip(&removed).zip(&u_sw) {
            if !*f && !r && u < self.base.p_sw {
                *f = true;
            }
        }
        // Propagation to fixpoint over pre-sampled edge uniforms; shed
        // processes neither emit nor receive. Attenuation uses the
        // *original* hosts even for moved victims: edge strengths must be
        // identical across policies, or the common-random-number coupling
        // (and with it the exact policy ordering) would break.
        let mut fired = vec![false; topo.edges.len()];
        loop {
            let mut changed = false;
            for (ei, &(from, to, p)) in topo.edges.iter().enumerate() {
                if fired[ei] || !failed[from] || failed[to] || removed[to] {
                    continue;
                }
                fired[ei] = true;
                let strength = if topo.host[from] == topo.host[to] {
                    p
                } else {
                    p * self.base.cross_node_attenuation
                };
                if u_edge[ei] < strength {
                    failed[to] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        tally.failed = failed.iter().filter(|&&f| f).count() as u64;
        tally.shed = removed.iter().filter(|&&r| r).count() as u64;
        tally.mission_failures = u64::from(topo.modules.iter().any(|(members, crit)| {
            *crit >= self.base.critical_at && members.iter().all(|&m| failed[m])
        }));
        tally
    }
}

/// Per-trial tallies, merged across the trial pool.
#[derive(Debug, Clone, Copy, Default)]
struct MissionTally {
    mission_failures: u64,
    failed: u64,
    shed: u64,
    recoveries: u64,
    recovery_time: f64,
}

impl MissionTally {
    fn merge(a: MissionTally, b: MissionTally) -> MissionTally {
        MissionTally {
            mission_failures: a.mission_failures + b.mission_failures,
            failed: a.failed + b.failed,
            shed: a.shed + b.shed,
            recoveries: a.recoveries + b.recoveries,
            recovery_time: a.recovery_time + b.recovery_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_alloc::{heuristics, hw::HwGraph, mapping, sw::SwGraphBuilder};
    use fcm_core::{AttributeSet, FaultTolerance, ImportanceWeights};

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    fn evaluate_with(
        model: &ReliabilityModel,
        g: &SwGraph,
        clusters: usize,
        hw_nodes: usize,
    ) -> ReliabilityEstimate {
        let clustering = heuristics::h1(g, clusters).unwrap();
        let hw = HwGraph::complete(hw_nodes);
        let m = mapping::approach_a(g, &clustering, &hw, &ImportanceWeights::default()).unwrap();
        model.evaluate(g, &clustering, &m)
    }

    #[test]
    fn zero_fault_rates_mean_zero_failures() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(9));
        let c = b.add_process("b", attrs(1));
        b.add_influence(a, c, 0.5).unwrap();
        let g = b.build();
        let model = ReliabilityModel {
            p_hw: 0.0,
            p_sw: 0.0,
            trials: 500,
            ..ReliabilityModel::default()
        };
        let est = evaluate_with(&model, &g, 2, 2);
        assert_eq!(est.mission_failure, 0.0);
        assert_eq!(est.mean_failed_processes, 0.0);
    }

    #[test]
    fn certain_hw_failure_kills_every_critical_module() {
        let mut b = SwGraphBuilder::new();
        b.add_process("crit", attrs(9));
        let g = b.build();
        let model = ReliabilityModel {
            p_hw: 1.0,
            p_sw: 0.0,
            trials: 100,
            ..ReliabilityModel::default()
        };
        let est = evaluate_with(&model, &g, 1, 1);
        assert_eq!(est.mission_failure, 1.0);
    }

    #[test]
    fn replication_survives_single_node_failures() {
        // A TMR-replicated critical module on 3 nodes: mission fails only
        // when all three replicas' nodes fail — p³ for independent nodes.
        let mut b = SwGraphBuilder::new();
        b.add_process("crit", attrs(9).with_fault_tolerance(FaultTolerance::TMR));
        let ex = fcm_alloc::replication::expand_replicas(&b.build());
        let g = ex.graph;
        let model = ReliabilityModel {
            p_hw: 0.3,
            p_sw: 0.0,
            trials: 20_000,
            ..ReliabilityModel::default()
        };
        let est = evaluate_with(&model, &g, 3, 3);
        // p³ = 0.027.
        assert!(
            (est.mission_failure - 0.027).abs() < 0.01,
            "estimate {}",
            est.mission_failure
        );
    }

    #[test]
    fn colocated_replicas_would_share_fate() {
        // Same module, but forced onto 1 node via a graph without replica
        // tags (simulating a naive integrator that ignores anti-affinity):
        // failure probability equals p, far above p³.
        let mut b = SwGraphBuilder::new();
        b.add_process("a", attrs(9));
        let g = b.build();
        let model = ReliabilityModel {
            p_hw: 0.3,
            p_sw: 0.0,
            trials: 20_000,
            ..ReliabilityModel::default()
        };
        let est = evaluate_with(&model, &g, 1, 1);
        assert!((est.mission_failure - 0.3).abs() < 0.02);
    }

    #[test]
    fn cross_node_attenuation_contains_propagation() {
        // Source (non-critical) influences a critical sink with p=1.
        // Same node: propagation certain. Different nodes with strong
        // attenuation: rare.
        let mut b = SwGraphBuilder::new();
        let src = b.add_process("src", attrs(1));
        let dst = b.add_process("dst", attrs(9));
        b.add_influence(src, dst, 1.0).unwrap();
        let g = b.build();
        let model = ReliabilityModel {
            p_hw: 0.0,
            p_sw: 0.2, // only src or dst can start a fault
            cross_node_attenuation: 0.05,
            trials: 30_000,
            ..ReliabilityModel::default()
        };
        let together = {
            let clustering = Clustering::new(&g, vec![vec![src, dst]]).unwrap();
            let hw = HwGraph::complete(1);
            let m =
                mapping::approach_a(&g, &clustering, &hw, &ImportanceWeights::default()).unwrap();
            model.evaluate(&g, &clustering, &m)
        };
        let apart = {
            let clustering = Clustering::new(&g, vec![vec![src], vec![dst]]).unwrap();
            let hw = HwGraph::complete(2);
            let m =
                mapping::approach_a(&g, &clustering, &hw, &ImportanceWeights::default()).unwrap();
            model.evaluate(&g, &clustering, &m)
        };
        // Together: dst fails if dst faults (0.2) or src faults and
        // propagates (0.2). Apart: src propagation attenuated to 0.05.
        assert!(together.mission_failure > apart.mission_failure + 0.05);
    }

    #[test]
    fn estimates_are_deterministic_in_seed() {
        let mut b = SwGraphBuilder::new();
        let a = b.add_process("a", attrs(9));
        let c = b.add_process("b", attrs(4));
        b.add_influence(a, c, 0.5).unwrap();
        let g = b.build();
        let model = ReliabilityModel {
            trials: 2000,
            ..ReliabilityModel::default()
        };
        let e1 = evaluate_with(&model, &g, 2, 2);
        let e2 = evaluate_with(&model, &g, 2, 2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn default_model_is_sane() {
        let m = ReliabilityModel::default();
        assert!(m.p_hw > 0.0 && m.p_hw < 1.0);
        assert!(m.cross_node_attenuation < 1.0);
        assert!(m.trials > 0);
    }

    /// A critical replica pair on hw0/hw1 plus two low-criticality
    /// singletons, on a 4-node platform with spare capacity for failover.
    fn repairable_system() -> (SwGraph, Clustering, Mapping, HwGraph) {
        let mut b = SwGraphBuilder::new();
        let ra = b.add_process("r_a", attrs(9));
        let rb = b.add_process("r_b", attrs(9));
        let lo = b.add_process("lo", attrs(2));
        let hi = b.add_process("hi", attrs(3));
        b.mark_replicas(&[ra, rb]).unwrap();
        b.add_influence(lo, hi, 0.3).unwrap();
        let g = b.build();
        let hw = HwGraph::complete(4);
        let clustering = Clustering::singletons(&g);
        let m = mapping::approach_a(&g, &clustering, &hw, &ImportanceWeights::default()).unwrap();
        (g, clustering, m, hw)
    }

    #[test]
    fn recovery_policies_are_monotone_at_every_fault_rate() {
        let (g, c, m, hw) = repairable_system();
        for &p_hw in &[0.02, 0.1, 0.3, 0.6] {
            let model = RepairableModel {
                base: ReliabilityModel {
                    p_hw,
                    p_sw: 0.02,
                    trials: 3000,
                    ..ReliabilityModel::default()
                },
                ..RepairableModel::default()
            };
            let runs: Vec<f64> = RecoveryPolicy::ALL
                .iter()
                .map(|&p| model.evaluate(&g, &c, &m, &hw, p).mission_failure)
                .collect();
            for w in runs.windows(2) {
                assert!(
                    w[0] >= w[1],
                    "policy ordering violated at p_hw={p_hw}: {runs:?}"
                );
            }
        }
    }

    #[test]
    fn perfect_coverage_transient_faults_all_recover() {
        let (g, c, m, hw) = repairable_system();
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw: 0.4,
                p_sw: 0.0,
                trials: 2000,
                ..ReliabilityModel::default()
            },
            coverage: 1.0,
            permanent_fraction: 0.0,
            ..RepairableModel::default()
        };
        let est = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::RetryOnly);
        assert_eq!(est.mission_failure, 0.0);
        assert_eq!(est.mean_failed_processes, 0.0);
        assert!(est.mean_recoveries > 0.0);
        // Every recovery is a retry: MTTR is exactly detection + retry.
        let mttr = est.mttr.expect("recoveries happened");
        assert!((mttr - (model.detection_latency + model.retry_time)).abs() < 1e-12);
    }

    #[test]
    fn failover_rescues_permanent_failures() {
        let (g, c, m, hw) = repairable_system();
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw: 0.3,
                p_sw: 0.0,
                trials: 5000,
                ..ReliabilityModel::default()
            },
            coverage: 1.0,
            permanent_fraction: 1.0,
            ..RepairableModel::default()
        };
        let none = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::None);
        let fo = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::Failover);
        // Retry alone cannot fix a permanently dead node…
        let retry = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::RetryOnly);
        assert_eq!(retry.mission_failure, none.mission_failure);
        // …but failover re-places the stranded replica on a spare node.
        assert!(
            fo.mission_failure < none.mission_failure - 0.02,
            "failover {} vs none {}",
            fo.mission_failure,
            none.mission_failure
        );
        assert!(fo.mean_recoveries > 0.0);
        let mttr = fo.mttr.expect("failovers happened");
        assert!((mttr - (model.detection_latency + model.failover_time)).abs() < 1e-12);
    }

    #[test]
    fn zero_coverage_disables_every_recovery() {
        let (g, c, m, hw) = repairable_system();
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw: 0.3,
                trials: 2000,
                ..ReliabilityModel::default()
            },
            coverage: 0.0,
            ..RepairableModel::default()
        };
        let baseline = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::None);
        for &p in &RecoveryPolicy::ALL[1..] {
            let est = model.evaluate(&g, &c, &m, &hw, p);
            // Undetected faults are unrecoverable: with the shared fault
            // worlds every policy reduces to no-recovery, exactly.
            assert_eq!(est.mission_failure, baseline.mission_failure);
            assert_eq!(est.mean_recoveries, 0.0);
            assert_eq!(est.mttr, None);
        }
    }

    #[test]
    fn shedding_degrades_instead_of_failing() {
        // Two nodes, both full: killing one strands a critical victim
        // whose strict remap is infeasible, so Failover loses it; the
        // shedding policy displaces the low-criticality member instead.
        let mut b = SwGraphBuilder::new();
        let _v = b.add_process("v", attrs(9).with_timing(0, 6, 4));
        let _low = b.add_process("low", attrs(1).with_timing(0, 6, 4));
        let g = b.build();
        let hw = HwGraph::complete(2);
        let c = Clustering::singletons(&g);
        let m = mapping::approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        let model = RepairableModel {
            base: ReliabilityModel {
                p_hw: 0.3,
                p_sw: 0.0,
                trials: 4000,
                ..ReliabilityModel::default()
            },
            coverage: 1.0,
            permanent_fraction: 1.0,
            ..RepairableModel::default()
        };
        let fo = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::Failover);
        let sh = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::FailoverShed);
        assert!(sh.mission_failure < fo.mission_failure);
        assert!(sh.mean_shed_processes > 0.0);
        assert_eq!(fo.mean_shed_processes, 0.0);
    }

    #[test]
    fn repairable_estimates_are_deterministic_in_seed() {
        let (g, c, m, hw) = repairable_system();
        let model = RepairableModel {
            base: ReliabilityModel {
                trials: 1500,
                ..ReliabilityModel::default()
            },
            ..RepairableModel::default()
        };
        let e1 = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::FailoverShed);
        let e2 = model.evaluate(&g, &c, &m, &hw, RecoveryPolicy::FailoverShed);
        assert_eq!(e1, e2);
    }
}
