//! Materialising an integrated mapping into an executable system.
//!
//! The allocation layer reasons about influence *analytically*; this
//! module closes the loop by turning a SW graph + clustering + mapping
//! into a runnable [`SystemSpec`] for the discrete-event simulator:
//!
//! * every SW process becomes a periodic task on its mapped processor,
//!   scheduled in a static frame so the baseline run is fault-free;
//! * every influence edge becomes a medium whose transmission equals the
//!   edge's influence value — shared memory within a processor, a message
//!   channel across processors, the latter attenuated by the HW
//!   fault-containment boundary factor.
//!
//! Experiment E11 uses this to *validate the reliability model against
//! the simulator*: the mapping that contains faults better analytically
//! must also leak fewer injected faults in execution.

use fcm_alloc::sw::SwEdge;
use fcm_alloc::{Clustering, Mapping, SwGraph};
use fcm_core::FactorKind;
use fcm_graph::NodeIdx;
use fcm_sched::Time;
use fcm_sim::model::{SchedulingPolicy, SystemSpec, SystemSpecBuilder, TaskId};
use fcm_sim::SimError;

/// A materialised system plus the SW-node → task correspondence.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The runnable system.
    pub spec: SystemSpec,
    /// `task_of[sw_node] = simulator task id`.
    pub task_of: Vec<TaskId>,
}

/// Recovery attributes wired into a materialised system: the watchdog
/// that detects node failures, the checkpoint interval every SW task
/// carries, and the retry policy that re-releases killed jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Watchdog heartbeat period (must be > 0).
    pub heartbeat_period: Time,
    /// Latency from the detecting heartbeat to the detection event.
    pub detection_latency: Time,
    /// Retry budget per killed job.
    pub max_retries: u32,
    /// Base backoff delay; attempt `k` waits `base << k` plus jitter.
    pub backoff_base: Time,
    /// Checkpoint interval for every SW task (0 disables checkpointing,
    /// so a restarted job loses all progress).
    pub checkpoint_every: Time,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        RecoverySpec {
            heartbeat_period: 5,
            detection_latency: 1,
            max_retries: 3,
            backoff_base: 2,
            checkpoint_every: 1,
        }
    }
}

/// Builds an executable system from an integration outcome.
///
/// Tasks run in a static frame per processor (frame = 2 × the cluster's
/// total computation time), so without injections no deadline is ever
/// missed — faults observed later are attributable to the injection.
/// Cross-processor influence edges have their transmission multiplied by
/// `cross_node_attenuation`, mirroring the reliability model's HW
/// fault-containment boundaries.
///
/// # Errors
///
/// Propagates [`SimError`] from the system builder.
pub fn system_from_mapping(
    g: &SwGraph,
    clustering: &Clustering,
    mapping: &Mapping,
    policy: SchedulingPolicy,
    cross_node_attenuation: f64,
) -> Result<Materialized, SimError> {
    materialize(
        g,
        clustering,
        mapping,
        policy,
        cross_node_attenuation,
        false,
        None,
    )
}

/// As [`system_from_mapping`], but with the node-failure recovery
/// machinery wired in: the system gets a watchdog and retry policy, and
/// every SW task carries `recovery.checkpoint_every` as its checkpoint
/// interval, so injected `NodeCrash`/`NodeTransient` faults are detected
/// and the killed jobs re-released (failing over when the home node is
/// permanently dead).
///
/// # Errors
///
/// Propagates [`SimError`] from the system builder (e.g. a zero
/// heartbeat period or backoff base).
pub fn system_from_mapping_recoverable(
    g: &SwGraph,
    clustering: &Clustering,
    mapping: &Mapping,
    policy: SchedulingPolicy,
    cross_node_attenuation: f64,
    recovery: &RecoverySpec,
) -> Result<Materialized, SimError> {
    materialize(
        g,
        clustering,
        mapping,
        policy,
        cross_node_attenuation,
        false,
        Some(recovery),
    )
}

/// As [`system_from_mapping`], but with explicit **majority voters**: for
/// every bundle of influence edges from the replicas of one module to a
/// common target, a voter task is synthesised on the target's processor;
/// it reads the per-replica channels, outvotes minority corruption, and
/// forwards the voted value to the target. This materialises the
/// downstream half of the paper's TMR story ("replication and design
/// diversity"), so a single corrupt replica cannot reach its consumers.
///
/// # Errors
///
/// Propagates [`SimError`] from the system builder.
pub fn system_from_mapping_voted(
    g: &SwGraph,
    clustering: &Clustering,
    mapping: &Mapping,
    policy: SchedulingPolicy,
    cross_node_attenuation: f64,
) -> Result<Materialized, SimError> {
    materialize(
        g,
        clustering,
        mapping,
        policy,
        cross_node_attenuation,
        true,
        None,
    )
}

fn materialize(
    g: &SwGraph,
    clustering: &Clustering,
    mapping: &Mapping,
    policy: SchedulingPolicy,
    cross_node_attenuation: f64,
    voting: bool,
    recovery: Option<&RecoverySpec>,
) -> Result<Materialized, SimError> {
    use std::collections::BTreeMap;

    let processors = mapping
        .iter()
        .map(|(_, h)| h.index() + 1)
        .max()
        .unwrap_or(1);
    let mut b = SystemSpecBuilder::new(processors);
    b.policy(policy);
    if let Some(rec) = recovery {
        b.watchdog(rec.heartbeat_period, rec.detection_latency)?;
        b.retry(rec.max_retries, rec.backoff_base)?;
    }

    // Host processor per SW node.
    let mut host = vec![0usize; g.node_count()];
    for (ci, cluster) in clustering.clusters().iter().enumerate() {
        let h = mapping
            .hw_of(ci)
            .expect("mapping covers every cluster")
            .index();
        for &n in cluster {
            host[n.index()] = h;
        }
    }
    let medium_for = |b: &mut SystemSpecBuilder,
                      from: NodeIdx,
                      to: NodeIdx,
                      p: f64|
     -> Result<usize, SimError> {
        let same_host = host[from.index()] == host[to.index()];
        let (kind, transmission) = if same_host {
            (FactorKind::SharedMemory, p)
        } else {
            (
                FactorKind::MessagePassing,
                (p * cross_node_attenuation).clamp(0.0, 1.0),
            )
        };
        let from_name = &g.node(from).expect("edge endpoint exists").name;
        let to_name = &g.node(to).expect("edge endpoint exists").name;
        b.add_medium(format!("{from_name}->{to_name}"), kind, transmission)
    };

    // Media. In voted mode, edge bundles from one replica group to a
    // common target go through a synthesised voter.
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    let mut writes: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    // (target node, voter input media, voted output medium)
    let mut voters: Vec<(NodeIdx, Vec<usize>, usize)> = Vec::new();
    // Bundle edges by (source replica group, target).
    let mut bundles: BTreeMap<(u32, usize), Vec<(NodeIdx, f64)>> = BTreeMap::new();
    for (_, e) in g.edges() {
        let SwEdge::Influence(p) = e.weight else {
            continue; // replica links carry no data
        };
        let group = g.node(e.from).expect("endpoint exists").replica_group;
        match group {
            Some(rg) if voting => {
                bundles
                    .entry((rg, e.to.index()))
                    .or_default()
                    .push((e.from, p));
            }
            _ => {
                let m = medium_for(&mut b, e.from, e.to, p)?;
                writes[e.from.index()].push(m);
                reads[e.to.index()].push(m);
            }
        }
    }
    for ((_, to), sources) in bundles {
        let to = NodeIdx(to);
        if sources.len() < 2 {
            // A lone replica edge needs no vote.
            for (from, p) in sources {
                let m = medium_for(&mut b, from, to, p)?;
                writes[from.index()].push(m);
                reads[to.index()].push(m);
            }
            continue;
        }
        let mut inputs = Vec::with_capacity(sources.len());
        for &(from, p) in &sources {
            let m = medium_for(&mut b, from, to, p)?;
            writes[from.index()].push(m);
            inputs.push(m);
        }
        let group_name = &g.node(sources[0].0).expect("endpoint exists").name;
        let to_name = &g.node(to).expect("endpoint exists").name;
        let voted = b.add_medium(
            format!("voted({group_name}..)->{to_name}"),
            FactorKind::SharedMemory,
            1.0,
        )?;
        reads[to.index()].push(voted);
        voters.push((to, inputs, voted));
    }

    // Tasks: a static frame per cluster keeps the baseline fault-free.
    // Voters run on their target's processor inside the same frame, so
    // the frame budget must include them.
    let mut voters_of: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for (vi, (to, _, _)) in voters.iter().enumerate() {
        voters_of[to.index()].push(vi);
    }
    let mut task_of = vec![0usize; g.node_count()];
    for cluster in clustering.clusters() {
        let cts: Vec<Time> = cluster
            .iter()
            .map(|&n| {
                g.node(n)
                    .expect("cluster member exists")
                    .attributes
                    .timing
                    .map_or(1, |t| t.ct.max(1))
            })
            .collect();
        let voter_work: Time = cluster
            .iter()
            .map(|&n| voters_of[n.index()].len() as Time)
            .sum();
        let frame = ((cts.iter().sum::<Time>() + voter_work) * 2).max(4);
        let mut offset: Time = 0;
        for (&n, &ct) in cluster.iter().zip(&cts) {
            // The node's voters run immediately before it in the frame.
            for &vi in &voters_of[n.index()] {
                let (_, inputs, voted) = &voters[vi];
                let mut v = b
                    .task(
                        format!("voter{}_{}", vi, g.node(n).expect("member").name),
                        host[n.index()],
                    )
                    .periodic(frame, offset, 1)
                    .voter()
                    .writes(*voted);
                for &m in inputs {
                    v = v.reads(m);
                }
                v.build()?;
                offset += 1;
            }
            let node = g.node(n).expect("cluster member exists");
            let mut t = b
                .task(node.name.clone(), host[n.index()])
                .periodic(frame, offset, ct);
            if let Some(rec) = recovery {
                t = t.checkpoint(rec.checkpoint_every);
            }
            for &m in &reads[n.index()] {
                t = t.reads(m);
            }
            for &m in &writes[n.index()] {
                t = t.writes(m);
            }
            task_of[n.index()] = t.build()?;
            offset += ct;
        }
    }

    Ok(Materialized {
        spec: b.build()?,
        task_of,
    })
}

/// Convenience: the simulator task of a SW node.
impl Materialized {
    /// The task id materialised for `sw_node`.
    pub fn task(&self, sw_node: NodeIdx) -> TaskId {
        self.task_of[sw_node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_alloc::heuristics::h1;
    use fcm_alloc::mapping::approach_a;
    use fcm_alloc::sw::SwGraphBuilder;
    use fcm_alloc::HwGraph;
    use fcm_core::{AttributeSet, ImportanceWeights};
    use fcm_sim::{engine, InfluenceCampaign, Injection};

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default()
            .with_criticality(c)
            .with_timing(0, 30, 2)
    }

    fn setup(k: usize) -> (SwGraph, Clustering, Mapping) {
        let mut b = SwGraphBuilder::new();
        let n: Vec<_> = (0..4)
            .map(|i| b.add_process(format!("p{i}"), attrs(8 - i as u32)))
            .collect();
        b.add_influence(n[0], n[1], 0.9).unwrap();
        b.add_influence(n[1], n[2], 0.8).unwrap();
        b.add_influence(n[2], n[3], 0.7).unwrap();
        let g = b.build();
        let c = h1(&g, k).unwrap();
        let hw = HwGraph::complete(k);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        (g, c, m)
    }

    #[test]
    fn baseline_run_is_fault_free() {
        let (g, c, m) = setup(2);
        let mat = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        let trace = engine::run(&mat.spec, &[], 0, 300);
        assert_eq!(trace.total_faults(), 0);
        assert!(trace.completions.iter().all(|&x| x > 0));
    }

    #[test]
    fn task_correspondence_round_trips() {
        let (g, c, m) = setup(2);
        let mat = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        assert_eq!(mat.task_of.len(), 4);
        for n in g.node_indices() {
            let t = mat.task(n);
            assert_eq!(mat.spec.tasks[t].name, g.node(n).unwrap().name);
        }
    }

    #[test]
    fn same_host_edges_become_shared_memory() {
        let (g, c, m) = setup(2);
        let mat = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 0.5).unwrap();
        let mut kinds: Vec<FactorKind> = mat.spec.media.iter().map(|m| m.kind).collect();
        kinds.sort_by_key(|k| format!("{k:?}"));
        // 2 clusters over a 3-edge chain: at least one edge crosses.
        assert!(kinds.contains(&FactorKind::MessagePassing));
        assert!(kinds.contains(&FactorKind::SharedMemory));
        // Cross edges attenuated: transmission < original influence.
        for medium in &mat.spec.media {
            if medium.kind == FactorKind::MessagePassing {
                assert!(medium.transmission.value() <= 0.9 * 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn attenuation_reduces_measured_cross_processor_influence() {
        // H1 to 2 clusters groups {p0,p1,p2} | {p3}; the 0.7 edge p2→p3
        // crosses. A 7-tick horizon covers exactly one write→read
        // interaction (p2 completes at t=6 on processor 0, whose finish
        // event orders before p3's same-instant read on processor 1), so
        // the per-interaction probabilities are observable before
        // repetition saturates them.
        let (g, c, m) = setup(2);
        assert_eq!(c.len(), 2);
        let leaky = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        let tight = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 0.1).unwrap();
        let src = mat_task(&leaky, &g, "p2");
        let dst = mat_task(&leaky, &g, "p3");
        let leaky_infl = InfluenceCampaign::new(leaky.spec, 7, 3000, 3)
            .measure_influence(src, dst)
            .unwrap()
            .estimate;
        let tight_infl = InfluenceCampaign::new(tight.spec, 7, 3000, 3)
            .measure_influence(src, dst)
            .unwrap()
            .estimate;
        assert!((leaky_infl - 0.7).abs() < 0.1, "{leaky_infl}");
        assert!((tight_infl - 0.07).abs() < 0.05, "{tight_infl}");
    }

    fn mat_task(mat: &Materialized, g: &SwGraph, name: &str) -> usize {
        g.nodes()
            .find(|(_, n)| n.name == name)
            .map(|(i, _)| mat.task(i))
            .expect("named node exists")
    }

    fn tmr_setup() -> (SwGraph, Clustering, Mapping) {
        use fcm_core::FaultTolerance;
        let mut b = SwGraphBuilder::new();
        let src = b.add_process("src", attrs(9).with_fault_tolerance(FaultTolerance::TMR));
        let dst = b.add_process("dst", attrs(5));
        b.add_influence(src, dst, 1.0).unwrap();
        let g = fcm_alloc::replication::expand_replicas(&b.build()).graph;
        let c = Clustering::singletons(&g);
        let hw = HwGraph::complete(4);
        let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
        (g, c, m)
    }

    #[test]
    fn voted_materialisation_masks_a_single_replica_fault() {
        let (g, c, m) = tmr_setup();
        let mat =
            system_from_mapping_voted(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        // One synthesised voter task beyond the four SW nodes.
        assert_eq!(mat.spec.task_count(), 5);
        // Baseline clean.
        let clean = engine::run(&mat.spec, &[], 0, 100);
        assert_eq!(clean.total_faults(), 0);
        // One corrupt replica is outvoted at the consumer.
        let src_a = mat_task(&mat, &g, "srca");
        let dst = mat_task(&mat, &g, "dst");
        let one = engine::run(&mat.spec, &[Injection::value(0, src_a)], 3, 100);
        assert!(one.value_faulty(src_a));
        assert!(!one.value_faulty(dst), "single fault must be masked");
        // Two corrupt replicas defeat the vote.
        let src_b = mat_task(&mat, &g, "srcb");
        let two = engine::run(
            &mat.spec,
            &[Injection::value(0, src_a), Injection::value(0, src_b)],
            3,
            100,
        );
        assert!(two.value_faulty(dst), "majority corruption must pass");
    }

    #[test]
    fn unvoted_materialisation_leaks_a_single_replica_fault() {
        let (g, c, m) = tmr_setup();
        let mat = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        let src_a = mat_task(&mat, &g, "srca");
        let dst = mat_task(&mat, &g, "dst");
        let one = engine::run(&mat.spec, &[Injection::value(0, src_a)], 3, 100);
        assert!(
            one.value_faulty(dst),
            "without voting the fault reaches dst"
        );
    }

    #[test]
    fn recoverable_materialisation_wires_the_recovery_attributes() {
        let (g, c, m) = setup(2);
        let rec = RecoverySpec::default();
        let mat =
            system_from_mapping_recoverable(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0, &rec)
                .unwrap();
        let wd = mat.spec.watchdog.expect("watchdog wired");
        assert_eq!(wd.heartbeat_period, rec.heartbeat_period);
        assert_eq!(wd.detection_latency, rec.detection_latency);
        let rp = mat.spec.retry.expect("retry wired");
        assert_eq!(rp.max_retries, rec.max_retries);
        assert_eq!(rp.backoff_base, rec.backoff_base);
        for t in &mat.spec.tasks {
            assert_eq!(t.checkpoint, Some(rec.checkpoint_every));
        }
        // The plain materialisation stays recovery-free.
        let bare = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        assert!(bare.spec.watchdog.is_none());
        assert!(bare.spec.retry.is_none());
        assert!(bare.spec.tasks.iter().all(|t| t.checkpoint.is_none()));
    }

    #[test]
    fn recoverable_system_detects_and_restarts_after_a_node_fault() {
        let (g, c, m) = setup(2);
        let rec = RecoverySpec {
            max_retries: 5,
            ..RecoverySpec::default()
        };
        let mat =
            system_from_mapping_recoverable(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0, &rec)
                .unwrap();
        // Take processor 0 down briefly while its frame is executing.
        let trace = engine::run(&mat.spec, &[Injection::node_transient(1, 0, 4)], 7, 300);
        assert!(trace.detections >= 1, "watchdog must detect the outage");
        assert!(
            trace.restarts >= 1,
            "the killed job must restart (detections {}, retries {})",
            trace.detections,
            trace.retries
        );
    }

    #[test]
    fn injection_propagates_along_the_materialised_chain() {
        let (g, c, m) = setup(2);
        let mat = system_from_mapping(&g, &c, &m, SchedulingPolicy::PreemptiveEdf, 1.0).unwrap();
        let src = mat_task(&mat, &g, "p0");
        let trace = engine::run(&mat.spec, &[Injection::value(0, src)], 5, 600);
        assert!(trace.value_faulty(src));
        // With p = 0.9/0.8/0.7 and many frames, the chain end is very
        // likely reached; at minimum the direct successor is.
        let p1 = mat_task(&mat, &g, "p1");
        assert!(trace.value_faulty(p1));
    }
}
