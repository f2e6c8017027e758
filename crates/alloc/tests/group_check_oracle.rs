//! Oracle suite for the cluster-fit predicate [`GroupCheck`] and the
//! heuristics built on it. The `oracle` module keeps the earlier
//! implementation, which asked every fit question by validating a whole
//! partition (`Clustering::new` on the candidate group plus every other
//! node as a singleton). H2 (both bisection policies), H2 s–t, H3 and
//! the timing refinement must return `==` results, errors included, on
//! random E1-style graphs: replicated modules, targets below the largest
//! replica group, tight timing windows, and sometimes a node whose timing
//! triple cannot run even alone.

use std::cell::Cell;

use fcm_alloc::heuristics::{h2, h2_source_target, h3};
use fcm_alloc::mapping::timing_refinement;
use fcm_alloc::replication::expand_replicas;
use fcm_alloc::sw::{SwGraph, SwGraphBuilder};
use fcm_alloc::{AllocError, Clustering, GroupCheck};
use fcm_core::{AttributeSet, FaultTolerance, ImportanceWeights};
use fcm_graph::algo::BisectPolicy;
use fcm_graph::NodeIdx;
use fcm_substrate::prop;
use fcm_substrate::prop_assert;
use fcm_substrate::rng::Rng;

/// The earlier whole-partition implementations, kept as the oracle.
mod oracle {
    use fcm_alloc::pipeline::{CondensePipeline, PartitionReplay};
    use fcm_alloc::sw::SwGraph;
    use fcm_alloc::{AllocError, Clustering};
    use fcm_core::ImportanceWeights;
    use fcm_graph::algo::{induced_subgraph, recursive_min_cut, st_min_cut, BisectPolicy};
    use fcm_graph::NodeIdx;

    /// Whether `group ∪ {v}` satisfies the combination constraints.
    pub fn accepts(g: &SwGraph, group: &[NodeIdx], v: NodeIdx) -> bool {
        let mut merged = group.to_vec();
        merged.push(v);
        Clustering::new(g, one_group_partition(g, &merged)).is_ok()
    }

    /// `merged` as one group, every other node a singleton.
    pub fn one_group_partition(g: &SwGraph, merged: &[NodeIdx]) -> Vec<Vec<NodeIdx>> {
        let mut groups = vec![merged.to_vec()];
        let inside: Vec<bool> = {
            let mut v = vec![false; g.node_count()];
            for &m in merged {
                v[m.index()] = true;
            }
            v
        };
        groups.extend(
            g.node_indices()
                .filter(|n| !inside[n.index()])
                .map(|n| vec![n]),
        );
        groups
    }

    fn check_target(g: &SwGraph, target: usize) -> Result<(), AllocError> {
        if target == 0 || target > g.node_count() {
            return Err(AllocError::Graph(fcm_graph::GraphError::TooManyParts {
                requested: target,
                nodes: g.node_count(),
            }));
        }
        Ok(())
    }

    fn replay_through_pipeline(g: &SwGraph, target: Clustering) -> Result<Clustering, AllocError> {
        let mut pipe = CondensePipeline::new(g);
        let mut policy = PartitionReplay::toward(g.node_count(), target.clusters());
        pipe.run_policy(target.len(), &mut policy)?;
        pipe.reorder_to(target.clusters())?;
        pipe.into_clustering()
    }

    pub fn h2(g: &SwGraph, target: usize, policy: BisectPolicy) -> Result<Clustering, AllocError> {
        check_target(g, target)?;
        let groups = recursive_min_cut(g, target, policy)?;
        let repaired = repair(g, groups, target)?;
        replay_through_pipeline(g, repaired)
    }

    pub fn h3(
        g: &SwGraph,
        target: usize,
        weights: &ImportanceWeights,
    ) -> Result<Clustering, AllocError> {
        check_target(g, target)?;
        let mut order: Vec<NodeIdx> = g.node_indices().collect();
        order.sort_by(|&a, &b| {
            let ia = g.node(a).expect("valid index").importance(weights);
            let ib = g.node(b).expect("valid index").importance(weights);
            ib.partial_cmp(&ia)
                .expect("importance is finite")
                .then(a.cmp(&b))
        });
        let (seeds, rest) = order.split_at(target);
        let mut groups: Vec<Vec<NodeIdx>> = seeds.iter().map(|&s| vec![s]).collect();
        let mut remaining: Vec<NodeIdx> = rest.to_vec();
        while !remaining.is_empty() {
            let mut best: Option<(usize, usize, f64)> = None;
            for (pos, &v) in remaining.iter().enumerate() {
                for (gi, group) in groups.iter().enumerate() {
                    if !accepts(g, group, v) {
                        continue;
                    }
                    let attach: f64 = group.iter().map(|&m| g.mutual_weight(v, m)).sum();
                    if best.is_none_or(|(_, _, b)| attach > b) {
                        best = Some((pos, gi, attach));
                    }
                }
            }
            match best {
                Some((pos, gi, _)) => {
                    let v = remaining.swap_remove(pos);
                    groups[gi].push(v);
                }
                None => {
                    return Err(AllocError::NoFeasibleClustering {
                        requested: target,
                        reached: groups.len() + remaining.len(),
                    })
                }
            }
        }
        let spheres = Clustering::new(g, groups)?;
        replay_through_pipeline(g, spheres)
    }

    pub fn h2_source_target(
        g: &SwGraph,
        target: usize,
        weights: &ImportanceWeights,
    ) -> Result<Clustering, AllocError> {
        check_target(g, target)?;
        let mut groups: Vec<Vec<NodeIdx>> = vec![g.node_indices().collect()];
        while groups.len() < target {
            let (gi, _) = groups
                .iter()
                .enumerate()
                .filter(|(_, grp)| grp.len() >= 2)
                .max_by_key(|(_, grp)| grp.len())
                .expect("target <= n guarantees a splittable group");
            let group = groups.swap_remove(gi);
            let (sub, back) = induced_subgraph(g, &group);
            let mut order: Vec<usize> = (0..group.len()).collect();
            order.sort_by(|&a, &b| {
                let ia = g.node(back[a]).expect("member exists").importance(weights);
                let ib = g.node(back[b]).expect("member exists").importance(weights);
                ib.partial_cmp(&ia)
                    .expect("finite importance")
                    .then(a.cmp(&b))
            });
            let (s, t) = (
                NodeIdx(order[0]),
                NodeIdx(*order.last().expect("non-empty")),
            );
            let cut = st_min_cut(&sub, s, t)?;
            let to_orig =
                |side: &[NodeIdx]| side.iter().map(|&i| back[i.index()]).collect::<Vec<_>>();
            groups.push(to_orig(&cut.side_a));
            groups.push(to_orig(&cut.side_b));
        }
        let repaired = repair(g, groups, target)?;
        replay_through_pipeline(g, repaired)
    }

    fn repair(
        g: &SwGraph,
        mut groups: Vec<Vec<NodeIdx>>,
        target: usize,
    ) -> Result<Clustering, AllocError> {
        let budget = g.node_count() * target.max(1) + 8;
        for _ in 0..budget {
            match Clustering::new(g, groups.clone()) {
                Ok(c) => return Ok(c),
                Err(_) => {
                    if !repair_step(g, &mut groups) {
                        break;
                    }
                }
            }
        }
        Err(AllocError::NoFeasibleClustering {
            requested: target,
            reached: groups.len(),
        })
    }

    fn repair_step(g: &SwGraph, groups: &mut [Vec<NodeIdx>]) -> bool {
        let invalid = groups
            .iter()
            .position(|grp| Clustering::new(g, one_group_partition(g, grp)).is_err());
        let Some(gi) = invalid else { return false };
        let mut candidates: Vec<NodeIdx> = groups[gi].clone();
        candidates.sort_by(|&a, &b| {
            let na = g.node(a).expect("valid index");
            let nb = g.node(b).expect("valid index");
            let ra = na.replica_group.is_some();
            let rb = nb.replica_group.is_some();
            rb.cmp(&ra).then(
                nb.attributes
                    .timing
                    .map_or(0.0, |t| t.density())
                    .partial_cmp(&na.attributes.timing.map_or(0.0, |t| t.density()))
                    .expect("finite density"),
            )
        });
        for require_source_valid in [true, false] {
            for &v in &candidates {
                let without: Vec<NodeIdx> =
                    groups[gi].iter().copied().filter(|&n| n != v).collect();
                if without.is_empty() {
                    continue;
                }
                if require_source_valid
                    && Clustering::new(g, one_group_partition(g, &without)).is_err()
                {
                    continue;
                }
                let mut best: Option<(usize, f64)> = None;
                for (oj, other) in groups.iter().enumerate() {
                    if oj == gi || !accepts(g, other, v) {
                        continue;
                    }
                    let attach: f64 = other.iter().map(|&m| g.mutual_weight(v, m)).sum();
                    if best.is_none_or(|(_, b)| attach > b) {
                        best = Some((oj, attach));
                    }
                }
                if let Some((oj, _)) = best {
                    groups[gi].retain(|&n| n != v);
                    groups[oj].push(v);
                    return true;
                }
            }
        }
        false
    }

    pub fn timing_refinement(g: &SwGraph, target: usize) -> Result<Clustering, AllocError> {
        check_target(g, target)?;
        let mut order: Vec<NodeIdx> = g.node_indices().collect();
        order.sort_by_key(|&n| {
            let t = g.node(n).expect("valid index").attributes.timing;
            (
                t.map_or(u64::MAX, |t| t.est),
                t.map_or(u64::MAX, |t| t.tcd),
                n,
            )
        });
        let mut groups: Vec<Vec<NodeIdx>> = Vec::new();
        'nodes: for v in order {
            for group in &mut groups {
                let mut candidate = group.clone();
                candidate.push(v);
                if group_is_valid(g, &candidate) {
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

    fn group_is_valid(g: &SwGraph, group: &[NodeIdx]) -> bool {
        Clustering::new(g, one_group_partition(g, group)).is_ok()
    }
}

/// An E1-style model after replica expansion, with a clustering target.
#[derive(Debug)]
struct Case {
    graph: SwGraph,
    target: usize,
}

/// Random processes with up to 40% replicated (FT 2 or 3), influences on
/// a density in [0.1, 0.6], and tight ⟨EST, TCD, CT⟩ windows (slack at
/// most twice the work on a 40-tick horizon) so merged groups often miss
/// deadlines. One case in four gives one process a malformed triple
/// (`ct > tcd − est`, or zero work), which no group holding it survives.
/// The target ranges over `1..=n`, so it often lies below the largest
/// replica group.
fn e1_style_case(rng: &mut Rng, size: usize) -> Case {
    let processes = 2 + rng.gen_range(0..=(22 * size.clamp(1, 100) / 100));
    let replicated: f64 = rng.gen_range(0.0..0.4);
    let density: f64 = rng.gen_range(0.1..0.6);
    let broken = rng.gen_bool(0.25).then(|| rng.gen_range(0..processes));
    let mut b = SwGraphBuilder::new();
    let nodes: Vec<_> = (0..processes)
        .map(|i| {
            let roll: f64 = rng.gen();
            let ft = if roll < replicated / 3.0 {
                FaultTolerance::TMR
            } else if roll < replicated {
                FaultTolerance::DUPLEX
            } else {
                FaultTolerance::SIMPLEX
            };
            let mut attrs = AttributeSet::default()
                .with_criticality(rng.gen_range(1..=10u32))
                .with_fault_tolerance(ft)
                .with_throughput(rng.gen_range(0.1..2.0));
            if broken == Some(i) {
                let est = rng.gen_range(0..20u64);
                attrs = if rng.gen_bool(0.5) {
                    attrs.with_timing(est, est + 3, 5)
                } else {
                    attrs.with_timing(est, est + 10, 0)
                };
            } else if rng.gen_bool(0.8) {
                let ct = rng.gen_range(1..=6u64);
                let est = rng.gen_range(0..20u64);
                let slack = rng.gen_range(0..=2 * ct);
                attrs = attrs.with_timing(est, est + ct + slack, ct);
            }
            b.add_process(format!("p{i}"), attrs)
        })
        .collect();
    for &from in &nodes {
        for &to in &nodes {
            if from != to && rng.gen::<f64>() < density {
                b.add_influence(from, to, rng.gen_range(0.05..0.7))
                    .expect("influence in range");
            }
        }
    }
    let graph = expand_replicas(&b.build()).graph;
    let target = rng.gen_range(1..=graph.node_count());
    Case { graph, target }
}

/// How often each outcome was seen, so a suite whose generator stopped
/// producing feasible (or infeasible) cases fails instead of passing
/// vacuously.
#[derive(Default)]
struct Seen {
    ok: Cell<u32>,
    infeasible: Cell<u32>,
}

impl Seen {
    fn count(&self, ok: bool) {
        let c = if ok { &self.ok } else { &self.infeasible };
        c.set(c.get() + 1);
    }

    fn record(&self, r: &Result<Clustering, AllocError>) {
        match r {
            Ok(_) => self.count(true),
            Err(AllocError::NoFeasibleClustering { .. }) => self.count(false),
            Err(_) => {}
        }
    }

    fn assert_both(&self, what: &str) {
        assert!(
            self.ok.get() > 0 && self.infeasible.get() > 0,
            "{what}: {} feasible and {} infeasible outcomes; the generator must produce both",
            self.ok.get(),
            self.infeasible.get()
        );
    }
}

fn same(
    what: &str,
    new: Result<Clustering, AllocError>,
    old: Result<Clustering, AllocError>,
    seen: &Seen,
) -> Result<(), String> {
    prop_assert!(new == old, "{what}: {new:?} != oracle {old:?}");
    seen.record(&new);
    Ok(())
}

#[test]
fn fits_equals_whole_partition_validation() {
    let seen = Seen::default();
    prop::check_cases(
        "fits_equals_whole_partition_validation",
        64,
        e1_style_case,
        |case| {
            let g = &case.graph;
            let check = GroupCheck::new(g);
            let mut rng = Rng::seed_from_u64(g.node_count() as u64 * 31 + case.target as u64);
            let mut nodes: Vec<NodeIdx> = g.node_indices().collect();
            for _ in 0..16 {
                rng.shuffle(&mut nodes);
                let k = rng.gen_range(0..=nodes.len());
                let group = &nodes[..k];
                let expected = Clustering::new(g, oracle::one_group_partition(g, group)).is_ok();
                prop_assert!(
                    check.fits(group) == expected,
                    "fits({group:?}) disagrees with the oracle ({expected})"
                );
                if let Some((&v, rest)) = group.split_last() {
                    prop_assert!(
                        check.fits_with(rest, v) == oracle::accepts(g, rest, v),
                        "fits_with({rest:?}, {v:?}) disagrees with the oracle"
                    );
                }
                seen.count(expected);
            }
            Ok(())
        },
    );
    seen.assert_both("fits");
}

#[test]
fn h3_equals_the_whole_partition_oracle() {
    let seen = Seen::default();
    let w = ImportanceWeights::default();
    prop::check_cases(
        "h3_equals_the_whole_partition_oracle",
        64,
        e1_style_case,
        |case| {
            let (g, t) = (&case.graph, case.target);
            same("h3", h3(g, t, &w), oracle::h3(g, t, &w), &seen)
        },
    );
    seen.assert_both("h3");
}

#[test]
fn h2_equals_the_whole_partition_oracle_under_both_policies() {
    for policy in [BisectPolicy::LargestPart, BisectPolicy::HeaviestPart] {
        let seen = Seen::default();
        prop::check_cases(
            &format!("h2_{policy:?}_equals_the_whole_partition_oracle"),
            64,
            e1_style_case,
            |case| {
                let (g, t) = (&case.graph, case.target);
                same("h2", h2(g, t, policy), oracle::h2(g, t, policy), &seen)
            },
        );
        seen.assert_both(&format!("h2 {policy:?}"));
    }
}

#[test]
fn h2_source_target_equals_the_whole_partition_oracle() {
    let seen = Seen::default();
    let w = ImportanceWeights::default();
    prop::check_cases(
        "h2_source_target_equals_the_whole_partition_oracle",
        64,
        e1_style_case,
        |case| {
            let (g, t) = (&case.graph, case.target);
            same(
                "h2_source_target",
                h2_source_target(g, t, &w),
                oracle::h2_source_target(g, t, &w),
                &seen,
            )
        },
    );
    seen.assert_both("h2_source_target");
}

#[test]
fn timing_refinement_equals_the_whole_partition_oracle() {
    let seen = Seen::default();
    prop::check_cases(
        "timing_refinement_equals_the_whole_partition_oracle",
        64,
        e1_style_case,
        |case| {
            let (g, t) = (&case.graph, case.target);
            same(
                "timing_refinement",
                timing_refinement(g, t),
                oracle::timing_refinement(g, t),
                &seen,
            )
        },
    );
    seen.assert_both("timing_refinement");
}
