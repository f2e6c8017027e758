//! `Placement::remove` against the rebuild it replaces: `Placement::new`
//! over the graph without the removed SW node and the host list without
//! its entry. Members, admitted jobs and throughput must match, the
//! throughput bit for bit.

use std::collections::BTreeSet;

use fcm_alloc::failover::Placement;
use fcm_alloc::sw::{SwEdge, SwGraph, SwNode};
use fcm_alloc::HwGraph;
use fcm_core::AttributeSet;
use fcm_graph::NodeIdx;
use fcm_sched::JobId;
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

#[derive(Debug)]
struct Case {
    g: SwGraph,
    hw: HwGraph,
    host_of: Vec<Option<NodeIdx>>,
    down: BTreeSet<NodeIdx>,
}

/// Up to 24 SW nodes with throughputs that do not add exactly, most of
/// them timed with room for every job, on 2–4 HW nodes; hw0 is down
/// and hosts nothing, and some SW nodes are unhosted.
fn random_case(rng: &mut Rng, size: usize) -> Case {
    let n = 1 + rng.gen_range(0..=23 * size.clamp(1, 100) / 100);
    let hosts = rng.gen_range(2usize..=4);
    let mut g = SwGraph::new();
    for i in 0..n {
        let mut attrs = AttributeSet::default()
            .with_criticality(rng.gen_range(1u32..=9))
            .with_throughput(f64::from(rng.gen_range(1u32..=9)) / 10.0);
        if rng.gen_bool(0.7) {
            attrs = attrs.with_timing(0, 1_000, rng.gen_range(1u64..=20));
        }
        g.add_node(SwNode::new(format!("s{i}"), attrs));
    }
    for _ in 0..n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            g.add_edge(NodeIdx(a), NodeIdx(b), SwEdge::Influence(0.1));
        }
    }
    let host_of = (0..n)
        .map(|_| rng.gen_bool(0.9).then(|| NodeIdx(rng.gen_range(1..hosts))))
        .collect();
    Case {
        g,
        hw: HwGraph::complete(hosts),
        host_of,
        down: BTreeSet::from([NodeIdx(0)]),
    }
}

/// Per HW node: members in order, admitted jobs sorted, and the
/// throughput's bits.
type Shape = Vec<(Vec<NodeIdx>, Vec<(JobId, u64, u64, u64)>, u64)>;

fn shape(p: &Placement, hw: &HwGraph) -> Shape {
    (0..hw.len())
        .map(NodeIdx)
        .map(|h| {
            let mut jobs: Vec<_> = p
                .admission(h)
                .jobs()
                .iter()
                .map(|j| (j.id, j.est, j.tcd, j.ct))
                .collect();
            jobs.sort_unstable();
            (p.members(h).to_vec(), jobs, p.throughput(h).to_bits())
        })
        .collect()
}

/// `Placement::remove(v)` against the rebuild, for one `v`; returns the
/// graph and placement after the removal.
fn remove_and_compare(
    g: &SwGraph,
    hw: &HwGraph,
    p: &Placement,
    v: NodeIdx,
) -> Result<(SwGraph, Placement), String> {
    let mut live = p.clone();
    live.remove(g, v);
    let mut without = g.clone();
    without.remove_node(v);
    let mut host_of = p.host_of().to_vec();
    host_of.remove(v.index());
    let twin = Placement::new(&without, hw, host_of, p.down().clone())
        .map_err(|e| format!("rebuild without {v} is invalid: {e:?}"))?;
    prop_assert_eq!(live.host_of(), twin.host_of());
    prop_assert_eq!(live.down(), twin.down());
    prop_assert_eq!(shape(&live, hw), shape(&twin, hw));
    Ok((without, live))
}

#[test]
fn remove_equals_the_rebuild_without_the_node() {
    prop::check_cases(
        "remove_equals_the_rebuild_without_the_node",
        64,
        random_case,
        |c| {
            let p = Placement::new(&c.g, &c.hw, c.host_of.clone(), c.down.clone())
                .map_err(|e| format!("{e:?}"))?;
            for v in c.g.node_indices() {
                remove_and_compare(&c.g, &c.hw, &p, v)?;
            }
            // Removals in sequence, always from the middle.
            let (mut g, mut p) = (c.g.clone(), p);
            while !g.is_empty() {
                let v = NodeIdx(g.node_count() / 2);
                (g, p) = remove_and_compare(&g, &c.hw, &p, v)?;
            }
            prop_assert!(p.host_of().is_empty());
            Ok(())
        },
    );
}

#[test]
fn timed_neighbours_on_the_removed_nodes_host_are_relabelled() {
    // hw1 carries timed s0, s2, s4 (throughputs 0.1, 0.2, 0.7); s1 and
    // s3 sit on hw2. Removing s2 leaves jobs 0 and 3 on hw1 and a sum
    // that 0.1 + 0.2 + 0.7 - 0.2 would miss.
    let mut g = SwGraph::new();
    for (i, t) in [0.1, 0.3, 0.2, 0.4, 0.7].into_iter().enumerate() {
        let attrs = AttributeSet::default()
            .with_throughput(t)
            .with_timing(0, 100, 10 + i as u64);
        g.add_node(SwNode::new(format!("s{i}"), attrs));
    }
    let hw = HwGraph::complete(3);
    let hosts = [1, 2, 1, 2, 1].map(|h| Some(NodeIdx(h))).to_vec();
    let mut p = Placement::new(&g, &hw, hosts, BTreeSet::new()).unwrap();
    p.remove(&g, NodeIdx(2));
    assert_eq!(p.members(NodeIdx(1)), &[NodeIdx(0), NodeIdx(3)]);
    assert_eq!(p.members(NodeIdx(2)), &[NodeIdx(1), NodeIdx(2)]);
    let ids = |h| {
        let mut ids: Vec<JobId> = p
            .admission(NodeIdx(h))
            .jobs()
            .iter()
            .map(|j| j.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(ids(1), vec![0, 3]);
    assert_eq!(ids(2), vec![1, 2]);
    assert_eq!(p.throughput(NodeIdx(1)).to_bits(), (0.1f64 + 0.7).to_bits());
    assert_ne!(p.throughput(NodeIdx(1)), 0.1 + 0.2 + 0.7 - 0.2);
}
