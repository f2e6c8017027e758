//! Property tests of the singleton Eq. 4 builder
//! (`pipeline::eq4_singletons`): on random graphs, and on the same
//! graphs after random node removals, it must equal a full `condense`
//! over the singleton partition **bitwise** and pick the representation
//! the selection policy picks for that matrix.
//!
//! The graphs carry what the fold must associate exactly as `condense`
//! does: parallel edges (several weights into one entry, folded in
//! edge-id order), replica links (weight 0), weights so small that
//! `1 − w` rounds to 1, weight 1, and both sides of the dense/CSR
//! threshold (n ≥ 64 at density ≤ 5%).

use fcm_alloc::pipeline::eq4_singletons;
use fcm_alloc::sw::{SwEdge, SwGraph, SwNode};
use fcm_core::AttributeSet;
use fcm_graph::{condense, CombineRule, InfluenceMatrix, NodeIdx};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

/// One random edge weight, the edge cases over-represented.
fn weight(rng: &mut Rng) -> SwEdge {
    match rng.gen_range(0..10u32) {
        0 => SwEdge::ReplicaLink,
        1 => SwEdge::Influence(1.0),
        2 => SwEdge::Influence(1e-17),
        3 => SwEdge::Influence(f64::EPSILON / 4.0),
        _ => SwEdge::Influence(rng.gen_range(0.01..=0.99)),
    }
}

/// A random graph of `n` nodes without self-loops: about `n · degree`
/// edges, a fifth of them repeating an earlier edge's endpoints.
fn random_graph(rng: &mut Rng, n: usize, degree: f64) -> SwGraph {
    let mut g = SwGraph::new();
    for i in 0..n {
        g.add_node(SwNode::new(format!("f{i}"), AttributeSet::default()));
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for _ in 0..(n as f64 * degree) as usize {
        let (u, v) = match pairs.len() {
            len if len > 0 && rng.gen_bool(0.2) => pairs[rng.gen_range(0..len)],
            _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
        };
        if u != v {
            pairs.push((u, v));
            g.add_edge(NodeIdx(u), NodeIdx(v), weight(rng));
        }
    }
    g
}

/// The fold of `g` against the singleton `condense`, entry by entry.
fn assert_matches_condense(g: &SwGraph, what: &str) -> Result<(), String> {
    let n = g.node_count();
    let folded = eq4_singletons(g);
    let groups: Vec<Vec<NodeIdx>> = g.node_indices().map(|v| vec![v]).collect();
    let full = condense(g, &groups, CombineRule::Probabilistic)
        .expect("singletons partition")
        .influence_matrix();
    let policy = InfluenceMatrix::from_dense_auto(full.clone());
    prop_assert_eq!(
        folded.repr(),
        policy.repr(),
        "{} n {}: representation",
        what,
        n
    );
    prop_assert!(folded == policy, "{}: InfluenceMatrix::eq", what);
    for i in 0..n {
        for j in 0..n {
            prop_assert_eq!(
                folded[(i, j)].to_bits(),
                full[(i, j)].to_bits(),
                "{} entry ({}, {}): fold {} vs condense {}",
                what,
                i,
                j,
                folded[(i, j)],
                full[(i, j)]
            );
        }
    }
    Ok(())
}

#[test]
fn the_fold_equals_a_singleton_condense_bitwise_before_and_after_removals() {
    prop::check_cases(
        "the_fold_equals_a_singleton_condense_bitwise_before_and_after_removals",
        64,
        |rng, size| {
            // Sizes straddle the 64-node threshold; sparse and dense fills.
            let n = 1 + rng.gen_range(0..=(100 * size.clamp(1, 100) / 100));
            let degree = if rng.gen_bool(0.5) {
                rng.gen_range(0.5..2.5)
            } else {
                rng.gen_range(4.0..12.0)
            };
            let g = random_graph(rng, n, degree);
            let removals: Vec<usize> = (0..rng.gen_range(0..=n.min(8)))
                .map(|k| rng.gen_range(0..n - k))
                .collect();
            (g, removals)
        },
        |(g, removals)| {
            assert_matches_condense(g, "grown")?;
            let mut g = g.clone();
            for &v in removals {
                g.remove_node(NodeIdx(v));
                assert_matches_condense(&g, "after a removal")?;
            }
            Ok(())
        },
    );
}

#[test]
fn tiny_weights_fold_to_zero_and_parallel_edges_fold_in_order() {
    let mut g = SwGraph::new();
    for i in 0..3 {
        g.add_node(SwNode::new(format!("f{i}"), AttributeSet::default()));
    }
    g.add_edge(NodeIdx(0), NodeIdx(1), SwEdge::Influence(1e-17));
    g.add_edge(NodeIdx(1), NodeIdx(2), SwEdge::Influence(0.25));
    g.add_edge(NodeIdx(2), NodeIdx(0), SwEdge::ReplicaLink);
    g.add_edge(NodeIdx(1), NodeIdx(2), SwEdge::Influence(0.5));
    assert_matches_condense(&g, "three nodes").unwrap();
    let m = eq4_singletons(&g);
    assert_eq!(m[(0, 1)], 0.0, "1 - 1e-17 rounds to 1");
    assert_eq!(m[(2, 0)], 0.0, "a replica link carries no influence");
    assert_eq!(m[(1, 2)], 1.0 - 0.75 * 0.5);
    assert_eq!(m.nnz(), 1);
}
