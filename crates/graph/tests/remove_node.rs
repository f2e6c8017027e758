//! `DiGraph::remove_node` against the rebuild it replaces: a new graph
//! built from the other nodes and then the other edges, in index order.

use fcm_graph::{DiGraph, NodeIdx};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

type G = DiGraph<usize, f64>;

/// The oracle: `g` rebuilt without `v`, survivors in their relative
/// node and edge order.
fn rebuilt_without(g: &G, v: NodeIdx) -> G {
    let mut next = DiGraph::new();
    let mut remap = vec![usize::MAX; g.node_count()];
    for (n, payload) in g.nodes() {
        if n != v {
            remap[n.index()] = next.add_node(*payload).index();
        }
    }
    for (_, e) in g.edges() {
        if e.from != v && e.to != v {
            next.add_edge(
                NodeIdx(remap[e.from.index()]),
                NodeIdx(remap[e.to.index()]),
                e.weight,
            );
        }
    }
    next
}

/// A random multigraph whose edges are added in shuffled order: node 0
/// is a hub joined to every other node both ways, the last node is
/// isolated, and some pairs carry parallel edges.
fn random_graph(rng: &mut Rng, size: usize) -> G {
    let n = 2 + rng.gen_range(0..=10 * size.clamp(1, 100) / 100);
    let mut pairs = Vec::new();
    for a in 0..n - 1 {
        for b in 0..n - 1 {
            let hub = a != b && (a == 0 || b == 0);
            if hub || (a != b && rng.gen_bool(0.3)) {
                pairs.push((a, b));
                if rng.gen_bool(0.1) {
                    pairs.push((a, b));
                }
            }
        }
    }
    rng.shuffle(&mut pairs);
    let mut g = DiGraph::new();
    for i in 0..n {
        g.add_node(i);
    }
    for (a, b) in pairs {
        g.add_edge(NodeIdx(a), NodeIdx(b), rng.gen_range(0.01..=1.0));
    }
    g
}

/// Node payloads, the edge list (weights as bits) and every node's
/// out- then in-adjacency, in order.
type Shape = (Vec<usize>, Vec<(usize, usize, u64)>, Vec<Vec<usize>>);

fn shape(g: &G) -> Shape {
    let nodes = g.nodes().map(|(_, &p)| p).collect();
    let edges = g
        .edges()
        .map(|(_, e)| (e.from.index(), e.to.index(), e.weight.to_bits()))
        .collect();
    let adjacency = g
        .node_indices()
        .flat_map(|n| {
            [
                g.out_edges(n).map(|(e, _)| e.index()).collect(),
                g.in_edges(n).map(|(e, _)| e.index()).collect(),
            ]
        })
        .collect();
    (nodes, edges, adjacency)
}

#[test]
fn remove_node_equals_the_rebuild_without_it() {
    prop::check_cases(
        "remove_node_equals_the_rebuild_without_it",
        64,
        random_graph,
        |g| {
            for v in g.node_indices() {
                let mut removed = g.clone();
                let payload = removed.remove_node(v);
                let oracle = rebuilt_without(g, v);
                prop_assert_eq!(payload, g.node(v).copied().unwrap());
                prop_assert_eq!(shape(&removed), shape(&oracle));
                prop_assert!(removed == oracle, "graphs differ after removing {v}");
            }
            Ok(())
        },
    );
}

#[test]
fn removing_every_node_in_turn_empties_the_graph() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    let mut g = random_graph(&mut rng, 100);
    while !g.is_empty() {
        let v = NodeIdx(rng.gen_range(0..g.node_count()));
        let oracle = rebuilt_without(&g, v);
        g.remove_node(v);
        assert_eq!(g, oracle);
    }
    assert_eq!(g.edge_count(), 0);
}

#[test]
#[should_panic(expected = "remove_node out of bounds")]
fn remove_node_out_of_bounds_panics() {
    let mut g: G = DiGraph::new();
    g.add_node(0);
    g.remove_node(NodeIdx(1));
}
