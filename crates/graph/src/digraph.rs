//! The core adjacency-list directed graph.

use std::fmt;

use crate::error::GraphError;

/// Stable index of a node inside a [`DiGraph`].
///
/// Indices are assigned densely in insertion order and remain valid for the
/// lifetime of the graph (nodes are never removed from a `DiGraph`; graph
/// *reduction* is done by [condensation](mod@crate::condense) into a new graph,
/// mirroring the paper's workflow where the original FCM graph is kept for
/// traceability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub usize);

impl NodeIdx {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeIdx {
    fn from(i: usize) -> Self {
        NodeIdx(i)
    }
}

/// Stable index of an edge inside a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeIdx(pub usize);

impl EdgeIdx {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge with its endpoints and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge<E> {
    /// Source node.
    pub from: NodeIdx,
    /// Target node.
    pub to: NodeIdx,
    /// Edge payload (for influence graphs, the influence value and factor
    /// tuple).
    pub weight: E,
}

/// An adjacency-list directed multigraph with node payloads `N` and edge
/// payloads `E`.
///
/// Parallel edges are permitted (the FCM graph never creates them, but the
/// condensation step may before combination); self-loops are rejected with
/// [`GraphError::SelfLoop`] because influence of an FCM on itself is
/// meaningless in the paper's model.
///
/// # Example
///
/// ```
/// use fcm_graph::DiGraph;
///
/// let mut g: DiGraph<&str, f64> = DiGraph::new();
/// let p1 = g.add_node("p1");
/// let p2 = g.add_node("p2");
/// g.add_edge(p1, p2, 0.5);
/// g.add_edge(p2, p1, 0.7);
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(*g.edge_weight_between(p2, p1).unwrap(), 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Outgoing edge indices per node.
    out_adj: Vec<Vec<EdgeIdx>>,
    /// Incoming edge indices per node.
    in_adj: Vec<Vec<EdgeIdx>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::new(),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node with the given payload and returns its index.
    pub fn add_node(&mut self, payload: N) -> NodeIdx {
        let idx = NodeIdx(self.nodes.len());
        self.nodes.push(payload);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        idx
    }

    /// Adds a directed edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds or if `from == to`
    /// (self-loop). Use [`DiGraph::try_add_edge`] for a fallible version.
    pub fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, weight: E) -> EdgeIdx {
        self.try_add_edge(from, to, weight)
            .expect("invalid edge endpoints")
    }

    /// Adds a directed edge `from → to`, reporting invalid endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint does not
    /// exist, or [`GraphError::SelfLoop`] when `from == to`.
    pub fn try_add_edge(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        weight: E,
    ) -> Result<EdgeIdx, GraphError> {
        let n = self.nodes.len();
        if from.0 >= n || to.0 >= n {
            return Err(GraphError::NodeOutOfBounds {
                index: from.0.max(to.0),
                len: n,
            });
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from.0 });
        }
        let idx = EdgeIdx(self.edges.len());
        self.edges.push(Edge { from, to, weight });
        self.out_adj[from.0].push(idx);
        self.in_adj[to.0].push(idx);
        Ok(idx)
    }

    /// Removes the last node together with its edges and returns its
    /// payload — the undo of an [`add_node`](Self::add_node) and the
    /// edges added to the node right after it. Every edge of the node
    /// must be among the trailing edges, so no other edge id shifts.
    ///
    /// # Panics
    ///
    /// Panics when the graph is empty or an edge of the last node sits
    /// before an edge that does not touch it.
    pub fn pop_node(&mut self) -> N {
        let v = NodeIdx(
            self.nodes
                .len()
                .checked_sub(1)
                .expect("pop_node on an empty graph"),
        );
        while let Some(e) = self.edges.last() {
            if e.from != v && e.to != v {
                break;
            }
            let e = self.edges.pop().expect("just seen");
            // The edge is the newest one, so it is the last entry of its
            // other endpoint's adjacency list.
            if e.from != v {
                self.out_adj[e.from.0].pop();
            }
            if e.to != v {
                self.in_adj[e.to.0].pop();
            }
        }
        let out = self.out_adj.pop().expect("one list per node");
        let inc = self.in_adj.pop().expect("one list per node");
        assert!(
            out.iter().chain(&inc).all(|e| e.0 >= self.edges.len()),
            "an edge of the popped node is not among the trailing edges"
        );
        self.nodes.pop().expect("checked non-empty")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Payload of `node`, if it exists.
    pub fn node(&self, node: NodeIdx) -> Option<&N> {
        self.nodes.get(node.0)
    }

    /// Mutable payload of `node`, if it exists.
    pub fn node_mut(&mut self, node: NodeIdx) -> Option<&mut N> {
        self.nodes.get_mut(node.0)
    }

    /// The edge at `edge`, if it exists.
    pub fn edge(&self, edge: EdgeIdx) -> Option<&Edge<E>> {
        self.edges.get(edge.0)
    }

    /// Mutable access to the edge at `edge`, if it exists.
    pub fn edge_mut(&mut self, edge: EdgeIdx) -> Option<&mut Edge<E>> {
        self.edges.get_mut(edge.0)
    }

    /// Iterates over all node indices in insertion order.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.nodes.len()).map(NodeIdx)
    }

    /// Iterates over `(index, payload)` pairs in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIdx, &N)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeIdx(i), n))
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeIdx, &Edge<E>)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeIdx(i), e))
    }

    /// Iterates over the outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeIdx) -> impl Iterator<Item = (EdgeIdx, &Edge<E>)> + '_ {
        self.out_adj
            .get(node.0)
            .into_iter()
            .flatten()
            .map(move |&e| (e, &self.edges[e.0]))
    }

    /// Iterates over the incoming edges of `node`.
    pub fn in_edges(&self, node: NodeIdx) -> impl Iterator<Item = (EdgeIdx, &Edge<E>)> + '_ {
        self.in_adj
            .get(node.0)
            .into_iter()
            .flatten()
            .map(move |&e| (e, &self.edges[e.0]))
    }

    /// Iterates over successor node indices of `node` (with multiplicity for
    /// parallel edges).
    pub fn successors(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.out_edges(node).map(|(_, e)| e.to)
    }

    /// Iterates over predecessor node indices of `node`.
    pub fn predecessors(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.in_edges(node).map(|(_, e)| e.from)
    }

    /// Out-degree of `node` (counting parallel edges).
    pub fn out_degree(&self, node: NodeIdx) -> usize {
        self.out_adj.get(node.0).map_or(0, Vec::len)
    }

    /// In-degree of `node` (counting parallel edges).
    pub fn in_degree(&self, node: NodeIdx) -> usize {
        self.in_adj.get(node.0).map_or(0, Vec::len)
    }

    /// The first edge `from → to`, if any.
    pub fn find_edge(&self, from: NodeIdx, to: NodeIdx) -> Option<EdgeIdx> {
        self.out_adj
            .get(from.0)?
            .iter()
            .copied()
            .find(|&e| self.edges[e.0].to == to)
    }

    /// Weight of the first edge `from → to`, if any.
    pub fn edge_weight_between(&self, from: NodeIdx, to: NodeIdx) -> Option<&E> {
        self.find_edge(from, to).map(|e| &self.edges[e.0].weight)
    }

    /// Returns `true` when there is at least one edge `from → to`.
    pub fn has_edge(&self, from: NodeIdx, to: NodeIdx) -> bool {
        self.find_edge(from, to).is_some()
    }

    /// Maps node and edge payloads into a new graph with the same shape.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeIdx, &N) -> N2,
        mut edge_map: impl FnMut(EdgeIdx, &Edge<E>) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| node_map(NodeIdx(i), n))
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| Edge {
                    from: e.from,
                    to: e.to,
                    weight: edge_map(EdgeIdx(i), e),
                })
                .collect(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
        }
    }
}

impl<N, E: Copy + Into<f64>> DiGraph<N, E> {
    /// Sum of `weight(u→v) + weight(v→u)` — the paper's *mutual influence*
    /// used by heuristic H1 to pick the next pair to combine.
    ///
    /// Missing edges contribute zero; parallel edges all contribute.
    pub fn mutual_weight(&self, u: NodeIdx, v: NodeIdx) -> f64 {
        let fwd: f64 = self
            .out_edges(u)
            .filter(|(_, e)| e.to == v)
            .map(|(_, e)| e.weight.into())
            .sum();
        let back: f64 = self
            .out_edges(v)
            .filter(|(_, e)| e.to == u)
            .map(|(_, e)| e.weight.into())
            .sum();
        fwd + back
    }
}

impl<N: fmt::Display, E: fmt::Display> DiGraph<N, E> {
    /// Renders the graph as an edge list, one edge per line:
    /// `"<from> -> <to> [<weight>]"`. Used by the figure-reproduction
    /// binaries.
    pub fn to_edge_list(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for (_, e) in self.edges() {
            let _ = writeln!(
                s,
                "{} -> {} [{}]",
                self.nodes[e.from.0], self.nodes[e.to.0], e.weight
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, f64>, [NodeIdx; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 2.0);
        g.add_edge(b, d, 3.0);
        g.add_edge(c, d, 4.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_indices().count(), 0);
    }

    #[test]
    fn default_equals_new() {
        let g: DiGraph<u8, u8> = DiGraph::default();
        assert_eq!(g, DiGraph::new());
    }

    #[test]
    fn add_node_returns_dense_indices() {
        let mut g: DiGraph<i32, ()> = DiGraph::new();
        assert_eq!(g.add_node(10), NodeIdx(0));
        assert_eq!(g.add_node(20), NodeIdx(1));
        assert_eq!(g.node(NodeIdx(1)), Some(&20));
        assert_eq!(g.node(NodeIdx(2)), None);
    }

    #[test]
    fn adjacency_is_tracked_both_ways() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        let succs: Vec<_> = g.successors(a).collect();
        assert_eq!(succs, vec![b, c]);
        let preds: Vec<_> = g.predecessors(d).collect();
        assert_eq!(preds, vec![b, c]);
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let err = g.try_add_edge(a, a, 1.0).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 0 }));
    }

    #[test]
    fn out_of_bounds_edge_is_rejected() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let err = g.try_add_edge(a, NodeIdx(7), 1.0).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfBounds { index: 7, len: 1 }
        ));
    }

    #[test]
    #[should_panic(expected = "invalid edge endpoints")]
    fn add_edge_panics_on_bad_endpoint() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeIdx(3), 1.0);
    }

    #[test]
    fn parallel_edges_are_allowed_and_counted() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0.1);
        g.add_edge(a, b, 0.2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
        // find_edge returns the first inserted parallel edge.
        assert_eq!(*g.edge_weight_between(a, b).unwrap(), 0.1);
    }

    #[test]
    fn mutual_weight_sums_both_directions() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0.5);
        g.add_edge(b, a, 0.7);
        assert!((g.mutual_weight(a, b) - 1.2).abs() < 1e-12);
        assert!((g.mutual_weight(b, a) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn mutual_weight_missing_edges_are_zero() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.mutual_weight(a, d), 0.0);
    }

    #[test]
    fn map_preserves_shape() {
        let (g, [a, _, _, d]) = diamond();
        let g2 = g.map(
            |i, name| format!("{name}{}", i.index()),
            |_, e| e.weight * 10.0,
        );
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 4);
        assert_eq!(g2.node(a).unwrap(), "a0");
        assert_eq!(g2.in_degree(d), 2);
        assert_eq!(*g2.edge_weight_between(NodeIdx(1), d).unwrap(), 30.0);
    }

    #[test]
    fn edge_mut_updates_weight() {
        let (mut g, [a, b, _, _]) = diamond();
        let e = g.find_edge(a, b).unwrap();
        g.edge_mut(e).unwrap().weight = 9.0;
        assert_eq!(*g.edge_weight_between(a, b).unwrap(), 9.0);
    }

    #[test]
    fn to_edge_list_renders_all_edges() {
        let (g, _) = diamond();
        let s = g.to_edge_list();
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("a -> b [1]"));
        assert!(s.contains("c -> d [4]"));
    }

    #[test]
    fn display_of_indices() {
        assert_eq!(NodeIdx(3).to_string(), "n3");
        assert_eq!(EdgeIdx(5).to_string(), "e5");
        assert_eq!(NodeIdx::from(2).index(), 2);
    }
}
