//! A small, dense directed graph.
//!
//! Nodes are identified by dense indices ([`NodeId`]); callers keep their own
//! mapping from domain objects (transactions, polygraph nodes, ...) to node
//! ids.  Parallel arcs are collapsed; self-loops are allowed and reported as
//! cycles by the cycle detector.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed graph over dense node ids with labelled nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiGraph {
    labels: Vec<String>,
    /// Sorted adjacency sets (collapse parallel arcs, keep deterministic
    /// iteration order).
    succs: Vec<BTreeSet<NodeId>>,
}

impl DiGraph {
    /// Creates a graph with `n` unlabelled nodes.
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            labels: (0..n).map(|i| format!("n{i}")).collect(),
            succs: vec![BTreeSet::new(); n],
        }
    }

    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            labels: Vec::new(),
            succs: Vec::new(),
        }
    }

    /// Adds a node with the given label, returning its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.into());
        self.succs.push(BTreeSet::new());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (distinct) arcs.
    pub fn arc_count(&self) -> usize {
        self.succs.iter().map(|s| s.len()).sum()
    }

    /// The label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.index()]
    }

    /// Sets the label of `node`.
    pub(crate) fn set_label(&mut self, node: NodeId, label: impl Into<String>) {
        self.labels[node.index()] = label.into();
    }

    /// Adds the arc `from → to` (idempotent). Panics if either endpoint is
    /// out of range.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.node_count(), "arc source out of range");
        assert!(to.index() < self.node_count(), "arc target out of range");
        self.succs[from.index()].insert(to);
    }

    /// `true` if the arc `from → to` is present.
    pub fn has_arc(&self, from: NodeId, to: NodeId) -> bool {
        self.succs[from.index()].contains(&to)
    }

    /// The successors of `node` in ascending id order.
    pub(crate) fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[node.index()].iter().copied()
    }

    /// All nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All arcs `(from, to)` in deterministic order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |from| self.successors(from).map(move |to| (from, to)))
    }

    /// In-degree of every node.
    pub(crate) fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.node_count()];
        for (_, to) in self.arcs() {
            deg[to.index()] += 1;
        }
        deg
    }

    /// `true` if there is a path from `from` to `to` (including the empty
    /// path when `from == to`).
    pub(crate) fn has_path(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            for succ in self.successors(n) {
                if succ == to {
                    return true;
                }
                if !seen[succ.index()] {
                    seen[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }
        false
    }
}

impl Default for DiGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_nodes_and_arcs() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_arc(a, b);
        g.add_arc(b, c);
        g.add_arc(a, b); // duplicate collapses
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 2);
        assert!(g.has_arc(a, b));
        assert!(!g.has_arc(b, a));
        assert_eq!(g.label(c), "c");
    }

    #[test]
    fn with_nodes_constructor() {
        let g = DiGraph::with_nodes(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.label(NodeId(2)), "n2");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arc_to_missing_node_panics() {
        let mut g = DiGraph::with_nodes(1);
        g.add_arc(NodeId(0), NodeId(5));
    }

    #[test]
    fn relabel() {
        let mut g = DiGraph::with_nodes(2);
        g.set_label(NodeId(0), "start");
        assert_eq!(g.label(NodeId(0)), "start");
    }

    #[test]
    fn path_queries() {
        let mut g = DiGraph::with_nodes(4);
        g.add_arc(NodeId(0), NodeId(1));
        g.add_arc(NodeId(1), NodeId(2));
        assert!(g.has_path(NodeId(0), NodeId(2)));
        assert!(g.has_path(NodeId(3), NodeId(3)));
        assert!(!g.has_path(NodeId(2), NodeId(0)));
        assert!(!g.has_path(NodeId(0), NodeId(3)));
    }

    #[test]
    fn arcs_iteration_and_in_degrees() {
        let mut g = DiGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(2));
        g.add_arc(NodeId(1), NodeId(2));
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]);
        assert_eq!(g.in_degrees(), vec![0, 0, 2]);
    }
}
