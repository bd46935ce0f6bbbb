//! Topological sorting (Kahn's algorithm).

use crate::{DiGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Returns a topological order of `graph`, or `None` if the graph has a
/// cycle.  Ties are broken by node id, so the result is deterministic (and is
/// the lexicographically smallest topological order).
pub fn topological_sort(graph: &DiGraph) -> Option<Vec<NodeId>> {
    let mut in_deg = graph.in_degrees();
    let mut heap: BinaryHeap<Reverse<NodeId>> = graph
        .nodes()
        .filter(|n| in_deg[n.index()] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(graph.node_count());
    while let Some(Reverse(n)) = heap.pop() {
        order.push(n);
        for succ in graph.successors(n) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                heap.push(Reverse(succ));
            }
        }
    }
    if order.len() == graph.node_count() {
        Some(order)
    } else {
        None
    }
}

/// `true` if `graph` is acyclic.
pub fn is_acyclic(graph: &DiGraph) -> bool {
    topological_sort(graph).is_some()
}

/// `true` if `order` is a valid topological order of `graph` (contains every
/// node exactly once and respects every arc).
#[cfg(test)]
pub(crate) fn is_topological_order(graph: &DiGraph, order: &[NodeId]) -> bool {
    if order.len() != graph.node_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; graph.node_count()];
    for (i, &n) in order.iter().enumerate() {
        if n.index() >= graph.node_count() || pos[n.index()] != usize::MAX {
            return false;
        }
        pos[n.index()] = i;
    }
    graph.arcs().all(|(a, b)| pos[a.index()] < pos[b.index()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_a_dag() {
        let mut g = DiGraph::with_nodes(4);
        g.add_arc(NodeId(2), NodeId(0));
        g.add_arc(NodeId(0), NodeId(1));
        g.add_arc(NodeId(1), NodeId(3));
        let order = topological_sort(&g).unwrap();
        assert!(is_topological_order(&g, &order));
        assert_eq!(order[0], NodeId(2));
        assert!(is_acyclic(&g));
    }

    #[test]
    fn detects_cycles() {
        let mut g = DiGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(1));
        g.add_arc(NodeId(1), NodeId(2));
        g.add_arc(NodeId(2), NodeId(0));
        assert!(topological_sort(&g).is_none());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::with_nodes(1);
        g.add_arc(NodeId(0), NodeId(0));
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn empty_and_arcless_graphs_are_acyclic() {
        assert!(is_acyclic(&DiGraph::new()));
        let g = DiGraph::with_nodes(5);
        let order = topological_sort(&g).unwrap();
        assert_eq!(order, (0..5).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn is_topological_order_rejects_bad_orders() {
        let mut g = DiGraph::with_nodes(2);
        g.add_arc(NodeId(0), NodeId(1));
        assert!(!is_topological_order(&g, &[NodeId(1), NodeId(0)]));
        assert!(!is_topological_order(&g, &[NodeId(0)]));
        assert!(!is_topological_order(&g, &[NodeId(0), NodeId(0)]));
        assert!(is_topological_order(&g, &[NodeId(0), NodeId(1)]));
    }

    #[test]
    fn ties_break_by_node_id() {
        let g = DiGraph::with_nodes(3);
        assert_eq!(
            topological_sort(&g).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }
}
