//! Cycle detection with explicit witnesses.

use crate::{DiGraph, NodeId};

/// Finds a cycle in `graph`, returned as the sequence of nodes along the
/// cycle (the arc from the last node back to the first closes it), or `None`
/// if the graph is acyclic.
pub fn find_cycle(graph: &DiGraph) -> Option<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let n = graph.node_count();
    let mut colour = vec![Colour::White; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];

    // Iterative DFS with an explicit stack of (node, successor iterator
    // position) to avoid recursion depth limits on large graphs.
    for start in graph.nodes() {
        if colour[start.index()] != Colour::White {
            continue;
        }
        let mut stack: Vec<(NodeId, Vec<NodeId>, usize)> = Vec::new();
        colour[start.index()] = Colour::Grey;
        stack.push((start, graph.successors(start).collect(), 0));
        while let Some((node, succs, idx)) = stack.last_mut() {
            if *idx < succs.len() {
                let next = succs[*idx];
                *idx += 1;
                match colour[next.index()] {
                    Colour::White => {
                        colour[next.index()] = Colour::Grey;
                        parent[next.index()] = Some(*node);
                        let s: Vec<NodeId> = graph.successors(next).collect();
                        stack.push((next, s, 0));
                    }
                    Colour::Grey => {
                        // Found a back arc `node -> next`: walk parents from
                        // `node` back to `next` to recover the cycle.
                        let mut cycle = vec![*node];
                        let mut cur = *node;
                        while cur != next {
                            // lint: allow(unwrap) — parent[] is set for every node on the walked path
                            cur = parent[cur.index()].expect("grey nodes have parents");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node.index()] = Colour::Black;
                stack.pop();
            }
        }
    }
    None
}

/// `true` if `nodes` is a cycle of `graph`: non-empty, every consecutive pair
/// is an arc, and the last node has an arc back to the first.
#[cfg(test)]
pub(crate) fn is_cycle(graph: &DiGraph, nodes: &[NodeId]) -> bool {
    if nodes.is_empty() {
        return false;
    }
    for w in nodes.windows(2) {
        if !graph.has_arc(w[0], w[1]) {
            return false;
        }
    }
    graph.has_arc(nodes[nodes.len() - 1], nodes[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_simple_cycle() {
        let mut g = DiGraph::with_nodes(4);
        g.add_arc(NodeId(0), NodeId(1));
        g.add_arc(NodeId(1), NodeId(2));
        g.add_arc(NodeId(2), NodeId(1));
        g.add_arc(NodeId(2), NodeId(3));
        let cycle = find_cycle(&g).unwrap();
        assert!(is_cycle(&g, &cycle));
        assert!(cycle.contains(&NodeId(1)) && cycle.contains(&NodeId(2)));
    }

    #[test]
    fn none_for_dag() {
        let mut g = DiGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(1));
        g.add_arc(NodeId(0), NodeId(2));
        g.add_arc(NodeId(1), NodeId(2));
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn self_loop_cycle() {
        let mut g = DiGraph::with_nodes(2);
        g.add_arc(NodeId(1), NodeId(1));
        let cycle = find_cycle(&g).unwrap();
        assert_eq!(cycle, vec![NodeId(1)]);
        assert!(is_cycle(&g, &cycle));
    }

    #[test]
    fn long_chain_cycle_witness_is_valid() {
        let n = 50;
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_arc(NodeId(i as u32), NodeId((i + 1) as u32));
        }
        g.add_arc(NodeId((n - 1) as u32), NodeId(0));
        let cycle = find_cycle(&g).unwrap();
        assert_eq!(cycle.len(), n);
        assert!(is_cycle(&g, &cycle));
    }

    #[test]
    fn is_cycle_rejects_non_cycles() {
        let mut g = DiGraph::with_nodes(3);
        g.add_arc(NodeId(0), NodeId(1));
        assert!(!is_cycle(&g, &[]));
        assert!(!is_cycle(&g, &[NodeId(0), NodeId(1)]));
        assert!(!is_cycle(&g, &[NodeId(0), NodeId(2)]));
    }

    #[test]
    fn agreement_with_topological_sort() {
        use crate::topo::is_acyclic;
        // A handful of fixed graphs: find_cycle returns Some exactly when
        // topological sort fails.
        let mut graphs = Vec::new();
        let mut g1 = DiGraph::with_nodes(4);
        g1.add_arc(NodeId(0), NodeId(1));
        g1.add_arc(NodeId(1), NodeId(2));
        graphs.push(g1);
        let mut g2 = DiGraph::with_nodes(4);
        g2.add_arc(NodeId(0), NodeId(1));
        g2.add_arc(NodeId(1), NodeId(0));
        graphs.push(g2);
        let mut g3 = DiGraph::with_nodes(5);
        for i in 0..4 {
            g3.add_arc(NodeId(i), NodeId(i + 1));
        }
        g3.add_arc(NodeId(4), NodeId(2));
        graphs.push(g3);
        for g in &graphs {
            assert_eq!(find_cycle(g).is_none(), is_acyclic(g));
        }
    }
}
