//! Polygraphs: the NP-complete acyclicity structure behind the paper's
//! hardness results.
//!
//! A *polygraph* (Papadimitriou 1979, and Section 2 of the paper) is a triple
//! `(N, A, C)` where `N` is a set of nodes, `A` a set of arcs, and `C` a set
//! of *choices* — ordered triples `(j, k, i)` such that `(i, j)` is an arc.
//! A directed graph `(N', A')` is *compatible* with the polygraph iff
//! `N ⊆ N'`, `A ⊆ A'`, and for every choice `(j, k, i)` at least one of
//! `(j, k)` or `(k, i)` is in `A'`.  The polygraph is *acyclic* iff it has a
//! compatible acyclic directed graph; equivalently, iff some selection of one
//! branch per choice together with `A` forms a DAG.
//!
//! Testing polygraph acyclicity is NP-complete; the solvers live in
//! [`crate::poly_acyclic`].

use crate::{DiGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A choice `(j, k, i)`: the compatible graph must contain `(j, k)` or
/// `(k, i)`; the polygraph always contains the arc `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Choice {
    /// The node `j` (head of the mandatory arc `(i, j)`).
    pub j: NodeId,
    /// The "middle" node `k` that must be placed before `i` or after `j`.
    pub k: NodeId,
    /// The node `i` (tail of the mandatory arc `(i, j)`).
    pub i: NodeId,
}

impl Choice {
    /// The first branch `(j, k)`.
    pub(crate) fn first_branch(&self) -> (NodeId, NodeId) {
        (self.j, self.k)
    }

    /// The second branch `(k, i)`.
    pub(crate) fn second_branch(&self) -> (NodeId, NodeId) {
        (self.k, self.i)
    }

    /// The mandatory arc `(i, j)` associated with the choice.
    pub fn mandatory_arc(&self) -> (NodeId, NodeId) {
        (self.i, self.j)
    }

    /// The three nodes involved in the choice.
    pub fn nodes(&self) -> [NodeId; 3] {
        [self.j, self.k, self.i]
    }
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.j, self.k, self.i)
    }
}

/// A polygraph `(N, A, C)`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Polygraph {
    node_count: usize,
    labels: Vec<String>,
    arcs: BTreeSet<(NodeId, NodeId)>,
    choices: Vec<Choice>,
}

impl Polygraph {
    /// Creates a polygraph with `n` nodes and no arcs or choices.
    pub fn with_nodes(n: usize) -> Self {
        Polygraph {
            node_count: n,
            labels: (0..n).map(|i| format!("n{i}")).collect(),
            arcs: BTreeSet::new(),
            choices: Vec::new(),
        }
    }

    /// Adds a node with the given label, returning its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_count as u32);
        self.node_count += 1;
        self.labels.push(label.into());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.index()]
    }

    /// Adds the arc `from → to`.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.node_count && to.index() < self.node_count);
        self.arcs.insert((from, to));
    }

    /// Adds the choice `(j, k, i)`, inserting the mandatory arc `(i, j)` if
    /// it is not already present (the paper's definition requires it).
    pub fn add_choice(&mut self, j: NodeId, k: NodeId, i: NodeId) {
        assert!(
            j.index() < self.node_count
                && k.index() < self.node_count
                && i.index() < self.node_count
        );
        self.arcs.insert((i, j));
        self.choices.push(Choice { j, k, i });
    }

    /// The arcs `A`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.arcs.iter().copied()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The choices `C`.
    pub fn choices(&self) -> &[Choice] {
        &self.choices
    }

    /// Number of choices.
    pub fn choice_count(&self) -> usize {
        self.choices.len()
    }

    /// The graph `(N, A)` of mandatory arcs.
    pub(crate) fn base_graph(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.node_count);
        for i in 0..self.node_count {
            g.set_label(NodeId(i as u32), self.labels[i].clone());
        }
        for &(a, b) in &self.arcs {
            g.add_arc(a, b);
        }
        g
    }

    /// The graph `(N, C1)` of first branches `(j, k)` of all choices —
    /// assumption (b) of Theorem 4 requires it to be acyclic.
    pub(crate) fn first_branch_graph(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.node_count);
        for c in &self.choices {
            g.add_arc(c.j, c.k);
        }
        g
    }

    /// The compatible graph obtained by taking, for every choice, its first
    /// branch when `selection[idx]` is `true` and its second branch
    /// otherwise, in addition to all mandatory arcs.
    pub fn compatible_graph(&self, selection: &[bool]) -> DiGraph {
        assert_eq!(selection.len(), self.choices.len());
        let mut g = self.base_graph();
        for (c, &take_first) in self.choices.iter().zip(selection) {
            let (a, b) = if take_first {
                c.first_branch()
            } else {
                c.second_branch()
            };
            g.add_arc(a, b);
        }
        g
    }

    /// Checks the compatibility condition of the paper for an arbitrary
    /// graph over (a superset of) the same nodes: `A ⊆ A'` and every choice
    /// has at least one branch present.
    #[cfg(test)]
    pub(crate) fn is_compatible(&self, graph: &DiGraph) -> bool {
        if graph.node_count() < self.node_count {
            return false;
        }
        for &(a, b) in &self.arcs {
            if !graph.has_arc(a, b) {
                return false;
            }
        }
        self.choices.iter().all(|c| {
            let (j, k) = c.first_branch();
            let (k2, i) = c.second_branch();
            graph.has_arc(j, k) || graph.has_arc(k2, i)
        })
    }

    /// Assumption (a) of Theorem 4: every arc has at least one corresponding
    /// choice `(j, k, i)` with `(i, j)` that arc.
    pub fn every_arc_has_choice(&self) -> bool {
        let with_choice: BTreeSet<(NodeId, NodeId)> =
            self.choices.iter().map(|c| c.mandatory_arc()).collect();
        self.arcs.iter().all(|a| with_choice.contains(a))
    }

    /// Assumption (b): the first branches of the choices form no cycle.
    pub fn first_branches_acyclic(&self) -> bool {
        crate::topo::is_acyclic(&self.first_branch_graph())
    }

    /// Assumption (c): the mandatory arcs form no cycle.
    pub fn base_acyclic(&self) -> bool {
        crate::topo::is_acyclic(&self.base_graph())
    }

    /// `true` when the three structural assumptions (a)–(c) used in the
    /// proof of Theorem 4 hold.
    pub fn satisfies_theorem4_assumptions(&self) -> bool {
        self.every_arc_has_choice() && self.first_branches_acyclic() && self.base_acyclic()
    }

    /// `true` when no two choices share a node — the structural property of
    /// the polygraphs produced by the reduction from satisfiability that the
    /// proof of Theorem 6 relies on ("if (j, k, i) is a choice in this
    /// polygraph, then no other choice involves any of i, j, or k").
    pub fn choices_node_disjoint(&self) -> bool {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for c in &self.choices {
            for n in c.nodes() {
                if !seen.insert(n) {
                    return false;
                }
            }
        }
        true
    }

    /// The normalisation used in the proof of Theorem 4 to establish
    /// assumption (a) without loss of generality: for every arc `(i, j)`
    /// without a corresponding choice, add a fresh node `k` and the choice
    /// `(j, k, i)`.  The result is acyclic iff `self` is (the fresh nodes
    /// participate in no other arcs or choices).
    pub fn normalized(&self) -> Polygraph {
        let mut out = self.clone();
        let with_choice: BTreeSet<(NodeId, NodeId)> =
            self.choices.iter().map(|c| c.mandatory_arc()).collect();
        let missing: Vec<(NodeId, NodeId)> = self
            .arcs
            .iter()
            .copied()
            .filter(|a| !with_choice.contains(a))
            .collect();
        for (i, j) in missing {
            let k = out.add_node(format!("dummy_{}_{}", i.0, j.0));
            out.choices.push(Choice { j, k, i });
        }
        out
    }
}

impl fmt::Display for Polygraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "polygraph: {} nodes, {} arcs, {} choices",
            self.node_count,
            self.arcs.len(),
            self.choices.len()
        )?;
        for &(a, b) in &self.arcs {
            writeln!(f, "  arc {a} -> {b}")?;
        }
        for c in &self.choices {
            writeln!(f, "  choice {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_choice_inserts_mandatory_arc() {
        let mut p = Polygraph::with_nodes(3);
        p.add_choice(n(0), n(1), n(2)); // choice (j=0, k=1, i=2) => arc (2,0)
        assert_eq!(p.arc_count(), 1);
        assert!(p.arcs().any(|a| a == (n(2), n(0))));
        assert_eq!(p.choice_count(), 1);
    }

    #[test]
    fn compatible_graph_selection() {
        let mut p = Polygraph::with_nodes(3);
        p.add_choice(n(0), n(1), n(2));
        let g_first = p.compatible_graph(&[true]);
        assert!(g_first.has_arc(n(0), n(1)));
        assert!(!g_first.has_arc(n(1), n(2)));
        let g_second = p.compatible_graph(&[false]);
        assert!(g_second.has_arc(n(1), n(2)));
        assert!(p.is_compatible(&g_first));
        assert!(p.is_compatible(&g_second));
        assert!(
            !p.is_compatible(&p.first_branch_graph()),
            "missing mandatory arc"
        );
    }

    #[test]
    fn theorem4_assumptions() {
        let mut p = Polygraph::with_nodes(4);
        p.add_choice(n(0), n(1), n(2));
        assert!(p.every_arc_has_choice());
        assert!(p.first_branches_acyclic());
        assert!(p.base_acyclic());
        assert!(p.satisfies_theorem4_assumptions());

        // Add a bare arc: assumption (a) now fails until normalisation.
        p.add_arc(n(2), n(3));
        assert!(!p.every_arc_has_choice());
        let q = p.normalized();
        assert!(q.every_arc_has_choice());
        assert_eq!(q.node_count(), 5);
        assert!(q.satisfies_theorem4_assumptions());
    }

    #[test]
    fn node_disjoint_choices() {
        let mut p = Polygraph::with_nodes(6);
        p.add_choice(n(0), n(1), n(2));
        p.add_choice(n(3), n(4), n(5));
        assert!(p.choices_node_disjoint());
        p.add_choice(n(0), n(4), n(5));
        assert!(!p.choices_node_disjoint());
    }

    #[test]
    fn base_and_first_branch_graphs() {
        let mut p = Polygraph::with_nodes(3);
        p.add_choice(n(0), n(1), n(2));
        p.add_arc(n(1), n(2));
        let base = p.base_graph();
        assert_eq!(base.arc_count(), 2);
        let fb = p.first_branch_graph();
        assert_eq!(fb.arc_count(), 1);
        assert!(fb.has_arc(n(0), n(1)));
    }

    #[test]
    fn labels_and_display() {
        let mut p = Polygraph::with_nodes(1);
        let b = p.add_node("b");
        assert_eq!(p.label(b), "b");
        p.add_choice(n(0), b, n(0));
        let text = p.to_string();
        assert!(text.contains("2 nodes"));
        assert!(text.contains("choice"));
    }
}
