//! Conflict-serializability (CSR): the classical polynomial-time class.
//!
//! The *conflict graph* of a schedule has the transactions as nodes and an
//! arc from `A` to `B` if a step of `A` is followed in the schedule by a
//! conflicting step of `B` (same entity, at least one write).  A schedule is
//! CSR iff its conflict graph is acyclic, iff it is conflict-equivalent to a
//! serial schedule; CSR schedules are exactly the schedules obtainable by
//! locking schedulers [Yannakakis 1981], which is why the paper treats CSR as
//! the single-version yardstick that MVCSR generalises.

use crate::arcs::{self, with_dense, DenseSchedule, Rule};
use mvcc_core::{Schedule, TxId};
use mvcc_graph::topo::topological_sort;
use mvcc_graph::{DiGraph, NodeId};
use std::collections::HashMap;

/// The conflict graph of a schedule, together with the mapping between graph
/// nodes and transaction ids.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    /// The graph: one node per transaction.
    pub graph: DiGraph,
    /// Node id of each transaction.
    pub node_of_tx: HashMap<TxId, NodeId>,
    /// Transaction of each node, indexed by node id.
    pub tx_of_node: Vec<TxId>,
}

impl ConflictGraph {
    /// Converts a topological order of the graph into a transaction order.
    pub(crate) fn order_to_txs(&self, order: &[NodeId]) -> Vec<TxId> {
        order.iter().map(|n| self.tx_of_node[n.index()]).collect()
    }
}

/// Builds the (single-version) conflict graph of `schedule`.
pub fn conflict_graph(schedule: &Schedule) -> ConflictGraph {
    let labelled = arcs::labelled(schedule, Rule::Sv);
    ConflictGraph {
        graph: labelled.graph,
        node_of_tx: labelled.node_of_tx,
        tx_of_node: labelled.tx_of_node,
    }
}

/// `true` iff `schedule` is conflict-serializable.
pub fn is_csr(schedule: &Schedule) -> bool {
    with_dense(schedule, decide)
}

/// The CSR test on a schedule's dense index: its conflict graph is acyclic.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    dense.acyclic(Rule::Sv) == Some(true)
}

/// Returns a serial order witnessing conflict-serializability (a topological
/// order of the conflict graph), or `None` if the schedule is not CSR.
pub fn csr_witness(schedule: &Schedule) -> Option<Vec<TxId>> {
    let cg = conflict_graph(schedule);
    topological_sort(&cg.graph).map(|order| cg.order_to_txs(&order))
}

/// Reference implementation used by tests: CSR via the definition, i.e.
/// "conflict-equivalent to some serial schedule" by enumerating all serial
/// orders.  Exponential; small inputs only.
#[cfg(test)]
pub(crate) fn is_csr_by_definition(schedule: &Schedule) -> bool {
    let sys = schedule.tx_system();
    let ids = sys.tx_ids();
    permutations(&ids).into_iter().any(|order| {
        let serial = Schedule::serial(&sys, &order);
        mvcc_core::equivalence::conflict_equivalent(schedule, &serial)
    })
}

pub(crate) fn permutations(items: &[TxId]) -> Vec<Vec<TxId>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_schedules_are_csr() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(is_csr(&s));
        assert_eq!(csr_witness(&s), Some(vec![TxId(1), TxId(2)]));
    }

    #[test]
    fn lost_update_anomaly_is_not_csr() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        assert!(!is_csr(&s));
        assert!(csr_witness(&s).is_none());
    }

    #[test]
    fn conflict_graph_arcs_follow_schedule_order() {
        let s = Schedule::parse("Ra(x) Wb(x) Wa(y) Rb(y)").unwrap();
        let cg = conflict_graph(&s);
        let a = cg.node_of_tx[&TxId(1)];
        let b = cg.node_of_tx[&TxId(2)];
        assert!(cg.graph.has_arc(a, b), "R1(x) before W2(x)");
        assert!(cg.graph.has_arc(a, b), "W1(y) before R2(y)");
        assert!(!cg.graph.has_arc(b, a));
        assert!(is_csr(&s));
    }

    #[test]
    fn witness_is_conflict_equivalent() {
        let s = Schedule::parse("Ra(x) Wb(y) Wa(x) Rc(y) Wc(z)").unwrap();
        let order = csr_witness(&s).unwrap();
        let serial = Schedule::serial(&s.tx_system(), &order);
        assert!(mvcc_core::equivalence::conflict_equivalent(&s, &serial));
    }

    #[test]
    fn graph_test_agrees_with_definition_on_all_interleavings() {
        // Exhaustive check over every interleaving of a small system.
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(is_csr(&s), is_csr_by_definition(&s), "schedule {s}");
        }
    }

    #[test]
    fn csr_example_5_of_figure_1_is_not_csr() {
        let s5 = &mvcc_core::examples::figure1()[4];
        assert!(!is_csr(&s5.schedule));
    }

    #[test]
    fn figure1_conflict_graphs_match_the_all_pairs_definition() {
        use mvcc_core::conflict::sv_conflicts;
        use std::collections::BTreeSet;
        for ex in mvcc_core::examples::figure1() {
            let s = &ex.schedule;
            let cg = conflict_graph(s);
            assert_eq!(cg.tx_of_node, s.tx_ids());
            for (n, tx) in cg.tx_of_node.iter().enumerate() {
                assert_eq!(cg.node_of_tx[tx], NodeId(n as u32));
                assert_eq!(cg.graph.label(NodeId(n as u32)), tx.to_string());
            }
            let steps = s.steps();
            let mut expected = BTreeSet::new();
            for i in 0..steps.len() {
                for j in (i + 1)..steps.len() {
                    if sv_conflicts(&steps[i], &steps[j]) {
                        expected.insert((cg.node_of_tx[&steps[i].tx], cg.node_of_tx[&steps[j].tx]));
                    }
                }
            }
            let arcs: BTreeSet<_> = cg.graph.arcs().collect();
            assert_eq!(arcs, expected, "example ({})", ex.number);
            assert_eq!(is_csr(s), topological_sort(&cg.graph).is_some());
        }
    }

    #[test]
    fn single_transaction_is_always_csr() {
        let s = Schedule::parse("Ra(x) Wa(x) Ra(y) Wa(y)").unwrap();
        assert!(is_csr(&s));
        assert_eq!(csr_witness(&s), Some(vec![TxId(1)]));
    }
}
