//! Multiversion conflict serializability (MVCSR) — Section 3 of the paper.
//!
//! The *multiversion conflict graph* `MVCG(s)` has the transactions of `s`
//! as nodes and an arc from `Ti` to `Tj` labelled `x` whenever `Wj(x)`
//! follows `Ri(x)` in `s` (the relaxed, asymmetric conflict notion of the
//! paper: only read-before-write pairs matter).
//!
//! **Theorem 1**: a schedule is MVCSR iff its MVCG is acyclic.  The
//! polynomial-time test below is exactly that; [`mvcsr_witness`] additionally
//! returns the serial order given by a topological sort of the MVCG, and
//! Theorem 3's constructive content ("if a schedule is MVCSR then it is
//! MVSR") is realised by [`mvcsr_version_function`], which builds a version
//! function serializing the schedule in that order.

use crate::arcs::{self, with_dense, DenseSchedule, Rule};
use mvcc_core::{Schedule, TxId, VersionFunction};
use mvcc_graph::topo::topological_sort;
use mvcc_graph::{DiGraph, NodeId};
use std::collections::HashMap;

/// The multiversion conflict graph of a schedule, with the node/transaction
/// mapping and the entity labels of the arcs.
#[derive(Debug, Clone)]
pub struct MvConflictGraph {
    /// The graph: one node per transaction.
    pub graph: DiGraph,
    /// Node of each transaction.
    pub node_of_tx: HashMap<TxId, NodeId>,
    /// Transaction of each node.
    pub tx_of_node: Vec<TxId>,
    /// Entity labels per arc `(from, to)`.
    pub labels: HashMap<(NodeId, NodeId), Vec<mvcc_core::EntityId>>,
}

impl MvConflictGraph {
    /// Converts a topological order of the graph into a transaction order.
    pub(crate) fn order_to_txs(&self, order: &[NodeId]) -> Vec<TxId> {
        order.iter().map(|n| self.tx_of_node[n.index()]).collect()
    }
}

/// Builds `MVCG(schedule)`.
pub fn mv_conflict_graph(schedule: &Schedule) -> MvConflictGraph {
    let labelled = arcs::labelled(schedule, Rule::Mv);
    let mut labels: HashMap<(NodeId, NodeId), Vec<mvcc_core::EntityId>> = HashMap::new();
    for (from, to, read_pos) in labelled.arcs {
        labels
            .entry((from, to))
            .or_default()
            .push(schedule.steps()[read_pos].entity);
    }
    MvConflictGraph {
        graph: labelled.graph,
        node_of_tx: labelled.node_of_tx,
        tx_of_node: labelled.tx_of_node,
        labels,
    }
}

/// **Theorem 1** test: `true` iff `schedule` is MVCSR (its MVCG is acyclic).
pub fn is_mvcsr(schedule: &Schedule) -> bool {
    with_dense(schedule, decide)
}

/// The Theorem 1 test on a schedule's dense index: its MVCG is acyclic,
/// i.e. Kahn's pass removed every transaction.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    dense.mvcg().len() == dense.txs()
}

/// Returns the serial order witnessing MVCSR membership (a topological sort
/// of the MVCG), or `None` if the schedule is not MVCSR.
pub fn mvcsr_witness(schedule: &Schedule) -> Option<Vec<TxId>> {
    let g = mv_conflict_graph(schedule);
    topological_sort(&g.graph).map(|order| g.order_to_txs(&order))
}

/// Theorem 3, constructively: for an MVCSR schedule, a version function `V`
/// such that `(s, V)` is view-equivalent to the serial schedule given by
/// [`mvcsr_witness`] run under the standard version function.  Returns
/// `None` when the schedule is not MVCSR.
pub fn mvcsr_version_function(schedule: &Schedule) -> Option<(Vec<TxId>, VersionFunction)> {
    let order = mvcsr_witness(schedule)?;
    let rf = crate::serialization::serial_read_froms(schedule, &order);
    debug_assert!(
        crate::serialization::is_realizable(schedule, &rf),
        "Theorem 3: the MVCG order must always be realizable"
    );
    Some((order, rf.to_version_function(schedule)))
}

/// Reference implementation used by tests: MVCSR via the definition —
/// multiversion-conflict-equivalent to *some* serial schedule, by
/// enumerating serial orders.
pub fn is_mvcsr_by_definition(schedule: &Schedule) -> bool {
    let sys = schedule.tx_system();
    let ids = sys.tx_ids();
    crate::csr::permutations(&ids).into_iter().any(|order| {
        let serial = Schedule::serial(&sys, &order);
        mvcc_core::equivalence::mv_conflict_equivalent(schedule, &serial)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::equivalence::full_view_equivalent;
    use mvcc_core::VersionFunction as VF;

    #[test]
    fn serial_schedules_are_mvcsr() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(is_mvcsr(&s));
    }

    #[test]
    fn csr_implies_mvcsr_on_small_systems() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            if crate::csr::is_csr(&s) {
                assert!(is_mvcsr(&s), "CSR schedule not MVCSR: {s}");
            }
        }
    }

    #[test]
    fn theorem1_graph_test_matches_definition() {
        // Exhaustive: every interleaving of two 2-step transactions plus a
        // blind writer.
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(is_mvcsr(&s), is_mvcsr_by_definition(&s), "schedule {s}");
        }
    }

    #[test]
    fn figure1_mvcsr_claims() {
        let examples = mvcc_core::examples::figure1();
        let expected = [false, false, false, true, true, true];
        for (ex, want) in examples.iter().zip(expected) {
            assert_eq!(
                is_mvcsr(&ex.schedule),
                want,
                "Figure 1 example ({}) MVCSR claim",
                ex.number
            );
        }
    }

    #[test]
    fn arcs_are_labelled_with_entities() {
        let s = Schedule::parse("Ra(x) Wb(x) Ra(y) Wb(y)").unwrap();
        let g = mv_conflict_graph(&s);
        let a = g.node_of_tx[&TxId(1)];
        let b = g.node_of_tx[&TxId(2)];
        let labels = &g.labels[&(a, b)];
        assert_eq!(labels.len(), 2, "arcs for x and for y");
    }

    #[test]
    fn figure1_mvcgs_match_the_all_pairs_definition() {
        use mvcc_core::conflict::mv_conflicts;
        use std::collections::BTreeSet;
        for ex in mvcc_core::examples::figure1() {
            let s = &ex.schedule;
            let g = mv_conflict_graph(s);
            assert_eq!(g.tx_of_node, s.tx_ids());
            let steps = s.steps();
            // One label per read-before-write pair, in pair order.
            let mut expected: HashMap<(NodeId, NodeId), Vec<mvcc_core::EntityId>> = HashMap::new();
            for i in 0..steps.len() {
                for j in (i + 1)..steps.len() {
                    if mv_conflicts(&steps[i], &steps[j]) {
                        expected
                            .entry((g.node_of_tx[&steps[i].tx], g.node_of_tx[&steps[j].tx]))
                            .or_default()
                            .push(steps[i].entity);
                    }
                }
            }
            assert_eq!(g.labels, expected, "example ({})", ex.number);
            let arcs: BTreeSet<_> = g.graph.arcs().collect();
            assert_eq!(
                arcs,
                expected.keys().copied().collect(),
                "example ({})",
                ex.number
            );
            assert_eq!(is_mvcsr(s), topological_sort(&g.graph).is_some());
        }
    }

    #[test]
    fn witness_order_serializes_the_schedule_theorem3() {
        // For a batch of MVCSR schedules, the version function produced from
        // the MVCG topological order makes the schedule view-equivalent to
        // that serial order: Theorem 3 in executable form.
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)")
            .unwrap()
            .tx_system();
        let mut verified = 0;
        for s in Schedule::all_interleavings(&sys).into_iter().take(200) {
            if let Some((order, vf)) = mvcsr_version_function(&s) {
                let serial = Schedule::serial(&sys, &order);
                let v_serial = VF::standard(&serial);
                assert!(
                    full_view_equivalent(&s, &vf, &serial, &v_serial),
                    "schedule {s} order {order:?}"
                );
                verified += 1;
            }
        }
        assert!(verified > 0);
    }

    #[test]
    fn read_only_schedules_are_always_mvcsr() {
        let s = Schedule::parse("Ra(x) Rb(x) Ra(y) Rb(y)").unwrap();
        assert!(is_mvcsr(&s));
        assert!(mv_conflict_graph(&s).graph.arc_count() == 0);
    }
}
