//! View serializability (VSR) — the class the paper calls "SR".
//!
//! A schedule is VSR iff it is view-equivalent (identical READ-FROM relation
//! of the padded schedule, under the standard version function) to some
//! serial schedule of the same transaction system.  Testing VSR is
//! NP-complete [Papadimitriou 1979]; two exact implementations are provided:
//!
//! * [`is_vsr`] / [`vsr_witness`]: a client of the one pruned search over
//!   serial orders, [`crate::serialization`] — the search MVSR runs with
//!   nothing required, here with every read pinned to the schedule's
//!   *standard* source and every entity's final writer pinned to the
//!   schedule's, so the precedence edges, the cycle check and the forward
//!   check of that search do the pruning.  Up to 64 transactions the
//!   cycle check runs first on the conflict masks, without the search:
//!   the forced arcs (each read's standard source before its reader, a
//!   reader no write precedes before every other writer, every other
//!   writer before the final writer) closing a cycle, or a read after its
//!   own write whose standard source is another transaction, refute the
//!   schedule — exactly where the search would refute before its first
//!   node;
//! * `vsr_polygraph` / [`is_vsr_polygraph`]: the polygraph formulation of
//!   \[P79\] (one choice per read-from/interfering-writer pair), solved with
//!   the exact polygraph solver of `mvcc-graph`.  The two share no code and
//!   agree on every input; the test-suite cross-checks them, and both
//!   against the definition ([`is_vsr_by_definition`]).

use crate::arcs::{with_dense, DenseSchedule, Forced};
use crate::serialization::{has_serial_order, serial_orders, Required};
use mvcc_core::{EntityId, ReadFromRelation, Schedule, TxId, VersionSource};
use mvcc_graph::poly_acyclic::solve_polygraph;
use mvcc_graph::{NodeId, Polygraph};
use std::collections::{BTreeSet, HashMap};

/// `true` iff `schedule` is view-serializable.
pub fn is_vsr(schedule: &Schedule) -> bool {
    with_dense(schedule, decide)
}

/// The VSR test on a schedule's dense index: [`witness`]'s question,
/// without spelling the order out.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    !dense.refuted_by(Forced::Vsr) && has_serial_order(dense, Required::Standard)
}

/// Returns a serial order to which `schedule` is view-equivalent, or `None`.
pub fn vsr_witness(schedule: &Schedule) -> Option<Vec<TxId>> {
    with_dense(schedule, witness)
}

/// The first serial order (in search order) serving every read its
/// standard source — what a single-version database serves it, the last
/// write before it — and leaving every entity's last write of the schedule
/// last: none when the forced arcs refute every order, else the search's.
fn witness(dense: &DenseSchedule) -> Option<Vec<TxId>> {
    if dense.refuted_by(Forced::Vsr) {
        return None;
    }
    serial_orders(dense, Required::Standard, Some(1)).pop()
}

/// Reference implementation used by tests: VSR straight from the definition
/// — view-equivalent to *some* serial schedule, by enumerating all serial
/// orders.  Factorial; small inputs only.
pub fn is_vsr_by_definition(schedule: &Schedule) -> bool {
    let sys = schedule.tx_system();
    crate::csr::permutations(&sys.tx_ids())
        .into_iter()
        .any(|order| {
            mvcc_core::equivalence::view_equivalent(schedule, &Schedule::serial(&sys, &order))
        })
}

/// The VSR polygraph of `schedule` (\[P79\]): nodes are the transactions plus
/// `T0` and `Tf`; there is an arc from every writer to every transaction
/// that reads from it (under the standard version function of the padded
/// schedule), plus `T0 → t → Tf` ordering arcs; and for every read-from
/// `(reader ← writer)` on entity `x` and every *other* transaction `k` that
/// writes `x`, a choice "either `k` before `writer` or `reader` before `k`".
///
/// Two refinements handle transactions that write an entity they also read:
/// a read served by the reader's *own* earlier write imposes no constraint,
/// and a read served by another transaction even though the reader wrote the
/// entity earlier in program order can never be reproduced by a serial
/// schedule — the polygraph is then made deliberately cyclic (arc `Tf → T0`)
/// so that the acyclicity verdict stays equivalent to view-serializability.
///
/// The schedule is view-serializable iff this polygraph is acyclic.
pub(crate) fn vsr_polygraph(schedule: &Schedule) -> (Polygraph, HashMap<TxId, NodeId>) {
    let txs = schedule.tx_ids();
    let mut p = Polygraph::with_nodes(0);
    let mut node_of: HashMap<TxId, NodeId> = HashMap::new();
    let t0 = p.add_node("T0");
    let tf = p.add_node("Tf");
    node_of.insert(TxId::INITIAL, t0);
    node_of.insert(TxId::FINAL, tf);
    for &tx in &txs {
        let n = p.add_node(format!("{tx}"));
        node_of.insert(tx, n);
        p.add_arc(t0, n);
        p.add_arc(n, tf);
    }
    p.add_arc(t0, tf);

    // Writers of every entity (ordinary transactions only).
    let mut writers: HashMap<EntityId, BTreeSet<TxId>> = HashMap::new();
    for step in schedule.steps() {
        if step.is_write() {
            writers.entry(step.entity).or_default().insert(step.tx);
        }
    }

    let add_read_constraint = |p: &mut Polygraph,
                               reader_tx: TxId,
                               writer_tx: TxId,
                               entity: EntityId,
                               impossible: bool| {
        if impossible {
            // No serial schedule can realise this read-from: poison the
            // polygraph with a guaranteed cycle.
            p.add_arc(node_of[&TxId::FINAL], node_of[&TxId::INITIAL]);
            return;
        }
        if reader_tx == writer_tx {
            // Reading one's own earlier write constrains nothing.
            return;
        }
        let reader = node_of[&reader_tx];
        let writer = node_of[&writer_tx];
        p.add_arc(writer, reader);
        if let Some(ws) = writers.get(&entity) {
            for &k in ws {
                if k == reader_tx || k == writer_tx {
                    continue;
                }
                let kn = node_of[&k];
                // Choice (j = reader, k, i = writer): branches
                // (reader, k) or (k, writer); mandatory arc (writer, reader).
                p.add_choice(reader, kn, writer);
            }
        }
    };

    // Ordinary reads, handled positionally so that the reader's own earlier
    // writes (program order) are taken into account.
    for pos in schedule.all_read_positions() {
        let step = schedule.steps()[pos];
        let source = schedule
            .last_writer_before(pos, step.entity)
            .map_or(VersionSource::Initial, VersionSource::Tx);
        let writer_tx = source.as_tx();
        let own_earlier_write = schedule.steps()[..pos]
            .iter()
            .any(|w| w.is_write() && w.tx == step.tx && w.entity == step.entity);
        let impossible = own_earlier_write && writer_tx != step.tx;
        add_read_constraint(&mut p, step.tx, writer_tx, step.entity, impossible);
    }

    // The padded final reads (one per entity), taken from the READ-FROM
    // relation; `Tf` never writes, so they are never "impossible".
    let rel = ReadFromRelation::of_schedule(schedule);
    for entry in rel.entries() {
        if entry.reader == TxId::FINAL {
            add_read_constraint(&mut p, entry.reader, entry.writer, entry.entity, false);
        }
    }
    (p, node_of)
}

/// `true` iff `schedule` is view-serializable, decided through the polygraph
/// formulation.
pub fn is_vsr_polygraph(schedule: &Schedule) -> bool {
    let (p, _) = vsr_polygraph(schedule);
    solve_polygraph(&p).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_schedules_are_vsr() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(is_vsr(&s));
        assert_eq!(vsr_witness(&s), Some(vec![TxId(1), TxId(2)]));
        assert!(is_vsr_polygraph(&s));
    }

    #[test]
    fn lost_update_is_not_vsr() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        assert!(!is_vsr(&s));
        assert!(!is_vsr_polygraph(&s));
    }

    #[test]
    fn vsr_but_not_csr_blind_write_example() {
        // The classic blind-write example: view-equivalent to A B C although
        // the conflict graph has a cycle between A and B.
        let s5 = &mvcc_core::examples::figure1()[4].schedule;
        assert!(is_vsr(s5));
        assert!(!crate::csr::is_csr(s5));
        assert!(is_vsr_polygraph(s5));
    }

    #[test]
    fn figure1_vsr_claims() {
        let examples = mvcc_core::examples::figure1();
        let expected = [false, false, true, false, true, true];
        for (ex, want) in examples.iter().zip(expected) {
            assert_eq!(
                is_vsr(&ex.schedule),
                want,
                "Figure 1 example ({}) SR claim",
                ex.number
            );
        }
    }

    #[test]
    fn witness_is_view_equivalent() {
        let s = Schedule::parse("Wa(x) Rb(x) Rc(y) Wc(x) Wb(y) Wd(x)").unwrap();
        let order = vsr_witness(&s).unwrap();
        let serial = Schedule::serial(&s.tx_system(), &order);
        assert!(mvcc_core::equivalence::view_equivalent(&s, &serial));
    }

    #[test]
    fn csr_implies_vsr_exhaustively() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            if crate::csr::is_csr(&s) {
                assert!(is_vsr(&s), "CSR but not VSR: {s}");
            }
        }
    }

    /// Every interleaving of a system with a blind writer (VSR and CSR
    /// genuinely differ) and of one whose transaction re-reads its own write.
    fn small_systems() -> Vec<Schedule> {
        [
            "Ra(x) Wa(x) Wa(y) Rb(x) Wb(y) Wc(y)",
            "Ra(x) Wa(x) Ra(x) Rb(x) Wb(x)",
        ]
        .iter()
        .flat_map(|text| Schedule::all_interleavings(&Schedule::parse(text).unwrap().tx_system()))
        .collect()
    }

    #[test]
    fn search_polygraph_and_definition_agree_exhaustively() {
        for s in small_systems() {
            let verdict = is_vsr(&s);
            assert_eq!(verdict, is_vsr_polygraph(&s), "polygraph on {s}");
            assert_eq!(verdict, is_vsr_by_definition(&s), "definition on {s}");
        }
    }

    #[test]
    fn every_witness_is_view_equivalent_and_a_serialization() {
        let mut witnesses = 0;
        for s in small_systems() {
            let Some(order) = vsr_witness(&s) else {
                continue;
            };
            witnesses += 1;
            let serial = Schedule::serial(&s.tx_system(), &order);
            assert!(
                mvcc_core::equivalence::view_equivalent(&s, &serial),
                "{s} vs {order:?}"
            );
            // VSR ⊆ MVSR, witness for witness.
            assert!(
                crate::serialization::serializations(&s, None)
                    .iter()
                    .any(|rf| rf.order == order),
                "{order:?} is no serialization of {s}"
            );
        }
        assert!(witnesses > 0);
    }

    /// A serial schedule of `n` transactions `R(x_i) W(x_i) W(y)`: every
    /// transaction blind-writes the shared `y`, so the final-writer
    /// condition orders the last one after all the others.
    fn long_serial(n: u32) -> Vec<mvcc_core::Step> {
        use mvcc_core::Step;
        (1..=n)
            .flat_map(|t| {
                [
                    Step::read(TxId(t), EntityId(t)),
                    Step::write(TxId(t), EntityId(t)),
                    Step::write(TxId(t), EntityId(0)),
                ]
            })
            .collect()
    }

    #[test]
    fn exact_beyond_the_bitmask() {
        // 130 transactions: the search runs without masks, memo or
        // precedence edges, and must still enforce the final writers.
        let serial = Schedule::from_steps(long_serial(130));
        let order: Vec<TxId> = (1..=130).map(TxId).collect();
        assert_eq!(vsr_witness(&serial), Some(order));

        // The same schedule with `W2(x_1) R1(x_1)` slipped in right after
        // T1's three steps: the standard source of that read is T2, but
        // serially a transaction always sees its own earlier write.
        let mut steps = long_serial(130);
        steps.insert(3, mvcc_core::Step::write(TxId(2), EntityId(1)));
        steps.insert(4, mvcc_core::Step::read(TxId(1), EntityId(1)));
        let pinned_elsewhere = Schedule::from_steps(steps);
        assert!(!is_vsr(&pinned_elsewhere));
    }

    #[test]
    fn final_writers_are_enforced_beyond_the_bitmask() {
        // Blind writes only, so no read constrains anything: the schedule's
        // final writer of y is T1 (its write comes last), and the only
        // view-equivalent serial orders end with T1.
        let mut steps: Vec<_> = (1..=130)
            .map(|t| mvcc_core::Step::write(TxId(t), EntityId(0)))
            .collect();
        steps.push(mvcc_core::Step::write(TxId(1), EntityId(0)));
        let s = Schedule::from_steps(steps);
        let order = vsr_witness(&s).expect("blind writes are always VSR");
        assert_eq!(order.last(), Some(&TxId(1)));
        let serial = Schedule::serial(&s.tx_system(), &order);
        assert!(mvcc_core::equivalence::view_equivalent(&s, &serial));
    }
}
