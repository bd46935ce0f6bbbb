//! Multiversion serializability (MVSR) — the outer limit of the multiversion
//! approach.
//!
//! A schedule `s` is MVSR iff there is a version function `V` such that
//! `(s, V)` is view-equivalent to `(r, V_r)` for some serial schedule `r`.
//! Testing MVSR is NP-complete \[PK84\]; the exact test below searches over
//! serial orders with pruning (see [`crate::serialization`]), and returns a
//! complete witness — the serial order *and* the version function — when one
//! exists.

use crate::arcs::DenseSchedule;
use crate::serialization::{serial_orders, serializations, Required, SerialReadFroms};
use mvcc_core::{Schedule, TxId, VersionFunction};

/// `true` iff `schedule` is multiversion serializable: the search with
/// nothing required finds a serial order (the witness's read-from
/// assignment is only spelled out by [`mvsr_witness`]).
pub fn is_mvsr(schedule: &Schedule) -> bool {
    decide(&DenseSchedule::of(schedule))
}

/// The MVSR test on a schedule's dense index.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    !serial_orders(dense, Required::Nothing, Some(1)).is_empty()
}

/// Returns a witness of MVSR membership: a serial order and a version
/// function making the schedule view-equivalent to that serial order.
pub fn mvsr_witness(schedule: &Schedule) -> Option<(Vec<TxId>, VersionFunction)> {
    serializations(schedule, Some(1))
        .into_iter()
        .next()
        .map(|rf| {
            let vf = rf.to_version_function(schedule);
            (rf.order, vf)
        })
}

/// All serializations of the schedule (every serial order whose induced
/// read-from assignment is realizable), useful for the OLS machinery.
pub fn all_serializations(schedule: &Schedule) -> Vec<SerialReadFroms> {
    serializations(schedule, None)
}

/// Reference implementation used by tests: MVSR by brute force over *all*
/// version functions and *all* serial orders, straight from the definition.
/// Double-exponential-ish; tiny inputs only.
pub fn is_mvsr_by_definition(schedule: &Schedule) -> bool {
    let sys = schedule.tx_system();
    let orders = crate::csr::permutations(&sys.tx_ids());
    let vfs = VersionFunction::enumerate_all(schedule);
    for order in &orders {
        let serial = Schedule::serial(&sys, order);
        let v_serial = VersionFunction::standard(&serial);
        for vf in &vfs {
            if mvcc_core::equivalence::full_view_equivalent(schedule, vf, &serial, &v_serial) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::equivalence::full_view_equivalent;

    #[test]
    fn figure1_mvsr_claims() {
        let examples = mvcc_core::examples::figure1();
        let expected = [false, true, true, true, true, true];
        for (ex, want) in examples.iter().zip(expected) {
            assert_eq!(
                is_mvsr(&ex.schedule),
                want,
                "Figure 1 example ({}) MVSR claim",
                ex.number
            );
        }
    }

    #[test]
    fn witness_serializes_the_schedule() {
        let s2 = &mvcc_core::examples::figure1()[1].schedule;
        let (order, vf) = mvsr_witness(s2).unwrap();
        let serial = Schedule::serial(&s2.tx_system(), &order);
        let v_serial = VersionFunction::standard(&serial);
        assert!(full_view_equivalent(s2, &vf, &serial, &v_serial));
        assert!(vf.validate(s2).is_ok());
    }

    #[test]
    fn search_agrees_with_definition_exhaustively() {
        // Small two-transaction system where MVSR and VSR differ on some
        // interleavings.
        let sys = Schedule::parse("Ra(x) Wa(x) Ra(y) Wa(y) Rb(x) Rb(y) Wb(y)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(is_mvsr(&s), is_mvsr_by_definition(&s), "schedule {s}");
        }
    }

    #[test]
    fn vsr_implies_mvsr_exhaustively() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            if crate::vsr::is_vsr(&s) {
                assert!(is_mvsr(&s), "VSR but not MVSR: {s}");
            }
        }
    }

    #[test]
    fn mvcsr_implies_mvsr_exhaustively_theorem3() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            if crate::mvcsr::is_mvcsr(&s) {
                assert!(is_mvsr(&s), "MVCSR but not MVSR: {s}");
            }
        }
    }

    #[test]
    fn non_mvsr_schedule_has_no_witness() {
        let s1 = &mvcc_core::examples::figure1()[0].schedule;
        assert!(mvsr_witness(s1).is_none());
        assert!(!is_mvsr_by_definition(s1));
    }

    #[test]
    fn all_serializations_of_independent_transactions() {
        let s = Schedule::parse("Ra(x) Wb(y)").unwrap();
        assert_eq!(all_serializations(&s).len(), 2);
    }
}
