//! Multiversion serializability (MVSR) — the outer limit of the multiversion
//! approach.
//!
//! A schedule `s` is MVSR iff there is a version function `V` such that
//! `(s, V)` is view-equivalent to `(r, V_r)` for some serial schedule `r`:
//! iff some serial order serves every read a version the schedule has
//! already written when the read runs.  Testing MVSR is NP-complete
//! \[PK84\], but a serial order is a certificate checked in one pass over
//! the reads.
//!
//! [`is_mvsr`] first checks one candidate, a topological order of the MVCG,
//! which Kahn's pass of the MVCSR test yields.  Theorem 3 says it always
//! serves: a read `R_i(x)` without an own earlier write sees the last writer
//! `T_k` of `x` before `T_i` in the order, and were all of `T_k`'s writes of
//! `x` after `R_i(x)`, the MVCG would have the arc `T_i → T_k`.  The verdict
//! does not take that on trust: the candidate is checked against the
//! definition, and only a passing check answers `true`.  Otherwise — the
//! MVCG is cyclic, or the candidate failed — the exact search over serial
//! orders with pruning decides (see [`crate::serialization`]).
//! [`mvsr_witness`] and [`all_serializations`] always search, and return
//! complete witnesses — the serial order *and* the version function.

use crate::arcs::{DenseSchedule, Rule, NONE};
use crate::serialization::{serial_orders, serializations, Required, SerialReadFroms};
use mvcc_core::{Schedule, TxId, VersionFunction};

/// `true` iff `schedule` is multiversion serializable: the MVCG's
/// topological order serves every read, or the search with nothing
/// required finds a serial order (the witness's read-from assignment is
/// only spelled out by [`mvsr_witness`]).
pub fn is_mvsr(schedule: &Schedule) -> bool {
    decide(&DenseSchedule::of(schedule))
}

/// The MVSR test on a schedule's dense index: the MVCG's removal order as a
/// certificate, then the search.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    dense
        .removal_order(Rule::Mv)
        .is_some_and(|order| serves_every_read(dense, &order))
        || !serial_orders(dense, Required::Nothing, Some(1)).is_empty()
}

/// Whether `order` (dense numbers) is a serialization: it holds every
/// transaction, and run serially it serves each read a version that is
/// available at the read's position in the schedule.  A read after its
/// transaction's own write of the entity sees that write in any order;
/// any other read sees the entity's last writer placed before its
/// transaction, which serves it if it is the initial version or its first
/// write of the entity precedes the read.
fn serves_every_read(dense: &DenseSchedule, order: &[u32]) -> bool {
    if order.len() != dense.txs() {
        return false;
    }
    let tables = dense.tables();
    let mut last_writer = vec![NONE; tables.entities()];
    for &t in order {
        let t = t as usize;
        for read in &tables.reads[tables.reads_of(t)] {
            let last = last_writer[read.entity as usize];
            if !read.own
                && last != NONE
                && !tables.first_write_before(last as usize, read.entity, read.pos)
            {
                return false;
            }
        }
        for write in tables.writes_of(t) {
            last_writer[write.entity as usize] = t as u32;
        }
    }
    true
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
    use crate::serialization::{
        has_serialization_extending, is_realizable, search_nodes, serial_read_froms,
    };
    use mvcc_core::equivalence::full_view_equivalent;
    use mvcc_core::{EntityId, Step};
    use std::collections::HashMap;

    /// The first `len` schedules of the benchmark's `classify` corpus at
    /// seed 1: 8 transactions x 4 steps over 8 entities, half reads.
    fn benchmark_corpus(len: usize) -> Vec<Schedule> {
        mvcc_workload::random_interleavings(
            &mvcc_workload::WorkloadConfig {
                transactions: 8,
                steps_per_transaction: 4,
                entities: 8,
                read_ratio: 0.5,
                zipf_theta: 0.0,
                seed: 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            len,
        )
    }

    /// The definition's side of the certificate check: whether the serial
    /// order `order` (dense numbers) induces a realizable read-from map.
    fn realizable(s: &Schedule, dense: &DenseSchedule, order: &[u32]) -> bool {
        let order: Vec<TxId> = order.iter().map(|&t| dense.tx_ids[t as usize]).collect();
        is_realizable(s, &serial_read_froms(s, &order))
    }

    #[test]
    fn mvcsr_schedules_of_the_corpus_are_certified_without_a_search() {
        let mut certified = 0;
        for s in &benchmark_corpus(500) {
            if crate::mvcsr::is_mvcsr(s) {
                assert_eq!(search_nodes(|| assert!(is_mvsr(s))), 0, "schedule {s}");
                certified += 1;
            }
        }
        assert_eq!(certified, 189);
    }

    #[test]
    fn the_certificate_check_is_realizability() {
        // A fixed xorshift stream: Fisher–Yates shuffles of each schedule's
        // transactions, beside the MVCG's own order.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut own_reads, mut certified) = (0, 0);
        for s in &benchmark_corpus(3000) {
            let dense = DenseSchedule::of(s);
            own_reads += usize::from(dense.tables().reads.iter().any(|read| read.own));
            let mvcg = dense.removal_order(Rule::Mv).unwrap();
            if mvcg.len() == dense.txs() {
                assert!(serves_every_read(&dense, &mvcg), "schedule {s}");
                assert!(realizable(s, &dense, &mvcg), "schedule {s}");
                certified += 1;
            }
            let mut order: Vec<u32> = (0..dense.txs() as u32).collect();
            for _ in 0..4 {
                for i in (1..order.len()).rev() {
                    order.swap(i, next(i + 1));
                }
                assert_eq!(
                    serves_every_read(&dense, &order),
                    realizable(s, &dense, &order),
                    "schedule {s}, order {order:?}"
                );
            }
        }
        assert_eq!((own_reads, certified), (2334, 1233));
        // Every order of every interleaving of the small systems below.
        for system in [
            "Ra(x) Wa(x) Ra(y) Wa(y) Rb(x) Rb(y) Wb(y)",
            "Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)",
            "Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)",
        ] {
            let sys = Schedule::parse(system).unwrap().tx_system();
            for s in Schedule::all_interleavings(&sys) {
                let dense = DenseSchedule::of(&s);
                let txs: Vec<TxId> = (0..dense.txs() as u32).map(TxId).collect();
                for order in crate::csr::permutations(&txs) {
                    let order: Vec<u32> = order.iter().map(|t| t.0).collect();
                    assert_eq!(
                        serves_every_read(&dense, &order),
                        realizable(&s, &dense, &order),
                        "schedule {s}, order {order:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_certificate_holds_beyond_the_masks() {
        // 130 transactions, `T_t` reading `x_(t+1)` up front and then, in
        // turn, `x_(t-1)` before writing `x_t`: the MVCG is the chain
        // `T_1 → … → T_130`, and every read of `x_(t-1)` needs `T_(t-1)`'s
        // write, which the `avail` masks do not record past 128.
        let n = 130;
        let x = EntityId;
        let ahead = (1..=n).map(|t| Step::read(TxId(t), x(t + 1)));
        let turns =
            (1..=n).flat_map(|t| [Step::read(TxId(t), x(t - 1)), Step::write(TxId(t), x(t))]);
        let s = Schedule::from_steps(ahead.chain(turns).collect());
        let dense = DenseSchedule::of(&s);
        assert!(dense.tables().reads.iter().all(|read| read.avail == 0));
        let chain: Vec<u32> = (0..n).collect();
        assert_eq!(dense.removal_order(Rule::Mv).unwrap(), chain);
        assert!(serves_every_read(&dense, &chain));
        assert_eq!(search_nodes(|| assert!(is_mvsr(&s))), 0);
        assert!(search_nodes(|| assert!(has_serialization_extending(&s, &HashMap::new()))) > 0);
        // Swapping `T_1` and `T_2` serves `R_1(x_2)` the write of `x_2`,
        // which follows it; the reversed chain does the same all along.
        let mut planted = chain.clone();
        planted.swap(0, 1);
        assert!(!serves_every_read(&dense, &planted));
        assert!(!realizable(&s, &dense, &planted));
        let reversed: Vec<u32> = chain.iter().rev().copied().collect();
        assert!(!serves_every_read(&dense, &reversed));
        // An incomplete order is no certificate.
        assert!(!serves_every_read(&dense, &chain[1..]));
    }

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
