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
//! from the one Kahn pass the index keeps for the MVCSR test too.  Theorem
//! 3 says it always serves: a read `R_i(x)` without an own earlier write
//! sees the last writer `T_k` of `x` before `T_i` in the order, and were
//! all of `T_k`'s writes of `x` after `R_i(x)`, the MVCG would have the arc
//! `T_i → T_k`.  The verdict
//! does not take that on trust: the candidate is checked against the
//! definition on the entity runs, and only a passing check answers `true`.
//! Up to 64 transactions the check works in rank space: per run one mask of
//! its writers' ranks and one of the ranks that have written so far, and a
//! read passes when its own rank has written, or no writer ranks below it,
//! or the highest-ranked writer below it has written — exactly the
//! definition, with no sort.  Beyond 64 each run's writers are sorted by
//! rank and each read binary-searches them.
//! Otherwise — the MVCG is cyclic, or the candidate failed — up to 64
//! transactions the forced arcs refute when they close a cycle: a read that
//! no write of its entity precedes can only be served the initial version,
//! so its reader precedes every other writer of the entity in every
//! serialization.  Those are the edges the search would cycle-check before
//! its first node.  What is left, the exact search over serial orders with
//! pruning decides (see [`crate::serialization`]).
//! [`mvsr_witness`] always searches, and returns a complete witness — the
//! serial order *and* the version function.

use crate::arcs::{with_dense, DenseSchedule, Forced, NONE};
use crate::serialization::{has_serial_order, serializations, Required};
use mvcc_core::{Schedule, TxId, VersionFunction};

/// `true` iff `schedule` is multiversion serializable: the MVCG's
/// topological order serves every read, or the forced arcs close no cycle
/// and the search with nothing required finds a serial order (the
/// witness's read-from assignment is only spelled out by [`mvsr_witness`]).
pub fn is_mvsr(schedule: &Schedule) -> bool {
    with_dense(schedule, decide)
}

/// The MVSR test on a schedule's dense index: the MVCG's removal order as a
/// certificate, then the forced arcs as a refutation, then the search.
pub(crate) fn decide(dense: &DenseSchedule) -> bool {
    serves_every_read(dense, dense.mvcg())
        || !dense.refuted_by(Forced::Mvsr) && has_serial_order(dense, Required::Nothing)
}

/// Whether `order` (dense numbers) is a serialization: it holds every
/// transaction, and run serially it serves each read a version that is
/// available at the read's position in the schedule.  A read after its
/// transaction's own write of the entity sees that write in any order;
/// any other read sees the writer of the entity ranked last before its
/// transaction in `order`, which serves it if there is none (the initial
/// version) or its first write of the entity precedes the read.  Checked
/// on the entity runs, in rank space up to 64 transactions
/// ([`serves_in_rank_space`]), by sorting each run's writers beyond
/// ([`serves_by_sorting`]).
fn serves_every_read(dense: &DenseSchedule, order: &[u32]) -> bool {
    if dense.txs() <= 64 {
        serves_in_rank_space(dense, order)
    } else {
        serves_by_sorting(dense, order)
    }
}

/// [`serves_every_read`] up to 64 transactions, on masks over the ranks in
/// `order`: per run the mask of its writers' ranks, and, swept in
/// position order, the mask of the ranks that have written the entity so
/// far.  A read of rank `r` passes when `r` has written (its own write),
/// or no writer ranks below `r` (the initial version), or the writer
/// ranked highest below `r` — the top bit of the writers below — has
/// written.  A few mask operations a step, no sort and no allocation.
fn serves_in_rank_space(dense: &DenseSchedule, order: &[u32]) -> bool {
    let n = dense.txs();
    if order.len() != n {
        return false;
    }
    let mut rank = [0u8; 64];
    let mut ranked = 0u64;
    for (k, &t) in order.iter().enumerate() {
        if t as usize >= n {
            return false;
        }
        rank[t as usize] = k as u8;
        ranked |= 1 << t;
    }
    if ranked.count_ones() as usize != n {
        return false;
    }
    dense.runs().all(|run| {
        let writers = run
            .iter()
            .filter(|step| step.write)
            .fold(0u64, |mask, step| mask | 1 << rank[step.node as usize]);
        let mut written = 0u64;
        run.iter().all(|step| {
            let me = 1u64 << rank[step.node as usize];
            if step.write {
                written |= me;
                return true;
            }
            let below = writers & (me - 1);
            written & me != 0 || below == 0 || written & 1 << (63 - below.leading_zeros()) != 0
        })
    })
}

/// [`serves_every_read`] at any size: each transaction's rank in `order`,
/// per run the writers sorted by rank with their first write's position,
/// and a binary search per read — O(k log k) for a run of k steps.
fn serves_by_sorting(dense: &DenseSchedule, order: &[u32]) -> bool {
    if order.len() != dense.txs() {
        return false;
    }
    let mut rank = vec![NONE; order.len()];
    for (k, &t) in order.iter().enumerate() {
        if t as usize >= rank.len() {
            return false;
        }
        rank[t as usize] = k as u32;
    }
    if rank.contains(&NONE) {
        return false;
    }
    // `(rank, first write's position)` of each writer of the run's entity.
    let mut writers: Vec<(u32, u32)> = Vec::new();
    dense.runs().all(|run| {
        writers.clear();
        writers.extend(
            run.iter()
                .filter(|step| step.write)
                .map(|step| (rank[step.node as usize], step.pos)),
        );
        writers.sort_unstable();
        writers.dedup_by_key(|writer| writer.0);
        run.iter().filter(|step| !step.write).all(|read| {
            let r = rank[read.node as usize];
            let k = writers.partition_point(|writer| writer.0 < r);
            let own = writers
                .get(k)
                .is_some_and(|&(w, pos)| w == r && pos < read.pos);
            own || k == 0 || writers[k - 1].1 < read.pos
        })
    })
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
    use crate::testing::{benchmark_corpus, dense_random_schedule};
    use mvcc_core::equivalence::full_view_equivalent;
    use mvcc_core::{EntityId, Step};
    use std::collections::HashMap;

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
            let mvcg = dense.mvcg();
            if mvcg.len() == dense.txs() {
                assert!(serves_every_read(&dense, mvcg), "schedule {s}");
                assert!(realizable(s, &dense, mvcg), "schedule {s}");
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
    fn the_rank_space_check_is_the_sort_based_check() {
        // Dense random schedules of 1 to 65 transactions — over 3 entities
        // (many own reads), 8 with the reads leading, and 64 — each checked
        // on the MVCG's order, on Fisher–Yates shuffles and on an order
        // missing its last transaction.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut schedule_state = 0x2545_f491_4f6c_dd1du64;
        let mut served = [0usize; 2];
        for txns in (1..=16).chain([31, 32, 33, 63, 64, 65]) {
            for (entities, reads_lead) in [(3, false), (8, true), (64, false)] {
                for _ in 0..4 {
                    let s =
                        dense_random_schedule(&mut schedule_state, txns, 4, entities, reads_lead);
                    let dense = DenseSchedule::of(&s);
                    let mut orders = vec![dense.mvcg().to_vec()];
                    let mut order: Vec<u32> = (0..txns as u32).collect();
                    for _ in 0..3 {
                        for i in (1..order.len()).rev() {
                            order.swap(i, next(i + 1));
                        }
                        orders.push(order.clone());
                    }
                    orders.push(order[1..].to_vec());
                    for order in &orders {
                        let sorted = serves_by_sorting(&dense, order);
                        if txns <= 64 {
                            assert_eq!(
                                serves_in_rank_space(&dense, order),
                                sorted,
                                "schedule {s}, order {order:?}"
                            );
                        }
                        assert_eq!(serves_every_read(&dense, order), sorted);
                        if order.len() == txns {
                            assert_eq!(sorted, realizable(&s, &dense, order), "schedule {s}");
                            served[usize::from(sorted)] += 1;
                        } else {
                            assert!(!sorted, "schedule {s}, order {order:?}");
                        }
                    }
                }
            }
        }
        // Both answers are common.
        assert!(served.iter().all(|&count| count > 100), "{served:?}");
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
        assert_eq!(dense.mvcg(), chain);
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
        assert_eq!(serializations(&s, None).len(), 2);
    }
}
