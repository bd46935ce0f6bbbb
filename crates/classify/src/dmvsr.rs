//! DMVSR: the restricted-model relative of MVSR from \[PK84\], discussed in
//! Section 3 of the paper.
//!
//! \[PK84\] shows that MVSR is polynomial in the *restricted model* in which no
//! transaction writes an entity it has not read.  A schedule in the general
//! model is **DMVSR** if it is MVSR once an appropriate read step is inserted
//! immediately before each "readless write" (a write of an entity the
//! transaction has not read earlier).  The paper notes that MVCSR corresponds
//! to \[PK84\]'s `MRW` class, a superset of DMVSR (`MWW` in their notation).
//!
//! ## Deciding it without a search
//!
//! The patched schedule is in the restricted model by construction, and
//! there — **provided no transaction writes the same entity twice**, which is
//! the paper's model of a transaction — MVSR and MVCSR coincide, so
//! [`is_dmvsr`] is Theorem 1's polynomial graph test on the patched schedule.
//! It never builds that schedule: a write of an entity its transaction has
//! not accessed earlier acts as a read at its own position, which is the
//! read the patching inserts (same transaction, same place relative to
//! every other step, so it conflicts with the same later writes).
//!
//! * MVCSR ⊆ MVSR always (Theorem 3: a topological order of the MVCG serves
//!   every read an earlier write — argued in [`crate::mvsr`], whose test
//!   checks that order before it searches).
//! * Conversely, let the serial order `r` serialize a restricted-model,
//!   writes-once schedule and suppose `R_i(x)` precedes `W_j(x)` although
//!   `T_j <_r T_i`.  Take `T_i`'s *first* read `R` of `x`: it has no own
//!   earlier write, so serially it reads from the last writer `T_k` of `x`
//!   before `T_i`, `T_j ≤_r T_k <_r T_i`, whose write must precede `R` in the
//!   schedule.  `T_k` is not `T_j` (its only write of `x` follows `R`), and
//!   `T_k` read `x` before writing it, so `R_k(x)` also precedes `W_j(x)` with
//!   `T_j <_r T_k`: the same situation strictly closer to `T_j` — an infinite
//!   descent in a finite order.  Hence `r` respects every MVCG arc and the
//!   MVCG is acyclic.
//!
//! The writes-once premise is load-bearing.  Realizability only asks for a
//! writer's *first* write of `x` to precede the read, so with `T_b` writing
//! `x` twice, `Rb(x) Rb(y) Wb(x) Ra(x) Wb(x) Ra(y) Wa(y)` is restricted and
//! MVSR (order `b a`) but not MVCSR (`Ra(x)`–`Wb(x)` and `Rb(y)`–`Wa(y)` close
//! a cycle).  Such schedules keep the exact search.  So what holds, and is
//! checked, is `DMVSR ⊆ MVSR` on every schedule
//! (`Classification::respects_containments`, the Figure 1 census) and
//! `DMVSR ⊆ MVCSR` on writes-once schedules (the tests below).

use crate::arcs::{DenseSchedule, Rule};
use mvcc_core::{Schedule, Step};
use std::collections::HashSet;

/// The "patched" schedule used by the DMVSR definition: a read step
/// `R_i(x)` is inserted immediately before every write `W_i(x)` whose
/// transaction has not read `x` earlier in program order.
pub fn patch_readless_writes(schedule: &Schedule) -> Schedule {
    let mut out: Vec<Step> = Vec::with_capacity(schedule.len());
    let mut accessed = HashSet::new();
    for &step in schedule.steps() {
        if accessed.insert((step.tx, step.entity)) && step.is_write() {
            out.push(Step::read(step.tx, step.entity));
        }
        out.push(step);
    }
    Schedule::from_steps(out)
}

/// `true` iff `schedule` is DMVSR: its readless-write patching is MVSR —
/// decided by the patched MVCG, without building the patching, unless a
/// transaction writes an entity twice (see the module docs).
pub fn is_dmvsr(schedule: &Schedule) -> bool {
    decide(schedule, &DenseSchedule::of(schedule))
}

/// The DMVSR test on `schedule` and its dense index: the patched MVCG, or
/// the search on the patching where a transaction writes an entity twice.
pub(crate) fn decide(schedule: &Schedule, dense: &DenseSchedule) -> bool {
    dense
        .acyclic(Rule::Patched)
        .unwrap_or_else(|| crate::mvsr::is_mvsr(&patch_readless_writes(schedule)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialization::search_nodes;
    use mvcc_core::TxId;

    #[test]
    fn patching_inserts_reads_before_blind_writes_only() {
        let s = Schedule::parse("Wa(x) Rb(y) Wb(y) Wb(z)").unwrap();
        let patched = patch_readless_writes(&s);
        // W_a(x) gets a read, W_b(y) does not (B read y already), W_b(z) does.
        assert_eq!(patched.to_string(), "R1(x) W1(x) R2(y) W2(y) R2(z) W2(z)");
    }

    #[test]
    fn patching_is_idempotent_on_restricted_schedules() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(s.tx_system().is_restricted_model());
        assert_eq!(patch_readless_writes(&s).steps(), s.steps());
    }

    #[test]
    fn patched_schedule_is_in_the_restricted_model() {
        let s = Schedule::parse("Wa(x) Wb(x) Wc(y) Rc(x) Wc(x)").unwrap();
        let patched = patch_readless_writes(&s);
        assert!(patched.tx_system().is_restricted_model());
    }

    #[test]
    fn a_repeated_write_breaks_dmvsr_within_mvcsr_and_keeps_the_search() {
        // T_b writes x twice: realizability only needs its *first* write to
        // precede Ra(x), while the MVCG also counts the second.
        let s = Schedule::parse("Rb(x) Rb(y) Wb(x) Ra(x) Wb(x) Ra(y) Wa(y)").unwrap();
        let patched = patch_readless_writes(&s);
        assert_eq!(
            patched.steps(),
            s.steps(),
            "already in the restricted model"
        );
        assert!(crate::mvsr::is_mvsr(&patched));
        assert!(crate::mvsr::is_mvsr_by_definition(&patched));
        assert!(!crate::mvcsr::is_mvcsr(&patched));
        assert!(search_nodes(|| assert!(is_dmvsr(&s))) > 0);
    }

    #[test]
    fn writes_once_schedules_are_decided_without_the_search() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x) Rc(y)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            let mut verdict = false;
            assert_eq!(search_nodes(|| verdict = is_dmvsr(&s)), 0, "schedule {s}");
            assert_eq!(
                verdict,
                crate::mvsr::is_mvsr(&patch_readless_writes(&s)),
                "schedule {s}"
            );
        }
    }

    #[test]
    fn dmvsr_implies_mvcsr_exhaustively() {
        // The paper: DMVSR (= MWW of [PK84]) is contained in MVCSR (= MRW) —
        // where no transaction writes an entity twice, as here.
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            if is_dmvsr(&s) {
                assert!(crate::mvcsr::is_mvcsr(&s), "DMVSR but not MVCSR: {s}");
            }
        }
    }

    #[test]
    fn dmvsr_is_strictly_weaker_than_mvsr_somewhere() {
        // There exist MVSR schedules that are not DMVSR (patching a blind
        // write can destroy serializability); Figure 1's example (2) is one.
        let s2 = &mvcc_core::examples::figure1()[1].schedule;
        assert!(crate::mvsr::is_mvsr(s2));
        assert!(!is_dmvsr(s2));
    }

    #[test]
    fn serial_restricted_schedules_are_dmvsr() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(is_dmvsr(&s));
    }

    #[test]
    fn section4_pair_members_are_dmvsr() {
        // [PK84] prove DMVSR is not OLS using a pair of (restricted-model)
        // schedules; both members are individually DMVSR.
        let (s, s_prime) = mvcc_core::examples::section4_pair();
        assert!(is_dmvsr(&s));
        assert!(is_dmvsr(&s_prime));
        let _ = TxId(1);
    }
}
