//! The two notions of conflict used by the paper.
//!
//! *Single-version conflict* (Section 2): two steps conflict iff they access
//! the same entity and at least one of them is a write.  This is the notion
//! behind conflict-serializability (CSR) and locking.
//!
//! *Multiversion conflict* (Section 3): two steps of a schedule conflict iff
//! the **first** (in schedule order) is a **read** and the **second** is a
//! **write** on the same entity.  The notion is deliberately asymmetric:
//! write–read and write–write pairs can always be reconciled by serving an
//! older version, but a read that happened before a write can never be made
//! to observe that later write — "the multiversion approach can help a read
//! request that arrived too late, but it can do nothing about a read request
//! that arrived too early."

use crate::{EntityId, Schedule, Step, TxId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Classification of a single-version conflict between two steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictKind {
    /// First step reads, second writes (same entity).
    ReadWrite,
    /// First step writes, second reads (same entity).
    WriteRead,
    /// Both steps write (same entity).
    WriteWrite,
}

/// Returns the single-version conflict kind of the ordered pair
/// `(first, second)`, if the steps conflict.
///
/// Steps of the *same* transaction are never reported as conflicting: their
/// order is fixed by program order in every schedule of the system, so they
/// never constrain equivalence.
pub(crate) fn sv_conflict_kind(first: &Step, second: &Step) -> Option<ConflictKind> {
    if first.tx == second.tx || first.entity != second.entity {
        return None;
    }
    match (first.action, second.action) {
        (crate::Action::Read, crate::Action::Write) => Some(ConflictKind::ReadWrite),
        (crate::Action::Write, crate::Action::Read) => Some(ConflictKind::WriteRead),
        (crate::Action::Write, crate::Action::Write) => Some(ConflictKind::WriteWrite),
        (crate::Action::Read, crate::Action::Read) => None,
    }
}

/// `true` iff the ordered pair `(first, second)` is a single-version
/// conflict.
pub fn sv_conflicts(first: &Step, second: &Step) -> bool {
    sv_conflict_kind(first, second).is_some()
}

/// `true` iff the ordered pair `(first, second)` is a *multiversion*
/// conflict: `first` is a read, `second` is a write on the same entity, and
/// the steps belong to different transactions.
pub fn mv_conflicts(first: &Step, second: &Step) -> bool {
    first.tx != second.tx && first.entity == second.entity && first.is_read() && second.is_write()
}

/// An ordered conflicting pair of step positions within one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConflictPair {
    /// Position of the earlier step.
    pub first: usize,
    /// Position of the later step.
    pub second: usize,
    /// Transaction of the earlier step.
    pub first_tx: TxId,
    /// Transaction of the later step.
    pub second_tx: TxId,
}

/// Enumerates all ordered single-version conflicting pairs of `schedule`
/// (earlier step first), in `(first, second)` lexicographic order.  The
/// classifiers enumerate arcs on their own dense index; this enumeration is
/// the independent reference their differential test builds graphs from.
pub fn sv_conflict_pairs_iter(schedule: &Schedule) -> impl Iterator<Item = ConflictPair> + '_ {
    conflict_pairs_by(schedule, sv_conflicts)
}

/// Enumerates all ordered multiversion conflicting pairs of `schedule`
/// (earlier step first; the earlier step is necessarily a read and the later
/// one a write on the same entity), in `(first, second)` lexicographic order.
pub fn mv_conflict_pairs_iter(schedule: &Schedule) -> impl Iterator<Item = ConflictPair> + '_ {
    conflict_pairs_by(schedule, mv_conflicts)
}

/// The pairs `(i, j)`, `i < j`, of step positions with `pred(step i, step j)`,
/// in lexicographic order.  Both conflict notions need a common entity, so
/// positions are bucketed by entity and step `i` is paired only with the
/// later positions of its own bucket: O(n + Σₓ kₓ²) for `kₓ` steps on entity
/// `x`, not O(n²).
fn conflict_pairs_by(
    schedule: &Schedule,
    pred: fn(&Step, &Step) -> bool,
) -> impl Iterator<Item = ConflictPair> + '_ {
    let steps = schedule.steps();
    let mut bucket_of_entity: HashMap<EntityId, usize> = HashMap::new();
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    // Per position: its bucket, and where the positions after it start there.
    let mut later: Vec<(usize, usize)> = Vec::with_capacity(steps.len());
    for (pos, step) in steps.iter().enumerate() {
        let bucket = *bucket_of_entity.entry(step.entity).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[bucket].push(pos);
        later.push((bucket, buckets[bucket].len()));
    }
    let mut first = 0;
    let mut next = later.first().map_or(0, |&(_, from)| from);
    std::iter::from_fn(move || {
        while first < steps.len() {
            let bucket = &buckets[later[first].0];
            while next < bucket.len() {
                let second = bucket[next];
                next += 1;
                if pred(&steps[first], &steps[second]) {
                    return Some(ConflictPair {
                        first,
                        second,
                        first_tx: steps[first].tx,
                        second_tx: steps[second].tx,
                    });
                }
            }
            first += 1;
            next = later.get(first).map_or(0, |&(_, from)| from);
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityId, Schedule};

    fn r(tx: u32, e: u32) -> Step {
        Step::read(TxId(tx), EntityId(e))
    }
    fn w(tx: u32, e: u32) -> Step {
        Step::write(TxId(tx), EntityId(e))
    }
    fn sv_conflict_pairs(s: &Schedule) -> Vec<ConflictPair> {
        sv_conflict_pairs_iter(s).collect()
    }
    fn mv_conflict_pairs(s: &Schedule) -> Vec<ConflictPair> {
        mv_conflict_pairs_iter(s).collect()
    }

    #[test]
    fn single_version_conflicts_cover_rw_wr_ww() {
        assert_eq!(
            sv_conflict_kind(&r(1, 0), &w(2, 0)),
            Some(ConflictKind::ReadWrite)
        );
        assert_eq!(
            sv_conflict_kind(&w(1, 0), &r(2, 0)),
            Some(ConflictKind::WriteRead)
        );
        assert_eq!(
            sv_conflict_kind(&w(1, 0), &w(2, 0)),
            Some(ConflictKind::WriteWrite)
        );
        assert_eq!(sv_conflict_kind(&r(1, 0), &r(2, 0)), None);
    }

    #[test]
    fn conflicts_require_same_entity_and_different_tx() {
        assert!(!sv_conflicts(&w(1, 0), &w(2, 1)), "different entities");
        assert!(!sv_conflicts(&w(1, 0), &r(1, 0)), "same transaction");
        assert!(!mv_conflicts(&r(1, 0), &w(1, 0)), "same transaction");
        assert!(!mv_conflicts(&r(1, 0), &w(2, 1)), "different entities");
    }

    #[test]
    fn multiversion_conflict_is_read_then_write_only() {
        assert!(mv_conflicts(&r(1, 0), &w(2, 0)));
        assert!(
            !mv_conflicts(&w(1, 0), &r(2, 0)),
            "write-read is not an MV conflict"
        );
        assert!(
            !mv_conflicts(&w(1, 0), &w(2, 0)),
            "write-write is not an MV conflict"
        );
        assert!(!mv_conflicts(&r(1, 0), &r(2, 0)));
    }

    #[test]
    fn mv_conflicts_are_a_subset_of_sv_conflicts() {
        let steps = [r(1, 0), w(1, 0), r(2, 0), w(2, 1), r(3, 1), w(3, 0)];
        for a in &steps {
            for b in &steps {
                if mv_conflicts(a, b) {
                    assert!(sv_conflicts(a, b));
                }
            }
        }
    }

    #[test]
    fn conflict_pair_enumeration() {
        // Ra(x) Wb(x) Wa(y) Rb(y)
        let s = Schedule::parse("Ra(x) Wb(x) Wa(y) Rb(y)").unwrap();
        let sv = sv_conflict_pairs(&s);
        // (0,1) R-W on x, (2,3) W-R on y.
        assert_eq!(sv.len(), 2);
        assert_eq!((sv[0].first, sv[0].second), (0, 1));
        assert_eq!((sv[1].first, sv[1].second), (2, 3));

        let mv = mv_conflict_pairs(&s);
        // Only the read-before-write pair on x.
        assert_eq!(mv.len(), 1);
        assert_eq!((mv[0].first, mv[0].second), (0, 1));
        assert_eq!(mv[0].first_tx, TxId(1));
        assert_eq!(mv[0].second_tx, TxId(2));
    }

    /// The definition the bucketed enumeration must reproduce: every pair
    /// of positions, earlier first.
    fn all_pairs_reference(s: &Schedule, pred: fn(&Step, &Step) -> bool) -> Vec<ConflictPair> {
        let steps = s.steps();
        let mut out = Vec::new();
        for first in 0..steps.len() {
            for second in (first + 1)..steps.len() {
                if pred(&steps[first], &steps[second]) {
                    out.push(ConflictPair {
                        first,
                        second,
                        first_tx: steps[first].tx,
                        second_tx: steps[second].tx,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn bucketed_pairs_equal_the_all_pairs_reference_in_order() {
        // Seeded random schedules, from one entity (a single bucket) to more
        // entities than steps, transactions stepping several times in a row.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..300 {
            let (txs, entities, len) = (1 + next(6), 1 + next(1 + case % 9), next(40));
            let s = Schedule::from_steps(
                (0..len)
                    .map(|_| {
                        let (tx, e) = (1 + next(txs) as u32, next(entities) as u32);
                        if next(2) == 0 {
                            r(tx, e)
                        } else {
                            w(tx, e)
                        }
                    })
                    .collect(),
            );
            assert_eq!(
                sv_conflict_pairs(&s),
                all_pairs_reference(&s, sv_conflicts),
                "{s}"
            );
            assert_eq!(
                mv_conflict_pairs(&s),
                all_pairs_reference(&s, mv_conflicts),
                "{s}"
            );
        }
    }

    #[test]
    fn same_transaction_steps_and_empty_schedules_yield_no_pairs() {
        let own = Schedule::parse("Ra(x) Wa(x) Ra(x) Wa(x)").unwrap();
        assert!(sv_conflict_pairs(&own).is_empty());
        assert!(mv_conflict_pairs(&own).is_empty());
        assert!(sv_conflict_pairs(&Schedule::empty()).is_empty());
    }

    #[test]
    fn no_conflicts_in_read_only_schedule() {
        let s = Schedule::parse("Ra(x) Rb(x) Rc(x)").unwrap();
        assert!(sv_conflict_pairs(&s).is_empty());
        assert!(mv_conflict_pairs(&s).is_empty());
    }
}
