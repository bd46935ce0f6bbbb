//! Multiversion timestamp ordering (MVTO) — Reed's scheme, as analysed by
//! Bernstein & Goodman (reference \[2\] of the paper).
//!
//! Every transaction is timestamped on arrival.  A read of `x` by `T` is
//! served the version of `x` with the largest write-timestamp not exceeding
//! `ts(T)` and is never rejected; a write of `x` by `T` is rejected iff the
//! version just below `ts(T)` has already been read by a transaction with a
//! larger timestamp (serving that reader would now be wrong).  MVTO outputs
//! MVSR schedules (serializable in timestamp order) and is the classical
//! "practical" multiversion scheduler the paper's introduction credits with
//! enhanced performance.
//!
//! ## State and per-step budget
//!
//! Each entity's versions are kept ascending by write timestamp, so both
//! rules are one `partition_point` (a transaction that writes an entity
//! twice gets two versions with its timestamp; the later one shadows the
//! earlier).  Unfinished transactions — timestamped, neither committed nor
//! aborted — carry the entities they wrote, and their timestamps sit in an
//! ordered set.  A step costs O(log versions retained on its entity), a
//! commit or abort O(own writes); nothing walks the whole table.
//!
//! ## Why pruning at commit changes no decision
//!
//! Timestamps are handed out in increasing order, so every later step
//! carries a timestamp ≥ the *horizon*: the oldest unfinished timestamp
//! (the next one to be assigned when none is unfinished).  A version
//! written below the horizon belongs to a committed transaction — an
//! unfinished writer's timestamp is ≥ the horizon, an aborted writer's
//! versions are gone — so no abort will ever remove it.  Call the newest
//! such version of an entity its *floor*.  The read rule (largest write
//! timestamp ≤ ts) and the write test (the version just below ts) both
//! land on the floor or above it for every ts ≥ horizon, now and — since
//! the horizon only rises — ever after.  [`Scheduler::commit`] therefore
//! drops everything below the floor, on the entities the committer wrote.
//! A driver that never calls `commit` ([`crate::run_prefix`]) prunes nothing.

use crate::{Decision, Scheduler};
use mvcc_core::{Action, EntityId, Step, TxId, VersionSource};
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
struct Version {
    writer: Option<TxId>,
    write_ts: u64,
    max_read_ts: u64,
}

/// An unfinished transaction: its timestamp and the entities it wrote.
#[derive(Debug, Clone)]
struct Unfinished {
    ts: u64,
    written: Vec<EntityId>,
}

/// Multiversion timestamp-ordering scheduler.
#[derive(Debug, Clone, Default)]
pub struct MvtoScheduler {
    next_ts: u64,
    unfinished: HashMap<TxId, Unfinished>,
    unfinished_ts: BTreeSet<u64>,
    /// Per entity, ascending by `write_ts`; never empty once created.
    versions: HashMap<EntityId, Vec<Version>>,
}

impl MvtoScheduler {
    /// Creates an MVTO scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of versions currently retained over all entities (the
    /// bounded-state tests watch this).
    pub fn retained_versions(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// Forgets `tx` as an unfinished transaction, if it is one.
    fn retire(&mut self, tx: TxId) -> Option<Unfinished> {
        let tx = self.unfinished.remove(&tx)?;
        self.unfinished_ts.remove(&tx.ts);
        Some(tx)
    }
}

impl Scheduler for MvtoScheduler {
    fn name(&self) -> &'static str {
        "mvto"
    }

    fn is_multiversion(&self) -> bool {
        true
    }

    fn offer(&mut self, step: Step) -> Decision {
        let (next_ts, unfinished_ts) = (&mut self.next_ts, &mut self.unfinished_ts);
        let tx = self.unfinished.entry(step.tx).or_insert_with(|| {
            // Timestamps start at 1 so that the initial version (write_ts 0)
            // is older than every transaction.
            *next_ts += 1;
            unfinished_ts.insert(*next_ts);
            Unfinished {
                ts: *next_ts,
                written: Vec::new(),
            }
        });
        let ts = tx.ts;
        let versions = self.versions.entry(step.entity).or_insert_with(|| {
            vec![Version {
                writer: None,
                write_ts: 0,
                max_read_ts: 0,
            }]
        });
        // Versions [..at] have write_ts <= ts; the floor (or the initial
        // version) is among them, so at >= 1.
        let at = versions.partition_point(|v| v.write_ts <= ts);
        match step.action {
            Action::Read => {
                let chosen = &mut versions[at - 1];
                chosen.max_read_ts = chosen.max_read_ts.max(ts);
                let read_from = match chosen.writer {
                    None => VersionSource::Initial,
                    Some(w) => VersionSource::Tx(w),
                };
                Decision::Accept {
                    read_from: Some(read_from),
                }
            }
            Action::Write => {
                // Reject if the version just below ts (skipping this
                // transaction's own earlier writes) has been read by a
                // transaction younger than ts: that reader should have
                // seen this write.
                let conflict = versions[..at]
                    .iter()
                    .rfind(|v| v.write_ts < ts)
                    .is_some_and(|v| v.max_read_ts > ts);
                if conflict {
                    return Decision::Reject;
                }
                versions.insert(
                    at,
                    Version {
                        writer: Some(step.tx),
                        write_ts: ts,
                        max_read_ts: ts,
                    },
                );
                tx.written.push(step.entity);
                Decision::ACCEPT
            }
        }
    }

    fn abort(&mut self, tx: TxId) {
        let Some(tx) = self.retire(tx) else {
            return;
        };
        // Read timestamps contributed by the aborted transaction are left
        // in place (conservative).
        for entity in tx.written {
            if let Some(versions) = self.versions.get_mut(&entity) {
                let from = versions.partition_point(|v| v.write_ts < tx.ts);
                let to = versions.partition_point(|v| v.write_ts <= tx.ts);
                versions.drain(from..to);
            }
        }
    }

    fn commit(&mut self, tx: TxId) {
        let Some(tx) = self.retire(tx) else {
            return;
        };
        let next = self.next_ts + 1;
        let horizon = self.unfinished_ts.first().copied().unwrap_or(next);
        for entity in tx.written {
            if let Some(versions) = self.versions.get_mut(&entity) {
                let floor = versions.partition_point(|v| v.write_ts < horizon) - 1;
                versions.drain(..floor);
            }
        }
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::Schedule;

    fn run_all(s: &Schedule) -> bool {
        let mut sched = MvtoScheduler::new();
        s.steps().iter().all(|&st| sched.offer(st).is_accept())
    }

    #[test]
    fn reads_are_never_rejected() {
        let s = Schedule::parse("Wa(x) Rb(x) Rc(x) Wb(y) Rc(y) Ra(y)").unwrap();
        let mut sched = MvtoScheduler::new();
        for &st in s.steps() {
            if st.is_read() {
                assert!(sched.offer(st).is_accept());
            } else {
                let _ = sched.offer(st);
            }
        }
    }

    #[test]
    fn old_reader_gets_old_version() {
        // A arrives first (reads y to get a timestamp), B writes x, then A
        // reads x: MVTO serves A the *initial* version of x rather than
        // rejecting (contrast with single-version TO, which rejects).
        let s = Schedule::parse("Ra(y) Wb(x) Ra(x)").unwrap();
        let mut sched = MvtoScheduler::new();
        let d: Vec<Decision> = s.steps().iter().map(|&st| sched.offer(st)).collect();
        assert!(d.iter().all(|x| x.is_accept()));
        assert_eq!(d[2].read_from(), Some(VersionSource::Initial));

        let mut to = crate::TimestampScheduler::new();
        let to_all = s.steps().iter().all(|&st| to.offer(st).is_accept());
        assert!(!to_all, "single-version TO rejects the late read");
    }

    #[test]
    fn late_write_is_rejected_when_a_younger_reader_saw_the_gap() {
        // B (younger) reads x (initial version); A (older) then writes x:
        // B should have read A's version, so the write is rejected.
        let s = Schedule::parse("Ra(y) Rb(x) Wa(x)").unwrap();
        let mut sched = MvtoScheduler::new();
        let d: Vec<bool> = s
            .steps()
            .iter()
            .map(|&st| sched.offer(st).is_accept())
            .collect();
        assert_eq!(d, vec![true, true, false]);
    }

    #[test]
    fn accepted_complete_runs_are_mvsr() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        let mut accepted = 0;
        for s in Schedule::all_interleavings(&sys) {
            if run_all(&s) {
                assert!(mvcc_classify::is_mvsr(&s), "MVTO accepted non-MVSR {s}");
                accepted += 1;
            }
        }
        assert!(accepted > 0);
    }

    #[test]
    fn accepts_more_interleavings_than_single_version_to() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        let mut mvto_count = 0;
        let mut to_count = 0;
        for s in Schedule::all_interleavings(&sys) {
            if run_all(&s) {
                mvto_count += 1;
            }
            let mut to = crate::TimestampScheduler::new();
            if s.steps().iter().all(|&st| to.offer(st).is_accept()) {
                to_count += 1;
            }
        }
        assert!(
            mvto_count > to_count,
            "multiversion TO should accept strictly more ({mvto_count} vs {to_count})"
        );
    }

    #[test]
    fn abort_removes_written_versions() {
        let mut sched = MvtoScheduler::new();
        let s = Schedule::parse("Wa(x) Rb(x)").unwrap();
        assert!(sched.offer(s.steps()[0]).is_accept());
        sched.abort(TxId(1));
        let d = sched.offer(s.steps()[1]);
        assert_eq!(d.read_from(), Some(VersionSource::Initial));
        assert_eq!(sched.name(), "mvto");
        assert!(sched.is_multiversion());
    }
}
