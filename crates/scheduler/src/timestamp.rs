//! Single-version timestamp ordering (TO).
//!
//! Every transaction receives a timestamp when its first step arrives; a
//! step is accepted iff it does not arrive "too late" with respect to the
//! timestamps of steps already accepted on the same entity.  The output
//! schedules are conflict-serializable in timestamp order, so TO is another
//! single-version baseline (typically more permissive than immediate-reject
//! 2PL, less permissive than SGT).

use crate::{Decision, Scheduler};
use mvcc_core::{Action, EntityId, Step, TxId};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct EntityTimestamps {
    max_read: Option<u64>,
    max_write: Option<u64>,
}

/// Basic timestamp-ordering scheduler (no Thomas write rule).
#[derive(Debug, Clone, Default)]
pub struct TimestampScheduler {
    next_ts: u64,
    ts_of: HashMap<TxId, u64>,
    entities: HashMap<EntityId, EntityTimestamps>,
}

impl TimestampScheduler {
    /// Creates a timestamp-ordering scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn timestamp(&mut self, tx: TxId) -> u64 {
        if let Some(&ts) = self.ts_of.get(&tx) {
            return ts;
        }
        let ts = self.next_ts;
        self.next_ts += 1;
        self.ts_of.insert(tx, ts);
        ts
    }
}

impl Scheduler for TimestampScheduler {
    fn name(&self) -> &'static str {
        "to"
    }

    fn is_multiversion(&self) -> bool {
        false
    }

    fn offer(&mut self, step: Step) -> Decision {
        let ts = self.timestamp(step.tx);
        let entry = self.entities.entry(step.entity).or_default();
        match step.action {
            Action::Read => {
                if entry.max_write.is_some_and(|w| ts < w) {
                    return Decision::Reject;
                }
                entry.max_read = Some(entry.max_read.map_or(ts, |r| r.max(ts)));
                Decision::ACCEPT
            }
            Action::Write => {
                if entry.max_read.is_some_and(|r| ts < r) || entry.max_write.is_some_and(|w| ts < w)
                {
                    return Decision::Reject;
                }
                entry.max_write = Some(ts);
                Decision::ACCEPT
            }
        }
    }

    fn abort(&mut self, tx: TxId) {
        // Timestamps of aborted transactions are retired; the per-entity
        // high-water marks are left conservative (they may retain the aborted
        // transaction's reads/writes), which can only cause extra rejections,
        // never incorrect acceptances.
        self.ts_of.remove(&tx);
    }

    fn commit(&mut self, tx: TxId) {
        // A committed transaction issues no more steps: its timestamp lives
        // on in the per-entity high-water marks only.
        self.ts_of.remove(&tx);
    }

    fn reset(&mut self) {
        self.next_ts = 0;
        self.ts_of.clear();
        self.entities.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::Schedule;

    fn decisions(s: &Schedule) -> Vec<bool> {
        let mut sched = TimestampScheduler::new();
        s.steps()
            .iter()
            .map(|&st| sched.offer(st).is_accept())
            .collect()
    }

    #[test]
    fn accepts_timestamp_ordered_interleavings() {
        let s = Schedule::parse("Ra(x) Rb(y) Wa(x) Wb(y)").unwrap();
        assert!(decisions(&s).iter().all(|&d| d));
    }

    #[test]
    fn rejects_late_writes() {
        // B (younger) reads x, then A (older) tries to write x: A's write is
        // too late and is rejected.
        let s = Schedule::parse("Ra(y) Rb(x) Wa(x)").unwrap();
        let d = decisions(&s);
        assert_eq!(d, vec![true, true, false]);
    }

    #[test]
    fn rejects_late_reads() {
        let s = Schedule::parse("Ra(y) Wb(x) Ra(x)").unwrap();
        let d = decisions(&s);
        assert_eq!(d, vec![true, true, false]);
    }

    #[test]
    fn accepted_complete_runs_are_csr() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        let mut accepted = 0;
        for s in Schedule::all_interleavings(&sys) {
            let mut sched = TimestampScheduler::new();
            if s.steps().iter().all(|&st| sched.offer(st).is_accept()) {
                assert!(mvcc_classify::is_csr(&s), "TO accepted non-CSR {s}");
                accepted += 1;
            }
        }
        assert!(accepted > 0);
    }

    #[test]
    fn reset_clears_state() {
        let s = Schedule::parse("Ra(y) Rb(x) Wa(x)").unwrap();
        let mut sched = TimestampScheduler::new();
        for &st in s.steps() {
            let _ = sched.offer(st);
        }
        sched.reset();
        assert!(sched.offer(s.steps()[0]).is_accept());
    }

    #[test]
    fn name_and_kind() {
        let sched = TimestampScheduler::new();
        assert_eq!(sched.name(), "to");
        assert!(!sched.is_multiversion());
    }
}
