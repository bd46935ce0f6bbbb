//! The replica's own history log: shipped admission steps plus the
//! read-only transactions the replica served, spliced at their snapshot
//! positions.
//!
//! A replica-served read-only transaction is pinned at an apply watermark
//! `W`: it observes exactly the committed state of the shipped prefix
//! `[0, W)`.  Appending its read steps wherever they *executed* would lie
//! to the classifiers — a commit applied between two of its reads would
//! appear to precede a read that actually saw the older version.  The
//! honest position is the snapshot point itself: the transaction's steps
//! are spliced into the history right after the last shipped step below
//! `W` (snapshot transactions serialize at their snapshot).  The
//! [`ReplicaHistory::combined_schedule`] the offline checkers certify is
//! that merge.

use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_core::{Schedule, Step, TxId};
use std::collections::BTreeSet;

/// One read-only transaction served by the replica.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReaderEntry {
    /// The reader's transaction id (from the replica's own id space).
    tx: TxId,
    /// The apply watermark the reader was pinned at: every shipped record
    /// with `lsn < watermark` was applied before any of its reads.
    watermark: u64,
    /// Tie-breaker among readers pinned at the same watermark (their
    /// relative order is irrelevant — read-only transactions never
    /// conflict — but the merge must be deterministic).
    seq: u64,
    /// The reader's steps, in read order.
    steps: Vec<Step>,
}

#[derive(Debug, Default)]
struct HistoryInner {
    /// Shipped admitted steps with the LSN of the record that carried
    /// them, in log order (committed and discarded writers alike).
    shipped: Vec<(u64, Step)>,
    /// Transactions with a shipped commit record.
    committed: BTreeSet<TxId>,
    /// Finished read-only transactions served by this replica.
    readers: Vec<ReaderEntry>,
    reader_seq: u64,
}

/// The replica's append-only history (see the module docs).
#[derive(Debug)]
pub struct ReplicaHistory {
    record: bool,
    inner: TrackedMutex<HistoryInner>,
}

impl ReplicaHistory {
    /// Creates the history; with `record` off only commit membership is
    /// tracked (long soak runs skip the step log entirely).
    pub fn new(record: bool) -> Self {
        ReplicaHistory {
            record,
            inner: TrackedMutex::new(lock_class!("replica.history"), HistoryInner::default()),
        }
    }

    /// Records one shipped step record (read or write) at its LSN.
    pub(crate) fn record_shipped(&self, lsn: u64, step: Step) {
        if self.record {
            self.inner.lock().shipped.push((lsn, step));
        }
    }

    /// Records a shipped commit.  Gated on recording like the steps:
    /// commit membership only feeds the committed projections, and a
    /// recording-off replica (long soak runs) must not grow any
    /// per-transaction state without bound.
    pub(crate) fn record_committed(&self, tx: TxId) {
        if self.record {
            self.inner.lock().committed.insert(tx);
        }
    }

    /// Records one finished replica-served read-only transaction pinned
    /// at `watermark`.
    pub(crate) fn record_reader(&self, tx: TxId, watermark: u64, steps: Vec<Step>) {
        if !self.record || steps.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let seq = inner.reader_seq;
        inner.reader_seq += 1;
        inner.readers.push(ReaderEntry {
            tx,
            watermark,
            seq,
            steps,
        });
    }

    /// Transactions with a shipped commit record.
    pub fn committed(&self) -> BTreeSet<TxId> {
        self.inner.lock().committed.clone()
    }

    /// Number of read-only transactions recorded.
    pub fn readers_recorded(&self) -> usize {
        self.inner.lock().readers.len()
    }

    /// The combined committed history: the shipped steps of committed
    /// transactions, in log order, with every replica-served reader's
    /// steps spliced in right after the last shipped step below its
    /// watermark.  This single schedule is what the offline classifiers
    /// certify.
    pub fn combined_schedule(&self) -> Schedule {
        let inner = self.inner.lock();
        let mut readers: Vec<&ReaderEntry> = inner.readers.iter().collect();
        readers.sort_by_key(|r| (r.watermark, r.seq));
        let mut merged = Vec::with_capacity(
            inner.shipped.len() + readers.iter().map(|r| r.steps.len()).sum::<usize>(),
        );
        let mut next_reader = 0usize;
        for &(lsn, step) in &inner.shipped {
            while next_reader < readers.len() && readers[next_reader].watermark <= lsn {
                merged.extend_from_slice(&readers[next_reader].steps);
                next_reader += 1;
            }
            if inner.committed.contains(&step.tx) {
                merged.push(step);
            }
        }
        for reader in &readers[next_reader..] {
            merged.extend_from_slice(&reader.steps);
        }
        Schedule::from_steps(merged)
    }

    /// The committed projection of the shipped history alone (no
    /// replica-served readers) — must equal the primary's committed
    /// schedule over the shipped prefix.
    pub fn shipped_schedule(&self) -> Schedule {
        let inner = self.inner.lock();
        Schedule::from_steps(
            inner
                .shipped
                .iter()
                .filter(|(_, s)| inner.committed.contains(&s.tx))
                .map(|&(_, s)| s)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::EntityId;

    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1);

    #[test]
    fn readers_splice_at_their_snapshot_position() {
        let h = ReplicaHistory::new(true);
        // Shipped: W1(x)@0, commit T1; W2(x)@2, commit T2.
        h.record_shipped(0, Step::write(TxId(1), X));
        h.record_committed(TxId(1));
        h.record_shipped(2, Step::write(TxId(2), X));
        h.record_committed(TxId(2));
        // A reader pinned at watermark 2 (T1 applied, T2 not): its read
        // must land between the two writes.
        h.record_reader(TxId(100), 2, vec![Step::read(TxId(100), X)]);
        // A reader pinned after everything.
        h.record_reader(TxId(101), 4, vec![Step::read(TxId(101), X)]);
        let combined = h.combined_schedule();
        let txs: Vec<TxId> = combined.steps().iter().map(|s| s.tx).collect();
        assert_eq!(
            txs,
            vec![TxId(1), TxId(100), TxId(2), TxId(101)],
            "{combined}"
        );
    }

    #[test]
    fn uncommitted_shipped_steps_are_projected_out() {
        let h = ReplicaHistory::new(true);
        h.record_shipped(0, Step::write(TxId(1), X));
        h.record_shipped(1, Step::write(TxId(2), Y)); // never commits
        h.record_committed(TxId(1));
        assert_eq!(h.combined_schedule().len(), 1);
        assert_eq!(h.shipped_schedule().len(), 1);
    }

    #[test]
    fn readers_at_the_same_watermark_keep_their_serve_order() {
        let h = ReplicaHistory::new(true);
        h.record_shipped(0, Step::write(TxId(1), X));
        h.record_committed(TxId(1));
        h.record_reader(TxId(100), 1, vec![Step::read(TxId(100), X)]);
        h.record_reader(TxId(101), 1, vec![Step::read(TxId(101), X)]);
        let txs: Vec<TxId> = h.combined_schedule().steps().iter().map(|s| s.tx).collect();
        assert_eq!(txs, vec![TxId(1), TxId(100), TxId(101)]);
    }

    #[test]
    fn recording_off_retains_nothing() {
        let h = ReplicaHistory::new(false);
        h.record_shipped(0, Step::write(TxId(1), X));
        h.record_committed(TxId(1));
        h.record_reader(TxId(100), 1, vec![Step::read(TxId(100), X)]);
        assert_eq!(h.combined_schedule().len(), 0);
        assert_eq!(h.committed().len(), 0, "no unbounded state in off mode");
        assert_eq!(h.readers_recorded(), 0);
    }
}
