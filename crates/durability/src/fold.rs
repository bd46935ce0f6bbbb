//! The one fold of WAL records into the committed projection of a log
//! prefix.
//!
//! Crash recovery and log shipping compute the same thing: the committed
//! projection of a valid log prefix, which stays in the certified class
//! because the classes are closed under prefixes and committed
//! projection.  [`LogFold`] is that computation, written once; recovery
//! ([`crate::recover`]) and a replica (`mvcc-replica`, on open and on
//! every shipping poll) are thin sinks of what it yields ([`Folded`]).
//! It keeps each open transaction's pending writes (ACA: a write moves no
//! data until its commit record arrives), groups a commit's writes by
//! shard (`entity % shards`) under the timestamp the commit names for that
//! shard, and tracks the per-shard timestamp high-water marks, the safe
//! point, the highest transaction id and the writers that never commit.
//!
//! A commit entry that names a shard at or above the configured count, or
//! leaves out the shard of one of its writes, was written under another
//! shard count: the fold refuses it with [`io::ErrorKind::InvalidData`]
//! rather than drop committed writes.  Engine-written logs never do this —
//! a commit entry names every shard its transaction began on.

use crate::record::{CommitEntry, WalRecord};
use bytes::Bytes;
use mvcc_core::{EntityId, Step, TxId};
use std::collections::HashMap;
use std::io;

/// What one log record contributes to the committed projection.
#[derive(Debug)]
pub enum Folded {
    /// An admitted read or write step, in log order (the history keeps it
    /// whatever becomes of its transaction).
    Step(Step),
    /// The transactions a commit record commits, in record order.
    Commit(Vec<CommittedTx>),
    /// An aborted transaction that had logged writes; they are dropped.
    Discard(TxId),
    /// Begin, checkpoint, and aborts of transactions that wrote nothing:
    /// bookkeeping only.
    Nothing,
}

/// One transaction of a commit record, with its writes grouped by shard.
#[derive(Debug)]
pub struct CommittedTx {
    /// The committed transaction.
    pub tx: TxId,
    /// `(shard, commit timestamp)` per shard the commit entry names.
    stamps: Vec<(u32, u64)>,
    /// The transaction's writes, grouped by shard in `stamps` order, in
    /// log order within a group.
    writes: Vec<(EntityId, Bytes)>,
    /// The shard count the writes were grouped under.
    shard_count: usize,
}

impl CommittedTx {
    /// Every shard the commit entry names, with the commit timestamp it
    /// assigned there and the writes that shard owns (possibly none: a
    /// transaction that only read on a shard still stamps its counter).
    pub fn shards(&self) -> impl Iterator<Item = (usize, u64, &[(EntityId, Bytes)])> + '_ {
        let mut rest = &self.writes[..];
        self.stamps.iter().map(move |&(shard, ts)| {
            let shard = shard as usize;
            let len = rest
                .iter()
                .take_while(|(e, _)| e.index() % self.shard_count == shard)
                .count();
            let (own, tail) = rest.split_at(len);
            rest = tail;
            (shard, ts, own)
        })
    }
}

/// The fold state (see the module docs).
#[derive(Debug)]
pub struct LogFold {
    shards: usize,
    /// Open transactions with the writes each has logged so far (empty
    /// for one that has only begun or read).
    open: HashMap<TxId, Vec<(EntityId, Bytes)>>,
    /// Per-shard commit-timestamp high-water marks.
    shard_ts: Vec<u64>,
    /// The position right after the newest record at which no
    /// transaction was open.
    safe_lsn: u64,
    /// `shard_ts` as it stood at `safe_lsn`.
    safe_ts: Vec<u64>,
    max_tx: u32,
}

impl LogFold {
    /// An empty fold at the log's origin, for a store of `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        LogFold {
            shards,
            open: HashMap::new(),
            shard_ts: vec![0; shards],
            safe_lsn: 0,
            safe_ts: vec![0; shards],
            max_tx: 0,
        }
    }

    /// Folds the record at `lsn`.  Records must arrive in LSN order, from
    /// the origin.  A refused record ([`io::ErrorKind::InvalidData`], see
    /// the module docs) leaves the fold unchanged.
    pub fn fold(&mut self, lsn: u64, record: WalRecord) -> io::Result<Folded> {
        let folded = match record {
            WalRecord::Begin { tx } => {
                self.open_tx(tx);
                Folded::Nothing
            }
            WalRecord::Read { tx, entity } => {
                self.open_tx(tx);
                Folded::Step(Step::read(tx, entity))
            }
            WalRecord::Write { tx, entity, value } => {
                self.open_tx(tx).push((entity, value));
                Folded::Step(Step::write(tx, entity))
            }
            WalRecord::Abort { tx } => {
                self.note_tx(tx);
                match self.open.remove(&tx) {
                    Some(writes) if !writes.is_empty() => Folded::Discard(tx),
                    _ => Folded::Nothing,
                }
            }
            WalRecord::Commit { entries } => {
                for entry in &entries {
                    self.check_entry(lsn, entry)?;
                }
                Folded::Commit(entries.into_iter().map(|e| self.commit(e)).collect())
            }
            WalRecord::Checkpoint { .. } => Folded::Nothing,
        };
        if self.open.is_empty() {
            self.safe_lsn = lsn + 1;
            self.safe_ts.clone_from(&self.shard_ts);
        }
        Ok(folded)
    }

    /// The newest transaction-consistent position: every transaction with
    /// a record below it also committed or aborted below it.
    pub fn safe_lsn(&self) -> u64 {
        self.safe_lsn
    }

    /// Per-shard commit timestamps at [`LogFold::safe_lsn`].
    pub fn safe_ts(&self) -> &[u64] {
        &self.safe_ts
    }

    /// One above the highest transaction id folded so far (padding ids
    /// excluded): the first id a resumed engine may allocate.
    pub fn next_tx(&self) -> u32 {
        self.max_tx.saturating_add(1)
    }

    /// Transactions that logged writes and are still open: at the end of
    /// a recovered prefix, the crash aborted them.
    pub(crate) fn unfinished_writers(&self) -> impl Iterator<Item = TxId> + '_ {
        self.open
            .iter()
            .filter(|(_, writes)| !writes.is_empty())
            .map(|(tx, _)| *tx)
    }

    fn note_tx(&mut self, tx: TxId) {
        if !tx.is_padding() {
            self.max_tx = self.max_tx.max(tx.0);
        }
    }

    fn open_tx(&mut self, tx: TxId) -> &mut Vec<(EntityId, Bytes)> {
        self.note_tx(tx);
        self.open.entry(tx).or_default()
    }

    /// The shard owning `entity`, as a position in `entry`'s shard list.
    fn position(&self, entry: &CommitEntry, entity: EntityId) -> Option<usize> {
        let shard = entity.index() % self.shards;
        entry.shards.iter().position(|&(s, _)| s as usize == shard)
    }

    fn check_entry(&self, lsn: u64, entry: &CommitEntry) -> io::Result<()> {
        let refuse = |what: String| -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "commit record at LSN {lsn}: {} {what} (folded with {} shards; \
                     was the log written under another shard count?)",
                    entry.tx, self.shards
                ),
            ))
        };
        if let Some(&(shard, _)) = entry
            .shards
            .iter()
            .find(|&&(s, _)| s as usize >= self.shards)
        {
            return refuse(format!("names shard {shard}"));
        }
        let writes = self.open.get(&entry.tx).map_or(&[][..], Vec::as_slice);
        if let Some((entity, _)) = writes
            .iter()
            .find(|(e, _)| self.position(entry, *e).is_none())
        {
            return refuse(format!(
                "wrote entity {} but does not name its shard {}",
                entity.index(),
                entity.index() % self.shards
            ));
        }
        Ok(())
    }

    /// Closes a checked commit entry: its writes, grouped by shard in
    /// entry order, and the shard high-water marks it raises.
    fn commit(&mut self, entry: CommitEntry) -> CommittedTx {
        self.note_tx(entry.tx);
        let mut writes = self.open.remove(&entry.tx).unwrap_or_default();
        // Stable: a shard's writes keep their log order.
        writes.sort_by_key(|(e, _)| self.position(&entry, *e));
        for &(shard, ts) in &entry.shards {
            let high = &mut self.shard_ts[shard as usize];
            *high = (*high).max(ts);
        }
        CommittedTx {
            tx: entry.tx,
            stamps: entry.shards,
            writes,
            shard_count: self.shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(tx: u32, entity: u32) -> WalRecord {
        WalRecord::Write {
            tx: TxId(tx),
            entity: EntityId(entity),
            value: Bytes::from(format!("{tx}:{entity}")),
        }
    }

    fn commit(tx: u32, shards: Vec<(u32, u64)>) -> WalRecord {
        WalRecord::Commit {
            entries: vec![CommitEntry {
                tx: TxId(tx),
                shards,
            }],
        }
    }

    #[test]
    fn commit_groups_writes_by_shard_in_entry_order() {
        let mut fold = LogFold::new(2);
        for (lsn, entity) in [3u32, 0, 1, 2].into_iter().enumerate() {
            fold.fold(lsn as u64, write(1, entity)).unwrap();
        }
        let Folded::Commit(txs) = fold.fold(4, commit(1, vec![(0, 7), (1, 5)])).unwrap() else {
            panic!("a commit record folds to a commit");
        };
        let groups: Vec<(usize, u64, Vec<EntityId>)> = txs[0]
            .shards()
            .map(|(shard, ts, writes)| (shard, ts, writes.iter().map(|(e, _)| *e).collect()))
            .collect();
        assert_eq!(
            groups,
            vec![
                (0, 7, vec![EntityId(0), EntityId(2)]),
                (1, 5, vec![EntityId(3), EntityId(1)]),
            ]
        );
        assert_eq!(fold.safe_ts(), &[7, 5]);
        assert_eq!(fold.safe_lsn(), 5);
        assert_eq!(fold.next_tx(), 2);
    }

    #[test]
    fn a_commit_from_another_shard_count_is_refused_without_effect() {
        // Written under 2 shards: entity 2 lives on shard 0.  Under 3 it
        // lives on shard 2, which the entry does not name.
        let mut fold = LogFold::new(3);
        fold.fold(0, write(1, 2)).unwrap();
        let err = fold.fold(1, commit(1, vec![(0, 1)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fold.unfinished_writers().collect::<Vec<_>>(), vec![TxId(1)]);
        let err = fold.fold(1, commit(1, vec![(2, 1), (3, 1)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "shard 3 of 3");
        assert_eq!(fold.safe_ts(), &[0, 0, 0]);
        // The matching count folds the same record.
        let mut fold = LogFold::new(2);
        fold.fold(0, write(1, 2)).unwrap();
        assert!(matches!(
            fold.fold(1, commit(1, vec![(0, 1)])).unwrap(),
            Folded::Commit(_)
        ));
    }
}
