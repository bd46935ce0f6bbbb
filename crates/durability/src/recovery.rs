//! Crash recovery: checkpoint + log tail → committed store state and the
//! durable admission history.
//!
//! [`recover`] rebuilds two things from a log directory:
//!
//! 1. **Data** — per-shard committed version chains and commit counters,
//!    starting from the newest valid checkpoint and replaying commit
//!    records with `lsn >= replay_from_lsn`.  Only a commit record
//!    applies data: a transaction with write records but no commit record
//!    (in flight at the crash, or its commit record torn off the tail)
//!    contributes nothing — exactly the *avoids cascading aborts* (ACA)
//!    discipline carried across the crash, since no committed transaction
//!    ever depended on such a loser's data.
//! 2. **History** — the admitted step sequence (read/write records, in
//!    ruling order) and the committed transaction set, across the whole
//!    log.  The committed projection of that sequence is the object the
//!    offline `mvcc-classify` checkers certify; recovery realizes a
//!    committed projection of a *prefix* of the certified history (the
//!    valid log prefix), and the certifier classes are closed under both
//!    prefixes and committed projection, so the recovered history is
//!    still in the class the certifier promised.  Segments are retained
//!    after checkpoints for exactly this reason: checkpoints bound *data*
//!    replay, while the history remains classifiable from the log alone.
//!
//! Both come out of one [`LogFold`] over the scanned records — the same
//! fold a replica runs on open and on every shipping poll; `recover` only
//! writes what it yields into per-shard chains and the history.
//!
//! Torn or corrupt tail records are detected by CRC ([`crate::wal::scan_log`],
//! over the segment walk the tailer shares) and everything from the first
//! bad byte on is ignored; [`crate::wal::WalWriter::open`] physically
//! truncates the same prefix before the engine resumes appending.  A log
//! with an LSN gap is no prefix: recovery refuses it.

use crate::checkpoint::{latest_checkpoint, CommittedVersion, ShardCheckpoint};
use crate::fold::{Folded, LogFold};
use crate::wal::scan_log;
use bytes::Bytes;
use mvcc_core::{EntityId, Schedule, Step, TxId};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the recovering engine must know about the topology the log was
/// written under.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Number of store shards (entities are owned by `entity % shards`).
    pub shards: usize,
    /// Number of pre-created entities.
    pub entities: usize,
    /// The pre-seed value of every entity (`T0`'s write).
    pub initial: Bytes,
}

/// The rebuilt state of one shard: exactly a checkpointed shard, with
/// the commit counter raised to every replayed commit timestamp and the
/// chains sorted by commit timestamp.
pub type RecoveredShard = ShardCheckpoint;

/// Bookkeeping of one recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: Option<u64>,
    /// Valid log records scanned.
    pub records_scanned: u64,
    /// Commit records whose data was (re)applied after the checkpoint.
    pub commits_replayed: u64,
    /// `true` when the log ended in a torn or corrupt record that was
    /// logically truncated.
    pub truncated_tail: bool,
    /// Whole segments discarded because they followed a corruption.
    pub orphaned_segments: usize,
    /// Transactions with admitted writes but no durable commit record —
    /// discarded by recovery (the crash aborted them).
    pub discarded: Vec<TxId>,
    /// Wall-clock duration of the recovery pass.
    pub elapsed: Duration,
}

/// Everything [`recover`] rebuilds.
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// Per-shard committed state, indexed by shard.
    pub shards: Vec<RecoveredShard>,
    /// Every admitted step in the durable prefix, in ruling order
    /// (committed and discarded transactions alike).
    pub admitted: Vec<Step>,
    /// Transactions with a durable commit record.
    pub committed: BTreeSet<TxId>,
    /// The next transaction id a resumed engine may allocate.
    pub next_tx: u32,
    /// How the pass went.
    pub report: RecoveryReport,
}

impl RecoveredState {
    /// The committed projection of the durable admission history — the
    /// schedule the offline classifiers certify.
    pub fn committed_schedule(&self) -> Schedule {
        Schedule::from_steps(
            self.admitted
                .iter()
                .copied()
                .filter(|s| self.committed.contains(&s.tx))
                .collect(),
        )
    }

    /// The newest committed version of every entity, across all shards —
    /// the WAL's committed projection of the store state.
    pub fn latest_committed(&self) -> BTreeMap<EntityId, CommittedVersion> {
        let mut latest = BTreeMap::new();
        for shard in &self.shards {
            for (entity, versions) in &shard.chains {
                if let Some(version) = versions.last() {
                    latest.insert(*entity, version.clone());
                }
            }
        }
        latest
    }
}

/// Rebuilds committed state and the durable history from the log under
/// `dir`.  An empty or absent directory recovers to the fresh-engine
/// state (all entities at `opts.initial`, nothing committed).  A log
/// written under another shard count is refused (see [`crate::fold`]).
pub fn recover(dir: &Path, opts: &RecoveryOptions) -> io::Result<RecoveredState> {
    assert!(opts.shards > 0, "at least one shard");
    // lint: allow(clock) — recovery duration is reported in the RecoveryReport
    let started = Instant::now();
    let checkpoint = latest_checkpoint(dir)?;
    if let Some(ckpt) = &checkpoint {
        if ckpt.shards.len() != opts.shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint was cut with {} shards, recovery configured {}",
                    ckpt.shards.len(),
                    opts.shards
                ),
            ));
        }
    }
    let replay_from_lsn = checkpoint.as_ref().map_or(0, |c| c.replay_from_lsn);
    let checkpoint_seq = checkpoint.as_ref().map(|c| c.seq);
    let ckpt_next_tx = checkpoint.as_ref().map_or(1, |c| c.next_tx);

    // Seed the chains: from the checkpoint, or the fresh pre-seeded state.
    let mut shards: Vec<ShardState> = match checkpoint {
        Some(ckpt) => ckpt.shards.into_iter().map(ShardState::from).collect(),
        None => (0..opts.shards)
            .map(|idx| ShardState::fresh(idx, opts))
            .collect(),
    };

    let scan = scan_log(dir)?;
    let records_scanned = scan.records.len() as u64;
    let mut fold = LogFold::new(opts.shards);
    let mut admitted = Vec::new();
    let mut committed = BTreeSet::new();
    let mut discarded = BTreeSet::new();
    let mut commits_replayed = 0u64;
    for scanned in scan.records {
        let lsn = scanned.lsn;
        match fold.fold(lsn, scanned.record)? {
            Folded::Step(step) => admitted.push(step),
            Folded::Commit(txs) => {
                for committed_tx in txs {
                    committed.insert(committed_tx.tx);
                    if lsn < replay_from_lsn {
                        // Already absorbed by the checkpoint; every shard
                        // counter in the checkpoint reflects it too.
                        continue;
                    }
                    commits_replayed += 1;
                    for (shard, ts, writes) in committed_tx.shards() {
                        shards[shard].apply(committed_tx.tx, ts, writes);
                    }
                }
            }
            Folded::Discard(tx) => {
                discarded.insert(tx);
            }
            Folded::Nothing => {}
        }
    }
    // Transactions that admitted writes but never durably committed: the
    // crash (or an abort) discarded them — their versions never apply.
    discarded.extend(fold.unfinished_writers());

    let shards = shards.into_iter().map(ShardState::finish).collect();
    let report = RecoveryReport {
        checkpoint_seq,
        records_scanned,
        commits_replayed,
        truncated_tail: scan.truncated_tail,
        orphaned_segments: scan.orphaned_segments.len(),
        discarded: discarded.into_iter().collect(),
        elapsed: started.elapsed(),
    };
    Ok(RecoveredState {
        shards,
        admitted,
        committed,
        next_tx: ckpt_next_tx.max(fold.next_tx()),
        report,
    })
}

/// Mutable shard state during replay.
struct ShardState {
    commit_counter: u64,
    watermark: u64,
    chains: BTreeMap<EntityId, Vec<CommittedVersion>>,
}

impl ShardState {
    fn fresh(idx: usize, opts: &RecoveryOptions) -> Self {
        let chains = (0..opts.entities as u32)
            .map(EntityId)
            .filter(|e| e.index() % opts.shards == idx)
            .map(|e| {
                (
                    e,
                    vec![CommittedVersion {
                        writer: TxId::INITIAL,
                        commit_ts: 0,
                        value: opts.initial.clone(),
                    }],
                )
            })
            .collect();
        ShardState {
            commit_counter: 0,
            watermark: 0,
            chains,
        }
    }

    /// Applies one committed transaction's writes on this shard at commit
    /// timestamp `ts`, idempotently: a `(writer, ts)` version already
    /// present (the checkpoint absorbed it during the fuzzy overlap
    /// window) is not duplicated.
    fn apply(&mut self, writer: TxId, ts: u64, writes: &[(EntityId, Bytes)]) {
        self.commit_counter = self.commit_counter.max(ts);
        for (entity, value) in writes {
            let chain = self.chains.entry(*entity).or_default();
            if chain
                .iter()
                .any(|v| v.writer == writer && v.commit_ts == ts)
            {
                continue;
            }
            chain.push(CommittedVersion {
                writer,
                commit_ts: ts,
                value: value.clone(),
            });
        }
    }

    /// Canonicalizes into a [`RecoveredShard`]: chains sorted by commit
    /// timestamp (the unique total order of committed versions per shard).
    fn finish(self) -> RecoveredShard {
        let mut chains: Vec<(EntityId, Vec<CommittedVersion>)> = self.chains.into_iter().collect();
        for (_, versions) in &mut chains {
            versions.sort_by_key(|v| v.commit_ts);
        }
        RecoveredShard {
            commit_counter: self.commit_counter,
            watermark: self.watermark,
            chains,
        }
    }
}

impl From<ShardCheckpoint> for ShardState {
    fn from(ckpt: ShardCheckpoint) -> Self {
        ShardState {
            commit_counter: ckpt.commit_counter,
            watermark: ckpt.watermark,
            chains: ckpt.chains.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{write_checkpoint, CheckpointData};
    use crate::record::{CommitEntry, WalRecord};
    use crate::wal::{DurabilityMode, WalWriter};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mvcc-rec-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> RecoveryOptions {
        RecoveryOptions {
            shards: 2,
            entities: 4,
            initial: Bytes::from_static(b"0"),
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

    fn write(tx: u32, entity: u32, value: &[u8]) -> WalRecord {
        WalRecord::Write {
            tx: TxId(tx),
            entity: EntityId(entity),
            value: Bytes::copy_from_slice(value),
        }
    }

    #[test]
    fn empty_directory_recovers_to_the_fresh_state() {
        let dir = temp_dir("empty");
        let state = recover(&dir, &opts()).unwrap();
        assert_eq!(state.shards.len(), 2);
        assert!(state.committed.is_empty());
        assert!(state.admitted.is_empty());
        assert_eq!(state.next_tx, 1);
        // Every entity sits at its pre-seed.
        let latest = state.latest_committed();
        assert_eq!(latest.len(), 4);
        for version in latest.values() {
            assert_eq!(version.writer, TxId::INITIAL);
            assert_eq!(version.value, Bytes::from_static(b"0"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_transactions_recover_uncommitted_are_discarded() {
        let dir = temp_dir("basic");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_batch(&[
                WalRecord::Begin { tx: TxId(1) },
                write(1, 0, b"one"), // shard 0
                write(1, 1, b"uno"), // shard 1
                WalRecord::Begin { tx: TxId(2) },
                write(2, 2, b"loser"), // shard 0, never commits
            ])
            .unwrap();
            wal.append_and_flush(&[commit(1, vec![(0, 1), (1, 1)])])
                .unwrap();
        }
        let state = recover(&dir, &opts()).unwrap();
        assert_eq!(state.committed, BTreeSet::from([TxId(1)]));
        assert_eq!(state.report.discarded, vec![TxId(2)]);
        assert_eq!(state.next_tx, 3);
        let latest = state.latest_committed();
        assert_eq!(latest[&EntityId(0)].value, Bytes::from_static(b"one"));
        assert_eq!(latest[&EntityId(1)].value, Bytes::from_static(b"uno"));
        // The loser's write never applied: entity 2 is still at pre-seed.
        assert_eq!(latest[&EntityId(2)].writer, TxId::INITIAL);
        // Shard counters follow the replayed timestamps.
        assert_eq!(state.shards[0].commit_counter, 1);
        assert_eq!(state.shards[1].commit_counter, 1);
        // History: both writes of T1 and the loser's write were admitted;
        // the committed projection keeps only T1's.
        assert_eq!(state.admitted.len(), 3);
        assert_eq!(state.committed_schedule().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_commits_are_not_resurrected() {
        let dir = temp_dir("torn");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write(1, 0, b"durable"), commit(1, vec![(0, 1)])])
                .unwrap();
            wal.append_and_flush(&[write(2, 0, b"torn"), commit(2, vec![(0, 2)])])
                .unwrap();
        }
        // Tear the last commit record off the tail.
        let (_, path) = crate::wal::list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let state = recover(&dir, &opts()).unwrap();
        assert!(state.report.truncated_tail);
        assert_eq!(state.committed, BTreeSet::from([TxId(1)]));
        assert_eq!(
            state.latest_committed()[&EntityId(0)].value,
            Bytes::from_static(b"durable")
        );
        assert_eq!(state.report.discarded, vec![TxId(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_with_an_lsn_gap_is_refused_not_recovered() {
        // Six commits over 64-byte segments, then the middle segment
        // vanishes.  The commits after it were acknowledged, so what is
        // left is not a prefix of the log: recovery and both writer opens
        // (which would append past the gap) refuse it, and every
        // surviving segment stays as it was.
        let dir = temp_dir("gap");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 64).unwrap();
            for tx in 1..=6u32 {
                wal.append_and_flush(&[write(tx, 0, b"acked"), commit(tx, vec![(0, tx.into())])])
                    .unwrap();
            }
        }
        let segments = crate::wal::list_segments(&dir).unwrap();
        assert!(segments.len() >= 5, "need a middle segment");
        std::fs::remove_file(&segments[segments.len() / 2].1).unwrap();
        let on_disk = || {
            crate::wal::list_segments(&dir)
                .unwrap()
                .into_iter()
                .map(|(seq, path)| (seq, std::fs::read(path).unwrap()))
                .collect::<Vec<_>>()
        };
        let before = on_disk();
        let refusals = [
            recover(&dir, &opts()).map(drop),
            WalWriter::open(&dir, DurabilityMode::Buffered, 64).map(drop),
            WalWriter::promote_open(&dir, DurabilityMode::Buffered, 64).map(drop),
        ];
        for refusal in refusals {
            let err = refusal.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("LSN gap"), "{err}");
        }
        assert_eq!(on_disk(), before, "a refused log is left untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_data_replay_but_history_spans_the_log() {
        let dir = temp_dir("ckpt");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write(1, 0, b"pre"), commit(1, vec![(0, 1)])])
            .unwrap();
        // Cut a checkpoint reflecting T1 (replay resumes after its commit).
        let ckpt = CheckpointData {
            seq: 1,
            replay_from_lsn: wal.last_lsn().unwrap() + 1,
            next_tx: 2,
            shards: vec![
                ShardCheckpoint {
                    commit_counter: 1,
                    watermark: 1,
                    chains: vec![(
                        EntityId(0),
                        vec![CommittedVersion {
                            writer: TxId(1),
                            commit_ts: 1,
                            value: Bytes::from_static(b"pre"),
                        }],
                    )],
                },
                ShardCheckpoint {
                    commit_counter: 0,
                    watermark: 0,
                    chains: vec![(
                        EntityId(1),
                        vec![CommittedVersion {
                            writer: TxId::INITIAL,
                            commit_ts: 0,
                            value: Bytes::from_static(b"0"),
                        }],
                    )],
                },
            ],
        };
        write_checkpoint(&dir, &ckpt).unwrap();
        wal.append_and_flush(&[write(2, 0, b"post"), commit(2, vec![(0, 2)])])
            .unwrap();
        let state = recover(&dir, &opts()).unwrap();
        assert_eq!(state.report.checkpoint_seq, Some(1));
        // Only T2's commit replayed as data...
        assert_eq!(state.report.commits_replayed, 1);
        // ...but the committed history spans both epochs.
        assert_eq!(state.committed, BTreeSet::from([TxId(1), TxId(2)]));
        assert_eq!(state.committed_schedule().len(), 2);
        let chain: &Vec<CommittedVersion> = state.shards[0]
            .chains
            .iter()
            .find(|(e, _)| *e == EntityId(0))
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(chain.len(), 2, "checkpointed + replayed versions");
        assert_eq!(chain[1].value, Bytes::from_static(b"post"));
        assert_eq!(state.shards[0].commit_counter, 2);
        assert_eq!(state.shards[0].watermark, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzzy_checkpoint_overlap_is_idempotent() {
        // The checkpoint already contains T1's version, but T1's commit
        // record lies at or after replay_from_lsn (the fuzzy window):
        // replay must not duplicate the version.
        let dir = temp_dir("fuzzy");
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[write(1, 0, b"v"), commit(1, vec![(0, 1)])])
            .unwrap();
        let ckpt = CheckpointData {
            seq: 1,
            replay_from_lsn: 0, // conservative: replay everything
            next_tx: 2,
            shards: vec![
                ShardCheckpoint {
                    commit_counter: 1,
                    watermark: 0,
                    chains: vec![(
                        EntityId(0),
                        vec![CommittedVersion {
                            writer: TxId(1),
                            commit_ts: 1,
                            value: Bytes::from_static(b"v"),
                        }],
                    )],
                },
                ShardCheckpoint::default(),
            ],
        };
        write_checkpoint(&dir, &ckpt).unwrap();
        let state = recover(&dir, &opts()).unwrap();
        let chain: &Vec<CommittedVersion> = state.shards[0]
            .chains
            .iter()
            .find(|(e, _)| *e == EntityId(0))
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(chain.len(), 1, "no duplicate from the overlap window");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        let dir = temp_dir("mismatch");
        write_checkpoint(
            &dir,
            &CheckpointData {
                seq: 1,
                replay_from_lsn: 0,
                next_tx: 1,
                shards: vec![ShardCheckpoint::default()],
            },
        )
        .unwrap();
        let err = recover(&dir, &opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_from_another_shard_count_is_refused() {
        // Written under 2 shards: T1's write of entity 2 lives on shard 0
        // and its commit names only shard 0.  Recovered with 3 shards the
        // write would belong to shard 2, which the commit does not name;
        // skipping it would report T1 committed with its write lost.
        let dir = temp_dir("shard-count");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_and_flush(&[write(1, 2, b"two"), commit(1, vec![(0, 1)])])
                .unwrap();
        }
        let three = RecoveryOptions {
            shards: 3,
            ..opts()
        };
        let err = recover(&dir, &three).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let state = recover(&dir, &opts()).unwrap();
        assert_eq!(state.committed, BTreeSet::from([TxId(1)]));
        let latest = state.latest_committed();
        assert_eq!(latest[&EntityId(2)].writer, TxId(1));
        assert_eq!(latest[&EntityId(2)].value, Bytes::from_static(b"two"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_chains_are_sorted_by_commit_timestamp() {
        // Two writers of the same entity committing in "inverted" order
        // (possible under SGT-style certifiers: chain-append order need
        // not match commit order) recover into timestamp order, so the
        // newest committed value is the max-timestamp one.
        let dir = temp_dir("sorted");
        {
            let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
            wal.append_batch(&[
                write(1, 0, b"first-admitted"),
                write(2, 0, b"second-admitted"),
            ])
            .unwrap();
            // T2 commits first (ts 1), then T1 (ts 2).
            wal.append_and_flush(&[commit(2, vec![(0, 1)]), commit(1, vec![(0, 2)])])
                .unwrap();
        }
        let state = recover(&dir, &opts()).unwrap();
        let latest = state.latest_committed();
        assert_eq!(latest[&EntityId(0)].writer, TxId(1));
        assert_eq!(latest[&EntityId(0)].commit_ts, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
