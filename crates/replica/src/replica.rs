//! The replica proper: apply-only ingestion of the shipped log into a
//! local sharded store, the apply watermark, pinned read sessions, local
//! checkpoints and restart/resume.
//!
//! A replica never runs a certifier and never invents state: replication
//! is recovery that keeps going.  The shipped records go through the same
//! [`LogFold`] crash recovery runs, on open (re-seeding from the prefix a
//! local checkpoint absorbed) and on every poll; the only record kind that
//! moves data is a commit record — write records park in the fold until
//! their commit arrives (or an abort / the end of the stream discards
//! them), so no follower read can ever observe uncommitted data.  This is
//! *avoids cascading aborts* carried across the wire, the same argument
//! that makes crash recovery class-preserving.
//!
//! Commit records apply with the **primary's** per-shard commit
//! timestamps ([`mvcc_store::MvStore::apply_committed`]), so snapshot
//! visibility on the replica reproduces the primary's exactly; a commit
//! record's multi-shard entries apply under the replica's apply lock,
//! atomically with respect to read pinning, so a pinned session can
//! never see a cross-shard commit half-applied (no fractured follower
//! reads).
//!
//! The **apply watermark** is the next LSN the replica will apply — it
//! advances monotonically after each record's effects land, and is the
//! single number the router compares against the primary's durable
//! horizon for staleness bounds and wait-for-LSN.

use crate::history::ReplicaHistory;
use bytes::Bytes;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_core::{EntityId, Step, TxId};
use mvcc_durability::{
    latest_checkpoint, read_tail, write_checkpoint, CheckpointData, Folded, LogFold, ScannedRecord,
    WalCursor,
};
use mvcc_engine::{
    CertifierKind, Engine, EngineConfig, EngineMetrics, RecoveryReport, ShardedStore,
};
use mvcc_store::{gc, StoreError, TxHandle};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// First transaction id of the replica's read-only id space: far above
/// anything a primary allocates in these workloads, far below the
/// [`TxId::INITIAL`]/[`TxId::FINAL`] padding ids, so combined schedules
/// never collide.
pub(crate) const READER_TX_BASE: u32 = 0x4000_0000;

/// Replica construction parameters.  Topology (`shards`, `entities`,
/// `initial`) must match the primary's — the log carries entity ids, not
/// the hash layout.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Number of store shards (must equal the primary's).
    pub shards: usize,
    /// Number of pre-created entities (must equal the primary's).
    pub entities: usize,
    /// Initial version payload of every entity (must equal the primary's).
    pub initial: Bytes,
    /// Record the replica history (required to classify combined
    /// histories offline; turn off for long soak runs).
    pub record_history: bool,
    /// Directory for the replica's *local* checkpoints (its resume
    /// state).  `None` disables checkpointing; restart then re-ships the
    /// whole log.
    pub checkpoint_dir: Option<PathBuf>,
    /// Metrics sink — pass the primary engine's
    /// [`mvcc_engine::Engine::metrics_handle`] so shipping/apply counters
    /// land in the same `Display` block as the durability metrics.
    pub metrics: Option<Arc<EngineMetrics>>,
}

impl ReplicaConfig {
    /// A config mirroring the given topology, history recording on, no
    /// checkpoint dir, no metrics sink.
    pub fn new(shards: usize, entities: usize, initial: Bytes) -> Self {
        ReplicaConfig {
            shards,
            entities,
            initial,
            record_history: true,
            checkpoint_dir: None,
            metrics: None,
        }
    }
}

/// The outcome of one [`Replica::ship_once`] poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipReceipt {
    /// Records shipped and applied by this poll.
    pub records: usize,
    /// Commit records among them (the ones that moved data).
    pub commits: usize,
    /// `true` when the poll drained everything currently readable (park
    /// until the primary appends more).
    pub caught_up: bool,
}

/// Apply-side state guarded by the replica's one apply lock.
struct ApplyState {
    cursor: WalCursor,
    /// The shipped prefix folded into its committed projection: pending
    /// write sets, per-shard commit groups and the **transaction-
    /// consistent safe point** — a position no transaction straddles
    /// (every transaction with a step below it also committed or aborted
    /// below it).  Follower reads pin there: a commit-prefix snapshot
    /// taken *between* a transaction's steps and its commit record is not
    /// serialization-consistent under non-strict certifiers (commit order
    /// can invert a dependency), and a reader wedged there could make the
    /// combined history leave the certified class.  Safe points are
    /// exactly the cuts closed under every conflict edge, the
    /// replica-side analogue of recovery's "discard all in-flight
    /// transactions".
    fold: LogFold,
    /// Commits below this LSN are already in the stores (the local
    /// checkpoint the replica resumed from absorbed them): they only
    /// re-seed the history.
    data_from: u64,
}

/// A log-shipping read replica (see the module docs).
pub struct Replica {
    /// The primary's WAL directory this replica tails.
    wal_dir: PathBuf,
    config: ReplicaConfig,
    shards: ShardedStore,
    state: TrackedMutex<ApplyState>,
    history: ReplicaHistory,
    /// Next LSN to apply — the apply watermark (monotone).
    watermark: AtomicU64,
    /// Mirror of the apply state's safe point (lock-free router checks).
    safe_watermark: AtomicU64,
    /// When the watermark last advanced (or was last confirmed in sync).
    last_advance: TrackedMutex<Instant>,
    next_reader: AtomicU32,
    checkpoint_seq: AtomicU64,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("wal_dir", &self.wal_dir)
            .field("watermark", &self.watermark.load(Ordering::Relaxed))
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Opens a replica over the primary's WAL directory: fresh if the
    /// local checkpoint directory is unset or empty, otherwise **resumed**
    /// — stores rebuilt from the newest local checkpoint, the history
    /// re-seeded from the log prefix the checkpoint absorbed (checkpoints
    /// bound *data* re-application; the history always spans the log,
    /// same rule as crash recovery), and the cursor positioned at the
    /// checkpoint's `replay_from_lsn`.
    pub fn open(config: ReplicaConfig, wal_dir: impl Into<PathBuf>) -> io::Result<Self> {
        assert!(config.shards > 0, "at least one shard");
        let wal_dir = wal_dir.into();
        let checkpoint = match &config.checkpoint_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                latest_checkpoint(dir)?
            }
            None => None,
        };
        let (shards, resume_lsn, checkpoint_seq) = match checkpoint {
            Some(ckpt) => {
                if ckpt.shards.len() != config.shards {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "replica checkpoint has {} shards, config says {}",
                            ckpt.shards.len(),
                            config.shards
                        ),
                    ));
                }
                (
                    ShardedStore::from_recovered(&ckpt.shards),
                    ckpt.replay_from_lsn,
                    ckpt.seq,
                )
            }
            None => (
                ShardedStore::new(config.shards, config.entities, config.initial.clone()),
                0,
                0,
            ),
        };
        let state = ApplyState {
            // Starts at the origin; the seed loop below walks it forward
            // to exactly `resume_lsn`.
            cursor: WalCursor::origin(),
            fold: LogFold::new(config.shards),
            data_from: resume_lsn,
        };
        // Intentional nesting, declared so the lock-order checker documents
        // it instead of flagging it: `begin_read` pins every shard's safe
        // snapshot (`MvStore::begin_at` takes `store.txs`) while holding the
        // apply lock.  Read pinning and log apply are mutually exclusive by
        // design — a pinned reader can never observe a half-applied shipping
        // batch — so the apply-lock-outside-store-lock direction is the
        // sanctioned one.  `ship_once` nests the same way when it applies a
        // batch (`MvStore::apply_committed` takes `store.chains` then
        // `store.txs`).
        mvcc_analysis::lockdep::declare_order(
            "replica.apply",
            "store.txs",
            "read pinning and log apply are mutually exclusive: begin_read pins \
             per-shard safe snapshots under the apply lock so a reader never \
             observes a half-applied shipping batch",
        );
        mvcc_analysis::lockdep::declare_order(
            "replica.apply",
            "store.chains",
            "ship_once installs a batch's versions into shard chains while \
             holding the apply lock; the batch is invisible to readers until \
             the lock is released",
        );
        let replica = Replica {
            wal_dir,
            history: ReplicaHistory::new(config.record_history),
            config,
            shards,
            state: TrackedMutex::new(lock_class!("replica.apply"), state),
            watermark: AtomicU64::new(0),
            safe_watermark: AtomicU64::new(0),
            // lint: allow(clock) — staleness clock: replica tracks its last apply advance
            last_advance: TrackedMutex::new(lock_class!("replica.staleness-clock"), Instant::now()),
            next_reader: AtomicU32::new(READER_TX_BASE),
            checkpoint_seq: AtomicU64::new(checkpoint_seq),
        };
        // Re-seed history, the pending writes and the safe point from the
        // already-absorbed prefix — the same fold shipping runs, with the
        // data skipped — streamed through the windowed tail reader
        // (decoding the whole log into memory at once would spike
        // O(total log) on every restart — segments are retained forever
        // by design).  Capping each poll's record count at the remaining
        // distance keeps the cursor from ever consuming past
        // `resume_lsn`, so the final cursor is byte-exactly positioned
        // where the tailer resumes.
        {
            let mut state = replica.state.lock();
            while state.cursor.next_lsn() < resume_lsn {
                let want = (resume_lsn - state.cursor.next_lsn()).min(512) as usize;
                let batch = read_tail(&replica.wal_dir, &mut state.cursor, want)?;
                if batch.records.is_empty() && batch.caught_up {
                    // The surviving log is shorter than the checkpoint's
                    // cursor (it should not be — segments are retained);
                    // the tailer will park at this point and resume if
                    // the records ever reappear.
                    break;
                }
                for rec in batch.records {
                    debug_assert!(rec.lsn < resume_lsn, "seed overshot the checkpoint");
                    replica.apply(&mut state, rec)?;
                }
            }
        }
        replica.watermark.store(resume_lsn, Ordering::Release);
        Ok(replica)
    }

    /// Folds one shipped record and applies what it contributes: steps
    /// and commits into the history, commits at or past `data_from` into
    /// the stores (with the primary's per-shard commit timestamps), then
    /// publishes the watermark and the safe point.  Returns whether the
    /// record was a commit record.
    fn apply(&self, state: &mut ApplyState, rec: ScannedRecord) -> io::Result<bool> {
        let lsn = rec.lsn;
        let folded = state.fold.fold(lsn, rec.record)?;
        let commit = matches!(folded, Folded::Commit(_));
        match folded {
            Folded::Step(step) => self.history.record_shipped(lsn, step),
            Folded::Commit(txs) => {
                for committed in txs {
                    if lsn >= state.data_from {
                        for (shard, ts, writes) in committed.shards() {
                            self.shards
                                .store(shard)
                                .apply_committed(committed.tx, ts, writes);
                        }
                    }
                    self.history.record_committed(committed.tx);
                }
            }
            Folded::Discard(_) | Folded::Nothing => {}
        }
        // Publish after the record's effects are fully in the stores.
        self.watermark.store(lsn + 1, Ordering::Release);
        self.safe_watermark
            .store(state.fold.safe_lsn(), Ordering::Release);
        Ok(commit)
    }

    /// The apply watermark: the next LSN this replica will apply — every
    /// record with a smaller LSN has fully landed in the stores.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// The newest **transaction-consistent safe point**: the highest
    /// applied watermark at which no transaction straddled the log.
    /// Follower reads pin here (see [`Replica::begin_read`]); the router
    /// holds staleness policies against this value, since it is the
    /// freshest snapshot the replica can serve without risking a
    /// non-serializable merge.  Trails [`Replica::watermark`] by however
    /// long the oldest in-flight primary transaction has been open.
    pub(crate) fn safe_watermark(&self) -> u64 {
        self.safe_watermark.load(Ordering::Acquire)
    }

    /// Wall-clock time since the watermark last advanced or was last
    /// confirmed in sync — the replica's apply staleness.
    pub fn staleness(&self) -> std::time::Duration {
        self.last_advance.lock().elapsed()
    }

    /// The replica's history (shipped + served readers).
    pub fn history(&self) -> &ReplicaHistory {
        &self.history
    }

    /// The replica's sharded store (observability and tests).
    pub fn shards(&self) -> &ShardedStore {
        &self.shards
    }

    /// The WAL directory this replica tails.
    pub fn wal_dir(&self) -> &std::path::Path {
        &self.wal_dir
    }

    /// Promotes this replica to primary over the log it has been tailing
    /// — the failover step the [`crate::LeaderDriver`] runs after
    /// electing the replica with the longest absorbed prefix.
    ///
    /// The sequence: (1) finish absorbing the reachable log prefix
    /// (one last [`Replica::catch_up`] — anything readable now is part
    /// of the history being taken over); (2)
    /// [`Engine::promote_recover`] over the shared WAL directory, which
    /// fences the old primary's epoch (its late appends and flushes are
    /// refused by the log from the marker write onward), heals stale
    /// residue past the promotion cut, recovers the committed prefix
    /// under ACA, re-seeds fresh certifier lanes with the recovered
    /// committed set, and opens a fresh segment lineage under the bumped
    /// epoch.  `config.durability.dir` is overridden with the replica's
    /// WAL directory — promotion takes over *this* log, wherever the
    /// caller's template pointed.
    ///
    /// The returned engine is the new primary; the replica object itself
    /// is consumed conceptually (its cursor would next observe its own
    /// engine's appends) and should be dropped by the caller.
    pub fn promote(
        &self,
        kind: CertifierKind,
        mut config: EngineConfig,
    ) -> io::Result<(Arc<Engine>, RecoveryReport)> {
        assert!(
            config.durability.is_on(),
            "Replica::promote needs a durable EngineConfig template: the promoted \
             primary keeps writing the shared log (the mode and segment size are \
             taken from the template)"
        );
        self.catch_up()?;
        config.durability.dir = self.wal_dir.clone();
        config.shards = self.config.shards;
        config.entities = self.config.entities;
        config.initial = self.config.initial.clone();
        Engine::promote_recover(kind, config)
    }

    /// Polls the primary's log once: reads at most `max_records` whole
    /// CRC-valid records past the cursor and applies them.  Cold tails
    /// (torn record, unwritten segment, empty directory) return
    /// `caught_up` without error — the shipper parks and re-polls.
    ///
    /// Reading and applying hold the replica's apply lock, so read
    /// pinning is mutually exclusive with a batch's application (bounded
    /// by `max_records`).
    pub fn ship_once(&self, max_records: usize) -> io::Result<ShipReceipt> {
        let mut state = self.state.lock();
        let mut cursor = state.cursor;
        let batch = read_tail(&self.wal_dir, &mut cursor, max_records)?;
        let records = batch.records.len();
        // Shipped→applied lag: from the moment the batch left the log to
        // its last record's effects published (telemetry on, else None).
        let mut apply_clock = None;
        if let Some(metrics) = &self.config.metrics {
            if records > 0 {
                metrics.record_repl_shipped(records);
                apply_clock = metrics.stage_clock();
            }
        }
        let mut commits = 0usize;
        for rec in batch.records {
            let lsn = rec.lsn;
            match self.apply(&mut state, rec) {
                Ok(commit) => commits += usize::from(commit),
                Err(e) => {
                    // The fold refused this record (a log from another
                    // topology): park on it, so every later poll fails
                    // here again instead of skipping it.
                    state.cursor = WalCursor::from_lsn(lsn);
                    return Err(e);
                }
            }
        }
        state.cursor = cursor;
        drop(state);
        if records > 0 || batch.caught_up {
            // lint: allow(clock) — staleness clock: replica tracks its last apply advance
            *self.last_advance.lock() = Instant::now();
        }
        if let Some(metrics) = &self.config.metrics {
            if records > 0 {
                metrics.record_repl_applied(records, commits);
                metrics.record_stage_since(mvcc_telemetry::Stage::ReplicaApply, apply_clock);
            }
        }
        Ok(ShipReceipt {
            records,
            commits,
            caught_up: batch.caught_up,
        })
    }

    /// Ships until the readable log is drained (test and catch-up
    /// convenience; the background [`crate::LogShipper`] polls instead).
    pub fn catch_up(&self) -> io::Result<ShipReceipt> {
        let mut total = ShipReceipt {
            records: 0,
            commits: 0,
            caught_up: false,
        };
        loop {
            let receipt = self.ship_once(512)?;
            total.records += receipt.records;
            total.commits += receipt.commits;
            if receipt.caught_up {
                total.caught_up = true;
                return Ok(total);
            }
        }
    }

    /// Opens a read-only session pinned at the newest
    /// **transaction-consistent safe point** (`Replica::safe_watermark`):
    /// a committed snapshot, consistent across every shard (pinning holds
    /// the apply lock, so no cross-shard commit can be half-visible),
    /// taken at a cut no in-flight transaction straddles.
    ///
    /// The safe point — not the raw apply watermark — is what makes the
    /// read mergeable into the certified history: a snapshot wedged
    /// between a transaction's shipped steps and its commit record can
    /// carry an anti-dependency back into the snapshot (commit order is
    /// not serialization order under SGT/TSO/MVTO), and the combined
    /// history would leave the class.  At a safe cut every committed
    /// transaction is entirely before or entirely after the snapshot, so
    /// the reader serializes right there (the regression test
    /// `wedged_reader_between_inverted_commits_stays_serializable` pins
    /// the exact interleaving).
    pub fn begin_read(self: &Arc<Self>) -> ReplicaReadSession {
        let tx = TxId(self.next_reader.fetch_add(1, Ordering::Relaxed));
        // How long pinning the safe point took (sampled through the stage
        // clock, telemetry on only).
        let pin_clock = self.config.metrics.as_ref().and_then(|m| m.stage_clock());
        let state = self.state.lock();
        let pinned = state.fold.safe_lsn();
        for (store, &ts) in self.shards.iter().zip(state.fold.safe_ts()) {
            store
                .begin_at(tx, ts)
                // lint: allow(unwrap) — documented panic: begin_read requires distinct reader ids
                .expect("replica reader ids are unique per replica");
        }
        drop(state);
        if let Some(metrics) = &self.config.metrics {
            metrics.record_stage_since(mvcc_telemetry::Stage::FollowerReadPin, pin_clock);
        }
        ReplicaReadSession {
            replica: Arc::clone(self),
            tx,
            pinned,
            steps: Vec::new(),
            finished: false,
        }
    }

    /// One GC pass over every shard under its active-snapshot watermark,
    /// additionally capped at the safe point's timestamps — the next
    /// pinned reader begins *at* the safe point, so its versions must
    /// survive even while no reader is active.
    pub fn collect_garbage(&self) -> usize {
        let safe_ts = self.state.lock().fold.safe_ts().to_vec();
        let mut reclaimed = 0;
        for (store, ts) in self.shards.iter().zip(safe_ts) {
            let watermark = gc::watermark(store).min(ts);
            reclaimed += gc::collect_with_watermark(store, watermark).reclaimed;
        }
        reclaimed
    }

    /// Cuts a local checkpoint of the applied committed state, bounding
    /// what a restarted replica must re-ship.  The cut holds the apply
    /// lock, so it is exact: `replay_from_lsn` is the watermark and the
    /// chains contain precisely the commits below it.  Returns the new
    /// checkpoint's sequence number.
    ///
    /// Panics if the replica was opened without a checkpoint directory.
    pub fn checkpoint(&self) -> io::Result<u64> {
        let dir = self
            .config
            .checkpoint_dir
            .as_ref()
            // lint: allow(unwrap) — documented panic: checkpoint() requires a checkpoint_dir
            .expect("replica checkpoint requires a checkpoint_dir");
        let state = self.state.lock();
        let replay_from_lsn = self.watermark();
        let shards = self.shards.checkpoint();
        drop(state);
        let seq = self.checkpoint_seq.fetch_add(1, Ordering::Relaxed) + 1;
        write_checkpoint(
            dir,
            &CheckpointData {
                seq,
                replay_from_lsn,
                next_tx: 1,
                shards,
            },
        )?;
        Ok(seq)
    }
}

/// A read-only session pinned at a replica's apply watermark.  Reads are
/// snapshot reads against the pinned point; [`ReplicaReadSession::finish`]
/// records the transaction into the replica's history (spliced at the
/// snapshot position).  Dropping without finishing discards the reads —
/// an abandoned read-only transaction contributes nothing to any history.
#[derive(Debug)]
pub struct ReplicaReadSession {
    replica: Arc<Replica>,
    tx: TxId,
    /// The apply watermark at pin time.
    pinned: u64,
    steps: Vec<Step>,
    finished: bool,
}

impl ReplicaReadSession {
    /// The session's transaction id (replica reader id space).
    pub fn id(&self) -> TxId {
        self.tx
    }

    /// The apply watermark the session is pinned at: it observes exactly
    /// the commits applied below this LSN.
    pub fn snapshot_lsn(&self) -> u64 {
        self.pinned
    }

    /// Reads `entity` at the pinned snapshot.
    pub fn read(&mut self, entity: EntityId) -> Result<Bytes, StoreError> {
        let store = self.replica.shards.store_for(entity);
        let value = store.read_snapshot(TxHandle { id: self.tx }, entity)?;
        self.steps.push(Step::read(self.tx, entity));
        Ok(value)
    }

    /// Finishes the session: the reads are recorded into the replica's
    /// history at the snapshot position and the pinned snapshot released.
    pub fn finish(mut self) {
        self.release(true);
    }

    fn release(&mut self, record: bool) {
        if self.finished {
            return;
        }
        self.finished = true;
        for store in self.replica.shards.iter() {
            let _ = store.abort(TxHandle { id: self.tx });
        }
        if record {
            self.replica.history.record_reader(
                self.tx,
                self.pinned,
                std::mem::take(&mut self.steps),
            );
        }
    }
}

impl Drop for ReplicaReadSession {
    fn drop(&mut self) {
        self.release(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_durability::{
        recover, CommitEntry, CommittedVersion, DurabilityConfig, DurabilityMode, RecoveryOptions,
        ShardCheckpoint, WalRecord, WalWriter,
    };
    use mvcc_engine::{CertifierKind, Engine, EngineConfig};
    use std::collections::BTreeMap;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mvcc-replica-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1); // different shard from X

    fn primary(dir: &std::path::Path) -> Arc<Engine> {
        Arc::new(Engine::new(
            CertifierKind::Sgt,
            EngineConfig {
                shards: 2,
                entities: 8,
                durability: DurabilityConfig::buffered(dir),
                ..EngineConfig::default()
            },
        ))
    }

    fn replica_config() -> ReplicaConfig {
        ReplicaConfig::new(2, 8, Bytes::from_static(b"0"))
    }

    #[test]
    fn replica_applies_committed_state_and_serves_snapshot_reads() {
        let dir = temp_dir("apply");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"x1")).unwrap();
        s.write(Y, Bytes::from_static(b"y1")).unwrap();
        s.commit().unwrap();
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        let receipt = replica.catch_up().unwrap();
        assert!(receipt.records >= 3, "begin rides with steps + commit");
        assert_eq!(receipt.commits, 1);
        assert!(receipt.caught_up);
        assert_eq!(replica.watermark(), engine.durable_lsn().unwrap() + 1);
        // A pinned read sees the committed snapshot across both shards.
        let mut read = replica.begin_read();
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"x1"));
        assert_eq!(read.read(Y).unwrap(), Bytes::from_static(b"y1"));
        read.finish();
        assert_eq!(replica.history().readers_recorded(), 1);
        // Per-shard timestamps mirror the primary's.
        assert_eq!(
            replica
                .shards
                .iter()
                .map(|s| s.current_ts())
                .collect::<Vec<_>>(),
            engine
                .shards()
                .iter()
                .map(|s| s.current_ts())
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_writes_never_reach_follower_reads() {
        // ACA across the wire: write records of an in-flight transaction
        // ship (a later commit's flush pushes them out), but no data
        // moves until its commit record arrives — and the *safe point*
        // parks below the straddler's begin, so follower reads cannot
        // even be pinned inside its window.
        let dir = temp_dir("aca");
        let engine = primary(&dir);
        let mut before = engine.begin();
        before.write(Y, Bytes::from_static(b"before")).unwrap();
        before.commit().unwrap();
        let mut in_flight = engine.begin();
        in_flight.write(X, Bytes::from_static(b"dirty")).unwrap();
        let mut s = engine.begin();
        s.write(Y, Bytes::from_static(b"during")).unwrap();
        s.commit().unwrap();
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        replica.catch_up().unwrap();
        // The apply watermark covers everything shipped, but the safe
        // point stops before the straddler began.
        assert!(replica.safe_watermark() < replica.watermark());
        let mut read = replica.begin_read();
        assert_eq!(
            read.read(X).unwrap(),
            Bytes::from_static(b"0"),
            "the in-flight write must be invisible"
        );
        assert_eq!(
            read.read(Y).unwrap(),
            Bytes::from_static(b"before"),
            "the snapshot parks at the pre-straddler safe point"
        );
        read.finish();
        // Once the straddler commits and the replica re-ships, the safe
        // point catches the watermark and everything is visible.
        in_flight.commit().unwrap();
        replica.catch_up().unwrap();
        assert_eq!(replica.safe_watermark(), replica.watermark());
        let mut read = replica.begin_read();
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"dirty"));
        assert_eq!(read.read(Y).unwrap(), Bytes::from_static(b"during"));
        read.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wedged_reader_between_inverted_commits_stays_serializable() {
        // The safe-point regression: under SGT, T_b reads x, then T_a
        // writes x (edge T_b → T_a in the serialization graph) and
        // commits FIRST; T_b later writes y and commits.  A follower
        // read pinned between the two commit records would observe T_a's
        // x and the pre-T_b y — a snapshot no serial order explains
        // (T_a → R via x, R → T_b via y, T_b → T_a via x: a cycle), so
        // the combined history would leave CSR.  Safe-point pinning
        // parks the reader before T_b began instead.
        let dir = temp_dir("wedge");
        let engine = primary(&dir);
        let mut tb = engine.begin();
        assert_eq!(tb.read(X).unwrap(), Bytes::from_static(b"0"));
        let mut ta = engine.begin();
        ta.write(X, Bytes::from_static(b"a")).unwrap();
        ta.commit().unwrap();
        // Everything up to T_a's commit is flushed; T_b still straddles.
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        replica.catch_up().unwrap();
        let mut read = replica.begin_read();
        let x = read.read(X).unwrap();
        let y = read.read(Y).unwrap();
        read.finish();
        assert_eq!(x, Bytes::from_static(b"0"), "pinned before the wedge");
        assert_eq!(y, Bytes::from_static(b"0"));
        // The straddler finishes; the combined history must classify.
        tb.write(Y, Bytes::from_static(b"b")).unwrap();
        tb.commit().unwrap();
        replica.catch_up().unwrap();
        let combined = replica.history().combined_schedule();
        assert!(
            mvcc_classify::is_csr(&combined),
            "wedged reader broke CSR: {combined}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_reads_ignore_commits_applied_after_the_pin() {
        let dir = temp_dir("pin");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"v1")).unwrap();
        s.commit().unwrap();
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        replica.catch_up().unwrap();
        let mut pinned = replica.begin_read();
        // A later commit applies while the session is pinned.
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"v2")).unwrap();
        s.commit().unwrap();
        replica.catch_up().unwrap();
        // The pinned session still reads its snapshot...
        assert_eq!(pinned.read(X).unwrap(), Bytes::from_static(b"v1"));
        pinned.finish();
        // ...while a fresh pin sees the new state.
        let mut fresh = replica.begin_read();
        assert_eq!(fresh.read(X).unwrap(), Bytes::from_static(b"v2"));
        fresh.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_from_the_local_checkpoint() {
        let dir = temp_dir("resume");
        let ckpt_dir = temp_dir("resume-ckpt");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"pre")).unwrap();
        s.commit().unwrap();
        let mut config = replica_config();
        config.checkpoint_dir = Some(ckpt_dir.clone());
        {
            let replica = Arc::new(Replica::open(config.clone(), &dir).unwrap());
            replica.catch_up().unwrap();
            assert_eq!(replica.checkpoint().unwrap(), 1);
        }
        // More primary traffic after the replica "crashed".
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"post")).unwrap();
        s.write(Y, Bytes::from_static(b"post-y")).unwrap();
        s.commit().unwrap();
        let replica = Arc::new(Replica::open(config, &dir).unwrap());
        let resumed_from = replica.watermark();
        assert!(resumed_from > 0, "must resume mid-log, not from zero");
        let receipt = replica.catch_up().unwrap();
        assert_eq!(
            receipt.commits, 1,
            "only the post-checkpoint commit re-ships"
        );
        let mut read = replica.begin_read();
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"post"));
        assert_eq!(read.read(Y).unwrap(), Bytes::from_static(b"post-y"));
        read.finish();
        // The history spans the whole log, checkpoint or not: both
        // committed writers appear in the combined schedule.
        let combined = replica.history().combined_schedule();
        assert_eq!(combined.len(), 3 + 2, "3 shipped writes + 2 reader reads");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn replica_gc_reclaims_superseded_versions() {
        let dir = temp_dir("gc");
        let engine = primary(&dir);
        for i in 0..6u32 {
            let mut s = engine.begin();
            s.write(X, Bytes::from(format!("v{i}"))).unwrap();
            s.commit().unwrap();
        }
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        replica.catch_up().unwrap();
        let store = replica.shards().store_for(X);
        assert_eq!(store.version_count(X), 7, "all versions shipped");
        let reclaimed = replica.collect_garbage();
        assert!(reclaimed >= 5, "reclaimed {reclaimed}");
        assert_eq!(store.version_count(X), 1);
        let mut read = replica.begin_read();
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"v5"));
        read.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_read_sessions_contribute_nothing() {
        let dir = temp_dir("drop");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"x")).unwrap();
        s.commit().unwrap();
        let replica = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        replica.catch_up().unwrap();
        {
            let mut read = replica.begin_read();
            let _ = read.read(X).unwrap();
            // Dropped without finish().
        }
        assert_eq!(replica.history().readers_recorded(), 0);
        // The pinned snapshot was released: GC is not blocked forever.
        for store in replica.shards().iter() {
            assert!(store.active_snapshots().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write(tx: u32, entity: u32, value: &'static [u8]) -> WalRecord {
        WalRecord::Write {
            tx: TxId(tx),
            entity: EntityId(entity),
            value: Bytes::from_static(value),
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
    fn a_log_from_another_shard_count_is_refused() {
        // Written under 2 shards (entity 2 on shard 0, the only shard T1's
        // commit names); shipped to a 3-shard replica, where entity 2
        // belongs to shard 2.
        let dir = temp_dir("shard-count");
        WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20)
            .unwrap()
            .append_and_flush(&[write(1, 2, b"two"), commit(1, vec![(0, 1)])])
            .unwrap();
        let three =
            Replica::open(ReplicaConfig::new(3, 8, Bytes::from_static(b"0")), &dir).unwrap();
        for _ in 0..2 {
            let err = three.catch_up().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(three.watermark(), 1, "parked on the refused commit");
        }
        assert!(three.history().committed().is_empty());
        let two = Arc::new(Replica::open(replica_config(), &dir).unwrap());
        assert_eq!(two.catch_up().unwrap().commits, 1);
        let mut read = two.begin_read();
        assert_eq!(read.read(EntityId(2)).unwrap(), Bytes::from_static(b"two"));
        read.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Newest committed version per entity of a set of shard cuts.
    fn newest(shards: &[ShardCheckpoint]) -> BTreeMap<EntityId, CommittedVersion> {
        shards
            .iter()
            .flat_map(|shard| &shard.chains)
            .filter_map(|(entity, versions)| Some((*entity, versions.last()?.clone())))
            .collect()
    }

    #[test]
    fn recovery_and_replicas_agree_on_one_log() {
        // 2 shards: X = 0 and Z = 2 on shard 0, Y = 1 and W = 3 on shard 1.
        // T1 writes before the replica checkpoint and commits after it; T2
        // is an explicitly aborted writer; T3 writes at the tail and never
        // commits; the engine checkpoint sits between T2's abort and T1's
        // commit.  T4 and T5 commit on either side of everything.
        let dir = temp_dir("agree");
        let ckpt_dir = temp_dir("agree-ckpt");
        let opts = RecoveryOptions {
            shards: 2,
            entities: 8,
            initial: Bytes::from_static(b"0"),
        };
        let mut config = replica_config();
        config.checkpoint_dir = Some(ckpt_dir.clone());
        let wal = WalWriter::open(&dir, DurabilityMode::Buffered, 8 << 20).unwrap();
        wal.append_and_flush(&[
            WalRecord::Begin { tx: TxId(1) },
            write(1, 0, b"t1-x"),
            write(1, 1, b"t1-y"),
            WalRecord::Begin { tx: TxId(4) },
            WalRecord::Read {
                tx: TxId(4),
                entity: EntityId(0),
            },
            write(4, 2, b"t4-z"),
            commit(4, vec![(0, 1)]),
        ])
        .unwrap();
        let cutter = Replica::open(config.clone(), &dir).unwrap();
        cutter.catch_up().unwrap();
        cutter.checkpoint().unwrap();
        drop(cutter);
        wal.append_and_flush(&[
            WalRecord::Begin { tx: TxId(2) },
            write(2, 3, b"t2-w"),
            WalRecord::Abort { tx: TxId(2) },
        ])
        .unwrap();
        let cut = recover(&dir, &opts).unwrap();
        write_checkpoint(
            &dir,
            &CheckpointData {
                seq: 1,
                replay_from_lsn: wal.last_lsn().unwrap() + 1,
                next_tx: cut.next_tx,
                shards: cut.shards,
            },
        )
        .unwrap();
        wal.append_and_flush(&[
            WalRecord::Checkpoint { seq: 1 },
            commit(1, vec![(0, 2), (1, 1)]),
            WalRecord::Begin { tx: TxId(5) },
            write(5, 0, b"t5-x"),
            commit(5, vec![(0, 3)]),
            WalRecord::Begin { tx: TxId(3) },
            write(3, 1, b"t3-y"),
        ])
        .unwrap();

        let recovered = recover(&dir, &opts).unwrap();
        assert_eq!(recovered.report.checkpoint_seq, Some(1));
        assert_eq!(recovered.report.discarded, vec![TxId(2), TxId(3)]);
        let fresh = Replica::open(replica_config(), &dir).unwrap();
        let resumed = Replica::open(config, &dir).unwrap();
        assert!(resumed.watermark() > 0, "resumed mid-log");
        let expected_latest = recovered.latest_committed();
        assert_eq!(expected_latest[&EntityId(0)].writer, TxId(5));
        assert_eq!(expected_latest[&EntityId(1)].writer, TxId(1));
        assert_eq!(expected_latest[&EntityId(3)].writer, TxId::INITIAL);
        assert_eq!(newest(&recovered.shards), expected_latest);
        for replica in [&fresh, &resumed] {
            replica.catch_up().unwrap();
            assert_eq!(newest(&replica.shards().checkpoint()), expected_latest);
            assert_eq!(replica.history().committed(), recovered.committed);
            assert_eq!(
                replica.history().combined_schedule(),
                recovered.committed_schedule()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
