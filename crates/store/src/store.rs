//! The transactional multiversion key-value store.
//!
//! The store keeps one [`VersionChain`] per entity and
//! exposes the operations a scheduler needs: begin, read (either the latest
//! committed version, a snapshot-visible version, or an explicitly chosen
//! writer's version — the version function made operational), write, commit
//! and abort.  A global commit counter provides the timestamps used by
//! snapshot visibility and garbage collection.
//!
//! Concurrency: the store is guarded by a single tracked `RwLock` around
//! the chain map plus a tracked mutex for transaction state, which is ample
//! for the experiment workloads (the paper's contribution is the scheduling
//! theory, not a lock-free engine); the API is `&self` so the store can be
//! shared across threads by the bench harness.  All three locks are
//! `mvcc-analysis` tracked types, so the store's internal order (`txs` →
//! `commit-counter`, `txs` → `chains`) is continuously verified by the
//! lockdep cycle check, and `begin`'s register-atomic-with-snapshot
//! contract is an executed happens-before assertion.

use crate::version_chain::VersionChain;
use bytes::Bytes;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::{TrackedMutex, TrackedRwLock};
use mvcc_core::{EntityId, TxId, VersionSource};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Status of a transaction known to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Begun and neither committed nor aborted.
    Active,
    /// Committed at the contained timestamp.
    Committed(u64),
    /// Aborted.
    Aborted,
}

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The transaction is not active (never begun, already finished).
    NotActive(TxId),
    /// The entity has no version visible under the requested rule.
    NoVisibleVersion(EntityId),
    /// The requested writer never wrote the entity (invalid version choice).
    NoSuchVersion(EntityId, TxId),
    /// Snapshot-isolation write-write conflict (first committer wins).
    WriteConflict(EntityId, TxId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotActive(tx) => write!(f, "{tx} is not active"),
            StoreError::NoVisibleVersion(e) => write!(f, "no visible version of {e}"),
            StoreError::NoSuchVersion(e, tx) => write!(f, "{tx} never wrote {e}"),
            StoreError::WriteConflict(e, tx) => {
                write!(f, "write-write conflict on {e} against {tx}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-transaction bookkeeping.
#[derive(Debug, Clone)]
struct TxRecord {
    status: TxStatus,
    /// Snapshot timestamp (commit counter at begin).
    snapshot_ts: u64,
    /// Entities written (for commit/abort and SI conflict checks).
    write_set: BTreeSet<EntityId>,
    /// Entities read and the writer observed (the realized READ-FROM).
    read_set: Vec<(EntityId, TxId)>,
}

/// The committed versions of one entity as exported by
/// [`MvStore::committed_state`] and consumed by
/// [`MvStore::from_recovered`]: `(writer, commit timestamp, value)` in
/// chain order.
pub type CommittedChain = Vec<(TxId, u64, Bytes)>;

/// A handle identifying a transaction begun on the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxHandle {
    /// The transaction id.
    pub id: TxId,
}

/// The multiversion store.
#[derive(Debug)]
pub struct MvStore {
    chains: TrackedRwLock<BTreeMap<EntityId, VersionChain>>,
    txs: TrackedMutex<BTreeMap<TxId, TxRecord>>,
    commit_counter: TrackedMutex<u64>,
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MvStore {
            chains: TrackedRwLock::new(lock_class!("store.chains"), BTreeMap::new()),
            txs: TrackedMutex::new(lock_class!("store.txs"), BTreeMap::new()),
            commit_counter: TrackedMutex::new(lock_class!("store.commit-counter"), 0),
        }
    }

    /// Creates a store with an initial version (value `initial`) for each of
    /// the given entities — the explicit `T0` of the paper.
    pub fn with_entities(entities: impl IntoIterator<Item = EntityId>, initial: Bytes) -> Self {
        let store = Self::new();
        {
            let mut chains = store.chains.write();
            for e in entities {
                chains.insert(e, VersionChain::with_initial(initial.clone()));
            }
        }
        store
    }

    /// Begins transaction `tx`.  Re-beginning an aborted transaction resets
    /// it; re-beginning an active or committed transaction is an error.
    pub fn begin(&self, tx: TxId) -> Result<TxHandle, StoreError> {
        // The snapshot timestamp is sampled while holding the transaction
        // table (`txs` before `commit_counter`, the same order `commit`
        // uses), so the new transaction is *registered* atomically with its
        // snapshot choice.  Sampling first and registering after — the
        // original order — left a window in which a concurrent GC watermark
        // ([`crate::gc::watermark`] reads `active_snapshots`, then
        // `current_ts`) saw neither the snapshot nor the registration and
        // could reclaim versions this transaction's snapshot was entitled
        // to observe.  With registration-then-sample, any watermark
        // computed before the registration is bounded by a commit counter
        // value at or below this snapshot, and pruning under it keeps
        // every version visible at or after that bound.
        let mut txs = self.txs.lock();
        match txs.get(&tx).map(|r| r.status) {
            Some(TxStatus::Active) | Some(TxStatus::Committed(_)) => {
                return Err(StoreError::NotActive(tx))
            }
            _ => {}
        }
        let snapshot_ts = *self.commit_counter.lock();
        // hb claim "begin-atomic-with-snapshot": both probes fire inside
        // the same `store.txs` critical section, which the analysis gate
        // asserts via `require_same_critical_section`.
        mvcc_analysis::hb::probe("store.begin_snapshot", u64::from(tx.0));
        txs.insert(
            tx,
            TxRecord {
                status: TxStatus::Active,
                snapshot_ts,
                write_set: BTreeSet::new(),
                read_set: Vec::new(),
            },
        );
        mvcc_analysis::hb::probe("store.begin_registered", u64::from(tx.0));
        Ok(TxHandle { id: tx })
    }

    /// [`MvStore::begin`] with an explicit snapshot timestamp at or below
    /// the current counter — a read-only transaction pinned *in the past*
    /// (a replica's transaction-consistent safe point).  The snapshot is
    /// clamped to the current counter, and registering it pins the GC
    /// watermark exactly like a fresh snapshot would; the caller is
    /// responsible for `snapshot_ts` not sitting below the already
    /// reclaimed horizon (replicas cap their GC at the safe point).
    pub fn begin_at(&self, tx: TxId, snapshot_ts: u64) -> Result<TxHandle, StoreError> {
        let mut txs = self.txs.lock();
        match txs.get(&tx).map(|r| r.status) {
            Some(TxStatus::Active) | Some(TxStatus::Committed(_)) => {
                return Err(StoreError::NotActive(tx))
            }
            _ => {}
        }
        let snapshot_ts = snapshot_ts.min(*self.commit_counter.lock());
        txs.insert(
            tx,
            TxRecord {
                status: TxStatus::Active,
                snapshot_ts,
                write_set: BTreeSet::new(),
                read_set: Vec::new(),
            },
        );
        Ok(TxHandle { id: tx })
    }

    fn with_active<T>(
        &self,
        tx: TxId,
        f: impl FnOnce(&mut TxRecord) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut txs = self.txs.lock();
        let record = txs.get_mut(&tx).ok_or(StoreError::NotActive(tx))?;
        if record.status != TxStatus::Active {
            return Err(StoreError::NotActive(tx));
        }
        f(record)
    }

    /// Reads the *latest committed* version of `entity` (single-version
    /// semantics; a transaction sees its own uncommitted writes first).
    pub fn read_latest(&self, tx: TxHandle, entity: EntityId) -> Result<Bytes, StoreError> {
        let chains = self.chains.read();
        let chain = chains
            .get(&entity)
            .ok_or(StoreError::NoVisibleVersion(entity))?;
        let version = chain
            .latest_by(tx.id)
            .or_else(|| chain.latest_committed())
            .ok_or(StoreError::NoVisibleVersion(entity))?;
        let (value, writer) = (version.value.clone(), version.writer);
        drop(chains);
        self.with_active(tx.id, |r| {
            r.read_set.push((entity, writer));
            Ok(value)
        })
    }

    /// Reads the version of `entity` visible to the transaction's snapshot
    /// (snapshot isolation reads; own writes are visible).
    pub fn read_snapshot(&self, tx: TxHandle, entity: EntityId) -> Result<Bytes, StoreError> {
        let snapshot_ts = {
            let txs = self.txs.lock();
            let record = txs.get(&tx.id).ok_or(StoreError::NotActive(tx.id))?;
            if record.status != TxStatus::Active {
                return Err(StoreError::NotActive(tx.id));
            }
            record.snapshot_ts
        };
        let chains = self.chains.read();
        let chain = chains
            .get(&entity)
            .ok_or(StoreError::NoVisibleVersion(entity))?;
        let version = chain
            .visible_at(snapshot_ts, Some(tx.id))
            .ok_or(StoreError::NoVisibleVersion(entity))?;
        let (value, writer) = (version.value.clone(), version.writer);
        drop(chains);
        self.with_active(tx.id, |r| {
            r.read_set.push((entity, writer));
            Ok(value)
        })
    }

    /// Reads the version of `entity` written by an explicitly chosen writer
    /// (the operational form of a version function's assignment).
    pub fn read_version(
        &self,
        tx: TxHandle,
        entity: EntityId,
        source: VersionSource,
    ) -> Result<Bytes, StoreError> {
        let writer = source.as_tx();
        let chains = self.chains.read();
        let chain = chains
            .get(&entity)
            .ok_or(StoreError::NoVisibleVersion(entity))?;
        let version = chain
            .latest_by(writer)
            .ok_or(StoreError::NoSuchVersion(entity, writer))?;
        let value = version.value.clone();
        drop(chains);
        self.with_active(tx.id, |r| {
            r.read_set.push((entity, writer));
            Ok(value)
        })
    }

    /// Writes a new version of `entity`.
    pub fn write(&self, tx: TxHandle, entity: EntityId, value: Bytes) -> Result<(), StoreError> {
        self.with_active(tx.id, |r| {
            r.write_set.insert(entity);
            Ok(())
        })?;
        let mut chains = self.chains.write();
        chains.entry(entity).or_default().append(tx.id, value);
        Ok(())
    }

    /// Read-only first-committer-wins validation: succeeds iff no other
    /// transaction has committed a version of an entity in this
    /// transaction's write set after this transaction's snapshot.
    ///
    /// Unlike [`MvStore::commit`] with `first_committer_wins` set, a failed
    /// validation does **not** abort the transaction — the caller decides.
    /// This is the prepare half used by `mvcc-engine`'s cross-shard commit
    /// path: validate every touched shard first, then commit them all (the
    /// engine serializes commits, so the check cannot go stale in between).
    pub fn validate_first_committer(&self, tx: TxHandle) -> Result<(), StoreError> {
        let txs = self.txs.lock();
        let record = txs.get(&tx.id).ok_or(StoreError::NotActive(tx.id))?;
        if record.status != TxStatus::Active {
            return Err(StoreError::NotActive(tx.id));
        }
        let chains = self.chains.read();
        for &entity in &record.write_set {
            if let Some(chain) = chains.get(&entity) {
                let conflict = chain.versions().iter().any(|v| {
                    v.writer != tx.id && v.commit_ts.is_some_and(|ts| ts > record.snapshot_ts)
                });
                if conflict {
                    let winner = chain
                        .versions()
                        .iter()
                        .rev()
                        .find(|v| {
                            v.writer != tx.id
                                && v.commit_ts.is_some_and(|ts| ts > record.snapshot_ts)
                        })
                        .map_or(TxId::INITIAL, |v| v.writer);
                    return Err(StoreError::WriteConflict(entity, winner));
                }
            }
        }
        Ok(())
    }

    /// Commits the transaction, assigning it the next commit timestamp.
    ///
    /// When `first_committer_wins` is set (snapshot-isolation mode), the
    /// commit fails with [`StoreError::WriteConflict`] if another
    /// transaction committed a version of an entity in this transaction's
    /// write set after this transaction's snapshot.
    pub fn commit(&self, tx: TxHandle, first_committer_wins: bool) -> Result<u64, StoreError> {
        // Validate under the tx lock, then bump the counter.
        let mut txs = self.txs.lock();
        let record = txs.get_mut(&tx.id).ok_or(StoreError::NotActive(tx.id))?;
        if record.status != TxStatus::Active {
            return Err(StoreError::NotActive(tx.id));
        }
        if first_committer_wins {
            let chains = self.chains.read();
            for &entity in &record.write_set {
                if let Some(chain) = chains.get(&entity) {
                    let conflict = chain.versions().iter().any(|v| {
                        v.writer != tx.id && v.commit_ts.is_some_and(|ts| ts > record.snapshot_ts)
                    });
                    if conflict {
                        let winner = chain
                            .versions()
                            .iter()
                            .rev()
                            .find(|v| {
                                v.writer != tx.id
                                    && v.commit_ts.is_some_and(|ts| ts > record.snapshot_ts)
                            })
                            .map_or(TxId::INITIAL, |v| v.writer);
                        record.status = TxStatus::Aborted;
                        drop(chains);
                        self.purge_writes(tx.id, &record.write_set.clone());
                        return Err(StoreError::WriteConflict(entity, winner));
                    }
                }
            }
        }
        let mut counter = self.commit_counter.lock();
        *counter += 1;
        let ts = *counter;
        record.status = TxStatus::Committed(ts);
        let write_set = record.write_set.clone();
        drop(counter);
        drop(txs);
        let mut chains = self.chains.write();
        for entity in write_set {
            if let Some(chain) = chains.get_mut(&entity) {
                chain.commit_writer(tx.id, ts);
            }
        }
        Ok(ts)
    }

    /// Commits a batch of transactions in one pass: the transaction table
    /// and commit counter are locked once for the whole batch (consecutive
    /// commit timestamps in batch order), then every new version is
    /// committed under a single chain-map write lock.
    ///
    /// This is the storage half of a group commit: under N concurrent
    /// committers the per-commit lock traffic drops from `2·N`
    /// acquisitions to 2.  Returns one result per handle, in order;
    /// failed members (not active) do not affect the rest of the batch.
    /// First-committer-wins validation is *not* applied — snapshot
    /// isolation commits go through [`MvStore::commit`] (or the engine's
    /// validate-then-commit path) instead.
    pub fn commit_many(&self, handles: &[TxHandle]) -> Vec<Result<u64, StoreError>> {
        let mut staged: Vec<(TxId, u64, BTreeSet<EntityId>)> = Vec::with_capacity(handles.len());
        let results: Vec<Result<u64, StoreError>> = {
            let mut txs = self.txs.lock();
            let mut counter = self.commit_counter.lock();
            handles
                .iter()
                .map(|handle| {
                    let record = txs
                        .get_mut(&handle.id)
                        .ok_or(StoreError::NotActive(handle.id))?;
                    if record.status != TxStatus::Active {
                        return Err(StoreError::NotActive(handle.id));
                    }
                    *counter += 1;
                    let ts = *counter;
                    record.status = TxStatus::Committed(ts);
                    staged.push((handle.id, ts, record.write_set.clone()));
                    Ok(ts)
                })
                .collect()
        };
        let mut chains = self.chains.write();
        for (tx, ts, write_set) in staged {
            for entity in write_set {
                if let Some(chain) = chains.get_mut(&entity) {
                    chain.commit_writer(tx, ts);
                }
            }
        }
        results
    }

    /// Applies one *replicated* committed transaction: every write is
    /// installed as an already-committed version at the explicit
    /// `commit_ts` the primary assigned (replication must reproduce the
    /// primary's timestamps, not invent its own), and the commit counter
    /// is floored up to `commit_ts`.  Returns the number of versions
    /// newly installed — application is idempotent per `(writer, ts)`, so
    /// a replica resuming over a checkpoint's overlap window re-applies
    /// harmlessly (same discipline as crash recovery's replay).
    ///
    /// Versions are installed *before* the counter advances: a snapshot
    /// begun at any point either sits below `commit_ts` (and correctly
    /// does not see the new versions) or at/above it (and the versions
    /// are already in the chains) — the apply-side half of the engine's
    /// "shard commits land before anyone can learn of them" rule.
    pub fn apply_committed(
        &self,
        writer: TxId,
        commit_ts: u64,
        writes: &[(EntityId, Bytes)],
    ) -> usize {
        let mut applied = 0;
        {
            let mut chains = self.chains.write();
            for (entity, value) in writes {
                if chains.entry(*entity).or_default().insert_committed(
                    writer,
                    commit_ts,
                    value.clone(),
                ) {
                    applied += 1;
                }
            }
        }
        // Same lock order as `begin`/`commit` (txs, then counter), so the
        // floor is atomic with respect to snapshot choice.
        let _txs = self.txs.lock();
        let mut counter = self.commit_counter.lock();
        *counter = (*counter).max(commit_ts);
        applied
    }

    /// Aborts the transaction, removing its uncommitted versions.
    pub fn abort(&self, tx: TxHandle) -> Result<(), StoreError> {
        let write_set = self.with_active(tx.id, |r| {
            r.status = TxStatus::Aborted;
            Ok(r.write_set.clone())
        })?;
        self.purge_writes(tx.id, &write_set);
        Ok(())
    }

    fn purge_writes(&self, tx: TxId, write_set: &BTreeSet<EntityId>) {
        let mut chains = self.chains.write();
        for entity in write_set {
            if let Some(chain) = chains.get_mut(entity) {
                chain.remove_writer(tx);
            }
        }
    }

    /// The status of a transaction, if known.
    pub fn status(&self, tx: TxId) -> Option<TxStatus> {
        self.txs.lock().get(&tx).map(|r| r.status)
    }

    /// The realized READ-FROM pairs of a transaction (entity, writer), in
    /// read order.
    pub fn reads_of(&self, tx: TxId) -> Vec<(EntityId, TxId)> {
        self.txs
            .lock()
            .get(&tx)
            .map(|r| r.read_set.clone())
            .unwrap_or_default()
    }

    /// The current commit timestamp high-water mark.
    pub fn current_ts(&self) -> u64 {
        *self.commit_counter.lock()
    }

    /// Number of versions stored for `entity`.
    pub fn version_count(&self, entity: EntityId) -> usize {
        self.chains.read().get(&entity).map_or(0, |c| c.len())
    }

    /// Total number of versions across all entities.
    pub fn total_versions(&self) -> usize {
        self.chains.read().values().map(|c| c.len()).sum()
    }

    /// Applies [`VersionChain::prune`] to every chain with the given
    /// watermark, returning the number of reclaimed versions (see
    /// [`crate::gc`]).
    pub(crate) fn prune_all(&self, watermark: u64) -> usize {
        let mut chains = self.chains.write();
        chains.values_mut().map(|c| c.prune(watermark)).sum()
    }

    /// A consistent copy of the committed state: the commit-counter
    /// high-water mark plus, per entity, every *committed* version in
    /// chain order `(writer, commit_ts, value)`.  Uncommitted versions are
    /// excluded — this is what a checkpoint persists, and a checkpoint
    /// must never make an in-flight transaction's data durable.
    ///
    /// The chain map is read under its lock, so the copy is internally
    /// consistent; the counter is sampled first, which can only
    /// under-report relative to the chains (a commit landing in between
    /// is replayed idempotently from the log).
    pub fn committed_state(&self) -> (u64, Vec<(EntityId, CommittedChain)>) {
        let counter = *self.commit_counter.lock();
        let chains = self.chains.read();
        let committed = chains
            .iter()
            .map(|(&entity, chain)| {
                let versions = chain
                    .versions()
                    .iter()
                    .filter_map(|v| v.commit_ts.map(|ts| (v.writer, ts, v.value.clone())))
                    .collect();
                (entity, versions)
            })
            .collect();
        (counter, committed)
    }

    /// Builds a store from recovered committed state (crash recovery).
    ///
    /// `commit_counter` is the recovered high-water mark and `floor` the
    /// GC watermark the newest checkpoint was cut at: the effective
    /// counter is the max of the two (and of every recovered version's
    /// timestamp), so no transaction begun on the recovered store is ever
    /// issued a snapshot below the reclaimed horizon — versions under the
    /// watermark may be gone from the chains, and a snapshot that old
    /// would read the void (the regression
    /// `recovered_snapshots_never_sink_below_the_watermark` pins this).
    pub fn from_recovered(
        commit_counter: u64,
        floor: u64,
        chains: impl IntoIterator<Item = (EntityId, CommittedChain)>,
    ) -> Self {
        let store = Self::new();
        let mut max_ts = commit_counter.max(floor);
        {
            let mut map = store.chains.write();
            for (entity, versions) in chains {
                if let Some(newest) = versions.iter().map(|&(_, ts, _)| ts).max() {
                    max_ts = max_ts.max(newest);
                }
                map.insert(entity, VersionChain::from_committed(versions));
            }
        }
        *store.commit_counter.lock() = max_ts;
        store
    }

    /// Snapshot timestamps of all active transactions (used to compute the
    /// GC watermark).
    pub fn active_snapshots(&self) -> Vec<u64> {
        self.txs
            .lock()
            .values()
            .filter(|r| r.status == TxStatus::Active)
            .map(|r| r.snapshot_ts)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1);

    fn store() -> MvStore {
        MvStore::with_entities([X, Y], b("init"))
    }

    #[test]
    fn begin_read_write_commit_cycle() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        assert_eq!(s.read_latest(t1, X).unwrap(), b("init"));
        s.write(t1, X, b("one")).unwrap();
        // Own write visible to itself, not to others.
        assert_eq!(s.read_latest(t1, X).unwrap(), b("one"));
        let t2 = s.begin(TxId(2)).unwrap();
        assert_eq!(s.read_latest(t2, X).unwrap(), b("init"));
        let ts = s.commit(t1, false).unwrap();
        assert_eq!(s.status(TxId(1)), Some(TxStatus::Committed(ts)));
        // After commit, new readers see it.
        let t3 = s.begin(TxId(3)).unwrap();
        assert_eq!(s.read_latest(t3, X).unwrap(), b("one"));
    }

    #[test]
    fn abort_discards_writes() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        s.write(t1, X, b("doomed")).unwrap();
        s.abort(t1).unwrap();
        assert_eq!(s.status(TxId(1)), Some(TxStatus::Aborted));
        let t2 = s.begin(TxId(2)).unwrap();
        assert_eq!(s.read_latest(t2, X).unwrap(), b("init"));
        assert_eq!(s.version_count(X), 1);
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let s = store();
        let reader = s.begin(TxId(1)).unwrap();
        let writer = s.begin(TxId(2)).unwrap();
        s.write(writer, X, b("new")).unwrap();
        s.commit(writer, false).unwrap();
        // Snapshot read: the reader began before the writer committed.
        assert_eq!(s.read_snapshot(reader, X).unwrap(), b("init"));
        // Latest read: sees the committed version.
        assert_eq!(s.read_latest(reader, X).unwrap(), b("new"));
    }

    #[test]
    fn explicit_version_reads_follow_the_version_function() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        s.write(t1, X, b("t1")).unwrap();
        s.commit(t1, false).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        s.write(t2, X, b("t2")).unwrap();
        s.commit(t2, false).unwrap();
        let t3 = s.begin(TxId(3)).unwrap();
        assert_eq!(
            s.read_version(t3, X, VersionSource::Tx(TxId(1))).unwrap(),
            b("t1"),
            "an old version can still be served"
        );
        assert_eq!(
            s.read_version(t3, X, VersionSource::Initial).unwrap(),
            b("init")
        );
        assert!(matches!(
            s.read_version(t3, Y, VersionSource::Tx(TxId(2))),
            Err(StoreError::NoSuchVersion(_, _))
        ));
        assert_eq!(s.reads_of(TxId(3)).len(), 2);
    }

    #[test]
    fn first_committer_wins_detects_write_write_conflicts() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        s.write(t1, X, b("t1")).unwrap();
        s.write(t2, X, b("t2")).unwrap();
        assert!(s.commit(t1, true).is_ok());
        let err = s.commit(t2, true).unwrap_err();
        assert!(matches!(err, StoreError::WriteConflict(e, w) if e == X && w == TxId(1)));
        assert_eq!(s.status(TxId(2)), Some(TxStatus::Aborted));
        // The loser's version is gone.
        let t3 = s.begin(TxId(3)).unwrap();
        assert_eq!(s.read_latest(t3, X).unwrap(), b("t1"));
    }

    #[test]
    fn validate_first_committer_is_read_only() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        s.write(t1, X, b("t1")).unwrap();
        s.write(t2, X, b("t2")).unwrap();
        assert!(s.validate_first_committer(t1).is_ok());
        assert!(s.validate_first_committer(t2).is_ok());
        s.commit(t1, false).unwrap();
        // Validation now fails for the loser but does NOT abort it...
        let err = s.validate_first_committer(t2).unwrap_err();
        assert!(matches!(err, StoreError::WriteConflict(e, w) if e == X && w == TxId(1)));
        assert_eq!(s.status(TxId(2)), Some(TxStatus::Active));
        // ...so the caller can still decide to commit without the check.
        assert!(s.commit(t2, false).is_ok());
    }

    #[test]
    fn disjoint_writes_commit_under_snapshot_isolation() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        s.write(t1, X, b("t1")).unwrap();
        s.write(t2, Y, b("t2")).unwrap();
        assert!(s.commit(t1, true).is_ok());
        assert!(s.commit(t2, true).is_ok());
    }

    #[test]
    fn lifecycle_errors() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        assert!(s.begin(TxId(1)).is_err(), "double begin");
        s.commit(t1, false).unwrap();
        assert!(s.read_latest(t1, X).is_err(), "read after commit");
        assert!(s.commit(t1, false).is_err(), "double commit");
        assert!(s.abort(t1).is_err(), "abort after commit");
        assert!(
            s.read_latest(TxHandle { id: TxId(9) }, X).is_err(),
            "unknown transaction"
        );
        // An aborted transaction may be re-begun.
        let t2 = s.begin(TxId(2)).unwrap();
        s.abort(t2).unwrap();
        assert!(s.begin(TxId(2)).is_ok());
    }

    #[test]
    fn version_counts_and_gc_hooks() {
        let s = store();
        for i in 1..=4u32 {
            let t = s.begin(TxId(i)).unwrap();
            s.write(t, X, b("v")).unwrap();
            s.commit(t, false).unwrap();
        }
        assert_eq!(s.version_count(X), 5);
        assert_eq!(s.total_versions(), 6);
        let reclaimed = s.prune_all(s.current_ts());
        assert_eq!(reclaimed, 4, "only the newest committed version survives");
        assert_eq!(s.version_count(X), 1);
    }

    #[test]
    fn commit_many_matches_individual_commits() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        let t3 = s.begin(TxId(3)).unwrap();
        s.write(t1, X, b("t1")).unwrap();
        s.write(t2, Y, b("t2")).unwrap();
        s.abort(t3).unwrap();
        let results = s.commit_many(&[t1, t2, t3, TxHandle { id: TxId(9) }]);
        // Consecutive timestamps in batch order; dead members are refused
        // without disturbing the rest.
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Ok(2));
        assert!(matches!(results[2], Err(StoreError::NotActive(tx)) if tx == TxId(3)));
        assert!(matches!(results[3], Err(StoreError::NotActive(tx)) if tx == TxId(9)));
        assert_eq!(s.status(TxId(1)), Some(TxStatus::Committed(1)));
        assert_eq!(s.status(TxId(2)), Some(TxStatus::Committed(2)));
        assert_eq!(s.current_ts(), 2);
        // The batch's versions are committed and visible.
        let r = s.begin(TxId(10)).unwrap();
        assert_eq!(s.read_latest(r, X).unwrap(), b("t1"));
        assert_eq!(s.read_latest(r, Y).unwrap(), b("t2"));
        assert_eq!(s.read_snapshot(r, X).unwrap(), b("t1"));
    }

    #[test]
    fn begin_pins_its_snapshot_against_the_gc_watermark() {
        // Regression for the watermark/snapshot-pinning race: the snapshot
        // timestamp is chosen while the transaction is registered, so a
        // watermark computed at any point around `begin` can never exceed
        // the new transaction's snapshot — its visible versions survive
        // any concurrent prune (the multi-threaded stress test hammers the
        // interleaving; this pins the single-threaded contract).
        let s = store();
        for i in 1..=3u32 {
            let t = s.begin(TxId(i)).unwrap();
            s.write(t, X, b("v")).unwrap();
            s.commit(t, false).unwrap();
        }
        let reader = s.begin(TxId(10)).unwrap();
        let watermark = crate::gc::watermark(&s);
        assert!(watermark <= 3, "active snapshot must bound the watermark");
        s.prune_all(watermark);
        assert_eq!(s.read_snapshot(reader, X).unwrap(), b("v"));
    }

    #[test]
    fn committed_state_excludes_uncommitted_versions() {
        let s = store();
        let t1 = s.begin(TxId(1)).unwrap();
        s.write(t1, X, b("committed")).unwrap();
        s.commit(t1, false).unwrap();
        let t2 = s.begin(TxId(2)).unwrap();
        s.write(t2, X, b("in-flight")).unwrap();
        let (counter, chains) = s.committed_state();
        assert_eq!(counter, 1);
        let x_chain = chains
            .iter()
            .find(|(e, _)| *e == X)
            .map(|(_, v)| v)
            .unwrap();
        // Initial version + T1's committed one; T2's in-flight write must
        // never reach a checkpoint.
        assert_eq!(x_chain.len(), 2);
        assert!(x_chain.iter().all(|&(writer, _, _)| writer != TxId(2)));
        assert_eq!(x_chain[1], (TxId(1), 1, b("committed")));
    }

    #[test]
    fn from_recovered_round_trips_committed_state() {
        let s = store();
        for i in 1..=3u32 {
            let t = s.begin(TxId(i)).unwrap();
            s.write(t, X, b(&format!("v{i}"))).unwrap();
            s.commit(t, false).unwrap();
        }
        let (counter, chains) = s.committed_state();
        let recovered = MvStore::from_recovered(counter, 0, chains);
        assert_eq!(recovered.current_ts(), 3);
        assert_eq!(recovered.committed_state(), s.committed_state());
        // The recovered store is live: reads and new commits work.
        let t = recovered.begin(TxId(10)).unwrap();
        assert_eq!(recovered.read_latest(t, X).unwrap(), b("v3"));
        assert_eq!(recovered.read_snapshot(t, X).unwrap(), b("v3"));
        recovered.write(t, Y, b("resumed")).unwrap();
        assert_eq!(recovered.commit(t, false).unwrap(), 4);
    }

    #[test]
    fn recovered_snapshots_never_sink_below_the_watermark() {
        // Regression for the checkpoint/GC coordination rule: a checkpoint
        // records the watermark it was cut at, and recovery floors the
        // commit counter there.  Without the floor, a checkpoint whose
        // counter lagged the watermark (however it came about) would issue
        // snapshots below the reclaimed horizon — readable timestamps for
        // versions that no longer exist.
        let chains = vec![(X, vec![(TxId(7), 5u64, b("survivor"))])];
        // Deliberately inconsistent inputs: counter 2 < watermark 5.
        let recovered = MvStore::from_recovered(2, 5, chains);
        assert_eq!(recovered.current_ts(), 5, "counter floored at watermark");
        let t = recovered.begin(TxId(10)).unwrap();
        // The first snapshot sits at or above the horizon and can read the
        // surviving version (a snapshot at ts 2 would have found nothing).
        assert_eq!(recovered.read_snapshot(t, X).unwrap(), b("survivor"));
        // GC at the recovered watermark reclaims nothing further.
        assert_eq!(recovered.prune_all(5), 0);
    }

    #[test]
    fn begin_at_pins_a_snapshot_in_the_past() {
        let s = store();
        for i in 1..=3u32 {
            let t = s.begin(TxId(i)).unwrap();
            s.write(t, X, b(&format!("v{i}"))).unwrap();
            s.commit(t, false).unwrap();
        }
        // A reader pinned at ts 1 sees v1, not the newest.
        let old = s.begin_at(TxId(10), 1).unwrap();
        assert_eq!(s.read_snapshot(old, X).unwrap(), b("v1"));
        // The pinned snapshot holds the GC watermark down.
        assert_eq!(crate::gc::watermark(&s), 1);
        // A future timestamp is clamped to the present.
        let clamped = s.begin_at(TxId(11), 99).unwrap();
        assert_eq!(s.read_snapshot(clamped, X).unwrap(), b("v3"));
        assert!(s.active_snapshots().iter().all(|&ts| ts <= 3));
    }

    #[test]
    fn apply_committed_installs_versions_at_the_primary_timestamps() {
        let s = store();
        assert_eq!(s.apply_committed(TxId(1), 1, &[(X, b("r1"))]), 1);
        assert_eq!(
            s.apply_committed(TxId(2), 2, &[(X, b("r2x")), (Y, b("r2y"))]),
            2
        );
        assert_eq!(s.current_ts(), 2, "counter floored at the applied ts");
        // Snapshots behave exactly as on the primary: a reader begun now
        // sees ts-2 versions, an explicit version read can still reach
        // the older one.
        let r = s.begin(TxId(10)).unwrap();
        assert_eq!(s.read_snapshot(r, X).unwrap(), b("r2x"));
        assert_eq!(s.read_latest(r, Y).unwrap(), b("r2y"));
        assert_eq!(
            s.read_version(r, X, VersionSource::Tx(TxId(1))).unwrap(),
            b("r1")
        );
        // Status of replicated writers is not tracked — they finished on
        // the primary; only the versions travel.
        assert_eq!(s.status(TxId(1)), None);
    }

    #[test]
    fn apply_committed_is_idempotent_per_writer_and_timestamp() {
        let s = store();
        assert_eq!(s.apply_committed(TxId(1), 3, &[(X, b("v"))]), 1);
        // The checkpoint-overlap shape: the same commit record re-applied.
        assert_eq!(s.apply_committed(TxId(1), 3, &[(X, b("v"))]), 0);
        assert_eq!(s.version_count(X), 2, "initial + one applied version");
        assert_eq!(s.current_ts(), 3);
    }

    #[test]
    fn apply_committed_keeps_chains_sorted_when_arriving_out_of_order() {
        // Defensive: per shard the log applies in timestamp order, but the
        // chain invariant (committed versions sorted by ts) must hold even
        // if an apply arrives late.
        let s = store();
        s.apply_committed(TxId(2), 5, &[(X, b("newer"))]);
        s.apply_committed(TxId(1), 2, &[(X, b("older"))]);
        let r = s.begin(TxId(10)).unwrap();
        assert_eq!(s.read_latest(r, X).unwrap(), b("newer"));
        assert_eq!(s.read_snapshot(r, X).unwrap(), b("newer"));
        let (_, chains) = s.committed_state();
        let x_chain = chains
            .iter()
            .find(|(e, _)| *e == X)
            .map(|(_, v)| v)
            .unwrap();
        let ts: Vec<u64> = x_chain.iter().map(|&(_, t, _)| t).collect();
        assert_eq!(ts, vec![0, 2, 5], "sorted by commit timestamp");
    }

    #[test]
    fn concurrent_access_from_threads() {
        use std::sync::Arc;
        let s = Arc::new(MvStore::with_entities([X], b("0")));
        let mut handles = Vec::new();
        for i in 1..=8u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let t = s.begin(TxId(i)).unwrap();
                let _ = s.read_latest(t, X).unwrap();
                s.write(t, X, Bytes::from(i.to_string())).unwrap();
                s.commit(t, false).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.version_count(X), 9);
        assert_eq!(s.current_ts(), 8);
    }
}
