//! Sharded storage: one [`MvStore`] per key range.
//!
//! A single `MvStore` guards its chain map with one `RwLock`, so every
//! write serializes on it.  The engine instead hashes entities over N
//! independent stores ("shard per key range", the pod/sharded-topology
//! scaling argument): threads touching disjoint shards never contend on a
//! storage lock.  Cross-shard transactions begin lazily on each shard they
//! touch and commit shard by shard; the engine's admission layer
//! ([`crate::session`]) is what makes the multi-shard commit appear atomic
//! to other transactions.

use bytes::Bytes;
use mvcc_core::EntityId;
use mvcc_durability::{CommittedVersion, RecoveredShard, ShardCheckpoint};
use mvcc_store::{gc, MvStore, StoreError, TxHandle};

/// A fixed-size array of independent [`MvStore`] shards.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<MvStore>,
}

impl ShardedStore {
    /// Creates `shards` stores, pre-populating each with the initial
    /// version of every entity in `0..entities` that maps to it.
    pub fn new(shards: usize, entities: usize, initial: Bytes) -> Self {
        assert!(shards > 0, "at least one shard");
        let stores = (0..shards)
            .map(|s| {
                MvStore::with_entities(
                    (0..entities as u32)
                        .map(EntityId)
                        .filter(|e| e.index() % shards == s),
                    initial.clone(),
                )
            })
            .collect();
        ShardedStore { shards: stores }
    }

    /// Rebuilds the sharded store from crash-recovered state (or straight
    /// from a checkpoint: the two are one type): one
    /// [`MvStore::from_recovered`] per shard, with each shard's commit
    /// counter floored at the GC watermark its checkpoint was cut at.
    pub fn from_recovered(shards: &[RecoveredShard]) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let stores = shards
            .iter()
            .map(|shard| {
                MvStore::from_recovered(
                    shard.commit_counter,
                    shard.watermark,
                    shard.chains.iter().map(|(entity, versions)| {
                        (
                            *entity,
                            versions
                                .iter()
                                .map(|v| (v.writer, v.commit_ts, v.value.clone()))
                                .collect(),
                        )
                    }),
                )
            })
            .collect();
        ShardedStore { shards: stores }
    }

    /// Cuts every shard's committed state for a checkpoint: its chains,
    /// its commit counter and the GC watermark it is cut at — the inverse
    /// of [`ShardedStore::from_recovered`].  Callers hold whatever fence
    /// makes the cut consistent with the log position they record.
    pub fn checkpoint(&self) -> Vec<ShardCheckpoint> {
        self.shards
            .iter()
            .map(|store| {
                let watermark = gc::watermark(store);
                let (commit_counter, chains) = store.committed_state();
                let chains = chains
                    .into_iter()
                    .map(|(entity, versions)| {
                        let versions = versions
                            .into_iter()
                            .map(|(writer, commit_ts, value)| CommittedVersion {
                                writer,
                                commit_ts,
                                value,
                            })
                            .collect();
                        (entity, versions)
                    })
                    .collect();
                ShardCheckpoint {
                    commit_counter,
                    watermark,
                    chains,
                }
            })
            .collect()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` if there are no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard index owning `entity`.
    pub fn shard_of(&self, entity: EntityId) -> usize {
        entity.index() % self.shards.len()
    }

    /// The store owning `entity`.
    pub fn store_for(&self, entity: EntityId) -> &MvStore {
        &self.shards[self.shard_of(entity)]
    }

    /// The store at shard index `idx`.
    pub fn store(&self, idx: usize) -> &MvStore {
        &self.shards[idx]
    }

    /// Iterates over all shards.
    pub fn iter(&self) -> impl Iterator<Item = &MvStore> {
        self.shards.iter()
    }

    /// Total number of versions across all shards (GC observability).
    pub fn total_versions(&self) -> usize {
        self.shards.iter().map(|s| s.total_versions()).sum()
    }

    /// Commits a whole group of transactions, shard by shard: for each
    /// shard, every group member that touched it is committed in one
    /// [`MvStore::commit_many`] pass (one transaction-table lock and one
    /// chain-map lock per shard per *group* instead of per transaction —
    /// the storage half of the engine's group-commit pipeline).
    ///
    /// `group` pairs each transaction with its touched-shard mask (as kept
    /// by the engine's sessions).  Returns one result per group member, in
    /// order: the `(shard index, commit timestamp)` pairs the member was
    /// assigned (the WAL's commit record needs them — shards keep
    /// independent commit counters).  A member fails if any of its shards
    /// refused the commit (a bug upstream — members are expected to be
    /// active everywhere they begun).
    pub(crate) fn commit_group(
        &self,
        group: &[(TxHandle, &[bool])],
    ) -> Vec<Result<Vec<(usize, u64)>, StoreError>> {
        let mut results: Vec<Result<Vec<(usize, u64)>, StoreError>> =
            vec![Ok(Vec::new()); group.len()];
        for (idx, store) in self.shards.iter().enumerate() {
            let members: Vec<usize> = group
                .iter()
                .enumerate()
                .filter(|(_, (_, begun))| begun.get(idx).copied().unwrap_or(false))
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue;
            }
            let handles: Vec<TxHandle> = members.iter().map(|&i| group[i].0).collect();
            for (&i, result) in members.iter().zip(store.commit_many(&handles)) {
                match (&mut results[i], result) {
                    (Ok(shards), Ok(ts)) => shards.push((idx, ts)),
                    (slot @ Ok(_), Err(e)) => *slot = Err(e),
                    (Err(_), _) => {}
                }
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::TxId;

    #[test]
    fn entities_partition_across_shards() {
        let sharded = ShardedStore::new(3, 10, Bytes::from_static(b"0"));
        assert_eq!(sharded.len(), 3);
        // Every entity lives in exactly the shard its index hashes to.
        for e in 0..10u32 {
            let entity = EntityId(e);
            let owner = sharded.shard_of(entity);
            for s in 0..3 {
                let expect = if s == owner { 1 } else { 0 };
                assert_eq!(sharded.store(s).version_count(entity), expect);
            }
        }
        // 10 initial versions in total.
        assert_eq!(sharded.total_versions(), 10);
    }

    #[test]
    fn shards_are_independent_stores() {
        let sharded = ShardedStore::new(2, 4, Bytes::from_static(b"0"));
        let (x, y) = (EntityId(0), EntityId(1)); // different shards
        assert_ne!(sharded.shard_of(x), sharded.shard_of(y));
        // The same TxId can be begun independently on each shard (the
        // engine's cross-shard path relies on this).
        let hx = sharded.store_for(x).begin(TxId(1)).unwrap();
        let hy = sharded.store_for(y).begin(TxId(1)).unwrap();
        sharded
            .store_for(x)
            .write(hx, x, Bytes::from_static(b"a"))
            .unwrap();
        sharded.store_for(x).commit(hx, false).unwrap();
        // Shard of y never heard of the write, and its commit counter is
        // untouched.
        assert_eq!(sharded.store_for(y).current_ts(), 0);
        sharded.store_for(y).abort(hy).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedStore::new(0, 4, Bytes::from_static(b"0"));
    }

    #[test]
    fn commit_group_commits_each_member_on_its_touched_shards() {
        let sharded = ShardedStore::new(2, 4, Bytes::from_static(b"0"));
        let (x, y) = (EntityId(0), EntityId(1)); // different shards
                                                 // T1 touches both shards, T2 only y's shard; T3 was never begun.
        let t1 = TxHandle { id: TxId(1) };
        let t2 = TxHandle { id: TxId(2) };
        let t3 = TxHandle { id: TxId(3) };
        for store_of in [x, y] {
            sharded.store_for(store_of).begin(t1.id).unwrap();
        }
        sharded.store_for(y).begin(t2.id).unwrap();
        sharded
            .store_for(x)
            .write(t1, x, Bytes::from_static(b"t1"))
            .unwrap();
        sharded
            .store_for(y)
            .write(t2, y, Bytes::from_static(b"t2"))
            .unwrap();
        let group: Vec<(TxHandle, &[bool])> = vec![
            (t1, &[true, true][..]),
            (t2, &[false, true][..]),
            (t3, &[true, false][..]),
        ];
        let results = sharded.commit_group(&group);
        // Each committed member reports its per-shard commit timestamps
        // (consecutive per shard, in batch order).
        assert_eq!(results[0], Ok(vec![(0, 1), (1, 1)]));
        assert_eq!(results[1], Ok(vec![(1, 2)]));
        // T3 was never begun on shard 0: its commit is refused.
        assert!(matches!(results[2], Err(StoreError::NotActive(tx)) if tx == t3.id));
        // Both commits are visible.
        let reader = TxHandle { id: TxId(9) };
        sharded.store_for(x).begin(reader.id).unwrap();
        assert_eq!(
            sharded.store_for(x).read_latest(reader, x).unwrap(),
            Bytes::from_static(b"t1")
        );
    }
}
