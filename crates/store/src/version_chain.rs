//! Per-entity version chains.
//!
//! The paper's multiversion model: "each entity has an ordered set of values
//! associated with it; each write step adds a value at the end of the set".
//! A [`VersionChain`] is that ordered set, with enough metadata (writer,
//! commit timestamp, value bytes) for snapshot visibility and garbage
//! collection.

use bytes::Bytes;
use mvcc_core::TxId;
use serde::{Deserialize, Serialize};

/// One version of an entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The transaction that wrote the version (`TxId::INITIAL` for the
    /// initial version).
    pub writer: TxId,
    /// Commit timestamp of the writer; `None` while the writer is still
    /// active (uncommitted versions are visible only to their writer).
    pub commit_ts: Option<u64>,
    /// The value payload.
    pub value: Bytes,
}

impl Version {
    /// `true` once the writing transaction has committed.
    pub(crate) fn is_committed(&self) -> bool {
        self.commit_ts.is_some()
    }
}

/// The ordered set of versions of one entity (oldest first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionChain {
    versions: Vec<Version>,
}

/// Serializable summary of a chain used by the stats tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainStats {
    /// Total number of versions.
    pub total: usize,
    /// Number of committed versions.
    pub committed: usize,
}

impl VersionChain {
    /// Creates a chain holding only the initial version with the given
    /// payload.
    pub(crate) fn with_initial(value: Bytes) -> Self {
        VersionChain {
            versions: vec![Version {
                writer: TxId::INITIAL,
                commit_ts: Some(0),
                value,
            }],
        }
    }

    /// Creates an empty chain (no initial version).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a chain from already-committed versions (crash recovery).
    ///
    /// The versions should arrive oldest-first; recovery hands them over
    /// sorted by commit timestamp, which makes the chain's positional
    /// "latest committed" coincide with the max-timestamp version.
    pub(crate) fn from_committed(versions: impl IntoIterator<Item = (TxId, u64, Bytes)>) -> Self {
        VersionChain {
            versions: versions
                .into_iter()
                .map(|(writer, ts, value)| Version {
                    writer,
                    commit_ts: Some(ts),
                    value,
                })
                .collect(),
        }
    }

    /// Inserts an already-committed version at its timestamp position,
    /// idempotently: a `(writer, ts)` version already present is left
    /// alone (returns `false`).  Committed versions stay sorted by commit
    /// timestamp, so the positional "latest committed" keeps coinciding
    /// with the max-timestamp version — the invariant `from_committed`
    /// establishes and replication apply must preserve.  In the normal
    /// log-shipping case `ts` exceeds every existing timestamp and this
    /// is a plain push.
    pub(crate) fn insert_committed(&mut self, writer: TxId, ts: u64, value: Bytes) -> bool {
        if self
            .versions
            .iter()
            .any(|v| v.writer == writer && v.commit_ts == Some(ts))
        {
            return false;
        }
        let at = self
            .versions
            .iter()
            .rposition(|v| v.commit_ts.is_some_and(|t| t <= ts))
            .map_or(0, |i| i + 1);
        self.versions.insert(
            at,
            Version {
                writer,
                commit_ts: Some(ts),
                value,
            },
        );
        true
    }

    /// Appends a new (uncommitted) version written by `writer`.
    pub fn append(&mut self, writer: TxId, value: Bytes) {
        self.versions.push(Version {
            writer,
            commit_ts: None,
            value,
        });
    }

    /// Marks every version written by `writer` as committed at `ts`.
    pub(crate) fn commit_writer(&mut self, writer: TxId, ts: u64) {
        for v in &mut self.versions {
            if v.writer == writer && v.commit_ts.is_none() {
                v.commit_ts = Some(ts);
            }
        }
    }

    /// Removes every uncommitted version written by `writer` (abort).
    pub(crate) fn remove_writer(&mut self, writer: TxId) {
        self.versions
            .retain(|v| v.writer != writer || v.commit_ts.is_some());
    }

    /// The latest version, committed or not.
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// The latest committed version.
    pub fn latest_committed(&self) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.is_committed())
    }

    /// The latest version written by `writer`, if any.
    pub(crate) fn latest_by(&self, writer: TxId) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.writer == writer)
    }

    /// The latest version visible to a snapshot taken at `snapshot_ts`
    /// (committed with `commit_ts <= snapshot_ts`), optionally also seeing
    /// the uncommitted versions of `own` (a transaction always sees its own
    /// writes).
    pub(crate) fn visible_at(&self, snapshot_ts: u64, own: Option<TxId>) -> Option<&Version> {
        self.versions.iter().rev().find(|v| {
            own.is_some_and(|tx| v.writer == tx) || v.commit_ts.is_some_and(|ts| ts <= snapshot_ts)
        })
    }

    /// All versions, oldest first.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Number of versions in the chain.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// `true` when the chain holds no versions at all.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Drops committed versions that can no longer be observed by any
    /// snapshot at or after `watermark`: a committed version is reclaimable
    /// if a newer committed version exists with `commit_ts <= watermark`.
    /// Returns the number of versions reclaimed.
    pub fn prune(&mut self, watermark: u64) -> usize {
        // Find the newest committed version with commit_ts <= watermark; all
        // older committed versions are unreachable.
        let keep_from = self
            .versions
            .iter()
            .enumerate()
            .rev()
            .find(|(_, v)| v.commit_ts.is_some_and(|ts| ts <= watermark))
            .map_or(0, |(i, _)| i);
        if keep_from == 0 {
            return 0;
        }
        let before = self.versions.len();
        // Keep uncommitted versions regardless (their writers are active).
        let mut kept = Vec::with_capacity(before - keep_from + 1);
        for (i, v) in self.versions.drain(..).enumerate() {
            if i >= keep_from || !v.is_committed() {
                kept.push(v);
            }
        }
        self.versions = kept;
        before - self.versions.len()
    }

    /// Summary statistics.
    pub fn stats(&self) -> ChainStats {
        ChainStats {
            total: self.versions.len(),
            committed: self.versions.iter().filter(|v| v.is_committed()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn initial_version_is_committed_at_zero() {
        let chain = VersionChain::with_initial(val("v0"));
        assert_eq!(chain.len(), 1);
        let v = chain.latest_committed().unwrap();
        assert_eq!(v.writer, TxId::INITIAL);
        assert_eq!(v.commit_ts, Some(0));
    }

    #[test]
    fn append_commit_and_visibility() {
        let mut chain = VersionChain::with_initial(val("v0"));
        chain.append(TxId(1), val("v1"));
        assert!(!chain.latest().unwrap().is_committed());
        // Uncommitted versions are invisible to other snapshots...
        assert_eq!(chain.visible_at(10, None).unwrap().value, val("v0"));
        // ...but visible to their own writer.
        assert_eq!(
            chain.visible_at(10, Some(TxId(1))).unwrap().value,
            val("v1")
        );
        chain.commit_writer(TxId(1), 5);
        assert_eq!(chain.visible_at(4, None).unwrap().value, val("v0"));
        assert_eq!(chain.visible_at(5, None).unwrap().value, val("v1"));
    }

    #[test]
    fn abort_removes_uncommitted_versions_only() {
        let mut chain = VersionChain::with_initial(val("v0"));
        chain.append(TxId(1), val("v1"));
        chain.commit_writer(TxId(1), 3);
        chain.append(TxId(2), val("v2"));
        chain.remove_writer(TxId(2));
        assert_eq!(chain.len(), 2);
        chain.remove_writer(TxId(1));
        assert_eq!(chain.len(), 2, "committed versions survive abort calls");
    }

    #[test]
    fn latest_by_writer() {
        let mut chain = VersionChain::with_initial(val("v0"));
        chain.append(TxId(1), val("a"));
        chain.append(TxId(2), val("b"));
        chain.append(TxId(1), val("c"));
        assert_eq!(chain.latest_by(TxId(1)).unwrap().value, val("c"));
        assert_eq!(chain.latest_by(TxId(2)).unwrap().value, val("b"));
        assert!(chain.latest_by(TxId(9)).is_none());
    }

    #[test]
    fn prune_reclaims_unreachable_committed_versions() {
        let mut chain = VersionChain::with_initial(val("v0"));
        for (tx, ts) in [(1u32, 1u64), (2, 2), (3, 3)] {
            chain.append(TxId(tx), val("x"));
            chain.commit_writer(TxId(tx), ts);
        }
        chain.append(TxId(4), val("pending"));
        assert_eq!(chain.len(), 5);
        // Watermark 2: versions older than the one committed at 2 go away.
        let reclaimed = chain.prune(2);
        assert_eq!(reclaimed, 2);
        assert_eq!(chain.len(), 3);
        // The uncommitted version is preserved.
        assert!(chain.versions().iter().any(|v| !v.is_committed()));
        // Visibility at the watermark is unchanged.
        assert_eq!(chain.visible_at(2, None).unwrap().writer, TxId(2));
        // Pruning again at the same watermark is a no-op.
        assert_eq!(chain.prune(2), 0);
    }

    #[test]
    fn prune_with_low_watermark_keeps_everything() {
        let mut chain = VersionChain::with_initial(val("v0"));
        chain.append(TxId(1), val("a"));
        chain.commit_writer(TxId(1), 10);
        assert_eq!(chain.prune(5), 0);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn stats_count_committed_versions() {
        let mut chain = VersionChain::with_initial(val("v0"));
        chain.append(TxId(1), val("a"));
        let stats = chain.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.committed, 1);
        assert!(!chain.is_empty());
        assert!(VersionChain::new().is_empty());
    }
}
