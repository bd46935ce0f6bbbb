//! The stage taxonomy: every pipeline point the engine traces.
//!
//! A [`Stage`] names one instrumented point in the transaction pipeline —
//! from admission service through WAL flush to failover MTTR.  The
//! enum is deliberately closed: stages index a fixed-size histogram
//! registry, so adding one is a one-line change here plus a probe at the
//! call site, and every consumer (snapshot, Display, JSON exporter)
//! picks it up for free.

use std::fmt;

/// One instrumented point in the pipeline.
///
/// Every stage records durations in microseconds except
/// [`Stage::WalFlushTxns`], a batch-size distribution in plain counts;
/// both land in the same log-linear histogram type, which keeps the
/// registry uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time spent servicing one admission ruling under its lane lock:
    /// certify, resolution, history append, and the WAL append (µs).
    AdmissionService,
    /// Time inside the certifier's admission ruling alone (µs) — the
    /// algorithmic core the scheduler-theory crates model.
    Certify,
    /// Time a commit-drain leader spent applying one group-commit batch:
    /// validation, shard publication, and durability (µs).
    GroupCommitApply,
    /// Time in the WAL append-and-flush call for a commit batch (µs) —
    /// in `Fsync` mode this is dominated by the fsync itself.
    WalFlush,
    /// Transactions made durable per WAL flush (count) — the
    /// group-commit amortization factor.
    WalFlushTxns,
    /// Whole-transaction commit latency, begin to durable commit (µs).
    CommitLatency,
    /// Replica shipped→applied time per ship batch: from the moment the
    /// shipper starts reading the primary's tail to the batch being
    /// visible to follower reads (µs).
    ReplicaApply,
    /// Failover: from the last observed heartbeat movement to the leader
    /// driver declaring the primary dead (µs).
    FailoverDetect,
    /// Failover: election — catching up candidate replicas and picking
    /// the longest log (µs).
    FailoverElect,
    /// Failover: promoting the electee (healing the log, epoch bump,
    /// recovery into an engine) and installing it in the router (µs).
    FailoverPromote,
    /// Time from a promoted engine opening on its new epoch to its first
    /// committed transaction (µs).  Summed with the three failover
    /// stages above this is the measured MTTR.
    EpochFirstCommit,
    /// Time a follower read spent pinning its transaction-consistent
    /// safe point on a replica (µs) — the read-path half of the causal
    /// trace, correlated to the apply path by the pinned safe LSN.
    FollowerReadPin,
}

/// All stages, in registry order.
const ALL: [Stage; Stage::COUNT] = [
    Stage::AdmissionService,
    Stage::Certify,
    Stage::GroupCommitApply,
    Stage::WalFlush,
    Stage::WalFlushTxns,
    Stage::CommitLatency,
    Stage::ReplicaApply,
    Stage::FailoverDetect,
    Stage::FailoverElect,
    Stage::FailoverPromote,
    Stage::EpochFirstCommit,
    Stage::FollowerReadPin,
];

impl Stage {
    /// Number of stages in the registry.
    pub const COUNT: usize = 12;

    /// Every stage, in registry order (the order histograms are laid out
    /// and the order snapshots and JSON documents list them).
    pub fn all() -> [Stage; Stage::COUNT] {
        ALL
    }

    /// The stage's dense registry index, `0..Stage::COUNT`.
    pub fn index(self) -> usize {
        match self {
            Stage::AdmissionService => 0,
            Stage::Certify => 1,
            Stage::GroupCommitApply => 2,
            Stage::WalFlush => 3,
            Stage::WalFlushTxns => 4,
            Stage::CommitLatency => 5,
            Stage::ReplicaApply => 6,
            Stage::FailoverDetect => 7,
            Stage::FailoverElect => 8,
            Stage::FailoverPromote => 9,
            Stage::EpochFirstCommit => 10,
            Stage::FollowerReadPin => 11,
        }
    }

    /// Stable kebab-case name used in Display output and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionService => "admission-service",
            Stage::Certify => "certify",
            Stage::GroupCommitApply => "group-commit-apply",
            Stage::WalFlush => "wal-flush",
            Stage::WalFlushTxns => "wal-flush-txns",
            Stage::CommitLatency => "commit-latency",
            Stage::ReplicaApply => "replica-apply",
            Stage::FailoverDetect => "failover-detect",
            Stage::FailoverElect => "failover-elect",
            Stage::FailoverPromote => "failover-promote",
            Stage::EpochFirstCommit => "epoch-first-commit",
            Stage::FollowerReadPin => "follower-read-pin",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_round_trip() {
        for (i, stage) in Stage::all().iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::all().len(), Stage::COUNT);
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let names: Vec<&str> = Stage::all().iter().map(|s| s.name()).collect();
        for (i, a) in names.iter().enumerate() {
            assert!(a.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
