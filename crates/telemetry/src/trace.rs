//! Causal tracing: per-transaction span trees and the cross-cutting
//! trace log.
//!
//! Every transaction carries a [`TraceId`] from `begin`.  A *sampled*
//! transaction additionally collects a bounded tree of [`SpanRecord`]s —
//! one per pipeline stage it actually passed through — rooted at the
//! whole-transaction commit latency ([`TraceTree`]).  The tree answers
//! "why was *this* transaction slow": its dominant span names the stage
//! that ate the latency.
//!
//! Attribution rule: a span belongs to the transaction whose work it
//! measures, *not* to the thread that happened to measure it.  Admission
//! is one ruling per lane lock, so a step's certify span is always
//! measured by its own session; under group commit a drain leader applies
//! other sessions' commits, and the engine hands the measured spans back
//! through the same outcome slot that carries each commit's verdict, so
//! they land on the owner's tree without any new synchronization edge.
//!
//! Spans that cross transactions or processes — a group-commit WAL flush
//! shared by a whole batch, a replica applying a shipped commit record,
//! a follower read pinning a safe point, the promotion timeline — go to
//! the [`TraceLog`]: a bounded drop-oldest ring of [`TraceEvent`]s.
//! Cross-process correlation is by **LSN**: the primary's flush span and
//! the replica's apply span for the same commit carry the same LSN, so
//! the two logs join without shipping trace ids over the wire.

use crate::stage::Stage;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// Spans kept per transaction before the tree is truncated.  Bounds the
/// per-session memory of a traced transaction no matter how many steps
/// it takes.
pub const MAX_TRACE_SPANS: usize = 32;

/// Default event capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_LOG_CAPACITY: usize = 1024;

/// A transaction's trace identity, minted at `begin`.
///
/// The engine packs its epoch into the high bits and the transaction id
/// into the low 32, so ids stay unique across a failover (the promoted
/// engine reuses transaction numbering on a new epoch) and a violation
/// report can name the exact transactions in an offending window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Packs an epoch and a transaction id into one trace id.
    pub fn pack(epoch: u64, tx: u32) -> TraceId {
        TraceId((epoch << 32) | u64::from(tx))
    }

    /// The transaction id in the low 32 bits.
    pub fn tx(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }

    /// The epoch in the high bits.
    pub fn epoch(self) -> u64 {
        self.0 >> 32
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.epoch(), self.tx())
    }
}

/// One measured span in a transaction's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The pipeline stage this span measures.
    pub stage: Stage,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Tree depth: 1 = direct child of the transaction root, 2 = nested
    /// (e.g. the WAL flush inside the group-commit apply).
    pub depth: u8,
    /// The WAL LSN this span is correlated to, when the stage touches
    /// durability (the group-commit flush and everything downstream).
    pub lsn: Option<u64>,
}

/// A committed transaction's bounded span tree: the root is the whole
/// begin-to-durable commit latency, children are the stages it passed
/// through (depth 1) and their nested sub-spans (depth 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Whose trace this is.
    pub trace: TraceId,
    /// Root span: whole-transaction commit latency in microseconds.
    pub total_us: u64,
    /// Child spans, in recording order, at most [`MAX_TRACE_SPANS`].
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the tree hit its bound.
    pub truncated: u64,
}

impl TraceTree {
    /// A fresh tree for `trace` with no spans yet.
    pub fn new(trace: TraceId) -> TraceTree {
        TraceTree {
            trace,
            total_us: 0,
            spans: Vec::new(),
            truncated: 0,
        }
    }

    /// Appends a span, enforcing the [`MAX_TRACE_SPANS`] bound.
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() < MAX_TRACE_SPANS {
            self.spans.push(span);
        } else {
            self.truncated += 1;
        }
    }

    /// The stage that dominates this transaction's recorded latency: the
    /// depth-1 span with the largest duration.  `None` only when no span
    /// was recorded at all.
    pub fn dominant_stage(&self) -> Option<Stage> {
        self.spans
            .iter()
            .filter(|s| s.depth == 1)
            .max_by_key(|s| s.dur_us)
            .map(|s| s.stage)
    }

    /// The LSN of the first durability-correlated span, if any — the key
    /// a cross-process join uses.
    pub fn flush_lsn(&self) -> Option<u64> {
        self.spans.iter().find_map(|s| s.lsn)
    }
}

/// One cross-cutting span: work not owned by a single live session
/// (replica apply, follower-read pin, promotion phases, the shared WAL
/// flush), timestamped relative to trace-log creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the log was created.
    pub at_us: u64,
    /// The stage this span measures.
    pub stage: Stage,
    /// The owning transaction's trace, when one is known in-process.
    pub trace: Option<TraceId>,
    /// The WAL LSN correlating this span across processes, if any.
    pub lsn: Option<u64>,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug)]
struct TraceRing {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded drop-oldest ring of cross-cutting [`TraceEvent`]s.
///
/// Same design rationale as the flight recorder: these events are
/// per-batch or per-incident (never per step), so a short mutex is
/// cheaper than it looks, and drop-oldest keeps memory flat over a
/// soak while retaining the recent past a post-mortem joins against.
#[derive(Debug)]
pub struct TraceLog {
    start: Instant,
    capacity: usize,
    ring: TrackedMutex<TraceRing>,
}

impl TraceLog {
    /// A log holding at most `capacity` events (zero is bumped to 1).
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            start: Instant::now(),
            capacity: capacity.max(1),
            ring: TrackedMutex::new(
                lock_class!("telemetry.trace-log"),
                TraceRing {
                    events: VecDeque::new(),
                    dropped: 0,
                },
            ),
        }
    }

    /// Records one cross-cutting span, timestamped now.
    pub fn record(&self, stage: Stage, trace: Option<TraceId>, lsn: Option<u64>, dur_us: u64) {
        let at_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut ring = self.ring.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent {
            at_us,
            stage,
            trace,
            lsn,
            dur_us,
        });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// True if no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Copies the held events out, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().events.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_pack_epoch_and_tx_and_render() {
        let id = TraceId::pack(3, 41);
        assert_eq!(id.epoch(), 3);
        assert_eq!(id.tx(), 41);
        assert_eq!(id.to_string(), "t3.41");
        assert_ne!(
            TraceId::pack(0, 41),
            id,
            "epochs disambiguate reused tx ids"
        );
    }

    #[test]
    fn a_tree_is_bounded_and_counts_truncation() {
        let mut tree = TraceTree::new(TraceId::pack(0, 1));
        for i in 0..(MAX_TRACE_SPANS + 5) {
            tree.push(SpanRecord {
                stage: Stage::Certify,
                dur_us: i as u64,
                depth: 1,
                lsn: None,
            });
        }
        assert_eq!(tree.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(tree.truncated, 5);
    }

    #[test]
    fn dominant_stage_is_the_largest_depth_one_span() {
        let mut tree = TraceTree::new(TraceId::pack(0, 2));
        assert_eq!(tree.dominant_stage(), None, "no spans, nothing to blame");
        tree.push(SpanRecord {
            stage: Stage::Certify,
            dur_us: 10,
            depth: 1,
            lsn: None,
        });
        tree.push(SpanRecord {
            stage: Stage::GroupCommitApply,
            dur_us: 90,
            depth: 1,
            lsn: None,
        });
        // A huge *nested* span must not outrank its depth-1 parents.
        tree.push(SpanRecord {
            stage: Stage::WalFlush,
            dur_us: 500,
            depth: 2,
            lsn: Some(7),
        });
        assert_eq!(tree.dominant_stage(), Some(Stage::GroupCommitApply));
        assert_eq!(tree.flush_lsn(), Some(7));
    }

    #[test]
    fn the_trace_log_drops_oldest_at_capacity() {
        let log = TraceLog::new(2);
        for lsn in 0..5u64 {
            log.record(Stage::ReplicaApply, None, Some(lsn), 1);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let lsns: Vec<Option<u64>> = log.events().iter().map(|e| e.lsn).collect();
        assert_eq!(lsns, vec![Some(3), Some(4)]);
        assert!(TraceLog::new(0).is_empty());
    }

    #[test]
    fn trace_log_timestamps_are_nondecreasing() {
        let log = TraceLog::new(8);
        log.record(Stage::WalFlush, Some(TraceId::pack(0, 1)), Some(1), 3);
        log.record(Stage::WalFlush, None, Some(2), 4);
        let events = log.events();
        assert!(events[0].at_us <= events[1].at_us);
        assert_eq!(events[0].trace, Some(TraceId::pack(0, 1)));
    }
}
