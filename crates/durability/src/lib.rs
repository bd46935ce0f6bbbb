//! # mvcc-durability
//!
//! The durability subsystem of the MVCC engine: a write-ahead log,
//! periodic checkpoints, and class-preserving crash recovery.
//!
//! The paper's question is which multiversion histories are admissible
//! (CSR / MVCSR / MVSR); an engine that forgets its history on crash
//! cannot claim any of those guarantees for a real deployment.  This
//! crate makes the engine's admission history and committed state
//! *durable*, and — the part the theory crates get to verify — makes
//! recovery provably stay inside the certified class:
//!
//! * [`record`] — the compact binary WAL record set
//!   (begin / read / write / commit / abort / checkpoint) with per-record
//!   CRC-32 framing and explicit LSNs;
//! * [`wal`] — [`WalWriter`]: monotonically numbered segments with
//!   rotation, group appends, and one flush (at most one fsync) per
//!   group-commit batch ([`DurabilityMode::Buffered`] vs
//!   [`DurabilityMode::Fsync`]); [`scan_log`], the at-rest read;
//! * [`checkpoint`] — snapshot files of the committed store state (with
//!   the GC watermark each was cut at) bounding data replay;
//! * [`fold`] — [`LogFold`]: the one walk of WAL records into the
//!   committed projection of a log prefix (pending writes, per-shard
//!   commit groups and timestamps, open transactions and the safe point),
//!   shared by recovery and every replica;
//! * [`recovery`] — [`recover`]: newest checkpoint + log tail → committed
//!   chains, commit counters, and the durable admission history whose
//!   committed projection the offline `mvcc-classify` checkers certify;
//! * [`tail`] — [`read_tail`] over a resumable [`WalCursor`]: the
//!   log-shipping read path (`mvcc-replica`) — whole CRC-valid records
//!   only, parking on cold tails; it and [`scan_log`] are two stop
//!   policies over one private segment walk holding every trust rule;
//! * [`epoch`] — primary epochs and the fencing marker: promotion
//!   ([`WalWriter::promote_open`]) bumps the epoch and cuts a fence so a
//!   deposed primary's late appends are refused by the log and skipped by
//!   scans and tailers — the failover half of the recovery story.
//!
//! ## Why recovery preserves the certified class
//!
//! The engine's certifier guarantees that the committed projection of
//! *every prefix* of its admission history lies in its class.  A crash
//! realizes a prefix (the valid log prefix, CRC-truncated at the first
//! torn record; a log with an LSN gap is no prefix and is refused), and
//! recovery takes that prefix's committed projection:
//! transactions without a durable commit record are discarded wholesale.
//! Because the engine enforces ACA — no committed transaction ever read
//! an uncommitted version — discarding the losers never invalidates a
//! survivor's reads.  Committed-prefix closure plus ACA is the whole
//! argument, and the end-to-end tests re-check it with the classifiers
//! after every simulated crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod epoch;
pub mod fold;
pub mod record;
pub mod recovery;
pub mod tail;
pub mod wal;
mod walk;

pub use checkpoint::{
    latest_checkpoint, read_checkpoint, write_checkpoint, CheckpointData, CommittedVersion,
    ShardCheckpoint,
};
pub use epoch::{is_fence_error, read_epoch_marker, write_epoch_marker, EpochMarker};
pub use fold::{CommittedTx, Folded, LogFold};
pub use record::{crc32, decode_record, encode_record, CommitEntry, DecodeError, WalRecord};
pub use recovery::{recover, RecoveredShard, RecoveredState, RecoveryOptions, RecoveryReport};
pub use tail::{read_tail, TailBatch, WalCursor};
pub use wal::{
    list_segments, scan_log, DurabilityConfig, DurabilityMode, LogScan, ScannedRecord, WalReceipt,
    WalWriter,
};
