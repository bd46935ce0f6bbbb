//! The engine and its multi-threaded session API.
//!
//! An [`Engine`] is a [`ShardedStore`] plus an admission pipeline
//! ([`crate::pipeline`]) ruling steps with one
//! [`Certifier`](crate::Certifier) per admission lane.  Sessions ([`Session`]) are handles usable from any OS thread:
//! `begin` allocates a transaction id, `read`/`write` submit each step to
//! the pipeline and then execute it on the owning shard, `commit`/`abort`
//! finish the transaction on every shard it touched.
//!
//! ## Serialization points and races
//!
//! An admission lane is the engine's serialization point (one global lane
//! for every certifier whose class depends on cross-entity order): steps
//! enter the append-only [`History`] in exactly the order the certifier
//! ruled on them — one ruling per lane lock, so the order is total — which
//! makes the recorded history the ground truth the paper's model speaks
//! about; the offline classifiers check *that* sequence.
//! Store effects are applied outside the lane for concurrency, with four
//! engine rules keeping values coherent:
//!
//! 1. a write's version is appended to its shard before the writing
//!    session takes any further step, so an explicitly assigned version
//!    (multiversion certifiers) can only be missing if its writer is still
//!    in flight — and then rule 2 applies;
//! 2. **ACA** (avoids cascading aborts): a read assigned a version whose
//!    writer has not committed aborts the reader ([`AbortReason::DirtyRead`]);
//!    committed transactions therefore never depend on uncommitted data,
//!    and MVTO's committed histories stay provably MVSR;
//! 3. shard commits are applied *before* the certifier learns of the
//!    commit — group commit batches preserve this per batch — so a
//!    certifier that releases admission state at commit (2PL's locks) can
//!    never expose a reader to a not-yet-applied commit;
//! 4. **reads are pinned at admission**: a single-version certifier's
//!    "latest" read is resolved on the lane to the last *admitted* write
//!    of the entity (then subject to rule 2), never to whatever the store
//!    happens to hold when the read executes — so the values served always
//!    tell the same story as the history the classifiers certify, and
//!    admitted-but-unapplied or committed-after-admission writes can't
//!    leak in.
//!
//! Cross-shard commits of snapshot-isolation sessions serialize on the
//! group-commit drain so that first-committer-wins validation and the
//! subsequent per-shard commits are atomic with respect to each other.

use crate::certifier::{CertifierKind, HistoryClass, ReadPlan};
use crate::metrics::{AbortReason, EngineMetrics};
use crate::pipeline::{AdmissionPipeline, ChaosHook, CommitOutcome, HistoryLog, StepOutcome};
use crate::shard::ShardedStore;
use bytes::Bytes;
use mvcc_core::{EntityId, Schedule, Step, TxId};
use mvcc_durability::{
    is_fence_error, list_segments, CheckpointData, DurabilityConfig, RecoveredState,
    RecoveryOptions, RecoveryReport, ShardCheckpoint, WalRecord, WalWriter,
};
use mvcc_store::{gc, StoreError, TxHandle};
use mvcc_telemetry::{EventKind, Telemetry, TelemetryMode};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the session API.  Every variant except
/// [`EngineError::NotActive`] means the engine has already aborted the
/// session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The certifier rejected the step; the transaction was aborted.
    Rejected(Step),
    /// The step would have observed an uncommitted version (ACA rule); the
    /// transaction was aborted.
    DirtyRead(Step, TxId),
    /// The assigned version was reclaimed by GC before the read executed;
    /// the transaction was aborted.
    SnapshotTooOld(EntityId, TxId),
    /// First-committer-wins validation failed at commit; the transaction
    /// was aborted.
    WriteConflict(EntityId, TxId),
    /// The session already committed or aborted.
    NotActive(TxId),
    /// An unexpected store-level failure (a bug if it ever surfaces).
    Store(StoreError),
    /// The engine has been deposed: a replica was promoted over its WAL
    /// epoch, so no commit can ever be made durable here again.  The
    /// transaction was aborted; the client should re-route to the new
    /// primary and retry there.
    Deposed,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rejected(step) => write!(f, "certifier rejected {step}"),
            EngineError::DirtyRead(step, writer) => {
                write!(f, "{step} would read uncommitted data of {writer}")
            }
            EngineError::SnapshotTooOld(entity, writer) => {
                write!(f, "version of {entity} by {writer} already reclaimed")
            }
            EngineError::WriteConflict(entity, winner) => {
                write!(f, "write-write conflict on {entity} against {winner}")
            }
            EngineError::NotActive(tx) => write!(f, "{tx} is not active"),
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::Deposed => {
                write!(
                    f,
                    "engine deposed: its WAL epoch was superseded by a promoted replica"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of store shards.
    pub shards: usize,
    /// Number of pre-created entities (`EntityId(0)..EntityId(entities)`),
    /// each initialized with `initial`.
    pub entities: usize,
    /// Initial version payload for every entity.
    pub initial: Bytes,
    /// Record the admission history (required for offline classification;
    /// turn off for long benchmark runs).
    pub record_history: bool,
    /// `Some(n)`: keep at most `n` admitted steps in the in-memory
    /// history, dropping the oldest (ring mode) and counting drops in
    /// [`History::dropped`] — bounds memory on long closed-loop and
    /// replication soak runs.  `None` (the default) keeps everything,
    /// which is what offline classification needs.
    pub history_capacity: Option<usize>,
    /// Durability: off (default — all pre-durability behavior), or a
    /// write-ahead log in buffered or fsync mode (experiment E14).  With
    /// durability on, [`Engine::new`] starts a fresh log (the directory
    /// must not already hold one) and [`Engine::recover`] resumes an
    /// existing one.
    pub durability: DurabilityConfig,
    /// Scripted failpoints for the deterministic chaos harness (`None` —
    /// the default — in production: a single `Option` check of overhead).
    /// The hook fires at every [`KillSite`](crate::KillSite) the pipeline
    /// passes; the failover tests install one that freezes the engine at
    /// one scripted site.
    pub chaos: Option<ChaosHook>,
    /// Per-stage latency tracing and the flight recorder
    /// ([`TelemetryMode::On`]); off by default — with telemetry off the
    /// stage probes compile down to a `None` check and no clock is ever
    /// read (experiment E17's overhead guard holds the on/off difference
    /// under 5%).
    pub telemetry: TelemetryMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 2,
            entities: 16,
            initial: Bytes::from_static(b"0"),
            record_history: true,
            history_capacity: None,
            durability: DurabilityConfig::off(),
            chaos: None,
            telemetry: TelemetryMode::default(),
        }
    }
}

/// The admission history of a run: the admitted steps in certifier order
/// plus the set of transactions that committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    /// Every admitted step, in admission order (including steps of
    /// transactions that later aborted).  In ring mode
    /// ([`EngineConfig::history_capacity`]) this is only the newest
    /// window; [`History::dropped`] counts what fell off the front.
    pub admitted: Vec<Step>,
    /// Admitted steps dropped by ring mode (0 in the default unbounded
    /// mode).  A history with drops is no longer classifiable as a whole
    /// — [`History::is_complete`] says which case holds.
    pub dropped: u64,
    /// The highest transaction id among the dropped steps (`None` when
    /// nothing was dropped).  Transaction ids are allocated monotonically,
    /// so every transaction with an id *above* this horizon has all of its
    /// admitted steps still in the window — the projection
    /// `History::windowed_schedule` builds on for online checking.
    pub drop_horizon: Option<TxId>,
    /// Transactions that committed.
    pub committed: BTreeSet<TxId>,
}

impl History {
    /// `true` when no admitted step was dropped: the committed projection
    /// is the full history the certifier ruled on, safe to classify.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// The committed projection: admitted steps of committed transactions,
    /// in admission order — the object the offline classifiers check.
    pub fn committed_schedule(&self) -> Schedule {
        Schedule::from_steps(
            self.admitted
                .iter()
                .copied()
                .filter(|s| self.committed.contains(&s.tx))
                .collect(),
        )
    }

    /// The classifiable *window* of a ring-mode history: the committed
    /// projection restricted to transactions wholly above
    /// [`History::drop_horizon`] — every one of their admitted steps is
    /// still in the window, so the projection is a genuine sub-schedule
    /// (no transaction with half its steps missing).  On a complete
    /// history this is exactly [`History::committed_schedule`].
    ///
    /// Soundness caveat for checkers: a window is a transaction-subset
    /// projection of the full committed history, so only properties
    /// *closed under transaction-subset projection* may be asserted on
    /// it.  Conflict-graph classes qualify (CSR and MVCSR: a subgraph of
    /// an acyclic conflict graph is acyclic); exact MVSR membership does
    /// not.  The online watchdog restricts itself accordingly.
    pub(crate) fn windowed_schedule(&self) -> Schedule {
        match self.drop_horizon {
            None => self.committed_schedule(),
            Some(horizon) => Schedule::from_steps(
                self.admitted
                    .iter()
                    .copied()
                    .filter(|s| s.tx > horizon && self.committed.contains(&s.tx))
                    .collect(),
            ),
        }
    }
}

/// A concurrent, sharded, multi-session MVCC engine.
pub struct Engine {
    shards: ShardedStore,
    pipeline: AdmissionPipeline,
    history: HistoryLog,
    metrics: Arc<EngineMetrics>,
    next_tx: AtomicU32,
    kind: CertifierKind,
    /// The write-ahead log (durability on) — shared with the pipeline,
    /// which owns the hot-path appends; the engine itself logs session
    /// lifecycle records and checkpoint markers.
    wal: Option<Arc<WalWriter>>,
    durability: DurabilityConfig,
    /// Sequence number of the last checkpoint cut (or recovered from).
    checkpoint_seq: AtomicU64,
    /// The primary epoch this engine's WAL records are stamped with
    /// (0 fresh / non-durable; bumped by [`Engine::promote_recover`]).
    epoch: u64,
    /// When this engine instance was constructed — the zero point of the
    /// failover timeline: a promoted engine's first commit records
    /// `opened_at.elapsed()` as the tail of measured MTTR.
    opened_at: Instant,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("kind", &self.kind)
            .field("shards", &self.shards.len())
            .field("admission_lanes", &self.pipeline.lane_count())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine with a fresh certifier of `kind`.
    ///
    /// With durability configured, this starts a *fresh* write-ahead log
    /// and panics if the directory already holds one — silently appending
    /// a new engine's records to an old engine's log would corrupt both
    /// histories.  Use [`Engine::recover`] to resume an existing log
    /// (it also handles an empty directory, recovering to the fresh
    /// state).
    pub fn new(kind: CertifierKind, config: EngineConfig) -> Self {
        let wal = config.durability.is_on().then(|| {
            let dir = &config.durability.dir;
            // lint: allow(unwrap) — startup path: a failed WAL directory create is fatal
            std::fs::create_dir_all(dir).expect("create WAL directory");
            assert!(
                // lint: allow(unwrap) — startup path: an unreadable WAL directory is fatal
                list_segments(dir).expect("list WAL directory").is_empty(),
                "durability dir {dir:?} already holds a WAL; use Engine::recover to resume it"
            );
            Arc::new(
                WalWriter::open(dir, config.durability.mode, config.durability.segment_bytes)
                    // lint: allow(unwrap) — startup path: a failed fresh-log open is fatal
                    .expect("open WAL for appending"),
            )
        });
        let epoch = wal.as_ref().map_or(0, |w| w.epoch());
        let metrics = Arc::new(EngineMetrics::with_telemetry(
            config.shards,
            config.telemetry.is_on().then(Telemetry::new),
        ));
        metrics.record_epoch(epoch);
        Engine {
            shards: ShardedStore::new(config.shards, config.entities, config.initial),
            pipeline: AdmissionPipeline::new(
                kind,
                config.shards,
                wal.clone(),
                config.chaos.clone(),
            ),
            history: HistoryLog::new(config.record_history, config.history_capacity),
            metrics,
            next_tx: AtomicU32::new(1),
            kind,
            wal,
            durability: config.durability,
            checkpoint_seq: AtomicU64::new(0),
            epoch,
            // lint: allow(clock) — engine uptime anchor for the flight recorder's timeline
            opened_at: Instant::now(),
        }
    }

    /// Rebuilds an engine from the write-ahead log in
    /// `config.durability.dir` (newest checkpoint + log tail) and reopens
    /// the log for appending, so the resumed engine keeps extending the
    /// same durable history.  An empty directory recovers to the fresh
    /// state, which makes `recover` the universal "open" for durable
    /// engines.
    ///
    /// The recovered engine serves exactly the WAL's committed
    /// projection: uncommitted transactions are discarded (ACA carried
    /// across the crash), a fresh certifier is seeded with the recovered
    /// committed set and per-entity newest writers, and `next_tx`
    /// continues above every id in the log so resumed sessions never
    /// collide with recovered ones.
    pub fn recover(
        kind: CertifierKind,
        config: EngineConfig,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        assert!(
            config.durability.is_on(),
            "Engine::recover requires durability to be on"
        );
        let dir = config.durability.dir.clone();
        std::fs::create_dir_all(&dir)?;
        let recovered = mvcc_durability::recover(&dir, &Self::recovery_options(&config))?;
        // Reopening the writer physically truncates the torn tail the
        // recovery scan ignored, so appends extend the recovered prefix.
        let wal = Arc::new(WalWriter::open(
            &dir,
            config.durability.mode,
            config.durability.segment_bytes,
        )?);
        Ok(Self::assemble_recovered(kind, config, Some(wal), recovered))
    }

    /// Promotes the log in `config.durability.dir` to a new primary epoch
    /// and recovers an engine over it — failover's "take over the log"
    /// step, run by a replica that has finished absorbing the reachable
    /// prefix ([`WalWriter::promote_open`] does the fencing work).
    ///
    /// The order is the reverse of [`Engine::recover`]: the *promotion*
    /// heals the log first — fence cut at the end of the valid committed
    /// prefix, stale-epoch residue discarded, a fresh segment lineage
    /// opened under the bumped epoch — and only then is the healed prefix
    /// recovered (checkpoint + tail, ACA discard of commit-less
    /// transactions) and the engine assembled around the already-promoted
    /// writer.  From the moment the epoch marker lands, the deposed
    /// primary's appends and flushes are refused by the log, so nothing
    /// it does concurrently can leak past the fence this recovery read.
    pub fn promote_recover(
        kind: CertifierKind,
        config: EngineConfig,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        assert!(
            config.durability.is_on(),
            "Engine::promote_recover requires durability to be on"
        );
        let dir = config.durability.dir.clone();
        std::fs::create_dir_all(&dir)?;
        // Fence-then-recover, declared for the lock-order checker: the
        // promoted writer's lock exists (and the epoch fence has landed)
        // *before* any store lock of the new engine, so recovery-time store
        // traffic is sequenced after the fence rather than nested inside a
        // log append.  The declaration documents the sanctioned direction —
        // the runtime never holds `wal.writer` while taking store locks, and
        // recovery never appends while seeding chains.
        mvcc_analysis::lockdep::declare_order(
            "wal.writer",
            "store.chains",
            "promotion fences the log epoch (promote_open) before recovery \
             replays the healed prefix into fresh stores; the deposed \
             primary's appends are refused from the fence onward",
        );
        let wal = Arc::new(WalWriter::promote_open(
            &dir,
            config.durability.mode,
            config.durability.segment_bytes,
        )?);
        let recovered = mvcc_durability::recover(&dir, &Self::recovery_options(&config))?;
        Ok(Self::assemble_recovered(kind, config, Some(wal), recovered))
    }

    /// Recovers an engine that believes it owns epoch `owned_epoch` —
    /// the restart path for a primary that may have been deposed while it
    /// was down.  If the log's epoch marker still matches (or nothing was
    /// ever promoted), this is exactly [`Engine::recover`].  If the
    /// marker has moved past `owned_epoch`, a replica was promoted over
    /// this engine's log: the engine comes up *read-only* — the committed
    /// prefix up to the promotion fence is served, but the WAL is not
    /// reopened and every commit is refused with
    /// [`EngineError::Deposed`].
    pub fn recover_as(
        kind: CertifierKind,
        config: EngineConfig,
        owned_epoch: u64,
    ) -> std::io::Result<(Arc<Self>, RecoveryReport)> {
        assert!(
            config.durability.is_on(),
            "Engine::recover_as requires durability to be on"
        );
        let dir = config.durability.dir.clone();
        std::fs::create_dir_all(&dir)?;
        let current = mvcc_durability::read_epoch_marker(&dir)?.map_or(0, |m| m.epoch);
        if current <= owned_epoch {
            return Self::recover(kind, config);
        }
        // Superseded: serve the durable committed prefix, refuse writes.
        let recovered = mvcc_durability::recover(&dir, &Self::recovery_options(&config))?;
        let (engine, report) =
            Self::assemble_recovered_at(kind, config, None, recovered, owned_epoch);
        engine.pipeline.depose();
        Ok((engine, report))
    }

    fn recovery_options(config: &EngineConfig) -> RecoveryOptions {
        RecoveryOptions {
            shards: config.shards,
            entities: config.entities,
            initial: config.initial.clone(),
        }
    }

    /// Builds the engine around an already-recovered state and (for
    /// writable engines) an already-opened WAL writer — the shared tail
    /// of [`Engine::recover`], [`Engine::promote_recover`] and the fenced
    /// read-only path of [`Engine::recover_as`].
    fn assemble_recovered(
        kind: CertifierKind,
        config: EngineConfig,
        wal: Option<Arc<WalWriter>>,
        recovered: RecoveredState,
    ) -> (Arc<Self>, RecoveryReport) {
        let epoch = wal.as_ref().map_or(0, |w| w.epoch());
        Self::assemble_recovered_at(kind, config, wal, recovered, epoch)
    }

    /// [`Engine::assemble_recovered`] with an explicit engine epoch — the
    /// fenced read-only path has no writer to take the epoch from but
    /// still reports the (stale) epoch it owns.
    fn assemble_recovered_at(
        kind: CertifierKind,
        config: EngineConfig,
        wal: Option<Arc<WalWriter>>,
        recovered: RecoveredState,
        epoch: u64,
    ) -> (Arc<Self>, RecoveryReport) {
        let shards = ShardedStore::from_recovered(&recovered.shards);
        let pipeline =
            AdmissionPipeline::new(kind, config.shards, wal.clone(), config.chaos.clone());
        // Everything the reopened log holds was read back from disk, so
        // it is flushed by definition: seed the durable horizon there,
        // or a post-recovery read router would treat the whole recovered
        // history as not-yet-observable and serve arbitrarily stale
        // `Latest` reads.
        if let Some(lsn) = wal.as_ref().and_then(|w| w.last_lsn()) {
            pipeline.note_durable(lsn);
        }
        // The newest committed writer per entity: what a resumed
        // single-version "latest" read must resolve to.
        let latest_writers: Vec<(EntityId, TxId)> = recovered
            .shards
            .iter()
            .flat_map(|shard| shard.chains.iter())
            .filter_map(|(entity, versions)| {
                versions
                    .last()
                    .filter(|v| v.writer != TxId::INITIAL)
                    .map(|v| (*entity, v.writer))
            })
            .collect();
        pipeline.seed_recovered(&recovered.committed, &latest_writers);
        let history = HistoryLog::new(config.record_history, config.history_capacity);
        history.seed(&recovered.admitted, &recovered.committed);
        let report = recovered.report.clone();
        let metrics = Arc::new(EngineMetrics::with_telemetry(
            config.shards,
            config.telemetry.is_on().then(Telemetry::new),
        ));
        metrics.record_epoch(epoch);
        let engine = Arc::new(Engine {
            shards,
            pipeline,
            history,
            metrics,
            next_tx: AtomicU32::new(recovered.next_tx),
            kind,
            wal,
            durability: config.durability,
            checkpoint_seq: AtomicU64::new(report.checkpoint_seq.unwrap_or(0)),
            epoch,
            // lint: allow(clock) — engine uptime anchor for the flight recorder's timeline
            opened_at: Instant::now(),
        });
        (engine, report)
    }

    /// Cuts a checkpoint: the committed state of every shard (plus the GC
    /// watermark each was cut at) is written to a checkpoint file, so
    /// recovery replays only the log tail after it.  Returns the new
    /// checkpoint's sequence number.
    ///
    /// The checkpoint is *fuzzy*: commits may land while the shards are
    /// being snapshotted.  The replay cursor is sampled before the
    /// snapshot and replay is idempotent per version, so the overlap is
    /// harmless (see `mvcc-durability`'s checkpoint docs).
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let wal = self
            .wal
            .as_ref()
            // lint: allow(unwrap) — documented panic: checkpoint requires durability on
            .expect("checkpoint requires durability to be on");
        // The cut runs under the group-commit drain lock: no commit can
        // then sit between its shard apply and its WAL record append, and
        // the flush barrier makes every record covering the snapshot
        // durable first — so the checkpoint can never persist a version
        // whose commit the recovered log does not know.  The replay
        // cursor is sampled inside the same fence, after the flush.
        let (replay_from_lsn, shards) = self.pipeline.checkpoint_cut(
            &self.metrics,
            || -> std::io::Result<(u64, Vec<ShardCheckpoint>)> {
                wal.flush()?;
                let replay_from_lsn = wal.last_lsn().map_or(0, |lsn| lsn + 1);
                Ok((replay_from_lsn, self.shards.checkpoint()))
            },
        )?;
        let seq = self.checkpoint_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.flight(EventKind::CheckpointCut { seq });
        let data = CheckpointData {
            seq,
            replay_from_lsn,
            next_tx: self.next_tx.load(Ordering::Relaxed),
            shards,
        };
        mvcc_durability::write_checkpoint(&self.durability.dir, &data)?;
        // Announce the checkpoint in the log and make the announcement
        // durable with the log's usual flush discipline.  The marker's
        // flush is deliberately *not* recorded as a WAL flush: those
        // counters measure commits-per-flush (the group-commit
        // amortization E14 reports), and a periodic checkpointer would
        // otherwise dilute the mean with zero-commit flushes.
        let receipt = wal.append_and_flush(&[WalRecord::Checkpoint { seq }])?;
        // The marker's flush made everything before it durable too.
        self.pipeline.note_flushed(&receipt);
        self.metrics
            .record_wal_append(receipt.records, receipt.bytes);
        self.metrics.record_checkpoint();
        Ok(seq)
    }

    /// The durability configuration the engine runs under.
    pub fn durability(&self) -> &DurabilityConfig {
        &self.durability
    }

    /// The primary epoch this engine's WAL records carry (0 for a fresh
    /// or non-durable engine; bumped by every [`Engine::promote_recover`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` once this engine has been fenced out by a promotion over
    /// its WAL epoch: every commit is (and will forever be) refused with
    /// [`EngineError::Deposed`]; reads of the already-acknowledged state
    /// still work.
    pub fn is_deposed(&self) -> bool {
        self.pipeline.is_deposed()
    }

    /// The certifier configuration the engine runs.
    pub fn kind(&self) -> CertifierKind {
        self.kind
    }

    /// The class guaranteed for the committed history.
    pub fn class(&self) -> HistoryClass {
        self.kind.class()
    }

    /// The engine's metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// A shareable handle to the engine's metrics, for components that
    /// outlive a borrow (the replication shipper and router record their
    /// counters here so one `Display` block tells the whole story).
    pub fn metrics_handle(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// LSN of the newest record *appended* to the write-ahead log
    /// (buffered appends included), or `None` with durability off / an
    /// empty log.
    pub fn wal_last_lsn(&self) -> Option<u64> {
        self.wal.as_ref().and_then(|w| w.last_lsn())
    }

    /// LSN of the newest record known *flushed* per the durability mode —
    /// the horizon a log-shipping replica can actually observe — or
    /// `None` with durability off / nothing flushed yet.  Buffered-only
    /// appends (step records awaiting their batch's commit flush) sit
    /// above this.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.pipeline.durable_lsn()
    }

    /// The sharded store (observability and tests).
    pub fn shards(&self) -> &ShardedStore {
        &self.shards
    }

    /// Begins a new session.  The engine allocates the transaction id.
    pub fn begin(self: &Arc<Self>) -> Session {
        let tx = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        self.metrics.record_begin();
        Session {
            engine: Arc::clone(self),
            tx,
            begun_shards: vec![false; self.shards.len()],
            active: true,
            // The begin record rides along with the first admitted step's
            // WAL append (keeping `begin` itself off the WAL mutex).
            wal_begin_pending: self.wal.is_some(),
            // lint: allow(clock) — commit latency measurement feeding EngineMetrics
            started: Instant::now(),
        }
    }

    /// A copy of the admission history (empty if recording is off).
    pub fn history(&self) -> History {
        self.history.snapshot()
    }

    /// Runs one GC pass over every shard under each shard's
    /// active-snapshot watermark; returns the number of reclaimed
    /// versions.  The background [`crate::GcDriver`] calls this
    /// periodically.
    pub fn collect_garbage(&self) -> usize {
        let mut reclaimed = 0;
        for store in self.shards.iter() {
            let report = gc::collect_with_watermark(store, gc::watermark(store));
            reclaimed += report.reclaimed;
        }
        self.metrics.record_gc(reclaimed);
        reclaimed
    }
}

/// A transaction handle bound to an [`Engine`].  Sessions are `Send`:
/// worker threads own their sessions and drive them to commit or abort.
/// Dropping an active session aborts it.
#[derive(Debug)]
pub struct Session {
    engine: Arc<Engine>,
    tx: TxId,
    /// Which shards this transaction has begun on (touched).
    begun_shards: Vec<bool>,
    active: bool,
    /// `true` until the transaction's begin record has been handed to the
    /// WAL (with the first step's append); always `false` with durability
    /// off.
    wal_begin_pending: bool,
    started: Instant,
}

impl Session {
    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.tx
    }

    /// `true` until the session commits or aborts.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn ensure_active(&self) -> Result<(), EngineError> {
        if self.active {
            Ok(())
        } else {
            Err(EngineError::NotActive(self.tx))
        }
    }

    /// Lazily begins the transaction on the shard owning `entity`.
    fn touch(&mut self, entity: EntityId) -> Result<usize, EngineError> {
        let idx = self.engine.shards.shard_of(entity);
        if !self.begun_shards[idx] {
            self.engine.shards.store(idx).begin(self.tx)?;
            self.begun_shards[idx] = true;
        }
        Ok(idx)
    }

    /// Aborts after the ruling lane for `entity` already processed the
    /// abort: the remaining lanes are notified, store state is purged and
    /// the abort is recorded.
    fn abort_after_ruling(&mut self, reason: AbortReason, entity: EntityId) {
        let ruled_on = self
            .engine
            .pipeline
            .ruling_lane(entity, &self.engine.shards);
        self.engine.pipeline.notify_abort(self.tx, Some(ruled_on));
        self.finish_abort_inner(reason, Some(entity));
    }

    /// Reads `entity`, served per the certifier's ruling.  On any error
    /// except [`EngineError::NotActive`] the session is already aborted.
    pub fn read(&mut self, entity: EntityId) -> Result<Bytes, EngineError> {
        self.ensure_active()?;
        let step = Step::read(self.tx, entity);
        let log_begin = std::mem::take(&mut self.wal_begin_pending);
        let outcome = self.engine.pipeline.submit_step(
            step,
            None,
            log_begin,
            &self.engine.shards,
            &self.engine.history,
            &self.engine.metrics,
        );
        let plan = match outcome {
            StepOutcome::Rejected => {
                self.abort_after_ruling(AbortReason::CertifierReject, entity);
                return Err(EngineError::Rejected(step));
            }
            StepOutcome::DirtyRead(writer) => {
                self.abort_after_ruling(AbortReason::DirtyRead, entity);
                return Err(EngineError::DirtyRead(step, writer));
            }
            StepOutcome::Admitted(Some(plan)) => plan,
            StepOutcome::Admitted(None) => unreachable!("read step admitted as write"),
        };
        let idx = self.touch(entity)?;
        let store = self.engine.shards.store(idx);
        let handle = TxHandle { id: self.tx };
        let result = match plan {
            ReadPlan::Latest => store.read_latest(handle, entity),
            ReadPlan::Snapshot => store.read_snapshot(handle, entity),
            ReadPlan::Version(source) => store.read_version(handle, entity, source),
        };
        match result {
            Ok(value) => {
                self.engine.metrics.record_read(idx);
                Ok(value)
            }
            Err(StoreError::NoSuchVersion(e, writer)) => {
                // The assigned version was committed (ACA held) but GC has
                // since reclaimed it: the multiversion analogue of
                // "snapshot too old".
                self.abort_with(AbortReason::SnapshotTooOld, Some(e));
                Err(EngineError::SnapshotTooOld(e, writer))
            }
            Err(e) => {
                self.abort_with(AbortReason::Explicit, Some(entity));
                Err(EngineError::Store(e))
            }
        }
    }

    /// Writes a new version of `entity`.  On any error except
    /// [`EngineError::NotActive`] the session is already aborted.
    pub fn write(&mut self, entity: EntityId, value: Bytes) -> Result<(), EngineError> {
        self.ensure_active()?;
        let step = Step::write(self.tx, entity);
        let log_begin = std::mem::take(&mut self.wal_begin_pending);
        let outcome = self.engine.pipeline.submit_step(
            step,
            Some(&value),
            log_begin,
            &self.engine.shards,
            &self.engine.history,
            &self.engine.metrics,
        );
        match outcome {
            StepOutcome::Rejected => {
                self.abort_after_ruling(AbortReason::CertifierReject, entity);
                return Err(EngineError::Rejected(step));
            }
            StepOutcome::DirtyRead(writer) => {
                unreachable!("write step ruled a dirty read of {writer}")
            }
            StepOutcome::Admitted(_) => {}
        }
        let idx = self.touch(entity)?;
        let store = self.engine.shards.store(idx);
        store.write(TxHandle { id: self.tx }, entity, value)?;
        self.engine.metrics.record_write(idx);
        Ok(())
    }

    /// Commits the transaction on every touched shard via the group-commit
    /// lane.  Under snapshot isolation this is where first-committer-wins
    /// validation runs; on conflict the session is aborted and
    /// [`EngineError::WriteConflict`] returned.
    pub fn commit(self) -> Result<(), EngineError> {
        self.commit_durable().map(|_| ())
    }

    /// [`Session::commit`] that also reports *where* the commit landed in
    /// the write-ahead log: the LSN of the batch's commit record (`None`
    /// with durability off).  A client that later wants read-your-writes
    /// on a read replica hands this LSN to the router's wait-for-LSN.
    pub fn commit_durable(mut self) -> Result<Option<u64>, EngineError> {
        self.ensure_active()?;
        let outcome = self.engine.pipeline.submit_commit(
            self.tx,
            &self.begun_shards,
            &self.engine.shards,
            &self.engine.history,
            &self.engine.metrics,
        );
        match outcome {
            CommitOutcome::Committed { wal_lsn } => {
                self.active = false;
                self.engine.metrics.record_commit(self.started.elapsed());
                if self.engine.epoch > 0 {
                    // First commit under a promoted epoch closes the
                    // failover timeline: time from this (promoted)
                    // engine's construction to service actually restored.
                    self.engine.metrics.record_epoch_first_commit(
                        self.engine.epoch,
                        self.engine.opened_at.elapsed(),
                    );
                }
                Ok(wal_lsn)
            }
            CommitOutcome::Conflict(entity, winner) => {
                self.abort_with(AbortReason::WriteConflict, Some(entity));
                Err(EngineError::WriteConflict(entity, winner))
            }
            // Dropping `self` aborts the session (matching the pre-pipeline
            // behavior of `?` on a failed shard commit).
            CommitOutcome::Store(e) => Err(EngineError::Store(e)),
            CommitOutcome::Deposed => {
                // Nothing was applied and nothing can ever be made durable
                // here again: abort locally and tell the client to
                // re-route to the promoted primary.
                self.abort_with(AbortReason::Deposed, None);
                Err(EngineError::Deposed)
            }
        }
    }

    /// Aborts the transaction explicitly.
    pub fn abort(mut self) {
        if self.active {
            self.abort_with(AbortReason::Explicit, None);
        }
    }

    fn abort_with(&mut self, reason: AbortReason, trigger: Option<EntityId>) {
        self.engine.pipeline.notify_abort(self.tx, None);
        self.finish_abort_inner(reason, trigger);
    }

    /// Purges store state and records the abort; the admission lanes have
    /// already been notified by the caller.
    fn finish_abort_inner(&mut self, reason: AbortReason, trigger: Option<EntityId>) {
        if let Some(wal) = &self.engine.wal {
            // Informational (recovery discards commit-less transactions
            // either way); buffered until the next flush.  A *fencing*
            // refusal is tolerated silently: a deposed engine's aborts
            // are implied by the promotion cut (the transaction has no
            // commit record past the fence), so losing the record changes
            // nothing recovery or a replica would conclude.
            match wal.append_batch(&[WalRecord::Abort { tx: self.tx }]) {
                Ok(receipt) => {
                    self.engine.pipeline.note_flushed(&receipt);
                    self.engine
                        .metrics
                        .record_wal_append(receipt.records, receipt.bytes);
                }
                Err(e) if is_fence_error(&e) => {}
                Err(e) => panic!("WAL append failed: durability can no longer be guaranteed: {e}"),
            }
        }
        for (idx, &begun) in self.begun_shards.iter().enumerate() {
            if begun {
                let _ = self
                    .engine
                    .shards
                    .store(idx)
                    .abort(TxHandle { id: self.tx });
            }
        }
        self.active = false;
        self.engine
            .metrics
            .record_abort(reason, trigger.map(|e| self.engine.shards.shard_of(e)));
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.active {
            self.abort_with(AbortReason::Explicit, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(kind: CertifierKind) -> Arc<Engine> {
        Arc::new(Engine::new(
            kind,
            EngineConfig {
                shards: 2,
                entities: 8,
                ..EngineConfig::default()
            },
        ))
    }

    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1); // different shard from X

    #[test]
    fn read_write_commit_round_trip_on_every_certifier_and_mode() {
        for kind in CertifierKind::all() {
            let e = engine(kind);
            let mut s1 = e.begin();
            assert_eq!(s1.read(X).unwrap(), Bytes::from_static(b"0"));
            s1.write(Y, Bytes::from_static(b"one")).unwrap();
            s1.commit().unwrap();
            let mut s2 = e.begin();
            assert_eq!(s2.read(Y).unwrap(), Bytes::from_static(b"one"), "{kind}");
            s2.commit().unwrap();
            let snap = e.metrics().snapshot();
            assert_eq!(snap.committed, 2, "{kind}");
            assert_eq!(snap.aborted, 0, "{kind}");
            // One ruling per step, one group-commit batch per commit.
            assert_eq!(snap.admission_batches, 3, "{kind}");
            assert_eq!(snap.admission_batch_steps, 3, "{kind}");
            assert_eq!(snap.commit_batches, 2, "{kind}");
            assert_eq!(snap.commit_batch_txns, 2, "{kind}");
            let history = e.history();
            assert_eq!(history.admitted.len(), 3);
            assert_eq!(history.committed.len(), 2);
            assert!(e.class().check(&history.committed_schedule()), "{kind}");
        }
    }

    #[test]
    fn rejection_aborts_the_session() {
        let e = engine(CertifierKind::TwoPhaseLocking);
        let mut s1 = e.begin();
        let mut s2 = e.begin();
        s1.write(X, Bytes::from_static(b"a")).unwrap();
        let err = s2.write(X, Bytes::from_static(b"b")).unwrap_err();
        assert!(matches!(err, EngineError::Rejected(_)));
        assert!(!s2.is_active());
        assert!(matches!(s2.read(Y), Err(EngineError::NotActive(_))));
        s1.commit().unwrap();
        // The lock is released: a fresh session can write x.
        let mut s3 = e.begin();
        s3.write(X, Bytes::from_static(b"c")).unwrap();
        s3.commit().unwrap();
        let snap = e.metrics().snapshot();
        assert_eq!(snap.committed, 2);
        assert_eq!(snap.aborted, 1);
        // The abort is attributed to x's shard.
        assert_eq!(snap.shard_conflicts[e.shards().shard_of(X)], 1);
    }

    #[test]
    fn aca_aborts_readers_of_uncommitted_versions() {
        let e = engine(CertifierKind::Mvto);
        let mut writer = e.begin();
        writer.write(X, Bytes::from_static(b"w")).unwrap();
        // MVTO assigns the reader the writer's (uncommitted) version — the
        // engine's ACA rule aborts the reader instead.
        let mut reader = e.begin();
        let err = reader.read(X).unwrap_err();
        assert!(matches!(err, EngineError::DirtyRead(_, w) if w == writer.id()));
        writer.commit().unwrap();
        // After the writer commits, new readers are served normally.
        let mut reader2 = e.begin();
        assert_eq!(reader2.read(X).unwrap(), Bytes::from_static(b"w"));
        reader2.commit().unwrap();
        let snap = e.metrics().snapshot();
        assert_eq!(
            snap.aborts_by_reason
                .iter()
                .find(|(r, _)| *r == AbortReason::DirtyRead)
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn latest_reads_are_pinned_to_the_admitted_sequence() {
        // Fractured-read regression: under SGT, T1 writes x and y without
        // committing; a reader admitted after those writes must NOT be
        // served the pre-T1 store state (which would realize a history
        // different from the certified admission sequence) — the pinned
        // read resolves to T1's uncommitted version and the ACA rule
        // aborts the reader instead.
        let e = engine(CertifierKind::Sgt);
        let mut t1 = e.begin();
        t1.write(X, Bytes::from_static(b"x1")).unwrap();
        t1.write(Y, Bytes::from_static(b"y1")).unwrap();
        let mut t2 = e.begin();
        let err = t2.read(X).unwrap_err();
        assert!(matches!(err, EngineError::DirtyRead(_, w) if w == t1.id()));
        t1.commit().unwrap();
        // After the commit the pinned read serves T1's value.
        let mut t3 = e.begin();
        assert_eq!(t3.read(X).unwrap(), Bytes::from_static(b"x1"));
        assert_eq!(t3.read(Y).unwrap(), Bytes::from_static(b"y1"));
        t3.commit().unwrap();
    }

    #[test]
    fn gc_can_make_old_snapshots_unservable() {
        let e = engine(CertifierKind::Mvto);
        // The reader acquires an early MVTO timestamp by reading y.
        let mut reader = e.begin();
        reader.read(Y).unwrap();
        // Two later writers supersede x twice and commit.
        for v in [b"v1".as_slice(), b"v2".as_slice()] {
            let mut w = e.begin();
            w.write(X, Bytes::copy_from_slice(v)).unwrap();
            w.commit().unwrap();
        }
        // GC on x's shard sees no active transaction there and reclaims
        // everything but the newest committed version.
        let reclaimed = e.collect_garbage();
        assert!(reclaimed >= 2, "reclaimed {reclaimed}");
        // MVTO directs the old reader at the initial version, which is
        // gone: the engine reports "snapshot too old" and aborts.
        let err = reader.read(X).unwrap_err();
        assert!(matches!(err, EngineError::SnapshotTooOld(entity, _) if entity == X));
        let snap = e.metrics().snapshot();
        assert_eq!(snap.gc_passes, 1);
        assert!(snap.gc_reclaimed >= 2);
    }

    #[test]
    fn snapshot_isolation_first_committer_wins_across_shards() {
        let e = engine(CertifierKind::SnapshotIsolation);
        // SI only needs per-entity ordering, so the pipeline gives it one
        // admission lane per shard.
        assert_eq!(e.pipeline.lane_count(), 2);
        let mut t1 = e.begin();
        let mut t2 = e.begin();
        // Both write the same entity on shard of X and disjoint ones on
        // Y's shard: the conflict is on X only.
        t1.write(X, Bytes::from_static(b"t1")).unwrap();
        t2.write(X, Bytes::from_static(b"t2")).unwrap();
        t1.write(Y, Bytes::from_static(b"t1")).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(matches!(err, EngineError::WriteConflict(entity, _) if entity == X));
        // The loser's version is purged everywhere.
        let mut check = e.begin();
        assert_eq!(check.read(X).unwrap(), Bytes::from_static(b"t1"));
        assert_eq!(check.read(Y).unwrap(), Bytes::from_static(b"t1"));
        check.commit().unwrap();
    }

    #[test]
    fn snapshot_isolation_disjoint_writers_both_commit() {
        let e = engine(CertifierKind::SnapshotIsolation);
        let mut t1 = e.begin();
        let mut t2 = e.begin();
        t1.write(X, Bytes::from_static(b"t1")).unwrap();
        t2.write(Y, Bytes::from_static(b"t2")).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        assert_eq!(e.metrics().snapshot().committed, 2);
    }

    #[test]
    fn dropping_an_active_session_aborts_it() {
        let e = engine(CertifierKind::Sgt);
        {
            let mut s = e.begin();
            s.write(X, Bytes::from_static(b"doomed")).unwrap();
        }
        let snap = e.metrics().snapshot();
        assert_eq!(snap.aborted, 1);
        let mut check = e.begin();
        assert_eq!(check.read(X).unwrap(), Bytes::from_static(b"0"));
        check.commit().unwrap();
    }

    #[test]
    fn explicit_abort_discards_writes_and_certifier_state() {
        let e = engine(CertifierKind::TwoPhaseLocking);
        let mut s = e.begin();
        s.write(X, Bytes::from_static(b"tmp")).unwrap();
        s.abort();
        // The exclusive lock is gone.
        let mut s2 = e.begin();
        s2.write(X, Bytes::from_static(b"ok")).unwrap();
        s2.commit().unwrap();
        let history = e.history();
        // Both writes were admitted, only one committed.
        assert_eq!(history.admitted.len(), 2);
        assert_eq!(history.committed_schedule().len(), 1);
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let e = engine(CertifierKind::MvSgt);
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let mut s = e.begin();
                    let entity = EntityId(i % 4);
                    if s.read(entity).is_err() {
                        continue;
                    }
                    if s.write(entity, Bytes::from(format!("{i}"))).is_err() {
                        continue;
                    }
                    let _ = s.commit();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = e.metrics().snapshot();
        assert_eq!(snap.committed + snap.aborted, snap.begun);
        assert!(snap.committed > 0);
        // The committed history is in the certifier's class.
        let history = e.history();
        assert!(e.class().check(&history.committed_schedule()));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mvcc-session-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_engine(
        kind: CertifierKind,
        dir: &std::path::Path,
        mode: mvcc_durability::DurabilityMode,
    ) -> Arc<Engine> {
        Arc::new(Engine::new(
            kind,
            EngineConfig {
                shards: 2,
                entities: 8,
                durability: DurabilityConfig {
                    mode,
                    dir: dir.to_path_buf(),
                    segment_bytes: 8 << 20,
                },
                ..EngineConfig::default()
            },
        ))
    }

    #[test]
    fn durable_commits_survive_recovery_and_in_flight_sessions_do_not() {
        for mode in [
            mvcc_durability::DurabilityMode::Buffered,
            mvcc_durability::DurabilityMode::Fsync,
        ] {
            let dir = temp_dir("recover");
            let e = durable_engine(CertifierKind::Sgt, &dir, mode);
            let mut s1 = e.begin();
            let t1 = s1.id();
            s1.write(X, Bytes::from_static(b"durable-x")).unwrap();
            s1.write(Y, Bytes::from_static(b"durable-y")).unwrap();
            s1.commit().unwrap();
            // An in-flight session: writes admitted, never committed —
            // the crash (recovering while it is still open) discards it.
            let mut in_flight = e.begin();
            in_flight.write(X, Bytes::from_static(b"doomed")).unwrap();
            // A later commit's flush pushes the in-flight records into the
            // OS (prefix durability): recovery will *see* the loser's
            // write and still discard it.
            let mut s2 = e.begin();
            let t2 = s2.id();
            s2.write(Y, Bytes::from_static(b"second")).unwrap();
            s2.commit().unwrap();
            let snap = e.metrics().snapshot();
            assert!(snap.durability_on(), "{mode}");
            assert!(snap.wal_flushes >= 2, "{mode}");
            assert_eq!(snap.wal_commits, 2, "{mode}");
            if mode == mvcc_durability::DurabilityMode::Fsync {
                assert_eq!(snap.wal_fsyncs, snap.wal_flushes, "{mode}");
            } else {
                assert_eq!(snap.wal_fsyncs, 0, "{mode}");
            }
            let (recovered, report) = Engine::recover(
                CertifierKind::Sgt,
                EngineConfig {
                    shards: 2,
                    entities: 8,
                    durability: DurabilityConfig {
                        mode,
                        dir: dir.clone(),
                        segment_bytes: 8 << 20,
                    },
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            assert_eq!(report.discarded, vec![in_flight.id()], "{mode}");
            // The recovered committed history matches.
            let history = recovered.history();
            assert_eq!(history.committed, BTreeSet::from([t1, t2]));
            assert_eq!(history.committed_schedule().len(), 3, "{mode}");
            // Recovered reads serve the durable values (the "latest" read
            // resolves to the recovered writer, not the pre-seed).
            let mut check = recovered.begin();
            assert!(check.id().0 > in_flight.id().0, "{mode}: tx ids collide");
            assert_eq!(check.read(X).unwrap(), Bytes::from_static(b"durable-x"));
            assert_eq!(check.read(Y).unwrap(), Bytes::from_static(b"second"));
            check.commit().unwrap();
            drop(in_flight);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn recovery_of_an_empty_directory_is_a_cold_start() {
        let dir = temp_dir("cold");
        let (e, report) = Engine::recover(
            CertifierKind::Mvto,
            EngineConfig {
                shards: 2,
                entities: 8,
                durability: DurabilityConfig::buffered(&dir),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.records_scanned, 0);
        assert_eq!(report.checkpoint_seq, None);
        let mut s = e.begin();
        assert_eq!(s.id(), TxId(1));
        assert_eq!(s.read(X).unwrap(), Bytes::from_static(b"0"));
        s.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_records_the_watermark() {
        let dir = temp_dir("ckpt");
        let e = durable_engine(
            CertifierKind::Sgt,
            &dir,
            mvcc_durability::DurabilityMode::Buffered,
        );
        // Pile up versions of X, GC them, checkpoint, then commit more.
        for i in 0..4u32 {
            let mut s = e.begin();
            s.write(X, Bytes::from(format!("v{i}"))).unwrap();
            s.commit().unwrap();
        }
        assert!(e.collect_garbage() > 0, "GC reclaimed nothing");
        let seq = e.checkpoint().unwrap();
        assert_eq!(seq, 1);
        let ckpt = mvcc_durability::latest_checkpoint(&dir).unwrap().unwrap();
        let x_shard = &ckpt.shards[e.shards().shard_of(X)];
        assert!(
            x_shard.watermark > 0,
            "checkpoint must record the watermark"
        );
        assert!(x_shard.commit_counter >= x_shard.watermark);
        let mut s = e.begin();
        s.write(X, Bytes::from_static(b"post-ckpt")).unwrap();
        s.commit().unwrap();
        let (recovered, report) = Engine::recover(
            CertifierKind::Sgt,
            EngineConfig {
                shards: 2,
                entities: 8,
                durability: DurabilityConfig::buffered(&dir),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        // Data replay was bounded by the checkpoint: only the post-ckpt
        // commit replayed.
        assert_eq!(report.commits_replayed, 1);
        // A recovered snapshot sits at or above the reclaimed horizon and
        // reads every entity (nothing below the watermark is offered).
        let shard_x = recovered.shards().store_for(X);
        assert!(shard_x.current_ts() >= x_shard.watermark);
        let mut check = recovered.begin();
        assert_eq!(check.read(X).unwrap(), Bytes::from_static(b"post-ckpt"));
        assert_eq!(check.read(Y).unwrap(), Bytes::from_static(b"0"));
        check.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "already holds a WAL")]
    fn new_refuses_a_directory_with_an_existing_log() {
        let dir = temp_dir("refuse");
        {
            let e = durable_engine(
                CertifierKind::Sgt,
                &dir,
                mvcc_durability::DurabilityMode::Buffered,
            );
            let mut s = e.begin();
            s.write(X, Bytes::from_static(b"x")).unwrap();
            s.commit().unwrap();
        }
        let _ = durable_engine(
            CertifierKind::Sgt,
            &dir,
            mvcc_durability::DurabilityMode::Buffered,
        );
    }

    #[test]
    fn ring_history_bounds_memory_and_counts_drops() {
        let e = Arc::new(Engine::new(
            CertifierKind::Sgt,
            EngineConfig {
                history_capacity: Some(4),
                ..EngineConfig::default()
            },
        ));
        for i in 0..6u32 {
            let mut s = e.begin();
            s.write(X, Bytes::from(format!("{i}"))).unwrap();
            s.commit().unwrap();
        }
        let history = e.history();
        assert_eq!(history.admitted.len(), 4, "ring keeps only the window");
        assert_eq!(history.dropped, 2, "high-water counter tracks drops");
        assert!(!history.is_complete());
        assert_eq!(
            history.committed.len(),
            6,
            "commit membership is never dropped"
        );
        // The default stays unbounded and complete.
        let e = engine(CertifierKind::Sgt);
        let mut s = e.begin();
        s.write(X, Bytes::from_static(b"x")).unwrap();
        s.commit().unwrap();
        assert!(e.history().is_complete());
    }

    #[test]
    fn commit_durable_reports_the_commit_record_lsn() {
        // Durability off: no LSN to report.
        let e = engine(CertifierKind::Sgt);
        let mut s = e.begin();
        s.write(X, Bytes::from_static(b"x")).unwrap();
        assert_eq!(s.commit_durable().unwrap(), None);
        assert_eq!(e.durable_lsn(), None);
        assert_eq!(e.wal_last_lsn(), None);
        // Durability on: each commit's LSN is the batch's commit record,
        // monotonically increasing, and the durable horizon follows it.
        let dir = temp_dir("lsn");
        let e = durable_engine(
            CertifierKind::Sgt,
            &dir,
            mvcc_durability::DurabilityMode::Buffered,
        );
        let mut s1 = e.begin();
        s1.write(X, Bytes::from_static(b"a")).unwrap();
        let lsn1 = s1.commit_durable().unwrap().expect("durable commit");
        let mut s2 = e.begin();
        s2.write(Y, Bytes::from_static(b"b")).unwrap();
        let lsn2 = s2.commit_durable().unwrap().expect("durable commit");
        assert!(lsn2 > lsn1, "commit records are ordered: {lsn1} vs {lsn2}");
        assert_eq!(e.durable_lsn(), Some(lsn2));
        assert!(e.wal_last_lsn() >= e.durable_lsn());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_recording_can_be_disabled() {
        let e = Arc::new(Engine::new(
            CertifierKind::Sgt,
            EngineConfig {
                record_history: false,
                ..EngineConfig::default()
            },
        ));
        let mut s = e.begin();
        s.write(X, Bytes::from_static(b"x")).unwrap();
        s.commit().unwrap();
        let history = e.history();
        assert!(history.admitted.is_empty());
        assert_eq!(history.committed.len(), 1);
    }
}
