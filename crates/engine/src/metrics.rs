//! Engine observability: counters, abort breakdown, latency histograms,
//! per-shard contention, and — when `mvcc-replica` components are handed
//! the engine's metrics handle — replication shipping/apply/routing
//! counters, rendered next to the durability block.
//!
//! Everything on the hot path is lock-free (`AtomicU64` relaxed
//! counters, or a thread-local telemetry buffer — a plain store), and
//! [`EngineMetrics::snapshot`] renders a consistent-enough point-in-time
//! [`MetricsSnapshot`] for tables and reports.
//!
//! `EngineMetrics` is also the engine's **telemetry registry handle**:
//! when the engine runs with [`mvcc_telemetry::TelemetryMode::On`], the
//! per-stage histograms and the flight recorder live behind this same
//! handle, so `Engine::metrics_handle()` is the one coherent
//! observability surface — engine counters, durability, replication,
//! failover, and per-stage latency distributions all come out of one
//! [`MetricsSnapshot`].

use mvcc_telemetry::{
    EventKind, ExemplarReservoir, Stage, Telemetry, TelemetrySnapshot, TraceId, TraceTree,
};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// High-frequency batch probes trace one batch in this many (per
/// thread; must be a power of two).  See [`EngineMetrics::trace_batch`].
const BATCH_SAMPLE: u32 = 32;

/// Transactions collect a full span tree one-in-this-many per thread
/// (must be a power of two).  See [`EngineMetrics::trace_begin`].
const TRACE_SAMPLE: u32 = 32;

thread_local! {
    /// Per-thread sampling tick for [`EngineMetrics::trace_batch`] — a
    /// plain cell so sampling itself costs no atomics.
    static PROBE_TICK: Cell<u32> = const { Cell::new(0) };
    /// Per-thread sampling tick for [`EngineMetrics::trace_begin`] —
    /// separate from `PROBE_TICK` so span-tree sampling and batch-probe
    /// sampling stay independent (a thread's first transaction is always
    /// traced, which is what makes the attribution tests deterministic).
    static TRACE_TICK: Cell<u32> = const { Cell::new(0) };
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The certifier rejected a step.
    CertifierReject,
    /// The transaction would have read a version whose writer had not
    /// committed (the engine enforces ACA — avoids cascading aborts).
    DirtyRead,
    /// The assigned version was already reclaimed by GC ("snapshot too
    /// old").
    SnapshotTooOld,
    /// Snapshot isolation's first-committer-wins validation failed.
    WriteConflict,
    /// The session aborted voluntarily (explicit `abort()` or drop).
    Explicit,
    /// The engine was deposed by a failover: a newer epoch fenced its WAL
    /// mid-commit, so the transaction cannot be made durable here.
    Deposed,
}

impl AbortReason {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            AbortReason::CertifierReject => 0,
            AbortReason::DirtyRead => 1,
            AbortReason::SnapshotTooOld => 2,
            AbortReason::WriteConflict => 3,
            AbortReason::Explicit => 4,
            AbortReason::Deposed => 5,
        }
    }

    /// All reasons, in breakdown-table order.
    pub fn all() -> [AbortReason; Self::COUNT] {
        [
            AbortReason::CertifierReject,
            AbortReason::DirtyRead,
            AbortReason::SnapshotTooOld,
            AbortReason::WriteConflict,
            AbortReason::Explicit,
            AbortReason::Deposed,
        ]
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::CertifierReject => write!(f, "rejected"),
            AbortReason::DirtyRead => write!(f, "dirty-read"),
            AbortReason::SnapshotTooOld => write!(f, "snapshot-too-old"),
            AbortReason::WriteConflict => write!(f, "write-conflict"),
            AbortReason::Explicit => write!(f, "explicit"),
            AbortReason::Deposed => write!(f, "deposed"),
        }
    }
}

/// Per-shard contention counters.
#[derive(Debug, Default)]
struct ShardCounters {
    /// Read/write operations executed against the shard.
    ops: AtomicU64,
    /// Aborts whose triggering entity lived on the shard (rejections,
    /// dirty reads, stale snapshots, write conflicts).
    conflicts: AtomicU64,
}

/// Shared engine metrics.  All methods take `&self`; the engine embeds one
/// instance and every session thread updates it concurrently.
#[derive(Debug)]
pub struct EngineMetrics {
    begun: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    aborts_by_reason: [AtomicU64; AbortReason::COUNT],
    gc_passes: AtomicU64,
    gc_reclaimed: AtomicU64,
    admission_batches: AtomicU64,
    admission_batch_steps: AtomicU64,
    commit_batches: AtomicU64,
    commit_batch_txns: AtomicU64,
    wal_appends: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    wal_flushes: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_commits: AtomicU64,
    checkpoints: AtomicU64,
    /// Gauge, not counter: the primary epoch the engine's WAL writes
    /// under (0 until a failover has ever happened on the log).
    epoch: AtomicU64,
    repl_shipped_records: AtomicU64,
    repl_applied_records: AtomicU64,
    repl_applied_commits: AtomicU64,
    repl_apply_batches: AtomicU64,
    repl_routed_reads: AtomicU64,
    repl_wait_stalls: AtomicU64,
    repl_wait_stall_us: AtomicU64,
    repl_max_lag_lsn: AtomicU64,
    /// Always on (one relaxed `fetch_add` set per commit), so
    /// interpolated quantiles are available even with stage tracing off.
    commit_latency: mvcc_telemetry::Histogram,
    shards: Vec<ShardCounters>,
    telemetry: Option<Telemetry>,
    epoch_first_commit_done: AtomicBool,
}

impl EngineMetrics {
    /// Creates zeroed metrics for an engine with `shards` shards and no
    /// stage telemetry (probes compile down to an `Option` check).
    pub fn new(shards: usize) -> Self {
        EngineMetrics::with_telemetry(shards, None)
    }

    /// Creates zeroed metrics wired to a telemetry registry: stage
    /// probes and flight-recorder events feed `telemetry` when it is
    /// `Some`.
    pub fn with_telemetry(shards: usize, telemetry: Option<Telemetry>) -> Self {
        EngineMetrics {
            begun: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            aborts_by_reason: Default::default(),
            gc_passes: AtomicU64::new(0),
            gc_reclaimed: AtomicU64::new(0),
            admission_batches: AtomicU64::new(0),
            admission_batch_steps: AtomicU64::new(0),
            commit_batches: AtomicU64::new(0),
            commit_batch_txns: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_flushes: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_commits: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            repl_shipped_records: AtomicU64::new(0),
            repl_applied_records: AtomicU64::new(0),
            repl_applied_commits: AtomicU64::new(0),
            repl_apply_batches: AtomicU64::new(0),
            repl_routed_reads: AtomicU64::new(0),
            repl_wait_stalls: AtomicU64::new(0),
            repl_wait_stall_us: AtomicU64::new(0),
            repl_max_lag_lsn: AtomicU64::new(0),
            commit_latency: mvcc_telemetry::Histogram::new(),
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            telemetry,
            epoch_first_commit_done: AtomicBool::new(false),
        }
    }

    /// The attached telemetry registry, if the engine runs with stage
    /// tracing on.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Starts a stage clock: `Some(now)` when telemetry is on, `None`
    /// (and no clock read at all) when it is off.  Pair with
    /// [`EngineMetrics::record_stage_since`].
    pub fn stage_clock(&self) -> Option<Instant> {
        // lint: allow(clock) — stage clock, sampled only when telemetry is on
        self.telemetry.as_ref().map(|_| Instant::now())
    }

    /// Like [`EngineMetrics::stage_clock`], but sampled 1-in-32 per
    /// thread: the high-frequency probes (admission rulings, group-commit
    /// batches) trace every 32nd one their thread runs, which keeps
    /// the clock-read overhead of tracing in the noise (the overhead
    /// guard test pins telemetry-on within 5% of off) while the
    /// histograms still fill at thousands of samples per second.
    pub(crate) fn trace_batch(&self) -> Option<Instant> {
        self.telemetry.as_ref()?;
        let fire = PROBE_TICK.with(|tick| {
            let n = tick.get().wrapping_add(1);
            tick.set(n);
            n & (BATCH_SAMPLE - 1) == 1
        });
        // lint: allow(clock) — stage clock, sampled only when telemetry is on
        fire.then(Instant::now)
    }

    /// Mints a transaction's trace id at `begin`, sampled 1-in-32 per
    /// thread: `None` when telemetry is off or this transaction is not
    /// sampled; `Some` means the session collects a span tree and is a
    /// tail-exemplar candidate at commit.  A thread's *first* transaction
    /// is always sampled (the tick pattern fires on 1), which keeps the
    /// attribution tests deterministic without a warm-up loop.
    pub fn trace_begin(&self, epoch: u64, tx: u32) -> Option<TraceId> {
        self.telemetry.as_ref()?;
        TRACE_TICK
            .with(|tick| {
                let n = tick.get().wrapping_add(1);
                tick.set(n);
                n & (TRACE_SAMPLE - 1) == 1
            })
            .then(|| TraceId::pack(epoch, tx))
    }

    /// Records a structured flight-recorder event attributed to a
    /// transaction's trace (when the recording site knows one).
    pub fn flight_traced(&self, kind: EventKind, trace: Option<TraceId>) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_event_traced(kind, trace);
        }
    }

    /// Offers a committed transaction's span tree to the tail-exemplar
    /// reservoir (no-op with telemetry off).
    pub fn offer_exemplar(&self, tree: TraceTree) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.exemplars().offer(tree);
        }
    }

    /// The tail-exemplar reservoir, if telemetry is on.
    pub fn exemplars(&self) -> Option<&ExemplarReservoir> {
        self.telemetry.as_ref().map(|t| t.exemplars())
    }

    /// Records one cross-cutting span (WAL flush, replica apply, follower
    /// read, promotion phase) into the LSN-correlated trace log (no-op
    /// with telemetry off).
    pub fn record_trace_event(
        &self,
        stage: Stage,
        trace: Option<TraceId>,
        lsn: Option<u64>,
        dur_us: u64,
    ) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.trace_log().record(stage, trace, lsn, dur_us);
        }
    }

    /// Records the elapsed time since a stage clock into `stage`'s
    /// histogram; a `None` clock (telemetry off, or an unsampled batch)
    /// is a no-op.
    pub fn record_stage_since(&self, stage: Stage, clock: Option<Instant>) {
        if let (Some(telemetry), Some(started)) = (&self.telemetry, clock) {
            telemetry.record_duration(stage, started.elapsed());
        }
    }

    /// Records a raw value (a batch size) into `stage`'s histogram when
    /// telemetry is on.
    pub fn record_stage_value(&self, stage: Stage, value: u64) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_value(stage, value);
        }
    }

    /// Records a structured flight-recorder event when telemetry is on.
    pub fn flight(&self, kind: EventKind) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_event(kind);
        }
    }

    /// The flight recorder's rendered timeline, if telemetry is on —
    /// what chaos and soak tests print on failure.
    pub fn flight_dump(&self) -> Option<String> {
        self.telemetry.as_ref().map(|t| t.flight().dump())
    }

    /// Records the promoted engine's first commit on its new epoch
    /// (elapsed from the engine opening) — the tail of the failover
    /// MTTR timeline.  Idempotent: only the first call records.
    pub fn record_epoch_first_commit(&self, epoch: u64, since_open: Duration) {
        if self
            .epoch_first_commit_done
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            if let Some(telemetry) = &self.telemetry {
                telemetry.record_duration(Stage::EpochFirstCommit, since_open);
                telemetry.record_event(EventKind::EpochFirstCommit { epoch });
            }
        }
    }

    /// Records a session begin.
    pub fn record_begin(&self) {
        self.begun.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an executed read on `shard`.
    pub fn record_read(&self, shard: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an executed write on `shard`.
    pub fn record_write(&self, shard: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a commit and its latency (begin → commit).
    pub fn record_commit(&self, latency: Duration) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        // `as_micros` is u128; a plain `as u64` cast would silently wrap
        // absurd durations around to *small* values and file them in fast
        // buckets.  Saturate instead: the histogram clamps anything that
        // large into its top bucket.
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.commit_latency.record(micros);
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_value(Stage::CommitLatency, micros);
        }
    }

    /// Records an abort; `shard` is the shard of the entity that triggered
    /// it, when one did.
    pub fn record_abort(&self, reason: AbortReason, shard: Option<usize>) {
        self.record_abort_traced(reason, shard, None);
    }

    /// [`EngineMetrics::record_abort`] with the aborting transaction's
    /// trace id, so the flight-recorder event joins against its span tree.
    pub fn record_abort_traced(
        &self,
        reason: AbortReason,
        shard: Option<usize>,
        trace: Option<TraceId>,
    ) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        self.aborts_by_reason[reason.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(s) = shard {
            self.shards[s].conflicts.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_event_traced(
                EventKind::Abort {
                    reason: reason.to_string(),
                },
                trace,
            );
        }
    }

    /// Records one GC pass that reclaimed `reclaimed` versions.
    pub fn record_gc(&self, reclaimed: usize) {
        self.gc_passes.fetch_add(1, Ordering::Relaxed);
        self.gc_reclaimed
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        if reclaimed > 0 {
            // Idle GC passes (every millisecond under the driver) would
            // flood the flight ring with noise; only reclaims are events.
            if let Some(telemetry) = &self.telemetry {
                telemetry.record_event(EventKind::GcReclaim {
                    versions: reclaimed as u64,
                });
            }
        }
    }

    /// Records one admission ruling of `steps` steps.  The pipeline rules
    /// one step per lane lock, so it always passes 1; the counter pair
    /// stays because the mean (`engine.admission_batch`) is a reported
    /// metric.
    pub fn record_admission_batch(&self, steps: usize) {
        self.admission_batches.fetch_add(1, Ordering::Relaxed);
        self.admission_batch_steps
            .fetch_add(steps as u64, Ordering::Relaxed);
    }

    /// Records one group-commit batch of `txns` transactions (batches
    /// whose members all lost first-committer-wins validation commit
    /// nothing and are not recorded — the counter measures how many
    /// commits share one drain, which is also how many share one WAL
    /// flush).
    pub fn record_commit_batch(&self, txns: usize) {
        self.commit_batches.fetch_add(1, Ordering::Relaxed);
        self.commit_batch_txns
            .fetch_add(txns as u64, Ordering::Relaxed);
    }

    /// Records one buffered WAL append of `records` records totalling
    /// `bytes` encoded bytes (an admission batch's step records).
    pub fn record_wal_append(&self, records: usize, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_records
            .fetch_add(records as u64, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one WAL flush (a group-commit batch's durability point):
    /// `bytes` appended with the flush, whether it ended in an fsync, and
    /// how many transactions it made durable.
    pub fn record_wal_flush(&self, bytes: u64, fsynced: bool, txns: usize) {
        self.wal_flushes.fetch_add(1, Ordering::Relaxed);
        if fsynced {
            self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.wal_commits.fetch_add(txns as u64, Ordering::Relaxed);
    }

    /// Records one completed checkpoint.
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the primary-epoch gauge (monotone: a promotion only ever
    /// raises it).
    pub fn record_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Records `records` WAL records shipped off the primary's log by a
    /// replication tailer.
    pub fn record_repl_shipped(&self, records: usize) {
        self.repl_shipped_records
            .fetch_add(records as u64, Ordering::Relaxed);
    }

    /// Records one replica apply batch: `records` records ingested, of
    /// which `commits` were commit records (the only ones that move data).
    pub fn record_repl_applied(&self, records: usize, commits: usize) {
        self.repl_apply_batches.fetch_add(1, Ordering::Relaxed);
        self.repl_applied_records
            .fetch_add(records as u64, Ordering::Relaxed);
        self.repl_applied_commits
            .fetch_add(commits as u64, Ordering::Relaxed);
    }

    /// Records one read-only session routed to a replica, with the
    /// replica's apply lag (in LSNs behind the primary's durable horizon)
    /// observed at pin time.
    pub fn record_repl_routed_read(&self, lag_lsn: u64) {
        self.repl_routed_reads.fetch_add(1, Ordering::Relaxed);
        self.repl_max_lag_lsn.fetch_max(lag_lsn, Ordering::Relaxed);
    }

    /// Records one wait-for-LSN stall of the given duration (a routed
    /// read that had to park until a replica caught up — read-your-writes
    /// or a staleness bound).
    pub fn record_repl_wait(&self, stalled: Duration) {
        self.repl_wait_stalls.fetch_add(1, Ordering::Relaxed);
        self.repl_wait_stall_us.fetch_add(
            u64::try_from(stalled.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            aborts_by_reason: AbortReason::all()
                .iter()
                .map(|r| (*r, self.aborts_by_reason[r.index()].load(Ordering::Relaxed)))
                .collect(),
            gc_passes: self.gc_passes.load(Ordering::Relaxed),
            gc_reclaimed: self.gc_reclaimed.load(Ordering::Relaxed),
            admission_batches: self.admission_batches.load(Ordering::Relaxed),
            admission_batch_steps: self.admission_batch_steps.load(Ordering::Relaxed),
            commit_batches: self.commit_batches.load(Ordering::Relaxed),
            commit_batch_txns: self.commit_batch_txns.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_flushes: self.wal_flushes.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_commits: self.wal_commits.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            repl_shipped_records: self.repl_shipped_records.load(Ordering::Relaxed),
            repl_applied_records: self.repl_applied_records.load(Ordering::Relaxed),
            repl_applied_commits: self.repl_applied_commits.load(Ordering::Relaxed),
            repl_apply_batches: self.repl_apply_batches.load(Ordering::Relaxed),
            repl_routed_reads: self.repl_routed_reads.load(Ordering::Relaxed),
            repl_wait_stalls: self.repl_wait_stalls.load(Ordering::Relaxed),
            repl_wait_stall_us: self.repl_wait_stall_us.load(Ordering::Relaxed),
            repl_max_lag_lsn: self.repl_max_lag_lsn.load(Ordering::Relaxed),
            latency: self.commit_latency.snapshot(),
            stages: self
                .telemetry
                .as_ref()
                .map(|t| t.snapshot())
                .unwrap_or_default(),
            shard_ops: self
                .shards
                .iter()
                .map(|s| s.ops.load(Ordering::Relaxed))
                .collect(),
            shard_conflicts: self
                .shards
                .iter()
                .map(|s| s.conflicts.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of [`EngineMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Read operations executed.
    pub reads: u64,
    /// Write operations executed.
    pub writes: u64,
    /// Abort counts by reason.
    pub aborts_by_reason: Vec<(AbortReason, u64)>,
    /// Completed GC passes.
    pub gc_passes: u64,
    /// Versions reclaimed by GC.
    pub gc_reclaimed: u64,
    /// Admission rulings (one per step the certifier ruled on).
    pub admission_batches: u64,
    /// Steps ruled across all admission rulings (equals
    /// `admission_batches`: one step per ruling).
    pub admission_batch_steps: u64,
    /// Group-commit batches applied.
    pub commit_batches: u64,
    /// Transactions committed across all group-commit batches.
    pub commit_batch_txns: u64,
    /// Buffered WAL appends (admission step batches; 0 with durability
    /// off).
    pub wal_appends: u64,
    /// WAL records appended outside commit records.
    pub wal_records: u64,
    /// Total encoded bytes appended to the WAL.
    pub wal_bytes: u64,
    /// WAL flushes (one per group-commit batch).
    pub wal_flushes: u64,
    /// WAL flushes that ended in an fsync (equals `wal_flushes` in fsync
    /// mode, 0 in buffered mode).
    pub wal_fsyncs: u64,
    /// Transactions made durable across all WAL flushes.
    pub wal_commits: u64,
    /// Checkpoints cut.
    pub checkpoints: u64,
    /// The primary epoch the engine writes under (0 before any failover).
    pub epoch: u64,
    /// WAL records shipped off the log by replication tailers.
    pub repl_shipped_records: u64,
    /// Records ingested by replica apply.
    pub repl_applied_records: u64,
    /// Commit records applied by replicas (the ones that move data).
    pub repl_applied_commits: u64,
    /// Replica apply batches.
    pub repl_apply_batches: u64,
    /// Read-only sessions routed to replicas.
    pub repl_routed_reads: u64,
    /// Routed reads that had to park on wait-for-LSN.
    pub repl_wait_stalls: u64,
    /// Total microseconds spent parked on wait-for-LSN.
    pub repl_wait_stall_us: u64,
    /// Largest apply lag (LSNs behind the durable horizon) observed at
    /// read-pin time.
    pub repl_max_lag_lsn: u64,
    /// Log-linear commit-latency histogram with interpolated quantiles
    /// (what [`MetricsSnapshot::latency_us`] queries).
    pub latency: mvcc_telemetry::HistogramSnapshot,
    /// Per-stage telemetry histograms (empty when the engine runs with
    /// [`mvcc_telemetry::TelemetryMode::Off`]).
    pub stages: TelemetrySnapshot,
    /// Operations executed per shard.
    pub shard_ops: Vec<u64>,
    /// Conflict-triggered aborts attributed per shard.
    pub shard_conflicts: Vec<u64>,
}

impl MetricsSnapshot {
    /// Mean steps per admission ruling, or `None` when nothing was ruled.
    pub fn mean_admission_batch(&self) -> Option<f64> {
        (self.admission_batches > 0)
            .then(|| self.admission_batch_steps as f64 / self.admission_batches as f64)
    }

    /// Mean transactions per group-commit batch, or `None` when no batch
    /// was applied.
    pub fn mean_commit_batch(&self) -> Option<f64> {
        (self.commit_batches > 0)
            .then(|| self.commit_batch_txns as f64 / self.commit_batches as f64)
    }

    /// Mean transactions made durable per WAL flush (per fsync in fsync
    /// mode — every flush is one), or `None` when no flush happened.
    pub fn mean_commits_per_flush(&self) -> Option<f64> {
        (self.wal_flushes > 0).then(|| self.wal_commits as f64 / self.wal_flushes as f64)
    }

    /// `true` when the engine ran with a write-ahead log.
    pub fn durability_on(&self) -> bool {
        self.wal_appends > 0 || self.wal_flushes > 0
    }

    /// `true` when replication traffic (shipping, applying or routing)
    /// was recorded.
    pub fn replication_on(&self) -> bool {
        self.repl_shipped_records > 0 || self.repl_applied_records > 0 || self.repl_routed_reads > 0
    }

    /// Mean records per replica apply batch, or `None` when no batch was
    /// applied.
    pub fn mean_repl_apply_batch(&self) -> Option<f64> {
        (self.repl_apply_batches > 0)
            .then(|| self.repl_applied_records as f64 / self.repl_apply_batches as f64)
    }

    /// Fraction of finished transactions that committed.
    pub fn commit_ratio(&self) -> f64 {
        let finished = self.committed + self.aborted;
        if finished == 0 {
            1.0
        } else {
            self.committed as f64 / finished as f64
        }
    }

    /// Interpolated commit-latency quantile in microseconds (`0 < q <=
    /// 1`), or `None` when no commit has been recorded.  Interpolates
    /// within a log-linear bucket, so the worst-case overstatement is
    /// ~6% instead of the 2× a bucket upper bound would give.
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "txns: {} committed / {} aborted ({:.1}% commit), ops: {} reads + {} writes",
            self.committed,
            self.aborted,
            self.commit_ratio() * 100.0,
            self.reads,
            self.writes
        )?;
        write!(f, "aborts:")?;
        for (reason, count) in &self.aborts_by_reason {
            if *count > 0 {
                write!(f, " {reason}={count}")?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "latency (µs, interpolated): p50={:.1} p95={:.1} p99={:.1} p999={:.1}",
            self.latency_us(0.50).unwrap_or(0.0),
            self.latency_us(0.95).unwrap_or(0.0),
            self.latency_us(0.99).unwrap_or(0.0),
            self.latency_us(0.999).unwrap_or(0.0)
        )?;
        writeln!(
            f,
            "gc: {} passes, {} versions reclaimed",
            self.gc_passes, self.gc_reclaimed
        )?;
        if let Some(mean) = self.mean_admission_batch() {
            writeln!(
                f,
                "pipeline: {} admission batches (mean {:.1} steps), {} commit batches (mean {:.1} txns)",
                self.admission_batches,
                mean,
                self.commit_batches,
                self.mean_commit_batch().unwrap_or(0.0)
            )?;
        }
        if self.durability_on() {
            writeln!(
                f,
                "durability: {} flushes ({} fsyncs), {} bytes logged, mean {:.1} commits/fsync, {} checkpoints, epoch {}",
                self.wal_flushes,
                self.wal_fsyncs,
                self.wal_bytes,
                self.mean_commits_per_flush().unwrap_or(0.0),
                self.checkpoints,
                self.epoch
            )?;
        }
        if self.replication_on() {
            writeln!(
                f,
                "replication: {} records shipped, {} applied ({} commits, mean {:.1}/batch), \
                 {} routed reads, {} wait-for-lsn stalls ({} µs), max lag {} lsn",
                self.repl_shipped_records,
                self.repl_applied_records,
                self.repl_applied_commits,
                self.mean_repl_apply_batch().unwrap_or(0.0),
                self.repl_routed_reads,
                self.repl_wait_stalls,
                self.repl_wait_stall_us,
                self.repl_max_lag_lsn
            )?;
        }
        if !self.stages.is_empty() {
            writeln!(f, "stages (interpolated quantiles):")?;
            for entry in &self.stages.stages {
                let h = &entry.histogram;
                writeln!(
                    f,
                    "  {:<22} n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} p999={:.1}",
                    entry.stage.name(),
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.50).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                    h.quantile(0.999).unwrap_or(0.0)
                )?;
            }
        }
        write!(f, "shards:")?;
        for (i, (ops, conflicts)) in self
            .shard_ops
            .iter()
            .zip(self.shard_conflicts.iter())
            .enumerate()
        {
            write!(f, " [{i}] ops={ops} conflicts={conflicts}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = EngineMetrics::new(2);
        m.record_begin();
        m.record_read(0);
        m.record_write(1);
        m.record_commit(Duration::from_micros(10));
        m.record_begin();
        m.record_abort(AbortReason::DirtyRead, Some(1));
        m.record_gc(3);
        let s = m.snapshot();
        assert_eq!(s.begun, 2);
        assert_eq!(s.committed, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.shard_ops, vec![1, 1]);
        assert_eq!(s.shard_conflicts, vec![0, 1]);
        assert_eq!(s.gc_passes, 1);
        assert_eq!(s.gc_reclaimed, 3);
        assert!((s.commit_ratio() - 0.5).abs() < 1e-9);
        let dirty = s
            .aborts_by_reason
            .iter()
            .find(|(r, _)| *r == AbortReason::DirtyRead)
            .unwrap();
        assert_eq!(dirty.1, 1);
    }

    #[test]
    fn latency_percentiles_track_buckets() {
        let m = EngineMetrics::new(1);
        // 9 fast commits, one slow one.
        for _ in 0..9 {
            m.record_commit(Duration::from_micros(3));
        }
        m.record_commit(Duration::from_millis(2));
        let s = m.snapshot();
        let p50 = s.latency_us(0.50).unwrap();
        let p99 = s.latency_us(0.99).unwrap();
        assert!(p50 <= 8.0, "p50 {p50}");
        assert!(p99 >= 1024.0, "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_none_not_invented() {
        // Regression: the rank target used to be floored to 1 even with no
        // samples, which let a sparse/empty histogram report a quantile it
        // never observed.  Before any commit is recorded every quantile is
        // None.
        let snap = EngineMetrics::new(1).snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.latency_us(q), None, "q={q}");
        }
        // One sample: every quantile collapses into its bucket, `(2, 4]`
        // for a 3 µs commit.
        let m = EngineMetrics::new(1);
        m.record_commit(Duration::from_micros(3));
        let snap = m.snapshot();
        for q in [0.0, 0.5, 1.0] {
            let v = snap.latency_us(q).unwrap();
            assert!(v > 2.0 && v <= 4.0, "q={q} v={v}");
        }
    }

    #[test]
    fn absurd_latencies_saturate_into_the_top_bucket() {
        // Regression: `as_micros() as u64` silently truncated u128 → u64,
        // so a duration of exactly 2^64 µs wrapped to 0 and was filed as a
        // sub-µs commit.  The conversion now saturates.
        let m = EngineMetrics::new(1);
        m.record_commit(Duration::MAX);
        m.record_commit(Duration::from_secs(u64::MAX / 1_000_000 + 1));
        let snap = m.snapshot();
        assert_eq!(snap.latency.count(), 2);
        let fastest = snap.latency.quantile(0.0).unwrap();
        assert!(fastest >= (1u64 << 30) as f64, "nothing wrapped around");
        let p50 = snap.latency_us(0.5).unwrap();
        assert!(p50 >= (1u64 << 30) as f64, "median stays in the top bucket");
    }

    #[test]
    fn batch_counters_average() {
        let m = EngineMetrics::new(1);
        assert_eq!(m.snapshot().mean_admission_batch(), None);
        assert_eq!(m.snapshot().mean_commit_batch(), None);
        m.record_admission_batch(3);
        m.record_admission_batch(5);
        m.record_commit_batch(2);
        let snap = m.snapshot();
        assert_eq!(snap.admission_batches, 2);
        assert_eq!(snap.admission_batch_steps, 8);
        assert_eq!(snap.mean_admission_batch(), Some(4.0));
        assert_eq!(snap.mean_commit_batch(), Some(2.0));
        assert!(snap.to_string().contains("pipeline: 2 admission batches"));
    }

    #[test]
    fn display_summarizes() {
        let m = EngineMetrics::new(1);
        m.record_begin();
        m.record_commit(Duration::from_micros(1));
        let text = m.snapshot().to_string();
        assert!(text.contains("1 committed"));
        assert!(text.contains("gc: 0 passes"));
        assert!(text.contains("[0] ops=0"));
    }

    #[test]
    fn replication_counters_accumulate_and_display() {
        let m = EngineMetrics::new(1);
        assert!(!m.snapshot().replication_on());
        assert!(!m.snapshot().to_string().contains("replication:"));
        m.record_repl_shipped(10);
        m.record_repl_applied(10, 3);
        m.record_repl_applied(4, 1);
        m.record_repl_routed_read(2);
        m.record_repl_routed_read(7);
        m.record_repl_wait(Duration::from_micros(150));
        let s = m.snapshot();
        assert!(s.replication_on());
        assert_eq!(s.repl_shipped_records, 10);
        assert_eq!(s.repl_applied_records, 14);
        assert_eq!(s.repl_applied_commits, 4);
        assert_eq!(s.repl_apply_batches, 2);
        assert_eq!(s.mean_repl_apply_batch(), Some(7.0));
        assert_eq!(s.repl_routed_reads, 2);
        assert_eq!(s.repl_max_lag_lsn, 7, "max, not last");
        assert_eq!(s.repl_wait_stalls, 1);
        assert_eq!(s.repl_wait_stall_us, 150);
        let text = s.to_string();
        assert!(text.contains("replication: 10 records shipped"), "{text}");
        assert!(text.contains("max lag 7 lsn"), "{text}");
    }

    #[test]
    fn abort_reasons_are_exhaustive_and_named() {
        assert_eq!(AbortReason::all().len(), 6);
        for r in AbortReason::all() {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn interpolated_quantiles_fix_the_bucket_bound_overstatement() {
        // Regression for the display satellite: a 1000 µs commit used to
        // be reported as "p99 ≤ 1024" (the power-of-two bucket bound;
        // up to 2× high at the top of a decade).  The log-linear
        // histogram interpolates to 1008 — within 1%.
        let m = EngineMetrics::new(1);
        m.record_commit(Duration::from_micros(1000));
        let s = m.snapshot();
        let fine = s.latency_us(0.99).unwrap();
        assert!((fine - 1008.0).abs() < 1.0, "interpolated p99 = {fine}");
        let text = s.to_string();
        assert!(text.contains("latency (µs, interpolated)"), "{text}");
        assert!(text.contains("p99=1008"), "{text}");
    }

    #[test]
    fn telemetry_wiring_feeds_stages_and_flight_through_one_handle() {
        let m = EngineMetrics::with_telemetry(1, Some(Telemetry::new()));
        m.record_commit(Duration::from_micros(7));
        m.record_stage_since(Stage::WalFlush, m.stage_clock());
        m.record_stage_value(Stage::WalFlushTxns, 3);
        m.record_abort(AbortReason::WriteConflict, Some(0));
        m.record_gc(5);
        m.record_gc(0); // idle pass: counted, but no flight event
        let s = m.snapshot();
        assert_eq!(s.stages.get(Stage::CommitLatency).unwrap().count(), 1);
        assert_eq!(s.stages.get(Stage::WalFlush).unwrap().count(), 1);
        assert_eq!(s.stages.get(Stage::WalFlushTxns).unwrap().count(), 1);
        let dump = m.flight_dump().unwrap();
        assert!(dump.contains("abort reason=write-conflict"), "{dump}");
        assert!(dump.contains("gc-reclaim versions=5"), "{dump}");
        assert!(!dump.contains("versions=0"), "{dump}");
        // The single coherent view: stages render inside the same
        // Display as the engine/durability/replication blocks.
        let text = s.to_string();
        assert!(text.contains("stages (interpolated quantiles):"), "{text}");
        assert!(text.contains("commit-latency"), "{text}");
        assert_eq!(s.gc_passes, 2);
    }

    #[test]
    fn telemetry_off_records_nothing_and_probes_are_noops() {
        let m = EngineMetrics::new(1);
        assert!(m.telemetry().is_none());
        assert_eq!(m.stage_clock(), None, "no clock read with telemetry off");
        m.record_stage_since(Stage::Certify, None);
        m.record_stage_value(Stage::WalFlushTxns, 9);
        m.flight(EventKind::Note { text: "x".into() });
        m.record_commit(Duration::from_micros(5));
        let s = m.snapshot();
        assert!(s.stages.is_empty());
        assert_eq!(m.flight_dump(), None);
        // The always-on fine histogram still answers.
        assert!(s.latency_us(0.5).is_some());
        assert!(!s.to_string().contains("stages ("));
    }

    #[test]
    fn epoch_first_commit_records_once() {
        let m = EngineMetrics::with_telemetry(1, Some(Telemetry::new()));
        m.record_epoch_first_commit(2, Duration::from_micros(40));
        m.record_epoch_first_commit(2, Duration::from_micros(9000));
        let s = m.snapshot();
        let stage = s.stages.get(Stage::EpochFirstCommit).unwrap();
        assert_eq!(stage.count(), 1, "idempotent: only the first call lands");
        assert!(stage.mean().unwrap() < 100.0);
        let dump = m.flight_dump().unwrap();
        assert!(dump.contains("epoch-first-commit epoch=2"), "{dump}");
    }

    #[test]
    fn trace_begin_samples_one_in_thirty_two_and_the_first_always_fires() {
        let m = std::sync::Arc::new(EngineMetrics::with_telemetry(1, Some(Telemetry::new())));
        // A fresh thread: its first transaction is always sampled, then
        // 1-in-32 — deterministic, no atomics shared across threads.
        let m2 = std::sync::Arc::clone(&m);
        std::thread::spawn(move || {
            let ids: Vec<Option<_>> = (0..64).map(|tx| m2.trace_begin(3, tx)).collect();
            assert_eq!(ids[0], Some(mvcc_telemetry::TraceId::pack(3, 0)));
            assert_eq!(ids.iter().flatten().count(), 2, "1-in-32 sampling");
        })
        .join()
        .unwrap();
        // Telemetry off: never sampled.
        let off = EngineMetrics::new(1);
        assert!((0..64).all(|tx| off.trace_begin(0, tx).is_none()));
    }

    #[test]
    fn exemplars_and_trace_events_flow_through_the_metrics_handle() {
        let m = EngineMetrics::with_telemetry(1, Some(Telemetry::new()));
        let trace = mvcc_telemetry::TraceId::pack(1, 7);
        let mut tree = mvcc_telemetry::TraceTree::new(trace);
        tree.total_us = 500;
        m.offer_exemplar(tree);
        assert_eq!(m.exemplars().unwrap().len(), 1);
        m.record_trace_event(Stage::WalFlush, Some(trace), Some(42), 11);
        let events = m.telemetry().unwrap().trace_log().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lsn, Some(42));
        m.record_abort_traced(AbortReason::Explicit, None, Some(trace));
        let dump = m.flight_dump().unwrap();
        assert!(dump.contains("abort reason=explicit trace=t1.7"), "{dump}");
        // Off: all of it is a no-op.
        let off = EngineMetrics::new(1);
        off.offer_exemplar(mvcc_telemetry::TraceTree::new(trace));
        off.record_trace_event(Stage::WalFlush, None, None, 1);
        assert!(off.exemplars().is_none());
    }

    #[test]
    fn batch_trace_sampling_fires_one_in_thirty_two() {
        let m = EngineMetrics::with_telemetry(1, Some(Telemetry::new()));
        let fired = (0..128).filter(|_| m.trace_batch().is_some()).count();
        assert_eq!(fired, 4, "1-in-32 per-thread sampling");
        let off = EngineMetrics::new(1);
        assert!((0..128).all(|_| off.trace_batch().is_none()));
    }
}
