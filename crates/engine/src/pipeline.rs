//! The admission pipeline: one ruling per lane lock, then group commit.
//!
//! In the paper's §6 a scheduler is an online certifier that rules on one
//! step at a time, and the engine's class guarantee rests on exactly that:
//!
//! * a session submitting a read or write step locks the step's admission
//!   **lane**, has the certifier rule on it ([`Certifier::admit`]),
//!   resolves the read plan / ACA rule / write chain against the lane's
//!   admitted sequence, appends the admitted step to the history log (and
//!   the WAL), and releases.  Each lane's rulings therefore form a single
//!   total order, and the append-only history is that order — what the
//!   offline classifiers certify (the end-to-end `engine_loop` test
//!   re-proves this per certifier).
//! * commits go through a **group-commit lane**: whoever takes the drain
//!   lock applies every parked commit to the shards in groups
//!   (`ShardedStore::commit_group` takes each store's transaction-table
//!   lock once per group), appends one WAL commit record with one flush,
//!   and only then notifies the certifiers — "shard commits (and their
//!   durability) before the certifier hears about them".
//!
//! Certifiers that only need per-entity ordering declare
//! [`AdmissionScope::PerShard`] (snapshot isolation's first-committer-wins)
//! and get one admission lane per shard, so sessions touching disjoint
//! key ranges never share an admission lock at all; the `publish` fence
//! keeps the history and the WAL in one cross-lane order.

use crate::certifier::{Admission, AdmissionScope, Certifier, CertifierKind, ReadPlan};
use crate::metrics::EngineMetrics;
use crate::session::History;
use crate::shard::ShardedStore;
use bytes::Bytes;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_core::{EntityId, Step, TxId, VersionSource};
use mvcc_durability::{is_fence_error, CommitEntry, WalReceipt, WalRecord, WalWriter};
use mvcc_store::{StoreError, TxHandle};
use mvcc_telemetry::{EventKind, Stage};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A scripted failpoint inside the pipeline, for the deterministic
/// failover chaos harness: each variant names a window the tests freeze a
/// primary in (the hook parks the calling thread forever, simulating a
/// kill at exactly that point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillSite {
    /// After the certifier ruled a step, before the step reaches the
    /// history and the WAL.
    AdmissionDrain,
    /// Inside a group-commit drain, after shard effects are applied but
    /// before the batch's commit record is appended and flushed.
    GroupCommitFlush,
    /// Between the commit record's durable flush and the certifier
    /// notifications (commits durable on disk, invisible in memory).
    CommitNotifyGap,
    /// Inside the checkpoint cut, while the group-commit drain is held.
    Checkpoint,
}

impl fmt::Display for KillSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillSite::AdmissionDrain => write!(f, "admission-drain"),
            KillSite::GroupCommitFlush => write!(f, "group-commit-flush"),
            KillSite::CommitNotifyGap => write!(f, "commit-notify-gap"),
            KillSite::Checkpoint => write!(f, "checkpoint"),
        }
    }
}

/// A chaos callback fired at every [`KillSite`] the pipeline passes.  The
/// production default is `None` (never constructed, zero overhead beyond
/// an `Option` check); the chaos harness installs one that parks the
/// calling thread forever at a scripted site, freezing the primary
/// mid-protocol exactly where the failover story is most delicate.
#[derive(Clone)]
pub struct ChaosHook(pub Arc<dyn Fn(KillSite) + Send + Sync>);

impl ChaosHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(KillSite) + Send + Sync + 'static) -> Self {
        ChaosHook(Arc::new(f))
    }
}

impl fmt::Debug for ChaosHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ChaosHook(..)")
    }
}

/// The engine-internal verdict on one submitted step, with read plans
/// already resolved against the admitted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Admitted; `Some(plan)` for reads, `None` for writes.
    Admitted(Option<ReadPlan>),
    /// The certifier rejected the step; its lane has already been told of
    /// the abort.
    Rejected,
    /// The resolved read would have observed the uncommitted version of
    /// the contained writer (ACA); the lane has already been told of the
    /// abort.
    DirtyRead(TxId),
}

/// The engine-internal verdict on one submitted commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CommitOutcome {
    /// Committed on every touched shard; certifiers notified.  With
    /// durability on, carries the LSN of the batch's WAL commit record —
    /// what a replica router's read-your-writes waits for.
    Committed {
        /// LSN of the WAL commit record (`None` with durability off).
        wal_lsn: Option<u64>,
    },
    /// First-committer-wins validation failed on the contained entity
    /// against the contained winner.  The session must abort itself.
    Conflict(EntityId, TxId),
    /// An unexpected store-level failure (a bug if it ever surfaces).
    Store(StoreError),
    /// The engine's WAL epoch has been superseded by a promoted replica:
    /// this primary is fenced and can never commit again.  Nothing was
    /// made durable for this request.
    Deposed,
}

/// The append-only admission history, shared by all lanes.
///
/// With a single global lane the appends happen in ruling order under the
/// lane lock, so the log is exactly the certifier's admission sequence.
/// Per-shard lanes interleave their batches arbitrarily, which is only
/// offered to certifiers whose class claims nothing about cross-entity
/// order (snapshot isolation).
#[derive(Debug)]
pub(crate) struct HistoryLog {
    record: bool,
    /// `Some(n)`: ring mode — at most `n` admitted steps are retained,
    /// oldest dropped first, with a high-water drop counter.  Long soak
    /// and replication runs use this to bound memory; classification
    /// tests keep the default unbounded log (a truncated history cannot
    /// be classified).
    capacity: Option<usize>,
    admitted: TrackedMutex<AdmittedLog>,
    committed: TrackedMutex<BTreeSet<TxId>>,
}

/// The admitted-step buffer plus its drop high-water mark.
#[derive(Debug, Default)]
struct AdmittedLog {
    steps: std::collections::VecDeque<Step>,
    dropped: u64,
    /// Largest transaction id among dropped steps — the *drop horizon*.
    /// Transaction ids are allocated monotonically, so every transaction
    /// with an id above the horizon still has all of its steps in the
    /// retained window; the online watchdog classifies exactly that
    /// self-contained sub-history when the ring has truncated.
    dropped_max_tx: Option<TxId>,
}

impl HistoryLog {
    pub(crate) fn new(record: bool, capacity: Option<usize>) -> Self {
        HistoryLog {
            record,
            capacity,
            admitted: TrackedMutex::new(
                lock_class!("engine.history-admitted"),
                AdmittedLog::default(),
            ),
            committed: TrackedMutex::new(lock_class!("engine.history-committed"), BTreeSet::new()),
        }
    }

    /// Appends one ruled batch's admitted steps (no-op when recording is
    /// off).  In ring mode the oldest steps beyond the capacity are
    /// dropped and counted.
    fn append_batch(&self, steps: &[Step]) {
        if self.record && !steps.is_empty() {
            let mut log = self.admitted.lock();
            log.steps.extend(steps.iter().copied());
            if let Some(cap) = self.capacity {
                while log.steps.len() > cap {
                    if let Some(dropped) = log.steps.pop_front() {
                        log.dropped += 1;
                        log.dropped_max_tx = log.dropped_max_tx.max(Some(dropped.tx));
                    }
                }
            }
        }
    }

    /// Records a batch of commits.
    fn commit_all(&self, txs: &[TxId]) {
        if !txs.is_empty() {
            let mut committed = self.committed.lock();
            for &tx in txs {
                committed.insert(tx);
            }
        }
    }

    /// A point-in-time copy.  The committed set is cloned *before* the
    /// admitted log: steps are always appended before their transaction
    /// can commit, so this order can never observe a committed transaction
    /// whose steps are missing from the log (the opposite order could).
    pub(crate) fn snapshot(&self) -> History {
        let committed = self.committed.lock().clone();
        let log = self.admitted.lock();
        History {
            admitted: log.steps.iter().copied().collect(),
            dropped: log.dropped,
            drop_horizon: log.dropped_max_tx,
            committed,
        }
    }

    /// Seeds the log with a crash-recovered history so a resumed engine's
    /// history stays append-only across the crash: the recovered admitted
    /// prefix (kept only when recording is on) plus the recovered
    /// committed set (always — commit membership is cheap and the
    /// committed projection depends on it).
    pub(crate) fn seed(&self, admitted: &[Step], committed: &BTreeSet<TxId>) {
        self.append_batch(admitted);
        self.committed.lock().extend(committed.iter().copied());
    }
}

/// The WAL record for one admitted step.
fn step_record(step: Step, value: Option<&Bytes>) -> WalRecord {
    if step.is_read() {
        WalRecord::Read {
            tx: step.tx,
            entity: step.entity,
        }
    } else {
        WalRecord::Write {
            tx: step.tx,
            entity: step.entity,
            value: value.cloned().unwrap_or_default(),
        }
    }
}

/// One commit request parked in the group-commit queue.
#[derive(Debug)]
struct CommitRequest {
    tx: TxId,
    begun_shards: Vec<bool>,
    /// The verdict, filled by whichever session leads the drain.
    outcome: TrackedMutex<Option<CommitOutcome>>,
}

/// Everything that must change atomically with a certifier ruling on one
/// lane.
struct LaneState {
    certifier: Box<dyn Certifier>,
    /// Transactions this lane knows to have committed (mirrors the shared
    /// history; consulted by the ACA rule and write-chain pruning).
    committed: BTreeSet<TxId>,
    /// Admitted writers per entity, in admission order (aborted writers
    /// removed, committed prefixes pruned).  This is how the engine
    /// resolves [`ReadPlan::Latest`] into the version the *admitted
    /// sequence* dictates — the last admitted write — instead of whatever
    /// happens to be committed in the store when the read executes, which
    /// could tell a different story than the history the classifiers
    /// certify.
    write_chains: HashMap<EntityId, Vec<TxId>>,
    /// On a crash-recovered engine: the newest committed pre-crash writer
    /// per entity.  A fresh certifier's [`VersionSource::Initial`]
    /// assignment means "the version older than every write I have seen"
    /// — which, in the resumed epoch, is the recovered base version, not
    /// the engine pre-seed (possibly long since garbage-collected).
    recovered_base: HashMap<EntityId, TxId>,
}

impl LaneState {
    /// A fresh admission lane ruled by `certifier`.
    fn lane(certifier: Box<dyn Certifier>) -> TrackedMutex<LaneState> {
        TrackedMutex::new(
            lock_class!("engine.lane-state"),
            LaneState {
                certifier,
                committed: BTreeSet::new(),
                write_chains: HashMap::new(),
                recovered_base: HashMap::new(),
            },
        )
    }

    /// Records an admitted write of `entity` by `tx` and prunes the chain:
    /// every entry before the last *committed* one can never again be the
    /// last admitted write (commits are never undone, aborts only remove
    /// their own entries), so only the committed tail entry plus the
    /// in-flight writers after it are kept.
    fn record_write(&mut self, entity: EntityId, tx: TxId) {
        let chain = self.write_chains.entry(entity).or_default();
        chain.push(tx);
        if let Some(last_committed) = chain.iter().rposition(|w| self.committed.contains(w)) {
            chain.drain(..last_committed);
        }
    }

    /// The version the last admitted write of `entity` created, or the
    /// initial version when nothing has been admitted (store pre-seed).
    fn latest_admitted(&self, entity: EntityId) -> VersionSource {
        match self.write_chains.get(&entity).and_then(|c| c.last()) {
            Some(&w) => VersionSource::Tx(w),
            None => VersionSource::Initial,
        }
    }

    /// Removes an aborted transaction's entries from every write chain.
    fn purge_writer(&mut self, tx: TxId) {
        for chain in self.write_chains.values_mut() {
            chain.retain(|&w| w != tx);
        }
    }

    /// Tells the certifier `tx` aborted and purges its write-chain entries.
    fn on_abort(&mut self, tx: TxId) {
        self.certifier.on_abort(tx);
        self.purge_writer(tx);
    }

    /// Converts one certifier ruling into a resolved [`StepOutcome`],
    /// updating lane state.  The caller records admitted outcomes in the
    /// history (and the WAL).
    fn resolve(&mut self, step: Step, admission: Admission) -> StepOutcome {
        match admission {
            Admission::Reject => {
                self.on_abort(step.tx);
                StepOutcome::Rejected
            }
            admitted_as if step.is_read() => {
                let Admission::Read(plan) = admitted_as else {
                    unreachable!("read step admitted as write")
                };
                // Single-version certifiers mean "the latest version" in
                // the model's sense: the last *admitted* write.  Resolve it
                // here, at the lane's serialization point, so the value
                // served always matches the history being recorded.  A
                // multiversion certifier's explicit `Initial` assignment
                // is likewise re-based onto the recovered base version
                // after a crash (on a fresh engine the map is empty and
                // `Initial` stays the store pre-seed).
                let plan = match plan {
                    ReadPlan::Latest => ReadPlan::Version(self.latest_admitted(step.entity)),
                    ReadPlan::Version(VersionSource::Initial) => {
                        match self.recovered_base.get(&step.entity) {
                            Some(&writer) => ReadPlan::Version(VersionSource::Tx(writer)),
                            None => ReadPlan::Version(VersionSource::Initial),
                        }
                    }
                    other => other,
                };
                // ACA: refuse to observe a version whose writer has not
                // committed (reading own writes is always fine).
                if let ReadPlan::Version(VersionSource::Tx(writer)) = plan {
                    if writer != step.tx && !self.committed.contains(&writer) {
                        self.on_abort(step.tx);
                        return StepOutcome::DirtyRead(writer);
                    }
                }
                StepOutcome::Admitted(Some(plan))
            }
            _ => {
                self.record_write(step.entity, step.tx);
                StepOutcome::Admitted(None)
            }
        }
    }
}

/// The group-commit lane: a commit queue plus the drain lock its leader
/// holds while applying a batch (also what makes cross-shard
/// first-committer-wins validate+commit atomic against other committers).
struct CommitLane {
    queue: TrackedMutex<Vec<Arc<CommitRequest>>>,
    drain: TrackedMutex<()>,
}

/// The admission pipeline: admission lanes (one, or one per shard) plus
/// the group-commit lane.
pub(crate) struct AdmissionPipeline {
    /// The admission lanes; each lock is held for exactly one ruling.
    lanes: Vec<TrackedMutex<LaneState>>,
    commit: CommitLane,
    /// Cross-lane publication order: with per-shard lanes (snapshot
    /// isolation), two lanes may rule steps concurrently, and the
    /// history append and WAL append of [`Self::finish_admission`] are
    /// atomic only under each lane's own lock.  Without a shared fence
    /// the two logs can interleave the lanes' steps differently —
    /// harmless to SI's class (which claims nothing about cross-entity
    /// order) but fatal to replication, where the shipped projection must
    /// equal the history projection step for step.  Held across both
    /// appends only when more than one lane exists; a single global lane
    /// already serializes publication.
    publish: TrackedMutex<()>,
    /// Cached [`Certifier::validates_writes_at_commit`] (a static property
    /// of the certifier kind; caching keeps it off the commit hot path).
    validates_at_commit: bool,
    /// The write-ahead log, when durability is on.  Step records are
    /// appended under the lane lock (so the log is the admission order);
    /// the group-commit leader appends one commit record per batch and
    /// issues the batch's single flush.
    wal: Option<Arc<WalWriter>>,
    /// `true` in fsync mode: commits park behind a one-quantum
    /// group-commit window so concurrent committers share each fsync.
    fsync_window: bool,
    /// One past the highest WAL LSN known flushed (0 = nothing durable
    /// yet), advanced by every WAL call that flushed
    /// ([`Self::note_flushed`]).  This — not the writer's buffered tail —
    /// is what replicas can actually observe, so it is the horizon
    /// `ReadPolicy::Latest` and lag bounds compare against.
    durable_lsn: std::sync::atomic::AtomicU64,
    /// Latched once the WAL refuses an append or flush with a fencing
    /// error (a replica promoted over this primary's epoch).  From then on
    /// every commit is refused with [`CommitOutcome::Deposed`] *before*
    /// any shard effect — the deposed engine's in-memory state stays a
    /// prefix of what it already acknowledged, never diverges past the
    /// fence.
    deposed: AtomicBool,
    /// Scripted failpoints for the chaos harness (`None` in production).
    chaos: Option<ChaosHook>,
}

impl fmt::Debug for AdmissionPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionPipeline")
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl AdmissionPipeline {
    /// Builds the pipeline for `kind`: one global lane, or one lane per
    /// shard when the certifier declares [`AdmissionScope::PerShard`].
    pub(crate) fn new(
        kind: CertifierKind,
        shards: usize,
        wal: Option<Arc<WalWriter>>,
        chaos: Option<ChaosHook>,
    ) -> Self {
        let first = kind.build();
        let validates_at_commit = first.validates_writes_at_commit();
        let lane_count = match first.admission_scope() {
            AdmissionScope::Global => 1,
            AdmissionScope::PerShard => shards,
        };
        let mut lanes = Vec::with_capacity(lane_count);
        lanes.push(LaneState::lane(first));
        while lanes.len() < lane_count {
            lanes.push(LaneState::lane(kind.build()));
        }
        let fsync_window = wal
            .as_ref()
            .is_some_and(|w| w.mode() == mvcc_durability::DurabilityMode::Fsync);
        AdmissionPipeline {
            lanes,
            commit: CommitLane {
                queue: TrackedMutex::new(lock_class!("engine.commit-queue"), Vec::new()),
                drain: TrackedMutex::new(lock_class!("engine.commit-drain"), ()),
            },
            publish: TrackedMutex::new(lock_class!("engine.publish-order"), ()),
            validates_at_commit,
            wal,
            fsync_window,
            durable_lsn: std::sync::atomic::AtomicU64::new(0),
            deposed: AtomicBool::new(false),
            chaos,
        }
    }

    /// Fires the chaos hook at `site` (no-op without a hook installed).
    /// The flight-recorder event lands *before* the hook runs: a hook
    /// that freezes the calling thread forever (the chaos harness's
    /// scripted kill) still leaves the kill site on the timeline.
    fn chaos_point(&self, site: KillSite, metrics: &EngineMetrics) {
        if let Some(hook) = &self.chaos {
            metrics.flight(EventKind::KillSite {
                site: site.to_string(),
            });
            (hook.0)(site);
        }
    }

    /// `true` once the WAL has fenced this engine out (a replica was
    /// promoted over its epoch): every subsequent commit is refused.
    pub(crate) fn is_deposed(&self) -> bool {
        self.deposed.load(Ordering::Acquire)
    }

    /// Latches the deposed flag (also used by [`crate::Engine::recover_as`]
    /// to bring a superseded primary up read-only).
    pub(crate) fn depose(&self) {
        self.deposed.store(true, Ordering::Release);
    }

    /// LSN of the newest record known flushed (per the engine's mode), or
    /// `None` before the first durable commit.
    pub(crate) fn durable_lsn(&self) -> Option<u64> {
        self.durable_lsn
            .load(std::sync::atomic::Ordering::Acquire)
            .checked_sub(1)
    }

    /// Advances the durable horizon to `lsn` (monotone).
    pub(crate) fn note_durable(&self, lsn: u64) {
        self.durable_lsn
            .fetch_max(lsn + 1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Advances the durable horizon to everything a WAL call flushed —
    /// which can run past the caller's own records (a rotating buffered
    /// append, or a commit flush carrying a concurrent step append).
    /// Flushed records are readable by replicas, and a horizon left
    /// behind them would put a caught-up replica's watermark ahead of the
    /// primary's.
    pub(crate) fn note_flushed(&self, receipt: &WalReceipt) {
        if let Some(lsn) = receipt.flushed_through {
            self.note_durable(lsn);
        }
    }

    /// Seeds every lane with crash-recovered facts: the committed
    /// transaction set (consulted by the ACA rule) and the newest
    /// committed writer per entity (so a resumed single-version "latest"
    /// read resolves to the recovered value instead of the long-gone
    /// pre-seed).  Fresh certifiers need no notification — every seeded
    /// transaction finished before anything the new certifier will rule
    /// on, so there is no admission state to carry over.
    pub(crate) fn seed_recovered(
        &self,
        committed: &BTreeSet<TxId>,
        latest_writers: &[(EntityId, TxId)],
    ) {
        for lane in &self.lanes {
            let mut state = lane.lock();
            state.committed.extend(committed.iter().copied());
            for &(entity, writer) in latest_writers {
                state.write_chains.insert(entity, vec![writer]);
                state.recovered_base.insert(entity, writer);
            }
        }
    }

    /// Number of admission lanes (1 unless the certifier is per-shard).
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The lane ruling on `entity` for a store sharded `shards` ways.
    fn lane_of(&self, entity: EntityId, shards: &ShardedStore) -> usize {
        if self.lanes.len() == 1 {
            0
        } else {
            shards.shard_of(entity) % self.lanes.len()
        }
    }

    /// Rules on one step: locks the step's lane, has the certifier rule
    /// ([`Certifier::admit`]), resolves the ruling against the lane's
    /// admitted sequence ([`LaneState::resolve`]) and publishes an admitted
    /// step to the history and the WAL before the lane is released — one
    /// ruling per lane lock, so each lane's history is its ruling order.
    pub(crate) fn submit_step(
        &self,
        step: Step,
        value: Option<&Bytes>,
        log_begin: bool,
        shards: &ShardedStore,
        history: &HistoryLog,
        metrics: &EngineMetrics,
    ) -> StepOutcome {
        let mut state = self.lanes[self.lane_of(step.entity, shards)].lock();
        // Sampled stage probe (1-in-32 per thread): service time is the
        // whole ruling plus publication, certify time just the certifier.
        let sampled = metrics.sampled_stage_clock();
        // lint: allow(clock) — stage clock, read only when sampled
        let certify_clock = sampled.is_some().then(Instant::now);
        let admission = state.certifier.admit(step);
        metrics.record_stage_since(Stage::Certify, certify_clock);
        let outcome = state.resolve(step, admission);
        let admitted =
            matches!(outcome, StepOutcome::Admitted(_)).then_some((step, value, log_begin));
        self.finish_admission(admitted, history, metrics);
        drop(state);
        metrics.record_admission_batch(1);
        metrics.record_stage_since(Stage::AdmissionService, sampled);
        outcome
    }

    /// Publishes one ruling, still under its lane lock: an admitted step
    /// (with its write payload, and the transaction's begin record when it
    /// is the first step) goes to the in-memory history first, then the
    /// WAL (buffered append, so the log carries the admission order); a
    /// rejected step (`None`) only passes the kill site.  WAL I/O
    /// failure is fatal — a log the engine cannot append to can no longer
    /// back any durability promise — with one exception: a *fencing*
    /// refusal (a replica promoted over this epoch) latches the deposed
    /// flag instead.  A buffered append re-reads the epoch marker only
    /// when it has to rotate the segment, so a deposed primary usually
    /// learns of its fate at the next commit's fence check; the step
    /// records it buffers (or drops here) until then are harmless: no
    /// commit of these transactions can ever reach the fenced log, so
    /// they belong to transactions recovery would discard anyway (ACA).
    fn finish_admission(
        &self,
        admitted: Option<(Step, Option<&Bytes>, bool)>,
        history: &HistoryLog,
        metrics: &EngineMetrics,
    ) {
        self.chaos_point(KillSite::AdmissionDrain, metrics);
        let Some((step, value, log_begin)) = admitted else {
            return;
        };
        // With per-shard lanes the lane lock alone doesn't order this
        // step's two appends against another lane's: fence them so the
        // history and the WAL record the same cross-lane interleaving
        // (see the `publish` field).  Single-lane pipelines skip the
        // acquisition — the lane lock already is the publication order.
        let _publish = (self.lanes.len() > 1).then(|| self.publish.lock());
        history.append_batch(std::slice::from_ref(&step));
        if let Some(wal) = &self.wal {
            let records = [WalRecord::Begin { tx: step.tx }, step_record(step, value)];
            let skip = usize::from(!log_begin);
            match wal.append_batch(&records[skip..]) {
                Ok(receipt) => {
                    self.note_flushed(&receipt);
                    metrics.record_wal_append(receipt.records, receipt.bytes);
                }
                Err(e) if is_fence_error(&e) => {
                    metrics.flight(EventKind::FenceRefusal {
                        site: "admission-append".into(),
                    });
                    self.depose();
                }
                Err(e) => {
                    panic!("WAL append failed: durability can no longer be guaranteed: {e}")
                }
            }
        }
    }

    /// Submits a commit and blocks until it has been applied (or refused)
    /// by a group-commit leader: the session itself when the drain is
    /// free, otherwise whichever session takes the drain next.
    pub(crate) fn submit_commit(
        &self,
        tx: TxId,
        begun_shards: &[bool],
        shards: &ShardedStore,
        history: &HistoryLog,
        metrics: &EngineMetrics,
    ) -> CommitOutcome {
        // Fast path: the drain is free — apply right away (with any
        // parked backlog), without parking a request.  Not in fsync mode:
        // an fsync-bound commit always parks first (see the group-commit
        // window below), because a leader racing ahead alone turns every
        // transaction into its own fsync.
        if !self.fsync_window {
            if let Some(_drain) = self.commit.drain.try_lock() {
                let queued = std::mem::take(&mut *self.commit.queue.lock());
                let own = CommitRequest {
                    tx,
                    begun_shards: begun_shards.to_vec(),
                    outcome: TrackedMutex::new(lock_class!("engine.commit-slot"), None),
                };
                let mut refs: Vec<&CommitRequest> = queued.iter().map(Arc::as_ref).collect();
                refs.push(&own);
                self.process_commit_batch(&refs, shards, history, metrics);
                return own
                    .outcome
                    .lock()
                    .take()
                    // lint: allow(unwrap) — process_commit_batch fills every slot
                    .expect("commit batch fills every slot");
            }
        }
        let request = Arc::new(CommitRequest {
            tx,
            begun_shards: begun_shards.to_vec(),
            outcome: TrackedMutex::new(lock_class!("engine.commit-slot"), None),
        });
        self.commit.queue.lock().push(Arc::clone(&request));
        if self.fsync_window {
            // The group-commit window: yield one scheduling quantum so
            // other runnable committers can park their requests behind
            // ours before a leader drains.  On a loaded host this is what
            // forms fsync-sharing batches at all (a free drain would
            // otherwise be taken immediately, one fsync per transaction —
            // measured 3-5× slower); idle, the yield returns at once and
            // we lead our own batch.  Buffered mode skips the window: its
            // flush is a buffered write, cheaper than the extra parking
            // round-trips.
            std::thread::yield_now();
        }
        loop {
            if let Some(outcome) = request.outcome.lock().take() {
                return outcome;
            }
            let _drain = self.commit.drain.lock();
            if let Some(outcome) = request.outcome.lock().take() {
                return outcome;
            }
            let batch = std::mem::take(&mut *self.commit.queue.lock());
            let refs: Vec<&CommitRequest> = batch.iter().map(Arc::as_ref).collect();
            self.process_commit_batch(&refs, shards, history, metrics);
        }
    }

    /// Applies one batch of commits: shard effects first (in groups), then
    /// the batch's one WAL commit record with its single flush, then
    /// certifier notifications, then the history log, then the outcome
    /// slots.  Shard commits landing before `on_commit` is what lets a
    /// certifier that releases admission state at commit (2PL's locks)
    /// never expose a reader to a not-yet-applied commit; the WAL flush
    /// landing before `on_commit` is what makes durability prefix-shaped
    /// (no later transaction can observe this commit — rule 3 — until its
    /// record is durable, so a committed reader's log position implies
    /// its writers' records are durable too).  A batch in which at least
    /// one member committed (FCW losers and store refusals excluded) is
    /// counted in the commit-batch telemetry.
    fn process_commit_batch(
        &self,
        batch: &[&CommitRequest],
        shards: &ShardedStore,
        history: &HistoryLog,
        metrics: &EngineMetrics,
    ) {
        if batch.is_empty() {
            return;
        }
        // Sampled batch probe (1-in-32 per leading thread): the whole
        // apply is Stage::GroupCommitApply, the flush alone WalFlush.
        let apply_clock = metrics.sampled_stage_clock();
        // Fence check *before* any shard effect: a deposed primary must
        // not apply commits its WAL can no longer record — its in-memory
        // state would diverge from the durable prefix the promoted
        // replica took over.  Re-reading the epoch marker here (not just
        // the latched flag) is what bounds the split-brain window: the
        // first commit after a promotion is refused even if no append has
        // failed yet.
        let fenced = self.is_deposed()
            || match &self.wal {
                Some(wal) => match wal.check_fence() {
                    Ok(()) => false,
                    Err(e) if is_fence_error(&e) => {
                        metrics.flight(EventKind::FenceRefusal {
                            site: "commit-fence-check".into(),
                        });
                        self.depose();
                        true
                    }
                    Err(e) => panic!("WAL epoch check failed: {e}"),
                },
                None => false,
            };
        if fenced {
            for request in batch {
                *request.outcome.lock() = Some(CommitOutcome::Deposed);
            }
            return;
        }
        let mut outcomes: Vec<CommitOutcome> = Vec::with_capacity(batch.len());
        // Per committed member: the (shard, timestamp) pairs it was
        // assigned, destined for the batch's WAL commit record.
        let mut stamped: Vec<Option<Vec<(u32, u64)>>> = Vec::with_capacity(batch.len());
        if self.validates_at_commit {
            // First-committer-wins: validate every touched shard, then
            // commit them all.  Requests are processed in batch order, so
            // an earlier winner's committed versions are visible to a
            // later loser's validation; the drain lock makes the whole
            // sequence atomic against other committers.
            for request in batch {
                let handle = TxHandle { id: request.tx };
                let mut verdict = CommitOutcome::Committed { wal_lsn: None };
                let mut stamps = Vec::new();
                'validate: for (idx, &begun) in request.begun_shards.iter().enumerate() {
                    if !begun {
                        continue;
                    }
                    if let Err(StoreError::WriteConflict(entity, winner)) =
                        shards.store(idx).validate_first_committer(handle)
                    {
                        verdict = CommitOutcome::Conflict(entity, winner);
                        break 'validate;
                    }
                }
                if matches!(verdict, CommitOutcome::Committed { .. }) {
                    for (idx, &begun) in request.begun_shards.iter().enumerate() {
                        if begun {
                            match shards.store(idx).commit(handle, false) {
                                Ok(ts) => stamps.push((idx as u32, ts)),
                                Err(e) => {
                                    verdict = CommitOutcome::Store(e);
                                    break;
                                }
                            }
                        }
                    }
                }
                stamped.push(matches!(verdict, CommitOutcome::Committed { .. }).then_some(stamps));
                outcomes.push(verdict);
            }
        } else {
            // Group commit: one pass per shard over the whole batch (each
            // store's transaction table and chain map are locked once per
            // group instead of once per transaction).
            let group: Vec<(TxHandle, &[bool])> = batch
                .iter()
                .map(|r| (TxHandle { id: r.tx }, r.begun_shards.as_slice()))
                .collect();
            for result in shards.commit_group(&group) {
                match result {
                    Ok(stamps) => {
                        stamped.push(Some(
                            stamps
                                .into_iter()
                                .map(|(idx, ts)| (idx as u32, ts))
                                .collect(),
                        ));
                        outcomes.push(CommitOutcome::Committed { wal_lsn: None });
                    }
                    Err(e) => {
                        stamped.push(None);
                        outcomes.push(CommitOutcome::Store(e));
                    }
                }
            }
        }
        let committed: Vec<TxId> = batch
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| matches!(o, CommitOutcome::Committed { .. }))
            .map(|(r, _)| r.tx)
            .collect();
        let mut batch_lsn = None;
        // Durability point: one commit record for the whole batch, one
        // flush (at most one fsync), before anyone can learn of the
        // commits.
        if let Some(wal) = &self.wal {
            if !committed.is_empty() {
                let entries: Vec<CommitEntry> = batch
                    .iter()
                    .zip(&mut stamped)
                    .filter_map(|(request, stamps)| {
                        stamps.take().map(|shards| CommitEntry {
                            tx: request.tx,
                            shards,
                        })
                    })
                    .collect();
                self.chaos_point(KillSite::GroupCommitFlush, metrics);
                // lint: allow(clock) — stage clock, read only when sampled
                let flush_clock = apply_clock.is_some().then(Instant::now);
                let receipt = match wal.append_and_flush(&[WalRecord::Commit { entries }]) {
                    Ok(receipt) => receipt,
                    Err(e) if is_fence_error(&e) => {
                        // Deposed between the fence check above and the
                        // flush: the shard effects just applied can never
                        // become durable.  Refuse the whole batch —
                        // certifiers are not notified, the commits stay
                        // invisible to admission, and the stranded
                        // in-memory versions die with this engine (every
                        // session is now fenced too).
                        metrics.flight(EventKind::FenceRefusal {
                            site: "commit-flush".into(),
                        });
                        self.depose();
                        for request in batch {
                            *request.outcome.lock() = Some(CommitOutcome::Deposed);
                        }
                        return;
                    }
                    Err(e) => panic!(
                        "WAL commit flush failed: durability can no longer be guaranteed: {e}"
                    ),
                };
                metrics.record_stage_since(Stage::WalFlush, flush_clock);
                metrics.record_wal_flush(receipt.bytes, receipt.fsynced, committed.len());
                if apply_clock.is_some() {
                    metrics.record_stage_value(Stage::WalFlushTxns, committed.len() as u64);
                    metrics.flight(EventKind::WalFlush {
                        bytes: receipt.bytes,
                        fsynced: receipt.fsynced,
                        txns: committed.len() as u64,
                    });
                }
                self.note_flushed(&receipt);
                if let Some(lsn) = receipt.last_lsn {
                    // hb claim "WAL-append-before-notify": this mark and
                    // the `certifier_notify` mark below share the batch's
                    // LSN as key; the analysis gate asserts the order —
                    // and, through the tracked outcome-slot handoff, that
                    // a session observing its commit is ordered after the
                    // flush (durability is prefix-shaped, PR 4).
                    mvcc_analysis::hb::probe("engine.wal_append", lsn);
                    batch_lsn = Some(lsn);
                    // Every member shares the batch's one commit record.
                    for outcome in &mut outcomes {
                        if let CommitOutcome::Committed { wal_lsn } = outcome {
                            *wal_lsn = Some(lsn);
                        }
                    }
                }
                self.chaos_point(KillSite::CommitNotifyGap, metrics);
            }
        }
        // Certifier + history bookkeeping for the transactions that made
        // it, after their shard effects are fully applied.
        if !committed.is_empty() {
            if let Some(lsn) = batch_lsn {
                mvcc_analysis::hb::probe("engine.certifier_notify", lsn);
            }
            for lane in &self.lanes {
                let mut state = lane.lock();
                for &tx in &committed {
                    state.certifier.on_commit(tx);
                    state.committed.insert(tx);
                }
            }
            history.commit_all(&committed);
            metrics.record_commit_batch(committed.len());
        }
        metrics.record_stage_since(Stage::GroupCommitApply, apply_clock);
        for (request, outcome) in batch.iter().zip(outcomes) {
            *request.outcome.lock() = Some(outcome);
        }
    }

    /// Runs `f` while holding the group-commit drain lock: no commit can
    /// be between its shard apply and its WAL commit-record append while
    /// `f` runs.  This is the checkpointer's fence — without it, a fuzzy
    /// checkpoint could durably persist a version whose commit record
    /// never reached the log (a crash in that window would then recover
    /// a store state claiming a transaction the recovered history says
    /// never committed, breaking the state-equals-committed-projection
    /// invariant).  Commits stall for the duration, so `f` should be a
    /// snapshot, not an I/O marathon.
    pub(crate) fn checkpoint_cut<R>(&self, metrics: &EngineMetrics, f: impl FnOnce() -> R) -> R {
        let _drain = self.commit.drain.lock();
        self.chaos_point(KillSite::Checkpoint, metrics);
        f()
    }

    /// Tells every lane (or every lane but `ruled_on`, which already knows)
    /// that `tx` aborted.
    pub(crate) fn notify_abort(&self, tx: TxId, ruled_on: Option<usize>) {
        for (idx, lane) in self.lanes.iter().enumerate() {
            if Some(idx) == ruled_on {
                continue;
            }
            lane.lock().on_abort(tx);
        }
    }

    /// The lane index that ruled (or would rule) on `entity` — used by
    /// sessions to skip double abort notification.
    pub(crate) fn ruling_lane(&self, entity: EntityId, shards: &ShardedStore) -> usize {
        self.lane_of(entity, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::CertifierKind;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mvcc-pipeline-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A commit request parked in the group-commit queue, as a waiting
    /// session leaves it.
    fn park_commit(pipeline: &AdmissionPipeline, tx: u32) -> Arc<CommitRequest> {
        let request = Arc::new(CommitRequest {
            tx: TxId(tx),
            begun_shards: vec![false],
            outcome: TrackedMutex::new(lock_class!("engine.commit-slot"), None),
        });
        pipeline.commit.queue.lock().push(Arc::clone(&request));
        request
    }

    /// A commit parked in the queue is drained by whichever session leads
    /// next: the leader fills the parked slot with the same verdict, and
    /// both share the batch's one WAL commit record when a log is kept.
    #[test]
    fn drain_leader_fills_a_parked_commit_slot() {
        for durable in [false, true] {
            let dir = durable.then(|| temp_dir("drain"));
            let wal = dir.as_ref().map(|d| {
                Arc::new(
                    WalWriter::open(d, mvcc_durability::DurabilityMode::Buffered, 8 << 20).unwrap(),
                )
            });
            let shards = ShardedStore::new(1, 4, Bytes::from_static(b"0"));
            let history = HistoryLog::new(true, None);
            let metrics = EngineMetrics::new(1);
            let pipeline = AdmissionPipeline::new(CertifierKind::Sgt, 1, wal, None);
            let foreign = park_commit(&pipeline, 7);
            let outcome = pipeline.submit_commit(TxId(8), &[false], &shards, &history, &metrics);
            let CommitOutcome::Committed { wal_lsn } = outcome else {
                panic!("leader did not commit: {outcome:?}");
            };
            assert_eq!(wal_lsn.is_some(), durable);
            let foreign_outcome = foreign
                .outcome
                .lock()
                .take()
                .expect("the leader fills every drained slot");
            assert_eq!(foreign_outcome, CommitOutcome::Committed { wal_lsn });
            let snap = metrics.snapshot();
            assert_eq!((snap.commit_batches, snap.commit_batch_txns), (1, 2));
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// Ring mode records the drop horizon, and the windowed projection
    /// keeps exactly the transactions wholly above it.
    #[test]
    fn ring_history_tracks_the_drop_horizon() {
        let history = HistoryLog::new(true, Some(2));
        history.append_batch(&[
            Step::write(TxId(1), EntityId(0)),
            Step::write(TxId(2), EntityId(0)),
        ]);
        assert_eq!(history.snapshot().drop_horizon, None);
        history.append_batch(&[Step::write(TxId(3), EntityId(0))]);
        history.commit_all(&[TxId(1), TxId(2), TxId(3)]);
        let snap = history.snapshot();
        assert_eq!(snap.dropped, 1);
        assert_eq!(snap.drop_horizon, Some(TxId(1)));
        assert!(!snap.is_complete());
        // tx1's step fell off the front: the window is tx2 and tx3, both
        // of which still have every step retained.
        assert_eq!(snap.committed_schedule().len(), 2);
        assert_eq!(snap.windowed_schedule().len(), 2);
        // A complete history windows to the full committed projection.
        let full = HistoryLog::new(true, None);
        full.append_batch(&[Step::write(TxId(1), EntityId(0))]);
        full.commit_all(&[TxId(1)]);
        let snap = full.snapshot();
        assert_eq!(snap.windowed_schedule().len(), 1);
    }
}
