//! The read-scaling router: read-only sessions routed to replicas under
//! explicit staleness policies.
//!
//! A follower read is only as good as its staleness contract.  The
//! router makes the contract explicit — [`ReadPolicy`] — and *fails*
//! rather than silently serving something staler:
//!
//! * [`ReadPolicy::Latest`] — the snapshot must cover the primary's
//!   durable horizon as sampled at request time.  On a stalled replica
//!   this degrades to [`RouterError::Stale`] after the configured wait,
//!   never to a silently old answer.
//! * [`ReadPolicy::BoundedLag`]`(n)` — the snapshot may trail that
//!   horizon by at most `n` log records.
//! * [`ReadPolicy::ExactLsn`]`(lsn)` — the snapshot must cover the given
//!   LSN (a client replaying a known point).
//!
//! **Read-your-writes**: a session that committed on the primary holds
//! its commit record's LSN ([`mvcc_engine::Session::commit_durable`]);
//! [`ReadRouter::begin_read_after`] waits until a replica's watermark
//! passes it, so the routed snapshot always contains the session's own
//! commit, whatever else the policy allows.
//!
//! The horizon compared against is [`mvcc_engine::Engine::durable_lsn`]
//! — the flushed prefix — not the writer's buffered tail: a replica can
//! only ever observe flushed records, so demanding more than the flushed
//! horizon would turn `Latest` into a permanent stall.
//!
//! With no replicas attached the router serves reads from the primary
//! itself (the E15 baseline): every policy is then trivially satisfied.

use crate::replica::{Replica, ReplicaReadSession};
use bytes::Bytes;
use mvcc_core::EntityId;
use mvcc_engine::{Engine, EngineError, Session};
use mvcc_store::StoreError;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How stale a routed read may be, relative to the primary's durable
/// horizon sampled when the read is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// The snapshot must cover the entire durable horizon.
    Latest,
    /// The snapshot may trail the durable horizon by at most this many
    /// log records.
    BoundedLag(u64),
    /// The snapshot must cover this LSN (inclusive).
    ExactLsn(u64),
}

impl fmt::Display for ReadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadPolicy::Latest => write!(f, "latest"),
            ReadPolicy::BoundedLag(n) => write!(f, "bounded-lag({n})"),
            ReadPolicy::ExactLsn(lsn) => write!(f, "exact-lsn({lsn})"),
        }
    }
}

/// Router pacing knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// How long a read may park waiting for a replica to satisfy its
    /// policy before the router gives up.
    pub wait_timeout: Duration,
    /// Sleep between watermark re-checks while parked.
    pub poll: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            wait_timeout: Duration::from_secs(2),
            poll: Duration::from_micros(100),
        }
    }
}

/// Why a router refused a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// No replica satisfied the policy within the wait budget.  The read
    /// was *not* served — degrading loudly is the contract.
    Stale {
        /// The policy that could not be met.
        policy: ReadPolicy,
        /// The watermark the policy required.
        needed: u64,
        /// The best watermark any replica had reached.
        best: u64,
    },
    /// The routed primary has been deposed: a replica was promoted over
    /// its WAL epoch, so it can never commit again.  Writers get this
    /// from the [`WriteRouter`] until failover installs the promoted
    /// primary — degrading loudly here is what keeps a stranded writer
    /// from silently talking to a fenced engine.
    Deposed {
        /// The deposed primary's (stale) epoch.
        epoch: u64,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Stale {
                policy,
                needed,
                best,
            } => write!(
                f,
                "no replica satisfies {policy}: needed watermark {needed}, best {best}"
            ),
            RouterError::Deposed { epoch } => write!(
                f,
                "routed primary (epoch {epoch}) is deposed; retry after failover installs the promoted primary"
            ),
        }
    }
}

impl std::error::Error for RouterError {}

/// A routed read's failure: store-level on a replica, engine-level on
/// the primary fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The replica's store refused the read.
    Store(StoreError),
    /// The primary engine aborted the read session.
    Engine(EngineError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Store(e) => write!(f, "{e}"),
            ReadError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A read-only session the router opened: pinned on a replica, or served
/// by the primary when no replicas are attached.
#[derive(Debug)]
pub enum RoutedRead {
    /// Pinned at a replica's apply watermark.
    Replica(ReplicaReadSession),
    /// A plain primary session (the no-replica baseline).
    Primary(Session),
}

impl RoutedRead {
    /// Reads `entity` at the session's snapshot.
    pub fn read(&mut self, entity: EntityId) -> Result<Bytes, ReadError> {
        match self {
            RoutedRead::Replica(session) => session.read(entity).map_err(ReadError::Store),
            RoutedRead::Primary(session) => session.read(entity).map_err(ReadError::Engine),
        }
    }

    /// The apply watermark the read is pinned at (`None` when served by
    /// the primary, which is never stale).
    pub fn snapshot_lsn(&self) -> Option<u64> {
        match self {
            RoutedRead::Replica(session) => Some(session.snapshot_lsn()),
            RoutedRead::Primary(_) => None,
        }
    }

    /// Finishes the session (replica reads are recorded into the
    /// replica's history; a primary session commits).
    pub fn finish(self) {
        match self {
            RoutedRead::Replica(session) => session.finish(),
            RoutedRead::Primary(session) => {
                // A read-only commit: certifiers admit it or the session
                // was already aborted by a failed read.
                let _ = session.commit();
            }
        }
    }
}

/// Routes read-only sessions across a primary's replicas (see the module
/// docs).
pub struct ReadRouter {
    primary: Arc<Engine>,
    replicas: Vec<Arc<Replica>>,
    config: RouterConfig,
    next: AtomicUsize,
}

impl fmt::Debug for ReadRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadRouter")
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

impl ReadRouter {
    /// Builds a router over `primary` and its `replicas`.
    pub fn new(primary: Arc<Engine>, replicas: Vec<Arc<Replica>>, config: RouterConfig) -> Self {
        ReadRouter {
            primary,
            replicas,
            config,
            next: AtomicUsize::new(0),
        }
    }

    /// The primary's durable horizon as a watermark (one past the newest
    /// flushed LSN; 0 before anything flushed or with durability off).
    fn durable_next(&self) -> u64 {
        self.primary.durable_lsn().map_or(0, |l| l + 1)
    }

    /// Opens a read-only session under `policy`.
    pub fn begin_read(&self, policy: ReadPolicy) -> Result<RoutedRead, RouterError> {
        self.route(policy, 0)
    }

    /// Opens a read-only session under `policy` that additionally
    /// observes the caller's own primary commit at `commit_lsn`
    /// (read-your-writes): the routed snapshot's watermark is waited past
    /// that LSN, whatever the policy alone would tolerate.
    pub fn begin_read_after(
        &self,
        policy: ReadPolicy,
        commit_lsn: u64,
    ) -> Result<RoutedRead, RouterError> {
        self.route(policy, commit_lsn + 1)
    }

    fn route(&self, policy: ReadPolicy, min_watermark: u64) -> Result<RoutedRead, RouterError> {
        let durable_next = self.durable_next();
        let needed = match policy {
            ReadPolicy::Latest => durable_next,
            ReadPolicy::BoundedLag(n) => durable_next.saturating_sub(n),
            ReadPolicy::ExactLsn(lsn) => lsn + 1,
        }
        .max(min_watermark);
        if self.replicas.is_empty() {
            // Baseline mode: the primary serves the read and trivially
            // satisfies every staleness bound.
            return Ok(RoutedRead::Primary(self.primary.begin()));
        }
        let metrics = self.primary.metrics();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        // lint: allow(clock) — bounded-lag routing waits on wall time by definition
        let began = Instant::now();
        let mut waited = false;
        loop {
            let mut best = 0u64;
            for i in 0..self.replicas.len() {
                let replica = &self.replicas[(start + i) % self.replicas.len()];
                // The *safe* watermark: the freshest snapshot the replica
                // can serve without risking a non-serializable merge (see
                // `Replica::begin_read`) — staleness policies are honest
                // only if held against what will actually be pinned.
                let watermark = replica.safe_watermark();
                best = best.max(watermark);
                if watermark >= needed {
                    let session = replica.begin_read();
                    if waited {
                        metrics.record_repl_wait(began.elapsed());
                    }
                    metrics.record_repl_routed_read(
                        durable_next.saturating_sub(session.snapshot_lsn()),
                    );
                    return Ok(RoutedRead::Replica(session));
                }
            }
            if began.elapsed() >= self.config.wait_timeout {
                metrics.record_repl_wait(began.elapsed());
                return Err(RouterError::Stale {
                    policy,
                    needed,
                    best,
                });
            }
            waited = true;
            std::thread::sleep(self.config.poll);
        }
    }
}

/// Routes *write* sessions to the current primary — the failover-facing
/// sibling of [`ReadRouter`].  Holds the one mutable cell of the whole
/// failover story: which engine is primary right now.
///
/// * [`WriteRouter::begin`] opens a session on the current primary, or
///   refuses with [`RouterError::Deposed`] when that engine has been
///   fenced out by a promotion — a stranded writer learns loudly that it
///   must wait for (or trigger) failover instead of queueing work on an
///   engine that can never commit it.
/// * `WriteRouter::install` swaps in a promoted engine.  Installs are
///   **epoch-monotone**: an install whose epoch does not exceed the
///   incumbent's is ignored, so a late or duplicate promotion can never
///   roll the routing back to a deposed primary.
///
/// A session begun *before* a promotion races it by design — the engine
/// itself fences those at commit ([`mvcc_engine::EngineError::Deposed`]);
/// the router only keeps *new* sessions off known-deposed engines.
pub struct WriteRouter {
    primary: mvcc_analysis::lockdep::TrackedMutex<Arc<Engine>>,
    /// Promotions actually installed (epoch-monotone swaps).
    installs: AtomicUsize,
}

impl fmt::Debug for WriteRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteRouter")
            .field("epoch", &self.primary.lock().epoch())
            .field("installs", &self.installs.load(Ordering::Relaxed))
            .finish()
    }
}

impl WriteRouter {
    /// Builds a router with `primary` as the incumbent.
    pub fn new(primary: Arc<Engine>) -> Self {
        WriteRouter {
            primary: mvcc_analysis::lockdep::TrackedMutex::new(
                mvcc_analysis::lock_class!("replica.router-primary"),
                primary,
            ),
            installs: AtomicUsize::new(0),
        }
    }

    /// The engine currently routed to (the incumbent primary).
    pub fn primary(&self) -> Arc<Engine> {
        Arc::clone(&self.primary.lock())
    }

    /// The incumbent primary's epoch.
    pub fn epoch(&self) -> u64 {
        self.primary.lock().epoch()
    }

    /// Installs a promoted engine as the new primary.  Ignored (returns
    /// `false`) unless `engine`'s epoch strictly exceeds the incumbent's
    /// — duplicate or out-of-order installs can never reinstate a deposed
    /// primary.
    pub(crate) fn install(&self, engine: Arc<Engine>) -> bool {
        let mut primary = self.primary.lock();
        if engine.epoch() <= primary.epoch() {
            return false;
        }
        *primary = engine;
        self.installs.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Opens a write session on the current primary, or refuses with
    /// [`RouterError::Deposed`] when the incumbent is known fenced.
    pub fn begin(&self) -> Result<Session, RouterError> {
        let primary = self.primary.lock();
        if primary.is_deposed() {
            return Err(RouterError::Deposed {
                epoch: primary.epoch(),
            });
        }
        Ok(primary.begin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{Replica, ReplicaConfig};
    use crate::shipper::{LogShipper, ShipperConfig};
    use mvcc_durability::DurabilityConfig;
    use mvcc_engine::{CertifierKind, EngineConfig};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mvcc-router-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const X: EntityId = EntityId(0);

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

    fn replica_over(dir: &std::path::Path, engine: &Arc<Engine>) -> Arc<Replica> {
        let mut config = ReplicaConfig::new(2, 8, Bytes::from_static(b"0"));
        config.metrics = Some(engine.metrics_handle());
        Arc::new(Replica::open(config, dir).unwrap())
    }

    fn quick_config() -> RouterConfig {
        RouterConfig {
            wait_timeout: Duration::from_millis(50),
            poll: Duration::from_micros(50),
        }
    }

    #[test]
    fn latest_waits_for_catch_up_and_stale_replicas_fail_loudly() {
        let dir = temp_dir("latest");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"fresh")).unwrap();
        s.commit().unwrap();
        let replica = replica_over(&dir, &engine);
        let router = ReadRouter::new(
            Arc::clone(&engine),
            vec![Arc::clone(&replica)],
            quick_config(),
        );
        // The replica has shipped nothing: Latest must refuse (degrade
        // loudly), never serve the stale pre-seed silently.
        let err = router.begin_read(ReadPolicy::Latest).unwrap_err();
        assert!(matches!(err, RouterError::Stale { best: 0, .. }), "{err}");
        // An unbounded-lag read is honest about what it serves.
        let mut anything = router.begin_read(ReadPolicy::BoundedLag(u64::MAX)).unwrap();
        assert_eq!(anything.read(X).unwrap(), Bytes::from_static(b"0"));
        anything.finish();
        // Once caught up, Latest succeeds and serves the fresh value.
        replica.catch_up().unwrap();
        let mut read = router.begin_read(ReadPolicy::Latest).unwrap();
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"fresh"));
        assert!(read.snapshot_lsn().unwrap() > engine.durable_lsn().unwrap());
        read.finish();
        let snap = engine.metrics().snapshot();
        assert!(snap.repl_routed_reads >= 2);
        assert!(snap.repl_wait_stalls >= 1, "the refused read stalled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_your_writes_waits_for_the_commit_lsn() {
        let dir = temp_dir("ryw");
        let engine = primary(&dir);
        let replica = replica_over(&dir, &engine);
        let shipper = LogShipper::start(
            Arc::clone(&replica),
            ShipperConfig {
                poll: Duration::from_micros(200),
                batch: 64,
            },
        );
        let router = ReadRouter::new(
            Arc::clone(&engine),
            vec![Arc::clone(&replica)],
            RouterConfig::default(),
        );
        for i in 0..20u32 {
            let mut s = engine.begin();
            s.write(X, Bytes::from(format!("v{i}"))).unwrap();
            let lsn = s.commit_durable().unwrap().expect("durable");
            // Read-your-writes: the routed snapshot must contain our own
            // commit, even while the shipper races behind.
            let mut read = router
                .begin_read_after(ReadPolicy::BoundedLag(u64::MAX), lsn)
                .unwrap();
            assert!(
                read.snapshot_lsn().unwrap() > lsn,
                "snapshot below own commit: {} <= {lsn}",
                read.snapshot_lsn().unwrap()
            );
            assert_eq!(read.read(X).unwrap(), Bytes::from(format!("v{i}")));
            read.finish();
        }
        shipper.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_replicas_falls_back_to_the_primary() {
        let dir = temp_dir("fallback");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"p")).unwrap();
        s.commit().unwrap();
        let router = ReadRouter::new(Arc::clone(&engine), Vec::new(), quick_config());
        assert!(router.replicas.is_empty());
        let mut read = router.begin_read(ReadPolicy::Latest).unwrap();
        assert_eq!(read.snapshot_lsn(), None, "primary reads are never stale");
        assert_eq!(read.read(X).unwrap(), Bytes::from_static(b"p"));
        read.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_lsn_pins_at_or_past_the_requested_point() {
        let dir = temp_dir("exact");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"a")).unwrap();
        let lsn = s.commit_durable().unwrap().unwrap();
        let replica = replica_over(&dir, &engine);
        let router = ReadRouter::new(
            Arc::clone(&engine),
            vec![Arc::clone(&replica)],
            quick_config(),
        );
        // Not yet applied: ExactLsn refuses within the wait budget.
        assert!(router.begin_read(ReadPolicy::ExactLsn(lsn)).is_err());
        replica.catch_up().unwrap();
        let read = router.begin_read(ReadPolicy::ExactLsn(lsn)).unwrap();
        assert!(read.snapshot_lsn().unwrap() > lsn);
        read.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_robin_spreads_reads_across_replicas() {
        let dir = temp_dir("rr");
        let engine = primary(&dir);
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"x")).unwrap();
        s.commit().unwrap();
        let r1 = replica_over(&dir, &engine);
        let r2 = replica_over(&dir, &engine);
        r1.catch_up().unwrap();
        r2.catch_up().unwrap();
        let router = ReadRouter::new(
            Arc::clone(&engine),
            vec![Arc::clone(&r1), Arc::clone(&r2)],
            quick_config(),
        );
        for _ in 0..8 {
            let mut read = router.begin_read(ReadPolicy::Latest).unwrap();
            let _ = read.read(X).unwrap();
            read.finish();
        }
        // Both replicas served some reads (round-robin start index).
        assert!(r1.history().readers_recorded() >= 3);
        assert!(r2.history().readers_recorded() >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
