//! The lease-based leadership driver: detects primary silence and runs
//! the failover — elect, promote, install.
//!
//! Mirrors the [`mvcc_engine::GcDriver`]/[`mvcc_engine::CheckpointDriver`]
//! idiom: a background thread with a stop flag, started with a handle
//! whose `stop`/`Drop` joins it.  What it watches is a **lease
//! heartbeat**: an [`AtomicU64`] the live primary's process bumps
//! periodically ([`LeaderDriver::heartbeat`] hands the counter out; in a
//! real deployment this would be a lease in a coordination service — the
//! single-process harness models exactly the property that matters,
//! *silence*, without a network).  After [`LeaderConfig::silence`]
//! consecutive checks in which the counter did not move, the driver
//! declares the primary dead and fails over:
//!
//! 1. **Elect** — every replica ships whatever is still readable, and
//!    the one with the longest absorbed prefix (highest
//!    [`Replica::watermark`]) wins: promotion heals the log up to the
//!    fence, so electing the longest prefix is what minimizes discarded
//!    acknowledged-but-unflushed work.
//! 2. **Promote** — [`Replica::promote`] bumps the log's epoch (fencing
//!    the silent primary: if it was merely frozen and wakes up, its late
//!    appends and flushes are refused), recovers the committed prefix,
//!    and opens a new engine over a fresh segment lineage.
//! 3. **Install** — the promoted engine is swapped into the
//!    [`crate::WriteRouter`]; stranded writers see
//!    [`crate::RouterError::Deposed`] from the old routing until the
//!    install lands, then route to the new primary.
//!
//! The driver is **one-shot**: after a successful promotion it exits —
//! the promoted primary is a different engine whose liveness a new
//! driver (with a new heartbeat) would watch.  Failed promotions are
//! retried on the next silent check; errors surface through
//! [`LeaderDriver::last_error`], never silently swallowed.

use crate::replica::Replica;
use crate::router::WriteRouter;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_engine::{CertifierKind, EngineConfig, EngineMetrics};
use mvcc_telemetry::{EventKind, Stage};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Leadership-driver pacing knobs.
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// Sleep between heartbeat checks.
    pub check: Duration,
    /// Consecutive unchanged checks before the primary is declared dead
    /// (the lease: the primary must bump the heartbeat at least once per
    /// `silence × check` or lose leadership).
    pub silence: u32,
    /// Where to record the failover timeline (detect / elect / promote
    /// stages plus flight-recorder `Promotion` phase events).  Usually
    /// the *old primary's* [`mvcc_engine::Engine::metrics_handle`] — its
    /// telemetry is what the chaos harness dumps after a failed soak.
    /// `None` (the default) records nothing.
    pub metrics: Option<Arc<EngineMetrics>>,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            check: Duration::from_millis(5),
            silence: 4,
            metrics: None,
        }
    }
}

/// Handle to the background leadership thread.  Stop it explicitly with
/// [`LeaderDriver::stop`] or implicitly by dropping it.
#[derive(Debug)]
pub struct LeaderDriver {
    stop: Arc<AtomicBool>,
    heartbeat: Arc<AtomicU64>,
    promotions: Arc<AtomicU64>,
    last_error: Arc<TrackedMutex<Option<String>>>,
    handle: Option<JoinHandle<()>>,
}

impl LeaderDriver {
    /// Spawns the watcher.  `router` is where a promoted engine is
    /// installed; `replicas` are the election candidates; `kind` and
    /// `template` parameterize the promoted engine (the template's
    /// durability directory is overridden per electee — see
    /// [`Replica::promote`]).
    pub fn start(
        router: Arc<WriteRouter>,
        replicas: Vec<Arc<Replica>>,
        kind: CertifierKind,
        template: EngineConfig,
        config: LeaderConfig,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let heartbeat = Arc::new(AtomicU64::new(0));
        let promotions = Arc::new(AtomicU64::new(0));
        let last_error = Arc::new(TrackedMutex::new(lock_class!("replica.leader-error"), None));
        let stop_flag = Arc::clone(&stop);
        let beat = Arc::clone(&heartbeat);
        let promoted_count = Arc::clone(&promotions);
        let error_slot = Arc::clone(&last_error);
        let handle = std::thread::spawn(move || {
            let mut last_seen = beat.load(Ordering::Acquire);
            // When the heartbeat last moved — the failover timeline's
            // zero point (Stage::FailoverDetect measures how long the
            // primary was silent before the driver declared it dead).
            // lint: allow(clock) — lease timing is the leader driver's whole job
            let mut last_move = Instant::now();
            let mut quiet = 0u32;
            let telemetry = config.metrics.as_deref();
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(config.check);
                let now = beat.load(Ordering::Acquire);
                if now != last_seen {
                    last_seen = now;
                    // lint: allow(clock) — lease timing is the leader driver's whole job
                    last_move = Instant::now();
                    quiet = 0;
                    continue;
                }
                quiet += 1;
                if quiet < config.silence {
                    continue;
                }
                if let Some(m) = telemetry {
                    let detect_us = last_move.elapsed().as_micros() as u64;
                    m.record_stage_value(Stage::FailoverDetect, detect_us);
                    m.flight(EventKind::Promotion {
                        phase: "detected".into(),
                        detail: format!("heartbeat silent for {quiet} checks"),
                    });
                }
                // The lease expired: elect the replica with the longest
                // absorbed prefix.  Each candidate ships what it still
                // can first, so the election compares final positions,
                // not polling luck.
                let elect_clock = telemetry.and_then(|m| m.stage_clock());
                let electee = replicas
                    .iter()
                    .max_by_key(|replica| {
                        let _ = replica.catch_up();
                        replica.watermark()
                    })
                    .cloned();
                let Some(electee) = electee else {
                    *error_slot.lock() = Some("no replicas to elect".to_string());
                    quiet = 0;
                    continue;
                };
                if let Some(m) = telemetry {
                    m.record_stage_since(Stage::FailoverElect, elect_clock);
                    m.flight(EventKind::Promotion {
                        phase: "elected".into(),
                        detail: format!("watermark {}", electee.watermark()),
                    });
                }
                let promote_clock = telemetry.and_then(|m| m.stage_clock());
                match electee.promote(kind, template.clone()) {
                    Ok((engine, _report)) => {
                        if let Some(m) = telemetry {
                            m.record_stage_since(Stage::FailoverPromote, promote_clock);
                            m.flight(EventKind::Promotion {
                                phase: "promoted".into(),
                                detail: format!("epoch {}", engine.epoch()),
                            });
                        }
                        router.install(Arc::clone(&engine));
                        if let Some(m) = telemetry {
                            m.flight(EventKind::Promotion {
                                phase: "installed".into(),
                                detail: format!("epoch {}", engine.epoch()),
                            });
                        }
                        promoted_count.fetch_add(1, Ordering::Release);
                        // One-shot: the new primary's liveness is a new
                        // driver's job.
                        return;
                    }
                    Err(e) => {
                        *error_slot.lock() = Some(format!("promotion failed: {e}"));
                        quiet = 0;
                    }
                }
            }
        });
        LeaderDriver {
            stop,
            heartbeat,
            promotions,
            last_error,
            handle: Some(handle),
        }
    }

    /// The lease counter.  A live primary's process must bump this
    /// (any `fetch_add`) at least once per `silence × check` interval;
    /// a frozen or dead one stops, and the driver fails over.
    pub fn heartbeat(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.heartbeat)
    }

    /// Number of promotions this driver has performed (0 or 1 — the
    /// driver is one-shot).
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Acquire)
    }

    /// The most recent failover error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Blocks until a promotion lands or the deadline passes; `true` on
    /// promotion.  Test/ops convenience — the driver works without it.
    pub fn wait_for_promotion(&self, deadline: Duration) -> bool {
        // lint: allow(clock) — test-support deadline helper
        let until = std::time::Instant::now() + deadline;
        // lint: allow(clock) — test-support deadline helper
        while std::time::Instant::now() < until {
            if self.promotions() > 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.promotions() > 0
    }

    /// Signals the thread to stop and waits for it to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LeaderDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaConfig;
    use bytes::Bytes;
    use mvcc_core::EntityId;
    use mvcc_durability::DurabilityConfig;
    use mvcc_engine::Engine;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mvcc-leader-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const X: EntityId = EntityId(0);

    fn durable_config(dir: &std::path::Path) -> EngineConfig {
        EngineConfig {
            shards: 2,
            entities: 8,
            durability: DurabilityConfig::buffered(dir),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn a_heartbeating_primary_is_never_deposed() {
        let dir = temp_dir("alive");
        let engine = Arc::new(Engine::new(CertifierKind::Sgt, durable_config(&dir)));
        let replica = Arc::new(
            Replica::open(ReplicaConfig::new(2, 8, Bytes::from_static(b"0")), &dir).unwrap(),
        );
        let router = Arc::new(WriteRouter::new(Arc::clone(&engine)));
        let driver = LeaderDriver::start(
            Arc::clone(&router),
            vec![replica],
            CertifierKind::Sgt,
            durable_config(&dir),
            LeaderConfig {
                check: Duration::from_millis(1),
                silence: 3,
                ..LeaderConfig::default()
            },
        );
        let beat = driver.heartbeat();
        // Keep the lease alive across many check intervals.
        for _ in 0..20 {
            beat.fetch_add(1, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(driver.promotions(), 0, "a live primary must keep the lease");
        assert_eq!(router.epoch(), 0);
        driver.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silence_elects_the_longest_replica_and_installs_the_promotion() {
        let dir = temp_dir("elect");
        let engine = Arc::new(Engine::new(CertifierKind::Sgt, durable_config(&dir)));
        let mut s = engine.begin();
        s.write(X, Bytes::from_static(b"committed")).unwrap();
        let lsn = s.commit_durable().unwrap().expect("durable");
        // Two candidates; the second has absorbed more (catch_up runs at
        // election time, so both end equal here — the tie breaks on the
        // first max, which is fine: any fully-caught-up replica is a
        // correct electee).
        let r1 = Arc::new(
            Replica::open(ReplicaConfig::new(2, 8, Bytes::from_static(b"0")), &dir).unwrap(),
        );
        let r2 = Arc::new(
            Replica::open(ReplicaConfig::new(2, 8, Bytes::from_static(b"0")), &dir).unwrap(),
        );
        r2.catch_up().unwrap();
        let router = Arc::new(WriteRouter::new(Arc::clone(&engine)));
        let driver = LeaderDriver::start(
            Arc::clone(&router),
            vec![r1, r2],
            CertifierKind::Sgt,
            durable_config(&dir),
            LeaderConfig {
                check: Duration::from_millis(1),
                silence: 3,
                ..LeaderConfig::default()
            },
        );
        // Never bump the heartbeat: the lease expires and failover runs.
        assert!(driver.wait_for_promotion(Duration::from_secs(10)));
        assert_eq!(router.epoch(), 1, "the promoted engine owns epoch 1");
        // The new primary serves the old history and accepts new writes.
        let mut session = router.begin().unwrap();
        assert_eq!(session.read(X).unwrap(), Bytes::from_static(b"committed"));
        session.write(X, Bytes::from_static(b"after")).unwrap();
        let new_lsn = session.commit_durable().unwrap().expect("durable");
        assert!(new_lsn > lsn, "the new lineage extends the old numbering");
        // The deposed engine can never commit again.
        let mut stranded = engine.begin();
        stranded.write(X, Bytes::from_static(b"zombie")).unwrap();
        assert!(matches!(
            stranded.commit(),
            Err(mvcc_engine::EngineError::Deposed)
        ));
        assert!(engine.is_deposed());
        driver.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
