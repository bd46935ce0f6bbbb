//! The failover chaos harness: scripted kills of a live primary at the
//! pipeline's most delicate windows, epoch-fenced promotion of a replica,
//! and the proof obligations of the failover story.
//!
//! ## The kill-point matrix
//!
//! Each release-gated soak freezes the primary at one scripted
//! [`KillSite`] while a 4-thread load runs, lets the lease-based
//! [`LeaderDriver`] detect the silence and fail over, resumes the
//! writers on the promoted primary through the [`WriteRouter`], and then
//! checks the three failover promises:
//!
//! * **promotion** — the elected replica absorbs the reachable prefix,
//!   the log's epoch is bumped, and the promoted engine serves exactly
//!   the WAL's committed projection up to the fencing cut;
//! * **fencing** — nothing the frozen (or later woken) old primary does
//!   can reach the log, any replica, or the promoted state: no
//!   resurrected writes, anywhere;
//! * **class** — the *merged* history (the recovered committed prefix
//!   plus every transaction committed on the new primary) still
//!   classifies in the certifier's class, via the offline
//!   `mvcc-classify` checkers — the paper's theory checks the failover.
//!
//! The matrix rows (see `tests/common/chaos.rs` for the freeze
//! primitive):
//!
//! | site                | window frozen                                        |
//! |---------------------|------------------------------------------------------|
//! | `AdmissionDrain`    | certifier ruled a step; step not yet in history/WAL  |
//! | `GroupCommitFlush`  | shard effects applied; commit record not yet flushed |
//! | `CommitNotifyGap`   | commit record durable; certifiers not yet notified   |
//! | `Checkpoint`        | checkpoint cut holding the group-commit drain        |
//!
//! The deterministic (non-gated) tests pin the split-brain story — a
//! woken deposed primary's late flushes are refused with zero
//! resurrected writes — and the promoted-state-equals-WAL-projection
//! property under random kill sites and promotion targets.
//!
//! Every soak also runs the continuous [`HealthMonitor`] with a
//! router-following LSN probe and per-candidate watermark probes: at
//! the group-commit-flush site the anomaly detector must raise a
//! replication-lag-stall alarm *before* the promotion lands and clear
//! it once the replicas converge on the promoted lineage — the
//! lag-stall → promotion → clear sequence is part of the soak's
//! acceptance, as is zero watchdog-violation alarms.

mod common;
use common::chaos::{kill_sites, ChaosRng, Freezer};
use common::{committed_sets, FlightDumpGuard};
use mvcc_repro::durability::{read_epoch_marker, recover, RecoveryOptions};
use mvcc_repro::engine::{
    AnomalyKind, Bytes, CertifierKind, ClassificationWatchdog, DurabilityConfig, DurabilityMode,
    Engine, EngineConfig, EngineError, EngineSampler, HealthMonitor, KillSite, MemberProbe,
    TelemetryMode, WatchdogConfig,
};
use mvcc_repro::prelude::*;
use mvcc_repro::replica::{
    LeaderConfig, LeaderDriver, LogShipper, Replica, ReplicaConfig, RouterError, ShipperConfig,
    WriteRouter,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mvcc-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SHARDS: usize = 2;
const ENTITIES: usize = 8;

fn durable_config(dir: &Path) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        entities: ENTITIES,
        durability: DurabilityConfig {
            mode: DurabilityMode::Buffered,
            dir: dir.to_path_buf(),
            // Small segments: every soak crosses rotations and the
            // promotion opens a fresh lineage mid-stream.
            segment_bytes: 2048,
        },
        ..EngineConfig::default()
    }
}

fn replica_config() -> ReplicaConfig {
    ReplicaConfig::new(SHARDS, ENTITIES, Bytes::from_static(b"0"))
}

/// Newest committed `(writer, commit_ts, value)` per entity of a live
/// engine (same projection as `tests/engine_recovery.rs`).
fn latest_committed_of(engine: &Engine) -> BTreeMap<EntityId, (TxId, u64, Vec<u8>)> {
    let mut latest = BTreeMap::new();
    for store in engine.shards().iter() {
        let (_, chains) = store.committed_state();
        for (entity, versions) in chains {
            if let Some((writer, ts, value)) = versions.into_iter().max_by_key(|&(_, ts, _)| ts) {
                latest.insert(entity, (writer, ts, value.to_vec()));
            }
        }
    }
    latest
}

/// The same projection straight from a recovery scan of the log.
fn latest_committed_of_wal(
    state: &mvcc_repro::durability::RecoveredState,
) -> BTreeMap<EntityId, (TxId, u64, Vec<u8>)> {
    state
        .latest_committed()
        .into_iter()
        .map(|(entity, v)| (entity, (v.writer, v.commit_ts, v.value.to_vec())))
        .collect()
}

fn scan(dir: &Path) -> mvcc_repro::durability::RecoveredState {
    recover(
        dir,
        &RecoveryOptions {
            shards: SHARDS,
            entities: ENTITIES,
            initial: Bytes::from_static(b"0"),
        },
    )
    .unwrap()
}

/// One full chaos soak: freeze the primary at `site` under 4-thread
/// load, let the leadership driver fail over, resume the writers on the
/// promoted primary, and check promotion + fencing + class.
///
/// The frozen threads (and anything blocked on locks they hold) are
/// *leaked*, exactly like the kill-and-recover suite leaks its crashed
/// engine: that is what a killed process leaves behind.
fn failover_soak(kind: CertifierKind, site: KillSite) {
    let dir = temp_dir(&format!("{}-{site}", kind.name()));
    // MVTO's merged history faces the exact NP-complete MVSR search, so
    // its soak is kept small; everything else gets real traffic.
    let (arm, budget) = if kind == CertifierKind::Mvto {
        (4, 6)
    } else {
        (24, 200)
    };
    // The checkpoint site is only reached by an explicit checkpoint call,
    // which the sacrificial checkpointer thread issues below.
    let freezer = Freezer::at_after(site, if site == KillSite::Checkpoint { 0 } else { arm });
    let mut config = durable_config(&dir);
    config.chaos = Some(freezer.hook());
    // Telemetry on: a failed soak dumps the doomed primary's flight
    // timeline (kill site, fence refusals, promotion phases) on panic.
    config.telemetry = TelemetryMode::On;
    let engine = Arc::new(Engine::new(kind, config));
    let _flight_dump = FlightDumpGuard::new(
        format!("failover_soak {kind}/{site}"),
        engine.metrics_handle(),
    );
    // The online classification watchdog samples the doomed primary's
    // committed windows while the chaos load runs — continuous
    // verification right up to (and past) the kill.  Zero false alarms
    // is part of the soak's acceptance.
    let primary_dog = ClassificationWatchdog::start(Arc::clone(&engine), WatchdogConfig::default());
    let router = Arc::new(WriteRouter::new(Arc::clone(&engine)));

    // Two candidates tailing the log live; either may win the election.
    let electee = Arc::new(Replica::open(replica_config(), &dir).unwrap());
    let bystander = Arc::new(Replica::open(replica_config(), &dir).unwrap());
    let ship_electee = LogShipper::start(Arc::clone(&electee), ShipperConfig::default());
    let ship_bystander = LogShipper::start(Arc::clone(&bystander), ShipperConfig::default());

    // The continuous health monitor watches the whole soak: the LSN
    // probe follows the router (after promotion it must read the
    // promoted engine, or the replication-lag alarm could never clear),
    // the member probes read both candidates' apply watermarks, and the
    // watchdog's verdict counters flow into the frames.  The probes are
    // deadlock-safe against the frozen primary: the chaos point parks
    // the drain leader *before* `append_and_flush` takes the WAL lock.
    let monitor = {
        let probe_router = Arc::clone(&router);
        let probe_electee = Arc::clone(&electee);
        let probe_bystander = Arc::clone(&bystander);
        let sampler = EngineSampler::new(
            engine.metrics_handle(),
            move || probe_router.primary().wal_last_lsn().unwrap_or(0),
            vec![
                MemberProbe::new("electee", move || probe_electee.watermark()),
                MemberProbe::new("bystander", move || probe_bystander.watermark()),
            ],
        )
        .with_watchdog(primary_dog.stats_probe());
        // Fast cadence: the lag-stall rule needs two flat windows
        // *inside* the frozen-primary gap, before the lease lapses and
        // the failover heals the lag.
        HealthMonitor::start_with(sampler, Duration::from_millis(5))
    };

    // The promoted engine must not inherit the chaos hook.
    let driver = LeaderDriver::start(
        Arc::clone(&router),
        vec![Arc::clone(&electee), Arc::clone(&bystander)],
        kind,
        durable_config(&dir),
        LeaderConfig {
            check: Duration::from_millis(5),
            // The lease lapses ~200 ms after the freeze: long enough
            // that the 5 ms-cadence monitor observes the stalled
            // replicas and raises lag-stall *before* the promotion —
            // the ordering the alarm assertions below pin.
            silence: 40,
            // The failover stages (detect/elect/promote) land in the old
            // primary's telemetry — the registry the dump guard watches.
            metrics: Some(engine.metrics_handle()),
        },
    );

    // The lease: a heartbeat thread models the primary process renewing
    // its lease — it stops the moment the freeze lands (a frozen process
    // renews nothing), which is what lets the driver detect the kill.
    let beat = driver.heartbeat();
    let hb_freezer = Arc::clone(&freezer);
    let heartbeat = std::thread::spawn(move || {
        while hb_freezer.frozen() == 0 {
            beat.fetch_add(1, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    // Phase 1: sacrificial writers on the doomed primary.  They stop at
    // the freeze (or when fenced); ones caught inside the engine stay
    // stuck on its locks and are leaked with it.
    let mut phase1 = Vec::new();
    for t in 0..4u64 {
        let router = Arc::clone(&router);
        let freezer = Arc::clone(&freezer);
        phase1.push(std::thread::spawn(move || {
            let mut rng = ChaosRng::new(0xfa11 ^ (t << 8));
            for i in 0..budget {
                if freezer.frozen() > 0 {
                    break;
                }
                let Ok(mut session) = router.begin() else {
                    break;
                };
                let entity = EntityId(rng.below(ENTITIES as u64) as u32);
                if session
                    .read(EntityId(rng.below(ENTITIES as u64) as u32))
                    .is_err()
                {
                    continue;
                }
                if session
                    .write(entity, Bytes::from(format!("p1-{t}-{i}")))
                    .is_ok()
                {
                    let _ = session.commit();
                }
            }
        }));
    }
    if site == KillSite::Checkpoint {
        // Sacrificial checkpointer: the first cut freezes holding the
        // group-commit drain — the nastiest place to die.
        let ckpt_engine = Arc::clone(&engine);
        let ckpt_freezer = Arc::clone(&freezer);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            while ckpt_freezer.frozen() == 0 {
                let _ = ckpt_engine.checkpoint();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    }

    assert!(
        freezer.wait_frozen(Duration::from_secs(60)),
        "{kind}/{site}: the kill site was never reached"
    );
    heartbeat.join().unwrap();

    // Lag-stall → promotion: the frozen-primary gap (appended-but-
    // unflushed commit record) holds the replicas' watermarks flat with
    // lag, so the 5 ms-cadence monitor raises its alarm within ~15 ms —
    // long before the driver's ~200 ms silence threshold lapses.  Poll
    // for the onset *now*, while the driver is still counting silence,
    // and record whether promotion had happened yet; reading
    // `active_alarms()` after promotion instead would race the clear
    // (the healed replica catches up within one monitor tick of
    // `installed`).  Only the group-commit-flush site guarantees the
    // gap — the other sites freeze at points where the flushed horizon
    // and the appended tail coincide.
    let mut stalled_before_promotion = false;
    if site == KillSite::GroupCommitFlush {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if monitor
                .active_alarms()
                .iter()
                .any(|a| a.kind == AnomalyKind::LagStall)
            {
                stalled_before_promotion = driver.promotions() == 0;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The lease lapses; the driver elects, promotes and installs.
    assert!(
        driver.wait_for_promotion(Duration::from_secs(60)),
        "{kind}/{site}: failover never ran (last error: {:?})",
        driver.last_error()
    );
    assert_eq!(driver.promotions(), 1, "{kind}/{site}");
    assert_eq!(router.epoch(), 1, "{kind}/{site}: promoted epoch");
    let promoted = router.primary();
    assert!(!promoted.is_deposed(), "{kind}/{site}");
    let fence = read_epoch_marker(&dir).unwrap().expect("promotion marker");
    assert_eq!(fence.epoch, 1, "{kind}/{site}");
    assert!(fence.has_fence(), "{kind}/{site}: no fencing cut recorded");

    // Phase 2: the writers resume through the router, on the new primary.
    let mut phase2 = Vec::new();
    for t in 0..4u64 {
        let router = Arc::clone(&router);
        phase2.push(std::thread::spawn(move || {
            let mut rng = ChaosRng::new(0x9e57 ^ (t << 8));
            let mut committed = 0u64;
            let goal = if budget > 12 { 24 } else { 4 };
            while committed < goal {
                let session = match router.begin() {
                    Ok(session) => session,
                    Err(RouterError::Deposed { .. }) => {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    Err(e) => panic!("unroutable write: {e}"),
                };
                let mut session = session;
                let entity = EntityId(rng.below(ENTITIES as u64) as u32);
                // A refused read (e.g. a dirty-read ruling against a
                // concurrent phase-2 writer) aborts the session — normal
                // certifier business, retry with a fresh transaction.
                if session.read(entity).is_err() {
                    continue;
                }
                if session
                    .write(entity, Bytes::from(format!("p2-{t}-{committed}")))
                    .is_ok()
                    && session.commit().is_ok()
                {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let resumed: u64 = phase2.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        resumed >= 16 || kind == CertifierKind::Mvto,
        "{kind}/{site}"
    );

    // The bystander replica follows across the epoch boundary: its tailer
    // rebinds to the promoted lineage instead of erroring, and its
    // applied state converges to exactly the promoted primary's — which
    // is also the no-resurrection check: nothing the frozen primary had
    // in flight exists anywhere downstream.
    let target = promoted.durable_lsn().expect("phase 2 committed") + 1;
    let deadline = Instant::now() + Duration::from_secs(30);
    while bystander.watermark() < target {
        assert!(
            Instant::now() < deadline,
            "{kind}/{site}: bystander never crossed the boundary ({:?})",
            ship_bystander.last_error()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        ship_bystander.errors(),
        0,
        "{:?}",
        ship_bystander.last_error()
    );
    assert_eq!(
        committed_sets(bystander.shards()),
        committed_sets(promoted.shards()),
        "{kind}/{site}: bystander diverged from the promoted primary"
    );

    // The merged history — recovered prefix + resumed commits — is still
    // in the certifier's class.
    let merged = promoted.history();
    assert!(
        merged.committed.len() as u64 >= resumed,
        "{kind}/{site}: resumed commits missing from the merged history"
    );
    assert!(
        kind.class().check(&merged.committed_schedule()),
        "{kind}/{site}: merged failover history left {}",
        kind.class()
    );

    // The watchdog's version of the same two claims, online: the doomed
    // primary's sampled windows never false-alarmed (a forced final pass
    // guarantees at least one verdict on the pre-kill traffic), and a
    // watchdog attached to the promoted engine classifies the *merged*
    // failover history with zero violations too.
    let _ = primary_dog.check_once();
    let primary_verdicts = primary_dog.stop();
    assert_eq!(
        primary_verdicts.violations, 0,
        "{kind}/{site}: the watchdog false-alarmed on the doomed primary"
    );
    if kind != CertifierKind::Mvto {
        // MVTO's class (MVSR) is only soundly checkable on a *complete*
        // history, and the frozen primary leaks in-flight sessions.
        assert!(
            primary_verdicts.windows >= 1,
            "{kind}/{site}: the watchdog never classified a pre-kill window"
        );
    }
    let promoted_dog =
        ClassificationWatchdog::start(Arc::clone(&promoted), WatchdogConfig::default());
    let _ = promoted_dog.check_once();
    let promoted_verdicts = promoted_dog.stop();
    assert_eq!(
        promoted_verdicts.violations, 0,
        "{kind}/{site}: the watchdog false-alarmed on the merged failover history"
    );
    assert!(
        promoted_verdicts.windows >= 1,
        "{kind}/{site}: the watchdog never classified the merged history"
    );

    // Promotion → clear: the bystander has converged on the promoted
    // lineage above, so every lag-stall alarm the freeze raised must
    // have released by the closing frame — and the watchdog rule must
    // never have fired (it forwards correctness verdicts, and both
    // watchdog passes above reported zero violations).
    let (frames, alarms) = monitor.stop();
    assert!(
        !frames.is_empty(),
        "{kind}/{site}: the monitor recorded no frames"
    );
    assert!(
        alarms
            .iter()
            .all(|a| a.kind != AnomalyKind::WatchdogViolation),
        "{kind}/{site}: a watchdog-violation alarm fired: {alarms:?}"
    );
    if site == KillSite::GroupCommitFlush {
        assert!(
            stalled_before_promotion,
            "{kind}/{site}: the lag-stall alarm was not up before the promotion landed"
        );
        assert!(
            alarms.iter().any(
                |a| a.kind == AnomalyKind::LagStall && a.member.as_deref() == Some("bystander")
            ),
            "{kind}/{site}: the stalled bystander never alarmed: {alarms:?}"
        );
        assert!(
            alarms
                .iter()
                .filter(|a| a.kind == AnomalyKind::LagStall)
                .all(|a| !a.is_active()),
            "{kind}/{site}: a lag-stall alarm never cleared after the failover: {alarms:?}"
        );
    }

    ship_electee.stop();
    ship_bystander.stop();
    driver.stop();
    // The kill: the frozen primary (and every thread stuck inside it) is
    // leaked, never unwound.
    std::mem::forget(engine);
    for handle in phase1 {
        drop(handle);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "soak interleavings are only meaningful in release builds"
)]
fn failover_survives_a_kill_in_the_admission_drain() {
    failover_soak(CertifierKind::Sgt, KillSite::AdmissionDrain);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "soak interleavings are only meaningful in release builds"
)]
fn failover_survives_a_kill_in_the_group_commit_flush() {
    failover_soak(CertifierKind::Sgt, KillSite::GroupCommitFlush);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "soak interleavings are only meaningful in release builds"
)]
fn failover_survives_a_kill_in_the_commit_notify_gap() {
    failover_soak(CertifierKind::Sgt, KillSite::CommitNotifyGap);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "soak interleavings are only meaningful in release builds"
)]
fn failover_survives_a_kill_inside_a_checkpoint_cut() {
    failover_soak(CertifierKind::Sgt, KillSite::Checkpoint);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "soak interleavings are only meaningful in release builds"
)]
fn every_certifier_survives_a_group_commit_kill() {
    // The class half of the acceptance matrix: the merged failover
    // history classifies for all six certifiers.  The kill lands in the
    // group-commit flush — the window where shard effects and durability
    // can disagree.
    for kind in CertifierKind::all() {
        failover_soak(kind, KillSite::GroupCommitFlush);
    }
}

#[test]
fn a_woken_deposed_primary_cannot_resurrect_writes() {
    // Split-brain, deterministically: a primary freezes *inside* a
    // commit — shard effects applied, commit record not yet flushed — a
    // replica is promoted over its log, and then the old primary wakes
    // up and tries to finish.  Its flush must be refused by the fence,
    // the waiting committer must learn it was deposed, and the zombie
    // write must exist nowhere: not in the log, not in the promoted
    // state, not in any replica.
    let dir = temp_dir("splitbrain");
    let freezer = Freezer::at_after(KillSite::GroupCommitFlush, 3);
    let mut config = durable_config(&dir);
    config.chaos = Some(freezer.hook());
    let engine = Arc::new(Engine::new(CertifierKind::Sgt, config));
    for i in 0..3u32 {
        let mut session = engine.begin();
        session
            .write(EntityId(i), Bytes::from(format!("pre-{i}")))
            .unwrap();
        session.commit().unwrap();
    }
    let pre_freeze = latest_committed_of(&engine);

    // The zombie: freezes at the flush with its shard effects applied.
    let zombie_engine = Arc::clone(&engine);
    let zombie = std::thread::spawn(move || {
        let mut session = zombie_engine.begin();
        session
            .write(EntityId(0), Bytes::from_static(b"zombie"))
            .unwrap();
        session.commit_durable()
    });
    assert!(freezer.wait_frozen(Duration::from_secs(30)));

    // Failover while the old primary is frozen mid-commit.
    let electee = Arc::new(Replica::open(replica_config(), &dir).unwrap());
    let (promoted, report) = electee
        .promote(CertifierKind::Sgt, durable_config(&dir))
        .unwrap();
    assert_eq!(promoted.epoch(), 1);
    assert_eq!(report.commits_replayed, 3);
    assert_eq!(
        latest_committed_of(&promoted),
        pre_freeze,
        "promotion must serve exactly the pre-freeze committed projection"
    );

    // The resurrection attempt: wake the zombie.  Its flush hits the
    // fence, the batch is refused, and the committer learns it.
    freezer.release();
    assert!(matches!(zombie.join().unwrap(), Err(EngineError::Deposed)));
    assert!(engine.is_deposed());
    // Every later commit on the deposed engine is refused up front.
    let mut late = engine.begin();
    late.write(EntityId(1), Bytes::from_static(b"late-zombie"))
        .unwrap();
    assert!(matches!(late.commit(), Err(EngineError::Deposed)));

    // Zero resurrection, proved three ways: the log's committed
    // projection, a replica that tails the log, and the promoted state
    // all carry the pre-freeze value — the zombie bytes exist nowhere.
    let state = scan(&dir);
    assert_eq!(latest_committed_of_wal(&state), pre_freeze);
    let follower = Arc::new(Replica::open(replica_config(), &dir).unwrap());
    follower.catch_up().unwrap();
    assert_eq!(
        committed_sets(follower.shards()),
        committed_sets(promoted.shards())
    );
    for (_, set) in committed_sets(follower.shards()) {
        assert!(
            set.iter().all(|v| !v.contains("zombie")),
            "resurrected write shipped to a replica: {set:?}"
        );
    }

    // The new primary is live: it extends the history past the fence.
    let mut session = promoted.begin();
    assert_eq!(
        session.read(EntityId(0)).unwrap(),
        Bytes::from_static(b"pre-0")
    );
    session
        .write(EntityId(0), Bytes::from_static(b"after-failover"))
        .unwrap();
    session.commit().unwrap();
    assert!(HistoryClass::Csr.check(&promoted.history().committed_schedule()));

    std::mem::forget(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_flight_recorder_captures_a_scripted_kill_site() {
    // The chaos-observability loop, deterministically: freeze a primary
    // at a scripted kill site and assert the flight-recorder dump — the
    // timeline a failed soak prints via `FlightDumpGuard` — carries the
    // kill event.  The event is recorded *before* the hook parks the
    // thread, so even a never-released freeze leaves its trace.
    let dir = temp_dir("flightdump");
    let freezer = Freezer::at(KillSite::GroupCommitFlush);
    let mut config = durable_config(&dir);
    config.chaos = Some(freezer.hook());
    config.telemetry = TelemetryMode::On;
    let engine = Arc::new(Engine::new(CertifierKind::Sgt, config));
    // The sacrificial committer freezes inside its commit flush.
    let doomed = Arc::clone(&engine);
    let committer = std::thread::spawn(move || {
        let mut session = doomed.begin();
        session
            .write(EntityId(0), Bytes::from_static(b"doomed"))
            .unwrap();
        let _ = session.commit();
    });
    assert!(freezer.wait_frozen(Duration::from_secs(30)));
    let dump = engine.metrics().flight_dump().expect("telemetry is on");
    assert!(
        dump.contains("kill-site site=group-commit-flush"),
        "the dump must carry the scripted kill event:\n{dump}"
    );
    // Correlation: the committer is the first transaction on a fresh
    // thread, so it is always trace-sampled, and the kill event carries
    // its trace id — the dump line names *which* commit died there.
    assert!(
        dump.contains("kill-site site=group-commit-flush trace=t0."),
        "the kill event must carry the doomed commit's trace id:\n{dump}"
    );
    // Wake the frozen committer so the test exits cleanly (this is the
    // observability test — the fencing story is pinned elsewhere).
    freezer.release();
    committer.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promoted_state_equals_the_wal_projection_at_every_random_kill_point() {
    // The seeded chaos property (mini-proptest over engines): for random
    // kill sites, random freeze arming and a random promotion target,
    //
    //   (a) the promoted engine's state equals the healed log's
    //       committed projection up to the fencing cut, and
    //   (b) replaying the log after the woken old primary has tried (and
    //       failed) to append past the fence is a no-op: the projection
    //       is byte-identical — the fenced tail contributes nothing.
    let mut rng = ChaosRng::new(0xc4a05);
    for case in 0..6u64 {
        let sites = kill_sites();
        let site = sites[rng.below(sites.len() as u64) as usize];
        let arm = if site == KillSite::Checkpoint {
            0
        } else {
            1 + rng.below(8)
        };
        let dir = temp_dir(&format!("prop-{case}"));
        let freezer = Freezer::at_after(site, arm);
        let mut config = durable_config(&dir);
        config.chaos = Some(freezer.hook());
        let engine = Arc::new(Engine::new(CertifierKind::Sgt, config));

        // Sacrificial writers only — the main thread must never touch a
        // chaos engine, or the freeze would take the test down with it.
        let mut writers = Vec::new();
        for t in 0..2u64 {
            let engine = Arc::clone(&engine);
            let freezer = Arc::clone(&freezer);
            let seed = rng.next_u64();
            writers.push(std::thread::spawn(move || {
                let mut rng = ChaosRng::new(seed ^ t);
                for i in 0..24u64 {
                    if freezer.frozen() > 0 {
                        break;
                    }
                    let mut session = engine.begin();
                    let entity = EntityId(rng.below(ENTITIES as u64) as u32);
                    if session
                        .write(entity, Bytes::from(format!("c{case}-t{t}-{i}")))
                        .is_ok()
                    {
                        let _ = session.commit();
                    }
                }
            }));
        }
        if site == KillSite::Checkpoint {
            let engine = Arc::clone(&engine);
            let freezer = Arc::clone(&freezer);
            writers.push(std::thread::spawn(move || {
                while freezer.frozen() == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                    let _ = engine.checkpoint();
                }
            }));
        }
        assert!(
            freezer.wait_frozen(Duration::from_secs(30)),
            "case {case}: {site} never hit"
        );

        // Random promotion target among two candidates.
        let candidates = [
            Arc::new(Replica::open(replica_config(), &dir).unwrap()),
            Arc::new(Replica::open(replica_config(), &dir).unwrap()),
        ];
        let target = &candidates[rng.below(2) as usize];
        let (promoted, _) = target
            .promote(CertifierKind::Sgt, durable_config(&dir))
            .unwrap();

        // (a) promoted state == healed log's committed projection.
        let healed = scan(&dir);
        assert_eq!(
            latest_committed_of(&promoted),
            latest_committed_of_wal(&healed),
            "case {case} ({site}, arm {arm})"
        );
        assert_eq!(
            promoted.history().committed,
            healed.committed,
            "case {case}: committed sets diverge"
        );
        let marker = read_epoch_marker(&dir).unwrap().expect("marker");
        assert_eq!(marker.epoch, 1);
        assert!(marker.has_fence());

        // (b) wake the old primary; every late append dies at the fence,
        // and the log's projection does not move.
        freezer.release();
        for writer in writers {
            writer.join().unwrap();
        }
        let replay = scan(&dir);
        assert_eq!(replay.committed, healed.committed, "case {case}");
        assert_eq!(
            latest_committed_of_wal(&replay),
            latest_committed_of_wal(&healed),
            "case {case}: the fenced tail was not a no-op"
        );
        drop(promoted);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
