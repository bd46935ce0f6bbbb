//! Continuous-observability integration: the metrics timeline and the
//! anomaly detector against a *real* engine, driven into each scripted
//! failure mode and back out of it.
//!
//! The detector's rule logic is pinned unit-style in
//! `crates/engine/src/health.rs` with synthetic frames; these tests close
//! the loop end to end — real sessions produce the aborts, a real chaos
//! freeze ([`Freezer`]) pins the WAL mid-flush to stall replication, and
//! the frames come out of a live [`EngineSampler`] over the engine's own
//! metrics registry:
//!
//! * a **scripted abort storm** (read-write conflict pairs after calm
//!   baseline windows) raises the abort-storm alarm at exactly the
//!   conflict window's frame, records it in the flight recorder, and
//!   clears it one calm window later — and replaying the sampled frames
//!   re-derives the same alarms;
//! * a **frozen group-commit flush** leaves appended-but-unflushed WAL
//!   records, so a tailing replica's watermark pins with lag — the
//!   lag-stall alarm fires after two flat windows and clears
//!   when the thaw lets the replica catch up;
//! * a recorded timeline **round-trips** through the `timeline.jsonl`
//!   wire format, and replaying the parsed frames re-derives exactly the
//!   live run's alarms;
//! * a **steady release soak** (the false-positive gate): a healthy
//!   closed loop with the watchdog and the monitor both on must finish
//!   with zero alarms and zero watchdog violations.

mod common;
use common::chaos::Freezer;
use mvcc_repro::engine::{
    parse_jsonl, run_closed_loop, write_jsonl, AnomalyDetector, AnomalyKind, Bytes, CertifierKind,
    DurabilityConfig, Engine, EngineConfig, EngineSampler, FrameSource, KillSite, LoadOptions,
    MemberProbe, TelemetryMode,
};
use mvcc_repro::prelude::EntityId;
use mvcc_repro::replica::{Replica, ReplicaConfig};
use mvcc_workload::LoadProfile;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mvcc-timeline-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_scripted_abort_storm_raises_the_alarm_at_the_conflict_window() {
    let engine = Arc::new(Engine::new(
        CertifierKind::Sgt,
        EngineConfig {
            shards: 2,
            entities: 32,
            telemetry: TelemetryMode::On,
            ..EngineConfig::default()
        },
    ));
    let mut sampler = EngineSampler::for_engine(&engine, Vec::new());
    let mut frames = Vec::new();

    // Three calm windows teach the baseline: disjoint single-writer
    // transactions, zero aborts.
    let mut seq = 0u64;
    for _ in 0..3 {
        for i in 0..20u32 {
            let mut session = engine.begin();
            session
                .write(EntityId(i % 32), Bytes::from_static(b"calm"))
                .unwrap();
            session.commit().unwrap();
        }
        let frame = sampler.sample(seq);
        assert_eq!(frame.aborted, 0, "calm window aborted: {frame:?}");
        frames.push(frame);
        seq += 1;
    }

    // The storm window: per round, two victims read an entity, the
    // winner overwrites it and commits, then the victims try to write —
    // the rw→ww cycle dooms them under SGT.  ≥ 2/3 of the window's
    // transactions abort, well past the 0.5 storm threshold.
    let mut finished = 0u64;
    let mut aborted = 0u64;
    for i in 0..20u32 {
        let entity = EntityId(i % 8);
        let mut victims = vec![engine.begin(), engine.begin()];
        let mut winner = engine.begin();
        for victim in &mut victims {
            victim.read(entity).unwrap();
        }
        winner.write(entity, Bytes::from_static(b"winner")).unwrap();
        winner.commit().unwrap();
        finished += 1;
        for mut victim in victims {
            let survived = victim.write(entity, Bytes::from_static(b"victim")).is_ok()
                && victim.commit().is_ok();
            finished += 1;
            if !survived {
                aborted += 1;
            }
        }
    }
    assert!(
        aborted as f64 / finished as f64 >= 0.5,
        "the scripted conflicts no longer abort: {aborted}/{finished}"
    );

    let storm_seq = seq;
    let frame = sampler.sample(storm_seq);
    assert!(frame.abort_rate >= 0.5, "{frame:?}");
    frames.push(frame);
    let alarms = sampler.detector().lock().alarms();
    let storms: Vec<_> = alarms
        .iter()
        .filter(|a| a.kind == AnomalyKind::AbortStorm)
        .collect();
    assert_eq!(storms.len(), 1, "{alarms:?}");
    assert_eq!(
        storms[0].onset, storm_seq,
        "the onset frame must be the conflict window: {storms:?}"
    );
    assert!(storms[0].is_active());
    let dump = engine.metrics().flight_dump().expect("telemetry is on");
    assert!(
        dump.contains("anomaly abort-storm phase=onset"),
        "the onset must land in the flight recorder:\n{dump}"
    );

    // One calm window releases the alarm.
    for i in 0..20u32 {
        let mut session = engine.begin();
        session
            .write(EntityId(i % 32), Bytes::from_static(b"calm"))
            .unwrap();
        session.commit().unwrap();
    }
    seq += 1;
    frames.push(sampler.sample(seq));
    let alarms = sampler.detector().lock().alarms();
    let storm = alarms
        .iter()
        .find(|a| a.kind == AnomalyKind::AbortStorm)
        .unwrap();
    assert_eq!(storm.cleared, Some(seq), "{alarms:?}");
    assert!(!storm.is_active());
    let dump = engine.metrics().flight_dump().expect("telemetry is on");
    assert!(
        dump.contains("anomaly abort-storm phase=clear"),
        "the clear must land in the flight recorder:\n{dump}"
    );
    // Replay over the real frames re-derives the live verdicts: the same
    // alarms, with the same onset and clear frames.
    assert_eq!(AnomalyDetector::replay(&frames), alarms);
}

#[test]
fn a_frozen_group_commit_stalls_replication_until_the_thaw() {
    let dir = temp_dir("stall");
    // Arm the freeze past the three healthy windows: the fourth commit's
    // flush parks with its Begin/Step records appended but unflushed —
    // exactly the gap a log-tailing replica cannot cross.
    let freezer = Freezer::at_after(KillSite::GroupCommitFlush, 3);
    let config = EngineConfig {
        shards: 2,
        entities: 8,
        durability: DurabilityConfig::buffered(&dir),
        chaos: Some(freezer.hook()),
        telemetry: TelemetryMode::On,
        ..EngineConfig::default()
    };
    let engine = Arc::new(Engine::new(CertifierKind::Sgt, config));
    let replica =
        Arc::new(Replica::open(ReplicaConfig::new(2, 8, Bytes::from_static(b"0")), &dir).unwrap());
    let probe_replica = Arc::clone(&replica);
    let lsn_engine = Arc::clone(&engine);
    let mut sampler = EngineSampler::new(
        engine.metrics_handle(),
        move || lsn_engine.wal_last_lsn().unwrap_or(0),
        vec![MemberProbe::new("replica-1", move || {
            probe_replica.watermark()
        })],
    );

    // Healthy windows: commit, let the replica catch up, sample — the
    // watermark tracks the durable horizon, lag 0.
    for w in 0..3u64 {
        let mut session = engine.begin();
        session
            .write(EntityId(w as u32), Bytes::from_static(b"healthy"))
            .unwrap();
        session.commit().unwrap();
        replica.catch_up().unwrap();
        let frame = sampler.sample(w);
        assert_eq!(frame.replicas.len(), 1);
        assert_eq!(frame.replicas[0].lag_lsn, 0, "{frame:?}");
    }

    // The sacrificial committer freezes inside its flush.
    let doomed = Arc::clone(&engine);
    let committer = std::thread::spawn(move || {
        let mut session = doomed.begin();
        session
            .write(EntityId(0), Bytes::from_static(b"stuck"))
            .unwrap();
        let _ = session.commit();
    });
    assert!(freezer.wait_frozen(Duration::from_secs(30)));

    // Two flat windows with lag: the first frozen frame arms the rule
    // and the second raises the alarm.
    let frame = sampler.sample(3);
    assert!(
        frame.replicas[0].lag_lsn > 0,
        "the frozen flush must leave unflushed appended records: {frame:?}"
    );
    assert!(sampler.detector().lock().active_alarms().is_empty());
    sampler.sample(4);
    let alarms = sampler.detector().lock().alarms();
    let stall = alarms
        .iter()
        .find(|a| a.kind == AnomalyKind::LagStall)
        .unwrap_or_else(|| panic!("no lag-stall alarm: {alarms:?}"));
    assert_eq!(stall.onset, 4, "{alarms:?}");
    assert_eq!(stall.member.as_deref(), Some("replica-1"));
    assert!(stall.is_active());

    // Thaw: the flush completes, the replica catches up, the alarm
    // clears on the next frame.
    freezer.release();
    committer.join().unwrap();
    replica.catch_up().unwrap();
    let frame = sampler.sample(5);
    assert_eq!(frame.replicas[0].lag_lsn, 0, "{frame:?}");
    let alarms = sampler.detector().lock().alarms();
    let stall = alarms
        .iter()
        .find(|a| a.kind == AnomalyKind::LagStall)
        .unwrap();
    assert_eq!(stall.cleared, Some(5), "{alarms:?}");
    let dump = engine.metrics().flight_dump().expect("telemetry is on");
    assert!(dump.contains("anomaly lag-stall phase=onset"), "{dump}");
    assert!(dump.contains("anomaly lag-stall phase=clear"), "{dump}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_recorded_timeline_round_trips_through_jsonl() {
    let profile = LoadProfile {
        threads: 2,
        shards: 2,
        ops: 400,
        seed: 0x11e,
        ..LoadProfile::default()
    };
    let report = run_closed_loop(
        CertifierKind::Sgt,
        &profile,
        LoadOptions {
            record_history: false,
            telemetry: TelemetryMode::On,
            monitor: Some(Duration::from_millis(100)),
            ..LoadOptions::default()
        },
    );
    assert!(
        !report.timeline.is_empty(),
        "the monitor always records at least the closing frame"
    );
    // The wire format is lossless: parse(write(frames)) == frames.
    let text = write_jsonl(&report.timeline);
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(parsed, report.timeline);
    // Replaying the parsed frames re-derives the live run's alarms.
    assert_eq!(AnomalyDetector::replay(&parsed), report.alarms);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the false-positive soak needs release-build throughput"
)]
fn a_steady_release_soak_never_false_alarms() {
    // The detector's acceptance gate: a healthy engine under real load —
    // moderate skew, durability, GC, the watchdog sampling committed
    // windows — must finish with zero alarms.  Anything raised here is a
    // detector false positive by definition.
    let dir = temp_dir("soak");
    let profile = LoadProfile {
        threads: 4,
        shards: 4,
        ops: 200_000,
        zipf_theta: 0.5,
        seed: 0x50a1,
        ..LoadProfile::default()
    };
    let report = run_closed_loop(
        CertifierKind::Sgt,
        &profile,
        LoadOptions {
            history_capacity: Some(512),
            durability: DurabilityConfig::buffered(&dir),
            telemetry: TelemetryMode::On,
            watchdog: true,
            monitor: Some(Duration::from_millis(50)),
            ..LoadOptions::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.metrics.committed > 0);
    assert!(report.timeline.len() >= 2, "{}", report.timeline.len());
    assert!(
        report.alarms.is_empty(),
        "false alarms in a steady soak: {:?}",
        report.alarms
    );
    let watchdog = report.watchdog.expect("the watchdog ran");
    assert_eq!(watchdog.violations, 0);
    assert!(watchdog.windows >= 1);
}
