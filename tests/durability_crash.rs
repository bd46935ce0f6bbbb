//! Crash-point fuzzing of recovery (release-gated, alongside
//! `tests/engine_stress.rs`).
//!
//! A fixed-seed durable run produces a deterministic write-ahead log;
//! the fuzz then simulates a crash at **every byte offset** of the log's
//! tail region — truncating the last segment to each possible length —
//! and recovers from each artifact.  Recovery must:
//!
//! * never panic and never return an error (a torn tail is the *normal*
//!   crash shape, not an exceptional one);
//! * never resurrect a transaction whose commit record was not wholly
//!   durable (the committed set of every truncation is a subset of the
//!   full log's);
//! * never surface an uncommitted writer's version in the recovered
//!   store (ACA across the crash);
//! * recover an admitted history that is exactly a prefix of the full
//!   log's admitted history (the class-preservation argument rests on
//!   prefix closure).
//!
//! A second pass flips bits across the tail instead of truncating,
//! checking the CRC rejects in-place corruption the same way.
//!
//! Both readers of the log go through one segment walk, and every
//! artifact checks that they agree: tailing it from the origin until the
//! tailer parks or errors delivers exactly the records the scan returns.
//!
//! These loops run a few thousand full recoveries, so they are
//! `#[ignore]`d in debug builds; the CI release-test job runs them.

use mvcc_repro::durability::{
    list_segments, read_tail, recover, scan_log, DurabilityConfig, DurabilityMode, RecoveryOptions,
    WalCursor, WalRecord,
};
use mvcc_repro::engine::load::drive_closed_loop;
use mvcc_repro::engine::{CertifierKind, Engine, EngineConfig, Session};
use mvcc_repro::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mvcc-fuzz-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const ENTITIES: usize = 8;
const SHARDS: usize = 2;

fn opts() -> RecoveryOptions {
    RecoveryOptions {
        shards: SHARDS,
        entities: ENTITIES,
        initial: mvcc_repro::engine::Bytes::from_static(b"0"),
    }
}

/// Builds the deterministic crash corpus: a durable single-threaded run
/// (fixed seed), three in-flight sessions whose records reach the OS but
/// whose commits never happen, and a leaked engine (no graceful
/// shutdown).  Returns the log directory.
fn build_corpus() -> PathBuf {
    let dir = temp_dir("corpus");
    let engine = std::sync::Arc::new(Engine::new(
        CertifierKind::Sgt,
        EngineConfig {
            shards: SHARDS,
            entities: ENTITIES,
            durability: DurabilityConfig {
                mode: DurabilityMode::Buffered,
                dir: dir.clone(),
                segment_bytes: 768, // force several rotations
            },
            ..EngineConfig::default()
        },
    ));
    let profile = LoadProfile {
        threads: 1, // single worker: the log is byte-deterministic
        shards: SHARDS,
        ops: 150,
        entities: ENTITIES,
        steps_per_transaction: 3,
        read_ratio: 0.6,
        zipf_theta: 0.4,
        seed: 0xf022,
    };
    drive_closed_loop(&engine, &profile);
    // In-flight writers: admitted, logged, never committed.
    let mut in_flight: Vec<Session> = Vec::new();
    for i in 0..3u32 {
        let mut session = engine.begin();
        if session
            .write(
                EntityId(i),
                mvcc_repro::engine::Bytes::from_static(b"in-flight"),
            )
            .is_ok()
        {
            in_flight.push(session);
        }
    }
    // One more durable commit flushes the in-flight records to the OS.
    let mut last = engine.begin();
    last.write(
        EntityId(7),
        mvcc_repro::engine::Bytes::from_static(b"final"),
    )
    .unwrap();
    last.commit().unwrap();
    // The crash: leak the sessions and the engine.
    for session in in_flight {
        std::mem::forget(session);
    }
    std::mem::forget(engine);
    dir
}

/// The committed set of a scanned log (ground truth for subset checks).
fn committed_of_scan(dir: &Path) -> BTreeSet<TxId> {
    scan_log(dir)
        .unwrap()
        .records
        .iter()
        .filter_map(|r| match &r.record {
            WalRecord::Commit { entries } => Some(entries.iter().map(|e| e.tx)),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Asserts the recovery invariants for one crash artifact.
fn assert_sound(
    dir: &Path,
    full_committed: &BTreeSet<TxId>,
    full_admitted: &[Step],
    context: &str,
) {
    let state = recover(dir, &opts()).unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    // No resurrection: every recovered commit was durable in the full log.
    assert!(
        state.committed.is_subset(full_committed),
        "{context}: resurrected {:?}",
        state
            .committed
            .difference(full_committed)
            .collect::<Vec<_>>()
    );
    // ACA across the crash: no uncommitted writer's version in the store.
    for (idx, shard) in state.shards.iter().enumerate() {
        for (entity, versions) in &shard.chains {
            for version in versions {
                assert!(
                    version.writer == TxId::INITIAL || state.committed.contains(&version.writer),
                    "{context}: shard {idx} {entity} holds uncommitted writer {}",
                    version.writer
                );
            }
        }
    }
    // Prefix property: the recovered admitted history is a prefix of the
    // full one.
    assert!(
        state.admitted.len() <= full_admitted.len(),
        "{context}: admitted grew"
    );
    assert_eq!(
        state.admitted[..],
        full_admitted[..state.admitted.len()],
        "{context}: admitted history diverged"
    );
    // One reader, two stop policies: the live tailer delivers exactly the
    // at-rest scan's records before it parks or errors.
    let mut cursor = WalCursor::origin();
    let mut tailed = Vec::new();
    while let Ok(batch) = read_tail(dir, &mut cursor, 1) {
        let parked = batch.caught_up;
        tailed.extend(batch.records);
        if parked {
            break;
        }
    }
    assert_eq!(
        tailed,
        scan_log(dir).unwrap().records,
        "{context}: the tailer and the scan disagree"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs thousands of recoveries; meaningful (and fast) in release builds"
)]
fn truncation_at_every_tail_byte_recovers_soundly() {
    let corpus = build_corpus();
    let full_committed = committed_of_scan(&corpus);
    let full_state = recover(&corpus, &opts()).unwrap();
    let full_admitted = full_state.admitted.clone();
    assert!(
        full_committed.len() > 10,
        "corpus too small to be meaningful"
    );
    assert!(
        !full_state.report.discarded.is_empty(),
        "no in-flight losers"
    );

    let segments = list_segments(&corpus).unwrap();
    assert!(segments.len() > 2, "corpus never rotated segments");
    let (_, last_path) = segments.last().unwrap();
    let last_bytes = std::fs::read(last_path).unwrap();

    // The crash-artifact directory: earlier segments copied once, the
    // last segment rewritten truncated per crash point.
    let target = temp_dir("trunc");
    for (seq, path) in &segments[..segments.len() - 1] {
        std::fs::copy(path, target.join(format!("wal-{seq:08}.seg"))).unwrap();
    }
    let last_name = last_path.file_name().unwrap();
    for cut in 0..=last_bytes.len() {
        std::fs::write(target.join(last_name), &last_bytes[..cut]).unwrap();
        assert_sound(
            &target,
            &full_committed,
            &full_admitted,
            &format!("cut at {cut}/{}", last_bytes.len()),
        );
    }
    // Sanity: the zero-length tail still recovers everything up to the
    // previous segment, and the full-length tail recovers everything.
    std::fs::write(target.join(last_name), &last_bytes).unwrap();
    let full_again = recover(&target, &opts()).unwrap();
    assert_eq!(full_again.committed, full_committed);
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&target);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs thousands of recoveries; meaningful (and fast) in release builds"
)]
fn bit_flips_across_the_tail_never_pass_the_crc() {
    let corpus = build_corpus();
    let full_committed = committed_of_scan(&corpus);
    let full_state = recover(&corpus, &opts()).unwrap();
    let full_admitted = full_state.admitted.clone();

    let segments = list_segments(&corpus).unwrap();
    let (_, last_path) = segments.last().unwrap();
    let last_bytes = std::fs::read(last_path).unwrap();

    let target = temp_dir("flip");
    for (seq, path) in &segments[..segments.len() - 1] {
        std::fs::copy(path, target.join(format!("wal-{seq:08}.seg"))).unwrap();
    }
    let last_name = last_path.file_name().unwrap();
    for byte in 0..last_bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut corrupted = last_bytes.clone();
            corrupted[byte] ^= 1 << bit;
            std::fs::write(target.join(last_name), &corrupted).unwrap();
            // A flipped bit may shorten the valid prefix (CRC failure) but
            // must never resurrect, corrupt ACA, or diverge the prefix.
            // (It can also strike an *uncommitted* region — begin/abort
            // records — leaving the committed set intact.)
            assert_sound(
                &target,
                &full_committed,
                &full_admitted,
                &format!("flip bit {bit} of byte {byte}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&target);
}

/// Hammers the checkpoint/commit fence: an aggressive background
/// checkpointer cuts fuzzy checkpoints continuously while 4 workers
/// commit, and the run then crash-leaks and recovers.  Every checkpoint
/// cut mid-commit must only persist versions whose commit records are
/// durable (the `checkpoint_cut` drain fence + flush barrier), so the
/// recovered store may never hold a writer the recovered log does not
/// know as committed — the exact invariant a fuzzy-checkpoint race
/// would break.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress interleavings are only meaningful in release builds"
)]
fn concurrent_checkpoints_never_persist_unlogged_commits() {
    use mvcc_repro::engine::{CheckpointDriver, GcDriver};
    use std::time::Duration;

    for round in 0..3u64 {
        let dir = temp_dir("ckpt-race");
        let engine = std::sync::Arc::new(Engine::new(
            CertifierKind::SnapshotIsolation,
            EngineConfig {
                shards: SHARDS,
                entities: ENTITIES,
                record_history: false,
                durability: DurabilityConfig {
                    mode: DurabilityMode::Buffered,
                    dir: dir.clone(),
                    segment_bytes: 4096,
                },
                ..EngineConfig::default()
            },
        ));
        let gc = GcDriver::start(std::sync::Arc::clone(&engine), Duration::ZERO);
        let checkpointer = CheckpointDriver::start(std::sync::Arc::clone(&engine), Duration::ZERO);
        let profile = LoadProfile {
            threads: 4,
            shards: SHARDS,
            ops: 8_000,
            entities: ENTITIES,
            steps_per_transaction: 3,
            read_ratio: 0.5,
            zipf_theta: 0.5,
            seed: 0xcc + round,
        };
        drive_closed_loop(&engine, &profile);
        gc.stop();
        checkpointer.stop();
        assert!(
            engine.metrics().snapshot().checkpoints > 0,
            "round {round}: checkpointer never ran"
        );
        // Crash: strand an in-flight writer and leak everything.
        let mut stranded = engine.begin();
        let _ = stranded.write(
            EntityId(0),
            mvcc_repro::engine::Bytes::from_static(b"stranded"),
        );
        std::mem::forget(stranded);
        std::mem::forget(engine);
        let state = recover(&dir, &opts()).unwrap();
        assert!(
            state.report.checkpoint_seq.is_some(),
            "round {round}: recovery never used a checkpoint"
        );
        for (idx, shard) in state.shards.iter().enumerate() {
            for (entity, versions) in &shard.chains {
                for version in versions {
                    assert!(
                        version.writer == TxId::INITIAL
                            || state.committed.contains(&version.writer),
                        "round {round}: shard {idx} {entity} persisted unlogged writer {}",
                        version.writer
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
