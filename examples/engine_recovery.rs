//! Crash, recover, resume: the durability subsystem end to end.
//!
//! Runs a durable MVTO engine under closed-loop load, cuts a checkpoint,
//! "crashes" it (the engine is leaked mid-flight with sessions open —
//! the in-process analogue of `kill -9`), recovers from the write-ahead
//! log, re-verifies the recovered committed history with the offline
//! classifiers, and resumes load on the recovered engine.
//!
//! Run with `cargo run --example engine_recovery`.

use mvcc_repro::engine::load::drive_closed_loop;
use mvcc_repro::engine::{CheckpointDriver, GcDriver};
use mvcc_repro::prelude::*;
use std::time::Duration;

fn main() {
    let dir = std::env::temp_dir().join(format!("mvcc-recovery-demo-{}", std::process::id()));
    let config = EngineConfig {
        shards: 2,
        entities: 8,
        durability: DurabilityConfig::buffered(&dir),
        ..EngineConfig::default()
    };
    let profile = LoadProfile {
        threads: 4,
        shards: 2,
        ops: 48,
        entities: 8,
        steps_per_transaction: 3,
        read_ratio: 0.7,
        zipf_theta: 0.6,
        seed: 0xdead,
    };

    // ---- Life before the crash -------------------------------------
    let (engine, cold) = Engine::recover(CertifierKind::Mvto, config.clone()).unwrap();
    println!(
        "cold start: {} records replayed in {:?}",
        cold.records_scanned, cold.elapsed
    );
    let gc = GcDriver::start(engine.clone(), Duration::from_millis(1));
    let checkpointer = CheckpointDriver::start(engine.clone(), Duration::from_millis(5));
    drive_closed_loop(&engine, &profile);
    std::thread::sleep(Duration::from_millis(10)); // let a checkpoint land
    gc.stop();
    checkpointer.stop();

    // Three in-flight sessions the crash will strand; one last commit
    // pushes their records into the OS so recovery *sees* and discards
    // them.
    let mut stranded = Vec::new();
    for i in 0..3u32 {
        let mut session = engine.begin();
        if session
            .write(
                EntityId(i),
                mvcc_repro::engine::Bytes::from_static(b"doomed"),
            )
            .is_ok()
        {
            stranded.push(session);
        }
    }
    let mut last = engine.begin();
    last.write(EntityId(7), mvcc_repro::engine::Bytes::from_static(b"fin"))
        .unwrap();
    last.commit().unwrap();
    println!("pre-crash:  {}", engine.metrics().snapshot());

    // ---- The crash --------------------------------------------------
    for session in stranded {
        std::mem::forget(session); // never aborted, never committed
    }
    std::mem::forget(engine); // no graceful shutdown, no final flush

    // ---- Recovery ---------------------------------------------------
    let (engine, report) = Engine::recover(CertifierKind::Mvto, config).unwrap();
    println!(
        "recovered:  {} records ({} data commits replayed after checkpoint {:?}) in {:?}",
        report.records_scanned, report.commits_replayed, report.checkpoint_seq, report.elapsed
    );
    println!("discarded in-flight transactions: {:?}", report.discarded);

    // The recovered committed history is still MVSR — the offline
    // classifiers certify what the certifier promised, across the crash.
    let history = engine.history();
    let schedule = history.committed_schedule();
    let mvsr = is_mvsr(&schedule);
    println!(
        "recovered committed history: {} steps, {} transactions, MVSR = {mvsr}",
        schedule.len(),
        history.committed.len(),
    );
    assert!(mvsr, "MVTO's recovered history stays in MVSR");

    // ---- Resume -----------------------------------------------------
    drive_closed_loop(
        &engine,
        &LoadProfile {
            seed: 0xbeef,
            ..profile
        },
    );
    let combined = engine.history().committed_schedule();
    let mvsr = is_mvsr(&combined);
    println!(
        "resumed:    combined history {} steps, still MVSR = {mvsr}",
        combined.len(),
    );
    assert!(mvsr, "the resumed history stays in MVSR");
    println!("post-resume {}", engine.metrics().snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}
