//! Fixed-seed multi-threaded stress tests for the engine's hottest races.
//!
//! These are only meaningful in release builds (debug builds serialize the
//! interesting interleavings behind their own overhead), so every test is
//! `#[ignore]`d under `debug_assertions`; the CI release-test job runs
//! them with `cargo test --release`.
//!
//! The star is the GC watermark / snapshot-pinning handoff: a snapshot
//! taken *between* watermark computation and reclamation must still be
//! honored.  `MvStore::begin` registers the transaction atomically with
//! its snapshot choice (the regression these tests pin down hammered the
//! old sample-then-register window), so a freshly begun transaction's
//! first read can never find its visible version already reclaimed.

use mvcc_repro::engine::{AbortReason, CertifierKind, Engine, EngineConfig, GcDriver};
use mvcc_repro::prelude::*;
use mvcc_repro::store::{gc, MvStore};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const X: EntityId = EntityId(0);

/// Store-level hammer: begin / snapshot-read / GC race directly against
/// `MvStore`.  Writers continuously supersede the hot entity, a collector
/// prunes under the store watermark as fast as it can, and readers begin
/// and immediately snapshot-read.  A read that was visible at begin must
/// never come back `NoVisibleVersion` — with the old
/// sample-counter-then-register `begin`, this test trips within a few
/// thousand iterations.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress interleavings are only meaningful in release builds"
)]
fn gc_never_reclaims_a_version_visible_at_begin_store_level() {
    let store = Arc::new(MvStore::with_entities(
        [X],
        mvcc_repro::engine::Bytes::from_static(b"0"),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let next_tx = Arc::new(AtomicU32::new(1));
    let mut workers = Vec::new();

    // Two writers: pile up versions of the hot entity.
    for _ in 0..2 {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let next_tx = Arc::clone(&next_tx);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let tx = TxId(next_tx.fetch_add(1, Ordering::Relaxed));
                let h = store.begin(tx).expect("fresh id");
                store
                    .write(h, X, mvcc_repro::engine::Bytes::from(format!("{tx}")))
                    .unwrap();
                store.commit(h, false).unwrap();
            }
        }));
    }
    // One collector: prune under the watermark continuously.
    {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                gc::collect(&store);
            }
        }));
    }
    // Two readers: begin, read the snapshot immediately, abort.  The
    // failure mode under the race is NoVisibleVersion on a just-begun
    // transaction.  Few readers on purpose: the watermark is at its most
    // aggressive (`current_ts`) exactly when no reader is registered, which
    // is what a stale-but-unregistered snapshot races against.
    const READERS: usize = 2;
    let violations = Arc::new(AtomicU64::new(0));
    for _ in 0..READERS {
        let store = Arc::clone(&store);
        let next_tx = Arc::clone(&next_tx);
        let violations = Arc::clone(&violations);
        workers.push(std::thread::spawn(move || {
            for _ in 0..200_000 {
                let tx = TxId(next_tx.fetch_add(1, Ordering::Relaxed));
                let h = store.begin(tx).expect("fresh id");
                if store.read_snapshot(h, X).is_err() {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                let _ = store.abort(h);
            }
        }));
    }
    // Stop the open-ended threads once every reader is done (readers are
    // the last handles).
    let readers: Vec<_> = workers.split_off(workers.len() - READERS);
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "a freshly pinned snapshot observed a reclaimed version"
    );
}

/// Engine-level hammer: snapshot-isolation sessions (whose reads are
/// pinned at each shard's begin) under an aggressive background GC driver.
/// No session may ever abort with `SnapshotTooOld` or `DirtyRead`: SI
/// reads by snapshot visibility, and the version visible at its shard
/// begin must survive every concurrent collection.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress interleavings are only meaningful in release builds"
)]
fn engine_snapshot_reads_survive_aggressive_gc() {
    use mvcc_repro::workload::Zipfian;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let engine = Arc::new(Engine::new(
        CertifierKind::SnapshotIsolation,
        EngineConfig {
            shards: 4,
            entities: 8,
            record_history: false,
            ..EngineConfig::default()
        },
    ));
    let driver = GcDriver::start(Arc::clone(&engine), Duration::ZERO);
    let zipf = Zipfian::new(8, 0.9); // hot keys -> constant version churn
    let mut workers = Vec::new();
    for worker in 0..4u64 {
        let engine = Arc::clone(&engine);
        let zipf = zipf.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0x57e5 + worker);
            for _ in 0..8_000 {
                let mut session = engine.begin();
                let mut ok = true;
                for _ in 0..3 {
                    let entity = EntityId(zipf.sample(&mut rng) as u32);
                    let outcome = if rng.gen_bool(0.5) {
                        session.read(entity).map(|_| ())
                    } else {
                        session.write(
                            entity,
                            mvcc_repro::engine::Bytes::from(format!("{}", session.id())),
                        )
                    };
                    if outcome.is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let _ = session.commit();
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    driver.stop();
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.begun, snap.committed + snap.aborted, "books balance");
    assert!(snap.committed > 0);
    assert!(snap.gc_passes > 0, "the collector never ran");
    let count = |reason: AbortReason| {
        snap.aborts_by_reason
            .iter()
            .find(|(r, _)| *r == reason)
            .map_or(0, |(_, c)| *c)
    };
    // SI sessions may only lose first-committer-wins races; a snapshot
    // read must never observe a reclaimed or uncommitted version.
    assert_eq!(count(AbortReason::SnapshotTooOld), 0, "GC raced a snapshot");
    assert_eq!(count(AbortReason::DirtyRead), 0);
    assert_eq!(count(AbortReason::Explicit), 0, "unexpected store error");
}

/// The admission pipeline under every certifier at once: heavier traffic
/// than the unit suites, books must balance, and every ruling is counted
/// as one step (mean admission batch exactly 1).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress interleavings are only meaningful in release builds"
)]
fn batched_pipeline_balances_books_under_every_certifier() {
    for kind in CertifierKind::all() {
        let profile = LoadProfile {
            threads: 4,
            shards: 4,
            ops: 12_000,
            entities: 16,
            steps_per_transaction: 4,
            read_ratio: 0.7,
            zipf_theta: 0.0,
            seed: 0x57e55,
        };
        let report = run_closed_loop(
            kind,
            &profile,
            LoadOptions {
                record_history: false,
                ..LoadOptions::default()
            },
        );
        let m = &report.metrics;
        assert_eq!(m.begun, m.committed + m.aborted, "{kind}: books");
        assert!(m.committed > 0, "{kind}: starved");
        assert!(
            m.admission_batches > 0,
            "{kind}: no admission ruling counted"
        );
        assert_eq!(m.mean_admission_batch(), Some(1.0), "{kind}");
    }
}
