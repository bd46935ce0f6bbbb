//! Primary, replica, lag: the replication subsystem end to end.
//!
//! Runs a durable SGT engine under closed-loop load while a log-shipping
//! replica tails its write-ahead log; serves follower reads through the
//! read-scaling router under explicit staleness policies (including a
//! read-your-writes wait on a fresh commit); restarts the replica from a
//! local checkpoint; and finally re-verifies the *combined* history —
//! the primary's committed projection plus every replica-served read —
//! with the offline classifiers.
//!
//! Run with `cargo run --example engine_replica`.

use mvcc_repro::engine::load::drive_closed_loop;
use mvcc_repro::prelude::*;
use std::sync::Arc;

fn main() {
    let wal_dir = std::env::temp_dir().join(format!("mvcc-replica-demo-{}", std::process::id()));
    let ckpt_dir = wal_dir.join("replica-local");
    let profile = LoadProfile {
        threads: 4,
        shards: 2,
        ops: 240,
        entities: 8,
        steps_per_transaction: 3,
        read_ratio: 0.7,
        zipf_theta: 0.6,
        seed: 0x5ca1e,
    };

    // ---- Primary + replica + shipper -------------------------------
    let engine = Arc::new(Engine::new(
        CertifierKind::Sgt,
        EngineConfig {
            shards: 2,
            entities: 8,
            durability: DurabilityConfig::buffered(&wal_dir),
            ..EngineConfig::default()
        },
    ));
    let mut rconfig = ReplicaConfig::new(2, 8, mvcc_repro::replica::Bytes::from_static(b"0"));
    rconfig.checkpoint_dir = Some(ckpt_dir);
    rconfig.metrics = Some(engine.metrics_handle());
    let replica = Arc::new(Replica::open(rconfig.clone(), &wal_dir).unwrap());
    let shipper = LogShipper::start(Arc::clone(&replica), ShipperConfig::default());
    let router = ReadRouter::new(
        Arc::clone(&engine),
        vec![Arc::clone(&replica)],
        RouterConfig::default(),
    );

    // ---- Write load on the primary, follower reads off the replica --
    drive_closed_loop(&engine, &profile);
    println!(
        "primary: {} committed, durable horizon lsn {:?}",
        engine.metrics().snapshot().committed,
        engine.durable_lsn()
    );
    println!(
        "replica: watermark {} ({} behind), staleness {:?}",
        replica.watermark(),
        (engine.durable_lsn().unwrap() + 1).saturating_sub(replica.watermark()),
        replica.staleness()
    );

    // A fresh commit, then read-your-writes through the router: the
    // routed snapshot is waited past our own commit LSN.
    let mut writer = engine.begin();
    writer
        .write(EntityId(0), mvcc_repro::engine::Bytes::from_static(b"mine"))
        .unwrap();
    let my_lsn = writer.commit_durable().unwrap().unwrap();
    let mut read = router
        .begin_read_after(ReadPolicy::BoundedLag(16), my_lsn)
        .unwrap();
    let snapshot_lsn = read.snapshot_lsn().unwrap();
    println!(
        "read-your-writes: commit lsn {my_lsn}, routed snapshot lsn {snapshot_lsn} -> {:?}",
        read.read(EntityId(0)).unwrap()
    );
    assert!(
        snapshot_lsn > my_lsn,
        "the routed snapshot covers our commit"
    );
    read.finish();

    // Latest: the snapshot must cover the durable horizon.
    let mut read = router.begin_read(ReadPolicy::Latest).unwrap();
    let _ = read.read(EntityId(1)).unwrap();
    read.finish();

    // ---- Restart the replica from its local checkpoint --------------
    replica.checkpoint().unwrap();
    shipper.stop();
    drop(router);
    drop(replica);
    drive_closed_loop(&engine, &profile.with_seed(0x5ca1f)); // traffic the replica misses
    let replica = Arc::new(Replica::open(rconfig, &wal_dir).unwrap());
    println!(
        "replica restarted: resumes at watermark {}",
        replica.watermark()
    );
    replica.catch_up().unwrap();
    let horizon = engine.durable_lsn().unwrap();
    println!(
        "replica caught up: watermark {} past durable horizon {horizon}",
        replica.watermark()
    );
    assert!(
        replica.watermark() > horizon,
        "the restarted replica reaches the durable horizon"
    );
    let mut read = replica.begin_read();
    for e in 0..8 {
        let _ = read.read(EntityId(e)).unwrap();
    }
    read.finish();

    // ---- Theory checks the replica ----------------------------------
    let combined = replica.history().combined_schedule();
    let csr = is_csr(&combined);
    println!(
        "combined history (shipped + {} follower reads): {} steps, CSR = {csr}",
        replica.history().readers_recorded(),
        combined.len(),
    );
    assert!(csr, "SGT's combined history stays in CSR");
    println!("\nprimary metrics (durability + replication blocks):");
    println!("{}", engine.metrics().snapshot());
    let _ = std::fs::remove_dir_all(&wal_dir);
}
