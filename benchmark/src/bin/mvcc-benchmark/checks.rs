//! The correctness checks behind the non-zero exit.
//!
//! Every invocation runs them; a workload whose outputs are wrong reports
//! `"correct": false` and exits with a non-zero code whatever it measured.

use crate::load::{run_fixed, SliceResult, SHARDS};
use crate::report::Outcome;
use crate::traffic::Shape;
use mvcc_core::{EntityId, Schedule, TxId};
use mvcc_durability::{CommittedVersion, RecoveryOptions};
use mvcc_engine::{Bytes, CertifierKind, Engine, HistoryClass, MetricsSnapshot, ShardedStore};
use mvcc_replica::{Replica, ReplicaConfig};
use std::collections::BTreeSet;
use std::path::Path;

/// Transactions of the recorded pass for the polynomial classes.
const RECORDED_TXNS: usize = 2_000;
/// Commits of the recorded pass for MVTO: its class check is the exact
/// NP-complete MVSR search, which needs a complete and small history.
const RECORDED_TXNS_MVSR: usize = 48;

/// The initial payload of every entity (the engine's default).
pub fn initial() -> Bytes {
    Bytes::from_static(b"0")
}

/// The topology every log in the benchmark is written under.
pub fn recovery_options(entities: usize) -> RecoveryOptions {
    RecoveryOptions {
        shards: SHARDS,
        entities,
        initial: initial(),
    }
}

/// A replica of that topology (no history: nothing classifies it here).
pub fn replica_config(entities: usize) -> ReplicaConfig {
    let mut config = ReplicaConfig::new(SHARDS, entities, initial());
    config.record_history = false;
    config
}

/// A committed history must lie in its certifier's class.
pub fn history_in_class(class: HistoryClass, history: &Schedule) -> Result<(), String> {
    if class.check(history) {
        Ok(())
    } else {
        Err(format!(
            "committed history of {} steps is not in {class}",
            history.len()
        ))
    }
}

/// Every session the engine began either committed or aborted.
pub fn sessions_accounted(m: &MetricsSnapshot) -> Result<(), String> {
    if m.begun == m.committed + m.aborted {
        Ok(())
    } else {
        Err(format!(
            "begun {} != committed {} + aborted {}",
            m.begun, m.committed, m.aborted
        ))
    }
}

/// Recovery must return exactly the acknowledged commits.
pub fn recovered_exactly(acked: &[TxId], recovered: &BTreeSet<TxId>) -> Result<(), String> {
    let acked: BTreeSet<TxId> = acked.iter().copied().collect();
    let lost: Vec<&TxId> = acked.difference(recovered).take(3).collect();
    let extra: Vec<&TxId> = recovered.difference(&acked).take(3).collect();
    if lost.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} acknowledged vs {} recovered commits; lost {lost:?}, never acknowledged {extra:?}",
            acked.len(),
            recovered.len()
        ))
    }
}

/// The newest committed version of every entity: `(writer, ts, value)`.
pub type Newest = Vec<(EntityId, Option<(TxId, u64, Bytes)>)>;

/// The newest committed version of every entity of a store.
pub fn newest(shards: &ShardedStore) -> Newest {
    let mut out: Newest = shards
        .iter()
        .flat_map(|store| store.committed_state().1)
        .map(|(entity, chain)| (entity, chain.last().cloned()))
        .collect();
    out.sort_by_key(|(entity, _)| *entity);
    out
}

/// `other` must hold the same newest committed version as the primary
/// for every entity.
pub fn same_newest(primary: &Newest, other: &Newest, who: &str) -> Result<(), String> {
    match primary.iter().zip(other).find(|(x, y)| x != y) {
        None if primary.len() == other.len() => Ok(()),
        None => Err(format!(
            "{who} holds {} entities, primary {}",
            other.len(),
            primary.len()
        )),
        Some((x, y)) => Err(format!("{who} diverges from the primary: {y:?} vs {x:?}")),
    }
}

/// The recorded pass of one certifier: a short run on the workload's
/// traffic with history recording on, checked against the class.
pub fn recorded_pass(
    kind: CertifierKind,
    shape: Shape,
    seed: u64,
    workers: usize,
    outcome: &mut Outcome,
) {
    let txns = match kind.class() {
        HistoryClass::Mvsr => RECORDED_TXNS_MVSR,
        _ => RECORDED_TXNS,
    };
    let engine = run_fixed(kind, shape, seed, workers, txns / workers);
    let history = engine.history();
    outcome.check(
        format!("{}: sessions accounted (recorded pass)", kind.name()),
        sessions_accounted(&engine.metrics().snapshot()),
    );
    outcome.check(
        format!("{}: {txns}-txn history in {}", kind.name(), kind.class()),
        if history.is_complete() {
            history_in_class(kind.class(), &history.committed_schedule())
        } else {
            Err("recorded history dropped steps".into())
        },
    );
}

/// The checks of a durable slice: seal the log with one more commit (so
/// nothing sits in the writer's buffer), then recover it and catch a
/// replica up on it.
///
/// The replica is compared with the *log's* committed state, not with the
/// primary's chains: the primary keeps an entity's versions in admission
/// order, log consumers order them by commit timestamp, and under every
/// certifier but 2PL and SI two concurrent writers of one entity can
/// commit in the other order — the two "newest" versions then differ
/// although no data is lost (see README, "What the probe found").  What
/// must hold for the primary is that its newest version of every entity
/// is a committed version the log knows.
pub fn durable_slice(result: &SliceResult, wal_dir: &Path, entities: usize, outcome: &mut Outcome) {
    let engine = &result.engine;
    let mut acked: Vec<TxId> = result
        .logs
        .iter()
        .flat_map(|l| l.acked.iter().copied())
        .collect();
    acked.push(seal(engine));
    let who = format!("{} r{}", result.kind.name(), result.round + 1);
    let state = match mvcc_durability::recover(wal_dir, &recovery_options(entities)) {
        Ok(state) => state,
        Err(e) => return outcome.check(format!("{who}: the log recovers"), Err(e.to_string())),
    };
    let logged: Newest = state
        .latest_committed()
        .into_iter()
        .map(|(entity, v)| (entity, Some((v.writer, v.commit_ts, v.value))))
        .collect();
    let chains: std::collections::BTreeMap<EntityId, &Vec<CommittedVersion>> = state
        .shards
        .iter()
        .flat_map(|s| &s.chains)
        .map(|(entity, chain)| (*entity, chain))
        .collect();
    let unknown = newest(engine.shards())
        .into_iter()
        .find(|(entity, version)| {
            version.as_ref().is_some_and(|(writer, ts, _)| {
                !chains.get(entity).is_some_and(|chain| {
                    chain
                        .iter()
                        .any(|v| v.writer == *writer && v.commit_ts == *ts)
                })
            })
        });
    outcome.check(
        format!("{who}: recover returns the acknowledged commits"),
        recovered_exactly(&acked, &state.committed),
    );
    outcome.check(
        format!("{who}: the primary's newest versions are in the log"),
        unknown.map_or(Ok(()), |v| Err(format!("the log has no {v:?}"))),
    );
    outcome.check(
        format!("{who}: replica catches up to the log's state"),
        caught_up_replica(engine, wal_dir, entities)
            .and_then(|replica| same_newest(&logged, &newest(replica.shards()), "replica")),
    );
}

/// Commits one write so that every earlier record is flushed; returns the
/// sealing transaction.
pub fn seal(engine: &std::sync::Arc<Engine>) -> TxId {
    loop {
        let mut session = engine.begin();
        let tx = session.id();
        if session
            .write(EntityId(0), Bytes::from_static(b"seal"))
            .is_ok()
            && session.commit().is_ok()
        {
            return tx;
        }
    }
}

/// A fresh replica over `wal_dir`, caught up: its watermark must stand
/// right after the primary's last LSN.
pub fn caught_up_replica(
    engine: &Engine,
    wal_dir: &Path,
    entities: usize,
) -> Result<Replica, String> {
    let replica = Replica::open(replica_config(entities), wal_dir)
        .map_err(|e| format!("replica open: {e}"))?;
    replica
        .catch_up()
        .map_err(|e| format!("replica catch-up: {e}"))?;
    let last = engine.wal_last_lsn().ok_or("the primary's log is empty")?;
    if replica.watermark() != last + 1 {
        return Err(format!(
            "replica watermark {} but the primary's last LSN is {last}",
            replica.watermark()
        ));
    }
    Ok(replica)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;
    use mvcc_core::Step;

    #[test]
    fn a_planted_out_of_class_history_fails_the_run() {
        // r1(x) w2(x) w1(x): T1 -> T2 -> T1, not conflict-serializable.
        let (x, t1, t2) = (EntityId(0), TxId(1), TxId(2));
        let planted = Schedule::from_steps(vec![
            Step::read(t1, x),
            Step::write(t2, x),
            Step::write(t1, x),
        ]);
        let serial = Schedule::from_steps(vec![
            Step::read(t1, x),
            Step::write(t1, x),
            Step::write(t2, x),
        ]);
        assert!(history_in_class(HistoryClass::Csr, &serial).is_ok());
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        outcome.check("serial", history_in_class(HistoryClass::Csr, &serial));
        assert_eq!(outcome.exit_code(), 0);
        outcome.check("planted", history_in_class(HistoryClass::Csr, &planted));
        assert_ne!(outcome.exit_code(), 0);
    }

    #[test]
    fn a_planted_lost_commit_fails_the_run() {
        let acked: Vec<TxId> = (1..=5).map(TxId).collect();
        let all: BTreeSet<TxId> = acked.iter().copied().collect();
        assert!(recovered_exactly(&acked, &all).is_ok());
        let mut lossy = all.clone();
        lossy.remove(&TxId(3));
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        outcome.check("lost", recovered_exactly(&acked, &lossy));
        assert_ne!(outcome.exit_code(), 0);
        assert!(outcome.render().contains("lost [TxId(3)]"));
        // A commit nobody acknowledged is just as wrong.
        let mut extra = all;
        extra.insert(TxId(9));
        assert!(recovered_exactly(&acked, &extra).is_err());
    }

    #[test]
    fn a_durable_slice_passes_its_own_checks() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-durable-slice");
        let _ = std::fs::remove_dir_all(&dir);
        let shape = Shape {
            entities: 64,
            theta: 0.0,
            read_share: 0.5,
        };
        let slice = crate::load::Slice {
            kind: CertifierKind::Mvto,
            shape,
            durability: mvcc_engine::DurabilityMode::Buffered,
            wal_dir: dir.clone(),
            pace: None,
            workers: 2,
            warmup: std::time::Duration::from_millis(10),
            measure: std::time::Duration::from_millis(50),
            telemetry: mvcc_engine::TelemetryMode::Off,
            seed: 11,
            round: 0,
            traced: false,
        };
        let result = crate::load::run_slice(&slice);
        let mut outcome = Outcome {
            attempted: result.attempted(),
            ..Outcome::default()
        };
        durable_slice(&result, &dir, shape.entities, &mut outcome);
        assert_eq!(outcome.checks.len(), 3);
        assert!(outcome.correct(), "{}", outcome.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_passes_are_in_class_for_every_certifier() {
        let shape = Shape {
            entities: 64,
            theta: 0.9,
            read_share: 0.5,
        };
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for kind in CertifierKind::all() {
            recorded_pass(kind, shape, 5, 2, &mut outcome);
        }
        assert_eq!(outcome.checks.len(), 12);
        assert!(outcome.correct(), "{}", outcome.render());
    }
}
