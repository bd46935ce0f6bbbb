//! The two fixed-work workloads: `restart` and `classify`.
//!
//! Both are single-threaded and repeat a fixed piece of work — a *pass* —
//! until the run's measured seconds are used up; only the passes are
//! measured, building their inputs is set-up.  Every pass does the same
//! calls on the same inputs, so what a call costs is the fastest of its
//! executions ([`fastest`]): whatever else an execution took, the host
//! added.

use crate::checks;
use crate::layers::{feed, FEED_TXNS};
use crate::load::SHARDS;
use crate::report::Outcome;
use crate::stats::{median, now, quantile};
use crate::traffic::{AccessStream, Shape, STEPS};
use crate::workloads::{Options, Workload};
use mvcc_classify::{classify, is_csr, is_mvcsr, Classification};
use mvcc_core::{Action, Schedule, TxId};
use mvcc_engine::{Bytes, CertifierKind, DurabilityConfig, Engine, EngineConfig};
use mvcc_replica::Replica;
use mvcc_workload::{random_interleavings, WorkloadConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Transactions in the log `restart` replays (smoke: [`RESTART_TXNS_SMOKE`]).
pub const RESTART_TXNS: usize = 60_000;
pub const RESTART_TXNS_SMOKE: usize = 5_000;
/// The certifier that writes the log and that recovery rebuilds.
const RESTART_KIND: CertifierKind = CertifierKind::Mvto;

/// Builds the log `restart` replays: `txns` committed transactions of the
/// workload's traffic through a single-threaded engine with a buffered
/// WAL.  Returns the engine (still holding the log open) and every
/// acknowledged commit.
pub fn build_log(shape: Shape, seed: u64, txns: usize, dir: &Path) -> (Arc<Engine>, Vec<TxId>) {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Arc::new(Engine::new(RESTART_KIND, log_config(shape, dir)));
    let mut stream = AccessStream::new(shape, seed, 0, 0);
    let mut acked = Vec::with_capacity(txns + 1);
    while acked.len() < txns {
        let mut session = engine.begin();
        let tx = session.id();
        let done = stream
            .next_txn()
            .into_iter()
            .all(|(action, entity)| match action {
                Action::Read => session.read(entity).is_ok(),
                Action::Write => session
                    .write(entity, Bytes::copy_from_slice(&tx.0.to_le_bytes()))
                    .is_ok(),
            });
        if done && session.commit().is_ok() {
            acked.push(tx);
        }
        if acked.len() % 4096 == 0 {
            engine.collect_garbage();
        }
    }
    acked.push(checks::seal(&engine));
    (engine, acked)
}

/// The engine that writes the log, and the one recovery rebuilds from it.
fn log_config(shape: Shape, dir: &Path) -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        entities: shape.entities,
        record_history: false,
        durability: DurabilityConfig::buffered(dir),
        ..EngineConfig::default()
    }
}

/// One timed `Engine::recover`; returns seconds and the recovered engine.
fn timed_recover(shape: Shape, dir: &Path) -> Result<(f64, Arc<Engine>, u64), String> {
    let started = now();
    let (engine, report) = Engine::recover(RESTART_KIND, log_config(shape, dir))
        .map_err(|e| format!("recover: {e}"))?;
    Ok((
        started.elapsed().as_secs_f64(),
        engine,
        report.commits_replayed,
    ))
}

/// One timed `Replica::open` + `catch_up`; returns seconds and the replica.
fn timed_catch_up(shape: Shape, dir: &Path) -> Result<(f64, Replica, u64), String> {
    let config = checks::replica_config(shape.entities);
    let started = now();
    let replica = Replica::open(config, dir).map_err(|e| format!("replica open: {e}"))?;
    let receipt = replica.catch_up().map_err(|e| format!("catch-up: {e}"))?;
    Ok((
        started.elapsed().as_secs_f64(),
        replica,
        receipt.commits as u64,
    ))
}

/// `restart`: an operation is one transaction replayed from the log; a
/// *restart* (the pass) is one `Engine::recover` followed by one
/// `Replica::open` + `catch_up` over the same log.  `ops_s` is the replay
/// rate of a restart at its fastest; `op_tail_us` is the slowest whole
/// restart *as run* (what an operator waited for on this host, its noise
/// included).
pub fn run_restart(w: &Workload, opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let txns = if opts.smoke {
        RESTART_TXNS_SMOKE
    } else {
        RESTART_TXNS
    };
    let dir = opts.out_dir.join("wal-restart");
    let entered = now();
    let (primary, acked) = build_log(w.shape, opts.seed, txns, &dir);
    outcome.metric("setup_s", entered.elapsed().as_secs_f64(), "s");
    let last_lsn = primary.wal_last_lsn().unwrap_or(0);
    // The first repetition of each path is discarded from the timings
    // (cold page cache) and carries the full checks instead.
    outcome.check(
        "recover returns the acknowledged commits",
        mvcc_durability::recover(&dir, &checks::recovery_options(w.shape.entities))
            .map_err(|e| format!("recover: {e}"))
            .and_then(|state| checks::recovered_exactly(&acked, &state.committed)),
    );
    // A single-threaded log commits in admission order, so here the
    // replica must equal the primary itself.
    outcome.check(
        "replica catches up to the primary",
        checks::caught_up_replica(&primary, &dir, w.shape.entities).and_then(|replica| {
            checks::same_newest(
                &checks::newest(primary.shards()),
                &checks::newest(replica.shards()),
                "replica",
            )
        }),
    );
    // From here on the log is reopened by each recovered engine; the
    // primary must let go of it first.  Its state stays as the reference.
    let primary_state = checks::newest(primary.shards());
    drop(primary);
    outcome.check(
        "recovered engine state equals the primary's",
        timed_recover(w.shape, &dir).and_then(|(_, engine, replayed)| {
            if replayed != acked.len() as u64 {
                return Err(format!(
                    "{replayed} commits replayed, {} acknowledged",
                    acked.len()
                ));
            }
            checks::same_newest(
                &primary_state,
                &checks::newest(engine.shards()),
                "recovered engine",
            )
        }),
    );

    let budget = Duration::from_secs_f64(opts.seconds);
    let window = now();
    let (mut recover_s, mut catchup_s, mut restart_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = 0u64;
    let mut broken = None;
    while window.elapsed() < budget || restart_us.len() < 3 {
        let step = timed_recover(w.shape, &dir).and_then(|(r_s, engine, r_n)| {
            drop(engine);
            let (c_s, replica, c_n) = timed_catch_up(w.shape, &dir)?;
            if r_n != acked.len() as u64 || c_n != r_n || replica.watermark() != last_lsn + 1 {
                return Err(format!(
                    "restart replayed {r_n} / {c_n} of {} commits, watermark {} vs last LSN {last_lsn}",
                    acked.len(),
                    replica.watermark()
                ));
            }
            Ok((r_s, c_s, r_n + c_n))
        });
        match step {
            Ok((r_s, c_s, n)) => {
                recover_s.push(r_s);
                catchup_s.push(c_s);
                restart_us.push(((r_s + c_s) * 1e6) as u64);
                replayed += n;
            }
            Err(why) => {
                broken = Some(why);
                break;
            }
        }
    }
    outcome.check(
        "every timed restart replays the whole log",
        broken.map_or(Ok(()), Err),
    );
    let _ = std::fs::remove_dir_all(&dir);
    if restart_us.is_empty() {
        return outcome;
    }

    outcome.measured_s = recover_s.iter().sum::<f64>() + catchup_s.iter().sum::<f64>();
    outcome.attempted = replayed;
    let fastest_s = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    outcome.metric(
        "ops_s",
        (replayed / restart_us.len() as u64) as f64
            / (fastest_s(&recover_s) + fastest_s(&catchup_s)),
        "1/s",
    );
    restart_us.sort_unstable();
    outcome.metric("op_tail_us", quantile(&restart_us, 1.0) as f64, "us");
    outcome.detail.push(format!(
        "  op_p50_us      {:>12.0} us    (median restart as run)",
        quantile(&restart_us, 0.5) as f64
    ));
    outcome.detail.push(format!(
        "  log of {} transactions ({} WAL records), {} restarts timed, single-threaded",
        acked.len(),
        last_lsn + 1,
        restart_us.len()
    ));
    outcome.detail.push(format!(
        "  recover_s      {:>12.6} s     catchup_s     {:>12.6} s    (fastest; medians as run {:.6} and {:.6})",
        fastest_s(&recover_s),
        fastest_s(&catchup_s),
        median(&recover_s),
        median(&catchup_s)
    ));
    outcome
}

/// Schedules in the `classify` corpus (smoke: 100).
pub const CORPUS: usize = 3_000;
/// Schedules classified between two audits.
const CHUNK: usize = 250;
/// The seed whose first-chunk census is frozen below.
pub const DEFAULT_SEED: u64 = 1;
/// Figure-1 regions of the first [`CHUNK`] corpus schedules at
/// [`DEFAULT_SEED`]: a change in any classifier's verdicts shows here.
const FROZEN_CENSUS: [(&str, usize); 3] = [("MvcsrNotSr", 92), ("MvsrOnly", 81), ("NotMvsr", 77)];

/// The corpus configuration: 8 transactions x 4 steps over 8 entities.
fn corpus_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        transactions: 8,
        steps_per_transaction: STEPS,
        entities: 8,
        read_ratio: 0.5,
        zipf_theta: 0.0,
        // `random_interleavings` derives schedule `i` from `seed + i`, so
        // neighbouring seeds would share all but one schedule: spread the
        // run seeds out first.
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

fn census(classes: &[Classification]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for c in classes {
        *counts.entry(format!("{:?}", c.region())).or_insert(0) += 1;
    }
    counts
}

/// `classify`: an operation is one classification call — a corpus
/// schedule through `taxonomy::classify`, or an audit with `is_csr` /
/// `is_mvcsr` of the long committed history the SGT / MV-SGT certifier
/// admits when fed the workload's traffic (`layers::feed`).  A *pass* is
/// the whole corpus, then both audits; passes repeat until the measured
/// seconds are used up.  Every pass does the same work, so an operation's
/// cost is the fastest of its executions ([`fastest`]); `ops_s` is the
/// pass rate those costs add up to, `op_tail_us` the p95 of the corpus
/// calls' costs.
pub fn run_classify(w: &Workload, opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let (corpus_len, audit_txns) = if opts.smoke {
        (100, FEED_TXNS / 10)
    } else {
        (CORPUS, FEED_TXNS)
    };
    // Set-up is building the inputs; it is done three times and the median
    // reported (the builds are identical, the last one is used).
    let build = || {
        let entered = now();
        let corpus = random_interleavings(&corpus_config(opts.seed), corpus_len);
        let sgt = feed(CertifierKind::Sgt, w.shape, opts.seed, audit_txns, 0.0).committed;
        let mv_sgt = feed(CertifierKind::MvSgt, w.shape, opts.seed, audit_txns, 0.0).committed;
        (entered.elapsed().as_secs_f64(), corpus, sgt, mv_sgt)
    };
    let mut builds = vec![build().0, build().0];
    let (last, corpus, sgt, mv_sgt) = build();
    builds.push(last);
    outcome.metric("setup_s", median(&builds), "s");
    let audits: [(&Schedule, fn(&Schedule) -> bool); 2] = [(&sgt, is_csr), (&mv_sgt, is_mvcsr)];

    let budget = Duration::from_secs_f64(opts.seconds);
    let window = now();
    // One row per pass: the corpus calls in order, then the two audits, ns.
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let mut first_pass: Vec<Classification> = Vec::new();
    let mut violations = 0usize;
    let mut audits_in_class = true;
    while window.elapsed() < budget || passes.len() < 2 {
        let mut row = Vec::with_capacity(corpus_len + audits.len());
        for schedule in &corpus {
            let started = now();
            let verdict = classify(std::hint::black_box(schedule));
            row.push(started.elapsed().as_nanos() as u64);
            violations += usize::from(!verdict.respects_containments());
            if passes.is_empty() {
                first_pass.push(verdict);
            }
        }
        for (history, check) in audits {
            let started = now();
            audits_in_class &= check(std::hint::black_box(history));
            row.push(started.elapsed().as_nanos() as u64);
        }
        passes.push(row);
    }
    let first_chunk = &first_pass[..CHUNK.min(corpus_len)];

    outcome.check(
        "every classification respects CSR ⊆ MVCSR ⊆ MVSR (and the rest of Figure 1)",
        if violations == 0 {
            Ok(())
        } else {
            Err(format!("{violations} violations"))
        },
    );
    outcome.check(
        "SGT's history is in CSR and MV-SGT's in MVCSR on every audit",
        if audits_in_class {
            Ok(())
        } else {
            Err("an audited history is out of class".into())
        },
    );
    let seen = census(first_chunk);
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        let frozen: BTreeMap<String, usize> = FROZEN_CENSUS
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        outcome.check(
            "Figure-1 region counts of the first chunk equal the frozen census",
            if seen == frozen {
                Ok(())
            } else {
                Err(format!("{seen:?} vs frozen {frozen:?}"))
            },
        );
    }

    let measured_ns: u64 = passes.iter().flatten().sum();
    outcome.measured_s = measured_ns as f64 / 1e9;
    outcome.attempted = passes.iter().map(|row| row.len() as u64).sum();
    let cost = fastest(&passes);
    let (calls, audit_cost) = cost.split_at(corpus_len);
    let pass_s = cost.iter().sum::<u64>() as f64 / 1e9;
    outcome.metric("ops_s", cost.len() as f64 / pass_s, "1/s");
    let mut sorted = calls.to_vec();
    sorted.sort_unstable();
    outcome.detail.push(format!(
        "  op_p50_us      {:>12.2} us    (median cost of a corpus call)",
        quantile(&sorted, 0.5) as f64 / 1e3
    ));
    // The classifiers' cost is heavy-tailed in the schedule (VSR and MVSR
    // are NP-complete: p50 0.4 ms, p99 7 ms, slowest 35 ms), so how slow the
    // slowest calls are is a property of the seed: over ten seeds the mean
    // of the slowest 1 % read 22 % interquartile spread, p99 11 %, p95 6 %.
    // The tail here is the p95, 150 schedules beyond it.
    outcome.metric("op_tail_us", quantile(&sorted, 0.95) as f64 / 1e3, "us");
    outcome.detail.push(format!(
        "  corpus of {corpus_len} schedules (8 txns x 4 steps, 8 entities); audits of the {}- and {}-step histories SGT and MV-SGT commit out of {audit_txns} fed transactions; {} passes of {} + 2 calls, single-threaded",
        sgt.len(),
        mv_sgt.len(),
        passes.len(),
        corpus_len
    ));
    outcome.detail.push(format!(
        "  a pass at its fastest {:.4} s, as run {:.4} s (median); taxonomy_sched_s {:>10.1} 1/s   audit_steps_s {:>12.1} 1/s",
        pass_s,
        median(
            &passes
                .iter()
                .map(|row| row.iter().sum::<u64>() as f64 / 1e9)
                .collect::<Vec<_>>()
        ),
        corpus_len as f64 / (calls.iter().sum::<u64>() as f64 / 1e9),
        (sgt.len() + mv_sgt.len()) as f64 / (audit_cost.iter().sum::<u64>() as f64 / 1e9)
    ));
    outcome
        .detail
        .push(format!("  first-chunk census: {seen:?}"));
    outcome
}

/// The cost of each operation of a repeated pass: the fastest of its
/// executions, ns.  The passes run the same calls on the same inputs in
/// the same order, so what differs between two executions of a call is what
/// the host did meanwhile, and that only ever adds time.
pub fn fastest(passes: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| passes.iter().map(|row| row[i]).min().unwrap_or(0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_call_costs_what_its_fastest_execution_took() {
        // Three passes over three calls; the host sat on the second pass
        // and on one call of the third.
        let passes = vec![
            vec![400, 7_000, 130],
            vec![900, 9_500, 410],
            vec![390, 7_100, 900],
        ];
        assert_eq!(fastest(&passes), vec![390, 7_000, 130]);
        assert_eq!(fastest(&passes[..1]), passes[0]);
        assert!(fastest(&[]).is_empty());
    }

    #[test]
    fn neighbouring_seeds_share_no_corpus_schedule() {
        let corpus = |seed| random_interleavings(&corpus_config(seed), 50);
        let (a, b) = (corpus(1), corpus(2));
        assert_eq!(corpus(1), a, "same seed, same corpus");
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
