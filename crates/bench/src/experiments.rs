//! Experiment drivers: the row-computing functions behind the table
//! binaries (`figure1`, `theorem_tables`, `scheduler_comparison`).
//!
//! Keeping them in the library makes each experiment unit-testable and lets
//! the Criterion benches reuse the same code paths, so the numbers in
//! `EXPERIMENTS.md` and the benchmark results come from one implementation.

use mvcc_classify::taxonomy::{classify, Census};
use mvcc_classify::{is_csr, is_mvcsr, is_mvsr, is_vsr};
use mvcc_core::examples::{figure1, Figure1Region};
use mvcc_core::Schedule;
use mvcc_engine::{run_closed_loop, CertifierKind, LoadOptions};
use mvcc_graph::poly_acyclic::is_acyclic_polygraph;
use mvcc_graph::Polygraph;
use mvcc_reductions::ols::is_ols;
use mvcc_reductions::{theorem4_schedules, theorem5_schedule};
use mvcc_scheduler::{
    run_abort, run_prefix, MvSgtScheduler, MvtoScheduler, Scheduler, SerialScheduler, SgtScheduler,
    TimestampScheduler, TwoPhaseLockingScheduler,
};
use mvcc_workload::{random_interleaving, random_transaction_system, LoadProfile, WorkloadConfig};
use std::time::Instant;

/// One row of the Figure 1 example table (experiment E1).
#[derive(Debug, Clone)]
pub struct Figure1Row {
    /// Example number (1..=6).
    pub number: usize,
    /// The schedule in linear notation.
    pub schedule: String,
    /// Classification flags `[serial, csr, vsr, mvcsr, mvsr, dmvsr]`.
    pub flags: [bool; 6],
    /// The region computed by the classifiers.
    pub computed_region: Figure1Region,
    /// The region the paper claims.
    pub claimed_region: Figure1Region,
}

impl Figure1Row {
    /// `true` when the classifiers agree with the paper's placement.
    pub fn matches(&self) -> bool {
        self.computed_region == self.claimed_region
    }
}

/// Classifies the six example schedules of Figure 1 (experiment E1).
pub fn figure1_rows() -> Vec<Figure1Row> {
    figure1()
        .into_iter()
        .map(|ex| {
            let c = classify(&ex.schedule);
            Figure1Row {
                number: ex.number,
                schedule: ex.schedule.to_string(),
                flags: [c.serial, c.csr, c.vsr, c.mvcsr, c.mvsr, c.dmvsr],
                computed_region: c.region(),
                claimed_region: ex.region,
            }
        })
        .collect()
}

/// The census of all interleavings of a fixed small transaction system
/// (the "topography" of Figure 1 over an exhaustive population).
pub fn figure1_census() -> (usize, Census) {
    let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)")
        // lint: allow(unwrap) — bench harness: setup failure is fatal to the run
        .expect("census system parses")
        .tx_system();
    let all = Schedule::all_interleavings(&sys);
    let census = Census::build(all.iter());
    (all.len(), census)
}

/// One row of the scheduler-comparison table (experiment E9).
#[derive(Debug, Clone)]
pub struct SchedulerRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Whether it is a multiversion scheduler.
    pub multiversion: bool,
    /// Fraction of input steps accepted in prefix-recognition mode,
    /// averaged over the repetitions.
    pub mean_prefix_ratio: f64,
    /// Fraction of runs in which the entire interleaving was accepted.
    pub full_acceptance_rate: f64,
    /// Fraction of transactions committed in abort-and-continue mode.
    pub mean_commit_ratio: f64,
}

fn scheduler_zoo(sys: &mvcc_core::TransactionSystem) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SerialScheduler::new(sys)),
        Box::new(TwoPhaseLockingScheduler::new(sys)),
        Box::new(TimestampScheduler::new()),
        Box::new(SgtScheduler::new()),
        Box::new(MvtoScheduler::new()),
        Box::new(MvSgtScheduler::new()),
    ]
}

/// Runs the scheduler zoo over `repetitions` random interleavings of the
/// workload and aggregates acceptance statistics (experiment E9).
pub fn scheduler_comparison(config: &WorkloadConfig, repetitions: usize) -> Vec<SchedulerRow> {
    let names: Vec<(&'static str, bool)> = {
        let sys = random_transaction_system(config);
        scheduler_zoo(&sys)
            .iter()
            .map(|s| (s.name(), s.is_multiversion()))
            .collect()
    };
    let mut prefix_sum = vec![0.0f64; names.len()];
    let mut full_sum = vec![0.0f64; names.len()];
    let mut commit_sum = vec![0.0f64; names.len()];

    for rep in 0..repetitions {
        let cfg = config.with_seed(config.seed.wrapping_add(rep as u64 * 7919));
        let sys = random_transaction_system(&cfg);
        let schedule = random_interleaving(&sys, cfg.seed ^ 0x51ab);
        for (idx, mut sched) in scheduler_zoo(&sys).into_iter().enumerate() {
            let prefix = run_prefix(sched.as_mut(), &schedule);
            prefix_sum[idx] += prefix.acceptance_ratio();
            full_sum[idx] += if prefix.accepted_all { 1.0 } else { 0.0 };
            let abort = run_abort(sched.as_mut(), &schedule);
            commit_sum[idx] += abort.commit_ratio();
        }
    }

    let n = repetitions.max(1) as f64;
    names
        .into_iter()
        .enumerate()
        .map(|(idx, (scheduler, multiversion))| SchedulerRow {
            scheduler,
            multiversion,
            mean_prefix_ratio: prefix_sum[idx] / n,
            full_acceptance_rate: full_sum[idx] / n,
            mean_commit_ratio: commit_sum[idx] / n,
        })
        .collect()
}

/// One row of the classifier-scaling table (experiment E10).
#[derive(Debug, Clone)]
pub struct ClassifierRow {
    /// Workload label.
    pub label: String,
    /// Number of steps in the schedule.
    pub steps: usize,
    /// Microseconds for the CSR test.
    pub csr_us: f64,
    /// Microseconds for the MVCSR test.
    pub mvcsr_us: f64,
    /// Microseconds for the VSR test (`None` when skipped as too large).
    pub vsr_us: Option<f64>,
    /// Microseconds for the MVSR test (`None` when skipped as too large).
    pub mvsr_us: Option<f64>,
}

/// Measures the polynomial classifiers on every configuration and the
/// NP-complete ones only while the transaction count stays tractable
/// (experiment E10: the complexity separation the paper asserts).
pub fn classifier_scaling(configs: &[WorkloadConfig], np_limit_txns: usize) -> Vec<ClassifierRow> {
    configs
        .iter()
        .map(|cfg| {
            let sys = random_transaction_system(cfg);
            let s = random_interleaving(&sys, cfg.seed ^ 0xc1a5);
            let time_us = |f: &dyn Fn() -> bool| {
                let start = Instant::now();
                let _ = f();
                start.elapsed().as_secs_f64() * 1e6
            };
            let csr_us = time_us(&|| is_csr(&s));
            let mvcsr_us = time_us(&|| is_mvcsr(&s));
            let (vsr_us, mvsr_us) = if cfg.transactions <= np_limit_txns {
                (
                    Some(time_us(&|| is_vsr(&s))),
                    Some(time_us(&|| is_mvsr(&s))),
                )
            } else {
                (None, None)
            };
            ClassifierRow {
                label: cfg.label(),
                steps: s.len(),
                csr_us,
                mvcsr_us,
                vsr_us,
                mvsr_us,
            }
        })
        .collect()
}

/// One row of the Theorem 4 table (experiment E5).
#[derive(Debug, Clone)]
pub struct Theorem4Row {
    /// Polygraph shape `nodes/arcs/choices`.
    pub polygraph: String,
    /// Steps in each constructed schedule.
    pub schedule_steps: usize,
    /// Whether the polygraph is acyclic.
    pub acyclic: bool,
    /// Whether the constructed pair is OLS.
    pub ols: bool,
    /// Milliseconds spent in the exact OLS check.
    pub ols_ms: f64,
}

impl Theorem4Row {
    /// The reduction is correct when the two verdicts coincide.
    pub fn consistent(&self) -> bool {
        self.acyclic == self.ols
    }
}

/// Runs the Theorem 4 pipeline over the given polygraphs (experiment E5).
pub fn theorem4_table(polygraphs: &[Polygraph]) -> Vec<Theorem4Row> {
    polygraphs
        .iter()
        .map(|p| {
            let inst = theorem4_schedules(p);
            let acyclic = is_acyclic_polygraph(p);
            let start = Instant::now();
            let ols = is_ols(&[inst.s1.clone(), inst.s2.clone()]);
            let ols_ms = start.elapsed().as_secs_f64() * 1e3;
            Theorem4Row {
                polygraph: format!(
                    "{}n/{}a/{}c",
                    p.node_count(),
                    p.arc_count(),
                    p.choice_count()
                ),
                schedule_steps: inst.s1.len(),
                acyclic,
                ols,
                ols_ms,
            }
        })
        .collect()
}

/// One row of the Theorem 5 table (experiment E7).
#[derive(Debug, Clone)]
pub struct Theorem5Row {
    /// Polygraph shape.
    pub polygraph: String,
    /// Steps in the constructed schedule.
    pub schedule_steps: usize,
    /// Whether the polygraph is acyclic.
    pub acyclic: bool,
    /// Whether the constructed schedule is MVSR (⇔ accepted by every
    /// maximal multiversion scheduler, by Corollary 1).
    pub mvsr: bool,
}

impl Theorem5Row {
    /// The reduction is correct when the two verdicts coincide.
    pub fn consistent(&self) -> bool {
        self.acyclic == self.mvsr
    }
}

/// Runs the Theorem 5 pipeline over the given polygraphs (experiment E7).
pub fn theorem5_table(polygraphs: &[Polygraph]) -> Vec<Theorem5Row> {
    polygraphs
        .iter()
        .map(|p| {
            let s = theorem5_schedule(p);
            Theorem5Row {
                polygraph: format!(
                    "{}n/{}a/{}c",
                    p.node_count(),
                    p.arc_count(),
                    p.choice_count()
                ),
                schedule_steps: s.len(),
                acyclic: is_acyclic_polygraph(p),
                mvsr: is_mvsr(&s),
            }
        })
        .collect()
}

/// The standard small polygraph corpus used by the tables: a mix of acyclic
/// and cyclic instances that the exact checkers can handle.
pub fn polygraph_corpus() -> Vec<Polygraph> {
    use mvcc_graph::NodeId;
    let mut corpus = Vec::new();
    // Single-choice acyclic.
    let mut p = Polygraph::with_nodes(3);
    p.add_choice(NodeId(0), NodeId(1), NodeId(2));
    corpus.push(p);
    // Two chained choices.
    let mut p = Polygraph::with_nodes(6);
    p.add_choice(NodeId(0), NodeId(1), NodeId(2));
    p.add_choice(NodeId(3), NodeId(4), NodeId(5));
    p.add_arc(NodeId(2), NodeId(3));
    corpus.push(p);
    // Handcrafted cyclic polygraph (every selection closes a cycle).
    let mut p = Polygraph::with_nodes(6);
    p.add_choice(NodeId(0), NodeId(1), NodeId(2));
    p.add_choice(NodeId(3), NodeId(4), NodeId(5));
    p.add_arc(NodeId(1), NodeId(0));
    p.add_arc(NodeId(4), NodeId(3));
    p.add_arc(NodeId(2), NodeId(4));
    p.add_arc(NodeId(5), NodeId(1));
    corpus.push(p);
    // Random instances from the workload generator.
    for seed in 0..3 {
        corpus.push(mvcc_workload::random_polygraph(5, 0.25, 2, seed));
    }
    corpus
}

/// One row of the engine load table (experiment E12): one certifier under
/// one load profile.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Certifier configuration.
    pub certifier: CertifierKind,
    /// The profile that drove the run.
    pub profile: LoadProfile,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Fraction of finished transactions that aborted.
    pub abort_ratio: f64,
    /// Interpolated p99 commit latency in µs (0.0 when nothing committed).
    pub p99_latency_us: f64,
    /// `true` if the committed history was validated to lie in the
    /// certifier's class by the offline classifiers (`None` when the check
    /// was skipped because recording was off).
    pub history_in_class: Option<bool>,
}

/// Drives the whole certifier zoo through the closed-loop engine harness
/// under `profile`, one fresh engine per certifier (experiment E12:
/// throughput and abort-rate scaling vs. threads × θ × certifier).
///
/// `validate_histories` additionally records each run's admission history
/// and checks its committed projection with the offline classifiers; keep
/// the profile's `ops` small when enabling it for the MVTO row, whose
/// class check (MVSR) is the NP-complete one.
pub fn engine_load_table(profile: &LoadProfile, validate_histories: bool) -> Vec<EngineRow> {
    CertifierKind::all()
        .into_iter()
        .map(|kind| {
            let report = run_closed_loop(
                kind,
                profile,
                LoadOptions {
                    record_history: validate_histories,
                    ..LoadOptions::default()
                },
            );
            EngineRow {
                certifier: kind,
                profile: *profile,
                throughput_tps: report.throughput_tps(),
                committed: report.metrics.committed,
                aborted: report.metrics.aborted,
                abort_ratio: report.abort_ratio(),
                p99_latency_us: report.metrics.latency_us(0.99).unwrap_or(0.0),
                history_in_class: validate_histories.then(|| report.history_in_class()),
            }
        })
        .collect()
}

/// One row of the durability-scaling table (experiment E14): one
/// certifier under one [`mvcc_engine::DurabilityMode`].
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Certifier configuration.
    pub certifier: CertifierKind,
    /// The durability mode of the run.
    pub mode: mvcc_engine::DurabilityMode,
    /// Committed-transaction throughput.
    pub throughput_tps: f64,
    /// Transactions committed.
    pub committed: u64,
    /// WAL flushes (one per group-commit batch; 0 with durability off).
    pub wal_flushes: u64,
    /// Flushes that ended in an fsync.
    pub wal_fsyncs: u64,
    /// Total bytes logged.
    pub wal_bytes: u64,
    /// Mean transactions made durable per flush (the group-commit
    /// amortization; `None` with durability off).
    pub mean_commits_per_flush: Option<f64>,
}

/// Runs the durability on/off comparison (experiment E14): for each
/// certifier, one closed loop per [`mvcc_engine::DurabilityMode`] — Off
/// (the E12 engine), Buffered (group-append + flush-to-OS per commit
/// batch) and Fsync (one fsync per commit batch) — histories off, a
/// fresh write-ahead log directory per durable cell (created under the
/// system temp dir and removed afterwards).
///
/// `trials` runs each cell that many times and reports the
/// median-throughput run: single runs on a timeshared single-CPU host
/// are noisy enough (±30% observed) to swamp the durability signal.
pub fn durability_scaling_table(
    base: &LoadProfile,
    kinds: &[CertifierKind],
    trials: usize,
) -> Vec<DurabilityRow> {
    use mvcc_engine::{DurabilityConfig, DurabilityMode};
    use std::sync::atomic::{AtomicU64, Ordering};
    static CELL: AtomicU64 = AtomicU64::new(0);
    let trials = trials.max(1);
    let mut rows = Vec::with_capacity(kinds.len() * 3);
    for &kind in kinds {
        for mode in [
            DurabilityMode::Off,
            DurabilityMode::Buffered,
            DurabilityMode::Fsync,
        ] {
            let mut runs = Vec::with_capacity(trials);
            for _ in 0..trials {
                let durability = if mode == DurabilityMode::Off {
                    DurabilityConfig::off()
                } else {
                    let dir = std::env::temp_dir().join(format!(
                        "mvcc-e14-{}-{}-{}",
                        std::process::id(),
                        kind.name(),
                        CELL.fetch_add(1, Ordering::Relaxed)
                    ));
                    DurabilityConfig {
                        mode,
                        dir,
                        segment_bytes: 8 << 20,
                    }
                };
                let dir = durability.is_on().then(|| durability.dir.clone());
                let report = run_closed_loop(
                    kind,
                    base,
                    LoadOptions {
                        record_history: false,
                        durability,
                        ..LoadOptions::default()
                    },
                );
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let m = report.metrics.clone();
                runs.push(DurabilityRow {
                    certifier: kind,
                    mode,
                    throughput_tps: report.throughput_tps(),
                    committed: m.committed,
                    wal_flushes: m.wal_flushes,
                    wal_fsyncs: m.wal_fsyncs,
                    wal_bytes: m.wal_bytes,
                    mean_commits_per_flush: m.mean_commits_per_flush(),
                });
            }
            runs.sort_by(|a, b| a.throughput_tps.total_cmp(&b.throughput_tps));
            rows.push(runs.swap_remove(runs.len() / 2));
        }
    }
    rows
}

/// One row of the read-scaling table (experiment E15): one primary plus
/// `replicas` log-shipping read replicas under concurrent write load and
/// follower-read traffic.
#[derive(Debug, Clone)]
pub struct ReplicaRow {
    /// Number of read replicas attached (0 = reads served by the primary,
    /// the baseline).
    pub replicas: usize,
    /// Committed write-transaction throughput on the primary.
    pub primary_tps: f64,
    /// Served read-only transactions per second across all readers.
    pub read_tps: f64,
    /// Read-only transactions served.
    pub reads_served: u64,
    /// Read requests refused (staleness bound unmet within the wait
    /// budget, or aborted by the primary in baseline mode).
    pub reads_refused: u64,
    /// WAL records shipped to replicas.
    pub shipped_records: u64,
    /// Largest apply lag (LSNs) observed at read-pin time.
    pub max_lag_lsn: u64,
}

/// Runs the read-scaling comparison (experiment E15): a durable primary
/// drives `base` as a write workload while `readers` threads issue
/// read-only transactions (each touching `reads_per_txn` entities)
/// through a [`mvcc_replica::ReadRouter`] under
/// [`mvcc_replica::ReadPolicy::BoundedLag`] — routed to
/// {0, 1, 2, …} replicas per cell.  With 0 replicas the router serves
/// reads from the primary itself: that cell is the contention baseline
/// the replicas are meant to relieve.
///
/// `trials` runs each cell that many times and reports the median run by
/// read throughput (same noise rationale as E14).
pub fn replica_scaling_table(
    base: &LoadProfile,
    replica_counts: &[usize],
    readers: usize,
    reads_per_txn: usize,
    trials: usize,
) -> Vec<ReplicaRow> {
    use mvcc_engine::load::drive_closed_loop;
    use mvcc_engine::{DurabilityConfig, Engine, EngineConfig};
    use mvcc_replica::{
        LogShipper, ReadPolicy, ReadRouter, Replica, ReplicaConfig, RouterConfig, ShipperConfig,
    };
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    static CELL: AtomicU64 = AtomicU64::new(0);
    let trials = trials.max(1);
    let mut rows = Vec::with_capacity(replica_counts.len());
    for &count in replica_counts {
        let mut runs: Vec<ReplicaRow> = Vec::with_capacity(trials);
        for _ in 0..trials {
            let dir = std::env::temp_dir().join(format!(
                "mvcc-e15-{}-{}",
                std::process::id(),
                CELL.fetch_add(1, Ordering::Relaxed)
            ));
            let engine = Arc::new(Engine::new(
                CertifierKind::SnapshotIsolation,
                EngineConfig {
                    shards: base.shards,
                    entities: base.entities,
                    record_history: false,
                    durability: DurabilityConfig::buffered(&dir),
                    ..EngineConfig::default()
                },
            ));
            let mut replicas = Vec::with_capacity(count);
            let mut shippers = Vec::with_capacity(count);
            for _ in 0..count {
                let mut config = ReplicaConfig::new(
                    base.shards,
                    base.entities,
                    mvcc_replica::Bytes::from_static(b"0"),
                );
                config.record_history = false;
                config.metrics = Some(engine.metrics_handle());
                // lint: allow(unwrap) — bench harness: setup failure is fatal to the run
                let replica = Arc::new(Replica::open(config, &dir).expect("open replica"));
                shippers.push(LogShipper::start(
                    Arc::clone(&replica),
                    ShipperConfig::default(),
                ));
                replicas.push(replica);
            }
            let router = Arc::new(ReadRouter::new(
                Arc::clone(&engine),
                replicas.clone(),
                RouterConfig::default(),
            ));
            let done = Arc::new(AtomicBool::new(false));
            let served = Arc::new(AtomicU64::new(0));
            let refused = Arc::new(AtomicU64::new(0));
            let mut reader_threads = Vec::with_capacity(readers);
            for _ in 0..readers {
                let router = Arc::clone(&router);
                let done = Arc::clone(&done);
                let served = Arc::clone(&served);
                let refused = Arc::clone(&refused);
                let entities = base.entities as u32;
                let span = reads_per_txn as u32;
                reader_threads.push(std::thread::spawn(move || {
                    let mut at = 0u32;
                    while !done.load(Ordering::Acquire) {
                        match router.begin_read(ReadPolicy::BoundedLag(4096)) {
                            Ok(mut read) => {
                                let mut ok = true;
                                for i in 0..span {
                                    if read.read(mvcc_core::EntityId((at + i) % entities)).is_err()
                                    {
                                        ok = false;
                                        break;
                                    }
                                }
                                at = at.wrapping_add(span);
                                if ok {
                                    read.finish();
                                    served.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    refused.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }));
            }
            let started = std::time::Instant::now();
            drive_closed_loop(&engine, base);
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            done.store(true, Ordering::Release);
            for t in reader_threads {
                // lint: allow(unwrap) — bench harness: a panicked worker must fail the run
                t.join().expect("reader panicked");
            }
            // Drain each replica to the durable horizon before stopping
            // its shipper: a very short run can finish inside the
            // shipper's first poll interval, and the telemetry row
            // should reflect the whole log either way.
            for replica in &replicas {
                // lint: allow(unwrap) — bench harness: setup failure is fatal to the run
                replica.catch_up().expect("final drain");
            }
            for shipper in shippers {
                shipper.stop();
            }
            let m = engine.metrics().snapshot();
            let reads_served = served.load(Ordering::Relaxed);
            // In the 0-replica baseline the router's read-only sessions
            // commit on the primary and land in the same `committed`
            // counter as the write load; subtract them so the primary
            // column compares write throughput across cells.
            let write_commits = if count == 0 {
                m.committed.saturating_sub(reads_served)
            } else {
                m.committed
            };
            runs.push(ReplicaRow {
                replicas: count,
                primary_tps: write_commits as f64 / elapsed,
                read_tps: reads_served as f64 / elapsed,
                reads_served,
                reads_refused: refused.load(Ordering::Relaxed),
                shipped_records: m.repl_shipped_records,
                max_lag_lsn: m.repl_max_lag_lsn,
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
        runs.sort_by(|a, b| a.read_tps.total_cmp(&b.read_tps));
        rows.push(runs.swap_remove(runs.len() / 2));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_rows_all_match_the_paper() {
        let rows = figure1_rows();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.matches()), "{rows:?}");
    }

    #[test]
    fn census_covers_every_region_population() {
        let (total, census) = figure1_census();
        assert_eq!(total, census.total());
        assert_eq!(census.containment_violations, 0);
        assert!(census.count(Figure1Region::Serial) > 0);
    }

    #[test]
    fn scheduler_comparison_shows_the_multiversion_advantage() {
        let cfg = WorkloadConfig {
            transactions: 4,
            steps_per_transaction: 3,
            entities: 4,
            read_ratio: 0.7,
            zipf_theta: 0.5,
            seed: 11,
        };
        let rows = scheduler_comparison(&cfg, 12);
        assert_eq!(rows.len(), 6);
        let get = |name: &str| rows.iter().find(|r| r.scheduler == name).unwrap().clone();
        let serial = get("serial");
        let sgt = get("sgt");
        let mv_sgt = get("mv-sgt");
        // The ordering the paper's story requires: serial <= SGT <= MV-SGT.
        assert!(serial.mean_prefix_ratio <= sgt.mean_prefix_ratio + 1e-9);
        assert!(sgt.mean_prefix_ratio <= mv_sgt.mean_prefix_ratio + 1e-9);
        assert!(serial.mean_commit_ratio <= mv_sgt.mean_commit_ratio + 1e-9);
        // Every ratio is a valid probability.
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.mean_prefix_ratio));
            assert!((0.0..=1.0).contains(&r.full_acceptance_rate));
            assert!((0.0..=1.0).contains(&r.mean_commit_ratio));
        }
    }

    #[test]
    fn classifier_scaling_runs_polynomial_tests_everywhere() {
        let configs = vec![
            WorkloadConfig {
                transactions: 3,
                steps_per_transaction: 3,
                entities: 4,
                ..WorkloadConfig::default()
            },
            WorkloadConfig {
                transactions: 12,
                steps_per_transaction: 4,
                entities: 8,
                ..WorkloadConfig::default()
            },
        ];
        let rows = classifier_scaling(&configs, 6);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].vsr_us.is_some() && rows[0].mvsr_us.is_some());
        assert!(rows[1].vsr_us.is_none() && rows[1].mvsr_us.is_none());
        assert!(rows.iter().all(|r| r.csr_us >= 0.0 && r.mvcsr_us >= 0.0));
    }

    #[test]
    fn engine_load_table_covers_the_zoo_and_validates_histories() {
        let profile = LoadProfile {
            threads: 2,
            shards: 2,
            ops: 60,
            entities: 8,
            steps_per_transaction: 3,
            read_ratio: 0.8,
            zipf_theta: 0.5,
            seed: 3,
        };
        let rows = engine_load_table(&profile, true);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(
                row.history_in_class,
                Some(true),
                "{} history out of class",
                row.certifier
            );
            assert!(row.committed > 0, "{} never committed", row.certifier);
            assert!(row.throughput_tps > 0.0);
            assert!((0.0..=1.0).contains(&row.abort_ratio));
        }
    }

    #[test]
    fn durability_rows_cover_the_modes_and_log_only_when_on() {
        let base = LoadProfile {
            threads: 2,
            shards: 2,
            ops: 240,
            entities: 8,
            steps_per_transaction: 3,
            read_ratio: 0.7,
            zipf_theta: 0.0,
            seed: 0xe14,
        };
        let rows = durability_scaling_table(&base, &[CertifierKind::Sgt], 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.committed > 0, "{}/{} starved", row.certifier, row.mode);
            assert!(row.throughput_tps > 0.0);
            match row.mode {
                mvcc_engine::DurabilityMode::Off => {
                    assert_eq!(row.wal_flushes, 0);
                    assert_eq!(row.wal_bytes, 0);
                    assert_eq!(row.mean_commits_per_flush, None);
                }
                mvcc_engine::DurabilityMode::Buffered => {
                    assert!(row.wal_flushes > 0);
                    assert_eq!(row.wal_fsyncs, 0, "buffered mode never fsyncs");
                    assert!(row.wal_bytes > 0);
                    assert!(row.mean_commits_per_flush.unwrap() >= 1.0);
                }
                mvcc_engine::DurabilityMode::Fsync => {
                    assert!(row.wal_fsyncs > 0);
                    assert_eq!(row.wal_fsyncs, row.wal_flushes);
                }
            }
        }
    }

    #[test]
    fn replica_rows_serve_reads_at_every_replica_count() {
        let base = LoadProfile {
            threads: 2,
            shards: 2,
            ops: 300,
            entities: 8,
            steps_per_transaction: 3,
            read_ratio: 0.2, // write-heavy primary: the readers do the reading
            zipf_theta: 0.0,
            seed: 0xe15,
        };
        let rows = replica_scaling_table(&base, &[0, 1], 2, 3, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].replicas, 0);
        assert_eq!(rows[1].replicas, 1);
        for row in &rows {
            assert!(row.primary_tps > 0.0, "{}: primary starved", row.replicas);
            assert!(row.reads_served > 0, "{}: no reads served", row.replicas);
        }
        // Replica cells actually shipped the log; the baseline has none.
        assert_eq!(rows[0].shipped_records, 0);
        assert!(rows[1].shipped_records > 0);
    }

    #[test]
    fn theorem_tables_are_consistent_on_the_corpus() {
        let corpus = polygraph_corpus();
        assert!(corpus.len() >= 5);
        let t4 = theorem4_table(&corpus);
        assert!(t4.iter().all(|r| r.consistent()), "{t4:?}");
        assert!(t4.iter().any(|r| r.acyclic) && t4.iter().any(|r| !r.acyclic));
        let t5 = theorem5_table(&corpus);
        assert!(t5.iter().all(|r| r.consistent()), "{t5:?}");
    }
}
