//! The closed-loop load harness (experiments E12–E16), one entry point:
//! [`run_closed_loop`]`(kind, &profile, `[`LoadOptions`]`)`.
//!
//! `threads` workers each run a closed loop: generate a transaction with
//! the `mvcc-workload` primitives (Zipfian entity selection with skew θ,
//! read/write mix), drive it through an engine session, and immediately
//! start the next one — until the profile's total operation budget is
//! exhausted.  The run produces a [`LoadReport`]: throughput, commit/abort
//! counts with reasons, latency percentiles, per-shard contention, and the
//! admission [`History`] whose committed projection the offline
//! `mvcc-classify` checkers can validate — the end-to-end "theory checks
//! the engine" loop.

use crate::certifier::{CertifierKind, HistoryClass};
use crate::gc::GcDriver;
use crate::health::{Alarm, EngineSampler, HealthMonitor};
use crate::metrics::MetricsSnapshot;
use crate::session::{Engine, EngineConfig, History};
use crate::watchdog::{ClassificationWatchdog, WatchdogConfig, WatchdogStats};
use bytes::Bytes;
use mvcc_core::Action;
use mvcc_durability::DurabilityConfig;
use mvcc_telemetry::{TelemetryMode, TimelineFrame, TraceTree};
use mvcc_workload::{random_accesses, LoadProfile, Zipfian};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one closed-loop run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The certifier that ran.
    pub kind: CertifierKind,
    /// The class its committed history is guaranteed to be in.
    pub class: HistoryClass,
    /// The profile that drove the run.
    pub profile: LoadProfile,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Final engine metrics.
    pub metrics: MetricsSnapshot,
    /// The admission history (empty if recording was off).
    pub history: History,
    /// Tail-latency exemplars the reservoir retained, slowest first
    /// (empty with telemetry off — no transaction is ever traced then).
    pub exemplars: Vec<TraceTree>,
    /// Final counters of the online classification watchdog, when one ran
    /// alongside the load ([`LoadOptions::watchdog`]).
    pub watchdog: Option<WatchdogStats>,
    /// The timeline frames a health monitor recorded, when one ran
    /// alongside the load ([`LoadOptions::monitor`]); empty otherwise.
    pub timeline: Vec<TimelineFrame>,
    /// The anomaly alarms that monitor raised (a steady-state run must
    /// leave this empty — the release soak asserts it).
    pub alarms: Vec<Alarm>,
}

impl LoadReport {
    /// Committed transactions per wall-clock second.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.metrics.committed as f64 / secs
        }
    }

    /// Fraction of finished transactions that aborted.
    pub fn abort_ratio(&self) -> f64 {
        1.0 - self.metrics.commit_ratio()
    }

    /// Checks the committed projection of the history against the
    /// certifier's class with the offline classifiers.  `true` when
    /// recording was off (nothing to refute) or the class claims nothing
    /// (snapshot isolation).
    pub fn history_in_class(&self) -> bool {
        if self.history.admitted.is_empty() {
            return true;
        }
        self.class.check(&self.history.committed_schedule())
    }

    /// Fraction of retained exemplars whose span tree names a dominant
    /// stage (1.0 when no exemplars were captured) — the attribution
    /// coverage the tracing acceptance gate asserts ≥ 0.95 on.
    pub fn exemplar_attribution(&self) -> f64 {
        if self.exemplars.is_empty() {
            return 1.0;
        }
        let named = self
            .exemplars
            .iter()
            .filter(|t| t.dominant_stage().is_some())
            .count();
        named as f64 / self.exemplars.len() as f64
    }
}

/// What [`run_closed_loop`] switches on beside the load itself.  Used with
/// struct-update syntax, as [`EngineConfig`] is:
/// `LoadOptions { record_history: false, ..LoadOptions::default() }`.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Record the admission history for offline validation (turn it off
    /// for long throughput runs, where the log itself would distort the
    /// measurement).
    pub record_history: bool,
    /// Ring bound on the recorded history ([`EngineConfig::history_capacity`]):
    /// long soaks keep memory O(1) while the online watchdog still sees
    /// classifiable windows.
    pub history_capacity: Option<usize>,
    /// The Off/Buffered/Fsync comparison knob of experiment E14.  With
    /// durability on, a fresh write-ahead log is started in
    /// `durability.dir`.
    pub durability: DurabilityConfig,
    /// Per-stage telemetry: with [`TelemetryMode::On`] the report's
    /// [`MetricsSnapshot::stages`] carries interpolated per-stage
    /// quantiles and `exemplars` the tail-latency span trees the
    /// reservoir retained.
    pub telemetry: TelemetryMode,
    /// Run the [`ClassificationWatchdog`] alongside the load and report
    /// its final counters.
    pub watchdog: bool,
    /// Run a [`HealthMonitor`] sampling the engine at this interval; the
    /// report then carries the recorded timeline frames and any anomaly
    /// alarms.
    pub monitor: Option<Duration>,
}

impl Default for LoadOptions {
    /// History on, everything else off.
    fn default() -> Self {
        LoadOptions {
            record_history: true,
            history_capacity: None,
            durability: DurabilityConfig::off(),
            telemetry: TelemetryMode::default(),
            watchdog: false,
            monitor: None,
        }
    }
}

/// Runs one closed-loop load against a fresh engine of `kind`.  Workers
/// join before the metrics snapshot is taken, so every thread-local
/// telemetry buffer has been flushed into it.
pub fn run_closed_loop(
    kind: CertifierKind,
    profile: &LoadProfile,
    options: LoadOptions,
) -> LoadReport {
    // lint: allow(unwrap) — load harness: an invalid profile is a caller bug, fail fast
    profile.validate().expect("invalid load profile");
    let engine = Arc::new(Engine::new(
        kind,
        EngineConfig {
            shards: profile.shards,
            entities: profile.entities,
            initial: Bytes::from_static(b"0"),
            record_history: options.record_history,
            history_capacity: options.history_capacity,
            durability: options.durability,
            telemetry: options.telemetry,
            ..EngineConfig::default()
        },
    ));
    // The loop samples at a coarser cadence than the chaos-soak default:
    // each window check is a full graph classification whose CPU time is
    // stolen from the workers on small runners.  The final deterministic
    // pass below still guarantees at least one checked window.
    let dog = options.watchdog.then(|| {
        ClassificationWatchdog::start(
            Arc::clone(&engine),
            WatchdogConfig {
                interval: Duration::from_millis(100),
                ..WatchdogConfig::default()
            },
        )
    });
    let health = options.monitor.map(|interval| {
        let mut sampler = EngineSampler::for_engine(&engine, Vec::new());
        if let Some(d) = &dog {
            sampler = sampler.with_watchdog(d.stats_probe());
        }
        HealthMonitor::start_with(sampler, interval)
    });
    let gc = GcDriver::start(Arc::clone(&engine), Duration::from_millis(1));
    let elapsed = drive_closed_loop(&engine, profile);
    gc.stop();
    let watchdog = dog.map(|d| {
        // One final deterministic pass over the settled history, so even
        // a very short run reports at least one checked window.
        let _ = d.check_once();
        d.stop()
    });
    // Stop order matters: the watchdog is consumed above, then the
    // monitor takes its closing frame — the detached stats probe keeps
    // reading the final counters through the shared inner state.
    let (timeline, alarms) = health.map_or_else(|| (Vec::new(), Vec::new()), |h| h.stop());
    let exemplars = engine
        .metrics()
        .exemplars()
        .map(|r| r.snapshot())
        .unwrap_or_default();
    LoadReport {
        kind,
        class: kind.class(),
        profile: *profile,
        elapsed,
        metrics: engine.metrics().snapshot(),
        history: engine.history(),
        exemplars,
        watchdog,
        timeline,
        alarms,
    }
}

/// Drives the closed-loop worker threads against an *existing* engine
/// until the profile's op budget is spent, returning the wall-clock
/// elapsed time.  This is the piece the recovery tests reuse to resume
/// load on a crash-recovered engine (the engine's shard/entity topology
/// must match the profile's).
pub fn drive_closed_loop(engine: &Arc<Engine>, profile: &LoadProfile) -> Duration {
    // lint: allow(unwrap) — load harness: an invalid profile is a caller bug, fail fast
    profile.validate().expect("invalid load profile");
    // Each worker claims `steps_per_transaction` ops from the shared
    // budget per transaction; the run ends when the budget runs dry.
    let budget = Arc::new(AtomicI64::new(profile.ops as i64));
    // lint: allow(clock) — closed-loop harness measures wall-clock run duration
    let started = Instant::now();
    let mut workers = Vec::with_capacity(profile.threads);
    for worker_idx in 0..profile.threads {
        let engine = Arc::clone(engine);
        let budget = Arc::clone(&budget);
        let profile = *profile;
        workers.push(std::thread::spawn(move || {
            // Each worker derives an independent deterministic stream.
            let mut rng = SmallRng::seed_from_u64(
                profile
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker_idx as u64 + 1)),
            );
            let zipf = Zipfian::new(profile.entities, profile.zipf_theta);
            let claim = profile.steps_per_transaction as i64;
            while budget.fetch_sub(claim, Ordering::Relaxed) >= claim {
                // The same access-generation policy as the offline
                // workloads (single source in mvcc-workload).
                let accesses = random_accesses(
                    &mut rng,
                    &zipf,
                    profile.steps_per_transaction,
                    profile.read_ratio,
                );
                let mut session = engine.begin();
                let mut ok = true;
                for (action, entity) in accesses {
                    let outcome = match action {
                        Action::Read => session.read(entity).map(|_| ()),
                        Action::Write => {
                            session.write(entity, Bytes::from(format!("{}", session.id())))
                        }
                    };
                    if outcome.is_err() {
                        // The engine already aborted the session.
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
    for worker in workers {
        // lint: allow(unwrap) — load harness: a panicked worker must fail the run
        worker.join().expect("worker panicked");
    }
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile(theta: f64) -> LoadProfile {
        LoadProfile {
            threads: 4,
            shards: 2,
            ops: 240,
            entities: 8,
            steps_per_transaction: 3,
            read_ratio: 0.7,
            zipf_theta: theta,
            seed: 0x10ad,
        }
    }

    #[test]
    fn closed_loop_accounts_for_every_transaction() {
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &small_profile(0.0),
            LoadOptions::default(),
        );
        let m = &report.metrics;
        assert!(m.committed > 0, "no commits at all");
        assert_eq!(m.begun, m.committed + m.aborted, "unfinished sessions");
        // Every committed transaction admitted all of its steps.
        let committed_steps = report.history.committed_schedule().len();
        assert_eq!(
            committed_steps as u64,
            m.committed * 3,
            "committed projection size"
        );
        assert!(report.throughput_tps() > 0.0);
        assert!(report.history_in_class());
        // One ruling per step: every ruling is a batch of one, and rejected
        // steps are ruled too while executed ops count only admitted ones.
        // Every commit goes through the group-commit lane.
        assert_eq!(m.admission_batch_steps, m.admission_batches);
        assert!(m.admission_batches >= m.reads + m.writes);
        assert_eq!(m.commit_batch_txns, m.committed);
        // The default options: history recorded (above), everything else off.
        assert!(m.stages.is_empty() && !m.durability_on());
        assert!(report.watchdog.is_none());
        assert!(report.timeline.is_empty() && report.alarms.is_empty());
    }

    #[test]
    fn budget_bounds_the_run() {
        let profile = small_profile(0.9);
        let report = run_closed_loop(
            CertifierKind::SnapshotIsolation,
            &profile,
            LoadOptions::default(),
        );
        // Workers claim ops up front, so executed ops never exceed the
        // budget (aborted transactions may under-use their claim).
        let m = &report.metrics;
        assert!(m.reads + m.writes <= profile.ops as u64);
        assert!(
            m.begun * 3 >= profile.ops as u64 / 2,
            "budget under-claimed"
        );
    }

    #[test]
    fn history_recording_can_be_skipped() {
        let report = run_closed_loop(
            CertifierKind::Mvto,
            &small_profile(0.0),
            LoadOptions {
                record_history: false,
                ..LoadOptions::default()
            },
        );
        assert!(report.history.admitted.is_empty());
        assert!(report.history_in_class(), "vacuously true");
        assert!(report.metrics.committed > 0);
    }

    #[test]
    fn traced_run_collects_exemplars_and_watchdog_verdicts() {
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &small_profile(0.6),
            LoadOptions {
                history_capacity: Some(64),
                telemetry: TelemetryMode::On,
                watchdog: true,
                ..LoadOptions::default()
            },
        );
        assert!(report.metrics.committed > 0);
        // 1-in-32 per-thread sampling with the first transaction on every
        // fresh worker always sampled: 4 workers guarantee exemplars.
        assert!(!report.exemplars.is_empty(), "no exemplars retained");
        assert!(
            report.exemplar_attribution() >= 0.95,
            "attribution {}",
            report.exemplar_attribution()
        );
        // Slowest-first ordering.
        for pair in report.exemplars.windows(2) {
            assert!(pair[0].total_us >= pair[1].total_us);
        }
        let stats = report.watchdog.expect("watchdog ran");
        assert!(stats.windows >= 1, "watchdog never checked: {stats:?}");
        assert_eq!(stats.violations, 0, "false alarms: {stats:?}");
        // Untraced baseline keeps the old shape.
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &small_profile(0.0),
            LoadOptions::default(),
        );
        assert!(report.exemplars.is_empty());
        assert!(report.watchdog.is_none());
    }

    #[test]
    fn monitored_run_records_a_timeline_with_no_false_alarms() {
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &small_profile(0.6),
            LoadOptions {
                history_capacity: Some(64),
                telemetry: TelemetryMode::On,
                watchdog: true,
                monitor: Some(Duration::from_millis(5)),
                ..LoadOptions::default()
            },
        );
        assert!(report.metrics.committed > 0);
        // The closing sample guarantees at least one frame even if the
        // run finishes inside the first cadence tick.
        assert!(!report.timeline.is_empty(), "no frames recorded");
        for pair in report.timeline.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "frame sequence gap");
            assert!(pair[1].at_us >= pair[0].at_us);
        }
        // Windowed deltas must account for the lifetime totals.
        let committed: u64 = report.timeline.iter().map(|f| f.committed).sum();
        assert_eq!(committed, report.metrics.committed);
        // Watchdog verdicts flow into the frames via the detached probe.
        let windows: u64 = report.timeline.iter().map(|f| f.watchdog_windows).sum();
        assert_eq!(windows, report.watchdog.unwrap().windows);
        assert!(
            report.alarms.is_empty(),
            "steady-state run must not alarm: {:?}",
            report.alarms
        );
        // An unmonitored run keeps the old shape.
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &small_profile(0.0),
            LoadOptions::default(),
        );
        assert!(report.timeline.is_empty());
        assert!(report.alarms.is_empty());
    }
}
