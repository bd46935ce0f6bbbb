//! The online classification watchdog: continuous "theory checks the
//! engine" under live traffic.
//!
//! The offline story so far — run a workload, snapshot the history, hand
//! its committed projection to `mvcc-classify` — only ever checks the
//! *final* history, after the load has stopped.  The watchdog closes the
//! gap: a background thread periodically samples the engine's committed
//! history (ring-truncated histories included), runs the *same* offline
//! checkers against the active certifier's claimed class, and records
//! every verdict into the flight recorder
//! ([`EventKind::WatchdogVerdict`](mvcc_telemetry::EventKind)) — so a
//! violation during a chaos soak lands on the same timeline as the kill
//! sites and fence refusals around it, with the offending transactions
//! named as `t{epoch}.{tx}`.
//!
//! ## Soundness of windowed checks
//!
//! A ring-mode history has dropped its oldest steps, so the watchdog
//! checks the *window*: the committed projection restricted to
//! transactions wholly above [`History::drop_horizon`] (transaction ids
//! are monotone, so those transactions have every step retained — see
//! `History::windowed_schedule`).  A window is a transaction-subset
//! projection of the full committed history, which means only properties
//! *closed under such projections* may be asserted on it:
//!
//! * **CSR** and **MVCSR** qualify: both are "the conflict graph is
//!   acyclic" ([`mvcc_classify::is_csr`], [`mvcc_classify::is_mvcsr`]),
//!   and deleting transactions deletes nodes and edges — a subgraph of an
//!   acyclic graph is acyclic.  A windowed violation is therefore a real
//!   violation of the full history too.
//! * **MVSR** does not: view-equivalence is a whole-history property, and
//!   the check is the exact NP-complete search besides.  The watchdog
//!   checks MVSR only on *complete* histories small enough to search
//!   ([`WatchdogConfig::max_mvsr_window`]) and counts everything else as
//!   skipped rather than risk a false alarm.
//! * **SI** claims no Figure 1 class; its windows pass vacuously (the
//!   engine-level first-committer-wins tests carry the real assertions).
//!
//! The zero-false-alarm requirement of the chaos soaks rests exactly on
//! this table: every verdict the watchdog emits is one the offline
//! checkers would also emit on the full history.

use crate::certifier::HistoryClass;
use crate::session::{Engine, History};
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_telemetry::EventKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Watchdog tuning.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// How often the background thread samples the history.
    pub interval: Duration,
    /// Largest *complete* committed-transaction count the exact MVSR
    /// search is attempted on; larger (or truncated) MVSR histories are
    /// counted as skipped instead of checked (the search is NP-complete
    /// and MVSR is not closed under windowing — see the module docs).
    pub max_mvsr_window: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval: Duration::from_millis(20),
            max_mvsr_window: 64,
        }
    }
}

/// Counters the watchdog has accumulated so far (monotone; readable at
/// any time, e.g. for a soak's zero-false-alarm assertion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// History windows actually checked against the class.
    pub windows: u64,
    /// Checked windows that violated the class (0 on a correct engine).
    pub violations: u64,
    /// Samples skipped: history unchanged since the last check, or a
    /// window the class cannot soundly be asserted on (MVSR truncated or
    /// oversized).
    pub skipped: u64,
}

/// The shared state the sampling thread and the handle both see.
struct WatchdogInner {
    engine: Arc<Engine>,
    config: WatchdogConfig,
    stop: AtomicBool,
    windows: AtomicU64,
    violations: AtomicU64,
    skipped: AtomicU64,
    /// Fingerprint of the last history sampled (admitted len, dropped,
    /// committed len) — re-checking an unchanged history is pure waste.
    last: TrackedMutex<Option<(usize, u64, usize)>>,
}

impl WatchdogInner {
    /// Samples the history once and (when it changed and the class is
    /// checkable) runs the classifier.  Returns `Some(ok)` for a checked
    /// window, `None` for a skip.
    fn check_once(&self) -> Option<bool> {
        let history = self.engine.history();
        let fingerprint = (
            history.admitted.len(),
            history.dropped,
            history.committed.len(),
        );
        {
            let mut last = self.last.lock();
            if *last == Some(fingerprint) {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            *last = Some(fingerprint);
        }
        let class = self.engine.class();
        if !Self::checkable(class, &history, self.config.max_mvsr_window) {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let schedule = history.windowed_schedule();
        let ok = class.check(&schedule);
        self.windows.fetch_add(1, Ordering::Relaxed);
        let detail = if ok {
            if history.is_complete() {
                "complete".to_string()
            } else {
                format!("window above tx{}", history.drop_horizon.map_or(0, |t| t.0))
            }
        } else {
            self.violations.fetch_add(1, Ordering::Relaxed);
            // Name the offenders with the engine's epoch, so a line from a
            // promoted primary is told apart from the deposed one's.
            let epoch = self.engine.epoch();
            let mut ids: Vec<String> = schedule
                .tx_ids()
                .into_iter()
                .take(8)
                .map(|tx| format!("t{epoch}.{}", tx.0))
                .collect();
            if schedule.num_transactions() > 8 {
                ids.push("..".to_string());
            }
            format!("violating {}", ids.join(","))
        };
        self.engine.metrics().flight(EventKind::WatchdogVerdict {
            class: class.to_string(),
            ok,
            txns: schedule.num_transactions() as u64,
            detail,
        });
        Some(ok)
    }

    /// Whether `class` may soundly be asserted on this history's window
    /// (see the module docs for the closure-under-projection argument).
    fn checkable(class: HistoryClass, history: &History, max_mvsr: usize) -> bool {
        match class {
            HistoryClass::Csr | HistoryClass::Mvcsr | HistoryClass::SnapshotIsolation => true,
            HistoryClass::Mvsr => history.is_complete() && history.committed.len() <= max_mvsr,
        }
    }
}

/// A running classification watchdog; stops (and joins its thread) on
/// [`ClassificationWatchdog::stop`] or drop.
pub struct ClassificationWatchdog {
    inner: Arc<WatchdogInner>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ClassificationWatchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassificationWatchdog")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ClassificationWatchdog {
    /// Starts the sampling thread over `engine`.
    ///
    /// The watchdog holds an `Arc` to the engine, so the engine outlives
    /// it; call [`ClassificationWatchdog::stop`] (or drop the handle)
    /// before tearing the engine down in a test that leaks it on purpose.
    pub fn start(engine: Arc<Engine>, config: WatchdogConfig) -> ClassificationWatchdog {
        let inner = Arc::new(WatchdogInner {
            engine,
            config,
            stop: AtomicBool::new(false),
            windows: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            last: TrackedMutex::new(lock_class!("engine.watchdog-last"), None),
        });
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("mvcc-watchdog".into())
            .spawn(move || {
                while !thread_inner.stop.load(Ordering::Acquire) {
                    std::thread::park_timeout(thread_inner.config.interval);
                    if thread_inner.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let _ = thread_inner.check_once();
                }
            })
            // lint: allow(unwrap) — startup path: failing to spawn the watchdog is fatal
            .expect("spawn watchdog thread");
        ClassificationWatchdog {
            inner,
            handle: Some(handle),
        }
    }

    /// Runs one sampling pass synchronously on the caller's thread —
    /// deterministic verdicts for tests, with exactly the thread loop's
    /// dedup and soundness gating.  Returns `Some(ok)` for a checked
    /// window, `None` for a skip.
    pub fn check_once(&self) -> Option<bool> {
        self.inner.check_once()
    }

    /// A detached stats reader: clones the shared inner state, so a
    /// timeline sampler can keep reading verdict counters after the
    /// watchdog handle itself has been consumed by `stop()` (the stop
    /// order in a monitored run is watchdog first, monitor last — the
    /// closing frame still sees the final counts).
    pub fn stats_probe(&self) -> impl Fn() -> WatchdogStats + Send + Sync + 'static {
        let inner = Arc::clone(&self.inner);
        move || WatchdogStats {
            windows: inner.windows.load(Ordering::Relaxed),
            violations: inner.violations.load(Ordering::Relaxed),
            skipped: inner.skipped.load(Ordering::Relaxed),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> WatchdogStats {
        WatchdogStats {
            windows: self.inner.windows.load(Ordering::Relaxed),
            violations: self.inner.violations.load(Ordering::Relaxed),
            skipped: self.inner.skipped.load(Ordering::Relaxed),
        }
    }

    /// Stops the sampling thread and joins it, returning the final
    /// counters.
    pub fn stop(mut self) -> WatchdogStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for ClassificationWatchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::CertifierKind;
    use crate::session::EngineConfig;
    use bytes::Bytes;
    use mvcc_core::EntityId;
    use mvcc_telemetry::TelemetryMode;

    fn engine(kind: CertifierKind, config: EngineConfig) -> Arc<Engine> {
        Arc::new(Engine::new(kind, config))
    }

    #[test]
    fn verdicts_for_every_certifier_on_a_complete_history() {
        for kind in CertifierKind::all() {
            let e = engine(
                kind,
                EngineConfig {
                    telemetry: TelemetryMode::On,
                    ..EngineConfig::default()
                },
            );
            for i in 0..4u32 {
                let mut s = e.begin();
                let _ = s.read(EntityId(i % 2));
                let _ = s.write(EntityId(2 + i % 2), Bytes::from(format!("{i}")));
                let _ = s.commit();
            }
            let dog = ClassificationWatchdog::start(Arc::clone(&e), WatchdogConfig::default());
            assert_eq!(dog.check_once(), Some(true), "{kind}");
            // Unchanged history: the next pass dedups into a skip.
            assert_eq!(dog.check_once(), None, "{kind}");
            let stats = dog.stop();
            assert!(stats.windows >= 1, "{kind}");
            assert_eq!(stats.violations, 0, "{kind}");
            let dump = e.metrics().flight_dump().expect("telemetry on");
            assert!(dump.contains("watchdog class="), "{kind}: {dump}");
            assert!(dump.contains("ok=true"), "{kind}: {dump}");
        }
    }

    #[test]
    fn ring_truncated_windows_are_checked_for_conflict_graph_classes_only() {
        // SGT (CSR) with a tiny ring: truncation forces the windowed
        // projection, which is sound for conflict-graph classes.
        let e = engine(
            CertifierKind::Sgt,
            EngineConfig {
                history_capacity: Some(3),
                ..EngineConfig::default()
            },
        );
        for i in 0..6u32 {
            let mut s = e.begin();
            s.write(EntityId(i % 4), Bytes::from(format!("{i}")))
                .unwrap();
            s.commit().unwrap();
        }
        assert!(!e.history().is_complete());
        let dog = ClassificationWatchdog::start(Arc::clone(&e), WatchdogConfig::default());
        assert_eq!(dog.check_once(), Some(true));
        drop(dog);
        // MVTO (MVSR) with the same truncation: windowing is not sound
        // for view-serializability, so the sample must be skipped.
        let e = engine(
            CertifierKind::Mvto,
            EngineConfig {
                history_capacity: Some(3),
                ..EngineConfig::default()
            },
        );
        for i in 0..6u32 {
            let mut s = e.begin();
            s.write(EntityId(i % 4), Bytes::from(format!("{i}")))
                .unwrap();
            s.commit().unwrap();
        }
        let dog = ClassificationWatchdog::start(Arc::clone(&e), WatchdogConfig::default());
        assert_eq!(dog.check_once(), None);
        let stats = dog.stop();
        assert_eq!(stats.windows, 0);
        assert!(stats.skipped >= 1);
    }

    #[test]
    fn oversized_mvsr_histories_are_skipped_not_searched() {
        let e = engine(CertifierKind::Mvto, EngineConfig::default());
        for i in 0..3u32 {
            let mut s = e.begin();
            s.write(EntityId(i), Bytes::from(format!("{i}"))).unwrap();
            s.commit().unwrap();
        }
        let dog = ClassificationWatchdog::start(
            Arc::clone(&e),
            WatchdogConfig {
                max_mvsr_window: 2,
                ..WatchdogConfig::default()
            },
        );
        assert_eq!(dog.check_once(), None, "3 committed > window of 2");
        drop(dog);
        let dog = ClassificationWatchdog::start(Arc::clone(&e), WatchdogConfig::default());
        assert_eq!(dog.check_once(), Some(true), "default window fits");
        dog.stop();
    }

    #[test]
    fn background_thread_samples_on_its_own() {
        let e = engine(CertifierKind::Sgt, EngineConfig::default());
        let dog = ClassificationWatchdog::start(
            Arc::clone(&e),
            WatchdogConfig {
                interval: Duration::from_millis(1),
                ..WatchdogConfig::default()
            },
        );
        let mut s = e.begin();
        s.write(EntityId(0), Bytes::from_static(b"x")).unwrap();
        s.commit().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5); // lint: allow(clock) — test deadline
        loop {
            let stats = dog.stats();
            if stats.windows >= 1 {
                assert_eq!(stats.violations, 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline, // lint: allow(clock) — test deadline
                "watchdog never sampled: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        dog.stop();
    }
}
