//! The telemetry registry: per-stage shared histograms fed by
//! thread-local buffers, plus the flight recorder.
//!
//! ## Why the hot path never touches an atomic
//!
//! A stage sample is recorded into a *thread-local* [`LocalHistogram`] —
//! a plain array increment, no atomic, no lock, no fence.  Locals are
//! drained into the shared per-stage [`Histogram`]s (a short burst of
//! relaxed `fetch_add`s) only at batch boundaries: every
//! [`FLUSH_EVERY`] samples, when the owning thread exits (the
//! thread-local's `Drop`), or explicitly via
//! `Telemetry::flush_current_thread`.  Recording therefore cannot
//! perturb admission order: it adds no synchronization edges between
//! worker threads — two sessions that never synchronized before
//! telemetry still never synchronize, so the interleavings the chaos
//! tests explore are the same ones production sees.
//!
//! ## Visibility contract
//!
//! [`Telemetry::snapshot`] flushes the *calling* thread's buffers and
//! reads the shared histograms.  Samples still buffered in *other* live
//! threads are invisible until those threads hit a flush boundary — so
//! benchmarks join their workers before snapshotting (worker exit
//! flushes), which makes joined-then-snapshot totals exact.

use crate::flight::{EventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::histogram::{Histogram, HistogramSnapshot, LocalHistogram};
use crate::stage::Stage;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Samples buffered per thread before a drain into the shared registry.
pub const FLUSH_EVERY: u32 = 256;

/// Whether an engine records telemetry at all.
///
/// `Off` is the zero-cost mode: the engine holds no registry, so every
/// stage probe is an `Option` check that folds to "do nothing" — no
/// clock reads, no buffers, no events.  The overhead guard test pins
/// `On` within a few percent of `Off`; `Off` pins it at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record per-stage histograms and flight-recorder events.
    On,
    /// Record nothing (the default).
    #[default]
    Off,
}

impl TelemetryMode {
    /// True when recording is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, TelemetryMode::On)
    }
}

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct Shared {
    id: u64,
    stages: Vec<Histogram>,
    flight: FlightRecorder,
}

/// A telemetry registry: one histogram per [`Stage`] plus a flight
/// recorder.  Cheap to clone (it is a handle); all clones feed the same
/// registry.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Shared>,
}

impl Telemetry {
    /// A fresh registry with the default flight-recorder capacity.
    pub fn new() -> Self {
        Telemetry::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh registry whose flight recorder holds `capacity` events.
    pub(crate) fn with_flight_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Shared {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                stages: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
                flight: FlightRecorder::new(capacity),
            }),
        }
    }

    /// Records one duration sample for `stage` (stored in microseconds).
    pub fn record_duration(&self, stage: Stage, elapsed: Duration) {
        self.record_value(
            stage,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
    }

    /// Records one raw sample for `stage` — a value in the stage's unit.
    ///
    /// The hot path: a plain store into this thread's local buffer.
    pub fn record_value(&self, stage: Stage, value: u64) {
        let recorded = LOCAL.try_with(|local| {
            local.borrow_mut().record(&self.inner, stage, value);
        });
        if recorded.is_err() {
            // The thread-local is mid-destruction (thread teardown).
            // Fall back to a direct shared store — correctness over the
            // fast path for this final handful of samples.
            self.inner.stages[stage.index()].record(value);
        }
    }

    /// Records a structured flight-recorder event.
    pub fn record_event(&self, kind: EventKind) {
        self.inner.flight.record(kind);
    }

    /// The flight recorder (for dumps and tests).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Drains the calling thread's buffered samples into the shared
    /// registry.
    pub(crate) fn flush_current_thread(&self) {
        let _ = LOCAL.try_with(|local| local.borrow_mut().flush_registry(self.inner.id));
    }

    /// Snapshots every stage histogram (after flushing the calling
    /// thread's buffers — see the module docs for the visibility
    /// contract).  Only stages with at least one sample appear.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.flush_current_thread();
        let mut stages = Vec::new();
        for stage in Stage::all() {
            let hist = self.inner.stages[stage.index()].snapshot();
            if !hist.is_empty() {
                stages.push(StageSnapshot {
                    stage,
                    histogram: hist,
                });
            }
        }
        TelemetrySnapshot { stages }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// One stage's snapshotted histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Its recorded distribution.
    pub histogram: HistogramSnapshot,
}

/// A point-in-time copy of every non-empty stage histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Non-empty stages, in registry order.
    pub stages: Vec<StageSnapshot>,
}

impl TelemetrySnapshot {
    /// A snapshot with no recorded stages (what `TelemetryMode::Off`
    /// reports).
    pub fn empty() -> Self {
        TelemetrySnapshot { stages: Vec::new() }
    }

    /// True when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The histogram for `stage`, if it recorded anything.
    pub fn get(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| &s.histogram)
    }

    /// The windowed delta `self − earlier`, where `earlier` is a prior
    /// snapshot of the *same* registry: the per-stage
    /// [`HistogramSnapshot::diff`], keeping only stages that recorded
    /// inside the window.  This is what turns the cumulative registry
    /// into timeline frames.
    pub fn diff(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut stages = Vec::new();
        for entry in &self.stages {
            let window = match earlier.get(entry.stage) {
                Some(before) => entry.histogram.diff(before),
                None => entry.histogram.clone(),
            };
            if !window.is_empty() {
                stages.push(StageSnapshot {
                    stage: entry.stage,
                    histogram: window,
                });
            }
        }
        TelemetrySnapshot { stages }
    }
}

// ---------------------------------------------------------------------
// Thread-local buffering.
// ---------------------------------------------------------------------

thread_local! {
    static LOCAL: RefCell<LocalRegistry> = RefCell::new(LocalRegistry::default());
}

/// Per-thread buffers for every registry this thread has recorded into.
/// A thread rarely touches more than one or two registries, so lookup is
/// a short linear scan.
#[derive(Default)]
struct LocalRegistry {
    entries: Vec<LocalEntry>,
}

struct LocalEntry {
    id: u64,
    shared: Weak<Shared>,
    stages: Vec<LocalHistogram>,
    pending: u32,
}

impl LocalRegistry {
    fn record(&mut self, shared: &Arc<Shared>, stage: Stage, value: u64) {
        let entry = match self.entries.iter_mut().find(|e| e.id == shared.id) {
            Some(entry) => entry,
            None => {
                self.entries.push(LocalEntry {
                    id: shared.id,
                    shared: Arc::downgrade(shared),
                    stages: (0..Stage::COUNT).map(|_| LocalHistogram::new()).collect(),
                    pending: 0,
                });
                // lint: allow(unwrap) — entries is non-empty: an entry was pushed just above
                self.entries.last_mut().expect("just pushed")
            }
        };
        entry.stages[stage.index()].record(value);
        entry.pending += 1;
        if entry.pending >= FLUSH_EVERY {
            entry.flush();
        }
    }

    fn flush_registry(&mut self, id: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.id == id) {
            entry.flush();
        }
    }
}

impl LocalEntry {
    fn flush(&mut self) {
        if let Some(shared) = self.shared.upgrade() {
            for (i, local) in self.stages.iter_mut().enumerate() {
                if local.total() > 0 {
                    shared.stages[i].merge(local);
                    local.clear();
                }
            }
        }
        self.pending = 0;
    }
}

impl Drop for LocalRegistry {
    fn drop(&mut self) {
        // Thread exit: drain whatever is buffered so joined-then-
        // snapshot sees every sample.
        for entry in &mut self.entries {
            entry.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_keeps_only_window_active_stages() {
        let telemetry = Telemetry::new();
        telemetry.record_value(Stage::Certify, 10);
        telemetry.record_value(Stage::WalFlush, 100);
        let earlier = telemetry.snapshot();
        telemetry.record_value(Stage::Certify, 20);
        telemetry.record_value(Stage::ReplicaApply, 5);
        let later = telemetry.snapshot();

        let window = later.diff(&earlier);
        // WalFlush was idle inside the window, so it must vanish.
        assert!(window.get(Stage::WalFlush).is_none());
        let certify = window.get(Stage::Certify).expect("certify in window");
        assert_eq!(certify.count(), 1, "only the windowed sample remains");
        // ReplicaApply first appeared inside the window: kept whole.
        assert_eq!(window.get(Stage::ReplicaApply).map(|h| h.count()), Some(1));
        // Diffing identical snapshots yields nothing.
        assert!(later.diff(&later).is_empty());
    }

    #[test]
    fn concurrent_recording_is_deterministic_after_joins() {
        // N threads each record M samples; once all are joined, the
        // merged totals must equal the sum of the inputs exactly — no
        // lost updates, no double counts, buffered tails included.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000; // not a multiple of FLUSH_EVERY
        let telemetry = Telemetry::new();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let telemetry = telemetry.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        telemetry.record_value(Stage::Certify, (t * PER_THREAD + i) % 1000);
                        telemetry.record_value(Stage::WalFlushTxns, 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = telemetry.snapshot();
        let certify = snap.get(Stage::Certify).unwrap();
        assert_eq!(certify.count(), THREADS * PER_THREAD);
        let flush = snap.get(Stage::WalFlushTxns).unwrap();
        assert_eq!(flush.count(), THREADS * PER_THREAD);
        assert_eq!(flush.mean(), Some(4.0));
        // Untouched stages are absent, not zero-filled.
        assert_eq!(snap.get(Stage::FailoverDetect), None);
    }

    #[test]
    fn snapshot_flushes_the_calling_thread() {
        let telemetry = Telemetry::new();
        // Fewer than FLUSH_EVERY samples: still buffered locally…
        for _ in 0..10 {
            telemetry.record_value(Stage::CommitLatency, 5);
        }
        // …but a snapshot must see them (it drains this thread first).
        let snap = telemetry.snapshot();
        assert_eq!(snap.get(Stage::CommitLatency).unwrap().count(), 10);
    }

    #[test]
    fn two_registries_do_not_cross_talk() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.record_value(Stage::Certify, 1);
        b.record_value(Stage::WalFlush, 2);
        assert_eq!(a.snapshot().get(Stage::WalFlush), None);
        assert_eq!(b.snapshot().get(Stage::Certify), None);
        assert_eq!(a.snapshot().get(Stage::Certify).unwrap().count(), 1);
    }

    #[test]
    fn duration_recording_uses_microseconds() {
        let telemetry = Telemetry::new();
        telemetry.record_duration(Stage::WalFlush, Duration::from_millis(3));
        let snap = telemetry.snapshot();
        let mean = snap.get(Stage::WalFlush).unwrap().mean().unwrap();
        assert!((mean - 3000.0).abs() < 200.0, "mean = {mean}");
    }

    #[test]
    fn off_mode_is_off_and_default() {
        assert_eq!(TelemetryMode::default(), TelemetryMode::Off);
        assert!(!TelemetryMode::Off.is_on());
        assert!(TelemetryMode::On.is_on());
    }

    #[test]
    fn empty_snapshot_exports_an_empty_object() {
        assert!(TelemetrySnapshot::empty().is_empty());
        assert!(Telemetry::new().snapshot().is_empty());
    }
}
