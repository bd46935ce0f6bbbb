//! Engine health: the sampler behind the metrics timeline and the
//! windowed anomaly detector that reads it.
//!
//! The telemetry crate owns the *mechanism* (frames, ring, recorder,
//! JSONL — see `mvcc_telemetry::timeline`); this module owns the
//! *policy*: what an engine frame contains ([`EngineSampler`]) and what
//! counts as anomalous ([`AnomalyDetector`]).  The monitor has one knob,
//! its sampling interval; the thresholds below are constants, tuned so
//! the scripted chaos tests trip reliably while a steady-state
//! closed-loop soak stays silent (the release soak asserts exactly that).
//!
//! ## Detector soundness vs. the watchdog
//!
//! The [`ClassificationWatchdog`](crate::ClassificationWatchdog) is a
//! *correctness* oracle: a violation means the engine provably emitted a
//! non-serializable window, and one violation is terminal.  The anomaly
//! detector is a *health* heuristic: abort-storm and lag-stall are
//! statistical judgements against recent frames, expected to fire under
//! injected chaos and to stay silent in steady state.  The detector
//! therefore *forwards* watchdog verdicts as its third rule but never
//! reinterprets them: a watchdog violation alarm is exactly as loud as
//! the watchdog itself.
//!
//! Alarms are edge-triggered with hysteresis by construction: an alarm
//! is *active* from its onset frame until its clear frame, transitions
//! are recorded into the flight recorder as
//! [`EventKind::Anomaly`](mvcc_telemetry::EventKind) events, and the
//! abort-rate baseline only absorbs alarm-free frames (so a storm cannot
//! talk the baseline into accepting it).

use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::session::Engine;
use crate::watchdog::WatchdogStats;
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_telemetry::timeline::{
    FrameSource, ReplicaFrame, TimelineFrame, TimelineRecorder, TimelineRing,
};
use mvcc_telemetry::{EventKind, Stage};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames of alarm-free history the abort-rate baseline averages over.
const BASELINE_WINDOW: usize = 5;
/// Minimum finished transactions in a window before the abort-storm rule
/// may fire (tiny windows have meaningless fractions).
const MIN_TXNS: u64 = 16;
/// Absolute abort-fraction floor for abort-storm.
const ABORT_RATE_THRESHOLD: f64 = 0.5;
/// Abort-storm also requires the fraction to exceed the baseline by this
/// factor (a workload that *always* aborts half its load is contention,
/// not a storm).
const ABORT_RATE_FACTOR: f64 = 3.0;
/// Consecutive flat-watermark frames (with lag) before lag-stall fires.
const STALL_FRAMES: u64 = 2;
/// Frames the monitor's ring keeps: ten minutes at a 100 ms cadence.
const RING_CAPACITY: usize = 6_000;

// ---------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------

/// A named cluster member the sampler polls each frame: the closure
/// returns the member's apply watermark (next LSN it will apply).
/// Constructed from a `Replica` by the harness that owns one — the
/// engine crate stays below `mvcc-replica` in the dependency order, so
/// the probe is a closure rather than a replica handle.
pub struct MemberProbe {
    name: String,
    watermark: Box<dyn Fn() -> u64 + Send>,
}

impl MemberProbe {
    /// A probe polling `watermark` under `name`.
    pub fn new(name: impl Into<String>, watermark: impl Fn() -> u64 + Send + 'static) -> Self {
        MemberProbe {
            name: name.into(),
            watermark: Box::new(watermark),
        }
    }
}

impl fmt::Debug for MemberProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemberProbe")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// The engine frame source.
// ---------------------------------------------------------------------

/// The engine's [`FrameSource`]: turns two successive
/// [`MetricsSnapshot`]s into one windowed delta [`TimelineFrame`], polls
/// the member probes, and runs the attached [`AnomalyDetector`] over the
/// frame (recording onset/clear transitions into the flight recorder).
///
/// Reading a frame costs one registry snapshot plus the probe closures —
/// all lock-free counter loads — so the sampling cadence adds no
/// synchronization edges to the transaction hot path (the overhead
/// guard test pins recorder-on within 5% of off).
pub struct EngineSampler {
    metrics: Arc<EngineMetrics>,
    /// Returns the last appended LSN of the *current* primary.  A
    /// closure so a failover harness can follow its write router: after
    /// promotion the probe must read the promoted engine, or replica lag
    /// would be measured against a deposed log and the lag-stall alarm
    /// could never clear.
    lsn: Box<dyn Fn() -> u64 + Send>,
    probes: Vec<MemberProbe>,
    watchdog: Option<Box<dyn Fn() -> WatchdogStats + Send>>,
    detector: Arc<TrackedMutex<AnomalyDetector>>,
    start: Instant,
    prev_at: Instant,
    prev: MetricsSnapshot,
    prev_watchdog: WatchdogStats,
}

impl EngineSampler {
    /// A sampler over `metrics` with an explicit primary-LSN probe.
    pub fn new(
        metrics: Arc<EngineMetrics>,
        lsn: impl Fn() -> u64 + Send + 'static,
        probes: Vec<MemberProbe>,
    ) -> Self {
        let prev = metrics.snapshot();
        // The sampler is the timeline's clock; it runs on the recorder
        // cadence thread, never on the hot path.
        // lint: allow(clock) — timeline sampling off the hot path
        let now = Instant::now();
        EngineSampler {
            metrics,
            lsn: Box::new(lsn),
            probes,
            watchdog: None,
            detector: Arc::new(TrackedMutex::new(
                lock_class!("engine.health-detector"),
                AnomalyDetector::new(),
            )),
            start: now,
            prev_at: now,
            prev,
            prev_watchdog: WatchdogStats::default(),
        }
    }

    /// A sampler following one engine's own WAL (the common
    /// single-primary case).
    pub fn for_engine(engine: &Arc<Engine>, probes: Vec<MemberProbe>) -> Self {
        let primary = Arc::clone(engine);
        EngineSampler::new(
            engine.metrics_handle(),
            move || primary.wal_last_lsn().unwrap_or(0),
            probes,
        )
    }

    /// Attaches a watchdog stats probe (see
    /// [`ClassificationWatchdog::stats_probe`](crate::ClassificationWatchdog::stats_probe)),
    /// so frames carry windowed verdict counts.
    pub fn with_watchdog(mut self, probe: impl Fn() -> WatchdogStats + Send + 'static) -> Self {
        self.prev_watchdog = probe();
        self.watchdog = Some(Box::new(probe));
        self
    }

    /// The shared detector handle (alarm state outlives the recorder
    /// thread the sampler moves into).
    pub fn detector(&self) -> Arc<TrackedMutex<AnomalyDetector>> {
        Arc::clone(&self.detector)
    }
}

impl fmt::Debug for EngineSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSampler")
            .field("probes", &self.probes)
            .finish_non_exhaustive()
    }
}

impl FrameSource for EngineSampler {
    fn sample(&mut self, seq: u64) -> TimelineFrame {
        let snap = self.metrics.snapshot();
        // lint: allow(clock) — frame timestamping on the cadence thread.
        let now = Instant::now();
        let window_us = u64::try_from(now.duration_since(self.prev_at).as_micros())
            .unwrap_or(u64::MAX)
            .max(1);

        let committed = snap.committed.saturating_sub(self.prev.committed);
        let aborted = snap.aborted.saturating_sub(self.prev.aborted);
        let finished = committed + aborted;
        let commit_p99_us = snap
            .latency
            .diff(&self.prev.latency)
            .quantile(0.99)
            .unwrap_or(0.0);
        let flush_p99_us = snap
            .stages
            .diff(&self.prev.stages)
            .get(Stage::WalFlush)
            .and_then(|h| h.quantile(0.99))
            .unwrap_or(0.0);

        let primary_lsn = (self.lsn)();
        let replicas: Vec<ReplicaFrame> = self
            .probes
            .iter()
            .map(|probe| {
                let watermark = (probe.watermark)();
                ReplicaFrame {
                    name: probe.name.clone(),
                    watermark,
                    // The watermark is the *next* LSN to apply, so a
                    // fully caught-up replica sits at primary_lsn + 1.
                    lag_lsn: (primary_lsn + 1).saturating_sub(watermark),
                }
            })
            .collect();

        let (watchdog_windows, watchdog_violations) = match &self.watchdog {
            Some(probe) => {
                let stats = probe();
                let delta = (
                    stats.windows.saturating_sub(self.prev_watchdog.windows),
                    stats
                        .violations
                        .saturating_sub(self.prev_watchdog.violations),
                );
                self.prev_watchdog = stats;
                delta
            }
            None => (0, 0),
        };

        let frame = TimelineFrame {
            seq,
            at_us: u64::try_from(now.duration_since(self.start).as_micros()).unwrap_or(u64::MAX),
            committed,
            aborted,
            txn_s: committed as f64 / (window_us as f64 / 1e6),
            abort_rate: if finished == 0 {
                0.0
            } else {
                aborted as f64 / finished as f64
            },
            commit_p99_us,
            flush_p99_us,
            primary_lsn,
            replicas,
            watchdog_windows,
            watchdog_violations,
        };
        self.prev = snap;
        self.prev_at = now;

        for event in self.detector.lock().observe(&frame) {
            self.metrics.flight(event);
        }
        frame
    }
}

// ---------------------------------------------------------------------
// The anomaly detector.
// ---------------------------------------------------------------------

/// What kind of anomaly an [`Alarm`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Abort fraction jumped far above its baseline.
    AbortStorm,
    /// A replica's watermark stayed flat while it had log left to apply.
    LagStall,
    /// The classification watchdog ruled a violation inside the window.
    WatchdogViolation,
}

impl AnomalyKind {
    /// The anomaly's stable name (flight events, `mvccstat`, CI greps).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::AbortStorm => "abort-storm",
            AnomalyKind::LagStall => "lag-stall",
            AnomalyKind::WatchdogViolation => "watchdog-violation",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One alarm: a kind (plus the member, for per-member kinds), its onset
/// frame, and — once the condition released — its clear frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// What fired.
    pub kind: AnomalyKind,
    /// The member it fired for (lag-stall), or `None` for cluster-wide
    /// anomalies.
    pub member: Option<String>,
    /// Frame sequence number of the onset.
    pub onset: u64,
    /// Frame sequence number the alarm cleared at, `None` while active.
    pub cleared: Option<u64>,
    /// Human-readable trigger detail (rates, baselines, watermarks).
    pub detail: String,
}

impl Alarm {
    /// True while the condition still holds.
    pub fn is_active(&self) -> bool {
        self.cleared.is_none()
    }
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(member) = &self.member {
            write!(f, "[{member}]")?;
        }
        write!(f, " onset frame {}", self.onset)?;
        match self.cleared {
            Some(frame) => write!(f, ", cleared frame {frame}")?,
            None => write!(f, ", ACTIVE")?,
        }
        write!(f, " ({})", self.detail)
    }
}

#[derive(Debug, Default)]
struct MemberState {
    last_watermark: u64,
    flat_frames: u64,
}

/// The windowed anomaly detector: feed it frames in order
/// (`AnomalyDetector::observe`), read alarms out
/// ([`AnomalyDetector::alarms`]).  Pure frame-in/verdict-out logic — no
/// threads, no clocks — so scripted tests and `mvccstat replay` run the
/// exact detector the live monitor runs.
#[derive(Debug, Default)]
pub struct AnomalyDetector {
    /// Abort rates of the most recent alarm-free frames with traffic.
    baseline: VecDeque<f64>,
    members: Vec<(String, MemberState)>,
    alarms: Vec<Alarm>,
}

impl AnomalyDetector {
    /// A detector with no history yet.
    pub fn new() -> Self {
        AnomalyDetector::default()
    }

    /// Every alarm raised so far (cleared ones keep their clear frame).
    pub fn alarms(&self) -> Vec<Alarm> {
        self.alarms.clone()
    }

    /// The alarms whose condition still holds.
    pub fn active_alarms(&self) -> Vec<Alarm> {
        self.alarms
            .iter()
            .filter(|a| a.is_active())
            .cloned()
            .collect()
    }

    /// Runs the detector over a recorded timeline (what `mvccstat
    /// replay` does) and returns the alarms.
    pub fn replay(frames: &[TimelineFrame]) -> Vec<Alarm> {
        let mut detector = AnomalyDetector::new();
        for frame in frames {
            detector.observe(frame);
        }
        detector.alarms
    }

    /// Evaluates one frame, updating alarm state; returns the flight
    /// events for this frame's onset/clear transitions (the caller owns
    /// the flight recorder — the detector stays mechanism-free).
    pub(crate) fn observe(&mut self, frame: &TimelineFrame) -> Vec<EventKind> {
        let mut events = Vec::new();
        let base_abort = self.baseline.iter().sum::<f64>() / self.baseline.len().max(1) as f64;

        // Rule 1: abort storm.
        let finished = frame.committed + frame.aborted;
        let storm = finished >= MIN_TXNS
            && frame.abort_rate >= ABORT_RATE_THRESHOLD
            && frame.abort_rate >= base_abort * ABORT_RATE_FACTOR;
        self.transition(
            AnomalyKind::AbortStorm,
            None,
            storm,
            frame,
            || {
                format!(
                    "abort_rate={:.2} baseline={:.2} finished={finished}",
                    frame.abort_rate, base_abort
                )
            },
            &mut events,
        );

        // Rule 2: replication-lag stall, per member.  The watermark is
        // flat *while the member has log left to apply* — a caught-up
        // idle replica is healthy, a pinned one is not.
        for replica in &frame.replicas {
            let state = match self.members.iter_mut().find(|(n, _)| n == &replica.name) {
                Some((_, state)) => state,
                None => {
                    self.members
                        .push((replica.name.clone(), MemberState::default()));
                    let last = self.members.len() - 1;
                    &mut self.members[last].1
                }
            };
            if replica.lag_lsn > 0 && replica.watermark == state.last_watermark {
                state.flat_frames += 1;
            } else {
                state.flat_frames = 0;
            }
            state.last_watermark = replica.watermark;
            let stalled = state.flat_frames >= STALL_FRAMES;
            let (watermark, lag) = (replica.watermark, replica.lag_lsn);
            self.transition(
                AnomalyKind::LagStall,
                Some(replica.name.clone()),
                stalled,
                frame,
                || format!("watermark={watermark} lag={lag}"),
                &mut events,
            );
        }

        // Rule 3: watchdog violation — forwarded, not reinterpreted.
        self.transition(
            AnomalyKind::WatchdogViolation,
            None,
            frame.watchdog_violations > 0,
            frame,
            || format!("violations={}", frame.watchdog_violations),
            &mut events,
        );

        // Only alarm-free frames with traffic teach the baseline: an
        // anomalous frame must not normalize itself.
        if events.is_empty() && self.alarms.iter().all(|a| !a.is_active()) && finished > 0 {
            self.baseline.push_back(frame.abort_rate);
            if self.baseline.len() > BASELINE_WINDOW {
                self.baseline.pop_front();
            }
        }
        events
    }

    /// Applies one rule verdict: raises on a fresh condition, clears a
    /// held alarm whose condition released, and emits the corresponding
    /// flight event.
    fn transition(
        &mut self,
        kind: AnomalyKind,
        member: Option<String>,
        firing: bool,
        frame: &TimelineFrame,
        detail: impl FnOnce() -> String,
        events: &mut Vec<EventKind>,
    ) {
        let held = self
            .alarms
            .iter_mut()
            .find(|a| a.kind == kind && a.member == member && a.is_active());
        match (firing, held) {
            (true, None) => {
                let detail = detail();
                events.push(EventKind::Anomaly {
                    anomaly: kind.name().to_string(),
                    phase: "onset".to_string(),
                    frame: frame.seq,
                    detail: detail.clone(),
                });
                self.alarms.push(Alarm {
                    kind,
                    member,
                    onset: frame.seq,
                    cleared: None,
                    detail,
                });
            }
            (false, Some(alarm)) => {
                alarm.cleared = Some(frame.seq);
                events.push(EventKind::Anomaly {
                    anomaly: kind.name().to_string(),
                    phase: "clear".to_string(),
                    frame: frame.seq,
                    detail: detail(),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// The health monitor (recorder + sampler + detector, bundled).
// ---------------------------------------------------------------------

/// The bundled continuous-observability surface: a [`TimelineRecorder`]
/// driving an [`EngineSampler`] every `interval`, with the detector
/// handle exposed for assertions.
#[derive(Debug)]
pub struct HealthMonitor {
    recorder: TimelineRecorder,
    detector: Arc<TrackedMutex<AnomalyDetector>>,
}

impl HealthMonitor {
    /// Starts a monitor over one engine with the given member probes.
    pub fn start(engine: &Arc<Engine>, probes: Vec<MemberProbe>, interval: Duration) -> Self {
        HealthMonitor::start_with(EngineSampler::for_engine(engine, probes), interval)
    }

    /// Starts a monitor over a custom sampler (a failover harness passes
    /// a router-following sampler here, a monitored load run one with a
    /// watchdog attached).
    pub fn start_with(sampler: EngineSampler, interval: Duration) -> Self {
        let detector = sampler.detector();
        let recorder = TimelineRecorder::start(sampler, interval, RING_CAPACITY);
        HealthMonitor { recorder, detector }
    }

    /// The shared frame ring.
    pub fn ring(&self) -> Arc<TimelineRing> {
        self.recorder.ring()
    }

    /// The alarms still active.
    pub fn active_alarms(&self) -> Vec<Alarm> {
        self.detector.lock().active_alarms()
    }

    /// Stops the recorder (one closing frame lands first) and returns
    /// the recorded frames and alarms.
    pub fn stop(self) -> (Vec<TimelineFrame>, Vec<Alarm>) {
        let ring = self.recorder.stop();
        (ring.frames(), self.detector.lock().alarms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic_frame(seq: u64, committed: u64, aborted: u64) -> TimelineFrame {
        let mut frame = TimelineFrame::zeroed(seq);
        frame.at_us = (seq + 1) * 100_000;
        frame.committed = committed;
        frame.aborted = aborted;
        frame.txn_s = committed as f64 / 0.1;
        let finished = committed + aborted;
        frame.abort_rate = if finished == 0 {
            0.0
        } else {
            aborted as f64 / finished as f64
        };
        frame
    }

    #[test]
    fn abort_storm_fires_on_a_jump_and_clears_when_it_passes() {
        let mut detector = AnomalyDetector::new();
        for seq in 0..5 {
            assert!(detector.observe(&traffic_frame(seq, 100, 5)).is_empty());
        }
        // The storm: 80% aborts, well above the ~5% baseline.
        let events = detector.observe(&traffic_frame(5, 20, 80));
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], EventKind::Anomaly { anomaly, phase, frame, .. }
                if anomaly == "abort-storm" && phase == "onset" && *frame == 5),
            "{events:?}"
        );
        assert_eq!(detector.active_alarms().len(), 1);
        // Still storming: no duplicate onset.
        assert!(detector.observe(&traffic_frame(6, 20, 80)).is_empty());
        // Recovery clears it.
        let events = detector.observe(&traffic_frame(7, 100, 5));
        assert!(
            matches!(&events[0], EventKind::Anomaly { phase, frame, .. }
                if phase == "clear" && *frame == 7),
            "{events:?}"
        );
        let alarms = detector.alarms();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].onset, 5);
        assert_eq!(alarms[0].cleared, Some(7));
        assert!(detector.active_alarms().is_empty());
    }

    #[test]
    fn a_persistently_contended_workload_is_not_a_storm() {
        // 40% aborts every frame: high, but it IS the baseline — the
        // factor condition keeps the detector quiet.
        let mut detector = AnomalyDetector::new();
        for seq in 0..20 {
            assert!(
                detector.observe(&traffic_frame(seq, 60, 40)).is_empty(),
                "frame {seq} must not alarm"
            );
        }
    }

    #[test]
    fn lag_stall_needs_lag_and_a_flat_watermark() {
        let mut detector = AnomalyDetector::new();
        let frame_with = |seq: u64, watermark: u64, primary: u64| {
            let mut frame = traffic_frame(seq, 50, 0);
            frame.primary_lsn = primary;
            frame.replicas = vec![ReplicaFrame {
                name: "replica-0".into(),
                watermark,
                lag_lsn: (primary + 1).saturating_sub(watermark),
            }];
            frame
        };
        // Advancing watermark: healthy.
        assert!(detector.observe(&frame_with(0, 5, 10)).is_empty());
        assert!(detector.observe(&frame_with(1, 8, 12)).is_empty());
        // Flat with lag: one grace frame, then the alarm.
        assert!(detector.observe(&frame_with(2, 8, 14)).is_empty());
        let events = detector.observe(&frame_with(3, 8, 16));
        assert!(
            matches!(&events[0], EventKind::Anomaly { anomaly, phase, .. }
                if anomaly == "lag-stall" && phase == "onset"),
            "{events:?}"
        );
        let alarm = &detector.active_alarms()[0];
        assert_eq!(alarm.member.as_deref(), Some("replica-0"));
        assert_eq!(alarm.onset, 3);
        // Catch-up clears it.
        let events = detector.observe(&frame_with(4, 17, 16));
        assert!(
            matches!(&events[0], EventKind::Anomaly { phase, .. } if phase == "clear"),
            "{events:?}"
        );
        // A caught-up idle replica (flat watermark, zero lag) never alarms.
        for seq in 5..10 {
            assert!(detector.observe(&frame_with(seq, 17, 16)).is_empty());
        }
    }

    #[test]
    fn watchdog_violations_are_forwarded() {
        let mut detector = AnomalyDetector::new();
        let mut frame = traffic_frame(0, 50, 0);
        frame.watchdog_windows = 2;
        frame.watchdog_violations = 1;
        let events = detector.observe(&frame);
        assert!(
            matches!(&events[0], EventKind::Anomaly { anomaly, phase, .. }
                if anomaly == "watchdog-violation" && phase == "onset"),
            "{events:?}"
        );
        assert_eq!(
            detector.active_alarms()[0].kind,
            AnomalyKind::WatchdogViolation
        );
    }

    #[test]
    fn replay_reproduces_the_live_verdicts() {
        let mut frames: Vec<TimelineFrame> = (0..5).map(|s| traffic_frame(s, 100, 5)).collect();
        frames.push(traffic_frame(5, 20, 80));
        frames.push(traffic_frame(6, 100, 5));
        let alarms = AnomalyDetector::replay(&frames);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, AnomalyKind::AbortStorm);
        assert_eq!(alarms[0].onset, 5);
        assert_eq!(alarms[0].cleared, Some(6));
    }
}
