//! The metrics timeline: windowed delta frames over the shared registry.
//!
//! Every number the metrics registry holds is cumulative-since-start:
//! the stage histograms, the counters, the commit-latency distribution
//! all answer "how much, ever", never "how much, *lately*".  This module
//! adds the time axis.  A [`TimelineRecorder`] thread samples a
//! [`FrameSource`] on a fixed cadence; each sample is a
//! [`TimelineFrame`] — the *delta* between two successive registry
//! snapshots (windowed txn/s and abort
//! rate, commit and WAL-flush p99, per-replica apply watermarks and lag,
//! watchdog verdicts) — pushed into a bounded drop-oldest
//! [`TimelineRing`], so a soak that runs for hours keeps the recent past
//! at O(1) memory, exactly like the flight recorder keeps recent events.
//!
//! Frames read the existing lock-free registry (atomic counters and the
//! mergeable histograms): sampling adds **no synchronization edges to
//! the hot path** — the only new lock is the ring's own mutex, touched
//! once per cadence tick by the recorder thread and by readers.
//!
//! One export surface, hand-rolled like the rest of the repo's JSON (the
//! vendored serde is a no-op stub): [`write_jsonl`] / [`parse_jsonl`]
//! round-trip a recorded run as `timeline.jsonl`, one frame per line —
//! the `mvccstat replay` input.

use crate::json::{self, JsonValue};
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One replica's position inside a frame's window.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaFrame {
    /// The member's name (probe-assigned, e.g. `replica-0`).
    pub name: String,
    /// The replica's apply watermark (next LSN it will apply) at sample
    /// time.
    pub watermark: u64,
    /// How far the watermark trails the primary's last appended LSN.
    pub lag_lsn: u64,
}

/// One windowed delta frame of the metrics timeline.
///
/// Counter fields (`committed`, `aborted`, the watchdog counts) are
/// deltas over the frame's window; `primary_lsn` and the replica
/// watermarks are point-in-time readings at the end of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineFrame {
    /// Frame sequence number (0-based, monotone per recorder).
    pub seq: u64,
    /// Microseconds since the sampler started, at the end of the window.
    pub at_us: u64,
    /// Transactions committed inside the window.
    pub committed: u64,
    /// Transactions aborted inside the window.
    pub aborted: u64,
    /// Windowed committed-transaction throughput (per second).
    pub txn_s: f64,
    /// Windowed abort fraction: aborted / (committed + aborted), 0.0 for
    /// an idle window.
    pub abort_rate: f64,
    /// Windowed commit-latency p99 in µs (0.0 for a window without
    /// commits).
    pub commit_p99_us: f64,
    /// Windowed WAL-flush p99 in µs, from the `wal-flush` stage (0.0 with
    /// telemetry or durability off).
    pub flush_p99_us: f64,
    /// The primary's last appended WAL LSN at sample time (0 with
    /// durability off).
    pub primary_lsn: u64,
    /// Per-replica positions at sample time.
    pub replicas: Vec<ReplicaFrame>,
    /// Watchdog windows ruled inside the frame's window.
    pub watchdog_windows: u64,
    /// Watchdog violations ruled inside the frame's window (any non-zero
    /// value is a correctness alarm).
    pub watchdog_violations: u64,
}

impl TimelineFrame {
    /// An all-zero frame (test/scripting convenience).
    pub fn zeroed(seq: u64) -> Self {
        TimelineFrame {
            seq,
            at_us: 0,
            committed: 0,
            aborted: 0,
            txn_s: 0.0,
            abort_rate: 0.0,
            commit_p99_us: 0.0,
            flush_p99_us: 0.0,
            primary_lsn: 0,
            replicas: Vec::new(),
            watchdog_windows: 0,
            watchdog_violations: 0,
        }
    }

    /// Serializes the frame as one compact JSON object (one
    /// `timeline.jsonl` line, without the trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"seq\":{},\"at_us\":{},\"committed\":{},\"aborted\":{}",
            self.seq, self.at_us, self.committed, self.aborted
        ));
        for (key, value) in [
            ("txn_s", self.txn_s),
            ("abort_rate", self.abort_rate),
            ("commit_p99_us", self.commit_p99_us),
            ("flush_p99_us", self.flush_p99_us),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            json::write_number(&mut out, value);
        }
        out.push_str(&format!(
            ",\"primary_lsn\":{},\"replicas\":[",
            self.primary_lsn
        ));
        for (i, replica) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &replica.name);
            out.push_str(&format!(
                ",\"watermark\":{},\"lag_lsn\":{}}}",
                replica.watermark, replica.lag_lsn
            ));
        }
        out.push_str(&format!(
            "],\"watchdog_windows\":{},\"watchdog_violations\":{}}}",
            self.watchdog_windows, self.watchdog_violations
        ));
        out
    }

    /// Parses one frame from a parsed JSONL line.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let seq = require_u64(value, "seq", "frame")?;
        let what = format!("frame {seq}");
        let mut replicas = Vec::new();
        if let Some(members) = value.get("replicas").and_then(JsonValue::as_array) {
            for member in members {
                let name = member
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{what}: replica without a name"))?;
                replicas.push(ReplicaFrame {
                    name: name.to_string(),
                    watermark: require_u64(member, "watermark", &what)?,
                    lag_lsn: require_u64(member, "lag_lsn", &what)?,
                });
            }
        } else {
            return Err(format!("{what}: missing or non-array key: replicas"));
        }
        Ok(TimelineFrame {
            seq,
            at_us: require_u64(value, "at_us", &what)?,
            committed: require_u64(value, "committed", &what)?,
            aborted: require_u64(value, "aborted", &what)?,
            txn_s: require_f64(value, "txn_s", &what)?,
            abort_rate: require_f64(value, "abort_rate", &what)?,
            commit_p99_us: require_f64(value, "commit_p99_us", &what)?,
            flush_p99_us: require_f64(value, "flush_p99_us", &what)?,
            primary_lsn: require_u64(value, "primary_lsn", &what)?,
            replicas,
            watchdog_windows: require_u64(value, "watchdog_windows", &what)?,
            watchdog_violations: require_u64(value, "watchdog_violations", &what)?,
        })
    }
}

impl fmt::Display for TimelineFrame {
    /// One `mvccstat` table row: the per-frame live/replay rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<5} +{:>7.1}ms  txn/s {:>9.0}  abort {:>5.1}%  p99 {:>8.1}µs  \
             flush p99 {:>7.1}µs  lsn {:>6}",
            self.seq,
            self.at_us as f64 / 1_000.0,
            self.txn_s,
            self.abort_rate * 100.0,
            self.commit_p99_us,
            self.flush_p99_us,
            self.primary_lsn,
        )?;
        for replica in &self.replicas {
            write!(f, "  {} lag {}", replica.name, replica.lag_lsn)?;
        }
        if self.watchdog_violations > 0 {
            write!(f, "  WATCHDOG-VIOLATION x{}", self.watchdog_violations)?;
        }
        Ok(())
    }
}

fn require_u64(value: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_number)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("{what}: missing or non-numeric key: {key}"))
}

fn require_f64(value: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_number)
        .ok_or_else(|| format!("{what}: missing or non-numeric key: {key}"))
}

/// Serializes frames as JSONL: one frame per line, oldest first — the
/// `timeline.jsonl` artifact format.
pub fn write_jsonl(frames: &[TimelineFrame]) -> String {
    let mut out = String::with_capacity(frames.len() * 256);
    for frame in frames {
        out.push_str(&frame.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a `timeline.jsonl` document (blank lines skipped), returning
/// the frames oldest first.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimelineFrame>, String> {
    let mut frames = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        frames.push(TimelineFrame::from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(frames)
}

/// The bounded drop-oldest frame ring a [`TimelineRecorder`] fills and
/// readers (`mvccstat live`, the monitor's closing report) copy from.
#[derive(Debug)]
pub struct TimelineRing {
    capacity: usize,
    frames: TrackedMutex<VecDeque<TimelineFrame>>,
}

impl TimelineRing {
    /// A ring holding at most `capacity` frames (zero is bumped to 1).
    pub fn new(capacity: usize) -> Self {
        TimelineRing {
            capacity: capacity.max(1),
            frames: TrackedMutex::new(lock_class!("telemetry.timeline-ring"), VecDeque::new()),
        }
    }

    /// Appends a frame, dropping the oldest at capacity.
    pub fn push(&self, frame: TimelineFrame) {
        let mut frames = self.frames.lock();
        if frames.len() == self.capacity {
            frames.pop_front();
        }
        frames.push_back(frame);
    }

    /// Copies the held frames out, oldest first.
    pub fn frames(&self) -> Vec<TimelineFrame> {
        self.frames.lock().iter().cloned().collect()
    }

    /// Number of frames currently held.
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// True when no frame has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a [`TimelineRecorder`] samples each tick.  Implemented by the
/// engine's sampler (which owns the previous-snapshot state the deltas
/// are computed against); closures work too.
pub trait FrameSource: Send {
    /// Produces the frame for sequence number `seq`.
    fn sample(&mut self, seq: u64) -> TimelineFrame;
}

impl<F: FnMut(u64) -> TimelineFrame + Send> FrameSource for F {
    fn sample(&mut self, seq: u64) -> TimelineFrame {
        self(seq)
    }
}

/// The background cadence thread: samples its [`FrameSource`] every
/// `interval` into a shared [`TimelineRing`].  Stopping (or dropping)
/// the recorder takes one final closing sample, so even a run shorter
/// than the cadence yields at least one frame.
#[derive(Debug)]
pub struct TimelineRecorder {
    stop: Arc<AtomicBool>,
    ring: Arc<TimelineRing>,
    handle: Option<JoinHandle<()>>,
}

impl TimelineRecorder {
    /// Spawns the recorder thread.
    pub fn start(
        mut source: impl FrameSource + 'static,
        interval: Duration,
        capacity: usize,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let ring = Arc::new(TimelineRing::new(capacity));
        let stop_flag = Arc::clone(&stop);
        let sink = Arc::clone(&ring);
        let handle = std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop_flag.load(Ordering::Acquire) {
                std::thread::park_timeout(interval);
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                sink.push(source.sample(seq));
                seq += 1;
            }
            // The closing frame: whatever happened since the last tick.
            sink.push(source.sample(seq));
        });
        TimelineRecorder {
            stop,
            ring,
            handle: Some(handle),
        }
    }

    /// The shared frame ring (clone to read from other threads).
    pub fn ring(&self) -> Arc<TimelineRing> {
        Arc::clone(&self.ring)
    }

    /// Stops the thread (after its closing sample) and returns the ring.
    pub fn stop(mut self) -> Arc<TimelineRing> {
        self.shutdown();
        Arc::clone(&self.ring)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for TimelineRecorder {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame(seq: u64) -> TimelineFrame {
        let mut frame = TimelineFrame::zeroed(seq);
        frame.at_us = 1000 * (seq + 1);
        frame.committed = 10;
        frame.aborted = 2;
        frame.txn_s = 10_000.0;
        frame.abort_rate = 2.0 / 12.0;
        frame.commit_p99_us = 55.0;
        frame.flush_p99_us = 7.0;
        frame.primary_lsn = 42;
        frame.replicas = vec![ReplicaFrame {
            name: "replica-0".into(),
            watermark: 39,
            lag_lsn: 3,
        }];
        frame.watchdog_windows = 1;
        frame
    }

    #[test]
    fn the_ring_is_bounded_and_drops_oldest() {
        let ring = TimelineRing::new(3);
        for seq in 0..7 {
            ring.push(TimelineFrame::zeroed(seq));
        }
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.frames().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6], "oldest frames must go first");
        let tiny = TimelineRing::new(0);
        tiny.push(TimelineFrame::zeroed(0));
        tiny.push(TimelineFrame::zeroed(1));
        assert_eq!(tiny.len(), 1, "zero capacity bumped to one");
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let frames: Vec<TimelineFrame> = (0..4).map(sample_frame).collect();
        let text = write_jsonl(&frames);
        assert_eq!(text.lines().count(), 4, "one line per frame");
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, frames, "round trip must be lossless");
        // Blank lines are tolerated; garbage is not.
        assert_eq!(parse_jsonl("\n").unwrap(), Vec::new());
        assert!(parse_jsonl("{\"seq\":}").is_err());
        assert!(
            parse_jsonl("{\"seq\":1}").unwrap_err().contains("replicas"),
            "missing keys must be named"
        );
    }

    #[test]
    fn empty_quantile_summaries_serialize_compactly() {
        // A window without commits or flushes has no quantiles: its p99
        // fields are plain zeros, not absent keys or nulls.
        let frame = TimelineFrame::zeroed(9);
        let line = frame.to_json_line();
        assert!(
            line.contains("\"commit_p99_us\":0,\"flush_p99_us\":0"),
            "{line}"
        );
        let parsed = parse_jsonl(&format!("{line}\n")).unwrap();
        assert_eq!(parsed[0], frame);
    }

    #[test]
    fn the_recorder_takes_a_closing_sample_on_stop() {
        let recorder = TimelineRecorder::start(
            |seq: u64| TimelineFrame::zeroed(seq),
            Duration::from_secs(3600),
            8,
        );
        let ring = recorder.stop();
        let frames = ring.frames();
        assert_eq!(frames.len(), 1, "the closing sample must land");
        assert_eq!(frames[0].seq, 0);
    }

    #[test]
    fn the_recorder_samples_on_cadence() {
        let recorder = TimelineRecorder::start(
            |seq: u64| TimelineFrame::zeroed(seq),
            Duration::from_millis(1),
            64,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while recorder.ring().len() < 3 {
            assert!(std::time::Instant::now() < deadline, "recorder stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ring = recorder.stop();
        let frames = ring.frames();
        assert!(frames.len() >= 3);
        for pair in frames.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "sequence must be dense");
        }
    }

    #[test]
    fn frame_display_is_one_table_row() {
        let rendered = format!("{}", sample_frame(3));
        assert!(rendered.contains("txn/s"), "{rendered}");
        assert!(rendered.contains("flush p99"), "{rendered}");
        assert!(rendered.contains("replica-0 lag 3"), "{rendered}");
        assert!(!rendered.contains('\n'), "one row per frame: {rendered}");
        let mut violating = sample_frame(4);
        violating.watchdog_violations = 2;
        assert!(format!("{violating}").contains("WATCHDOG-VIOLATION x2"));
    }
}
