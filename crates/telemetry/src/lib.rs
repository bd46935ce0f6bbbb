//! `mvcc-telemetry`: per-stage latency tracing and a flight recorder.
//!
//! The engine's counters say *how much* happened; this crate records
//! *how long each pipeline stage took* and *what just happened* — the
//! two things a perf campaign and a failed chaos soak respectively need.
//! Three pieces:
//!
//! * [`Histogram`] / [`HistogramSnapshot`] — a lock-free, mergeable
//!   log-linear histogram (16 linear sub-buckets per power-of-two
//!   decade) with interpolated p50/p95/p99/p999, replacing the old
//!   power-of-two buckets whose upper-bound quantiles overstated by up
//!   to 2×.
//! * [`Telemetry`] — the per-stage registry.  Hot-path recording is a
//!   plain store into a thread-local buffer ([`LocalHistogram`]),
//!   drained into the shared registry at batch boundaries, so tracing
//!   adds no synchronization edges to the pipeline (see the recorder
//!   module docs for why that means admission order is unperturbed).
//! * [`FlightRecorder`] — a bounded drop-oldest ring of structured
//!   events ([`EventKind`]) whose [`FlightRecorder::dump`] turns a
//!   failed soak from "a mystery" into a timeline.
//!
//! The hand-rolled [`json`] module (the timeline's JSONL wire format and
//! the benchmark's reports use it) exists because the vendored serde is a
//! no-op stub.
//!
//! The **timeline layer** adds the time axis on top of the cumulative
//! registry: a [`TimelineRecorder`] samples delta frames
//! ([`TimelineFrame`]) on a fixed cadence into a bounded
//! [`TimelineRing`], exportable as JSONL ([`write_jsonl`]) — see the
//! timeline module docs.

#![forbid(unsafe_code)]

pub mod flight;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod stage;
pub mod timeline;

pub use flight::{EventKind, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram};
pub use recorder::{StageSnapshot, Telemetry, TelemetryMode, TelemetrySnapshot, FLUSH_EVERY};
pub use stage::Stage;
pub use timeline::{
    parse_jsonl, write_jsonl, FrameSource, ReplicaFrame, TimelineFrame, TimelineRecorder,
    TimelineRing,
};
