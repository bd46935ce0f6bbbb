//! # mvcc-engine
//!
//! A concurrent, sharded, multi-session MVCC transaction engine: the
//! paper's scheduling theory put under real multi-threaded load.
//!
//! The theory crates replay *one schedule at a time*; the introduction's
//! claim that multiversion schedulers buy "enhanced performance" is about
//! what happens when many transactions arrive concurrently.  This crate
//! closes that gap:
//!
//! * [`shard`] — an [`MvStore`](mvcc_store::MvStore) per key-range shard
//!   with a cross-shard commit path, so storage scales with cores instead
//!   of serializing on one chain map;
//! * [`certifier`] — the [`Certifier`] trait: pluggable online admission
//!   control.  [`SchedulerCertifier`] adapts any
//!   [`mvcc_scheduler::Scheduler`] (2PL, TSO, SGT, MV-SGT, MVTO) into the
//!   engine, and [`SnapshotCertifier`] adds snapshot isolation with
//!   first-committer-wins, so the same engine runs in every class of the
//!   paper's Figure 1;
//! * [`pipeline`] — the admission pipeline: one ruling per lane lock
//!   ([`Certifier::admit`] under the step's lane), commits applied to the
//!   shards in groups by a group-commit leader, and one admission lane
//!   per shard for certifiers that only need per-entity ordering
//!   (snapshot isolation);
//! * [`session`] — the [`Engine`] itself and its multi-threaded session
//!   API (`begin` / `read` / `write` / `commit` / `abort`), plus the
//!   append-only admission [`History`] whose committed projection the
//!   offline `mvcc-classify` checkers validate — "theory checks the
//!   engine";
//! * [`gc`] — a background [`GcDriver`] reclaiming superseded versions
//!   under the active-snapshot watermark
//!   ([`mvcc_store::gc::collect_with_watermark`]);
//! * [`checkpoint`] — a background [`CheckpointDriver`] periodically
//!   snapshotting committed state into `mvcc-durability` checkpoint
//!   files; with [`DurabilityConfig`] on, the group-commit leader also
//!   appends each batch to the write-ahead log with one flush per batch,
//!   and [`Engine::recover`] rebuilds a crashed engine from newest
//!   checkpoint + log tail (class-preservingly — see `mvcc-durability`);
//! * [`metrics`] — committed/aborted counters, an abort-reason breakdown,
//!   a commit-latency histogram and per-shard contention counters;
//! * [`load`] — the closed-loop load harness driving the engine with
//!   `mvcc-workload` generators over a Zipfian θ sweep (experiment E12).
//!
//! ## Correctness model
//!
//! An admission lane is the serialization point: every step is admitted
//! (or rejected) on its lane — one ruling per lane lock, so the admission
//! order per lane is total — and recorded in the history log in that
//! order.  Certifiers whose class depends on cross-entity order run one
//! global lane.  Class guarantees —
//! CSR for 2PL/TSO/SGT, MVCSR for MV-SGT, MVSR for MVTO — are properties
//! of that admission sequence, checked offline by `mvcc-classify`.  Version payloads are applied to the shards
//! outside the admission lock; multiversion reads are served exactly the
//! version the certifier assigned, and the engine enforces *avoids
//! cascading aborts* (ACA): a read directed at a version whose writer has
//! not committed aborts the reader instead of observing dirty data, which
//! is also what makes MVTO's committed history provably MVSR.
//!
//! ## Quick example
//!
//! ```
//! use mvcc_engine::{CertifierKind, Engine, EngineConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(
//!     CertifierKind::Mvto,
//!     EngineConfig { shards: 2, entities: 8, ..EngineConfig::default() },
//! ));
//! let mut session = engine.begin();
//! let x = mvcc_core::EntityId(0);
//! let old = session.read(x).unwrap();
//! session.write(x, mvcc_engine::Bytes::from(format!("{old:?}+1"))).unwrap();
//! session.commit().unwrap();
//! assert_eq!(engine.metrics().snapshot().committed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certifier;
pub mod checkpoint;
pub mod gc;
mod health;
pub mod load;
pub mod metrics;
pub mod pipeline;
pub mod session;
pub mod shard;
pub mod watchdog;

pub use certifier::{
    Admission, AdmissionScope, Certifier, CertifierKind, HistoryClass, ReadPlan,
    SchedulerCertifier, SnapshotCertifier,
};
pub use checkpoint::CheckpointDriver;
pub use gc::GcDriver;
pub use health::{Alarm, AnomalyDetector, AnomalyKind, EngineSampler, HealthMonitor, MemberProbe};
pub use load::{run_closed_loop, LoadOptions, LoadReport};
pub use metrics::{AbortReason, EngineMetrics, MetricsSnapshot};
pub use pipeline::{ChaosHook, KillSite};
pub use session::{Engine, EngineConfig, EngineError, History, Session};
pub use shard::ShardedStore;
pub use watchdog::{ClassificationWatchdog, WatchdogConfig, WatchdogStats};

// Re-export the durability surface so engine users configure and recover
// without naming the durability crate directly.
pub use mvcc_durability::{DurabilityConfig, DurabilityMode, RecoveryReport};

// Re-export the telemetry surface so engine users switch telemetry on and
// read per-stage snapshots without naming the telemetry crate directly.
pub use mvcc_telemetry::{
    parse_jsonl, write_jsonl, EventKind, FlightRecorder, FrameSource, HistogramSnapshot,
    ReplicaFrame, Stage, StageSnapshot, Telemetry, TelemetryMode, TelemetrySnapshot, TimelineFrame,
    TimelineRecorder, TimelineRing,
};

// Re-export the value type so callers construct payloads with the exact
// type the store expects (same convention as `mvcc-store`).
pub use bytes::Bytes;
