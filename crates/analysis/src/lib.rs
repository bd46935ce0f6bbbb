//! mvcc-analysis: the concurrency-safety analysis layer.
//!
//! Every other crate in this workspace *runs* concurrent code; this one
//! checks it.  Three cooperating passes, all exercised by the ordinary
//! test suite and gated in CI:
//!
//! 1. [`lockdep`] — tracked lock shims feed a global lock-order graph;
//!    a cycle is a potential deadlock, reported with the offending
//!    acquisition chains (re-using `mvcc-graph`'s cycle machinery, the
//!    same code that classifies transaction histories).
//! 2. [`hb`] — a FastTrack-style vector-clock pass over recorded
//!    sync-event traces, turning the repo's prose happens-before claims
//!    (WAL-append-before-notify, telemetry-adds-no-edges,
//!    begin-atomic-with-snapshot) into executed assertions.
//! 3. [`lint`] — the `mvcc-lint` binary: a hand-rolled source scanner
//!    enforcing the invariants the other two passes depend on (no
//!    untracked locks, no stray clock reads, no library panics, no
//!    `static mut`, `// SAFETY:` on every `unsafe`).
//!
//! The paper's central move — don't trust the run, check the recorded
//! history against the class definition (Hadzilacos & Papadimitriou,
//! PODS '85) — applied to the engine's own locking and ordering.

#![forbid(unsafe_code)]

pub mod hb;
pub mod lint;
pub mod lockdep;

pub use lockdep::{LockClass, LockOrderReport, TrackedMutex, TrackedRwLock};
