//! # mvcc-store
//!
//! An in-memory multiversion storage engine: the substrate a multiversion
//! scheduler sits on.  The paper abstracts this away ("each entity has an
//! ordered set of values associated with it; each write step adds a value at
//! the end"); this crate makes it concrete so that the schedule-level theory
//! can be exercised against an executable database:
//!
//! * `version_chain` — per-entity ordered version chains, exactly the
//!   paper's "ordered set of values";
//! * [`store`] — the transactional key-value store: begin / read / write /
//!   commit / abort, with reads served by an explicit version choice (the
//!   version function made operational) or by snapshot visibility;
//! * [`snapshot`] — snapshot-isolation reads and first-committer-wins
//!   write-conflict detection, the production face of multiversion
//!   concurrency control;
//! * [`gc`] — version garbage collection under a low-watermark of active
//!   transactions;
//! * `executor` — replays a schedule (with an optional version function or
//!   an on-line scheduler from `mvcc-scheduler`) against the store and
//!   reports the realized READ-FROM relation, connecting the theory crates
//!   to the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod gc;
pub mod snapshot;
pub mod store;
mod version_chain;

pub use executor::{execute_full_schedule, execute_with_scheduler, ExecutionReport};
pub use store::{CommittedChain, MvStore, StoreError, TxHandle, TxStatus};
pub use version_chain::{Version, VersionChain};

// Re-export the byte-buffer crate so downstream users (examples, the
// umbrella crate) construct values with the exact type the store expects.
pub use bytes;
