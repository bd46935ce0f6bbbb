//! # mvcc-scheduler
//!
//! On-line schedulers in the sense of the paper: algorithms that examine each
//! step of an arriving schedule in sequence and accept or reject it, a
//! multiversion scheduler additionally deciding *which version* each accepted
//! read observes.
//!
//! The crate provides the classical single-version schedulers that the paper
//! uses as its baseline universe, and the multiversion schedulers its
//! discussion (Section 6) motivates:
//!
//! | scheduler | class of output schedules | module |
//! |-----------|---------------------------|--------|
//! | [`SerialScheduler`] | serial | `serial_sched` |
//! | [`TwoPhaseLockingScheduler`] | CSR (strict 2PL) | `two_phase_locking` |
//! | [`TimestampScheduler`] | CSR (timestamp ordering) | [`timestamp`] |
//! | [`SgtScheduler`] | CSR (serialization-graph testing) | [`sgt`] |
//! | [`MvSgtScheduler`] | MVCSR (multiversion conflict-graph testing — the paper's generic MVCSR scheduler) | [`mv_sgt`] |
//! | [`MvtoScheduler`] | MVSR (multiversion timestamp ordering) | [`mvto`] |
//! | [`GreedyMaximalScheduler`] | a greedy approximation of a maximal MVSR scheduler (exponential; used by the Theorem 6 construction) | [`greedy`] |
//!
//! [`run_prefix`] and [`run_abort`] run a scheduler over an input
//! interleaving in the paper's prefix-recognition mode or an
//! abort-and-continue mode, collecting the acceptance statistics that
//! experiment E9 (the intro's "enhanced performance" claim) reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod greedy;
mod harness;
pub mod mv_sgt;
pub mod mvto;
mod serial_sched;
mod serialization_graph;
pub mod sgt;
pub mod timestamp;
mod two_phase_locking;

pub use decision::{Decision, Scheduler};
pub use greedy::GreedyMaximalScheduler;
pub use harness::{run_abort, run_prefix, AbortOutcome, PrefixOutcome};
pub use mv_sgt::MvSgtScheduler;
pub use mvto::MvtoScheduler;
pub use serial_sched::SerialScheduler;
pub use sgt::SgtScheduler;
pub use timestamp::TimestampScheduler;
pub use two_phase_locking::TwoPhaseLockingScheduler;
