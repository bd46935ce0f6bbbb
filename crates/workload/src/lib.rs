//! # mvcc-workload
//!
//! Workload generation for the experiment harness: random transaction
//! systems, random interleavings, near-serial perturbations (the Theorem 2
//! metric), Zipfian hot-spot access patterns, and random polygraphs / CNF
//! formulas feeding the reduction benchmarks.
//!
//! Everything is seeded and deterministic (xoshiro-style generators from the
//! `rand` crate with explicit seeds), so every table printed by `mvcc-bench`
//! can be regenerated exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod perturb;
mod poly_gen;
mod schedule_gen;
pub mod suites;
mod txn_gen;
pub mod zipf;

pub use config::{LoadProfile, WorkloadConfig};
pub use perturb::perturbed_serial;
pub use poly_gen::{random_polygraph, random_restricted_formula};
pub use schedule_gen::{random_interleaving, random_interleavings};
pub use txn_gen::{random_accesses, random_transaction_system};
pub use zipf::Zipfian;
