//! # mvcc-core
//!
//! The schedule model of Hadzilacos & Papadimitriou, *Algorithmic Aspects of
//! Multiversion Concurrency Control* (PODS 1985 / JCSS 1986), Section 2.
//!
//! A database is a finite set of *entities* accessed atomically by
//! *transactions*, which are finite sequences of read and write *steps*.
//! A *schedule* is a shuffle of the transactions of a transaction system.
//! In the multiversion model every write creates a new version and a
//! *version function* assigns to each read step one of the previously
//! created versions of the entity it reads.
//!
//! This crate provides:
//!
//! * interned identifiers for transactions and entities ([`TxId`], [`EntityId`]),
//! * steps, transactions and transaction systems ([`Step`], [`Transaction`],
//!   [`TransactionSystem`]),
//! * schedules with derived indexes and a small parser for the paper's
//!   `R1(x) W2(y)` notation ([`Schedule`]),
//! * version functions and READ-FROM relations ([`VersionFunction`],
//!   [`ReadFromRelation`]), including the implicit padding with the initial
//!   transaction `T0` and final transaction `Tf`,
//! * the two conflict notions of the paper (single-version and multiversion)
//!   and the corresponding equivalences ([`conflict`], [`equivalence`]),
//! * the worked examples of the paper: the six schedules of Figure 1 and the
//!   on-line-schedulability counterexample of Section 4 ([`examples`]).
//!
//! Higher-level crates build the classifiers (`mvcc-classify`), the
//! NP-completeness constructions (`mvcc-reductions`), the on-line schedulers
//! (`mvcc-scheduler`) and the storage engine (`mvcc-store`) on top of this
//! model.
//!
//! ## Quick example
//!
//! ```
//! use mvcc_core::Schedule;
//!
//! // Figure 1, example (1): a schedule that is not even multiversion
//! // serializable -- both transactions read the initial version of x and
//! // then overwrite it.
//! let s1 = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
//! assert_eq!(s1.len(), 4);
//! assert_eq!(s1.num_transactions(), 2);
//! assert!(!s1.is_serial());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod display;
pub mod entity;
pub mod equivalence;
pub mod error;
pub mod examples;
mod readfrom;
pub mod schedule;
pub mod step;
pub mod transaction;
pub mod version;

pub use conflict::{mv_conflicts, sv_conflicts, ConflictKind};
pub use entity::{EntityId, EntityInterner};
pub use error::CoreError;
pub use readfrom::{ReadFrom, ReadFromRelation};
pub use schedule::Schedule;
pub use step::{Action, Step};
pub use transaction::{Transaction, TransactionSystem, TxId};
pub use version::{VersionFunction, VersionSource};
