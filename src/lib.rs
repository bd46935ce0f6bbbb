//! # mvcc-repro
//!
//! Umbrella crate for the reproduction of Hadzilacos & Papadimitriou,
//! *Algorithmic Aspects of Multiversion Concurrency Control* (PODS 1985 /
//! JCSS 1986).
//!
//! It re-exports the workspace crates under stable module names so that the
//! examples, the integration tests and downstream users can depend on a
//! single crate:
//!
//! * [`core`] — schedules, version functions, conflicts, the Figure 1 and
//!   Section 4 example schedules (`mvcc-core`);
//! * [`graph`] — digraphs and polygraphs with exact acyclicity solvers
//!   (`mvcc-graph`);
//! * [`classify`] — CSR / VSR / MVCSR / MVSR / DMVSR classifiers and the
//!   Figure 1 taxonomy (`mvcc-classify`);
//! * [`reductions`] — SAT → polygraph → OLS / maximal-scheduler reductions,
//!   Theorems 4–6 (`mvcc-reductions`);
//! * [`scheduler`] — the on-line scheduler zoo, single- and multi-version
//!   (`mvcc-scheduler`);
//! * [`workload`] — deterministic workload generators (`mvcc-workload`);
//! * [`store`] — the in-memory multiversion storage engine (`mvcc-store`);
//! * [`durability`] — write-ahead log, checkpoints and class-preserving
//!   crash recovery (`mvcc-durability`);
//! * [`engine`] — the concurrent sharded multi-session transaction engine
//!   with pluggable certifiers (`mvcc-engine`);
//! * [`replica`] — WAL log-shipping read replicas with
//!   snapshot-consistent follower reads, read/write routers and
//!   epoch-fenced failover (`mvcc-replica`).
//!
//! See `README.md` for a quick start, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured record of every
//! experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mvcc_analysis as analysis;
pub use mvcc_classify as classify;
pub use mvcc_core as core;
pub use mvcc_durability as durability;
pub use mvcc_engine as engine;
pub use mvcc_graph as graph;
pub use mvcc_reductions as reductions;
pub use mvcc_replica as replica;
pub use mvcc_scheduler as scheduler;
pub use mvcc_store as store;
pub use mvcc_workload as workload;

/// A one-stop prelude for examples and quick experiments.
pub mod prelude {
    pub use mvcc_classify::taxonomy::{classify, Classification};
    pub use mvcc_classify::{is_csr, is_mvcsr, is_mvsr, is_vsr};
    pub use mvcc_core::{
        Action, EntityId, ReadFromRelation, Schedule, Step, TransactionSystem, TxId,
        VersionFunction, VersionSource,
    };
    pub use mvcc_durability::{DurabilityConfig, DurabilityMode};
    pub use mvcc_engine::{
        run_closed_loop, CertifierKind, ChaosHook, Engine, EngineConfig, HistoryClass, KillSite,
        LoadOptions,
    };
    pub use mvcc_reductions::ols::is_ols;
    pub use mvcc_replica::{
        LeaderConfig, LeaderDriver, LogShipper, ReadPolicy, ReadRouter, Replica, ReplicaConfig,
        RouterConfig, ShipperConfig, WriteRouter,
    };
    pub use mvcc_scheduler::{
        run_abort, run_prefix, Decision, MvSgtScheduler, MvtoScheduler, Scheduler, SerialScheduler,
        SgtScheduler, TimestampScheduler, TwoPhaseLockingScheduler,
    };
    pub use mvcc_store::MvStore;
    pub use mvcc_workload::{LoadProfile, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        let s = crate::core::Schedule::parse("Ra(x) Wa(x)").unwrap();
        assert!(crate::classify::is_csr(&s));
    }
}
