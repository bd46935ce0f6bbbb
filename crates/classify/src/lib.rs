//! # mvcc-classify
//!
//! Schedule classifiers for every correctness class that appears in
//! Hadzilacos & Papadimitriou's *Algorithmic Aspects of Multiversion
//! Concurrency Control*:
//!
//! | class | definition | complexity | module |
//! |-------|------------|------------|--------|
//! | serial | transactions run back-to-back | linear | [`taxonomy`] |
//! | CSR | conflict-equivalent to a serial schedule (conflict graph acyclic) | polynomial | [`csr`] |
//! | VSR ("SR") | view-equivalent to a serial schedule | NP-complete | [`vsr`] |
//! | MVCSR | multiversion-conflict-equivalent to a serial schedule (MVCG acyclic, Theorem 1) | polynomial | [`mvcsr`] |
//! | MVSR | some version function makes it view-equivalent to a serial schedule | NP-complete | [`mvsr`] |
//! | DMVSR | MVSR after patching readless writes (\[PK84\]) | polynomial while no transaction writes an entity twice | [`dmvsr`] |
//!
//! Every test reads one dense index of the schedule: transactions numbered
//! by first appearance, entities in ascending order, each entity's steps
//! one sorted run, and — derived from the runs when a test first needs
//! them — the conflict masks, the MVCG's removal order and, only for a
//! search, the search tables (each transaction's reads with their standard
//! sources, its first writes, each entity's final writer).  A standalone
//! `is_*` builds the index and runs its one test; [`taxonomy::classify`]
//! builds it once and runs all six tests on it, each verdict still its own
//! test.  The index is one workspace per thread, refilled in place by each
//! call, so its tables, the search's buffers and its memo keep their
//! capacity: a call on a small schedule allocates nothing.
//!
//! The NP-complete classifiers are clients of one exact pruned search over
//! serial orders ([`serialization`]): MVSR with nothing required, VSR with
//! the schedule's standard read-froms and final writers pinned, on dense
//! numbers.  Its memo of dead states is keyed on the placed set and on
//! which unplaced reads the current last writers serve — exact, and of
//! fixed width.  DMVSR is MVSR of the patched schedule, which is in the
//! restricted model of \[PK84\]: there the MVCG test decides it, and only a
//! transaction that writes an entity twice sends it to the search.  VSR
//! also has an independent formulation (the polygraph of \[P79\]) used for
//! cross-validation.  The three polynomial tests decide acyclicity of the
//! conflict arcs on bitmasks — one sweep yields all three rules' masks — or
//! by Kahn's pass beyond 64 transactions; the labelled graphs read the same
//! arcs.  Before it searches, MVSR checks the MVCG's topological order
//! (Theorem 3's certificate) against its own definition on the entity
//! runs — on masks over the ranks in the order up to 64 transactions —
//! which settles every MVCSR schedule without a search node.  Up to 64
//! transactions VSR and MVSR then refute on the masks of their forced
//! arcs — the precedence edges their search starts from, which it takes
//! from the same masks — so most schedules outside either class never
//! build a search.
//! [`taxonomy`] combines the classifiers into the region map of the
//! paper's Figure 1, and [`swaps`] provides the swap-characterisation of
//! MVCSR (Theorem 2).
//!
//! ```
//! use mvcc_core::Schedule;
//! use mvcc_classify::taxonomy::classify;
//!
//! let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
//! let c = classify(&s);
//! assert!(!c.mvsr, "Figure 1, example (1) is not even MVSR");
//! assert!(!c.csr && !c.vsr && !c.mvcsr);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arcs;
pub mod csr;
pub mod dmvsr;
pub mod mvcsr;
pub mod mvsr;
pub mod serialization;
pub mod swaps;
pub mod taxonomy;
#[cfg(test)]
mod testing;
pub mod vsr;

pub use csr::{conflict_graph, csr_witness, is_csr};
pub use mvcsr::{is_mvcsr, mv_conflict_graph, mvcsr_witness};
pub use mvsr::{is_mvsr, mvsr_witness};
pub use taxonomy::{classify, Classification};
pub use vsr::is_vsr;
