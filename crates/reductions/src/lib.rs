//! # mvcc-reductions
//!
//! The NP-completeness machinery of Sections 4 and 5 of the paper, in
//! executable form:
//!
//! * [`sat`] — CNF formulas with a brute-force solver and a small DPLL
//!   solver (the starting point of every hardness proof);
//! * [`sat_to_polygraph`](mod@sat_to_polygraph) — a verified reduction from satisfiability to
//!   polygraph acyclicity with the structural properties the paper's proofs
//!   rely on (node-disjoint choices, acyclic first branches, acyclic
//!   mandatory arcs);
//! * [`ols`] — the definition-level checker for *on-line schedulability*
//!   (OLS) of a set of schedules;
//! * `theorem4` — the construction mapping a polygraph `P` to a pair of
//!   MVCSR schedules `{s1, s2}` that is OLS iff `P` is acyclic
//!   (NP-completeness of OLS);
//! * `theorem5` — the construction mapping `P` to a single schedule with
//!   forced read-froms that is MVSR (and hence accepted by every maximal
//!   multiversion scheduler) iff `P` is acyclic (NP-hardness of every
//!   maximal OLS subset of MVSR);
//! * [`theorem6`] — the adaptive construction that drives a concrete
//!   scheduler and produces an MVCSR schedule the scheduler accepts iff `P`
//!   is acyclic (no polynomial maximal MVCSR scheduler unless P = NP);
//! * [`certificates`] — verification of the succinct certificates used in
//!   the NP-membership arguments, and Corollary 1's forced read-froms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificates;
pub mod ols;
pub mod sat;
pub mod sat_to_polygraph;
mod theorem4;
mod theorem5;
pub mod theorem6;

pub use ols::{is_ols, ols_violation, OlsViolation};
pub use sat::{CnfFormula, Literal};
pub use sat_to_polygraph::sat_to_polygraph;
pub use theorem4::theorem4_schedules;
pub use theorem5::theorem5_schedule;
pub use theorem6::{adaptive_schedule, AdaptiveOutcome};
