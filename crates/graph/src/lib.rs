//! # mvcc-graph
//!
//! The graph substrate used throughout the reproduction of Hadzilacos &
//! Papadimitriou's *Algorithmic Aspects of Multiversion Concurrency Control*:
//!
//! * plain directed graphs with cheap node indices ([`DiGraph`]),
//! * topological sorting and cycle detection with witnesses ([`topo`],
//!   [`cycle`]),
//! * **polygraphs** `(N, A, C)` — the NP-complete acyclicity structure of
//!   [Papadimitriou 1979] that the paper's reductions are built on
//!   ([`polygraph`]), together with exact acyclicity solvers (brute force
//!   over choice selections and a pruned backtracking search)
//!   ([`poly_acyclic`]).
//!
//! The conflict graphs and multiversion conflict graphs of `mvcc-classify`,
//! the serialization-graph-testing schedulers of `mvcc-scheduler` and the
//! SAT→polygraph reduction of `mvcc-reductions` all build on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
mod digraph;
pub mod poly_acyclic;
pub mod polygraph;
pub mod topo;

pub use digraph::{DiGraph, NodeId};
pub use poly_acyclic::{is_acyclic_polygraph, solve_polygraph, PolygraphSolution};
pub use polygraph::{Choice, Polygraph};
