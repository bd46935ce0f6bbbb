//! # mvcc-bench
//!
//! The experiment harness: Criterion layer micro-benchmarks (under
//! `benches/`), table-printing binaries (under `src/bin/`) that regenerate
//! the paper's Figure 1 and the derived experiment tables E1–E16 described
//! in `DESIGN.md` / `EXPERIMENTS.md`, and the `mvccstat` ops surface.  The
//! end-to-end benchmark is not here: it is the `benchmark/` package.
//!
//! This library crate holds the small pieces shared by the binaries: plain
//! text table rendering and the experiment drivers that compute rows (so
//! they can be unit-tested without running the binaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;
