//! # cohmeleon-bench
//!
//! The benchmark and figure-regeneration harness: one module per table and
//! figure of the paper's evaluation (see the [`figures`] module table).
//!
//! Every figure module produces a `Data` (structured results) and
//! `print(&Data)` (the same rows/series the paper reports), built on
//! the `cohmeleon-exp` experiment grid — a figure is one `Experiment`
//! (scenarios × policies × seeds) run on the work-stealing executor, so
//! regeneration parallelises across cells while staying bit-identical to
//! a serial run. The grid figures render from cell records
//! (`from_records`) and are regenerated only as [`sweeps`] grids, so a
//! finished checkpoint renders the same figure. The other modules'
//! `run(scale) -> Data` back the thin `src/bin/` binaries. Wall-clock
//! measurement lives in the repository benchmark (`perfbench/`); the
//! [`tracked`] suites are the deterministic grids the tests pin.
//!
//! Set `COHMELEON_FAST=1` to run every experiment in a reduced
//! configuration (smaller workloads, fewer training iterations) — useful
//! for smoke tests; the full configuration regenerates the paper's scales.

#![forbid(unsafe_code)]

pub mod figures;
pub mod scale;
pub mod sweeps;
pub mod table;
pub mod tracked;

pub use scale::Scale;
