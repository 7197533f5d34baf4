//! # cohmeleon-bench
//!
//! The benchmark and figure-regeneration harness: one module per table and
//! figure of the paper's evaluation (see DESIGN.md's experiment index).
//!
//! Every figure module exposes `run(scale) -> Data` (structured results)
//! and `print(&Data)` (the same rows/series the paper reports), built on
//! the `cohmeleon-exp` experiment grid — a figure is one `Experiment`
//! (scenarios × policies × seeds) run on the work-stealing executor, so
//! regeneration parallelises across cells while staying bit-identical to
//! a serial run. The `src/bin/` binaries are thin wrappers. Wall-clock
//! measurement lives in the repository benchmark (`perfbench/`); the
//! [`tracked`] suites are the deterministic grids the tests pin.
//!
//! Set `COHMELEON_FAST=1` to run every experiment in a reduced
//! configuration (smaller workloads, fewer training iterations) — useful
//! for smoke tests; the full configuration regenerates the paper's scales.

pub mod figures;
pub mod scale;
pub mod sweeps;
pub mod table;
pub mod tracked;

/// The policy suite now lives in `cohmeleon-exp` (the experiment grid
/// builds policies from [`PolicyKind`] values); re-exported here under its
/// old path.
pub use cohmeleon_exp::policies;

pub use policies::{policy_suite, PolicyKind};
pub use scale::Scale;
