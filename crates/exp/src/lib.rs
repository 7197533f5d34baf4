//! # cohmeleon-exp
//!
//! The experiment-orchestration layer: the paper's evaluation is a grid of
//! configs × workloads × policies × seeds (Section 5), and this crate makes
//! that grid a first-class value instead of a hand-rolled loop per figure.
//!
//! * [`Experiment`] — a builder composing [`Scenario`]s (a
//!   [`SocConfig`](cohmeleon_soc::SocConfig) plus train/test
//!   [`AppSpec`](cohmeleon_soc::AppSpec)s), [`PolicySpec`]s (the paper's
//!   [`PolicyKind`] suite or custom builders), seeds and a train-iteration
//!   count into a validated [`SweepGrid`].
//! * [`Executor`] — pluggable scheduling: [`Serial`] (the reference) and
//!   [`WorkStealing`] (a hand-rolled shared-queue pool; no external
//!   dependencies). Cells are pure functions of their coordinates, so
//!   executors can only change wall time, never results.
//! * [`SweepGrid::execute`] — streaming observation: a closure receives
//!   each [`CellResult`] the moment its cell completes, so progress
//!   reporting and incremental aggregation need no `Vec` of everything.
//!   [`SweepGrid::collect_records`] keeps one flat [`CellRecord`] per
//!   cell, and figures render from the records ([`read_jsonl`],
//!   [`normalize_records`]) whether they were just collected or read
//!   back from a finished checkpoint.
//! * [`LearnerSpec`] — the learning agent as sweep data: one value names
//!   a state-space × exploration × update-rule composition
//!   (`"table3/eps-greedy/blend"` is the paper's), and
//!   [`Experiment::learners`] puts whole learner sweeps on the policy
//!   axis. See the `learners` grid in `cohmeleon_bench::sweeps`.
//! * [`checkpoint`] — resumable sweeps and the one path from a cell to
//!   disk: [`SweepGrid::run_resumable`] skips cells already recorded at
//!   a path, appends fresh ones durably through [`CheckpointWriter`]
//!   (one fsynced JSONL line per cell, with a corruption-tolerant tail
//!   scan on load), and finalises the file in canonical order,
//!   byte-identical to an uninterrupted [`Serial`] run. Multi-process
//!   sweeps, on one machine or many, are the `cohmeleon-fleet` queen's:
//!   it passes every worker record through the same
//!   [`Checkpoint::ingest`] and finalises the same checkpoint file.
//! * [`snapshot`] — serving provenance: [`SnapshotMeta`] stamps a frozen
//!   table export with the grid name, cell coordinates and structural
//!   hash of the run that produced it, as a comment line the frozen
//!   parser skips — so `sweep freeze` output is both attributable and
//!   directly servable.
//!
//! # Quickstart
//!
//! ```
//! use cohmeleon_exp::{normalize_records, Experiment, PolicyKind, WorkStealing};
//! use cohmeleon_soc::config::soc1;
//! use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
//!
//! let config = soc1();
//! let train = generate_app(&config, &GeneratorParams::quick(), 1);
//! let test = generate_app(&config, &GeneratorParams::quick(), 2);
//!
//! let grid = Experiment::train_test(config, train, test)
//!     .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Cohmeleon])
//!     .seed(7)
//!     .train_iterations(1)
//!     .build()
//!     .unwrap();
//!
//! let records = grid.collect_records(&WorkStealing::new());
//! // Normalize every policy against fixed non-coherent DMA (policy 0).
//! for (record, outcome) in records.iter().zip(normalize_records(&records, 0)) {
//!     assert!(outcome.geo_time > 0.0, "{}", record.policy);
//! }
//! ```
//!
//! # Migration from `run_suite` / ad-hoc `run_protocol` loops
//!
//! `cohmeleon_bench::suite::run_suite(config, train, test, kinds, iters,
//! seed)` — deprecated when the grid landed — has been removed; the
//! direct equivalent is:
//!
//! ```text
//! let records = Experiment::train_test(config, train, test)
//!     .policy_kinds(kinds.iter().copied())
//!     .seed(seed)
//!     .train_iterations(iters)
//!     .build()?
//!     .collect_records(&WorkStealing::new());
//! let outcomes = normalize_records(&records, 0); // run_suite normalized against kinds[0]
//! ```
//!
//! Hand-rolled loops over `run_protocol` (one per figure binary, formerly)
//! become one extra scenario/policy/seed on the corresponding axis; the
//! per-cell semantics are exactly
//! [`run_protocol_with_options`](cohmeleon_workloads::runner::run_protocol_with_options)
//! ([`Protocol::TrainTest`]) or
//! [`evaluate_policy_with_options`](cohmeleon_workloads::runner::evaluate_policy_with_options)
//! ([`Protocol::EvaluateOnly`]), so a one-cell grid reproduces the old free
//! functions bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod executor;
pub mod grid;
pub mod learner;
pub mod policies;
pub mod sink;
pub mod snapshot;

pub use checkpoint::{
    canonical_jsonl, finalize_canonical, scan_jsonl_tail, CellCoord, Checkpoint, CheckpointWriter,
    ContentKey, ResumeOutcome, ReuseReport, ScannedRun,
};
pub use executor::{Executor, Serial, WorkStealing};
pub use grid::{
    CellId, CellResult, Experiment, ExperimentError, GridResults, PolicySpec, Protocol, Scenario,
    SweepGrid,
};
pub use learner::{AgentScope, ExplorationKind, LearnerSpec, StateSpace, UpdateKind, WeightPreset};
pub use policies::{build_policy, policy_suite, PolicyKind};
pub use sink::{normalize_records, read_jsonl, CellRecord};
pub use snapshot::{write_snapshot, SnapshotMeta};
