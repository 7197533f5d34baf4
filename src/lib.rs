//! # cohmeleon-repro
//!
//! Facade crate for the Cohmeleon reproduction workspace. It re-exports every
//! sub-crate under a stable prefix so examples, integration tests and
//! downstream users can depend on a single crate.
//!
//! # Quickstart: the `Experiment` builder
//!
//! The paper's evaluation is a grid — configs × workloads × policies ×
//! seeds — and the [`exp`] crate makes that grid a first-class value: an
//! `Experiment` builds a typed `SweepGrid`, a pluggable executor runs its
//! cells (serially or on a work-stealing pool, bit-identically), and
//! results stream to observers as cells complete. Long sweeps are
//! checkpointed (`Experiment::resume_from` — interrupted runs resume
//! instead of restarting) and spread across worker processes on one host
//! or many (the [`fleet`] queen/worker coordinator), with every path
//! pinned byte-identical to a clean serial run; `docs/ARCHITECTURE.md`
//! walks the whole lifecycle.
//!
//! ```
//! use cohmeleon_repro::exp::{Experiment, PolicyKind, WorkStealing};
//! use cohmeleon_repro::soc::config::soc1;
//! use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};
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
//! // Runs both cells in parallel; results are bit-identical to a serial
//! // run. Outcomes are normalized against policy 0 (the paper's baseline).
//! let results = grid.collect(&WorkStealing::new());
//! for (cell, outcome) in results.outcomes_against(0) {
//!     assert!(outcome.geo_time > 0.0, "{cell:?}");
//! }
//! ```
//!
//! See the individual crates for the substance:
//!
//! * [`core`] — the paper's contribution: coherence modes, the
//!   sense/decide/actuate/evaluate framework, the baseline policies, and
//!   the composable learning-agent stack (`StateSpace` ×
//!   `ExplorationStrategy` × `UpdateRule` over one `QTable`, behind
//!   `LearnedPolicy`/`AgentBuilder`; `CohmeleonPolicy` is the
//!   bit-identical paper-default composition), plus the agent
//!   orchestration layer (`PolicyRouter` routing decisions through
//!   global / per-kind / per-instance agents).
//! * [`exp`] — experiment orchestration: the `Experiment` builder, sweep
//!   grids, `Serial`/`WorkStealing` executors, streaming result sinks
//!   (including `JsonlSink` persistence), and sweepable
//!   `LearnerSpec` agent configurations (component, scope and
//!   reward-weight axes).
//! * [`fleet`] — the multi-host sweep coordinator: a TCP queen leasing
//!   cell ranges to workers with speculative re-dispatch of stalled
//!   leases, persisting streamed records through the crash-tolerant
//!   checkpoint (see the `sweep queen`/`sweep worker` subcommands).
//! * [`serve`] — the online decision-serving runtime: a TCP server
//!   dispatching batched `decide()` queries against an immutable frozen
//!   snapshot, hot-swappable mid-traffic with lock-free reads, plus the
//!   client, the in-engine `RemotePolicy` adapter (bit-identical to
//!   local dispatch) and the verifying load generator (see the `sweep
//!   freeze`/`sweep serve`/`sweep clients` subcommands).
//! * [`chaos`] — deterministic network fault injection for the two
//!   runtimes above: a seeded, replayable `FaultyTransport` (split
//!   writes, stalls, resets, duplicated idempotent lines, reordered
//!   heartbeats) behind `Option<FaultPlan>` hooks in the queen, worker,
//!   server and clients, soak-tested by the `chaos_soak` harness.
//! * [`soc`] — the simulated SoC substrate (tiles, Table-4 configurations,
//!   hardware monitors, the accelerator-invocation API).
//! * [`accel`] — accelerator communication models and the traffic generator.
//! * [`workloads`] — the phase/thread/chain evaluation applications.
//! * [`sim`], [`noc`], [`cache`], [`mem`] — the simulation substrates.

pub use cohmeleon_accel as accel;
pub use cohmeleon_cache as cache;
pub use cohmeleon_chaos as chaos;
pub use cohmeleon_core as core;
pub use cohmeleon_exp as exp;
pub use cohmeleon_fleet as fleet;
pub use cohmeleon_mem as mem;
pub use cohmeleon_noc as noc;
pub use cohmeleon_serve as serve;
pub use cohmeleon_sim as sim;
pub use cohmeleon_soc as soc;
pub use cohmeleon_workloads as workloads;
