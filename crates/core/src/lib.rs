//! # cohmeleon-core
//!
//! The primary contribution of *Cohmeleon: Learning-Based Orchestration of
//! Accelerator Coherence in Heterogeneous SoCs* (MICRO 2021), implemented as
//! a substrate-independent Rust library.
//!
//! Cohmeleon selects, at every accelerator invocation, one of four
//! cache-coherence modes ([`CoherenceMode`]) using online reinforcement
//! learning. The framework is organised around the paper's four phases:
//!
//! 1. **Sense** — a lightweight software layer ([`status::StatusTracker`])
//!    tracks the active accelerators, their coherence modes and memory
//!    footprints, and produces a [`SystemSnapshot`] at invocation time.
//! 2. **Decide** — a [`policy::Policy`] maps the snapshot to a
//!    coherence mode. Implementations include the paper's baselines
//!    ([`policy::RandomPolicy`], [`policy::FixedPolicy`],
//!    [`policy::FixedHeterogeneousPolicy`], the manually-tuned
//!    [`policy::ManualPolicy`] of Algorithm 1) and the learning-based
//!    [`agent::LearnedPolicy`] — a composable agent stack whose
//!    paper-default composition is [`policy::CohmeleonPolicy`].
//! 3. **Actuate** — the embedding system applies the decision; in the paper
//!    a register write in the accelerator tile, in this reproduction a field
//!    on the simulated invocation.
//! 4. **Evaluate** — hardware monitors produce an
//!    [`InvocationMeasurement`](reward::InvocationMeasurement); the
//!    multi-objective reward of Section 4.2 ([`reward`]) converts it into a
//!    learning signal.
//!
//! The crate knows nothing about the simulator: it can orchestrate any system
//! able to produce snapshots and measurements, exactly as the paper's software
//! layer orchestrates ESP through its status structs and monitor registers.
//!
//! # The composable agent stack
//!
//! The learning subsystem decomposes along three pluggable axes, each a
//! trait with the paper's choice as the default implementation, over one
//! dense [`value::QTable`] sized for the chosen state space:
//!
//! | Axis | Trait | Paper default | Alternatives |
//! |---|---|---|---|
//! | Discretization | [`space::StateSpace`] | [`space::Table3Space`] (3⁵) | [`space::CoarseSpace`] (3³), [`space::ExtendedSpace`] (3⁷) |
//! | Exploration | [`explore::ExplorationStrategy`] | [`explore::EpsilonGreedy`] | [`explore::Softmax`], [`explore::Ucb1`] |
//! | Update rule | [`update::UpdateRule`] | [`update::BlendUpdate`] | [`update::DiscountedUpdate`] |
//!
//! [`agent::LearnedPolicy`] composes one of each into a [`Policy`];
//! [`agent::AgentBuilder`] is the ergonomic way to assemble one. The
//! type alias [`policy::CohmeleonPolicy`] pins the paper-default
//! composition and is bit-identical to the pre-redesign hardwired agent
//! (golden structural-hash and Q-table TSV tests hold it to that).
//!
//! On top of the component axes sits the orchestration layer
//! ([`router`]): a [`router::PolicyRouter`] owns one or more agents
//! keyed by an [`router::AgentScope`] — one global agent (the paper),
//! one per accelerator kind, or one per instance — and routes every
//! `decide`/`observe` to the sub-agent owning the invocation. Reward
//! weights enter the same composition through
//! [`agent::AgentBuilder::reward_weights`], making "which reward" and
//! "which scope" sweepable axes alongside the three component choices.
//!
//! # Example
//!
//! ```
//! use cohmeleon_core::policy::{CohmeleonPolicy, Policy};
//! use cohmeleon_core::qlearn::LearningSchedule;
//! use cohmeleon_core::reward::{InvocationMeasurement, RewardWeights};
//! use cohmeleon_core::snapshot::{ArchParams, SystemSnapshot};
//! use cohmeleon_core::{AccelInstanceId, ModeSet, PartitionId};
//!
//! let arch = ArchParams::new(32 * 1024, 256 * 1024, 2);
//! let mut policy = CohmeleonPolicy::new(
//!     RewardWeights::paper_default(),
//!     LearningSchedule::paper_default(10),
//!     7, // RNG seed
//! );
//!
//! // Sense: nothing else is running; a 16 KiB invocation targets partition 0.
//! let snapshot = SystemSnapshot::new(arch, vec![], 16 * 1024, vec![PartitionId(0)]);
//! let decision = policy.decide(&snapshot, ModeSet::all(), AccelInstanceId(0));
//!
//! // ... the system runs the accelerator with `decision.mode` ...
//! let measurement = InvocationMeasurement {
//!     total_cycles: 100_000,
//!     accel_active_cycles: 90_000,
//!     accel_comm_cycles: 30_000,
//!     offchip_accesses: 64.0,
//!     footprint_bytes: 16 * 1024,
//! };
//! policy.observe(AccelInstanceId(0), &decision, &measurement);
//! ```

pub mod agent;
pub mod error;
pub mod explore;
pub mod frozen;
pub mod manual;
pub mod modes;
pub mod policy;
pub mod qlearn;
pub mod reward;
pub mod router;
pub mod snapshot;
pub mod space;
pub mod state;
pub mod status;
pub mod update;
pub mod value;

pub use agent::{AgentBuilder, CohmeleonPolicy, LearnedPolicy};
pub use error::CoreError;
pub use explore::{EpsilonGreedy, ExplorationStrategy, SelectCtx, Softmax, Ucb1};
pub use frozen::{FrozenPolicy, FrozenSnapshot, FrozenTable};
pub use modes::{CoherenceMode, ModeSet};
pub use policy::{Decision, Policy};
pub use router::{AgentScope, PolicyRouter, ScopeKey};
pub use snapshot::{ActiveAccel, ArchParams, SystemSnapshot};
pub use space::{CoarseSpace, ExtendedSpace, StateSpace, Table3Space};
pub use state::State;
pub use update::{BlendUpdate, DiscountedUpdate, UpdateRule};
pub use value::QTable;

/// Identifies a *kind* of accelerator (e.g. "FFT", "GEMM", or a particular
/// traffic-generator configuration). Used by design-time policies that fix a
/// mode per accelerator type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct AccelKindId(pub u16);

/// Identifies one physical accelerator instance in the SoC (one accelerator
/// tile). The reward history of Section 4.2 is kept per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct AccelInstanceId(pub u16);

/// Identifies one memory partition: an LLC slice plus its dedicated DRAM
/// controller and channel (one "memory tile" in ESP terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct PartitionId(pub u16);

impl std::fmt::Display for AccelKindId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kind{}", self.0)
    }
}

impl std::fmt::Display for AccelInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acc{}", self.0)
    }
}

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mem{}", self.0)
    }
}
