//! # cohmeleon-soc
//!
//! The simulated SoC substrate of the Cohmeleon reproduction: the stand-in
//! for the paper's FPGA prototypes.
//!
//! * [`config`] — SoC descriptions: the seven evaluation SoCs of Table 4
//!   (`soc0()` … `soc6()`), the motivation SoCs of Section 3 and a builder
//!   for custom designs.
//! * [`params`] — every timing constant, documented against the paper.
//! * [`machine`] — the elaborated machine: NoC + MESI cache hierarchy +
//!   DRAM controllers, with the four coherence-mode memory paths.
//! * [`engine`] — the execution engine: phase/thread/chain applications
//!   with the full sense → decide → actuate → evaluate invocation flow.
//! * [`profiling`] — the offline sweep behind the fixed-heterogeneous
//!   design-time baseline.
//! * [`alloc`] — big-page dataset allocation across memory partitions.
//!
//! # Example
//!
//! ```
//! use cohmeleon_core::policy::FixedPolicy;
//! use cohmeleon_core::{AccelInstanceId, CoherenceMode};
//! use cohmeleon_soc::config::motivation_isolation_soc;
//! use cohmeleon_soc::engine::{run_app, AppSpec, PhaseSpec, ThreadSpec};
//! use cohmeleon_soc::machine::Soc;
//!
//! let mut soc = Soc::new(motivation_isolation_soc());
//! let app = AppSpec {
//!     name: "quick".into(),
//!     phases: vec![PhaseSpec {
//!         name: "one".into(),
//!         threads: vec![ThreadSpec {
//!             dataset_bytes: 16 * 1024,
//!             chain: vec![AccelInstanceId(0)],
//!             loops: 1,
//!             check_output: false,
//!         }],
//!     }],
//! };
//! let mut policy = FixedPolicy::new(CoherenceMode::CohDma);
//! let result = run_app(&mut soc, &app, &mut policy, 42);
//! assert_eq!(result.phases[0].invocations.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
pub mod config;
pub mod engine;
pub mod machine;
pub mod params;
pub mod profiling;

pub use alloc::{Allocator, Dataset};
pub use config::{AccelTile, SocConfig};
pub use engine::{
    run_app, run_app_with_options, AppResult, AppSpec, Attribution, EngineOptions,
    InvocationRecord, PhaseResult, PhaseSpec, ThreadSpec,
};
pub use machine::{AccelInfo, BurstOutcome, Soc};
pub use params::TimingParams;
pub use profiling::profile_heterogeneous;
