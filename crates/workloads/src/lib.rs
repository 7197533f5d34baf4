//! # cohmeleon-workloads
//!
//! Evaluation applications for the Cohmeleon reproduction, mirroring
//! Section 5 of the paper:
//!
//! * [`sizes`] — the Small / Medium / Large / Extra-Large workload classes,
//!   defined relative to the target SoC's cache capacities.
//! * [`generator`] — the randomly-configured multithreaded evaluation
//!   application (phases × threads × accelerator chains), used for both
//!   training and testing instances.
//! * [`phases`] — the four named phases of Figure 5.
//! * [`case_studies`] — domain applications for the case-study SoCs:
//!   mixed multi-application (SoC4), collaborative autonomous vehicles
//!   (SoC5) and the computer-vision pipeline (SoC6).
//! * [`appconfig`] — the configuration-file format for application specs
//!   ("the application phases and parameters are specified using a
//!   configuration file").
//! * [`runner`] — the train-then-test experiment protocol and metric
//!   normalization helpers shared by the figure harnesses.

#![forbid(unsafe_code)]

pub mod appconfig;
pub mod case_studies;
pub mod generator;
pub mod phases;
pub mod runner;
pub mod sizes;

pub use generator::{generate_app, GeneratorParams};
pub use runner::{evaluate_policy, run_protocol, PolicyOutcome};
pub use sizes::SizeClass;
