//! The repository benchmark: end-to-end metrics of five workloads with
//! tracing off, and per-layer metrics from a separate traced run. See
//! `README.md` in this directory for the workloads, the metric
//! vocabulary and which layer metric should move which end-to-end one.
//!
//! The benchmark touches no simulator code: it times the public calls
//! into each layer from its own files and reads the deterministic
//! counters `AppResult` already returns.

pub mod fleet;
pub mod pins;
pub mod report;
pub mod run;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;
