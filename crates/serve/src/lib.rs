//! Online decision serving: frozen policy tables behind a batched
//! network API, hot-swappable without pausing traffic.
//!
//! The simulator trains and freezes Q-tables; deployment-shaped use wants
//! those decisions *served* — many SoC clients asking one process "which
//! coherence mode here?" at high rate, with the table promotable to a
//! newer checkpoint mid-traffic. This crate is that runtime, built like
//! the fleet on `std::net` alone:
//!
//! * [`protocol`] — the `serve/1` line protocol: `HELLO`, batched
//!   `DECIDE`, `SWAP`, `STAT`, `SHUTDOWN`.
//! * [`server`] — [`run_server`]: one handler thread per connection; each
//!   `DECIDE` batch clones the live table's `Arc` once under a read lock,
//!   so it is answered from exactly one table version, and a `SWAP`
//!   installs a new version with one assignment under the write lock.
//! * [`client`] — [`ServeClient`] plus [`RemotePolicy`], a [`Policy`]
//!   adapter proving a simulation can outsource its decide phase and stay
//!   bit-identical to local frozen dispatch.
//! * [`loadgen`] — [`run_load`]: N verifying clients with per-batch
//!   latency tracked in a [`LogHistogram`].
//! * [`histogram`] — log-bucket p50/p99/p999 without keeping samples.
//!
//! [`Policy`]: cohmeleon_core::Policy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod histogram;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{RemotePolicy, ServeClient, ServerStat};
pub use histogram::LogHistogram;
pub use loadgen::{run_load, LoadOptions, LoadReport, SwapPlan};
pub use protocol::{Query, ToClient, ToServer, PROTOCOL_VERSION};
pub use server::{run_server, ServeOptions, ServerReport};
