//! # cohmeleon-fleet
//!
//! The multi-host sweep coordinator: a **queen** process owns a named
//! grid and its checkpoint file, listens on TCP, and leases contiguous
//! runs of dense cell indices to **worker** processes, which rebuild the
//! grid deterministically from its registry name, simulate their leased
//! cells, and stream each completed [`CellRecord`](cohmeleon_exp::CellRecord)
//! back as the JSONL line the checkpoint layer already speaks.
//!
//! The design leans entirely on invariants the workspace already
//! enforces, which is what keeps the protocol small (five verbs over
//! `std::net` — no async runtime, no serialization framework):
//!
//! * **Cells are pure functions of their coordinates**, so a worker needs
//!   only `(grid name, fast flag, dense index)` to produce the exact
//!   bytes a local run would.
//! * **Duplicates are free**, so fault tolerance is *speculative
//!   re-lease*: a lease silent past its TTL is carved into a twin lease
//!   for another worker, first completion wins, and
//!   [`Checkpoint::ingest`](cohmeleon_exp::Checkpoint::ingest) — the
//!   exactly-once rule a local resume applies to its file — collapses
//!   the byte-identical duplicate (a *conflicting* duplicate aborts the
//!   run — that means determinism broke).
//! * **The checkpoint layer is crash-proof**, so queen durability is
//!   inherited: every accepted record is appended through the same
//!   fsync-per-line [`CheckpointWriter`](cohmeleon_exp::CheckpointWriter)
//!   discipline, a killed queen restarted on the same file resumes
//!   exactly like a killed local sweep, and a completed grid is
//!   finalised to the canonical stream — byte-identical to a clean
//!   serial run, however many workers, kills, and re-leases happened.
//!
//! Those invariants are not just documented — they are soak-tested:
//! both `run_queen` and `run_worker` accept an optional
//! [`FaultPlan`](cohmeleon_chaos::FaultPlan) that wraps their sockets in
//! a seeded fault-injecting transport (split writes, stalls, abrupt
//! resets, duplicated `RECORD`s, reordered heartbeats), and the
//! `chaos_soak` harness in `cohmeleon-bench` asserts finalized
//! checkpoints stay byte-identical to a clean serial run across seeded
//! schedules. See the "Chaos testing" section of `docs/ARCHITECTURE.md`.
//!
//! The same queen serves one machine: [`run_local`] binds it to a
//! loopback port, spawns worker processes against it and reaps them —
//! the whole multi-process path of `sweep shard`.
//!
//! See the "Fleet" section of `docs/ARCHITECTURE.md` for the message
//! table and coordination diagram, and `cohmeleon-bench`'s `sweep queen`
//! / `sweep worker` / `sweep shard` subcommands for the CLI entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lease;
pub mod protocol;
pub mod queen;
pub mod worker;

pub use lease::{Grant, Lease, LeaseStat, LeaseTable};
pub use protocol::{LineReader, ToQueen, ToWorker, PROTOCOL_VERSION};
pub use queen::{run_local, run_queen, QueenOptions, QueenReport};
pub use worker::{run_worker, WorkerOptions, WorkerReport};
