//! Deterministic network fault injection for the fleet and serve wire
//! protocols.
//!
//! The fleet queen/worker pair and the serve server/client pair both
//! speak newline-delimited text over `std::net::TcpStream` and both
//! claim strong invariants under network misbehavior: the fleet's
//! exactly-once checkpoint keeps finalized checkpoints byte-identical to a
//! clean serial run through worker kills and stalls, and serve's atomic
//! hot swap never lets a client observe a torn table. This crate turns
//! those claims into something a soak harness can pound on: a seeded
//! [`FaultPlan`] wraps each socket in a [`FaultyTransport`] that injects
//! faults — partial writes split across delayed chunks, read stalls past
//! the poll timeout, abrupt connection resets at chosen byte offsets,
//! duplicated fire-and-forget deliveries (`RECORD`/`DECIDE`), reordered
//! heartbeats — from its own deterministic RNG stream.
//!
//! Determinism is the whole point: every injected fault is logged as a
//! [`FaultEvent`] carrying its `(seed, conn, op)` coordinate, where
//! `conn` is the order the plan wrapped connections and `op` counts this
//! connection's transport calls. Re-running the same schedule with the
//! same seed replays the same fault decisions at the same coordinates,
//! so any failure a chaos soak finds is reproducible from one integer.
//!
//! What gets injected is role-aware (see [`Role`]): only lines the
//! protocols declare duplicate/reorder-safe are ever duplicated or
//! reordered (the fleet checkpoint dedups `RECORD`s, lease release and
//! heartbeat are idempotent; a duplicated serve `DECIDE` earns a second
//! reply the client must drain and may verify), and stalls surface as
//! synthetic [`WouldBlock`](std::io::ErrorKind::WouldBlock) on the
//! polling sides (queen, server) but as real bounded sleeps on the
//! blocking sides (worker, client).
//!
//! `FaultPlan` is always optional at the call sites
//! (`Option<FaultPlan>`): `None` constructs a [`FaultyTransport`] that
//! is a plain passthrough around the socket with no lock, no RNG and no
//! logging — the production path stays the production path.
//!
//! Every socket either protocol frames is a [`FaultyTransport`], so the
//! rest of their shared wire layer lives here too: the worker's and the
//! client's [`connect_with_retry`] and [`sanitize_name`], the
//! timeout-safe [`LineReader`] both sides read lines with, and the
//! [`AcceptWaker`] that ends the queen's and the server's blocking accept
//! loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod transport;
mod wire;

pub use plan::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, Role};
pub use transport::FaultyTransport;
pub use wire::{connect_with_retry, sanitize_name, AcceptWaker, LineReader};
