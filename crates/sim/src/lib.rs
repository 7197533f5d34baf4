//! # cohmeleon-sim
//!
//! Foundation of the Cohmeleon reproduction: a small, deterministic
//! discrete-event simulation toolkit.
//!
//! The Cohmeleon paper (MICRO 2021) evaluates coherence-mode selection on
//! FPGA prototypes of many-accelerator SoCs. This workspace replaces the FPGA
//! with a transaction-level simulator; this crate provides the primitives the
//! simulator is built from:
//!
//! * [`Cycle`] — a newtype for simulated clock cycles.
//! * [`EventQueue`] — a deterministic time-ordered event queue with FIFO
//!   tie-breaking for events scheduled at the same cycle.
//! * [`Resource`] — a bandwidth/occupancy reservation primitive; shared
//!   hardware (LLC ports, DRAM channels, CPUs) is modelled as resources,
//!   and queueing delay emerges from reservations made in global time order.
//! * [`SeedStream`] — reproducible per-purpose random-number streams derived
//!   from a single master seed.
//! * [`stats`] — counters and summary statistics used by the hardware
//!   monitors and the experiment harnesses.
//!
//! # Example
//!
//! ```
//! use cohmeleon_sim::{Cycle, EventQueue, Resource};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(Cycle(10), "burst-complete");
//! queue.schedule(Cycle(5), "burst-issue");
//!
//! let mut link = Resource::new("mem-link");
//! let (at, ev) = queue.pop().unwrap();
//! assert_eq!((at, ev), (Cycle(5), "burst-issue"));
//! // A 16-cycle transfer on an idle link starts immediately.
//! let grant = link.acquire(at, Cycle(16));
//! assert_eq!(grant.end, Cycle(21));
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use resource::{Grant, Resource};
pub use rng::{SeedStream, TaggedStream};
pub use time::Cycle;
