//! # cohmeleon-noc
//!
//! A transaction-level model of the ESP network-on-chip used by the paper's
//! SoC prototypes: a 2D mesh with six 32-bit physical planes, one-cycle
//! latency between neighbouring routers, and XY dimension-order routing.
//!
//! Messages are modelled at burst granularity. A transfer of `n` bytes
//! occupies every link along its route for `ceil(n / flit_bytes) + 1` cycles
//! (payload flits plus a head flit), pipelined hop by hop in wormhole
//! fashion. Contention is modelled by reserving each link along the route:
//! a link remembers only the cycle it next becomes free, and a transfer
//! starts on it no earlier than that. So when several accelerators push DMA
//! bursts toward the same memory tile the shared ingress links become the
//! bottleneck — the effect behind the parallel-accelerator slowdowns of
//! Figure 3 of the paper.
//!
//! # Example
//!
//! ```
//! use cohmeleon_noc::{Coord, Noc, NocConfig, Plane};
//! use cohmeleon_sim::Cycle;
//!
//! let mut noc = Noc::new(NocConfig::new(4, 4));
//! let arrival = noc.transfer(
//!     Plane::DmaReq,
//!     Coord::new(0, 0),
//!     Coord::new(3, 2),
//!     64,          // bytes
//!     Cycle(100),  // injection time
//! );
//! assert!(arrival > Cycle(100));
//! ```

#![forbid(unsafe_code)]

pub mod mesh;
pub mod network;

pub use mesh::{Coord, Direction, Mesh};
pub use network::{Noc, NocConfig, Plane};
