//! # cohmeleon-cache
//!
//! The cache-hierarchy substrate of the Cohmeleon reproduction: private L2
//! caches with MESI states, directory-based LLC partitions with inclusion,
//! and the protocol paths behind the four accelerator coherence modes of the
//! paper (Section 2):
//!
//! * **fully-coherent** and processor traffic —
//!   [`CoherenceController::l2_access`]: full MESI through a private cache,
//!   with directory recalls/invalidations and inclusive back-invalidation.
//! * **coherent DMA** — [`CoherenceController::coh_dma_access`]: requests to
//!   the LLC under full hardware coherence; the LLC recalls lines owned by
//!   private caches (the paper's protocol extension).
//! * **LLC-coherent DMA** — [`CoherenceController::llc_coh_dma_access`]:
//!   requests to the LLC without consulting the directory; software flushed
//!   the private caches beforehand.
//! * **non-coherent DMA** — bypasses this crate entirely (straight to DRAM);
//!   software flushes both the private caches and the LLC beforehand, via
//!   [`CoherenceController::flush_l2`] / [`CoherenceController::flush_llc`].
//!
//! The crate is purely *functional*: every operation mutates the tag arrays
//! and directory and returns [`effects::AccessEffects`]
//! describing the traffic it generated (DRAM line fetches/writebacks,
//! recalls, invalidations, …). The SoC layer converts effects into simulated
//! time via the NoC and DRAM models; this separation keeps the protocol
//! logic exhaustively testable. [`CoherenceController::validate_coherence`]
//! checks the SWMR and inclusion invariants and is exercised by property
//! tests.

#![forbid(unsafe_code)]

pub mod controller;
pub mod effects;
pub mod geometry;
pub mod l2;
pub mod llc;
pub mod mesi;
pub mod tagarray;

pub use controller::{
    default_walk_mode, set_default_walk_mode, AddressMap, CacheId, CoherenceController, WalkMode,
};
pub use effects::{AccessEffects, FlushEffects};
pub use geometry::{CacheGeometry, LineAddr};
pub use mesi::MesiState;
pub use tagarray::{StripeKind, TagStats};
