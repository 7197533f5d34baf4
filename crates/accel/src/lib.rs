//! # cohmeleon-accel
//!
//! Accelerator models for the Cohmeleon reproduction.
//!
//! The paper observes that, from the viewpoint of the rest of the SoC, a
//! fixed-function loosely-coupled accelerator is characterised by its
//! *communication properties*: access pattern (streaming, strided,
//! irregular), DMA burst length, compute duration, data-reuse factor,
//! read-to-write ratio, stride length, access fraction and in-place storage
//! (Section 5, "Traffic-Generator"). This crate implements exactly that
//! characterisation:
//!
//! * [`profile::AccelProfile`] — the parameter space of the
//!   paper's traffic generator.
//! * [`catalog`](mod@catalog) — the 12 named ESP accelerators of Table 2 (Autoencoder …
//!   Viterbi) as calibrated points in that space, plus traffic-generator
//!   preset families (streaming / irregular / mixed) used by the SoC0–SoC3
//!   experiments.
//! * [`schedule`] — expansion of a (profile, footprint) pair into the
//!   deterministic sequence of DMA bursts and compute phases that the SoC
//!   simulator executes, streamed: an iterator with O(1) state that the
//!   engine pulls each burst from as it issues it.
//!
//! Accelerators here are designed "with no notion of coherence" (paper,
//! Section 3): a schedule only says *what* to read and write; the SoC's
//! socket decides how those requests traverse the memory hierarchy based on
//! the coherence mode selected at invocation time.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod profile;
pub mod schedule;
pub mod table2;

pub use catalog::{catalog, AccelSpec};
pub use profile::{AccelProfile, AccessPattern};
pub use schedule::{BurstOp, BurstSchedule};
