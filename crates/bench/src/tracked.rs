//! The *tracked* suites: fixed, fully deterministic grids whose per-cell
//! structural hashes and deterministic op counts are pinned by tests.
//! `crates/bench/tests/suite_goldens.rs` pins every cell's hash, and
//! `crates/bench/tests/walk_modes.rs` pins the soc6 suite's events,
//! invocations, cycles and tag-array scan counts under both walk modes.
//! These pins are what let hot-path refactors — flat-state sensing,
//! batched event draining, cache layout changes — land with proof that
//! modeled behaviour did not move by a single bit. Wall-clock time is
//! measured by the repository benchmark (`perfbench/`), not here.

use cohmeleon_exp::{Experiment, SweepGrid};
use cohmeleon_soc::SocConfig;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::sizes::SizeClass;

use crate::policies::PolicyKind;

/// Policies in the fixed suites, in run order.
pub const SUITE: [PolicyKind; 3] =
    [PolicyKind::FixedNonCoh, PolicyKind::Manual, PolicyKind::Cohmeleon];
/// Train iterations per learning cell of the tracked suites.
pub const TRAIN_ITERATIONS: usize = 2;
/// The tracked suites' single grid seed.
pub const SEED: u64 = 7;

/// The generator preset of the soc6-scale suite: Large/Extra-Large
/// datasets against soc6's LLC, so recalls, evictions and DRAM bursts
/// dominate (the cache-thrashing regime the quick suite never enters).
pub fn soc6_params() -> GeneratorParams {
    GeneratorParams {
        phases: 2,
        threads: (2, 4),
        chain_len: (1, 2),
        loops: (1, 2),
        size_mix: vec![SizeClass::Large, SizeClass::ExtraLarge],
        check_per_mille: 250,
    }
}

/// Builds the tracked single-seed suite grid for one SoC.
pub fn suite_grid(
    config: SocConfig,
    params: &GeneratorParams,
    train_iterations: usize,
) -> SweepGrid {
    let train = generate_app(&config, params, 1);
    let test = generate_app(&config, params, 2);
    Experiment::train_test(config, train, test)
        .policy_kinds(SUITE)
        .seed(SEED)
        .train_iterations(train_iterations)
        .build()
        .expect("tracked suite is non-empty")
}
