//! Golden per-cell structural hashes of the tracked suites.
//!
//! The soc1 × quick and soc6 × large/extra-large grids pin every cell's
//! structural hash so hot-path work — the flat-state sense path,
//! equal-timestamp event draining, cache layout changes — fails loudly if
//! it moves modeled behaviour by a single bit. The constants were
//! recorded from the per-pop, map-shaped reference implementation (print
//! them with `--nocapture` after an *intentional* model change to
//! regenerate). These run under the default run-level tag walk;
//! `tests/walk_modes.rs` replays both suites under `WalkMode::PerLine`
//! and pins the same hashes, so both walk modes are anchored to the same
//! recorded machine. The learner-ablation grid is pinned the same way, so
//! every non-paper agent composition is anchored end to end too.

use cohmeleon_bench::figures::learner_ablation;
use cohmeleon_bench::tracked::{soc6_params, suite_grid, SEED, TRAIN_ITERATIONS};
use cohmeleon_bench::Scale;
use cohmeleon_core::agent::AgentBuilder;
use cohmeleon_exp::{CellResult, Experiment, PolicySpec, Serial, SweepGrid};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn hashes(grid: &SweepGrid) -> Vec<u64> {
    let mut out = vec![0u64; grid.num_cells()];
    grid.execute(&Serial, &mut |result: CellResult| {
        out[grid.cell_index(result.cell)] = result.result.structural_hash();
    });
    out
}

/// soc1 × quick, [fixed-non-coh-dma, manual, cohmeleon]. The cohmeleon
/// cell's hash equals the agent-stack golden in `tests/learning.rs` —
/// the same protocol through a different entry point.
#[test]
fn soc1_quick_suite_hashes_are_golden() {
    let got = hashes(&suite_grid(soc1(), &GeneratorParams::quick(), TRAIN_ITERATIONS));
    for h in &got {
        println!("soc1 {h:#018x}");
    }
    assert_eq!(
        got,
        vec![0x987c_ae79_cfe3_cc73, 0xe235_0979_6cec_0fca, 0x49cb_7da5_f241_9441],
        "soc1 suite moved — modeled behaviour changed"
    );
}

/// soc6 × large/extra-large (the cache-thrashing regime), same policy
/// order.
#[test]
fn soc6_large_suite_hashes_are_golden() {
    let got = hashes(&suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS));
    for h in &got {
        println!("soc6 {h:#018x}");
    }
    assert_eq!(
        got,
        vec![0x66a6_1b52_9cb7_62f2, 0x193c_f5ec_ba4b_191c, 0x7708_82f6_7f86_feb9],
        "soc6 suite moved — modeled behaviour changed"
    );
}

/// Agent orchestration is invisible in the Global configuration: the
/// soc1 × quick suite's cohmeleon cell, built through the
/// `PolicySpec::custom` grid path with the agent routed through a Global
/// `PolicyRouter`, hashes exactly like the bare agent's golden above.
#[test]
fn global_routed_cohmeleon_matches_the_bare_golden() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let grid = Experiment::train_test(config, train, test)
        .policy(PolicySpec::custom("cohmeleon", |_, iters, seed| {
            Box::new(
                AgentBuilder::paper(iters, seed)
                    .label("cohmeleon")
                    .build_routed(),
            )
        }))
        .seed(SEED)
        .train_iterations(TRAIN_ITERATIONS)
        .build()
        .expect("routed suite is non-empty");
    assert_eq!(
        hashes(&grid),
        vec![0x49cb_7da5_f241_9441],
        "Global-routed cohmeleon differs from the bare agent"
    );
}

/// The `learners` grid at `COHMELEON_FAST` scale (soc1, 18 compositions of
/// state space × exploration × update rule, `cohmeleon` first), every cell
/// in grid order. These hashes were recorded when 17 of the cells still ran
/// on a sparse map instead of the dense Q-table, which must not matter.
#[test]
fn learners_grid_hashes_are_golden() {
    let grid = learner_ablation::experiment(Scale::Fast)
        .build()
        .expect("learners grid is non-empty");
    let got = hashes(&grid);
    for h in &got {
        println!("learners {h:#018x}");
    }
    assert_eq!(
        got,
        vec![
            0x24af_2eee_d227_c894, // cohmeleon
            0x24af_2eee_d227_c894, // coarse/eps-greedy/blend
            0x24af_2eee_d227_c894, // coarse/eps-greedy/discounted
            0x29ec_6d45_715a_07f6, // coarse/softmax/blend
            0x29ec_6d45_715a_07f6, // coarse/softmax/discounted
            0xb80c_274a_f2cb_db25, // coarse/ucb1/blend
            0xd15c_2d27_cee3_99af, // coarse/ucb1/discounted
            0x24af_2eee_d227_c894, // table3/eps-greedy/discounted
            0x29ec_6d45_715a_07f6, // table3/softmax/blend
            0x29ec_6d45_715a_07f6, // table3/softmax/discounted
            0xb80c_274a_f2cb_db25, // table3/ucb1/blend
            0xd15c_2d27_cee3_99af, // table3/ucb1/discounted
            0x057b_d047_6e52_27f1, // extended/eps-greedy/blend
            0x4851_cb21_31ba_9bb0, // extended/eps-greedy/discounted
            0x0d65_38f1_e673_e927, // extended/softmax/blend
            0x0d65_38f1_e673_e927, // extended/softmax/discounted
            0x64ba_1897_3dee_1a2d, // extended/ucb1/blend
            0x40f0_de77_42c0_ec16, // extended/ucb1/discounted
        ],
        "learners grid moved — an agent composition changed behaviour"
    );
}
