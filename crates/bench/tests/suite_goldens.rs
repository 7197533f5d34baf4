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
//! every non-paper agent composition is anchored end to end too, and so
//! are the `paper` grid (Figure 9) and the `fig5`, `fig6` and `ablation`
//! grids.

use std::sync::OnceLock;

use cohmeleon_bench::figures::{fig9, learner_ablation};
use cohmeleon_bench::sweeps::named_experiment;
use cohmeleon_bench::tracked::{soc6_params, suite_grid, SEED, TRAIN_ITERATIONS};
use cohmeleon_bench::Scale;
use cohmeleon_core::policy::CohmeleonPolicy;
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::router::{AgentScope, PolicyRouter};
use cohmeleon_exp::{
    CellRecord, CellResult, Experiment, PolicySpec, Serial, SweepGrid, WorkStealing,
};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

/// The records of the fast-scale `paper` grid, run once for every test
/// that reads them.
fn paper_records() -> &'static [CellRecord] {
    static RECORDS: OnceLock<Vec<CellRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        named_experiment("paper", Scale::Fast)
            .expect("paper is a named grid")
            .build()
            .expect("paper grid is non-empty")
            .collect_records(&WorkStealing::new())
    })
}

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
    let got = hashes(&suite_grid(
        soc1(),
        &GeneratorParams::quick(),
        TRAIN_ITERATIONS,
    ));
    for h in &got {
        println!("soc1 {h:#018x}");
    }
    assert_eq!(
        got,
        vec![
            0x987c_ae79_cfe3_cc73,
            0xe235_0979_6cec_0fca,
            0x49cb_7da5_f241_9441
        ],
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
        vec![
            0x66a6_1b52_9cb7_62f2,
            0x193c_f5ec_ba4b_191c,
            0x7708_82f6_7f86_feb9
        ],
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
            let router = PolicyRouter::new(AgentScope::Global, seed, move |_, seed| {
                Box::new(CohmeleonPolicy::new(
                    RewardWeights::paper_default(),
                    iters,
                    seed,
                ))
            });
            Box::new(router.with_label("cohmeleon"))
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

/// The hashes of the named grid `name` at `COHMELEON_FAST` scale, every
/// cell in dense order, printed for regeneration.
fn named_hashes(name: &str) -> Vec<u64> {
    let grid = named_experiment(name, Scale::Fast)
        .expect("a named grid")
        .build()
        .expect("named grids are non-empty");
    let got = hashes(&grid);
    for h in &got {
        println!("{name} {h:#018x}");
    }
    got
}

/// The `scoped` grid: the paper composition under every agent scope ×
/// {paper, balanced} weights, so the per-kind and per-instance routers
/// are anchored end to end.
#[test]
fn scoped_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("scoped"),
        vec![
            0x8e67_999d_d3d9_3153, // global/paper (cohmeleon)
            0x8e67_999d_d3d9_3153, // global/balanced
            0x7d9f_ffde_6d5c_1ec6, // per-kind/paper
            0x7d9f_ffde_6d5c_1ec6, // per-kind/balanced
            0x7d9f_ffde_6d5c_1ec6, // per-instance/paper
            0x7d9f_ffde_6d5c_1ec6, // per-instance/balanced
        ],
        "scoped grid moved — agent routing changed behaviour"
    );
}

/// The `weights` grid: {global, per-kind} × every weight preset.
#[test]
fn weights_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("weights"),
        vec![
            0x8565_2121_5b62_2c15, // global/paper (cohmeleon)
            0x8565_2121_5b62_2c15, // global/exec
            0x8565_2121_5b62_2c15, // global/balanced
            0x833f_d5a4_eb47_e735, // global/mem-heavy
            0xe5cf_bb18_4363_a739, // global/mem
            0x6d6f_3bf5_dbb5_3e2a, // per-kind/paper
            0x6d6f_3bf5_dbb5_3e2a, // per-kind/exec
            0x6d6f_3bf5_dbb5_3e2a, // per-kind/balanced
            0x6d6f_3bf5_dbb5_3e2a, // per-kind/mem-heavy
            0x6d6f_3bf5_dbb5_3e2a, // per-kind/mem
        ],
        "weights grid moved — a reweighted agent changed behaviour"
    );
}

/// The `calibration` grid: the ε-greedy paper agent, Softmax at four τ₀
/// and UCB1 at three c, over seeds 1–3 (seed-minor).
#[test]
fn calibration_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("calibration"),
        vec![
            // cohmeleon
            0x79c7_e449_3db4_d534,
            0x33d7_5e52_4aec_b71f,
            0x14e1_d999_d9c9_5164,
            // softmax-t0.05
            0x19d1_830b_32ff_b7d3,
            0x33d7_5e52_4aec_b71f,
            0x1c5c_a3a4_50c3_ed5e,
            // softmax-t0.1
            0x79c7_e449_3db4_d534,
            0x33d7_5e52_4aec_b71f,
            0x1c5c_a3a4_50c3_ed5e,
            // softmax-t0.2
            0x33d7_5e52_4aec_b71f,
            0x33d7_5e52_4aec_b71f,
            0x6d66_7396_0b20_3952,
            // softmax-t0.4
            0x33d7_5e52_4aec_b71f,
            0x49cb_7da5_f241_9441,
            0x8c60_5157_94de_06cb,
            // ucb1-c0.5
            0x3ac1_da7a_9480_fa66,
            0x3ac1_da7a_9480_fa66,
            0x33d7_5e52_4aec_b71f,
            // ucb1-c1.414
            0x3ac1_da7a_9480_fa66,
            0x3ac1_da7a_9480_fa66,
            0x33d7_5e52_4aec_b71f,
            // ucb1-c2
            0x3ac1_da7a_9480_fa66,
            0x3ac1_da7a_9480_fa66,
            0x33d7_5e52_4aec_b71f,
        ],
        "calibration grid moved — an exploration constant changed behaviour"
    );
}

/// The `fig5` grid: the Figure 5 app on SoC0 under the eight paper
/// policies. Recorded from `fig5::experiment` before the grid was named.
#[test]
fn fig5_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("fig5"),
        vec![
            0x44ab_7d88_f9e0_a3a7, // fixed-non-coh-dma
            0x8b59_6346_00a1_eaad, // fixed-llc-coh-dma
            0xdc07_e532_c9a2_fc0b, // fixed-coh-dma
            0xb320_ebf5_cafd_f998, // fixed-full-coh
            0x2314_164c_9432_c716, // rand
            0x6b62_ecc0_d9ca_1d29, // fixed-hetero
            0x3396_b19d_a6c4_c088, // manual
            0x0296_b331_ea98_b581, // cohmeleon
        ],
        "fig5 grid moved — modeled behaviour changed"
    );
}

/// The `fig6` grid: the seven baselines and, at fast scale, the first
/// four reward-weight variants. Recorded from `fig6::experiment` before
/// the grid was named.
#[test]
fn fig6_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("fig6"),
        vec![
            0x3d09_5967_d7e7_5792, // fixed-non-coh-dma
            0x54e7_2cc9_a5c9_f305, // fixed-llc-coh-dma
            0x9229_b1b7_fb17_56cb, // fixed-coh-dma
            0xbc17_9f44_5250_ec66, // fixed-full-coh
            0x7008_6e6a_00fe_c426, // rand
            0x2854_b9c2_3e06_73c9, // fixed-hetero
            0xde63_9f2a_af2c_1a1f, // manual
            0x5268_ecdd_85ad_7ec6, // cohmeleon(67.5/7.5/25)
            0x23f9_a6d5_9ddc_5b43, // cohmeleon(12.5/12.5/75)
            0x38c0_2aa2_6d85_762f, // cohmeleon(100/0/0)
            0x83f1_dddd_c0b5_3058, // cohmeleon(75/25/0)
        ],
        "fig6 grid moved — a reward-weight variant changed behaviour"
    );
}

/// The `ablation` grid: the full system and its three ablated arms.
/// Recorded from `ablation::experiment` before the grid was named.
#[test]
fn ablation_grid_hashes_are_golden() {
    assert_eq!(
        named_hashes("ablation"),
        vec![
            0x7fa0_463e_3ef7_3bae, // full system
            0x110c_a5e2_b001_464b, // no coherent-DMA support
            0x7fa0_463e_3ef7_3bae, // oracle off-chip attribution
            0x63f1_59df_19dc_6770, // greedy training
        ],
        "ablation grid moved — an ablated arm changed behaviour"
    );
}

/// The `paper` grid (Figure 9) at `COHMELEON_FAST` scale: eight SoCs × the
/// eight policies, every cell in dense order. The hashes were recorded
/// from `fig9`'s own grid before Figure 9 became the `paper` grid, which
/// must not matter. They do not depend on the executor
/// (`crates/exp/tests/grid_determinism.rs` pins that).
#[test]
fn paper_grid_hashes_are_golden() {
    let records = paper_records();
    let got: Vec<u64> = records.iter().map(|r| r.structural_hash).collect();
    for h in &got {
        println!("paper {h:#018x}");
    }
    assert_eq!(
        got,
        vec![
            // SoC0-streaming
            0xf208_6445_ca40_bb4e, // fixed-non-coh-dma
            0x5fa3_d6bc_5e31_135d, // fixed-llc-coh-dma
            0x996e_d09b_8f34_9bc8, // fixed-coh-dma
            0xd345_6fce_638a_e89a, // fixed-full-coh
            0x51d0_a5ef_28ee_521e, // rand
            0x996e_d09b_8f34_9bc8, // fixed-hetero
            0xc26b_3ff0_c1ad_f3ea, // manual
            0x958b_043d_4fc4_9867, // cohmeleon
            // SoC0-irregular
            0x1e79_7e5e_a7d0_b05f, // fixed-non-coh-dma
            0x2b88_2979_0f43_db51, // fixed-llc-coh-dma
            0x6df1_b0e2_4185_0cb3, // fixed-coh-dma
            0xb5bf_2131_77af_c764, // fixed-full-coh
            0x6bab_559f_fe09_e6d0, // rand
            0x6df1_b0e2_4185_0cb3, // fixed-hetero
            0x7f4d_8eed_b407_f1c3, // manual
            0x4bc3_0c9c_0030_41e1, // cohmeleon
            // SoC1
            0x5b78_2030_af5f_e083, // fixed-non-coh-dma
            0xd0ff_da3b_c221_55bd, // fixed-llc-coh-dma
            0x1312_ae12_9aff_029f, // fixed-coh-dma
            0xfc8e_47f4_3690_6a2b, // fixed-full-coh
            0xac62_4a0a_9a19_d5e5, // rand
            0xee4b_ba3c_1dbf_da98, // fixed-hetero
            0x1849_49e4_8fea_7ae3, // manual
            0xfce2_f910_4bdc_c138, // cohmeleon
            // SoC2
            0xbf08_f50d_cbc4_0e9a, // fixed-non-coh-dma
            0xc20d_691f_54fc_debb, // fixed-llc-coh-dma
            0x96d9_1c0d_b311_4f6f, // fixed-coh-dma
            0x70a1_8a83_2196_2356, // fixed-full-coh
            0x0005_189c_1746_a1b5, // rand
            0xc5e4_75e7_79c3_99f9, // fixed-hetero
            0x096d_8a0c_644e_5e50, // manual
            0x69dc_a705_1c62_7af4, // cohmeleon
            // SoC3
            0xcd94_ab3e_e410_4879, // fixed-non-coh-dma
            0x28bf_3bd8_f182_ab7a, // fixed-llc-coh-dma
            0x5e96_310d_8a90_32f9, // fixed-coh-dma
            0x921f_5e77_ed6d_bd67, // fixed-full-coh
            0xd427_2b33_4666_e062, // rand
            0x5e96_310d_8a90_32f9, // fixed-hetero
            0x2cba_0fe6_9d6c_f835, // manual
            0xb863_3941_f4ee_80d5, // cohmeleon
            // SoC4
            0xad7e_971d_8d44_a158, // fixed-non-coh-dma
            0x46c4_f303_1447_55c5, // fixed-llc-coh-dma
            0xa085_8d10_1c6e_f574, // fixed-coh-dma
            0x74a7_7698_0a91_2a70, // fixed-full-coh
            0xa63c_109d_676a_6647, // rand
            0xa20b_0f2d_e60f_1555, // fixed-hetero
            0xe38a_b705_3c26_5e55, // manual
            0xf67a_0d9b_0c25_9300, // cohmeleon
            // SoC5
            0xb997_0485_4352_4c84, // fixed-non-coh-dma
            0xbceb_d80d_32dc_deb3, // fixed-llc-coh-dma
            0x1ef5_0f2f_b5db_67e2, // fixed-coh-dma
            0xcded_eb7d_f4e4_b626, // fixed-full-coh
            0xb31f_1095_ce3c_1960, // rand
            0xdaa9_3db8_6d43_e6b0, // fixed-hetero
            0x650c_d84a_830a_0192, // manual
            0xd219_ee9f_ad7e_a536, // cohmeleon
            // SoC6
            0x86dc_0e99_56e6_4fb6, // fixed-non-coh-dma
            0x6134_8ed5_fec3_933f, // fixed-llc-coh-dma
            0x6159_ca3f_2ae0_4024, // fixed-coh-dma
            0x74d1_ab31_f2a9_fcd5, // fixed-full-coh
            0xdfe1_90ca_6222_e13b, // rand
            0x6159_ca3f_2ae0_4024, // fixed-hetero
            0xd7d3_f84c_d7b2_0ed5, // manual
            0x461b_5f77_3fd1_a4e6, // cohmeleon
        ],
        "paper grid moved — Figure 9's cells changed behaviour"
    );
    let data = fig9::from_records(records);
    assert_eq!(data.socs().len(), 8);
    assert_eq!(data.points.len(), 64);
}

/// Each per-phase oracle is at least as fast as every policy it picks
/// from, on every SoC, and the oracle over more policies has the higher
/// ceiling.
#[test]
fn paper_grid_ceilings_bound_their_candidates() {
    let data = fig9::from_records(paper_records());
    assert_eq!(data.ceilings.len(), fig9::ORACLES.len());
    for (ceiling, (oracle, candidates)) in data.ceilings.iter().zip(fig9::ORACLES) {
        assert_eq!(ceiling.oracle, oracle);
        assert_eq!(ceiling.points.len(), 8);
        for point in &ceiling.points {
            for kind in candidates {
                let candidate = data
                    .soc(&point.soc)
                    .into_iter()
                    .find(|p| p.policy == kind.label())
                    .expect("every candidate has a point");
                assert!(
                    point.norm_time <= candidate.norm_time,
                    "{oracle} on {}: {} > {} of {}",
                    point.soc,
                    point.norm_time,
                    candidate.norm_time,
                    kind.label()
                );
            }
        }
    }
    assert!(data.ceilings[1].speedup >= data.ceilings[0].speedup);
}
