//! Reproducibility: the whole stack is deterministic given a seed.

use cohmeleon_repro::core::policy::{CohmeleonPolicy, RandomPolicy};
use cohmeleon_repro::core::reward::RewardWeights;
use cohmeleon_repro::soc::config::{soc1, soc2};
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_repro::workloads::runner::{evaluate_policy, run_protocol};

#[test]
fn identical_seeds_give_bit_identical_results() {
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 5);
    let run = |seed: u64| {
        let mut policy = RandomPolicy::new(seed);
        evaluate_policy(&config, &app, &mut policy, 99)
    };
    assert_eq!(run(3), run(3));
}

#[test]
fn different_policy_seeds_change_random_decisions() {
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 5);
    let mut a = RandomPolicy::new(1);
    let mut b = RandomPolicy::new(2);
    let ra = evaluate_policy(&config, &app, &mut a, 99);
    let rb = evaluate_policy(&config, &app, &mut b, 99);
    let modes_a: Vec<_> = ra.invocations().map(|r| r.mode).collect();
    let modes_b: Vec<_> = rb.invocations().map(|r| r.mode).collect();
    assert_ne!(
        modes_a, modes_b,
        "different seeds should explore differently"
    );
}

#[test]
fn training_is_reproducible_end_to_end() {
    let config = soc2();
    let train = generate_app(&config, &GeneratorParams::quick(), 7);
    let test = generate_app(&config, &GeneratorParams::quick(), 8);
    let run = || {
        let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 3, 42);
        let result = run_protocol(&config, &train, &test, &mut policy, 3, 42);
        (result, policy.table().clone())
    };
    let (r1, t1) = run();
    let (r2, t2) = run();
    assert_eq!(r1, r2, "test results must match");
    assert_eq!(t1, t2, "learned Q-tables must match");
}

#[test]
fn different_app_seeds_generate_different_work() {
    let config = soc1();
    let a = generate_app(&config, &GeneratorParams::quick(), 1);
    let b = generate_app(&config, &GeneratorParams::quick(), 2);
    assert_ne!(a, b);
}

/// Golden snapshots: the structural hash of fixed runs on soc1 (per-phase
/// duration/off-chip, per-invocation mode/true_dram/start/end), pinned so
/// hot-path refactors that change *modeled* behaviour fail loudly. The
/// constants were recorded from the per-line reference implementation and
/// verified bit-identical against the batched hot paths (see
/// `crates/bench/src/bin/hashdump.rs` for regenerating them).
#[test]
fn golden_structural_hashes_on_soc1() {
    use cohmeleon_repro::core::policy::FixedPolicy;
    use cohmeleon_repro::core::CoherenceMode;

    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 5);
    let golden = [
        (CoherenceMode::NonCohDma, 0xd933_7e08_3140_3e13_u64),
        (CoherenceMode::LlcCohDma, 0x6cc0_e50e_50d0_196b),
        (CoherenceMode::CohDma, 0x5cbf_ddee_f921_6537),
        (CoherenceMode::FullCoh, 0x328c_ec1e_5e06_3699),
    ];
    for (mode, expected) in golden {
        let mut policy = FixedPolicy::new(mode);
        let result = evaluate_policy(&config, &app, &mut policy, 5);
        assert_eq!(
            result.structural_hash(),
            expected,
            "modeled behaviour changed for {mode:?} (regenerate goldens only \
             for *intentional* model changes)"
        );
    }
}
