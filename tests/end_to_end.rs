//! End-to-end integration tests: whole applications on whole SoCs, across
//! crates (config → machine → engine → policies → measurements).

use cohmeleon_repro::core::manual::ManualThresholds;
use cohmeleon_repro::core::policy::{CohmeleonPolicy, FixedPolicy, ManualPolicy, RandomPolicy};
use cohmeleon_repro::core::reward::RewardWeights;
use cohmeleon_repro::core::CoherenceMode;
use cohmeleon_repro::soc::config::{soc1, soc4, soc5, soc6, table4};
use cohmeleon_repro::soc::{run_app, Soc};
use cohmeleon_repro::workloads::case_studies::{soc4_app, soc5_app, soc6_app};
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_repro::workloads::runner::{evaluate_policy, run_protocol};

#[test]
fn every_table4_soc_runs_a_quick_app_under_every_mode() {
    for config in table4() {
        let app = generate_app(&config, &GeneratorParams::quick(), 3);
        for mode in CoherenceMode::ALL {
            let mut soc = Soc::new(config.clone());
            let mut policy = FixedPolicy::new(mode);
            let result = run_app(&mut soc, &app, &mut policy, 3);
            assert!(
                result.total_duration() > 0,
                "{} under {mode} produced no work",
                config.name
            );
            soc.caches()
                .validate_coherence()
                .unwrap_or_else(|e| panic!("{} under {mode}: {e}", config.name));
        }
    }
}

#[test]
fn case_study_apps_complete_with_expected_invocation_counts() {
    let cases: Vec<(_, _, usize)> = vec![
        (soc4(), soc4_app(&soc4(), 1), 3),
        (soc5(), soc5_app(&soc5(), 1), 3),
        (soc6(), soc6_app(&soc6(), 1), 3),
    ];
    for (config, app, phases) in cases {
        let mut soc = Soc::new(config.clone());
        let mut policy = ManualPolicy::new(ManualThresholds::for_arch(&config.arch_params()));
        let result = run_app(&mut soc, &app, &mut policy, 5);
        assert_eq!(result.phases.len(), phases, "{}", config.name);
        let expected: usize = app
            .phases
            .iter()
            .flat_map(|p| p.threads.iter())
            .map(|t| t.chain.len() * t.loops as usize)
            .sum();
        let actual: usize = result.phases.iter().map(|p| p.invocations.len()).sum();
        assert_eq!(actual, expected, "{}", config.name);
    }
}

#[test]
fn soc3_cacheless_accelerators_never_run_fully_coherent() {
    let config = cohmeleon_repro::soc::config::soc3();
    let app = generate_app(&config, &GeneratorParams::quick(), 9);
    let mut soc = Soc::new(config.clone());
    // Even a policy that always wants fully-coherent must fall back for the
    // five cacheless tiles.
    let mut policy = FixedPolicy::new(CoherenceMode::FullCoh);
    let result = run_app(&mut soc, &app, &mut policy, 9);
    for rec in result.invocations() {
        let tile = &config.accels[rec.accel.0 as usize];
        if !tile.has_private_cache {
            assert_ne!(
                rec.mode,
                CoherenceMode::FullCoh,
                "cacheless accelerator {} ran fully-coherent",
                rec.accel
            );
        }
    }
}

#[test]
fn trained_cohmeleon_beats_random_on_memory_traffic() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 21);
    let test = generate_app(&config, &GeneratorParams::quick(), 22);

    let mut random = RandomPolicy::new(5);
    let random_result = evaluate_policy(&config, &test, &mut random, 5);

    let mut cohmeleon = CohmeleonPolicy::new(RewardWeights::paper_default(), 6, 5);
    let cohmeleon_result = run_protocol(&config, &train, &test, &mut cohmeleon, 6, 5);

    assert!(
        (cohmeleon_result.total_offchip() as f64)
            <= random_result.total_offchip() as f64 * 1.05 + 16.0,
        "trained cohmeleon {} should not exceed random {} off-chip accesses",
        cohmeleon_result.total_offchip(),
        random_result.total_offchip()
    );
}

#[test]
fn measurements_are_internally_consistent() {
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 13);
    let mut soc = Soc::new(config.clone());
    let mut policy = ManualPolicy::new(ManualThresholds::for_arch(&config.arch_params()));
    let result = run_app(&mut soc, &app, &mut policy, 13);
    for rec in result.invocations() {
        let m = &rec.measurement;
        assert!(m.total_cycles >= m.accel_active_cycles, "{rec:?}");
        assert!(m.accel_active_cycles >= m.accel_comm_cycles, "{rec:?}");
        assert!(m.offchip_accesses >= 0.0);
        assert!(rec.end > rec.start);
        assert_eq!(
            (rec.end - rec.start).raw(),
            m.total_cycles,
            "record window must equal measured total"
        );
        assert!(rec.setup_cycles < m.total_cycles);
    }
    // Phase off-chip totals cover the per-invocation ground truth captured
    // within the phase (other traffic, e.g. data init, also contributes).
    for phase in &result.phases {
        let true_sum: u64 = phase.invocations.iter().map(|r| r.true_dram).sum();
        assert!(
            phase.offchip as f64 >= true_sum as f64 * 0.5,
            "phase {} counters {} vs invocation ground truth {}",
            phase.name,
            phase.offchip,
            true_sum
        );
    }
}

#[test]
fn per_phase_durations_sum_to_total() {
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 17);
    let mut policy = FixedPolicy::new(CoherenceMode::CohDma);
    let result = evaluate_policy(&config, &app, &mut policy, 17);
    let sum: u64 = result.phases.iter().map(|p| p.duration).sum();
    assert_eq!(sum, result.total_duration());
}
