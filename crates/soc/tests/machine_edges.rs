//! Edge-case tests for the SoC machine and engine that the figure
//! experiments do not exercise directly.

use cohmeleon_core::policy::{FixedPolicy, RandomPolicy};
use cohmeleon_core::{AccelInstanceId, CoherenceMode};
use cohmeleon_soc::config::{soc2, soc3, soc5, SocConfig};
use cohmeleon_soc::{
    run_app, run_app_with_options, AppSpec, Attribution, EngineOptions, PhaseSpec, Soc, ThreadSpec,
};

fn one_thread(bytes: u64, accel: u16, loops: u32) -> AppSpec {
    AppSpec {
        name: "edge".into(),
        phases: vec![PhaseSpec {
            name: "p".into(),
            threads: vec![ThreadSpec {
                dataset_bytes: bytes,
                chain: vec![AccelInstanceId(accel)],
                loops,
                check_output: false,
            }],
        }],
    }
}

#[test]
fn one_line_dataset_runs_under_every_mode() {
    for mode in CoherenceMode::ALL {
        let mut soc = Soc::new(soc2());
        let mut policy = FixedPolicy::new(mode);
        let result = run_app(&mut soc, &one_thread(1, 0, 1), &mut policy, 1);
        assert_eq!(result.phases[0].invocations.len(), 1);
        assert!(result.phases[0].duration > 0);
        soc.caches().validate_coherence().unwrap();
    }
}

#[test]
fn dataset_larger_than_total_llc_still_completes() {
    let config = soc2(); // 1 MiB total LLC
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::FullCoh);
    let result = run_app(&mut soc, &one_thread(3 << 20, 0, 1), &mut policy, 1);
    let rec = &result.phases[0].invocations[0];
    assert!(rec.true_dram > 0, "an XL workload must spill off-chip");
    soc.caches().validate_coherence().unwrap();
}

#[test]
fn more_threads_than_cpus_serialize_software_work() {
    // SoC5 has a single CPU; eight threads must multiplex on it.
    let config = soc5();
    let app = AppSpec {
        name: "mux".into(),
        phases: vec![PhaseSpec {
            name: "p".into(),
            threads: (0..8u16)
                .map(|i| ThreadSpec {
                    dataset_bytes: 8 * 1024,
                    chain: vec![AccelInstanceId(i % 8)],
                    loops: 1,
                    check_output: true,
                })
                .collect(),
        }],
    };
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::CohDma);
    let result = run_app(&mut soc, &app, &mut policy, 2);
    assert_eq!(result.phases[0].invocations.len(), 8);
}

#[test]
fn ground_truth_attribution_reports_exact_counts() {
    let config = soc2();
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::NonCohDma);
    let result = run_app_with_options(
        &mut soc,
        &one_thread(128 * 1024, 0, 1),
        &mut policy,
        1,
        EngineOptions {
            attribution: Attribution::GroundTruth,
        },
    );
    let rec = &result.phases[0].invocations[0];
    assert_eq!(rec.measurement.offchip_accesses, rec.true_dram as f64);
}

#[test]
fn allocation_survives_hundreds_of_phases() {
    // The bump allocator must not collide datasets across a long app.
    let config = soc2();
    let phases: Vec<PhaseSpec> = (0..50)
        .map(|i| PhaseSpec {
            name: format!("p{i}"),
            threads: vec![ThreadSpec {
                dataset_bytes: 64 * 1024,
                chain: vec![AccelInstanceId((i % 9) as u16)],
                loops: 1,
                check_output: false,
            }],
        })
        .collect();
    let app = AppSpec {
        name: "long".into(),
        phases,
    };
    let mut soc = Soc::new(config);
    let mut policy = RandomPolicy::new(3);
    let result = run_app(&mut soc, &app, &mut policy, 3);
    assert_eq!(result.phases.len(), 50);
    soc.caches().validate_coherence().unwrap();
}

#[test]
fn many_memory_tile_placement_is_valid() {
    // More than four memory tiles exercises the non-corner placement path.
    let mut config = soc2();
    config.name = "six-mems".into();
    config.noc_width = 5;
    config.noc_height = 5;
    config.mem_tiles = 6;
    config.validate().unwrap();
    let (mems, cpus, accels) = config.placement();
    assert_eq!(mems.len(), 6);
    let mut all: Vec<_> = mems.iter().chain(&cpus).chain(&accels).collect();
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "no overlapping tiles");
}

#[test]
fn custom_config_with_minimal_resources_runs() {
    let base = soc2();
    let config = SocConfig {
        name: "tiny".into(),
        noc_width: 3,
        noc_height: 2,
        cpus: 1,
        mem_tiles: 1,
        l2_bytes: 8 * 1024,
        llc_slice_bytes: 32 * 1024,
        line_bytes: 64,
        l2_ways: 2,
        llc_ways: 4,
        accels: base.accels[..2].to_vec(),
    };
    config.validate().unwrap();
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::LlcCohDma);
    let result = run_app(&mut soc, &one_thread(4 * 1024, 1, 2), &mut policy, 1);
    assert_eq!(result.phases[0].invocations.len(), 2);
}

#[test]
fn soc3_fallback_modes_are_recorded_faithfully() {
    // Requesting full-coh everywhere on SoC3: records must show the
    // actually-actuated mode, not the requested one.
    let config = soc3();
    let cacheless: Vec<u16> = config
        .accels
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.has_private_cache)
        .map(|(i, _)| i as u16)
        .collect();
    assert!(!cacheless.is_empty());
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::FullCoh);
    let result = run_app(
        &mut soc,
        &one_thread(16 * 1024, cacheless[0], 1),
        &mut policy,
        1,
    );
    assert_ne!(result.phases[0].invocations[0].mode, CoherenceMode::FullCoh);
}

#[test]
fn second_loop_is_cheaper_with_warm_caches() {
    let config = soc2();
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::FullCoh);
    let result = run_app(&mut soc, &one_thread(16 * 1024, 0, 3), &mut policy, 1);
    let invs = &result.phases[0].invocations;
    assert_eq!(invs.len(), 3);
    let first = invs[0].measurement.total_cycles;
    let third = invs[2].measurement.total_cycles;
    assert!(
        third < first,
        "warm private cache should speed up repeat invocations ({third} !< {first})"
    );
    assert_eq!(invs[2].true_dram, 0, "warm reruns stay on-chip");
}
