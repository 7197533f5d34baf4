//! Cross-crate coherence checks: the MESI/directory invariants must hold
//! after arbitrary full-system activity, including mode switching mid-app.

use cohmeleon_repro::cache::{AddressMap, CacheGeometry, CacheId, CoherenceController, LineAddr};
use cohmeleon_repro::core::policy::{Policy, RandomPolicy};
use cohmeleon_repro::core::{CoherenceMode, PartitionId};
use cohmeleon_repro::soc::config::{motivation_isolation_soc, soc3};
use cohmeleon_repro::soc::{run_app, Soc};
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn invariants_hold_after_random_policy_runs() {
    for seed in [1u64, 2, 3] {
        let config = motivation_isolation_soc();
        let app = generate_app(&config, &GeneratorParams::quick(), seed);
        let mut soc = Soc::new(config);
        let mut policy = RandomPolicy::new(seed);
        run_app(&mut soc, &app, &mut policy, seed);
        soc.caches().validate_coherence().expect("SWMR + inclusion");
    }
}

#[test]
fn invariants_hold_on_heterogeneous_availability() {
    // SoC3's cacheless accelerators exercise the restricted-mode paths.
    let config = soc3();
    let app = generate_app(&config, &GeneratorParams::quick(), 11);
    let mut soc = Soc::new(config);
    let mut policy = RandomPolicy::new(11);
    run_app(&mut soc, &app, &mut policy, 11);
    soc.caches().validate_coherence().expect("SWMR + inclusion");
}

#[test]
fn mode_switching_on_shared_dataset_stays_coherent() {
    // One thread, one dataset, alternating coherence modes per invocation —
    // the flush/recall machinery must keep the hierarchy consistent.
    use cohmeleon_repro::core::{AccelInstanceId, Decision, ModeSet, State, SystemSnapshot};

    struct Alternator(usize);
    impl Policy for Alternator {
        fn name(&self) -> String {
            "alternator".into()
        }
        fn decide(
            &mut self,
            snapshot: &SystemSnapshot,
            available: ModeSet,
            _accel: AccelInstanceId,
        ) -> Decision {
            let mode = CoherenceMode::ALL[self.0 % 4];
            self.0 += 1;
            let mode = if available.contains(mode) {
                mode
            } else {
                available.iter().next().expect("non-empty")
            };
            Decision::new(mode, State::from_snapshot(snapshot))
        }
    }

    let config = motivation_isolation_soc();
    let app = cohmeleon_repro::soc::AppSpec {
        name: "alternating".into(),
        phases: vec![cohmeleon_repro::soc::PhaseSpec {
            name: "p".into(),
            threads: vec![cohmeleon_repro::soc::ThreadSpec {
                dataset_bytes: 96 * 1024,
                chain: vec![AccelInstanceId(0), AccelInstanceId(1)],
                loops: 6,
                check_output: true,
            }],
        }],
    };
    let mut soc = Soc::new(config);
    let mut policy = Alternator(0);
    let result = run_app(&mut soc, &app, &mut policy, 3);
    assert_eq!(result.phases[0].invocations.len(), 12);
    // All four modes were actually exercised on the same dataset.
    let distinct: std::collections::HashSet<_> = result.invocations().map(|r| r.mode).collect();
    assert_eq!(distinct.len(), 4);
    soc.caches().validate_coherence().expect("SWMR + inclusion");
}

/// Random interleavings of every protocol operation preserve SWMR,
/// inclusion and directory consistency. Case `n` draws its operations
/// from `SmallRng::seed_from_u64(n)`.
#[test]
fn protocol_fuzz_preserves_invariants() {
    for case in 0..64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let l2 = CacheGeometry::new(4 * 1024, 4, 64);
        let llc = CacheGeometry::new(16 * 1024, 16, 64);
        let mut ctrl = CoherenceController::new(AddressMap::new(2), &[l2; 3], llc);
        for _ in 0..rng.gen_range(1..300usize) {
            let op = rng.gen_range(0..6u8);
            let cache = CacheId(rng.gen_range(0..3));
            let line = LineAddr(rng.gen_range(0..128));
            let write = rng.gen();
            match op {
                0 => {
                    ctrl.l2_access(cache, line, write);
                }
                1 => {
                    ctrl.coh_dma_access(line, write);
                }
                2 => {
                    ctrl.llc_coh_dma_access(line, write);
                }
                3 => {
                    ctrl.flush_l2(cache);
                }
                4 => {
                    ctrl.l2_store_streaming(cache, line);
                }
                _ => {
                    if line.0.is_multiple_of(31) {
                        ctrl.flush_llc(PartitionId(cache.0 % 2));
                    } else {
                        ctrl.l2_access(cache, line, write);
                    }
                }
            }
        }
        if let Err(e) = ctrl.validate_coherence() {
            panic!("case {case}: {e}");
        }
    }
}
