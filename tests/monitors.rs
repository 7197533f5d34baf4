//! Monitor-layer integration tests: the paper's attribution approximation
//! against the simulator's ground truth.

use cohmeleon_repro::core::policy::FixedPolicy;
use cohmeleon_repro::core::{AccelInstanceId, CoherenceMode};
use cohmeleon_repro::mem::proportional_attribution;
use cohmeleon_repro::soc::config::motivation_isolation_soc;
use cohmeleon_repro::soc::{run_app, AppSpec, PhaseSpec, Soc, ThreadSpec};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn one_thread_app(bytes: u64, accel: u16, loops: u32) -> AppSpec {
    AppSpec {
        name: "monitors".into(),
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
fn isolated_attribution_tracks_ground_truth() {
    // With a single active accelerator, the paper's approximation assigns
    // it the whole controller delta, which must cover its true traffic.
    let config = motivation_isolation_soc();
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::NonCohDma);
    let result = run_app(&mut soc, &one_thread_app(256 * 1024, 0, 2), &mut policy, 3);
    for rec in result.invocations() {
        assert!(
            rec.measurement.offchip_accesses + 1.0 >= rec.true_dram as f64 * 0.9,
            "attributed {} must be close to or above true {}",
            rec.measurement.offchip_accesses,
            rec.true_dram
        );
    }
}

#[test]
fn cache_mode_invocations_can_have_zero_offchip() {
    // Small warm workloads under coherent DMA: all hits, no DRAM — the
    // "missing red bars" of Figure 2.
    let config = motivation_isolation_soc();
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::CohDma);
    let result = run_app(&mut soc, &one_thread_app(16 * 1024, 0, 3), &mut policy, 3);
    let last = result.invocations().last().expect("invocations exist");
    assert_eq!(last.true_dram, 0, "warm small workload should stay on-chip");
    assert!(last.measurement.offchip_accesses < 1.0);
}

#[test]
fn parallel_attribution_conserves_the_controller_delta() {
    // Attribution shares within one partition sum to that partition's
    // delta by construction; end-to-end, the sum of all attributed values
    // cannot exceed the total counter movement.
    let config = motivation_isolation_soc();
    let app = AppSpec {
        name: "parallel".into(),
        phases: vec![PhaseSpec {
            name: "p".into(),
            threads: (0..4u16)
                .map(|i| ThreadSpec {
                    dataset_bytes: 512 * 1024,
                    chain: vec![AccelInstanceId(i)],
                    loops: 2,
                    check_output: false,
                })
                .collect(),
        }],
    };
    let mut soc = Soc::new(config);
    let mut policy = FixedPolicy::new(CoherenceMode::NonCohDma);
    let result = run_app(&mut soc, &app, &mut policy, 3);
    let attributed: f64 = result
        .invocations()
        .map(|r| r.measurement.offchip_accesses)
        .sum();
    let counted = result.total_offchip() as f64;
    assert!(
        attributed <= counted * 4.0 + 1.0,
        "attributed {attributed} wildly exceeds counters {counted}"
    );
    assert!(attributed > 0.0);
}

/// The attribution formula conserves the total and is proportional.
/// Case `n` draws its total and footprints from
/// `SmallRng::seed_from_u64(n)`.
#[test]
fn attribution_conserves_total() {
    for case in 0..128 {
        let mut rng = SmallRng::seed_from_u64(case);
        let total = rng.gen_range(0..1_000_000);
        let footprints: Vec<f64> = (0..rng.gen_range(1..16usize))
            .map(|_| rng.gen_range(0.0..1e9))
            .collect();
        let shares = proportional_attribution(total, &footprints);
        assert_eq!(shares.len(), footprints.len(), "case {case}");
        let sum: f64 = shares.iter().sum();
        if footprints.iter().sum::<f64>() > 0.0 {
            assert!(
                (sum - total as f64).abs() < 1e-6 * (total as f64 + 1.0),
                "case {case}: {sum} != {total}"
            );
        } else {
            assert_eq!(sum, 0.0, "case {case}");
        }
        for s in shares {
            assert!(s >= 0.0, "case {case}: share {s}");
        }
    }
}
