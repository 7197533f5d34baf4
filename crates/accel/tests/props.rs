//! Property tests for accelerator burst schedules: traffic conservation
//! and dataset bounds for arbitrary profiles.

use cohmeleon_accel::{AccelProfile, BurstSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 64;

fn arb_profile(rng: &mut SmallRng) -> AccelProfile {
    let burst = rng.gen_range(1..64);
    let compute = rng.gen_range(0..256); // per line
    let read_factor = rng.gen_range(0.25..4.0);
    let write_factor = rng.gen_range(0.0..4.0);
    let p = AccelProfile::streaming("prop", burst, compute, read_factor, write_factor);
    let p = match rng.gen_range(0..3u8) {
        1 => p.with_stride(rng.gen_range(1..32)),
        2 => p.with_irregular(rng.gen_range(0.05..1.0)),
        _ => p,
    };
    if rng.gen() {
        p.with_in_place()
    } else {
        p
    }
}

/// Generated traffic matches the profile's read/write factors (to
/// rounding), all ops stay within the dataset, and compute budgets are
/// consistent.
#[test]
fn schedules_conserve_traffic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let profile = arb_profile(&mut rng);
        let lines = rng.gen_range(1..3000);
        let sched = BurstSchedule::generate(&profile, lines, rng.gen());

        let expected_reads = (profile.read_factor * lines as f64).round() as u64;
        assert_eq!(sched.read_lines(), expected_reads, "case {case}");

        let expected_writes = (profile.write_factor * lines as f64).round() as u64;
        // Writes may overshoot by less than one burst due to tail
        // clamping at the dataset boundary.
        assert!(sched.write_lines() >= expected_writes, "case {case}");
        assert!(
            sched.write_lines() <= expected_writes + profile.burst_lines,
            "case {case}"
        );

        for op in sched.ops() {
            assert!(op.lines >= 1, "case {case}: {op:?}");
            assert!(
                op.line_offset + op.lines <= lines,
                "case {case}: op {op:?} overruns"
            );
            let compute = if op.write {
                0
            } else {
                op.lines * profile.compute_cycles_per_line
            };
            assert_eq!(op.compute_cycles, compute, "case {case}: {op:?}");
        }
        assert_eq!(
            sched.compute_cycles(),
            sched.read_lines() * profile.compute_cycles_per_line,
            "case {case}"
        );
    }
}

/// Schedules are pure functions of (profile, lines, seed).
#[test]
fn schedules_are_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let profile = arb_profile(&mut rng);
        let (lines, seed) = (rng.gen_range(1..500), rng.gen());
        let a = BurstSchedule::generate(&profile, lines, seed);
        let b = BurstSchedule::generate(&profile, lines, seed);
        assert_eq!(a, b, "case {case}");
    }
}
