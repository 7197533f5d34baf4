//! Property tests for accelerator burst schedules: traffic conservation
//! and dataset bounds for arbitrary profiles, and the streamed schedule
//! against the two-pass generator it replaced.

use cohmeleon_accel::{AccelProfile, AccessPattern, BurstOp, BurstSchedule};
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
        let sched: Vec<BurstOp> = BurstSchedule::generate(&profile, lines, rng.gen()).collect();
        let (read_lines, write_lines, compute_cycles) =
            sched.iter().fold((0, 0, 0), |(r, w, c), op| {
                if op.write {
                    (r, w + op.lines, c)
                } else {
                    (r + op.lines, w, c + op.compute_cycles)
                }
            });

        let expected_reads = (profile.read_factor * lines as f64).round() as u64;
        assert_eq!(read_lines, expected_reads, "case {case}");

        let expected_writes = (profile.write_factor * lines as f64).round() as u64;
        // Writes may overshoot by less than one burst due to tail
        // clamping at the dataset boundary.
        assert!(write_lines >= expected_writes, "case {case}");
        assert!(
            write_lines <= expected_writes + profile.burst_lines,
            "case {case}"
        );

        for op in &sched {
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
            compute_cycles,
            read_lines * profile.compute_cycles_per_line,
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
        let a: Vec<BurstOp> = BurstSchedule::generate(&profile, lines, seed).collect();
        let b: Vec<BurstOp> = BurstSchedule::generate(&profile, lines, seed).collect();
        assert_eq!(a, b, "case {case}");
    }
}

/// The two-pass generator the streamed schedule replaced: all reads into
/// one `Vec`, then the writes interleaved into a second.
mod reference {
    use super::*;

    pub fn schedule(profile: &AccelProfile, lines: u64, seed: u64) -> Vec<BurstOp> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let reads = read_ops(profile, lines, &mut rng);
        interleave_writes(profile, lines, reads)
    }

    fn read_ops(profile: &AccelProfile, lines: u64, rng: &mut SmallRng) -> Vec<BurstOp> {
        let mut ops = Vec::new();
        let burst = profile.burst_lines.min(lines);
        let mut remaining = (profile.read_factor * lines as f64).round() as u64;
        let mut pass_cursor = 0u64;
        let mut stride_index = 0u64;
        while remaining > 0 {
            let len = burst.min(remaining);
            let offset = match profile.pattern {
                AccessPattern::Streaming => {
                    let o = pass_cursor % lines;
                    pass_cursor += len;
                    o
                }
                AccessPattern::Strided { stride_lines } => {
                    let o = (stride_index * stride_lines) % lines;
                    stride_index += 1;
                    o
                }
                AccessPattern::Irregular { access_fraction } => {
                    let reach = ((lines as f64 * access_fraction).ceil() as u64).max(1);
                    rng.gen_range(0..reach) * (lines / reach).max(1) % lines
                }
            };
            let len = len.min(lines - offset).max(1);
            ops.push(BurstOp {
                line_offset: offset,
                lines: len,
                write: false,
                compute_cycles: len * profile.compute_cycles_per_line,
            });
            remaining -= len;
        }
        ops
    }

    fn interleave_writes(profile: &AccelProfile, lines: u64, reads: Vec<BurstOp>) -> Vec<BurstOp> {
        let total_write_lines = (profile.write_factor * lines as f64).round() as u64;
        if total_write_lines == 0 {
            return reads;
        }
        let burst = profile.burst_lines.min(lines);
        let n_writes = total_write_lines.div_ceil(burst);
        let gap = (reads.len() as u64 / n_writes.max(1)).max(1);
        let mut ops = Vec::with_capacity(reads.len() + n_writes as usize);
        let mut written = 0u64;
        let mut write_cursor = 0u64;
        let mut since_last_write = 0u64;
        let mut last_read_offset = 0u64;
        for read in reads {
            last_read_offset = read.line_offset;
            ops.push(read);
            since_last_write += 1;
            if since_last_write >= gap && written < total_write_lines {
                since_last_write = 0;
                let len = burst.min(total_write_lines - written).max(1);
                let offset = if profile.in_place {
                    last_read_offset
                } else {
                    let o = write_cursor % lines;
                    write_cursor += len;
                    o
                };
                let len = len.min(lines - offset).max(1);
                ops.push(BurstOp {
                    line_offset: offset,
                    lines: len,
                    write: true,
                    compute_cycles: 0,
                });
                written += len;
            }
        }
        while written < total_write_lines {
            let len = burst.min(total_write_lines - written).max(1);
            let offset = if profile.in_place {
                last_read_offset
            } else {
                let o = write_cursor % lines;
                write_cursor += len;
                o
            };
            let len = len.min(lines - offset).max(1);
            ops.push(BurstOp {
                line_offset: offset,
                lines: len,
                write: true,
                compute_cycles: 0,
            });
            written += len;
        }
        ops
    }
}

/// The streamed schedule yields the two-pass generator's ops, op for op:
/// bursts 1–63, datasets of 1–7 and 1–2999 lines, every pattern with
/// access fractions up to exactly 1.0 (where reads clamp at the dataset
/// end), write-free profiles, in place and out of place.
#[test]
fn streamed_schedule_matches_materialised_reference() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let burst = rng.gen_range(1..64);
        let compute = rng.gen_range(0..256);
        let read_factor = rng.gen_range(0.25..4.0);
        let write_factor = if rng.gen_range(0..4u8) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..4.0)
        };
        let p = AccelProfile::streaming("oracle", burst, compute, read_factor, write_factor);
        let p = match rng.gen_range(0..3u8) {
            1 => p.with_stride(rng.gen_range(1..32)),
            2 if rng.gen() => p.with_irregular(1.0),
            2 => p.with_irregular(rng.gen_range(0.05..1.0)),
            _ => p,
        };
        let p = if rng.gen() { p.with_in_place() } else { p };
        let lines = if rng.gen_range(0..4u8) == 0 {
            rng.gen_range(1..8)
        } else {
            rng.gen_range(1..3000)
        };
        let seed = rng.gen();

        let expected = reference::schedule(&p, lines, seed);
        let mut streamed = BurstSchedule::generate(&p, lines, seed);
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                streamed.next().as_ref(),
                Some(want),
                "case {case}: op {i} of {p:?} over {lines} lines"
            );
        }
        assert_eq!(
            streamed.next(),
            None,
            "case {case}: extra op after {} of {p:?} over {lines} lines",
            expected.len()
        );
    }
}
