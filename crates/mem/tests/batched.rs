//! Property tests: the segment-batched DRAM paths are bit-equivalent to
//! the per-line loops they replaced — same completion times, same channel
//! reservations, same monitor counters — across random configurations,
//! pre-existing row/channel state, and burst shapes.

use cohmeleon_mem::{DramConfig, DramController};
use cohmeleon_sim::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 128;

fn arb_config(rng: &mut SmallRng) -> DramConfig {
    DramConfig {
        base_latency: 100,
        row_miss_penalty: rng.gen_range(1..40),
        line_transfer_cycles: rng.gen_range(1..64),
        row_lines: rng.gen_range(1..64),
        banks: rng.gen_range(1..12),
    }
}

/// Two identical controllers warmed by the same random traffic (up to 19
/// accesses to lines 0..512), which leaves arbitrary open-row and
/// channel state behind.
fn warmed_pair(rng: &mut SmallRng) -> (DramController, DramController) {
    let config = arb_config(rng);
    let (mut a, mut b) = (DramController::new(config), DramController::new(config));
    for _ in 0..rng.gen_range(0..20usize) {
        let (line, write) = (rng.gen_range(0..512), rng.gen());
        a.access(Cycle(7), line, write);
        b.access(Cycle(7), line, write);
    }
    (a, b)
}

fn assert_controllers_eq(case: u64, a: &DramController, b: &DramController) {
    assert_eq!(a.reads(), b.reads(), "case {case}");
    assert_eq!(a.writes(), b.writes(), "case {case}");
    assert_eq!(a.next_free(), b.next_free(), "case {case}");
}

/// `burst_access` (O(rows) segments) ≡ per-line `access` at the same
/// arrival time — the loop the segmented form replaced.
#[test]
fn burst_matches_per_line_access() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (mut batched, mut looped) = warmed_pair(&mut rng);
        let (at, start) = (rng.gen_range(0..10_000), rng.gen_range(0..512));
        let (count, write) = (rng.gen_range(1..200), rng.gen());

        let done_batched = batched.burst_access(Cycle(at), start, count, write);
        let mut done_looped = Cycle(at);
        for i in 0..count {
            done_looped = looped.access(Cycle(at), start + i, write);
        }

        assert_eq!(done_batched, done_looped, "case {case}");
        assert_controllers_eq(case, &batched, &looped);
        // Row state must also agree: a follow-up access to any burst row
        // must cost the same on both controllers.
        let probe = batched.access(Cycle(at + 1_000_000), start + count - 1, false);
        let probe_ref = looped.access(Cycle(at + 1_000_000), start + count - 1, false);
        assert_eq!(probe, probe_ref, "case {case}");
    }
}

/// `scattered_access(count)` ≡ `count` single scattered accesses at
/// the same arrival time — a single-access call is exactly the
/// original per-line loop body (one always-missing access, row closed
/// after), so this pins the batched closed form against the old
/// semantics through the public API.
#[test]
fn scattered_matches_per_line_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (mut batched, mut looped) = warmed_pair(&mut rng);
        let at = rng.gen_range(0..10_000);
        let (count, write) = (rng.gen_range(1..200), rng.gen());

        let done_batched = batched.scattered_access(Cycle(at), count, write);
        let mut done_looped = Cycle(at);
        for _ in 0..count {
            done_looped = looped.scattered_access(Cycle(at), 1, write);
        }

        assert_eq!(done_batched, done_looped, "case {case}");
        assert_controllers_eq(case, &batched, &looped);
        // Both must leave the synthetic row closed: a follow-up scattered
        // access pays the full miss penalty on each.
        let probe = batched.scattered_access(Cycle(at + 2_000_000), 1, false);
        let probe_ref = looped.scattered_access(Cycle(at + 2_000_000), 1, false);
        assert_eq!(probe, probe_ref, "case {case}");
    }
}
