//! Property tests: the segment-batched DRAM paths are bit-equivalent to
//! the per-line loops they replaced — same completion times, same channel
//! reservations, same monitor counters — across random configurations,
//! pre-existing row/channel state, and burst shapes.

use cohmeleon_mem::{DramConfig, DramController};
use cohmeleon_sim::Cycle;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DramConfig> {
    (1u64..40, 1u64..64, 1u64..64, 1u64..12).prop_map(|(penalty, transfer, rows, banks)| {
        DramConfig {
            base_latency: 100,
            line_transfer_cycles: transfer,
            row_miss_penalty: penalty,
            row_lines: rows,
            banks,
        }
    })
}

/// Warm-up traffic establishing arbitrary open-row and channel state.
fn warm(d: &mut DramController, ops: &[(u64, bool)]) {
    for (line, write) in ops {
        d.access(Cycle(7), *line, *write);
    }
}

fn assert_controllers_eq(a: &DramController, b: &DramController) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.reads(), b.reads());
    prop_assert_eq!(a.writes(), b.writes());
    prop_assert_eq!(a.next_free(), b.next_free());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `burst_access` (O(rows) segments) ≡ per-line `access` at the same
    /// arrival time — the loop the segmented form replaced.
    #[test]
    fn burst_matches_per_line_access(
        config in arb_config(),
        warm_ops in proptest::collection::vec((0u64..512, any::<bool>()), 0..20),
        at in 0u64..10_000,
        start in 0u64..512,
        count in 1u64..200,
        write in any::<bool>(),
    ) {
        let mut batched = DramController::new(config);
        let mut looped = DramController::new(config);
        warm(&mut batched, &warm_ops);
        warm(&mut looped, &warm_ops);

        let done_batched = batched.burst_access(Cycle(at), start, count, write);
        let mut done_looped = Cycle(at);
        for i in 0..count {
            done_looped = looped.access(Cycle(at), start + i, write);
        }

        prop_assert_eq!(done_batched, done_looped);
        assert_controllers_eq(&batched, &looped)?;
        // Row state must also agree: a follow-up access to any burst row
        // must cost the same on both controllers.
        let probe = batched.access(Cycle(at + 1_000_000), start + count - 1, false);
        let probe_ref = looped.access(Cycle(at + 1_000_000), start + count - 1, false);
        prop_assert_eq!(probe, probe_ref);
    }

    /// `scattered_access(count)` ≡ `count` single scattered accesses at
    /// the same arrival time — a single-access call is exactly the
    /// original per-line loop body (one always-missing access, row closed
    /// after), so this pins the batched closed form against the old
    /// semantics through the public API.
    #[test]
    fn scattered_matches_per_line_reference(
        config in arb_config(),
        warm_ops in proptest::collection::vec((0u64..512, any::<bool>()), 0..20),
        at in 0u64..10_000,
        count in 1u64..200,
        write in any::<bool>(),
    ) {
        let mut batched = DramController::new(config);
        let mut looped = DramController::new(config);
        warm(&mut batched, &warm_ops);
        warm(&mut looped, &warm_ops);

        let done_batched = batched.scattered_access(Cycle(at), count, write);
        let mut done_looped = Cycle(at);
        for _ in 0..count {
            done_looped = looped.scattered_access(Cycle(at), 1, write);
        }

        prop_assert_eq!(done_batched, done_looped);
        assert_controllers_eq(&batched, &looped)?;
        // Both must leave the synthetic row closed: a follow-up scattered
        // access pays the full miss penalty on each.
        let probe = batched.scattered_access(Cycle(at + 2_000_000), 1, false);
        let probe_ref = looped.scattered_access(Cycle(at + 2_000_000), 1, false);
        prop_assert_eq!(probe, probe_ref);
    }
}
