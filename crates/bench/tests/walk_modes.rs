//! Cross-check of the two tag-walk modes against the committed goldens.
//!
//! The suite goldens in `suite_goldens.rs` were recorded from the
//! per-line reference implementation and are exercised there under the
//! default run-level walk. This binary replays the soc1 and soc6 suites
//! with the *process-global* default flipped to `WalkMode::PerLine` and
//! asserts the same hashes — so the reference mode is pinned to the
//! identical observable machine, through the full engine, not just the
//! paired controllers of `crates/cache/tests/batched.rs`. On the soc6
//! suite it also pins the deterministic work counts: events,
//! invocations and simulated cycles under both modes, and the tag-array
//! scans each mode performs. (A separate test binary, with a single
//! test, because the default walk mode is process-global state that each
//! controller reads when it is built: neither the golden tests nor a
//! parallel test thread may observe the flip.)

use cohmeleon_bench::tracked::{soc6_params, suite_grid, TRAIN_ITERATIONS};
use cohmeleon_cache::{set_default_walk_mode, TagStats, WalkMode};
use cohmeleon_exp::{CellResult, Serial, SweepGrid};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::GeneratorParams;

/// What one Serial pass over a grid produced.
struct Pass {
    /// Per-cell structural hashes, indexed densely.
    hashes: Vec<u64>,
    /// Summed (events, invocations, simulated cycles).
    totals: (u64, u64, u64),
    /// Summed tag-array op counters.
    walk: TagStats,
}

fn pass(grid: &SweepGrid) -> Pass {
    let mut out = Pass {
        hashes: vec![0u64; grid.num_cells()],
        totals: (0, 0, 0),
        walk: TagStats::default(),
    };
    grid.execute(&Serial, &mut |result: CellResult| {
        let r = &result.result;
        out.hashes[grid.cell_index(result.cell)] = r.structural_hash();
        out.totals.0 += r.total_events();
        out.totals.1 += r.invocations().count() as u64;
        out.totals.2 += r.total_duration();
        out.walk.merge(&r.tag_walk);
    });
    out
}

#[test]
fn per_line_reference_reproduces_the_suite_goldens() {
    let soc1_grid = suite_grid(soc1(), &GeneratorParams::quick(), TRAIN_ITERATIONS);
    let soc6_grid = suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS);
    set_default_walk_mode(WalkMode::PerLine);
    let reference = pass(&soc1_grid);
    let reference6 = pass(&soc6_grid);
    set_default_walk_mode(WalkMode::Run);
    let run = pass(&soc1_grid);
    let run6 = pass(&soc6_grid);

    assert_eq!(
        reference.hashes,
        vec![
            0x987c_ae79_cfe3_cc73,
            0xe235_0979_6cec_0fca,
            0x49cb_7da5_f241_9441
        ],
        "per-line reference moved — modeled behaviour changed"
    );
    assert_eq!(
        run.hashes, reference.hashes,
        "run-level walk diverged from the per-line reference"
    );
    assert_eq!(
        run6.hashes, reference6.hashes,
        "run-level walk diverged from the per-line reference on soc6"
    );
    for (mode, totals) in [("PerLine", reference6.totals), ("Run", run6.totals)] {
        assert_eq!(
            totals,
            (66_866, 27, 23_134_848),
            "soc6 suite (events, invocations, cycles) moved under {mode} — \
             modeled behaviour changed"
        );
    }
    assert_eq!(
        (reference6.walk.scans, run6.walk.scans),
        (2_177_653, 915_426),
        "soc6 tag-array scans (PerLine, Run) moved — probe accounting changed"
    );
    assert!(
        reference6.walk.scans >= 2 * run6.walk.scans,
        "run-level walk lost its 2x scan reduction: {} PerLine vs {} Run scans",
        reference6.walk.scans,
        run6.walk.scans
    );
}
