//! Content-keyed grid reuse: growing a grid (more seeds, more policies)
//! must recompute only the genuinely new cells, and the finished file
//! must be byte-identical to a from-scratch run — even when the growth
//! shifts every dense index.

use std::path::PathBuf;

use cohmeleon_exp::{Checkpoint, Experiment, PolicyKind, ReuseReport, Serial, SweepGrid};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn grid(kinds: &[PolicyKind], seeds: &[u64]) -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds(kinds.iter().copied())
        .seeds(seeds.iter().copied())
        .build()
        .unwrap()
}

fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-reuse-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn grown_grid_reuses_every_overlapping_cell() {
    // The old world: 2 policies x 2 seeds, run to completion.
    let old_grid = grid(&[PolicyKind::FixedNonCoh, PolicyKind::Manual], &[1, 2]);
    let old_path = tmp_path("old");
    let outcome = old_grid.run_resumable(&old_path, &Serial).unwrap();
    assert!(outcome.complete);

    // Grown: one more seed AND one more policy — 4 of 9 cells overlap.
    let new_grid = grid(
        &[
            PolicyKind::FixedNonCoh,
            PolicyKind::Manual,
            PolicyKind::FixedFullCoh,
        ],
        &[1, 2, 3],
    );
    let new_path = tmp_path("new");
    let report = Checkpoint::reuse_from(&new_path, &old_path, &new_grid).unwrap();
    assert_eq!(
        report,
        ReuseReport {
            reused: 4,
            unmatched: 0,
            already: 0,
        }
    );

    // The resumed run only owes the 5 new cells...
    let outcome = new_grid.run_resumable(&new_path, &Serial).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.reused, 4);
    assert_eq!(outcome.ran, 5);

    // ...and the finished file is byte-identical to a from-scratch run.
    let scratch_path = tmp_path("scratch");
    new_grid.run_resumable(&scratch_path, &Serial).unwrap();
    assert_eq!(
        std::fs::read_to_string(&new_path).unwrap(),
        std::fs::read_to_string(&scratch_path).unwrap()
    );

    // Re-seeding an already-complete checkpoint is a no-op.
    let report = Checkpoint::reuse_from(&new_path, &old_path, &new_grid).unwrap();
    assert_eq!(
        report,
        ReuseReport {
            reused: 0,
            unmatched: 0,
            already: 4,
        }
    );

    for path in [&old_path, &new_path, &scratch_path] {
        std::fs::remove_file(path).unwrap();
    }
}

/// Growth that *reorders* the axes: the new policy lands in the middle,
/// shifting every dense index after it. Content keys (labels + effective
/// seed) do not move, so reuse must still find every overlapping cell.
#[test]
fn reuse_survives_index_shifts_from_middle_insertion() {
    let old_grid = grid(&[PolicyKind::FixedNonCoh, PolicyKind::Manual], &[1, 2]);
    let old_path = tmp_path("shift-old");
    old_grid.run_resumable(&old_path, &Serial).unwrap();

    // FixedFullCoh inserted BETWEEN the old policies: Manual's policy
    // index moves from 1 to 2.
    let new_grid = grid(
        &[
            PolicyKind::FixedNonCoh,
            PolicyKind::FixedFullCoh,
            PolicyKind::Manual,
        ],
        &[1, 2],
    );
    let new_path = tmp_path("shift-new");
    let report = Checkpoint::reuse_from(&new_path, &old_path, &new_grid).unwrap();
    assert_eq!(report.reused, 4);
    assert_eq!(report.unmatched, 0);

    let outcome = new_grid.run_resumable(&new_path, &Serial).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.ran, 2); // only the inserted policy's cells

    let scratch_path = tmp_path("shift-scratch");
    new_grid.run_resumable(&scratch_path, &Serial).unwrap();
    assert_eq!(
        std::fs::read_to_string(&new_path).unwrap(),
        std::fs::read_to_string(&scratch_path).unwrap()
    );

    for path in [&old_path, &new_path, &scratch_path] {
        std::fs::remove_file(path).unwrap();
    }
}

/// Shrinking (dropping a policy) leaves the dropped cells unmatched and
/// skipped — never merged into the wrong coordinate.
#[test]
fn dropped_policies_are_counted_not_merged() {
    let old_grid = grid(&[PolicyKind::FixedNonCoh, PolicyKind::Manual], &[1, 2]);
    let old_path = tmp_path("drop-old");
    old_grid.run_resumable(&old_path, &Serial).unwrap();

    let new_grid = grid(&[PolicyKind::FixedNonCoh], &[1, 2]);
    let new_path = tmp_path("drop-new");
    let report = Checkpoint::reuse_from(&new_path, &old_path, &new_grid).unwrap();
    assert_eq!(
        report,
        ReuseReport {
            reused: 2,
            unmatched: 2,
            already: 0,
        }
    );
    let outcome = new_grid.run_resumable(&new_path, &Serial).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.ran, 0);

    for path in [&old_path, &new_path] {
        std::fs::remove_file(path).unwrap();
    }
}
