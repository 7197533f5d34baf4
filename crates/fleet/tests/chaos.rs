//! Fleet under seeded network fault injection: whatever the chaos
//! transport does to the wire, a completed sweep's checkpoint is
//! byte-identical to a clean serial run.
//!
//! These are the in-process siblings of the `chaos_soak` harness in
//! `cohmeleon-bench`: one `FaultPlan` wraps the queen's and every
//! worker's sockets, workers die to injected resets and are respawned,
//! and the test demands the exact bytes `canonical_jsonl` produces from
//! an untouched `Serial` run. The second test composes chaos with the
//! other two durability mechanisms — a capped ("killed") queen resumed
//! on the same checkpoint, and `Checkpoint::reuse_from` seeding a grown
//! grid from a smaller finished one — because real failures do not
//! arrive one mechanism at a time.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use cohmeleon_chaos::FaultPlan;
use cohmeleon_exp::{canonical_jsonl, Checkpoint, Experiment, PolicyKind, Serial, SweepGrid};
use cohmeleon_fleet::{run_queen, run_worker, QueenOptions, WorkerOptions};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

/// Builds the test grid over the given seeds (same construction as the
/// clean fleet tests, so cells stay cheap).
fn grid_with_seeds(seeds: &[u64]) -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .seeds(seeds.iter().copied())
        .build()
        .unwrap()
}

fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-fleet-chaos-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn resolver(grid: &SweepGrid) -> impl Fn(&str, bool) -> Result<SweepGrid, String> + '_ {
    |name: &str, _fast: bool| {
        assert_eq!(name, "test-grid");
        Ok(grid.clone())
    }
}

/// Runs one queen to completion (or to its `max_cells` cap), respawning
/// chaos-wrapped workers as injected faults kill them.
fn run_chaotic_queen(
    grid: &SweepGrid,
    path: &PathBuf,
    plan: &FaultPlan,
    max_cells: usize,
) -> cohmeleon_fleet::QueenReport {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = QueenOptions {
        ttl: Duration::from_millis(250),
        chunk: Some(2),
        max_cells,
        chaos: Some(plan.clone()),
        ..QueenOptions::new("test-grid", false)
    };
    std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(grid, listener, path, &options));
        let mut spawns = 0;
        while !queen.is_finished() {
            spawns += 1;
            assert!(
                spawns <= 200,
                "queen never completed; {} faults so far:\n{}",
                plan.fault_count(),
                plan.render_log()
            );
            let worker_options = WorkerOptions {
                connect_retry: Duration::from_millis(500),
                chaos: Some(plan.clone()),
                ..WorkerOptions::new(format!("chaos-w{spawns}"))
            };
            let addr = addr.clone();
            let handle = scope.spawn(move || run_worker(&addr, resolver(grid), &worker_options));
            // A worker dying to an injected reset is the point, not a
            // failure; the respawn loop replaces it.
            let _ = handle.join().unwrap();
        }
        queen.join().unwrap().unwrap()
    })
}

#[test]
fn chaotic_fleet_run_is_byte_identical_to_clean_serial() {
    let grid = grid_with_seeds(&[1, 2, 3]);
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    let path = tmp_path("byte-identical");
    let plan = FaultPlan::new(0xC0DE);

    let report = run_chaotic_queen(&grid, &path, &plan, usize::MAX);

    assert!(report.complete);
    assert_eq!(report.ran + report.reused, grid.num_cells());
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        clean,
        "chaos schedule changed the checkpoint bytes; faults were:\n{}",
        plan.render_log()
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn chaos_killed_queen_with_reuse_resumes_to_byte_identical() {
    // The grown grid adds a seed to the small one, so content keys
    // (scenario, policy, seed) overlap on the small grid's cells.
    let small = grid_with_seeds(&[1, 2]);
    let grown = grid_with_seeds(&[1, 2, 3]);
    let scratch = canonical_jsonl(&grown.collect_records(&Serial));

    // A finished small-grid checkpoint, produced cleanly.
    let old_path = tmp_path("reuse-old");
    std::fs::write(&old_path, canonical_jsonl(&small.collect_records(&Serial))).unwrap();

    // Seed the grown grid's checkpoint from it by content key.
    let new_path = tmp_path("reuse-new");
    let reuse = Checkpoint::reuse_from(&new_path, &old_path, &grown).unwrap();
    assert_eq!(reuse.reused, small.num_cells());
    assert_eq!(reuse.unmatched, 0);

    // A chaos-wrapped queen works the remainder but is "killed" (capped)
    // after one fresh cell...
    let plan = FaultPlan::new(0xDEAD);
    let first = run_chaotic_queen(&grown, &new_path, &plan, 1);
    assert!(!first.complete);
    assert_eq!(first.reused, small.num_cells());
    assert_eq!(first.ran, 1);

    // ...and a second chaos-wrapped queen on the same checkpoint (a new
    // connection-index arena, so its fault schedule differs) finishes.
    let second = run_chaotic_queen(&grown, &new_path, &plan, usize::MAX);
    assert!(second.complete);
    assert_eq!(second.reused, small.num_cells() + 1);
    assert_eq!(second.ran, grown.num_cells() - small.num_cells() - 1);

    assert_eq!(
        std::fs::read_to_string(&new_path).unwrap(),
        scratch,
        "reuse + chaos kill + resume changed the bytes; faults were:\n{}",
        plan.render_log()
    );
    std::fs::remove_file(&old_path).unwrap();
    std::fs::remove_file(&new_path).unwrap();
}
