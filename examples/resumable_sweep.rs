//! Checkpointed sweeps: interrupt a grid run, resume it, rerun it on a
//! thread pool — and end with the exact bytes a clean serial run would
//! have written.
//!
//! The experiment layer persists one JSONL `CellRecord` per completed
//! cell (fsynced, so a kill loses at most the line in flight). Resuming
//! loads the checkpoint with a corruption-tolerant tail scan, skips the
//! recorded cells, and — once complete — finalises the file in canonical
//! order. Every path converges on the same byte stream; `sweep shard`
//! (a local fleet of worker processes) writes it too.
//!
//! Run with: `cargo run --release --example resumable_sweep`

use cohmeleon_repro::exp::{
    canonical_jsonl, Experiment, PolicyKind, Serial, SweepGrid, WorkStealing,
};
use cohmeleon_repro::soc::config::soc1;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn build_grid() -> SweepGrid {
    let config = soc1();
    let app = generate_app(&config, &GeneratorParams::quick(), 31);
    Experiment::evaluate(config, app)
        .policy_kinds([
            PolicyKind::FixedNonCoh,
            PolicyKind::Manual,
            PolicyKind::Cohmeleon,
        ])
        .seeds([1, 2])
        .build()
        .expect("experiment axes are non-empty")
}

fn main() {
    let dir = std::env::temp_dir().join("cohmeleon-resumable-sweep-example");
    std::fs::create_dir_all(&dir).expect("create example dir");
    let path = &dir.join("sweep.jsonl");
    let _ = std::fs::remove_file(path);

    let grid = build_grid();

    // --- 1. A run that "dies" after 2 of 6 cells -------------------------
    let partial = grid
        .run_resumable_capped(path, &Serial, 2)
        .expect("capped run");
    println!(
        "interrupted run: {} cells on disk, complete = {}",
        partial.ran, partial.complete
    );

    // --- 2. Resume: only the missing 4 cells simulate --------------------
    let resumed = grid.run_resumable(path, &Serial).expect("resumed run");
    println!(
        "resumed run:     reused {}, ran {}, complete = {}",
        resumed.reused, resumed.ran, resumed.complete
    );

    // --- 3. The same grid, uninterrupted, on a work-stealing pool -------
    let pooled = grid.collect_records(&WorkStealing::new());

    // --- 4. All three paths produced the same bytes ----------------------
    let checkpoint_bytes = std::fs::read_to_string(path).expect("read checkpoint");
    assert_eq!(canonical_jsonl(&resumed.records), checkpoint_bytes);
    assert_eq!(canonical_jsonl(&pooled), checkpoint_bytes);
    println!(
        "interrupted+resumed, work-stealing and the on-disk checkpoint all \
         agree: {} cells, {} bytes",
        pooled.len(),
        checkpoint_bytes.len()
    );

    std::fs::remove_file(path).expect("clean up checkpoint");
}
