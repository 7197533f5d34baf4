//! Quickstart: build a simulated SoC, train Cohmeleon online, and compare
//! it against the paper's baseline policies on a small workload mix —
//! one `Experiment` grid, run on the work-stealing executor.
//!
//! Run with: `cargo run --release --example quickstart`

use cohmeleon_repro::exp::{Experiment, PolicyKind, WorkStealing};
use cohmeleon_repro::soc::config::soc1;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn main() {
    // 1. Pick a SoC from Table 4 of the paper: SoC1 has 7 accelerators,
    //    2 CPUs, 4 memory tiles with 256 KiB LLC partitions.
    let config = soc1();
    println!(
        "SoC: {} ({} accelerators)",
        config.name,
        config.accels.len()
    );

    // 2. Generate a training and a test instance of the evaluation
    //    application (different seeds = different instances).
    let train_app = generate_app(&config, &GeneratorParams::default(), 1);
    let test_app = generate_app(&config, &GeneratorParams::default(), 2);

    // 3. Compose the experiment: one scenario, three policies, one seed.
    //    Only Cohmeleon trains (10 iterations); the fixed baseline and the
    //    manual heuristic skip training.
    let grid = Experiment::train_test(config, train_app, test_app)
        .policy_kinds([
            PolicyKind::FixedNonCoh,
            PolicyKind::Manual,
            PolicyKind::Cohmeleon,
        ])
        .seed(42)
        .train_iterations(10)
        .build()
        .expect("experiment axes are non-empty");

    // 4. Run all three cells in parallel. Every cell gets a fresh SoC and
    //    its own deterministic seed stream, so the results are bit-identical
    //    to a serial run.
    let results = grid.collect(&WorkStealing::new());

    println!("\n{:<22} {:>14} {:>14}", "policy", "cycles", "off-chip");
    for cell in results.iter() {
        println!(
            "{:<22} {:>14} {:>14}",
            cell.result.policy,
            cell.result.total_duration(),
            cell.result.total_offchip()
        );
    }

    let fixed = &results.cell(0, 0, 0).result;
    let cohmeleon = &results.cell(0, 2, 0).result;
    let speedup = fixed.total_duration() as f64 / cohmeleon.total_duration() as f64;
    let mem_saving = 1.0 - cohmeleon.total_offchip() as f64 / fixed.total_offchip().max(1) as f64;
    println!(
        "\ncohmeleon vs fixed non-coherent DMA: {speedup:.2}x speedup, {:.0}% fewer off-chip accesses",
        mem_saving * 100.0
    );
}
