//! The SoC6 case study: a computer-vision classification pipeline.
//!
//! SoC6 hosts three copies of the night-vision → autoencoder → MLP
//! pipeline (undarken, denoise, classify). The example runs the pipelined
//! application under Cohmeleon as a one-cell experiment grid with a
//! *streaming observer* — a closure prints each cell's
//! per-invocation coherence decisions the moment the cell completes,
//! showing how the learned policy adapts along the chain and across
//! workload sizes.
//!
//! Run with: `cargo run --release --example computer_vision`

use cohmeleon_repro::exp::{CellResult, Experiment, PolicyKind, Serial};
use cohmeleon_repro::soc::config::soc6;
use cohmeleon_repro::workloads::case_studies::soc6_app;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn main() {
    let config = soc6();
    println!("SoC6 — computer-vision case study: 3 × (night-vision → autoencoder → MLP)\n");

    let train_app = generate_app(&config, &GeneratorParams::default(), 21);
    let test_app = soc6_app(&config, 2);

    let grid = Experiment::train_test(config.clone(), train_app, test_app)
        .policy_kinds([PolicyKind::Cohmeleon])
        .seed(9)
        .train_iterations(10)
        .build()
        .expect("experiment axes are non-empty");

    // Stream results through an observer instead of collecting: the
    // closure fires once per completed cell.
    let mut mix = [0usize; 4];
    grid.execute(&Serial, &mut |cell: CellResult| {
        for phase in &cell.result.phases {
            println!(
                "phase {:<12} {:>12} cycles, {:>8} off-chip accesses",
                phase.name, phase.duration, phase.offchip
            );
            for rec in &phase.invocations {
                let name = &config.accels[rec.accel.0 as usize].spec.profile.name;
                println!(
                    "    {:<14} {:>7} KiB  -> {:<12} ({} cycles)",
                    name,
                    rec.footprint_bytes / 1024,
                    rec.mode.to_string(),
                    rec.measurement.total_cycles
                );
            }
        }
        for rec in cell.result.invocations() {
            mix[rec.mode.index()] += 1;
        }
    });

    // Decision mix across the whole app.
    println!(
        "\ndecision mix: non-coh {} | llc-coh {} | coh-dma {} | full-coh {}",
        mix[0], mix[1], mix[2], mix[3]
    );
}
