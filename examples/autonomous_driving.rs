//! The SoC5 case study: collaborative autonomous vehicles.
//!
//! SoC5 embeds two FFT and two Viterbi accelerators for vehicle-to-vehicle
//! (V2V) communication, plus two Conv-2D and two GEMM accelerators for CNN
//! inference (object recognition). The application runs V2V encode/decode
//! chains alongside CNN inference pipelines at several workload sizes, and
//! compares coherence policies — reproducing one panel of the paper's
//! Figure 9 as a five-policy experiment grid.
//!
//! Run with: `cargo run --release --example autonomous_driving`

use cohmeleon_repro::exp::{normalize_records, Experiment, PolicyKind, WorkStealing};
use cohmeleon_repro::soc::config::soc5;
use cohmeleon_repro::workloads::case_studies::soc5_app;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn main() {
    let config = soc5();
    println!("SoC5 — autonomous-driving case study");
    for (i, tile) in config.accels.iter().enumerate() {
        println!("  accel {i}: {}", tile.spec.profile.name);
    }

    // Training uses a randomly-configured evaluation app on this SoC
    // (as in the paper); the V2V+CNN application is the test workload.
    let train_app = generate_app(&config, &GeneratorParams::default(), 11);
    let test_app = soc5_app(&config, 2);

    let grid = Experiment::train_test(config, train_app, test_app)
        .policy_kinds([
            PolicyKind::FixedNonCoh,
            PolicyKind::FixedCohDma,
            PolicyKind::Random,
            PolicyKind::Manual,
            PolicyKind::Cohmeleon,
        ])
        .seed(5)
        .train_iterations(10)
        .build()
        .expect("experiment axes are non-empty");

    // All five policies run in parallel on the work-stealing executor;
    // outcomes are normalized against fixed non-coherent DMA (policy 0).
    let records = grid.collect_records(&WorkStealing::new());

    println!("\n{:<20} {:>10} {:>10}", "policy", "geo-time", "geo-mem");
    for (record, outcome) in records.iter().zip(normalize_records(&records, 0)) {
        println!(
            "{:<20} {:>10.2} {:>10.2}",
            record.policy, outcome.geo_time, outcome.geo_mem
        );
    }
    println!("\n(normalized to fixed non-coherent DMA; lower is better)");
}
