//! Characterising a custom accelerator with the traffic generator.
//!
//! The paper's traffic generator is configurable in exactly the properties
//! that define an accelerator's view from the SoC: access pattern, DMA
//! burst length, compute duration, data reuse, read-to-write ratio, and
//! in-place storage. This example sweeps one custom profile across the
//! four coherence modes and three workload sizes — the same methodology as
//! the paper's Figure 2 — as a 3-scenario × 4-policy evaluation-only grid,
//! to find out where each mode wins for *your* accelerator.
//!
//! Run with: `cargo run --release --example traffic_generator`

use cohmeleon_repro::accel::{AccelProfile, AccelSpec};
use cohmeleon_repro::core::{AccelInstanceId, AccelKindId, CoherenceMode};
use cohmeleon_repro::exp::{Experiment, PolicyKind, Protocol, Scenario, WorkStealing};
use cohmeleon_repro::soc::config::motivation_isolation_soc;
use cohmeleon_repro::soc::{AppSpec, PhaseSpec, ThreadSpec};

fn main() {
    // A hypothetical sparse-graph accelerator: short irregular bursts over
    // 30% of the dataset, some reuse, few writes, moderate compute.
    let profile = AccelProfile::streaming("my-graph-accel", 4, 28, 1.8, 0.4).with_irregular(0.3);
    println!("profile: {profile:#?}\n");

    // Drop it into the motivation SoC in place of accelerator tile 0.
    let mut config = motivation_isolation_soc();
    config.accels[0] = cohmeleon_repro::soc::AccelTile {
        spec: AccelSpec {
            kind: AccelKindId(900),
            profile,
        },
        has_private_cache: true,
    };

    // One scenario per workload size; the four fixed policies are the
    // mode axis. Evaluation-only: no training, raw seed per cell.
    let sizes = [
        ("Small", 16 * 1024u64),
        ("Medium", 256 * 1024),
        ("Large", 4 * 1024 * 1024),
    ];
    let scenarios = sizes.map(|(label, bytes)| {
        let app = AppSpec {
            name: "sweep".into(),
            phases: vec![PhaseSpec {
                name: label.into(),
                threads: vec![ThreadSpec {
                    dataset_bytes: bytes,
                    chain: vec![AccelInstanceId(0)],
                    loops: 5,
                    check_output: true,
                }],
            }],
        };
        Scenario::evaluate(config.clone(), app).label(label)
    });
    let grid = Experiment::new()
        .protocol(Protocol::EvaluateOnly)
        .scenarios(scenarios)
        .policy_kinds(PolicyKind::FIXED[..4].iter().copied())
        .seed(3)
        .build()
        .expect("experiment axes are non-empty");
    let results = grid.collect(&WorkStealing::new());

    println!(
        "{:<10} {:<14} {:>12} {:>10} {:>10}",
        "size", "mode", "cycles", "norm-time", "off-chip"
    );
    for (s, (label, _)) in sizes.iter().enumerate() {
        let mut base = None;
        for (p, mode) in CoherenceMode::ALL.into_iter().enumerate() {
            let invs = &results.cell(s, p, 0).result.phases[0].invocations;
            let mean: u64 =
                invs.iter().map(|r| r.measurement.total_cycles).sum::<u64>() / invs.len() as u64;
            let mem: f64 = invs
                .iter()
                .map(|r| r.measurement.offchip_accesses)
                .sum::<f64>()
                / invs.len() as f64;
            let base_val = *base.get_or_insert(mean as f64);
            println!(
                "{:<10} {:<14} {:>12} {:>10.2} {:>10.0}",
                label,
                mode.to_string(),
                mean,
                mean as f64 / base_val,
                mem
            );
        }
        println!();
    }
    println!("(norm-time is relative to non-coherent DMA at the same size)");
}
