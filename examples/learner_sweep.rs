//! Sweeping the learner design space as a grid axis.
//!
//! The agent redesign made the learning subsystem composable (state space
//! × exploration × update rule); a `LearnerSpec` names one
//! composition as plain data, and `Experiment::learners` puts a whole
//! sweep of them on the policy axis — here every exploration strategy
//! over two state spaces, raced on SoC1 and collected as one flat
//! record per cell (the line a checkpoint of the sweep would hold).
//!
//! Run with: `cargo run --release --example learner_sweep`

use cohmeleon_repro::exp::{
    AgentScope, Experiment, ExplorationKind, LearnerSpec, StateSpace, UpdateKind, WeightPreset,
    WorkStealing,
};
use cohmeleon_repro::soc::config::soc1;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn main() {
    let config = soc1();
    // The coverage preset visits a far wider state set than `quick` —
    // the right workload for comparing discretizations.
    let params = GeneratorParams::coverage();
    let train_app = generate_app(&config, &params, 21);
    let test_app = generate_app(&config, &params, 22);

    // Every exploration strategy × {table3, extended}; the paper
    // composition (exactly `CohmeleonPolicy`) comes first in the grid.
    let mut specs = LearnerSpec::grid(
        &[StateSpace::Table3, StateSpace::Extended],
        &ExplorationKind::ALL,
        &[UpdateKind::Blend],
    );
    // The orchestration axes ride the same grid: the paper composition
    // with one agent per accelerator kind, and with a memory-leaning
    // reward — each its own resumable, shardable cell.
    specs.push(LearnerSpec::paper().with_scope(AgentScope::PerKind));
    specs.push(LearnerSpec::paper().with_weights(WeightPreset::MemHeavy));

    let grid = Experiment::train_test(config, train_app, test_app)
        .learners(specs.iter().copied())
        .seed(5)
        .train_iterations(8)
        .build()
        .expect("experiment axes are non-empty");

    // One record per cell, in canonical (policy-axis) order.
    let records = grid.collect_records(&WorkStealing::new());

    println!(
        "{:<40} {:>14} {:>12} {:>8}",
        "learner", "cycles", "off-chip", "vs paper"
    );
    let baseline = records
        .iter()
        .find(|r| r.policy_index == 0)
        .expect("baseline cell present")
        .total_cycles as f64;
    for r in &records {
        println!(
            "{:<40} {:>14} {:>12} {:>7.2}x",
            r.policy,
            r.total_cycles,
            r.total_offchip,
            r.total_cycles as f64 / baseline
        );
    }
    println!("\n({} cells; the full 18-cell sweep is `cargo run -p cohmeleon-bench --bin sweep -- run --grid learners`)", records.len());
}
