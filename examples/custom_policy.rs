//! Plugging user-defined coherence policies into the framework.
//!
//! Two extension points are shown racing Cohmeleon on SoC2 inside one
//! experiment grid:
//!
//! * the `Policy` trait — anything that can map a `SystemSnapshot` to a
//!   `CoherenceMode` can drive the SoC (a "footprint threshold" heuristic
//!   here), and
//! * `LearnerSpec` — a learning agent recomposed from non-default parts
//!   (coarse state space, softmax exploration) without writing a policy
//!   by hand.
//!
//! Run with: `cargo run --release --example custom_policy`

use cohmeleon_repro::core::policy::{Decision, Policy};
use cohmeleon_repro::core::{AccelInstanceId, CoherenceMode, ModeSet, State, SystemSnapshot};
use cohmeleon_repro::exp::{
    normalize_records, Experiment, ExplorationKind, LearnerSpec, PolicyKind, PolicySpec,
    StateSpace, WorkStealing,
};
use cohmeleon_repro::soc::config::soc2;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

/// Below `threshold` bytes choose coherent DMA, above it non-coherent DMA —
/// a two-rule heuristic someone might write on a whiteboard.
struct ThresholdPolicy {
    threshold: u64,
}

impl Policy for ThresholdPolicy {
    fn name(&self) -> String {
        format!("threshold-{}k", self.threshold / 1024)
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        _accel: AccelInstanceId,
    ) -> Decision {
        let preferred = if snapshot.target_footprint <= self.threshold {
            CoherenceMode::CohDma
        } else {
            CoherenceMode::NonCohDma
        };
        let mode = if available.contains(preferred) {
            preferred
        } else {
            available.iter().next().expect("at least one mode")
        };
        Decision::new(mode, State::from_snapshot(snapshot))
    }
}

fn main() {
    let config = soc2();
    let train_app = generate_app(&config, &GeneratorParams::default(), 31);
    let test_app = generate_app(&config, &GeneratorParams::default(), 32);

    // Baseline: the custom threshold policy (no training — the grid only
    // trains policies that report themselves as learning). Challenger:
    // Cohmeleon, trained online for 10 iterations.
    let threshold = config.llc_slice_bytes;
    let grid = Experiment::train_test(config, train_app, test_app)
        .policy(PolicySpec::custom("threshold", move |_, _, _| {
            Box::new(ThresholdPolicy { threshold })
        }))
        .policy(PolicySpec::kind(PolicyKind::Cohmeleon))
        // A recomposed learning agent: coarse 27-state sensing + softmax
        // exploration, otherwise the paper's reward and update rule.
        .learners([LearnerSpec {
            state_space: StateSpace::Coarse,
            exploration: ExplorationKind::Softmax,
            ..LearnerSpec::paper()
        }])
        .seed(3)
        .train_iterations(10)
        .build()
        .expect("experiment axes are non-empty");
    let records = grid.collect_records(&WorkStealing::new());

    for record in &records {
        println!(
            "{:<24} {:>14} cycles {:>12} off-chip",
            record.policy, record.total_cycles, record.total_offchip
        );
    }

    // Normalize Cohmeleon against the custom baseline (policy 0).
    let outcomes = normalize_records(&records, 0);
    let cohmeleon = &outcomes[1];
    println!(
        "\ncohmeleon vs {}: geo-time {:.2}, geo-mem {:.2} (lower favours cohmeleon)",
        records[0].policy, cohmeleon.geo_time, cohmeleon.geo_mem
    );
}
