//! Learner-ablation sweep: the agent design space through the grid.
//!
//! The agent redesign decomposed the learning subsystem into pluggable
//! state spaces, exploration strategies and update rules; this harness
//! sweeps the Cartesian product (3 spaces × 3 strategies × 2 update
//! rules) as one [`SweepGrid`](cohmeleon_exp::SweepGrid) axis and reports
//! every cell normalized against the paper's composition — which ablation
//! choices Cohmeleon's results actually depend on.

use cohmeleon_exp::{CellRecord, Experiment, ExplorationKind, LearnerSpec, StateSpace, UpdateKind};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::scale::Scale;
use crate::table;

/// One learner cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The learner configuration.
    pub spec: LearnerSpec,
    /// Its policy label (`"cohmeleon"` for the paper cell).
    pub label: String,
    /// Geometric-mean normalized execution time vs. the paper agent.
    pub norm_time: f64,
    /// Geometric-mean normalized off-chip accesses vs. the paper agent.
    pub norm_mem: f64,
}

/// The sweep results.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// One arm per learner spec, in grid order (the paper cell first).
    pub arms: Vec<Arm>,
}

/// The swept axes: every state space, every exploration strategy, both
/// update rules — 18 compositions, the paper's (`cohmeleon`) first.
pub fn specs() -> Vec<LearnerSpec> {
    let mut specs = LearnerSpec::grid(&StateSpace::ALL, &ExplorationKind::ALL, &UpdateKind::ALL);
    // The paper composition is the normalization baseline: cell 0.
    specs.retain(|s| *s != LearnerSpec::paper());
    specs.insert(0, LearnerSpec::paper());
    specs
}

/// The sweep as an [`Experiment`] builder: one scenario (SoC1
/// train/test), the 18 learner cells of [`specs`], one seed. This is the
/// `learners` grid of [`sweeps`](crate::sweeps), which checkpoints,
/// resumes and shards it.
pub fn experiment(scale: Scale) -> Experiment {
    let config = soc1();
    let iterations = scale.pick(10, 2);
    let gen_params = scale.pick(GeneratorParams::coverage(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 7001);
    let test_app = generate_app(&config, &gen_params, 7002);
    Experiment::train_test(config, train_app, test_app)
        .learners(specs().iter().copied())
        .seed(11)
        .train_iterations(iterations)
}

/// Renders the table from the grid's records, every cell normalized
/// against the paper cell (policy 0).
pub fn from_records(records: &[CellRecord]) -> Data {
    let specs = specs();
    let arms = records
        .iter()
        .zip(super::arm_ratios(records))
        .map(|(r, (norm_time, norm_mem))| Arm {
            spec: specs[r.policy_index],
            label: r.policy.clone(),
            norm_time,
            norm_mem,
        })
        .collect();
    Data { arms }
}

/// Prints the ablation table, one row per learner composition.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .arms
        .iter()
        .map(|a| {
            vec![
                a.spec.to_string(),
                a.label.clone(),
                table::ratio(a.norm_time),
                table::ratio(a.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "learner (space/explore/update)",
                "label",
                "norm-time",
                "norm-mem"
            ],
            &rows
        )
    );
    println!("(normalized to the paper composition; >1.00 means that composition is worse)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_design_space() {
        let specs = specs();
        assert_eq!(specs.len(), 18);
        assert_eq!(specs[0], LearnerSpec::paper());
        let spaces: std::collections::HashSet<_> = specs.iter().map(|s| s.state_space).collect();
        let explorations: std::collections::HashSet<_> =
            specs.iter().map(|s| s.exploration).collect();
        let updates: std::collections::HashSet<_> = specs.iter().map(|s| s.update).collect();
        assert_eq!(spaces.len(), 3);
        assert_eq!(explorations.len(), 3);
        assert_eq!(updates.len(), 2);
    }

    #[test]
    fn fast_sweep_runs_all_cells_deterministically() {
        let a = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(a.arms.len(), 18);
        assert_eq!(a.arms[0].label, "cohmeleon");
        assert_eq!(a.arms[0].norm_time, 1.0);
        for arm in &a.arms {
            assert!(arm.norm_time > 0.0, "{}", arm.label);
            assert!(arm.norm_mem >= 0.0, "{}", arm.label);
        }
        // Bit-identical re-run: the whole sweep is a pure function of its
        // seeds.
        let b = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(a, b);
    }
}
