//! Weight-sensitivity sweep: reward weights (and agent scope) as grid
//! axes, Figure-6 style.
//!
//! The paper's Figure 6 explores the reward weighting `(x, y, z)` by
//! training fifteen independent models; this harness rides the learner
//! grid instead — each [`WeightPreset`] is a serializable [`LearnerSpec`]
//! cell, crossed with the agent scope ([`AgentScope::Global`] vs
//! [`AgentScope::PerKind`]), so weight exploration gets resumable
//! checkpoints, fleet workers and JSONL artifacts for free (exactly like
//! `learner_ablation`). Every cell is normalized against the paper cell
//! (global scope, paper weights — the grid's policy 0).

use cohmeleon_exp::{AgentScope, CellRecord, Experiment, LearnerSpec, WeightPreset};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::scale::Scale;
use crate::table;

/// One cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The learner configuration (paper components; scope/weights vary).
    pub spec: LearnerSpec,
    /// Its policy label (`"cohmeleon"` for the paper cell).
    pub label: String,
    /// Geometric-mean normalized execution time vs. the paper cell.
    pub norm_time: f64,
    /// Geometric-mean normalized off-chip accesses vs. the paper cell.
    pub norm_mem: f64,
}

/// The sweep results.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// One arm per cell, in grid order (the paper cell first).
    pub arms: Vec<Arm>,
}

/// The swept scopes: the paper's single global agent, and one agent per
/// accelerator kind (Alsop et al.'s specialization argument).
pub const SCOPES: [AgentScope; 2] = [AgentScope::Global, AgentScope::PerKind];

/// The swept cells: [`SCOPES`] × every [`WeightPreset`], scope-major, so
/// cell 0 is the paper configuration (global + paper weights) and each
/// scope sweeps the full weight range.
pub fn specs() -> Vec<LearnerSpec> {
    LearnerSpec::scope_weight_grid(&SCOPES, &WeightPreset::ALL)
}

/// The sweep as an [`Experiment`] builder: one scenario (SoC1
/// train/test), the 10 cells of [`specs`], one seed. This is the
/// `weights` grid of [`sweeps`](crate::sweeps), which checkpoints,
/// resumes and shards it.
pub fn experiment(scale: Scale) -> Experiment {
    let config = soc1();
    let iterations = scale.pick(10, 2);
    let gen_params = scale.pick(GeneratorParams::coverage(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 7101);
    let test_app = generate_app(&config, &gen_params, 7102);
    Experiment::train_test(config, train_app, test_app)
        .learners(specs().iter().copied())
        .seed(13)
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

/// Prints the weight-sensitivity table, one row per (scope, weights) cell.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .arms
        .iter()
        .map(|a| {
            vec![
                a.spec.scope.label().to_owned(),
                a.spec.weights.label().to_owned(),
                a.label.clone(),
                table::ratio(a.norm_time),
                table::ratio(a.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["scope", "weights", "label", "norm-time", "norm-mem"],
            &rows
        )
    );
    println!("(normalized to global scope + paper weights; >1.00 means worse)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_scopes_and_presets() {
        let specs = specs();
        assert_eq!(specs.len(), SCOPES.len() * WeightPreset::ALL.len());
        assert_eq!(specs[0], LearnerSpec::paper());
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "labels must be distinct");
        assert!(labels.contains("cohmeleon"));
    }

    #[test]
    fn fast_sweep_runs_all_cells_deterministically() {
        let a = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(a.arms.len(), specs().len());
        assert_eq!(a.arms[0].label, "cohmeleon");
        assert_eq!(a.arms[0].norm_time, 1.0);
        for arm in &a.arms {
            assert!(arm.norm_time > 0.0, "{}", arm.label);
            assert!(arm.norm_mem >= 0.0, "{}", arm.label);
        }
        let b = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(a, b);
    }
}
