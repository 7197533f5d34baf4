//! Learner-ablation sweep: the agent design space through the grid.
//!
//! The agent redesign decomposed the learning subsystem into pluggable
//! state spaces, exploration strategies and update rules; this harness
//! sweeps the Cartesian product (3 spaces × 3 strategies × 2 update
//! rules) as one [`SweepGrid`](cohmeleon_exp::SweepGrid) axis and reports
//! every cell normalized against the paper's composition — which ablation
//! choices Cohmeleon's results actually depend on.

use std::collections::HashMap;

use cohmeleon_exp::{
    CellRecord, Experiment, ExplorationKind, JsonlSink, LearnerSpec, StateSpaceKind, UpdateKind,
    WorkStealing,
};
use cohmeleon_sim::stats::geometric_mean;
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

/// The sweep results plus the per-cell records the JSONL artifact holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// One arm per learner spec, in grid order (the paper cell first).
    pub arms: Vec<Arm>,
    /// The flat per-cell records (what [`write_jsonl`] persists).
    pub records: Vec<CellRecord>,
}

/// The swept axes: every state space, every exploration strategy, both
/// update rules — 18 compositions, the paper's (`cohmeleon`) first.
pub fn specs() -> Vec<LearnerSpec> {
    let mut specs = LearnerSpec::grid(
        &StateSpaceKind::ALL,
        &ExplorationKind::ALL,
        &UpdateKind::ALL,
    );
    // The paper composition is the normalization baseline: cell 0.
    specs.retain(|s| *s != LearnerSpec::paper());
    specs.insert(0, LearnerSpec::paper());
    specs
}

/// The sweep as an [`Experiment`] builder: one scenario (SoC1
/// train/test), the 18 learner cells of [`specs`], one seed, with the
/// harness's conventional checkpoint path (`learner_ablation.jsonl`)
/// pre-set so `--resume` runs pick up where a killed sweep stopped. The
/// binary may override the path before building.
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
        .resume_from("learner_ablation.jsonl")
}

/// Runs the sweep in-process and normalizes every cell against the paper
/// agent (cell 0).
pub fn run(scale: Scale) -> Data {
    let grid = experiment(scale)
        .build()
        .expect("learner ablation axes are non-empty");
    let results = grid.collect(&WorkStealing::new());
    let records: Vec<CellRecord> = results.iter().map(CellRecord::from_cell).collect();
    data_from_records(records)
}

/// Rebuilds the ablation table from persisted cell records — what the
/// `--resume` path (and any post-hoc figure regeneration from a JSONL
/// artifact, such as a `sweep shard` output) uses instead of
/// re-simulating. The per-phase
/// normalization is numerically identical to
/// [`summarize`](cohmeleon_workloads::runner::summarize) on the live
/// results: both divide the same integer totals in the same order.
pub fn data_from_records(records: Vec<CellRecord>) -> Data {
    let specs = specs();
    let baselines: HashMap<(usize, usize), &CellRecord> = records
        .iter()
        .filter(|r| r.policy_index == 0)
        .map(|r| ((r.scenario_index, r.seed_index), r))
        .collect();
    let arms = records
        .iter()
        .map(|r| {
            let (norm_time, norm_mem) = if r.policy_index == 0 {
                (1.0, 1.0)
            } else {
                let base = baselines
                    .get(&(r.scenario_index, r.seed_index))
                    .expect("baseline (policy 0) record present for every scenario/seed");
                let ratios: Vec<(f64, f64)> = r
                    .phases
                    .iter()
                    .zip(&base.phases)
                    .map(|(p, b)| {
                        (
                            p.1 as f64 / b.1.max(1) as f64,
                            p.2 as f64 / b.2.max(1) as f64,
                        )
                    })
                    .collect();
                (
                    geometric_mean(ratios.iter().map(|r| r.0)).unwrap_or(1.0),
                    geometric_mean(ratios.iter().map(|r| r.1)).unwrap_or(1.0),
                )
            };
            Arm {
                spec: specs[r.policy_index],
                label: r.policy.clone(),
                norm_time,
                norm_mem,
            }
        })
        .collect();
    Data { arms, records }
}

/// Writes the per-cell records as JSONL (the CI artifact).
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_jsonl(data: &Data, path: &str) -> std::io::Result<()> {
    let mut sink = JsonlSink::create(path)?;
    for record in &data.records {
        sink.write_record(record);
    }
    sink.into_inner();
    Ok(())
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
        let spaces: std::collections::HashSet<_> =
            specs.iter().map(|s| s.state_space).collect();
        let explorations: std::collections::HashSet<_> =
            specs.iter().map(|s| s.exploration).collect();
        let updates: std::collections::HashSet<_> = specs.iter().map(|s| s.update).collect();
        assert_eq!(spaces.len(), 3);
        assert_eq!(explorations.len(), 3);
        assert_eq!(updates.len(), 2);
    }

    #[test]
    fn fast_sweep_runs_all_cells_deterministically() {
        let a = run(Scale::Fast);
        assert_eq!(a.arms.len(), 18);
        assert_eq!(a.records.len(), 18);
        assert_eq!(a.arms[0].label, "cohmeleon");
        assert_eq!(a.arms[0].norm_time, 1.0);
        for arm in &a.arms {
            assert!(arm.norm_time > 0.0, "{}", arm.label);
            assert!(arm.norm_mem >= 0.0, "{}", arm.label);
        }
        // Bit-identical re-run: the whole sweep is a pure function of its
        // seeds.
        let b = run(Scale::Fast);
        assert_eq!(a, b);
    }

    #[test]
    fn records_rebuild_exactly_the_live_outcomes() {
        // The record-based normalization must be bit-identical to the
        // live `summarize` path, or figures regenerated from a JSONL
        // artifact would drift from figures computed in-process.
        let grid = experiment(Scale::Fast).build().unwrap();
        let results = grid.collect(&cohmeleon_exp::Serial);
        let records: Vec<CellRecord> = results.iter().map(CellRecord::from_cell).collect();
        let live: Vec<(f64, f64)> = results
            .into_outcomes_against(0)
            .into_iter()
            .map(|(cell, o)| {
                if cell.policy == 0 {
                    (1.0, 1.0)
                } else {
                    (o.geo_time, o.geo_mem)
                }
            })
            .collect();
        let rebuilt = data_from_records(records);
        assert_eq!(rebuilt.arms.len(), live.len());
        for (arm, (geo_time, geo_mem)) in rebuilt.arms.iter().zip(&live) {
            assert_eq!(arm.norm_time, *geo_time, "{}", arm.label);
            assert_eq!(arm.norm_mem, *geo_mem, "{}", arm.label);
        }
    }

    #[test]
    fn jsonl_records_round_trip() {
        let data = run(Scale::Fast);
        let text: String = data
            .records
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let parsed = cohmeleon_exp::read_jsonl(&text).unwrap();
        assert_eq!(parsed, data.records);
    }
}
