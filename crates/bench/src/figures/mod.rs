//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — coherence modes in the literature |
//! | [`table2`] | Table 2 — accelerators vs. benchmark suites |
//! | [`table4`] | Table 4 — parameters of the evaluation SoCs |
//! | [`fig2`] | Figure 2 — accelerators in isolation |
//! | [`fig3`] | Figure 3 — parallel accelerator execution |
//! | [`fig5`] | Figure 5 — four phases on SoC0, eight policies |
//! | [`fig6`] | Figure 6 — reward-function design-space exploration |
//! | [`fig7`] | Figure 7 — breakdown of coherence decisions |
//! | [`fig8`] | Figure 8 — performance over training iterations |
//! | [`fig9`] | Figure 9 — eight SoC configurations, eight policies |
//! | [`overhead`] | Section 6 — Cohmeleon's runtime overhead |
//! | [`ablation`] | Beyond the paper — design-choice ablations |
//! | [`learner_ablation`] | Beyond the paper — the agent design space (state spaces × exploration strategies × update rules) |
//! | [`weight_sensitivity`] | Beyond the paper — Figure-6-style reward weights × agent scope |
//!
//! The grid figures ([`fig5`], [`fig6`], [`fig9`], [`ablation`],
//! [`learner_ablation`], [`weight_sensitivity`]) are pure functions of
//! their cell records: each exposes `experiment(scale)` (its grid) and
//! `from_records(&[CellRecord])` (the figure). A finished `sweep`
//! checkpoint of the grid renders the figure without re-simulating.
//! `sweep` is the one way to print them, as the `fig5`, `fig6`, `paper`,
//! `ablation`, `learners` and `weights` grids; none has a binary of its
//! own. The other figures read per-invocation data that a record does not
//! carry.

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod learner_ablation;
pub mod overhead;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod weight_sensitivity;

use cohmeleon_exp::{normalize_records, CellRecord};

/// Runs a figure's grid on the work-stealing executor and renders the
/// figure from its records (the grid figures' unit tests).
#[cfg(test)]
fn run_grid<D>(experiment: cohmeleon_exp::Experiment, from_records: fn(&[CellRecord]) -> D) -> D {
    let grid = experiment.build().expect("figure grids have every axis");
    from_records(&grid.collect_records(&cohmeleon_exp::WorkStealing::new()))
}

/// Each record's `(norm_time, norm_mem)` against policy 0 of its scenario
/// and seed, the baseline arm of the arm tables. Policy 0 itself is
/// `(1.0, 1.0)` by definition.
fn arm_ratios(records: &[CellRecord]) -> Vec<(f64, f64)> {
    records
        .iter()
        .zip(normalize_records(records, 0))
        .map(|(r, o)| {
            if r.policy_index == 0 {
                (1.0, 1.0)
            } else {
                (o.geo_time, o.geo_mem)
            }
        })
        .collect()
}
