//! Named sweep grids for the `sweep` command-line harness.
//!
//! A fleet worker process (`sweep worker`, on this host as one of `sweep
//! shard`'s workers or on another) must rebuild *exactly* the grid its
//! queen is running from nothing but the name in the queen's `HELLO`
//! (grids hold policy-builder closures — no wire format can carry them).
//! This module is that name table: every entry is a deterministic
//! function of `(name, scale)`, which is what makes a worker's records
//! meaningful, and what lets a resumed run trust that the checkpoint on
//! disk belongs to the grid being resumed (the checkpoint layer verifies
//! labels and seeds against the rebuilt grid).
//!
//! Each experiment comes with its conventional checkpoint path
//! (`<name>.jsonl`) pre-set via
//! [`Experiment::resume_from`]; the `sweep` binary overrides it when
//! `--out` is given.

use cohmeleon_core::agent::AgentBuilder;
use cohmeleon_core::explore::{Softmax, Ucb1};
use cohmeleon_exp::{AgentScope, Experiment, LearnerSpec, PolicyKind, PolicySpec, WeightPreset};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::figures::{learner_ablation, weight_sensitivity};
use crate::Scale;

/// The available grid names with one-line descriptions (for `--help` and
/// error messages).
pub const GRID_NAMES: &[(&str, &str)] = &[
    (
        "suite",
        "soc1 quick suite: fixed-non-coh-dma/manual/cohmeleon x 4 seeds (train/test)",
    ),
    (
        "learners",
        "the 18-composition learner design space on soc1 (state x explore x update)",
    ),
    (
        "paper",
        "all eight paper policies on soc1 (train/test, one seed)",
    ),
    (
        "scoped",
        "agent orchestration: scope (global/per-kind/per-instance) x weights (paper/balanced)",
    ),
    (
        "weights",
        "Figure-6-style weight sensitivity: (global/per-kind) x all weight presets",
    ),
    (
        "calibration",
        "softmax tau0 {0.05,0.1,0.2,0.4} + ucb1 c {0.5,sqrt2,2} vs the eps-greedy baseline",
    ),
];

/// Builds the named experiment at `scale`. The returned builder still
/// accepts an [`Experiment::resume_from`] override before
/// [`Experiment::build`].
///
/// # Errors
///
/// Returns a message listing the known names for an unknown `name`.
pub fn named_experiment(name: &str, scale: Scale) -> Result<Experiment, String> {
    let experiment = match name {
        "suite" => suite(scale),
        "learners" => learner_ablation::experiment(scale),
        "paper" => paper(scale),
        "scoped" => scoped(scale),
        "weights" => weight_sensitivity::experiment(scale),
        "calibration" => calibration(scale),
        other => {
            let known: Vec<&str> = GRID_NAMES.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown grid `{other}` (available: {})",
                known.join(", ")
            ));
        }
    };
    Ok(experiment.resume_from(format!("{name}.jsonl")))
}

/// The tracked three-policy suite on SoC1 over four seeds: small and fast,
/// which makes it the CI resume/shard smoke grid.
fn suite(scale: Scale) -> Experiment {
    let config = soc1();
    let params = scale.pick(
        GeneratorParams::quick(),
        GeneratorParams {
            phases: 1,
            ..GeneratorParams::quick()
        },
    );
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual, PolicyKind::Cohmeleon])
        .seeds([1, 2, 3, 4])
        .train_iterations(scale.pick(2, 1))
}

/// The scoped-orchestration smoke grid: every [`AgentScope`] × two weight
/// presets over the paper's component composition — small enough for the
/// CI resume/shard smoke, wide enough that every routing path (global,
/// per-kind, per-instance) and a reweighted learner appear as checkpoint
/// cells.
fn scoped(scale: Scale) -> Experiment {
    let config = soc1();
    let params = scale.pick(
        GeneratorParams::quick(),
        GeneratorParams {
            phases: 1,
            ..GeneratorParams::quick()
        },
    );
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    Experiment::train_test(config, train, test)
        .learners(LearnerSpec::scope_weight_grid(
            &AgentScope::ALL,
            &[WeightPreset::Paper, WeightPreset::Balanced],
        ))
        .seed(5)
        .train_iterations(scale.pick(2, 1))
}

/// The Softmax-τ₀ ∈ {0.05, 0.1, 0.2, 0.4} and UCB1-c ∈ {0.5, √2, 2}
/// calibration points, each an `(stable label, constant)` pair. Labels
/// are persisted cell-record coordinates — never rename one.
pub const CALIBRATION_TAU0: [(&str, f64); 4] = [
    ("softmax-t0.05", 0.05),
    ("softmax-t0.1", 0.1),
    ("softmax-t0.2", Softmax::DEFAULT_TAU0),
    ("softmax-t0.4", 0.4),
];

/// The UCB1 exploration constants of the calibration grid (see
/// [`CALIBRATION_TAU0`]). `ucb1-c1.414` is the default c = √2.
pub const CALIBRATION_C: [(&str, f64); 3] = [
    ("ucb1-c0.5", 0.5),
    ("ucb1-c1.414", Ucb1::DEFAULT_C),
    ("ucb1-c2", 2.0),
];

/// The exploration-constant calibration grid (ROADMAP "Softmax/UCB
/// tuning"): the paper composition with Softmax at each τ₀, UCB1 at each
/// c, and the ε-greedy paper agent as the baseline cell (policy 0), over
/// three seeds so a constant must win on average, not by luck. The
/// findings are recorded next to `DEFAULT_TAU0`/`DEFAULT_C` in
/// `cohmeleon_core::explore`.
fn calibration(scale: Scale) -> Experiment {
    let config = soc1();
    let params = scale.pick(GeneratorParams::coverage(), GeneratorParams::quick());
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    let softmax_arms = CALIBRATION_TAU0.iter().map(|&(label, tau0)| {
        PolicySpec::custom(label, move |_config, iters, seed| {
            Box::new(
                AgentBuilder::paper(iters, seed)
                    .exploration(Softmax::new(tau0, iters))
                    .label(label)
                    .build(),
            )
        })
    });
    let ucb_arms = CALIBRATION_C.iter().map(|&(label, c)| {
        PolicySpec::custom(label, move |_config, iters, seed| {
            Box::new(
                AgentBuilder::paper(iters, seed)
                    .exploration(Ucb1::new(c))
                    .label(label)
                    .build(),
            )
        })
    });
    Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::Cohmeleon])
        .policies(softmax_arms)
        .policies(ucb_arms)
        .seeds([1, 2, 3])
        .train_iterations(scale.pick(10, 2))
}

/// The full eight-policy comparison on SoC1.
fn paper(scale: Scale) -> Experiment {
    let config = soc1();
    let params = scale.pick(GeneratorParams::coverage(), GeneratorParams::quick());
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    Experiment::train_test(config, train, test)
        .policy_kinds(PolicyKind::ALL)
        .seed(7)
        .train_iterations(scale.pick(10, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_grid_builds() {
        for (name, _) in GRID_NAMES {
            let grid = named_experiment(name, Scale::Fast)
                .unwrap()
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(grid.num_cells() > 0, "{name}");
            assert_eq!(
                grid.resume_path().unwrap().to_str().unwrap(),
                format!("{name}.jsonl"),
                "{name} carries its conventional checkpoint path"
            );
        }
    }

    #[test]
    fn unknown_names_list_the_alternatives() {
        let err = named_experiment("nope", Scale::Fast).unwrap_err();
        assert!(err.contains("suite") && err.contains("learners"), "{err}");
    }

    #[test]
    fn rebuilding_a_named_grid_is_deterministic() {
        // The fleet-worker contract: a worker process rebuilding the grid
        // by name must get bit-identical cells.
        let a = named_experiment("suite", Scale::Fast).unwrap().build().unwrap();
        let b = named_experiment("suite", Scale::Fast).unwrap().build().unwrap();
        let cell = cohmeleon_exp::CellId {
            scenario: 0,
            policy: 0,
            seed: 1,
        };
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(
            a.run_cell(cell).result.structural_hash(),
            b.run_cell(cell).result.structural_hash()
        );
    }
}
