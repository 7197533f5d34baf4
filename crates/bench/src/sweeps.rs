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
//! Six grids are [`figures`](crate::figures): `paper` (Figure 9),
//! `fig5`, `fig6`, `ablation`, `learners` and `weights`. Once one of
//! their sweeps is complete, `sweep` renders the figure from the records
//! ([`print_figure`]).
//!
//! [`GRIDS`] is the one name table: `named_experiment`, `print_figure`
//! and the `sweep` usage text all read it.

use cohmeleon_core::agent::LearnedPolicy;
use cohmeleon_core::explore::{Exploration, Softmax, Ucb1};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::space::StateSpace;
use cohmeleon_core::update::BlendUpdate;
use cohmeleon_exp::{
    AgentScope, CellRecord, Experiment, LearnerSpec, PolicyKind, PolicySpec, WeightPreset,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::figures::{ablation, fig5, fig6, fig9, learner_ablation, weight_sensitivity};
use crate::Scale;

/// One named grid.
#[derive(Debug, Clone, Copy)]
pub struct NamedGrid {
    /// The name `--grid` takes.
    pub name: &'static str,
    /// One line for `--help` and error messages.
    pub description: &'static str,
    /// Builds the grid at a scale.
    pub experiment: fn(Scale) -> Experiment,
    /// Prints the figure rendered from the grid's complete records, for
    /// the grids that are figures.
    pub figure: Option<fn(&[CellRecord])>,
}

/// Every named grid, in `--help` order.
pub const GRIDS: &[NamedGrid] = &[
    NamedGrid {
        name: "suite",
        description: "soc1 quick suite: fixed-non-coh-dma/manual/cohmeleon x 4 seeds (train/test)",
        experiment: suite,
        figure: None,
    },
    NamedGrid {
        name: "learners",
        description:
            "the 18-composition learner design space on soc1 (state x explore x update)",
        experiment: learner_ablation::experiment,
        figure: Some(|records| learner_ablation::print(&learner_ablation::from_records(records))),
    },
    NamedGrid {
        name: "paper",
        description: "Figure 9: eight SoCs x the eight paper policies (train/test, seed 7)",
        experiment: fig9::experiment,
        figure: Some(|records| fig9::print(&fig9::from_records(records))),
    },
    NamedGrid {
        name: "scoped",
        description:
            "agent orchestration: scope (global/per-kind/per-instance) x weights (paper/balanced)",
        experiment: scoped,
        figure: None,
    },
    NamedGrid {
        name: "weights",
        description: "Figure-6-style weight sensitivity: (global/per-kind) x all weight presets",
        experiment: weight_sensitivity::experiment,
        figure: Some(|records| {
            weight_sensitivity::print(&weight_sensitivity::from_records(records))
        }),
    },
    NamedGrid {
        name: "calibration",
        description:
            "softmax tau0 {0.05,0.1,0.2,0.4} + ucb1 c {0.5,sqrt2,2} vs the eps-greedy baseline",
        experiment: calibration,
        figure: None,
    },
    NamedGrid {
        name: "fig5",
        description: "Figure 5: the four phases of the SoC0 test app x the eight paper policies",
        experiment: fig5::experiment,
        figure: Some(|records| fig5::print(&fig5::from_records(records))),
    },
    NamedGrid {
        name: "fig6",
        description: "Figure 6: SoC0 reward-weight variants of cohmeleon x the seven baselines",
        experiment: fig6::experiment,
        figure: Some(|records| fig6::print(&fig6::from_records(records))),
    },
    NamedGrid {
        name: "ablation",
        description:
            "SoC0 ablations: no coherent DMA, oracle attribution, greedy training vs the full system",
        experiment: ablation::experiment,
        figure: Some(|records| ablation::print(&ablation::from_records(records))),
    },
];

fn find(name: &str) -> Option<&'static NamedGrid> {
    GRIDS.iter().find(|grid| grid.name == name)
}

/// Builds the named experiment at `scale`.
///
/// # Errors
///
/// Returns a message listing the known names for an unknown `name`.
pub fn named_experiment(name: &str, scale: Scale) -> Result<Experiment, String> {
    let grid = find(name).ok_or_else(|| {
        let known: Vec<&str> = GRIDS.iter().map(|grid| grid.name).collect();
        format!("unknown grid `{name}` (available: {})", known.join(", "))
    })?;
    Ok((grid.experiment)(scale))
}

/// Prints the figure of the named grid, rendered from its complete
/// records. Grids that are not figures print nothing.
pub fn print_figure(name: &str, records: &[CellRecord]) {
    if let Some(figure) = find(name).and_then(|grid| grid.figure) {
        figure(records);
    }
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
        .policy_kinds([
            PolicyKind::FixedNonCoh,
            PolicyKind::Manual,
            PolicyKind::Cohmeleon,
        ])
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
    // The paper agent with its exploration swapped, under the arm's
    // persisted label.
    fn arm(
        label: &'static str,
        explore: impl Fn(usize) -> Exploration + Send + Sync + 'static,
    ) -> PolicySpec {
        PolicySpec::custom(label, move |_config, iters, seed| {
            Box::new(LearnedPolicy::with_components(
                label,
                StateSpace::Table3,
                explore(iters),
                BlendUpdate::paper(iters),
                RewardWeights::paper_default(),
                iters.max(1),
                seed,
            ))
        })
    }
    let softmax_arms = CALIBRATION_TAU0.iter().map(|&(label, tau0)| {
        arm(label, move |iters| {
            Exploration::Softmax(Softmax::new(tau0, iters))
        })
    });
    let ucb_arms = CALIBRATION_C
        .iter()
        .map(|&(label, c)| arm(label, move |_| Exploration::Ucb1(Ucb1::new(c))));
    Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::Cohmeleon])
        .policies(softmax_arms)
        .policies(ucb_arms)
        .seeds([1, 2, 3])
        .train_iterations(scale.pick(10, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_grid_builds() {
        for NamedGrid { name, .. } in GRIDS {
            let grid = named_experiment(name, Scale::Fast)
                .unwrap()
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(grid.num_cells() > 0, "{name}");
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
        let a = named_experiment("suite", Scale::Fast)
            .unwrap()
            .build()
            .unwrap();
        let b = named_experiment("suite", Scale::Fast)
            .unwrap()
            .build()
            .unwrap();
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
