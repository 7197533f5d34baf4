//! Sweepable learner configurations: [`LearnerSpec`] names one cell of the
//! agent design space (state space × exploration × update rule, plus the
//! scope and reward-weight orchestration axes) as plain data.
//!
//! `cohmeleon-core` composes one learning agent type,
//! [`LearnedPolicy`], from closed component types; this module is the
//! one place a composition is *named* — a `LearnerSpec` is `Copy`,
//! serializable, prints a stable string form (`table3/eps-greedy/blend`),
//! and builds the corresponding boxed policy for a grid cell. That is
//! what lets a
//! [`SweepGrid`](crate::SweepGrid) treat "which learner" as one more axis,
//! exactly like seeds and scenarios (see the `learners` grid of
//! `cohmeleon_bench::sweeps`, rendered by its `learner_ablation` figure).
//!
//! Two stability notes. The string form doubles as the cell's *policy
//! label* ([`LearnerSpec::label`]), which persisted records and resumed
//! sweeps compare as a string — treat it like the policy names in
//! `cohmeleon_core::Policy::name`, i.e. never rename a variant's label,
//! and keep every spec's label distinct.
//! And the non-default exploration strategies are built with their fixed
//! documented constants
//! ([`Softmax::DEFAULT_TAU0`](cohmeleon_core::explore::Softmax::DEFAULT_TAU0),
//! [`Ucb1::DEFAULT_C`](cohmeleon_core::explore::Ucb1::DEFAULT_C)); those
//! constants are uncalibrated against the paper's ε schedule, so read
//! cross-strategy ablation gaps with that caveat (their rustdoc explains
//! the derivation and how to override via
//! [`LearnedPolicy::with_components`]).

use std::fmt;

use serde::{Deserialize, Serialize};

use cohmeleon_core::agent::LearnedPolicy;
use cohmeleon_core::explore::{EpsilonGreedy, Exploration, Softmax, Ucb1};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::router::{PolicyRouter, ScopeKey};
use cohmeleon_core::update::BlendUpdate;
use cohmeleon_core::Policy;

pub use cohmeleon_core::router::AgentScope;
pub use cohmeleon_core::space::StateSpace;

/// Which exploration strategy selects actions during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExplorationKind {
    /// The paper's ε-greedy with linear decay.
    EpsilonGreedy,
    /// Boltzmann sampling with temperature decay.
    Softmax,
    /// Deterministic UCB1.
    Ucb1,
}

/// Which update rule folds rewards into the Q-table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateKind {
    /// The paper's `(1−α)Q + αR` blend.
    Blend,
    /// The discounted bootstrap variant.
    Discounted,
}

impl ExplorationKind {
    /// All exploration strategies.
    pub const ALL: [ExplorationKind; 3] = [
        ExplorationKind::EpsilonGreedy,
        ExplorationKind::Softmax,
        ExplorationKind::Ucb1,
    ];

    /// The stable string form.
    pub fn label(self) -> &'static str {
        match self {
            ExplorationKind::EpsilonGreedy => "eps-greedy",
            ExplorationKind::Softmax => "softmax",
            ExplorationKind::Ucb1 => "ucb1",
        }
    }

    fn build(self, train_iterations: usize) -> Exploration {
        match self {
            ExplorationKind::EpsilonGreedy => {
                Exploration::EpsilonGreedy(EpsilonGreedy::paper(train_iterations))
            }
            ExplorationKind::Softmax => {
                Exploration::Softmax(Softmax::default_schedule(train_iterations))
            }
            ExplorationKind::Ucb1 => Exploration::Ucb1(Ucb1::default()),
        }
    }
}

impl UpdateKind {
    /// Both update rules.
    pub const ALL: [UpdateKind; 2] = [UpdateKind::Blend, UpdateKind::Discounted];

    /// The stable string form.
    pub fn label(self) -> &'static str {
        match self {
            UpdateKind::Blend => "blend",
            UpdateKind::Discounted => "discounted",
        }
    }

    fn build(self, train_iterations: usize) -> BlendUpdate {
        match self {
            UpdateKind::Blend => BlendUpdate::paper(train_iterations),
            UpdateKind::Discounted => BlendUpdate::discounted(train_iterations),
        }
    }
}

/// Which reward weighting `(x, y, z)` the agent trains against — the
/// learner axis behind the paper's Figure-6 design-space exploration,
/// expressed as named presets so weight sweeps are serializable grid
/// cells (see the `weights` grid of `cohmeleon_bench::sweeps`, rendered
/// by its `weight_sensitivity` figure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightPreset {
    /// The paper's cross-SoC configuration: 67.5% execution time, 7.5%
    /// communication ratio, 25% off-chip accesses.
    Paper,
    /// Execution time only: `(100, 0, 0)` — Figure 6's pure-latency
    /// corner.
    Exec,
    /// Equal thirds: `(1, 1, 1)` normalised.
    Balanced,
    /// The paper's second Pareto-optimal point: `(12.5, 12.5, 75)`.
    MemHeavy,
    /// Off-chip accesses only: `(0, 0, 100)` — the corner the paper found
    /// significantly worse on execution time.
    Mem,
}

impl WeightPreset {
    /// All presets, paper first.
    pub const ALL: [WeightPreset; 5] = [
        WeightPreset::Paper,
        WeightPreset::Exec,
        WeightPreset::Balanced,
        WeightPreset::MemHeavy,
        WeightPreset::Mem,
    ];

    /// The stable string form (a persisted label component — never rename).
    pub fn label(self) -> &'static str {
        match self {
            WeightPreset::Paper => "paper",
            WeightPreset::Exec => "exec",
            WeightPreset::Balanced => "balanced",
            WeightPreset::MemHeavy => "mem-heavy",
            WeightPreset::Mem => "mem",
        }
    }

    /// The concrete reward weights this preset names.
    pub fn weights(self) -> RewardWeights {
        let (x, y, z) = match self {
            WeightPreset::Paper => return RewardWeights::paper_default(),
            WeightPreset::Exec => (100.0, 0.0, 0.0),
            WeightPreset::Balanced => (1.0, 1.0, 1.0),
            WeightPreset::MemHeavy => (12.5, 12.5, 75.0),
            WeightPreset::Mem => (0.0, 0.0, 100.0),
        };
        RewardWeights::new(x, y, z).expect("presets are valid weightings")
    }
}

/// One cell of the learner design space, as plain serializable data.
///
/// `LearnerSpec::paper()` names the composition the paper evaluates;
/// [`grid`](Self::grid) enumerates Cartesian sweeps for ablation
/// harnesses. Beyond the three component axes, a spec carries two
/// orchestration axes: the [`AgentScope`] (does one agent drive the whole
/// SoC, or one per accelerator kind/instance?) and the [`WeightPreset`]
/// (which reward weighting the agent trains against).
///
/// `Display` prints the component segments (`"extended/ucb1/discounted"`)
/// and appends the scope and weights segments only for non-default
/// orchestration (`"table3/eps-greedy/blend/per-kind/mem"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LearnerSpec {
    /// The state-space discretizer.
    pub state_space: StateSpace,
    /// The exploration strategy.
    pub exploration: ExplorationKind,
    /// The update rule.
    pub update: UpdateKind,
    /// How agents are partitioned across accelerators.
    pub scope: AgentScope,
    /// The reward weighting the agent trains against.
    pub weights: WeightPreset,
}

impl LearnerSpec {
    /// The paper's composition: Table-3 / ε-greedy / blend, one global
    /// agent, paper reward weights.
    pub fn paper() -> LearnerSpec {
        LearnerSpec {
            state_space: StateSpace::Table3,
            exploration: ExplorationKind::EpsilonGreedy,
            update: UpdateKind::Blend,
            scope: AgentScope::Global,
            weights: WeightPreset::Paper,
        }
    }

    /// This spec with a different [`AgentScope`].
    pub fn with_scope(self, scope: AgentScope) -> LearnerSpec {
        LearnerSpec { scope, ..self }
    }

    /// This spec with a different [`WeightPreset`].
    pub fn with_weights(self, weights: WeightPreset) -> LearnerSpec {
        LearnerSpec { weights, ..self }
    }

    /// The Cartesian product of scopes × weight presets over the paper's
    /// component composition, scope-major — the input to the scoped
    /// orchestration and weight-sensitivity sweeps.
    pub fn scope_weight_grid(scopes: &[AgentScope], weights: &[WeightPreset]) -> Vec<LearnerSpec> {
        let mut specs = Vec::with_capacity(scopes.len() * weights.len());
        for &scope in scopes {
            for &preset in weights {
                specs.push(LearnerSpec::paper().with_scope(scope).with_weights(preset));
            }
        }
        specs
    }

    /// The Cartesian product of the given axis values, in
    /// state-space-major order — the input to a learner-ablation sweep.
    /// All cells use the default orchestration (global scope, paper
    /// weights); compose with [`with_scope`](Self::with_scope) /
    /// [`with_weights`](Self::with_weights) to move them.
    pub fn grid(
        spaces: &[StateSpace],
        explorations: &[ExplorationKind],
        updates: &[UpdateKind],
    ) -> Vec<LearnerSpec> {
        let mut specs = Vec::with_capacity(spaces.len() * explorations.len() * updates.len());
        for &state_space in spaces {
            for &exploration in explorations {
                for &update in updates {
                    specs.push(LearnerSpec {
                        state_space,
                        exploration,
                        update,
                        ..LearnerSpec::paper()
                    });
                }
            }
        }
        specs
    }

    /// The policy display label this spec builds under: `"cohmeleon"` for
    /// the paper composition (it *is* the paper agent), otherwise
    /// `"ql[<spec>]"` so ablation arms stay distinguishable in figures and
    /// grids.
    pub fn label(&self) -> String {
        if *self == LearnerSpec::paper() {
            "cohmeleon".to_owned()
        } else {
            format!("ql[{self}]")
        }
    }

    /// Builds one (sub-)agent of this composition — what a [`Global`]
    /// cell runs directly and what a scoped cell's router builds per
    /// [`ScopeKey`].
    ///
    /// The agent auto-freezes after `max(1, train_iterations)`
    /// iterations, the horizon of the paper's ε and α schedules, so the
    /// paper spec builds exactly the agent `CohmeleonPolicy::new` builds
    /// from `train_iterations`.
    ///
    /// [`Global`]: AgentScope::Global
    fn build_agent(&self, train_iterations: usize, seed: u64) -> LearnedPolicy {
        LearnedPolicy::with_components(
            self.label(),
            self.state_space,
            self.exploration.build(train_iterations),
            self.update.build(train_iterations),
            self.weights.weights(),
            train_iterations.max(1),
            seed,
        )
    }

    /// Builds the agent for one grid cell. A [`Global`]-scoped spec
    /// builds one [`LearnedPolicy`]; `PerKind`/`PerInstance` specs wrap
    /// the composition in a
    /// [`PolicyRouter`] — one sub-agent of the same composition (same
    /// seed) per scope key, created as the engine binds the SoC topology.
    ///
    /// [`Global`]: AgentScope::Global
    pub fn build(&self, train_iterations: usize, seed: u64) -> Box<dyn Policy> {
        match self.scope {
            AgentScope::Global => Box::new(self.build_agent(train_iterations, seed)),
            scope => {
                // Sub-agents are built as the *global* variant of this
                // spec (partitioning is the router's job, not the
                // sub-agent's), every one from the same seed: divergence
                // from the global cell comes only from state partitioning.
                let sub = self.with_scope(AgentScope::Global);
                let factory = move |_key: ScopeKey, sub_seed: u64| -> Box<dyn Policy> {
                    Box::new(sub.build_agent(train_iterations, sub_seed))
                };
                Box::new(PolicyRouter::new(scope, seed, factory).with_label(self.label()))
            }
        }
    }
}

impl fmt::Display for LearnerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}",
            self.state_space.label(),
            self.exploration.label(),
            self.update.label()
        )?;
        if self.scope != AgentScope::Global || self.weights != WeightPreset::Paper {
            write!(f, "/{}/{}", self.scope.label(), self.weights.label())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_builds_the_paper_agent() {
        use cohmeleon_core::policy::CohmeleonPolicy;
        use cohmeleon_core::reward::InvocationMeasurement;
        use cohmeleon_core::snapshot::{ArchParams, SystemSnapshot};
        use cohmeleon_core::{AccelInstanceId, ModeSet, PartitionId};

        let spec = LearnerSpec::paper();
        assert_eq!(spec.label(), "cohmeleon");
        // Same decisions and the same table as `CohmeleonPolicy::new`,
        // through and past the schedule horizon (including the clamped
        // zero-iteration horizon).
        for iterations in [0, 3] {
            let mut built = spec.build(iterations, 7);
            let mut direct: Box<dyn Policy> = Box::new(CohmeleonPolicy::new(
                RewardWeights::paper_default(),
                iterations,
                7,
            ));
            assert_eq!(built.name(), "cohmeleon");
            for iteration in 0..iterations + 2 {
                built.begin_iteration(iteration);
                direct.begin_iteration(iteration);
                for i in 0..20u64 {
                    let snapshot = SystemSnapshot::new(
                        ArchParams::new(32 * 1024, 256 * 1024, 2),
                        vec![],
                        1024 << (i % 9),
                        vec![PartitionId(0)],
                    );
                    let measurement = InvocationMeasurement {
                        total_cycles: 10_000 + 997 * i,
                        accel_active_cycles: 5_000,
                        accel_comm_cycles: 2_000,
                        offchip_accesses: (i * 13 % 100) as f64,
                        footprint_bytes: 1024 << (i % 9),
                    };
                    let accel = AccelInstanceId(0);
                    let d = built.decide(&snapshot, ModeSet::all(), accel);
                    assert_eq!(d, direct.decide(&snapshot, ModeSet::all(), accel));
                    built.observe(accel, &d, &measurement);
                    direct.observe(accel, &d, &measurement);
                }
                assert_eq!(built.export_table(), direct.export_table());
            }
        }
    }

    #[test]
    fn grid_enumerates_the_cartesian_product() {
        let specs = LearnerSpec::grid(&StateSpace::ALL, &ExplorationKind::ALL, &UpdateKind::ALL);
        assert_eq!(specs.len(), 18);
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 18, "labels must be distinct");
        assert!(labels.contains("cohmeleon"), "paper cell keeps its name");
    }

    #[test]
    fn every_spec_of_the_full_space_has_a_distinct_label() {
        // Checkpoints identify a cell's policy by its label string alone,
        // so no two specs may print alike: 3 spaces × 3 strategies × 2
        // updates × 3 scopes × 5 weight presets.
        let mut labels = std::collections::HashSet::new();
        for spec in LearnerSpec::grid(&StateSpace::ALL, &ExplorationKind::ALL, &UpdateKind::ALL) {
            for scope in AgentScope::ALL {
                for weights in WeightPreset::ALL {
                    let spec = spec.with_scope(scope).with_weights(weights);
                    assert!(
                        labels.insert(spec.label()),
                        "duplicate label {}",
                        spec.label()
                    );
                }
            }
        }
        assert_eq!(labels.len(), 270);
    }

    #[test]
    fn non_paper_specs_build_distinctly_named_agents() {
        let spec = LearnerSpec {
            state_space: StateSpace::Extended,
            exploration: ExplorationKind::Ucb1,
            update: UpdateKind::Discounted,
            ..LearnerSpec::paper()
        };
        let policy = spec.build(2, 1);
        assert_eq!(policy.name(), "ql[extended/ucb1/discounted]");
    }

    #[test]
    fn default_orchestration_keeps_the_historical_wire_format() {
        // Labels are checkpoint coordinates. The default orchestration
        // prints only the component segments; the paper cell is
        // `cohmeleon`.
        assert_eq!(LearnerSpec::paper().to_string(), "table3/eps-greedy/blend");
        assert_eq!(LearnerSpec::paper().label(), "cohmeleon");
        let spec = LearnerSpec {
            state_space: StateSpace::Extended,
            exploration: ExplorationKind::Ucb1,
            update: UpdateKind::Discounted,
            ..LearnerSpec::paper()
        };
        assert_eq!(spec.to_string(), "extended/ucb1/discounted");
        assert_eq!(spec.scope, AgentScope::Global);
        assert_eq!(spec.weights, WeightPreset::Paper);
        // Scoped/reweighted labels append both orchestration segments.
        assert_eq!(
            LearnerSpec::paper().with_scope(AgentScope::PerKind).label(),
            "ql[table3/eps-greedy/blend/per-kind/paper]"
        );
        assert_eq!(
            LearnerSpec::paper()
                .with_weights(WeightPreset::MemHeavy)
                .label(),
            "ql[table3/eps-greedy/blend/global/mem-heavy]"
        );
    }

    #[test]
    fn scoped_specs_build_routers() {
        let spec = LearnerSpec::paper()
            .with_scope(AgentScope::PerInstance)
            .with_weights(WeightPreset::Balanced);
        let policy = spec.build(2, 9);
        assert_eq!(policy.name(), spec.label());
        // The router reports the learned complexity class, so the engine
        // charges the same decide-phase overhead as for a bare agent.
        assert_eq!(
            policy.complexity(),
            cohmeleon_core::policy::PolicyComplexity::Learned
        );
    }

    #[test]
    fn scope_weight_grid_enumerates_scope_major() {
        let specs = LearnerSpec::scope_weight_grid(
            &[AgentScope::Global, AgentScope::PerKind],
            &[WeightPreset::Paper, WeightPreset::Mem],
        );
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0], LearnerSpec::paper());
        assert_eq!(specs[1].weights, WeightPreset::Mem);
        assert_eq!(specs[2].scope, AgentScope::PerKind);
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4, "labels must be distinct grid coordinates");
    }
}
