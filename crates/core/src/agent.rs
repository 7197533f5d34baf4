//! The learning agent: [`LearnedPolicy`] composes a [`StateSpace`], an
//! [`Exploration`] strategy and a [`BlendUpdate`] rule over one [`QTable`]
//! into a [`Policy`].
//!
//! The paper's agent is one point in this space — Table-3 discretization,
//! ε-greedy selection and the `(1−α)Q + αR` blend — and is
//! available as the [`CohmeleonPolicy`] type alias, bit-identical to the
//! pre-redesign hardwired implementation (pinned by the golden
//! structural-hash and Q-table TSV tests). Every other composition is an
//! ablation the original code could not express:
//!
//! ```
//! use cohmeleon_core::agent::LearnedPolicy;
//! use cohmeleon_core::explore::{Exploration, Softmax};
//! use cohmeleon_core::reward::RewardWeights;
//! use cohmeleon_core::space::StateSpace;
//! use cohmeleon_core::update::BlendUpdate;
//! use cohmeleon_core::Policy;
//!
//! // A coarse-state softmax agent, trained for 10 iterations with the
//! // paper's reward and update rule.
//! let agent = LearnedPolicy::with_components(
//!     "coarse-softmax",
//!     StateSpace::Coarse,
//!     Exploration::Softmax(Softmax::default_schedule(10)),
//!     BlendUpdate::paper(10),
//!     RewardWeights::paper_default(),
//!     10,
//!     7, // RNG seed
//! );
//! assert_eq!(agent.name(), "coarse-softmax");
//! assert_eq!(agent.table().num_states(), 27);
//! ```
//!
//! Sweeps name compositions as data instead: `cohmeleon_exp::LearnerSpec`
//! builds every cell of the learner design space through
//! [`LearnedPolicy::with_components`].

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::explore::{EpsilonGreedy, Exploration, SelectCtx};
use crate::modes::ModeSet;
use crate::policy::{Decision, Policy, PolicyComplexity};
use crate::reward::{InvocationMeasurement, RewardHistory, RewardWeights};
use crate::snapshot::SystemSnapshot;
use crate::space::StateSpace;
use crate::state::State;
use crate::update::BlendUpdate;
use crate::value::QTable;
use crate::AccelInstanceId;

/// The learning-based coherence policy.
///
/// Senses the system, encodes it through the state space, selects a mode
/// from the Q-table through the exploration strategy, and — once the
/// invocation's measurement arrives — converts it to the multi-objective
/// reward of Section 4.2 and feeds it to the update rule. Freezing (the paper's
/// "disable further updates and evaluate") stops both exploration and
/// updates.
#[derive(Debug, Clone)]
pub struct LearnedPolicy {
    label: String,
    space: StateSpace,
    explore: Exploration,
    table: QTable,
    update: BlendUpdate,
    weights: RewardWeights,
    history: RewardHistory,
    train_iterations: usize,
    frozen: bool,
    rng: SmallRng,
}

/// The paper's agent: Table-3 states, ε-greedy selection and the
/// `(1−α)Q + αR` update — what [`CohmeleonPolicy::new`] builds, named for
/// continuity with the paper.
pub type CohmeleonPolicy = LearnedPolicy;

impl LearnedPolicy {
    /// Assembles an agent from explicit components, over a zero-initialised
    /// Q-table sized for `space`.
    ///
    /// The `train_iterations` horizon controls when
    /// `Policy::begin_iteration` auto-freezes the agent; component decay
    /// schedules are the components' own business.
    pub fn with_components(
        label: impl Into<String>,
        space: StateSpace,
        mut explore: Exploration,
        update: BlendUpdate,
        weights: RewardWeights,
        train_iterations: usize,
        seed: u64,
    ) -> LearnedPolicy {
        let states = space.cardinality();
        explore.init(states);
        LearnedPolicy {
            label: label.into(),
            space,
            explore,
            table: QTable::with_states(states),
            update,
            weights,
            history: RewardHistory::new(),
            train_iterations,
            frozen: false,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates an untrained paper-default agent: ε₀ = 0.5 and α₀ = 0.25,
    /// both decaying linearly to zero over `train_iterations` (clamped to
    /// at least one) — the paper's schedule of Section 4.2.
    pub fn new(weights: RewardWeights, train_iterations: usize, seed: u64) -> CohmeleonPolicy {
        LearnedPolicy::with_components(
            "cohmeleon",
            StateSpace::Table3,
            Exploration::EpsilonGreedy(EpsilonGreedy::paper(train_iterations)),
            BlendUpdate::paper(train_iterations),
            weights,
            train_iterations.max(1),
            seed,
        )
    }

    /// Current exploration rate (for diagnostics): ε of an ε-greedy
    /// agent, 0 once frozen and for the other strategies.
    pub fn epsilon(&self) -> f64 {
        match &self.explore {
            Exploration::EpsilonGreedy(e) if !self.frozen => e.epsilon(),
            _ => 0.0,
        }
    }

    /// The update rule in use.
    pub fn update_rule(&self) -> &BlendUpdate {
        &self.update
    }

    /// Read access to the learned Q-table.
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Restores a previously trained Q-table (e.g. to evaluate a frozen
    /// model on a different application instance).
    ///
    /// # Panics
    ///
    /// Panics if the table covers fewer states than the state space.
    pub fn set_table(&mut self, table: QTable) {
        assert!(
            table.num_states() >= self.space.cardinality(),
            "Q-table covers {} states but the state space needs {}",
            table.num_states(),
            self.space.cardinality()
        );
        self.table = table;
    }

    /// The reward weights in use.
    pub fn weights(&self) -> RewardWeights {
        self.weights
    }

    /// Whether learning and exploration are disabled.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }
}

impl Policy for LearnedPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        _accel: AccelInstanceId,
    ) -> Decision {
        assert!(
            !available.is_empty(),
            "policy invoked with an empty set of available coherence modes"
        );
        // Sense once; the space derives its encoding from the shared
        // sensed state (Table-3 sensing is the expensive part of the
        // decide path).
        let state = State::from_snapshot(snapshot);
        let state_index = self.space.encode_sensed(snapshot, &state);
        let ctx = SelectCtx {
            store: &self.table,
            state: state_index,
            available,
            frozen: self.frozen,
        };
        let mode = self.explore.select(ctx, &mut self.rng);
        Decision {
            mode,
            state,
            state_index,
        }
    }

    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        let components = self.history.record(accel, measurement);
        let reward = self.weights.combine(components);
        if self.frozen {
            return;
        }
        self.update.apply(
            &mut self.table,
            decision.state_index,
            decision.mode.index(),
            reward,
        );
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.explore.begin_iteration(iteration);
        self.update.begin_iteration(iteration);
        if iteration >= self.train_iterations {
            self.frozen = true;
        }
    }

    fn freeze(&mut self) {
        self.frozen = true;
        self.explore.freeze();
        self.update.freeze();
    }

    fn complexity(&self) -> PolicyComplexity {
        PolicyComplexity::Learned
    }

    fn export_table(&self) -> Option<String> {
        Some(self.table.to_tsv())
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        // Parse into a fresh table and swap it in only on success: a
        // malformed line must not leave a warm agent half-wiped, and the
        // TSV carries only populated rows, so import *replaces*, never
        // overlays.
        self.table = QTable::from_tsv_with_states(text, self.table.num_states())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Softmax, Ucb1};
    use crate::modes::CoherenceMode;
    use crate::snapshot::ArchParams;
    use crate::PartitionId;

    fn snapshot(footprint: u64) -> SystemSnapshot {
        SystemSnapshot::new(
            ArchParams::new(32 * 1024, 256 * 1024, 2),
            vec![],
            footprint,
            vec![PartitionId(0)],
        )
    }

    fn measurement(total: u64) -> InvocationMeasurement {
        InvocationMeasurement {
            total_cycles: total,
            accel_active_cycles: total / 2,
            accel_comm_cycles: total / 4,
            offchip_accesses: 100.0,
            footprint_bytes: 4096,
        }
    }

    fn teach<P: Policy>(policy: &mut P, iterations: usize, good: CoherenceMode) {
        for i in 0..iterations {
            policy.begin_iteration(i);
            for _ in 0..30 {
                let d = policy.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
                let total = if d.mode == good { 1_000 } else { 50_000 };
                policy.observe(AccelInstanceId(0), &d, &measurement(total));
            }
        }
        policy.freeze();
    }

    fn paper_cohmeleon(seed: u64) -> CohmeleonPolicy {
        CohmeleonPolicy::new(RewardWeights::paper_default(), 10, seed)
    }

    #[test]
    #[should_panic(expected = "empty set of available coherence modes")]
    fn choosing_from_empty_set_panics() {
        let mut agent = paper_cohmeleon(7);
        agent.decide(&snapshot(1024), ModeSet::EMPTY, AccelInstanceId(0));
    }

    #[test]
    fn begin_iteration_past_schedule_freezes() {
        let mut agent = paper_cohmeleon(1);
        agent.begin_iteration(10);
        assert!(agent.is_frozen());
        assert_eq!(agent.epsilon(), 0.0);
        assert_eq!(agent.update_rule().alpha(), 0.0);
    }

    #[test]
    fn exploration_visits_multiple_actions() {
        let mut agent = paper_cohmeleon(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let d = agent.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
            seen[d.mode.index()] = true;
        }
        // ε = 0.5 ⇒ all four actions appear with overwhelming probability.
        assert!(seen.iter().all(|&s| s), "seen = {seen:?}");
    }

    /// A paper-default agent over `space`.
    fn agent_over(space: StateSpace, seed: u64) -> LearnedPolicy {
        LearnedPolicy::with_components(
            space.label(),
            space,
            Exploration::EpsilonGreedy(EpsilonGreedy::paper(4)),
            BlendUpdate::paper(4),
            RewardWeights::paper_default(),
            4,
            seed,
        )
    }

    #[test]
    fn store_is_sized_for_the_space() {
        assert_eq!(agent_over(StateSpace::Coarse, 0).table().num_states(), 27);
        assert_eq!(
            agent_over(StateSpace::Extended, 0).table().num_states(),
            2187
        );
    }

    #[test]
    #[should_panic(expected = "Q-table covers")]
    fn mis_sized_store_is_rejected() {
        let mut agent = agent_over(StateSpace::Extended, 0);
        agent.set_table(QTable::new()); // 243 < 2187
    }

    #[test]
    fn every_composition_learns_the_planted_best_mode() {
        // 3 spaces × 3 strategies × 2 updates, all driven through the same
        // bandit: every cell must converge to the planted optimum.
        let explorations = [
            Exploration::EpsilonGreedy(EpsilonGreedy::paper(30)),
            Exploration::Softmax(Softmax::default_schedule(30)),
            Exploration::Ucb1(Ucb1::default()),
        ];
        for space in StateSpace::ALL {
            for explore in &explorations {
                for rule in [BlendUpdate::paper(30), BlendUpdate::discounted(30)] {
                    let label = format!("{}/{explore:?}/γ={}", space.label(), rule.gamma());
                    let mut agent = LearnedPolicy::with_components(
                        label.clone(),
                        space,
                        explore.clone(),
                        rule,
                        RewardWeights::paper_default(),
                        30,
                        9,
                    );
                    teach(&mut agent, 30, CoherenceMode::CohDma);
                    let d = agent.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
                    assert_eq!(d.mode, CoherenceMode::CohDma, "{label}");
                }
            }
        }
    }

    #[test]
    fn frozen_agent_stops_updating_any_store() {
        let mut agent = agent_over(StateSpace::Coarse, 2);
        agent.freeze();
        let d = agent.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
        agent.observe(AccelInstanceId(0), &d, &measurement(123));
        assert_eq!(agent.table().populated_entries(), 0);
    }

    #[test]
    fn decision_carries_the_custom_state_index() {
        let mut agent = agent_over(StateSpace::Coarse, 2);
        let snap = snapshot(300 * 1024);
        let d = agent.decide(&snap, ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.state_index, StateSpace::Coarse.encode(&snap));
        // The Table-3 sensed state is still recorded for diagnostics.
        assert_eq!(d.state, State::from_snapshot(&snap));
    }
}
