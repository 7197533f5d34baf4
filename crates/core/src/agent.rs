//! The composable learning agent: [`LearnedPolicy`] assembles a
//! [`StateSpace`], an [`ExplorationStrategy`], a [`ValueStore`] and an
//! [`UpdateRule`] into a [`Policy`].
//!
//! The paper's agent is one point in this space — Table-3 discretization,
//! ε-greedy selection, a dense table and the `(1−α)Q + αR` blend — and is
//! available as the [`CohmeleonPolicy`] type alias, bit-identical to the
//! pre-redesign hardwired implementation (pinned by the golden
//! structural-hash and Q-table TSV tests). Every other composition is an
//! ablation the original code could not express:
//!
//! ```
//! use cohmeleon_core::agent::AgentBuilder;
//! use cohmeleon_core::explore::Softmax;
//! use cohmeleon_core::space::CoarseSpace;
//! use cohmeleon_core::value::SparseQTable;
//! use cohmeleon_core::Policy;
//!
//! // A coarse-state softmax agent over a sparse store, trained for 10
//! // iterations with the paper's reward.
//! let agent = AgentBuilder::paper(10, 7)
//!     .state_space(CoarseSpace)
//!     .exploration(Softmax::default_schedule(10))
//!     .value_store(SparseQTable::with_states(27))
//!     .build();
//! assert_eq!(agent.name(), "learned[coarse+softmax+sparse+blend]");
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::explore::{EpsilonGreedy, ExplorationStrategy, SelectCtx};
use crate::modes::ModeSet;
use crate::policy::{Decision, Policy, PolicyComplexity};
use crate::qlearn::LearningSchedule;
use crate::reward::{InvocationMeasurement, RewardHistory, RewardWeights};
use crate::router::{AgentScope, PolicyRouter};
use crate::snapshot::SystemSnapshot;
use crate::space::{StateSpace, Table3Space};
use crate::state::State;
use crate::update::{BlendUpdate, UpdateRule};
use crate::value::{AutoStore, QTable, ValueStore};
use crate::AccelInstanceId;

/// The learning-based coherence policy, generic over its four components.
///
/// Senses the system, encodes it through the state space, selects a mode
/// through the exploration strategy, and — once the invocation's
/// measurement arrives — converts it to the multi-objective reward of
/// Section 4.2 and feeds it to the update rule. Freezing (the paper's
/// "disable further updates and evaluate") stops both exploration and
/// updates.
#[derive(Debug, Clone)]
pub struct LearnedPolicy<S = Table3Space, E = EpsilonGreedy, V = QTable, U = BlendUpdate> {
    label: String,
    space: S,
    explore: E,
    store: V,
    update: U,
    weights: RewardWeights,
    history: RewardHistory,
    train_iterations: usize,
    frozen: bool,
    rng: SmallRng,
}

/// The paper's agent: Table-3 states, ε-greedy selection, a dense Q-table
/// and the `(1−α)Q + αR` update — the default composition of
/// [`LearnedPolicy`], named for continuity with the paper.
pub type CohmeleonPolicy = LearnedPolicy<Table3Space, EpsilonGreedy, QTable, BlendUpdate>;

impl<S, E, V, U> LearnedPolicy<S, E, V, U>
where
    S: StateSpace,
    E: ExplorationStrategy,
    V: ValueStore,
    U: UpdateRule,
{
    /// Assembles an agent from explicit components.
    ///
    /// `store` must cover at least `space.cardinality()` states. The
    /// `train_iterations` horizon controls when `Policy::begin_iteration`
    /// auto-freezes the agent; component decay schedules are the
    /// components' own business.
    #[allow(clippy::too_many_arguments)]
    pub fn with_components(
        label: impl Into<String>,
        space: S,
        mut explore: E,
        store: V,
        update: U,
        weights: RewardWeights,
        train_iterations: usize,
        seed: u64,
    ) -> LearnedPolicy<S, E, V, U> {
        assert!(
            store.states() >= space.cardinality(),
            "value store covers {} states but the state space needs {}",
            store.states(),
            space.cardinality()
        );
        explore.init(space.cardinality());
        LearnedPolicy {
            label: label.into(),
            space,
            explore,
            store,
            update,
            weights,
            history: RewardHistory::new(),
            train_iterations,
            frozen: false,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The state space in use.
    pub fn state_space(&self) -> &S {
        &self.space
    }

    /// The exploration strategy in use.
    pub fn exploration(&self) -> &E {
        &self.explore
    }

    /// The update rule in use.
    pub fn update_rule(&self) -> &U {
        &self.update
    }

    /// Read access to the learned value store.
    pub fn store(&self) -> &V {
        &self.store
    }

    /// Replaces the value store (e.g. to restore a previously trained
    /// model).
    ///
    /// # Panics
    ///
    /// Panics if the replacement covers fewer states than the state space.
    pub fn set_store(&mut self, store: V) {
        assert!(
            store.states() >= self.space.cardinality(),
            "value store covers {} states but the state space needs {}",
            store.states(),
            self.space.cardinality()
        );
        self.store = store;
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

impl CohmeleonPolicy {
    /// Creates an untrained paper-default agent — exactly the original
    /// `CohmeleonPolicy` constructor.
    pub fn new(weights: RewardWeights, schedule: LearningSchedule, seed: u64) -> CohmeleonPolicy {
        LearnedPolicy::with_components(
            "cohmeleon",
            Table3Space,
            EpsilonGreedy::new(schedule.epsilon0, schedule.train_iterations),
            QTable::new(),
            BlendUpdate::new(schedule.alpha0, schedule.train_iterations),
            weights,
            schedule.train_iterations,
            seed,
        )
    }

    /// Read access to the learned Q-table.
    pub fn table(&self) -> &QTable {
        &self.store
    }

    /// Restores a previously trained Q-table (e.g. to evaluate a frozen
    /// model on a different application instance).
    pub fn set_table(&mut self, table: QTable) {
        self.set_store(table);
    }

    /// Current exploration rate (for diagnostics).
    pub fn epsilon(&self) -> f64 {
        if self.frozen {
            0.0
        } else {
            self.explore.epsilon()
        }
    }
}

impl<S, E, V, U> Policy for LearnedPolicy<S, E, V, U>
where
    S: StateSpace,
    E: ExplorationStrategy,
    V: ValueStore,
    U: UpdateRule,
{
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
        // sensed state where it can (Table-3 sensing is the expensive
        // part of the decide path).
        let state = State::from_snapshot(snapshot);
        let state_index = self.space.encode_sensed(snapshot, &state);
        let ctx = SelectCtx {
            store: &self.store,
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
        self.update
            .apply(&mut self.store, decision.state_index, decision.mode.index(), reward);
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
        Some(self.store.to_tsv())
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        // Validate the full document against this store's cardinality
        // before touching live state: a malformed line must not leave a
        // warm agent half-wiped. Only then reset (the TSV carries only
        // populated rows — import *replaces*, never overlays) and apply.
        let mut scratch = crate::value::SparseQTable::with_states(self.store.states());
        crate::value::read_tsv_into(text, &mut scratch)?;
        self.store.reset();
        crate::value::read_tsv_into(text, &mut self.store).expect("validated above");
        Ok(())
    }
}

/// Builder-style construction of a [`LearnedPolicy`].
///
/// Starts from the paper's defaults ([`AgentBuilder::paper`]); each
/// component setter swaps the corresponding type parameter. The value
/// store defaults to the right-sized store for the chosen state space
/// (dense [`QTable`]), so swapping the space never leaves a mis-sized
/// table behind.
#[derive(Debug, Clone)]
pub struct AgentBuilder<S = Table3Space, E = EpsilonGreedy, V = QTable, U = BlendUpdate> {
    label: Option<String>,
    space: S,
    explore: E,
    store: Option<V>,
    update: U,
    weights: RewardWeights,
    scope: AgentScope,
    train_iterations: usize,
    seed: u64,
}

impl AgentBuilder {
    /// The paper's composition: Table-3 states, ε-greedy with the paper's
    /// decay over `train_iterations`, a dense table and the blend update.
    /// Built unchanged, this is exactly [`CohmeleonPolicy`].
    pub fn paper(train_iterations: usize, seed: u64) -> AgentBuilder {
        AgentBuilder {
            label: None,
            space: Table3Space,
            explore: EpsilonGreedy::paper(train_iterations),
            store: None,
            update: BlendUpdate::paper(train_iterations),
            weights: RewardWeights::paper_default(),
            scope: AgentScope::Global,
            train_iterations: train_iterations.max(1),
            seed,
        }
    }
}

impl<S, E, V, U> AgentBuilder<S, E, V, U> {
    /// Overrides the display label (defaults to
    /// `learned[space+explore+store+update]`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the reward weights.
    pub fn weights(mut self, weights: RewardWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the reward weights — the explicit name for the learner
    /// axis the weight-sensitivity sweeps vary (alias of
    /// [`weights`](Self::weights)).
    pub fn reward_weights(self, weights: RewardWeights) -> Self {
        self.weights(weights)
    }

    /// Sets the agent scope (default [`AgentScope::Global`]). The scope
    /// only takes effect through [`build_routed`](Self::build_routed);
    /// [`build`](Self::build) always assembles the single bare agent.
    pub fn scope(mut self, scope: AgentScope) -> Self {
        self.scope = scope;
        self
    }

    /// Replaces the state space. Any explicitly-set value store is
    /// discarded (it was sized for the previous space); set the store
    /// *after* the space to override it.
    pub fn state_space<S2: StateSpace>(self, space: S2) -> AgentBuilder<S2, E, V, U> {
        AgentBuilder {
            label: self.label,
            space,
            explore: self.explore,
            store: None,
            update: self.update,
            weights: self.weights,
            scope: self.scope,
            train_iterations: self.train_iterations,
            seed: self.seed,
        }
    }

    /// Replaces the exploration strategy.
    pub fn exploration<E2: ExplorationStrategy>(self, explore: E2) -> AgentBuilder<S, E2, V, U> {
        AgentBuilder {
            label: self.label,
            space: self.space,
            explore,
            store: self.store,
            update: self.update,
            weights: self.weights,
            scope: self.scope,
            train_iterations: self.train_iterations,
            seed: self.seed,
        }
    }

    /// Replaces the value store.
    pub fn value_store<V2: ValueStore>(self, store: V2) -> AgentBuilder<S, E, V2, U> {
        AgentBuilder {
            label: self.label,
            space: self.space,
            explore: self.explore,
            store: Some(store),
            update: self.update,
            weights: self.weights,
            scope: self.scope,
            train_iterations: self.train_iterations,
            seed: self.seed,
        }
    }

    /// Replaces the update rule.
    pub fn update_rule<U2: UpdateRule>(self, update: U2) -> AgentBuilder<S, E, V, U2> {
        AgentBuilder {
            label: self.label,
            space: self.space,
            explore: self.explore,
            store: self.store,
            update,
            weights: self.weights,
            scope: self.scope,
            train_iterations: self.train_iterations,
            seed: self.seed,
        }
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assembles the agent. A store set via
    /// [`value_store`](Self::value_store) is used as-is; otherwise one is
    /// default-constructed for the state space's cardinality.
    pub fn build(self) -> LearnedPolicy<S, E, V, U>
    where
        S: StateSpace,
        E: ExplorationStrategy,
        V: ValueStore + AutoStore,
        U: UpdateRule,
    {
        let store = self
            .store
            .unwrap_or_else(|| V::for_states(self.space.cardinality()));
        let label = self.label.clone().unwrap_or_else(|| {
            format!(
                "learned[{}+{}+{}+{}]",
                self.space.label(),
                self.explore.label(),
                store.label(),
                self.update.label()
            )
        });
        LearnedPolicy::with_components(
            label,
            self.space,
            self.explore,
            store,
            self.update,
            self.weights,
            self.train_iterations,
            self.seed,
        )
    }

    /// Assembles a [`PolicyRouter`] honoring the builder's
    /// [`scope`](Self::scope): one agent of this composition per scope key,
    /// each built from a clone of the builder with the **same** seed, so a
    /// `PerKind`/`PerInstance` router diverges from the equivalent
    /// [`AgentScope::Global`] agent only through state partitioning (each
    /// sub-agent sees exactly its key's invocation subsequence).
    ///
    /// Under [`AgentScope::Global`] the router wraps the single agent
    /// [`build`](Self::build) would produce; routing through it is
    /// bit-identical to using the bare agent (golden-pinned in
    /// `tests/learning.rs`).
    pub fn build_routed(self) -> PolicyRouter
    where
        S: StateSpace + Clone + Sync + 'static,
        E: ExplorationStrategy + Clone + Sync + 'static,
        V: ValueStore + AutoStore + Clone + Sync + 'static,
        U: UpdateRule + Clone + Sync + 'static,
    {
        let scope = self.scope;
        let label = self.label.clone();
        let seed = self.seed;
        let builder = self;
        let mut router = PolicyRouter::new(scope, seed, move |_key, seed| {
            Box::new(builder.clone().seed(seed).build())
        });
        if let Some(label) = label {
            router = router.with_label(label);
        }
        router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Softmax, Ucb1};
    use crate::modes::CoherenceMode;
    use crate::snapshot::ArchParams;
    use crate::space::{CoarseSpace, ExtendedSpace};
    use crate::update::DiscountedUpdate;
    use crate::value::SparseQTable;
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

    #[test]
    fn paper_builder_is_cohmeleon() {
        let built = AgentBuilder::paper(5, 3).label("cohmeleon").build();
        let direct = CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(5),
            3,
        );
        assert_eq!(built.name(), direct.name());
        // Identical decision streams from identical seeds.
        let (mut a, mut b) = (built, direct);
        for _ in 0..100 {
            assert_eq!(
                a.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0)).mode,
                b.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0)).mode
            );
        }
    }

    fn paper_cohmeleon(seed: u64) -> CohmeleonPolicy {
        CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(10),
            seed,
        )
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

    #[test]
    fn default_label_composes_component_names() {
        let agent = AgentBuilder::paper(4, 0)
            .state_space(ExtendedSpace)
            .exploration(Ucb1::default())
            .value_store(SparseQTable::with_states(ExtendedSpace.cardinality()))
            .update_rule(DiscountedUpdate::default_schedule(4))
            .build();
        assert_eq!(agent.name(), "learned[extended+ucb1+sparse+discounted]");
    }

    #[test]
    fn builder_resizes_store_for_the_space() {
        let agent = AgentBuilder::paper(4, 0).state_space(CoarseSpace).build();
        assert_eq!(agent.store().num_states(), 27);
        let agent = AgentBuilder::paper(4, 0).state_space(ExtendedSpace).build();
        assert_eq!(agent.store().num_states(), 2187);
    }

    #[test]
    #[should_panic(expected = "value store covers")]
    fn mis_sized_store_is_rejected() {
        let _ = LearnedPolicy::with_components(
            "bad",
            ExtendedSpace,
            EpsilonGreedy::paper(4),
            QTable::new(), // 243 < 2187
            BlendUpdate::paper(4),
            RewardWeights::paper_default(),
            4,
            0,
        );
    }

    #[test]
    fn every_composition_learns_the_planted_best_mode() {
        // 3 spaces × 3 strategies × 2 updates, all driven through the same
        // bandit: every cell must converge to the planted optimum.
        for space_i in 0..3usize {
            for strategy in 0..3usize {
                for update in 0..2usize {
                    let space: Box<dyn StateSpace> = match space_i {
                        0 => Box::new(CoarseSpace),
                        1 => Box::new(Table3Space),
                        _ => Box::new(ExtendedSpace),
                    };
                    let explore: Box<dyn ExplorationStrategy> = match strategy {
                        0 => Box::new(EpsilonGreedy::paper(30)),
                        1 => Box::new(Softmax::default_schedule(30)),
                        _ => Box::new(Ucb1::default()),
                    };
                    let rule: Box<dyn UpdateRule> = match update {
                        0 => Box::new(BlendUpdate::paper(30)),
                        _ => Box::new(DiscountedUpdate::default_schedule(30)),
                    };
                    let states = space.cardinality();
                    let label = format!("{}+{}+{}", space.label(), explore.label(), rule.label());
                    let mut agent = LearnedPolicy::with_components(
                        label.clone(),
                        space,
                        explore,
                        Box::new(SparseQTable::with_states(states)) as Box<dyn ValueStore>,
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
        let mut agent = AgentBuilder::paper(4, 2)
            .state_space(CoarseSpace)
            .value_store(SparseQTable::with_states(27))
            .build();
        agent.freeze();
        let d = agent.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
        agent.observe(AccelInstanceId(0), &d, &measurement(123));
        assert_eq!(agent.store().populated_entries(), 0);
    }

    #[test]
    fn decision_carries_the_custom_state_index() {
        let mut agent = AgentBuilder::paper(4, 2).state_space(CoarseSpace).build();
        let snap = snapshot(300 * 1024);
        let d = agent.decide(&snap, ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.state_index, CoarseSpace.encode(&snap));
        // The Table-3 sensed state is still recorded for diagnostics.
        assert_eq!(d.state, State::from_snapshot(&snap));
    }
}
