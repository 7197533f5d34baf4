//! Action selection behind a trait: the [`ExplorationStrategy`] of the
//! learning agent.
//!
//! The paper explores ε-greedily with ε decaying linearly from 0.5 to zero
//! over training ([`EpsilonGreedy`], the default). The strategy is a
//! component of [`LearnedPolicy`](crate::agent::LearnedPolicy) so the
//! exploration/exploitation trade-off can be ablated independently of the
//! state space and update rule:
//!
//! * [`EpsilonGreedy`] — the paper's strategy, bit-identical to the
//!   original hardwired agent (same RNG consumption, same tie-breaking).
//! * [`Softmax`] — Boltzmann exploration: actions are sampled with
//!   probability ∝ `exp(Q/τ)`, so "nearly as good" modes keep being tried
//!   while clearly bad ones fade out.
//! * [`Ucb1`] — deterministic optimism: argmax of `Q + c·√(ln N / n)`
//!   over per-(state, action) visit counts; unvisited actions first.
//!
//! Once frozen, every strategy stops exploring: [`Softmax`] and [`Ucb1`]
//! become pure argmax (lowest-index ties), while [`EpsilonGreedy`] keeps
//! the original hardwired agent's *random* tie-breaking among exactly-tied
//! Q-values — that bit-identity with the paper agent is deliberate (an
//! untrained frozen agent still behaves like the Random policy on
//! all-zero rows).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::modes::{CoherenceMode, ModeSet};
use crate::qlearn::decayed;
use crate::value::QTable;

/// Everything a strategy may consult when selecting an action.
pub struct SelectCtx<'a> {
    /// The agent's Q-table.
    pub store: &'a QTable,
    /// The encoded state the decision is made in.
    pub state: usize,
    /// The modes the target tile supports; never empty.
    pub available: ModeSet,
    /// Whether the agent is frozen (evaluation: exploit only).
    pub frozen: bool,
}

/// An action-selection strategy.
///
/// Implementations must be deterministic given the RNG stream handed in by
/// the agent, and must return a mode contained in `ctx.available`.
pub trait ExplorationStrategy: Send {
    /// A short display name (`"eps-greedy"`, `"softmax"`, `"ucb1"`).
    fn label(&self) -> String;

    /// Called once when the agent is assembled, with the state-space
    /// cardinality (strategies that keep per-state statistics size them
    /// here). Default: no-op.
    fn init(&mut self, states: usize) {
        let _ = states;
    }

    /// Marks the start of training iteration `iteration` (for decay
    /// schedules). Default: no-op.
    fn begin_iteration(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// Permanently disables exploration. Selection must be pure greedy
    /// afterwards (the agent also sets `ctx.frozen`). Default: no-op.
    fn freeze(&mut self) {}

    /// Selects a mode from `ctx.available`.
    fn select(&mut self, ctx: SelectCtx<'_>, rng: &mut SmallRng) -> CoherenceMode;
}

impl ExplorationStrategy for Box<dyn ExplorationStrategy> {
    fn label(&self) -> String {
        (**self).label()
    }
    fn init(&mut self, states: usize) {
        (**self).init(states);
    }
    fn begin_iteration(&mut self, iteration: usize) {
        (**self).begin_iteration(iteration);
    }
    fn freeze(&mut self) {
        (**self).freeze();
    }
    fn select(&mut self, ctx: SelectCtx<'_>, rng: &mut SmallRng) -> CoherenceMode {
        (**self).select(ctx, rng)
    }
}

/// Greedy argmax with deterministic lowest-index tie-breaking — the frozen
/// behaviour shared by every strategy.
fn greedy(ctx: &SelectCtx<'_>) -> CoherenceMode {
    ctx.store
        .best_index(ctx.state, ctx.available)
        .expect("non-empty set has a best action")
}

/// The paper's ε-greedy selection with linear ε decay.
///
/// With probability ε a uniformly random available mode (exploration),
/// otherwise the highest-Q available mode with *random* tie-breaking, so
/// an untrained all-zero table behaves exactly like the Random policy (as
/// the paper states for iteration 0 of Figure 8). The RNG consumption and
/// float comparisons replicate the original hardwired agent bit for bit
/// (pinned by the `golden_default_agent_matches_pre_redesign_cohmeleon`
/// engine test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonGreedy {
    epsilon0: f64,
    horizon: usize,
    epsilon: f64,
}

impl EpsilonGreedy {
    /// ε decaying linearly from `epsilon0` to zero over `horizon` training
    /// iterations (a zero horizon starts — and stays — at zero, exactly as
    /// `LearningSchedule::epsilon_at` behaves).
    pub fn new(epsilon0: f64, horizon: usize) -> EpsilonGreedy {
        EpsilonGreedy {
            epsilon0,
            horizon,
            epsilon: decayed(epsilon0, 0, horizon),
        }
    }

    /// The paper's schedule: ε₀ = 0.5 over `train_iterations` iterations
    /// (clamped to at least one, like `LearningSchedule::paper_default`).
    pub fn paper(train_iterations: usize) -> EpsilonGreedy {
        EpsilonGreedy::new(0.5, train_iterations.max(1))
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl ExplorationStrategy for EpsilonGreedy {
    fn label(&self) -> String {
        "eps-greedy".to_owned()
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.epsilon = decayed(self.epsilon0, iteration, self.horizon);
    }

    fn freeze(&mut self) {
        self.epsilon = 0.0;
    }

    fn select(&mut self, ctx: SelectCtx<'_>, rng: &mut SmallRng) -> CoherenceMode {
        if !ctx.frozen && rng.gen::<f64>() < self.epsilon {
            let n = ctx.available.len();
            let pick = rng.gen_range(0..n);
            ctx.available.iter().nth(pick).expect("index within set size")
        } else {
            // Exploit: argmax with *random* tie-breaking.
            let best = greedy(&ctx);
            let best_q = ctx.store.get_index(ctx.state, best.index());
            let ties: Vec<CoherenceMode> = ctx
                .available
                .iter()
                .filter(|m| {
                    (ctx.store.get_index(ctx.state, m.index()) - best_q).abs() < f64::EPSILON
                })
                .collect();
            if ties.len() <= 1 {
                best
            } else {
                ties[rng.gen_range(0..ties.len())]
            }
        }
    }
}

/// Boltzmann (softmax) exploration: `p(a) ∝ exp(Q(s,a)/τ)` over the
/// available modes, with the temperature τ decaying linearly like the
/// paper's ε. Frozen selection is pure greedy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Softmax {
    tau0: f64,
    horizon: usize,
    tau: f64,
}

impl Softmax {
    /// The default starting temperature used by
    /// [`default_schedule`](Self::default_schedule) — see there for its
    /// derivation and how to override it.
    pub const DEFAULT_TAU0: f64 = 0.2;

    /// Temperature decaying linearly from `tau0` toward zero over
    /// `horizon` iterations (floored at a small positive value so the
    /// distribution stays defined while training).
    ///
    /// # Panics
    ///
    /// Panics if `tau0` is not strictly positive.
    pub fn new(tau0: f64, horizon: usize) -> Softmax {
        assert!(tau0 > 0.0, "softmax temperature must be positive");
        Softmax {
            tau0,
            horizon: horizon.max(1),
            tau: tau0,
        }
    }

    /// A default comparable to the paper's ε schedule, fixing τ₀ =
    /// [`Softmax::DEFAULT_TAU0`].
    ///
    /// **Where the constant comes from.** The paper only specifies
    /// ε-greedy, so softmax has no paper-given temperature; τ₀ = 0.2 is
    /// *our* choice, derived from the reward scale: rewards (and hence
    /// Q-values) lie in [0, 1], so at τ = 0.2 a Q-gap of 0.2 — a fifth of
    /// the whole scale — still leaves the worse action `e⁻¹ ≈ 37%` of the
    /// better one's probability mass. Early exploration stays broad, and
    /// the linear decay (to a 1% floor; see
    /// [`begin_iteration`](ExplorationStrategy::begin_iteration)) mirrors
    /// the ε schedule so learner-ablation comparisons decay on the same
    /// clock.
    ///
    /// **Calibration.** The `calibration` sweep grid in
    /// `cohmeleon-bench` (`sweep run --grid calibration`: τ₀ ∈ {0.05,
    /// 0.1, 0.2, 0.4} against the ε-greedy baseline, SoC1 × coverage
    /// workload, 10 training iterations, 3 seeds) measured, normalized to
    /// ε-greedy (geo-time / geo-mem, lower is better):
    ///
    /// | τ₀ | 0.05 | 0.1 | **0.2** | 0.4 |
    /// |---|---|---|---|---|
    /// | geo-time | 1.012 | 1.000 | 1.000 | 0.991 |
    /// | geo-mem | 1.027 | 1.044 | **0.952** | 0.964 |
    ///
    /// τ₀ = 0.4 was the best cell on execution time (−0.9%), τ₀ = 0.2 —
    /// this default — the best on off-chip accesses (−4.8%) and within
    /// noise on time, so the default stands: on the paper's
    /// multi-objective reward no tested τ₀ dominates it, and changing it
    /// would silently shift every persisted softmax learner-grid cell.
    ///
    /// **Overriding it.** The constant is only baked into this
    /// convenience constructor (and therefore into
    /// `LearnerSpec`-driven sweeps, which call it). In-process
    /// composition can pick any schedule through the builder:
    ///
    /// ```
    /// use cohmeleon_core::agent::AgentBuilder;
    /// use cohmeleon_core::explore::Softmax;
    ///
    /// let agent = AgentBuilder::paper(/*train_iterations=*/ 20, /*seed=*/ 7)
    ///     .exploration(Softmax::new(0.35, 20)) // hotter start, same horizon
    ///     .build();
    /// ```
    pub fn default_schedule(train_iterations: usize) -> Softmax {
        Softmax::new(Softmax::DEFAULT_TAU0, train_iterations)
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.tau
    }
}

impl ExplorationStrategy for Softmax {
    fn label(&self) -> String {
        "softmax".to_owned()
    }

    fn begin_iteration(&mut self, iteration: usize) {
        // Floor at 1% of τ₀: a truly zero temperature is greedy selection,
        // which freezing already provides.
        self.tau = decayed(self.tau0, iteration, self.horizon).max(self.tau0 * 0.01);
    }

    fn freeze(&mut self) {
        self.tau = self.tau0 * 0.01;
    }

    fn select(&mut self, ctx: SelectCtx<'_>, rng: &mut SmallRng) -> CoherenceMode {
        if ctx.frozen {
            return greedy(&ctx);
        }
        // Subtract the max before exponentiating for numerical stability;
        // this cancels in the normalisation.
        let max_q = ctx
            .available
            .iter()
            .map(|m| ctx.store.get_index(ctx.state, m.index()))
            .fold(f64::MIN, f64::max);
        let weights: Vec<(CoherenceMode, f64)> = ctx
            .available
            .iter()
            .map(|m| {
                let q = ctx.store.get_index(ctx.state, m.index());
                (m, ((q - max_q) / self.tau).exp())
            })
            .collect();
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut r = rng.gen::<f64>() * total;
        for &(mode, w) in &weights {
            r -= w;
            if r <= 0.0 {
                return mode;
            }
        }
        // Floating-point slack: fall back to the last candidate.
        weights.last().expect("non-empty mode set").0
    }
}

/// UCB1: deterministic optimism in the face of uncertainty.
///
/// Selects `argmax Q(s,a) + c·√(ln N(s) / n(s,a))` where `n(s,a)` counts
/// selections of `a` in `s` and `N(s)` their sum; any still-unvisited
/// available action is tried first (lowest index first). Consumes no
/// randomness, so runs are reproducible even across RNG changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Ucb1 {
    c: f64,
    counts: Vec<u64>,
}

impl Ucb1 {
    /// The default exploration constant used by [`Ucb1::default`]:
    /// c = √2, the classic choice from Auer et al.'s UCB1 analysis,
    /// whose regret bound assumes rewards in [0, 1] — which is exactly
    /// this agent's reward range, so the textbook constant applies
    /// as-is rather than needing rescaling.
    ///
    /// As with [`Softmax::DEFAULT_TAU0`], the constant is fixed only in
    /// the `Default` impl (and therefore in `LearnerSpec`-driven
    /// sweeps); compose `Ucb1::new(c)` through
    /// [`AgentBuilder::exploration`](crate::agent::AgentBuilder::exploration)
    /// to ablate it.
    ///
    /// **Calibration.** The same `calibration` sweep as
    /// [`Softmax::DEFAULT_TAU0`] (c ∈ {0.5, √2, 2}, SoC1 × coverage, 10
    /// iterations, 3 seeds, normalized to ε-greedy) measured:
    ///
    /// | c | 0.5 | **√2** | 2 |
    /// |---|---|---|---|
    /// | geo-time | 0.994 | 1.000 | 0.988 |
    /// | geo-mem | 1.053 | **0.993** | 1.027 |
    ///
    /// c = 2 was the best cell on execution time (−1.2%) but pays +2.7%
    /// off-chip traffic; c = √2 — this default — was the only cell not
    /// worse than ε-greedy on *either* objective (time at parity, mem
    /// −0.7%), so the textbook constant stands.
    pub const DEFAULT_C: f64 = std::f64::consts::SQRT_2;

    /// UCB1 with exploration constant `c` (larger explores more; the
    /// bonus term is `c·√(ln N / n)` on a [0, 1] Q-scale).
    pub fn new(c: f64) -> Ucb1 {
        Ucb1 { c, counts: Vec::new() }
    }

    /// The visit count of `(state, action)`.
    pub fn visits(&self, state: usize, action: usize) -> u64 {
        self.counts
            .get(state * CoherenceMode::COUNT + action)
            .copied()
            .unwrap_or(0)
    }
}

impl Default for Ucb1 {
    fn default() -> Self {
        Ucb1::new(Ucb1::DEFAULT_C)
    }
}

impl ExplorationStrategy for Ucb1 {
    fn label(&self) -> String {
        "ucb1".to_owned()
    }

    fn init(&mut self, states: usize) {
        self.counts = vec![0; states * CoherenceMode::COUNT];
    }

    fn select(&mut self, ctx: SelectCtx<'_>, _rng: &mut SmallRng) -> CoherenceMode {
        if ctx.frozen {
            return greedy(&ctx);
        }
        if self.counts.len() < (ctx.state + 1) * CoherenceMode::COUNT {
            // init() sizes this from the state space; tolerate direct use.
            self.counts.resize((ctx.state + 1) * CoherenceMode::COUNT, 0);
        }
        let row = &self.counts[ctx.state * CoherenceMode::COUNT..];
        // Unvisited actions first, in index order.
        if let Some(mode) = ctx.available.iter().find(|m| row[m.index()] == 0) {
            self.counts[ctx.state * CoherenceMode::COUNT + mode.index()] += 1;
            return mode;
        }
        let total: u64 = ctx.available.iter().map(|m| row[m.index()]).sum();
        let ln_total = (total as f64).ln();
        let mut best: Option<(CoherenceMode, f64)> = None;
        for mode in ctx.available.iter() {
            let n = row[mode.index()] as f64;
            let bound =
                ctx.store.get_index(ctx.state, mode.index()) + self.c * (ln_total / n).sqrt();
            if best.is_none_or(|(_, b)| bound > b) {
                best = Some((mode, bound));
            }
        }
        let (mode, _) = best.expect("non-empty mode set");
        self.counts[ctx.state * CoherenceMode::COUNT + mode.index()] += 1;
        mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx<'a>(store: &'a QTable, state: usize, frozen: bool) -> SelectCtx<'a> {
        SelectCtx {
            store,
            state,
            available: ModeSet::all(),
            frozen,
        }
    }

    #[test]
    fn epsilon_greedy_matches_paper_decay() {
        let mut e = EpsilonGreedy::paper(10);
        assert_eq!(e.epsilon(), 0.5);
        e.begin_iteration(5);
        assert!((e.epsilon() - 0.25).abs() < 1e-12);
        e.begin_iteration(10);
        assert_eq!(e.epsilon(), 0.0);
        let mut f = EpsilonGreedy::paper(10);
        f.freeze();
        assert_eq!(f.epsilon(), 0.0);
    }

    #[test]
    fn frozen_strategies_are_greedy_and_deterministic() {
        let mut store = QTable::with_states(4);
        store.set_index(1, CoherenceMode::LlcCohDma.index(), 0.9);
        let mut strategies: Vec<Box<dyn ExplorationStrategy>> = vec![
            Box::new(EpsilonGreedy::paper(10)),
            Box::new(Softmax::default_schedule(10)),
            Box::new(Ucb1::default()),
        ];
        let mut rng = SmallRng::seed_from_u64(1);
        for s in &mut strategies {
            s.init(4);
            s.freeze();
            for _ in 0..20 {
                assert_eq!(
                    s.select(ctx(&store, 1, true), &mut rng),
                    CoherenceMode::LlcCohDma,
                    "{}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn strategies_are_deterministic_under_a_fixed_seed() {
        let mut store = QTable::with_states(2);
        store.set_index(0, 0, 0.3);
        store.set_index(0, 2, 0.6);
        for make in [
            || Box::new(EpsilonGreedy::paper(10)) as Box<dyn ExplorationStrategy>,
            || Box::new(Softmax::default_schedule(10)) as Box<dyn ExplorationStrategy>,
            || Box::new(Ucb1::default()) as Box<dyn ExplorationStrategy>,
        ] {
            let run = |mut s: Box<dyn ExplorationStrategy>| {
                s.init(2);
                let mut rng = SmallRng::seed_from_u64(77);
                (0..50)
                    .map(|_| s.select(ctx(&store, 0, false), &mut rng))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(make()), run(make()));
        }
    }

    #[test]
    fn softmax_prefers_higher_q_but_still_explores() {
        let mut store = QTable::with_states(1);
        store.set_index(0, CoherenceMode::CohDma.index(), 1.0);
        let mut s = Softmax::new(0.2, 10);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut picks = [0usize; 4];
        for _ in 0..500 {
            picks[s.select(ctx(&store, 0, false), &mut rng).index()] += 1;
        }
        let coh = picks[CoherenceMode::CohDma.index()];
        assert!(coh > 300, "best action should dominate: {picks:?}");
        assert!(
            picks.iter().filter(|&&n| n > 0).count() >= 2,
            "softmax must keep exploring: {picks:?}"
        );
    }

    #[test]
    fn softmax_respects_availability() {
        let store = QTable::with_states(1);
        let mut s = Softmax::default_schedule(4);
        let mut rng = SmallRng::seed_from_u64(9);
        let available = ModeSet::all().without(CoherenceMode::FullCoh);
        for _ in 0..200 {
            let mode = s.select(
                SelectCtx {
                    store: &store,
                    state: 0,
                    available,
                    frozen: false,
                },
                &mut rng,
            );
            assert!(available.contains(mode));
        }
    }

    #[test]
    fn ucb_tries_every_action_before_repeating() {
        let store = QTable::with_states(1);
        let mut u = Ucb1::default();
        u.init(1);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..CoherenceMode::COUNT {
            seen.insert(u.select(ctx(&store, 0, false), &mut rng));
        }
        assert_eq!(seen.len(), CoherenceMode::COUNT);
        for m in CoherenceMode::ALL {
            assert_eq!(u.visits(0, m.index()), 1);
        }
    }

    #[test]
    fn ucb_favours_underexplored_actions() {
        let mut store = QTable::with_states(1);
        store.set_index(0, 0, 0.6);
        store.set_index(0, 1, 0.5);
        let mut u = Ucb1::default();
        u.init(1);
        let mut rng = SmallRng::seed_from_u64(0);
        // After many selections every action keeps a nonzero share: the
        // √(ln N / n) bonus grows for whatever is neglected.
        for _ in 0..200 {
            u.select(ctx(&store, 0, false), &mut rng);
        }
        for m in CoherenceMode::ALL {
            assert!(u.visits(0, m.index()) > 5, "{m}: {:?}", u.visits(0, m.index()));
        }
    }
}
