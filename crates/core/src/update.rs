//! Value updates behind a trait: the [`UpdateRule`] of the learning agent.
//!
//! The paper updates with `Q(s,a) ← (1−α)·Q(s,a) + α·R(s,a)` — a
//! contextual-bandit blend with α decaying linearly from 0.25 to zero over
//! training ([`BlendUpdate`], the default). Making the rule a component
//! lets ablations swap in bootstrapped variants without touching the rest
//! of the agent:
//!
//! * [`BlendUpdate`] — the paper's rule, bit-identical to the original
//!   hardwired agent.
//! * [`DiscountedUpdate`] — blends toward `R + γ·max_a' Q(s,a')`: the
//!   invocation's reward plus a discounted bootstrap of the state's own
//!   best value. Coherence decisions recur in similar states (the same
//!   phase keeps invoking the same accelerators), so the bootstrap spreads
//!   credit toward persistently good modes; γ = 0 reduces to the paper's
//!   rule.

use crate::qlearn::decayed;
use crate::value::QTable;

/// A Q-value update rule.
///
/// The agent calls [`apply`](Self::apply) once per completed invocation
/// with the reward of Section 4.2; frozen agents never call it.
pub trait UpdateRule: Send {
    /// A short display name (`"blend"`, `"discounted"`).
    fn label(&self) -> String;

    /// Marks the start of training iteration `iteration` (for decay
    /// schedules). Default: no-op.
    fn begin_iteration(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// Permanently disables updates (learning rate to zero). Default:
    /// no-op.
    fn freeze(&mut self) {}

    /// Current learning rate (diagnostics).
    fn alpha(&self) -> f64;

    /// Applies one update for `(state, action)` with `reward`.
    fn apply(&mut self, store: &mut QTable, state: usize, action: usize, reward: f64);
}

impl UpdateRule for Box<dyn UpdateRule> {
    fn label(&self) -> String {
        (**self).label()
    }
    fn begin_iteration(&mut self, iteration: usize) {
        (**self).begin_iteration(iteration);
    }
    fn freeze(&mut self) {
        (**self).freeze();
    }
    fn alpha(&self) -> f64 {
        (**self).alpha()
    }
    fn apply(&mut self, store: &mut QTable, state: usize, action: usize, reward: f64) {
        (**self).apply(store, state, action, reward);
    }
}

/// The paper's update: `Q(s,a) ← (1−α)·Q(s,a) + α·R` with α decaying
/// linearly from `alpha0` to zero over the training horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlendUpdate {
    alpha0: f64,
    horizon: usize,
    alpha: f64,
}

impl BlendUpdate {
    /// α decaying linearly from `alpha0` to zero over `horizon` training
    /// iterations (a zero horizon starts — and stays — at zero, exactly as
    /// `LearningSchedule::alpha_at` behaves).
    pub fn new(alpha0: f64, horizon: usize) -> BlendUpdate {
        BlendUpdate {
            alpha0,
            horizon,
            alpha: decayed(alpha0, 0, horizon),
        }
    }

    /// The paper's schedule: α₀ = 0.25 over `train_iterations` iterations
    /// (clamped to at least one, like `LearningSchedule::paper_default`).
    pub fn paper(train_iterations: usize) -> BlendUpdate {
        BlendUpdate::new(0.25, train_iterations.max(1))
    }
}

impl UpdateRule for BlendUpdate {
    fn label(&self) -> String {
        "blend".to_owned()
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.alpha = decayed(self.alpha0, iteration, self.horizon);
    }

    fn freeze(&mut self) {
        self.alpha = 0.0;
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn apply(&mut self, store: &mut QTable, state: usize, action: usize, reward: f64) {
        if self.alpha == 0.0 {
            return;
        }
        let old = store.get_index(state, action);
        store.set_index(
            state,
            action,
            (1.0 - self.alpha) * old + self.alpha * reward,
        );
    }
}

/// A discounted variant: `Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_a' Q(s,a'))`.
///
/// The bootstrap term values a state by the best mode currently known for
/// it, so rewards propagate across the actions of recurring states instead
/// of each action learning in isolation. With rewards in `[0, 1]`, values
/// converge below `1/(1−γ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscountedUpdate {
    blend: BlendUpdate,
    gamma: f64,
}

impl DiscountedUpdate {
    /// Discount factor `gamma` in `[0, 1)` over the paper's α schedule.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1)`.
    pub fn new(alpha0: f64, horizon: usize, gamma: f64) -> DiscountedUpdate {
        assert!((0.0..1.0).contains(&gamma), "gamma must lie in [0, 1)");
        DiscountedUpdate {
            blend: BlendUpdate::new(alpha0, horizon),
            gamma,
        }
    }

    /// α₀ = 0.25 (the paper's) with a mild γ = 0.5 bootstrap.
    pub fn default_schedule(train_iterations: usize) -> DiscountedUpdate {
        DiscountedUpdate::new(0.25, train_iterations, 0.5)
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl UpdateRule for DiscountedUpdate {
    fn label(&self) -> String {
        "discounted".to_owned()
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.blend.begin_iteration(iteration);
    }

    fn freeze(&mut self) {
        self.blend.freeze();
    }

    fn alpha(&self) -> f64 {
        self.blend.alpha()
    }

    fn apply(&mut self, store: &mut QTable, state: usize, action: usize, reward: f64) {
        let alpha = self.blend.alpha();
        if alpha == 0.0 {
            return;
        }
        let bootstrap = (0..crate::modes::CoherenceMode::COUNT)
            .map(|a| store.get_index(state, a))
            .fold(f64::MIN, f64::max);
        let target = reward + self.gamma * bootstrap;
        let old = store.get_index(state, action);
        store.set_index(state, action, (1.0 - alpha) * old + alpha * target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blend_matches_paper_formula() {
        let mut store = QTable::with_states(1);
        let mut u = BlendUpdate::paper(10);
        u.apply(&mut store, 0, 1, 1.0);
        assert!((store.get_index(0, 1) - 0.25).abs() < 1e-12);
        u.apply(&mut store, 0, 1, 1.0);
        assert!((store.get_index(0, 1) - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn blend_decays_and_freezes() {
        let mut u = BlendUpdate::paper(10);
        assert_eq!(u.alpha(), 0.25);
        u.begin_iteration(5);
        assert!((u.alpha() - 0.125).abs() < 1e-12);
        u.freeze();
        assert_eq!(u.alpha(), 0.0);
        let mut store = QTable::with_states(1);
        u.apply(&mut store, 0, 0, 1.0);
        assert_eq!(store.get_index(0, 0), 0.0, "frozen rule must not write");
    }

    #[test]
    fn discounted_bootstraps_from_the_best_action() {
        let mut store = QTable::with_states(1);
        store.set_index(0, 2, 0.8);
        let mut u = DiscountedUpdate::new(0.25, 10, 0.5);
        u.apply(&mut store, 0, 0, 1.0);
        // target = 1 + 0.5·0.8 = 1.4; Q = 0.75·0 + 0.25·1.4 = 0.35.
        assert!((store.get_index(0, 0) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_gamma_reduces_to_blend() {
        let mut a = QTable::with_states(1);
        let mut b = QTable::with_states(1);
        let mut blend = BlendUpdate::paper(8);
        let mut disc = DiscountedUpdate::new(0.25, 8, 0.0);
        for (i, r) in [0.3, 0.9, 0.1, 0.7].iter().enumerate() {
            blend.begin_iteration(i);
            disc.begin_iteration(i);
            blend.apply(&mut a, 0, 1, *r);
            disc.apply(&mut b, 0, 1, *r);
        }
        assert_eq!(a.get_index(0, 1), b.get_index(0, 1));
    }

    #[test]
    fn boxed_rule_forwards() {
        let mut boxed: Box<dyn UpdateRule> = Box::new(BlendUpdate::paper(10));
        assert_eq!(boxed.label(), "blend");
        assert_eq!(boxed.alpha(), 0.25);
        let mut store = QTable::with_states(1);
        boxed.apply(&mut store, 0, 0, 1.0);
        assert!((store.get_index(0, 0) - 0.25).abs() < 1e-12);
        boxed.freeze();
        assert_eq!(boxed.alpha(), 0.0);
    }
}
