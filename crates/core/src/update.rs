//! Value updates: the [`BlendUpdate`] rule of the learning agent.
//!
//! The paper updates with `Q(s,a) ← (1−α)·Q(s,a) + α·R(s,a)` — a
//! contextual-bandit blend with α decaying linearly from 0.25 to zero over
//! training ([`BlendUpdate::paper`], the default). The ablation variant
//! ([`BlendUpdate::discounted`]) blends toward `R + γ·max_a' Q(s,a')`
//! instead: the invocation's reward plus a discounted bootstrap of the
//! state's own best value. Coherence decisions recur in similar states
//! (the same phase keeps invoking the same accelerators), so the bootstrap
//! spreads credit toward persistently good modes; γ = 0 is the paper's
//! rule.

use crate::explore::decayed;
use crate::modes::CoherenceMode;
use crate::value::QTable;

/// The Q-value update: `Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_a' Q(s,a'))`
/// with α decaying linearly from `alpha0` to zero over the training
/// horizon.
///
/// The bootstrap term values a state by the best mode currently known for
/// it, so rewards propagate across the actions of recurring states instead
/// of each action learning in isolation. With rewards in `[0, 1]`, values
/// converge below `1/(1−γ)`. At γ = 0 — the paper's rule — the discounted
/// term is a zero (Q-values are finite: tables start at zero and loading
/// rejects non-finite values), and adding a zero to the reward, a clamped
/// sum of non-negative terms, is exact: the paper agent computes the floats
/// of the original `(1−α)·Q + α·R` implementation bit for bit.
///
/// The agent calls [`apply`](Self::apply) once per completed invocation
/// with the reward of Section 4.2; frozen agents never call it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlendUpdate {
    alpha0: f64,
    horizon: usize,
    alpha: f64,
    gamma: f64,
}

impl BlendUpdate {
    /// α decaying linearly from `alpha0` to zero over `horizon` training
    /// iterations (a zero horizon starts — and stays — at zero), with
    /// discount factor `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1)`.
    pub fn new(alpha0: f64, horizon: usize, gamma: f64) -> BlendUpdate {
        assert!((0.0..1.0).contains(&gamma), "gamma must lie in [0, 1)");
        BlendUpdate {
            alpha0,
            horizon,
            alpha: decayed(alpha0, 0, horizon),
            gamma,
        }
    }

    /// The paper's rule: α₀ = 0.25 over `train_iterations` iterations
    /// (clamped to at least one, as is ε's in
    /// [`EpsilonGreedy::paper`](crate::explore::EpsilonGreedy::paper)), γ = 0.
    pub fn paper(train_iterations: usize) -> BlendUpdate {
        BlendUpdate::new(0.25, train_iterations.max(1), 0.0)
    }

    /// The discounted ablation: the paper's α₀ = 0.25 over
    /// `train_iterations` iterations (not clamped: a zero horizon never
    /// updates) with a mild γ = 0.5 bootstrap.
    pub fn discounted(train_iterations: usize) -> BlendUpdate {
        BlendUpdate::new(0.25, train_iterations, 0.5)
    }

    /// Current learning rate (diagnostics).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Marks the start of training iteration `iteration` (α decay).
    pub fn begin_iteration(&mut self, iteration: usize) {
        self.alpha = decayed(self.alpha0, iteration, self.horizon);
    }

    /// Permanently disables updates (learning rate to zero).
    pub fn freeze(&mut self) {
        self.alpha = 0.0;
    }

    /// Applies one update for `(state, action)` with `reward`.
    pub fn apply(&self, store: &mut QTable, state: usize, action: usize, reward: f64) {
        let alpha = self.alpha;
        if alpha == 0.0 {
            return;
        }
        let bootstrap = (0..CoherenceMode::COUNT)
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
        let u = BlendUpdate::paper(10);
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
        u.begin_iteration(10);
        assert_eq!(u.alpha(), 0.0);
        u.begin_iteration(11);
        assert_eq!(u.alpha(), 0.0);
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
        let u = BlendUpdate::new(0.25, 10, 0.5);
        u.apply(&mut store, 0, 0, 1.0);
        // target = 1 + 0.5·0.8 = 1.4; Q = 0.75·0 + 0.25·1.4 = 0.35.
        assert!((store.get_index(0, 0) - 0.35).abs() < 1e-12);
    }
}
