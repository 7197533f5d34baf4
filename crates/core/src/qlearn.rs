//! The Q-learning schedule of Section 4.2.
//!
//! A [`QTable`](crate::value::QTable) stores, for each (state, action)
//! pair, the expected reward of taking that action from that state
//! (243 × 4 = 972 entries, initialised to zero). Cohmeleon selects actions
//! ε-greedily among the *available* modes and updates the table with
//!
//! ```text
//! Q(s,a) ← (1 − α) · Q(s,a) + α · R(s,a)
//! ```
//!
//! The exploration rate ε and learning rate α start at the paper's values
//! (0.5 and 0.25) and decay linearly to zero over the configured number of
//! training iterations, after which the model is frozen and further updates
//! are disabled.
//!
//! This module holds that [`LearningSchedule`]; the learning loop itself is
//! [`CohmeleonPolicy`](crate::agent::CohmeleonPolicy), composed from the
//! ε-greedy [`explore`](crate::explore) and blend [`update`](crate::update)
//! components over one Q-table.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// The training schedule: initial ε and α and the number of evaluation-app
/// iterations over which both decay linearly to zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearningSchedule {
    /// Initial exploration rate (paper: 0.5).
    pub epsilon0: f64,
    /// Initial learning rate (paper: 0.25).
    pub alpha0: f64,
    /// Number of training iterations over which ε and α decay to zero.
    pub train_iterations: usize,
}

impl LearningSchedule {
    /// The paper's schedule: ε₀ = 0.5, α₀ = 0.25, decaying linearly to zero
    /// over `train_iterations` iterations of the evaluation application.
    pub fn paper_default(train_iterations: usize) -> LearningSchedule {
        LearningSchedule {
            epsilon0: 0.5,
            alpha0: 0.25,
            train_iterations: train_iterations.max(1),
        }
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroTrainingIterations`] when no training
    /// iterations are configured.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.train_iterations == 0 {
            return Err(CoreError::ZeroTrainingIterations);
        }
        Ok(())
    }

    /// ε at the start of training iteration `i` (0-based): linear decay
    /// reaching zero at `i == train_iterations`.
    pub fn epsilon_at(&self, iteration: usize) -> f64 {
        decayed(self.epsilon0, iteration, self.train_iterations)
    }

    /// α at the start of training iteration `i` (0-based).
    pub fn alpha_at(&self, iteration: usize) -> f64 {
        decayed(self.alpha0, iteration, self.train_iterations)
    }
}

/// Linear decay from `initial` to zero at `iteration == total`, shared by
/// every schedule in the agent stack.
pub(crate) fn decayed(initial: f64, iteration: usize, total: usize) -> f64 {
    if iteration >= total {
        0.0
    } else {
        initial * (1.0 - iteration as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{CoherenceMode, ModeSet};
    use crate::state::State;
    use crate::value::QTable;

    fn any_state() -> State {
        State::from_index(42)
    }

    #[test]
    fn table_starts_at_zero() {
        let t = QTable::new();
        for (_, _, v) in t.iter() {
            assert_eq!(v, 0.0);
        }
        assert_eq!(t.populated_entries(), 0);
    }

    #[test]
    fn table_has_972_entries() {
        assert_eq!(QTable::ENTRIES, 972);
        assert_eq!(QTable::new().iter().count(), 972);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = QTable::new();
        t.set(any_state(), CoherenceMode::CohDma, 0.7);
        assert_eq!(t.get(any_state(), CoherenceMode::CohDma), 0.7);
        assert_eq!(t.get(any_state(), CoherenceMode::FullCoh), 0.0);
    }

    #[test]
    fn best_action_prefers_highest_q() {
        let mut t = QTable::new();
        t.set(any_state(), CoherenceMode::LlcCohDma, 0.9);
        t.set(any_state(), CoherenceMode::FullCoh, 0.5);
        assert_eq!(
            t.best_action(any_state(), ModeSet::all()),
            Some(CoherenceMode::LlcCohDma)
        );
    }

    #[test]
    fn best_action_ties_break_to_lowest_index() {
        let t = QTable::new();
        assert_eq!(
            t.best_action(any_state(), ModeSet::all()),
            Some(CoherenceMode::NonCohDma)
        );
    }

    #[test]
    fn best_action_respects_availability() {
        let mut t = QTable::new();
        t.set(any_state(), CoherenceMode::NonCohDma, 1.0);
        let available = ModeSet::all().without(CoherenceMode::NonCohDma);
        let best = t.best_action(any_state(), available).unwrap();
        assert_ne!(best, CoherenceMode::NonCohDma);
        assert_eq!(t.best_action(any_state(), ModeSet::EMPTY), None);
    }

    #[test]
    fn schedule_decays_linearly_to_zero() {
        let s = LearningSchedule::paper_default(10);
        assert_eq!(s.epsilon_at(0), 0.5);
        assert!((s.epsilon_at(5) - 0.25).abs() < 1e-12);
        assert_eq!(s.epsilon_at(10), 0.0);
        assert_eq!(s.epsilon_at(11), 0.0);
        assert_eq!(s.alpha_at(0), 0.25);
        assert!((s.alpha_at(5) - 0.125).abs() < 1e-12);
        assert_eq!(s.alpha_at(10), 0.0);
    }

    #[test]
    fn schedule_validation() {
        assert!(LearningSchedule::paper_default(10).validate().is_ok());
        let bad = LearningSchedule {
            epsilon0: 0.5,
            alpha0: 0.25,
            train_iterations: 0,
        };
        assert_eq!(bad.validate(), Err(CoreError::ZeroTrainingIterations));
    }

    #[test]
    fn tsv_roundtrip_preserves_values() {
        let mut t = QTable::new();
        t.set(State::from_index(0), CoherenceMode::NonCohDma, 0.125);
        t.set(State::from_index(42), CoherenceMode::CohDma, 0.75);
        t.set(State::from_index(242), CoherenceMode::FullCoh, 1.0);
        let text = t.to_tsv();
        let back = QTable::from_tsv(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn tsv_skips_zero_rows() {
        let mut t = QTable::new();
        t.set(State::from_index(7), CoherenceMode::LlcCohDma, 0.5);
        let text = t.to_tsv();
        // Header + one populated row.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(QTable::from_tsv("1\t2\t3\n").is_err());
        assert!(QTable::from_tsv("999\t0\t0\t0\t0\n").is_err());
        assert!(QTable::from_tsv("abc\t0\t0\t0\t0\n").is_err());
        assert!(QTable::from_tsv("1\t0\tNaN\t0\t0\n").is_err());
        // Comments and blank lines are tolerated.
        let ok = QTable::from_tsv("# comment\n\n0\t0.1\t0.2\t0.3\t0.4\n").unwrap();
        assert_eq!(ok.get(State::from_index(0), CoherenceMode::FullCoh), 0.4);
    }
}
