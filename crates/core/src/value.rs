//! The learning agent's Q-values: one dense [`QTable`].
//!
//! The paper's agent keeps a dense 243 × 4 table (Table 3's state space ×
//! the four coherence modes), zero-initialised and updated in place.
//! [`QTable::with_states`] sizes the same table for any other
//! [`StateSpace`](crate::space::StateSpace); actions are always the four
//! [`CoherenceMode`]s, only the state axis varies.

use serde::{Deserialize, Serialize};

use crate::modes::{CoherenceMode, ModeSet};
use crate::state::State;

/// The first line of every Q-table TSV.
pub(crate) const QTABLE_HEADER: &str = "# cohmeleon q-table v1";

/// The dense Q-table: expected reward per (state, action) pair, row-major.
///
/// Defaults to the paper's 243-state Table-3 space (972 entries,
/// initialised to zero); [`with_states`](Self::with_states) sizes it for
/// any other [`StateSpace`](crate::space::StateSpace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTable {
    /// Row-major `[state][action]`, `states × CoherenceMode::COUNT`.
    q: Vec<f64>,
    /// Number of states (rows).
    states: usize,
}

impl QTable {
    /// Total number of entries of the paper-default table: 243 × 4 = 972.
    pub const ENTRIES: usize = State::COUNT * CoherenceMode::COUNT;

    /// A zero-initialised paper-default (243-state) table, as at the
    /// beginning of training.
    pub fn new() -> QTable {
        QTable::with_states(State::COUNT)
    }

    /// A zero-initialised table covering `states` states.
    pub fn with_states(states: usize) -> QTable {
        QTable {
            q: vec![0.0; states * CoherenceMode::COUNT],
            states,
        }
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.states
    }

    /// Reads `Q(s, a)` for a paper-space [`State`].
    pub fn get(&self, state: State, action: CoherenceMode) -> f64 {
        self.get_index(state.index(), action.index())
    }

    /// Writes `Q(s, a)` for a paper-space [`State`].
    pub fn set(&mut self, state: State, action: CoherenceMode, value: f64) {
        self.set_index(state.index(), action.index(), value);
    }

    /// Reads `Q(s, a)` by dense indices.
    pub fn get_index(&self, state: usize, action: usize) -> f64 {
        self.q[state * CoherenceMode::COUNT + action]
    }

    /// Writes `Q(s, a)` by dense indices.
    pub fn set_index(&mut self, state: usize, action: usize, value: f64) {
        self.q[state * CoherenceMode::COUNT + action] = value;
    }

    /// The highest-valued action from state index `state` among
    /// `available` modes. Ties break toward the lower mode index,
    /// deterministically.
    ///
    /// Returns `None` if `available` is empty. This is the single argmax
    /// used by [`best_action`](Self::best_action), by every exploration
    /// strategy's greedy path and by
    /// [`FrozenTable`](crate::frozen::FrozenTable), so tie semantics cannot
    /// drift between them.
    pub fn best_index(&self, state: usize, available: ModeSet) -> Option<CoherenceMode> {
        let mut best: Option<(CoherenceMode, f64)> = None;
        for mode in available.iter() {
            let q = self.get_index(state, mode.index());
            // Strict comparison: ties resolve to the first (lowest-index) mode.
            if best.is_none_or(|(_, bq)| q > bq) {
                best = Some((mode, q));
            }
        }
        best.map(|(m, _)| m)
    }

    /// [`best_index`](Self::best_index) for a paper-space [`State`].
    pub fn best_action(&self, state: State, available: ModeSet) -> Option<CoherenceMode> {
        self.best_index(state.index(), available)
    }

    /// Number of entries that have been written to a non-zero value.
    pub fn populated_entries(&self) -> usize {
        self.q.iter().filter(|v| **v != 0.0).count()
    }

    /// Iterates `(state, action, value)` over all entries of a
    /// paper-default table.
    ///
    /// # Panics
    ///
    /// Panics if this table does not cover the paper's 243-state space
    /// (use [`get_index`](Self::get_index) for other cardinalities).
    pub fn iter(&self) -> impl Iterator<Item = (State, CoherenceMode, f64)> + '_ {
        assert_eq!(
            self.states,
            State::COUNT,
            "QTable::iter is defined for the paper's Table-3 space"
        );
        self.q.iter().enumerate().map(|(i, &v)| {
            (
                State::from_index(i / CoherenceMode::COUNT),
                CoherenceMode::from_index(i % CoherenceMode::COUNT),
                v,
            )
        })
    }

    /// Serialises the table to a TSV text: one row per state,
    /// `state_index<TAB>q0<TAB>q1<TAB>q2<TAB>q3`. Zero rows are skipped, so
    /// sparsely-trained tables stay compact. Round-trips through
    /// [`from_tsv`](Self::from_tsv); useful for persisting a trained model
    /// and restoring it on a later run (the paper's "disable further
    /// updates and evaluate" protocol across process lifetimes).
    pub fn to_tsv(&self) -> String {
        let mut out = format!("{QTABLE_HEADER}\n");
        for (s, row) in self.q.chunks_exact(CoherenceMode::COUNT).enumerate() {
            if row.iter().all(|v| *v == 0.0) {
                continue;
            }
            out.push_str(&format!(
                "{s}\t{}\t{}\t{}\t{}\n",
                row[0], row[1], row[2], row[3]
            ));
        }
        out
    }

    /// Parses a paper-default (243-state) table previously produced by
    /// [`to_tsv`](Self::to_tsv).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed rows,
    /// out-of-range state indices, or non-finite values.
    pub fn from_tsv(text: &str) -> Result<QTable, String> {
        QTable::from_tsv_with_states(text, State::COUNT)
    }

    /// Parses a table covering `states` states from its TSV form.
    ///
    /// # Errors
    ///
    /// As [`from_tsv`](Self::from_tsv), with state indices validated
    /// against `states`.
    pub fn from_tsv_with_states(text: &str, states: usize) -> Result<QTable, String> {
        let mut table = QTable::with_states(states);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 1 + CoherenceMode::COUNT {
                return Err(format!("line {}: expected 5 fields", lineno + 1));
            }
            let s: usize = fields[0]
                .parse()
                .map_err(|_| format!("line {}: bad state index", lineno + 1))?;
            if s >= states {
                return Err(format!("line {}: state {s} out of range", lineno + 1));
            }
            for (a, field) in fields[1..].iter().enumerate() {
                let v: f64 = field
                    .parse()
                    .map_err(|_| format!("line {}: bad value", lineno + 1))?;
                if !v.is_finite() {
                    return Err(format!("line {}: non-finite value", lineno + 1));
                }
                table.set_index(s, a, v);
            }
        }
        Ok(table)
    }
}

impl Default for QTable {
    fn default() -> Self {
        QTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_index_matches_best_action() {
        let mut t = QTable::new();
        t.set(State::from_index(5), CoherenceMode::CohDma, 0.9);
        t.set(State::from_index(5), CoherenceMode::FullCoh, 0.9);
        let by_index = t.best_index(5, ModeSet::all());
        assert_eq!(
            by_index,
            t.best_action(State::from_index(5), ModeSet::all())
        );
        // Ties break to the lowest index.
        assert_eq!(by_index, Some(CoherenceMode::CohDma));
    }

    #[test]
    fn with_states_sizes_rows() {
        let t = QTable::with_states(7);
        assert_eq!(t.num_states(), 7);
        assert_eq!(t.populated_entries(), 0);
        assert_eq!(t.to_tsv(), "# cohmeleon q-table v1\n");
    }

    #[test]
    fn from_tsv_with_states_validates_range() {
        let text = "5\t0.1\t0\t0\t0\n";
        assert!(QTable::from_tsv_with_states(text, 5).is_err());
        let ok = QTable::from_tsv_with_states(text, 6).unwrap();
        assert_eq!(ok.get_index(5, 0), 0.1);
    }
}
