//! Value storage for the learning agent: the [`ValueStore`] trait and its
//! dense ([`QTable`]) and sparse ([`SparseQTable`]) implementations.
//!
//! The paper's agent keeps a dense 243 × 4 table (Table 3's state space ×
//! the four coherence modes). Generalizing the store behind a trait lets
//! the same [`LearnedPolicy`](crate::agent::LearnedPolicy) drive much
//! larger state spaces (where a dense allocation would be wasteful and
//! mostly zero) or alternative backings, without touching the exploration
//! or update logic. Actions are always the four [`CoherenceMode`]s; only
//! the state axis varies.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::modes::{CoherenceMode, ModeSet};
use crate::state::State;

/// Expected-reward storage for `(state, action)` pairs.
///
/// States are dense indices in `0..states()`; actions are
/// [`CoherenceMode`] indices in `0..CoherenceMode::COUNT`. Unwritten
/// entries read as `0.0` (the paper initialises the whole table to zero).
pub trait ValueStore: Send {
    /// A short display name (`"dense"`, `"sparse"`).
    fn label(&self) -> String;

    /// Number of states this store covers.
    fn states(&self) -> usize;

    /// Reads `Q(state, action)`.
    fn get_entry(&self, state: usize, action: usize) -> f64;

    /// Writes `Q(state, action)`.
    fn set_entry(&mut self, state: usize, action: usize, value: f64);

    /// Resets every entry to the untrained zero state (the cardinality is
    /// unchanged). Used before restoring a serialised table, whose text
    /// only carries populated rows — without the reset, importing into a
    /// non-fresh store would *overlay* rather than *replace*.
    fn reset(&mut self);

    /// Number of entries holding a non-zero value — a rough measure of how
    /// much of the state space training has visited.
    fn populated_entries(&self) -> usize;

    /// Serialises the store to the Q-table TSV format (see
    /// [`QTable::to_tsv`]). Implementations must produce identical text for
    /// identical contents, so dense and sparse stores can be diffed.
    fn to_tsv(&self) -> String;
}

impl ValueStore for Box<dyn ValueStore> {
    fn label(&self) -> String {
        (**self).label()
    }
    fn states(&self) -> usize {
        (**self).states()
    }
    fn get_entry(&self, state: usize, action: usize) -> f64 {
        (**self).get_entry(state, action)
    }
    fn set_entry(&mut self, state: usize, action: usize, value: f64) {
        (**self).set_entry(state, action, value);
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn populated_entries(&self) -> usize {
        (**self).populated_entries()
    }
    fn to_tsv(&self) -> String {
        (**self).to_tsv()
    }
}

/// A store that can be default-constructed for a given state-space
/// cardinality (used by the agent builder to size the store from the
/// chosen [`StateSpace`](crate::space::StateSpace)).
pub trait AutoStore: ValueStore + Sized {
    /// A zero-initialised store covering `states` states.
    fn for_states(states: usize) -> Self;
}

/// The highest-valued action from `state` among `available` modes.
/// Ties break toward the lower mode index, deterministically.
///
/// Returns `None` if `available` is empty. This is the single argmax used
/// by every exploration strategy (and by [`QTable::best_action`]), so tie
/// semantics cannot drift between them.
pub fn best_entry<V: ValueStore + ?Sized>(
    store: &V,
    state: usize,
    available: ModeSet,
) -> Option<CoherenceMode> {
    let mut best: Option<(CoherenceMode, f64)> = None;
    for mode in available.iter() {
        let q = store.get_entry(state, mode.index());
        // Strict comparison: ties resolve to the first (lowest-index) mode.
        if best.is_none_or(|(_, bq)| q > bq) {
            best = Some((mode, q));
        }
    }
    best.map(|(m, _)| m)
}

/// The first line of every Q-table TSV.
pub(crate) const QTABLE_HEADER: &str = "# cohmeleon q-table v1";

fn tsv_header() -> String {
    format!("{QTABLE_HEADER}\n")
}

/// Parses Q-table TSV text (the [`ValueStore::to_tsv`] format) into any
/// store, writing each parsed entry through [`ValueStore::set_entry`] —
/// the store-agnostic counterpart of [`QTable::from_tsv_with_states`],
/// used by [`Policy::import_table`](crate::policy::Policy::import_table)
/// to restore agents whose store type is erased.
///
/// # Errors
///
/// Returns a message naming the offending line for malformed rows, state
/// indices outside `store.states()`, or non-finite values.
pub fn read_tsv_into<V: ValueStore + ?Sized>(text: &str, store: &mut V) -> Result<(), String> {
    let states = store.states();
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
            store.set_entry(s, a, v);
        }
    }
    Ok(())
}

fn tsv_row(out: &mut String, state: usize, row: &[f64]) {
    out.push_str(&format!(
        "{state}\t{}\t{}\t{}\t{}\n",
        row[0], row[1], row[2], row[3]
    ));
}

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

    /// The highest-valued action from `state` among `available` modes.
    /// Ties break toward the lower mode index, deterministically.
    ///
    /// Returns `None` if `available` is empty.
    pub fn best_action(&self, state: State, available: ModeSet) -> Option<CoherenceMode> {
        best_entry(self, state.index(), available)
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
        let mut out = tsv_header();
        for s in 0..self.states {
            let row = &self.q[s * CoherenceMode::COUNT..(s + 1) * CoherenceMode::COUNT];
            if row.iter().all(|v| *v == 0.0) {
                continue;
            }
            tsv_row(&mut out, s, row);
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
        read_tsv_into(text, &mut table)?;
        Ok(table)
    }
}

impl Default for QTable {
    fn default() -> Self {
        QTable::new()
    }
}

impl ValueStore for QTable {
    fn label(&self) -> String {
        "dense".to_owned()
    }
    fn states(&self) -> usize {
        self.states
    }
    fn get_entry(&self, state: usize, action: usize) -> f64 {
        self.get_index(state, action)
    }
    fn set_entry(&mut self, state: usize, action: usize, value: f64) {
        self.set_index(state, action, value);
    }
    fn reset(&mut self) {
        self.q.fill(0.0);
    }
    fn populated_entries(&self) -> usize {
        QTable::populated_entries(self)
    }
    fn to_tsv(&self) -> String {
        QTable::to_tsv(self)
    }
}

impl AutoStore for QTable {
    fn for_states(states: usize) -> Self {
        QTable::with_states(states)
    }
}

/// A sparse Q-store: only written entries are materialised.
///
/// Training visits a small fraction of large state spaces (the quick suite
/// populates a handful of the 972 paper-space entries; an extended space
/// has thousands of states), so a map from `(state, action)` to value
/// keeps memory proportional to *visited* entries. A `BTreeMap` keeps
/// iteration order deterministic, which makes the TSV serialisation
/// byte-identical to a dense store with the same contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseQTable {
    map: BTreeMap<(usize, usize), f64>,
    states: usize,
}

impl SparseQTable {
    /// An empty sparse store covering `states` states.
    pub fn with_states(states: usize) -> SparseQTable {
        SparseQTable {
            map: BTreeMap::new(),
            states,
        }
    }

    /// Number of entries materialised (written at least once).
    pub fn materialized_entries(&self) -> usize {
        self.map.len()
    }
}

impl ValueStore for SparseQTable {
    fn label(&self) -> String {
        "sparse".to_owned()
    }

    fn states(&self) -> usize {
        self.states
    }

    fn get_entry(&self, state: usize, action: usize) -> f64 {
        self.map.get(&(state, action)).copied().unwrap_or(0.0)
    }

    fn set_entry(&mut self, state: usize, action: usize, value: f64) {
        self.map.insert((state, action), value);
    }

    fn reset(&mut self) {
        self.map.clear();
    }

    fn populated_entries(&self) -> usize {
        self.map.values().filter(|v| **v != 0.0).count()
    }

    fn to_tsv(&self) -> String {
        let mut out = tsv_header();
        let mut row = [0.0; CoherenceMode::COUNT];
        let mut current: Option<usize> = None;
        let flush = |out: &mut String, state: usize, row: &mut [f64; CoherenceMode::COUNT]| {
            if row.iter().any(|v| *v != 0.0) {
                tsv_row(out, state, row);
            }
            *row = [0.0; CoherenceMode::COUNT];
        };
        for (&(s, a), &v) in &self.map {
            if current != Some(s) {
                if let Some(prev) = current {
                    flush(&mut out, prev, &mut row);
                }
                current = Some(s);
            }
            row[a] = v;
        }
        if let Some(prev) = current {
            flush(&mut out, prev, &mut row);
        }
        out
    }
}

impl AutoStore for SparseQTable {
    fn for_states(states: usize) -> Self {
        SparseQTable::with_states(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_agree_entry_for_entry() {
        let mut dense = QTable::with_states(27);
        let mut sparse = SparseQTable::with_states(27);
        let writes = [(0, 0, 0.5), (3, 2, -1.25), (26, 3, 0.125), (3, 2, 0.75)];
        for (s, a, v) in writes {
            dense.set_entry(s, a, v);
            sparse.set_entry(s, a, v);
        }
        for s in 0..27 {
            for a in 0..CoherenceMode::COUNT {
                assert_eq!(dense.get_entry(s, a), sparse.get_entry(s, a), "({s},{a})");
            }
        }
        assert_eq!(dense.populated_entries(), sparse.populated_entries());
        assert_eq!(dense.to_tsv(), sparse.to_tsv());
    }

    #[test]
    fn sparse_reads_default_to_zero() {
        let s = SparseQTable::with_states(10);
        assert_eq!(s.get_entry(9, 3), 0.0);
        assert_eq!(s.populated_entries(), 0);
        assert_eq!(s.to_tsv(), "# cohmeleon q-table v1\n");
    }

    #[test]
    fn sparse_zero_writes_do_not_count_as_populated() {
        let mut s = SparseQTable::with_states(10);
        s.set_entry(1, 1, 0.0);
        assert_eq!(s.materialized_entries(), 1);
        assert_eq!(s.populated_entries(), 0);
        // An all-zero row is skipped in the TSV, like the dense store.
        assert_eq!(s.to_tsv(), QTable::with_states(10).to_tsv());
    }

    #[test]
    fn best_entry_matches_qtable_best_action() {
        let mut t = QTable::new();
        t.set(State::from_index(5), CoherenceMode::CohDma, 0.9);
        t.set(State::from_index(5), CoherenceMode::FullCoh, 0.9);
        let via_trait = best_entry(&t, 5, ModeSet::all());
        assert_eq!(via_trait, t.best_action(State::from_index(5), ModeSet::all()));
        // Ties break to the lowest index.
        assert_eq!(via_trait, Some(CoherenceMode::CohDma));
    }

    #[test]
    fn boxed_store_forwards() {
        let mut boxed: Box<dyn ValueStore> = Box::new(QTable::with_states(5));
        boxed.set_entry(2, 1, 0.5);
        assert_eq!(boxed.get_entry(2, 1), 0.5);
        assert_eq!(boxed.states(), 5);
        assert_eq!(boxed.populated_entries(), 1);
        assert_eq!(boxed.label(), "dense");
    }

    #[test]
    fn with_states_sizes_rows() {
        let t = QTable::with_states(7);
        assert_eq!(t.num_states(), 7);
        assert_eq!(ValueStore::states(&t), 7);
        let via_auto = QTable::for_states(7);
        assert_eq!(t, via_auto);
    }

    #[test]
    fn from_tsv_with_states_validates_range() {
        let text = "5\t0.1\t0\t0\t0\n";
        assert!(QTable::from_tsv_with_states(text, 5).is_err());
        let ok = QTable::from_tsv_with_states(text, 6).unwrap();
        assert_eq!(ok.get_entry(5, 0), 0.1);
    }
}
