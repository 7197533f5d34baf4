//! Read-optimized frozen decision tables: the serving-side counterpart of
//! the [`router`](crate::router) module.
//!
//! A trained policy's persisted artifact — a Q-table TSV or a namespaced
//! router-tables document — still carries the full learner shape: per-agent
//! Q-tables, exploration state, reward history. None of that belongs on a
//! serving read path. This module collapses the artifact into a
//! [`FrozenSnapshot`]: for every `(state, availability-mask)` pair the
//! argmax is **precomputed** into a dense byte table, so a served decision
//! is two indexed loads and no floating-point compare — and, crucially, the
//! structure is immutable after construction, so it can be shared across
//! reader threads behind an `Arc` with no lock and no interior mutability.
//!
//! Semantics are pinned to the live stack:
//!
//! * Per-table argmax is exactly [`QTable::best_index`] (strict `>`, ties
//!   to the lowest mode index) — the same function every frozen
//!   exploration strategy reduces to.
//! * Parsing, key resolution and the key → table map are the router's
//!   own: the artifact goes through the router's tables parser, and a
//!   decision resolves its key with [`AgentScope::key`] and looks it up in
//!   the same slot map [`PolicyRouter`](crate::router::PolicyRouter)
//!   dispatches through. A key with no table behaves like the fresh
//!   zero-table agent the live router would create: every mode reads
//!   Q = 0, so the argmax is the lowest-index available mode.
//!
//! [`FrozenPolicy`] closes the loop for in-engine use: it is a [`Policy`]
//! whose decide phase senses exactly like [`LearnedPolicy`](crate::agent::LearnedPolicy)
//! (`State::from_snapshot` + `encode_sensed`) and then consults the frozen
//! snapshot — the local reference that a remote serving path must match
//! bit for bit.

use std::fmt;
use std::sync::Arc;

use crate::modes::{CoherenceMode, ModeSet};
use crate::policy::{Decision, Policy, PolicyComplexity};
use crate::router::{parse_tables, AgentScope, ScopeKey, ScopeMap, Tables, Topology};
use crate::snapshot::SystemSnapshot;
use crate::space::StateSpace;
use crate::state::State;
use crate::value::QTable;
use crate::{AccelInstanceId, AccelKindId};

/// Number of availability masks over the four modes (2⁴, including the
/// unused empty mask so indexing is a plain shift).
const MASKS: usize = 1 << CoherenceMode::COUNT;

/// One agent's Q-table, collapsed to its argmax: `best[state * 16 + mask]`
/// holds the winning mode index for every non-empty availability mask.
#[derive(Clone)]
pub struct FrozenTable {
    best: Vec<u8>,
}

impl FrozenTable {
    /// Precomputes the argmax of `table` for every `(state, mask)` pair.
    /// `table.num_states()` rows are covered.
    pub fn from_table(table: &QTable) -> FrozenTable {
        let states = table.num_states();
        let mut best = vec![0u8; states * MASKS];
        for state in 0..states {
            for mask in 1..MASKS {
                let set = ModeSet::from_bits(mask as u8);
                let mode = table.best_index(state, set).expect("non-empty mask");
                best[state * MASKS + mask] = mode.index() as u8;
            }
        }
        FrozenTable { best }
    }

    /// Number of states covered.
    pub fn states(&self) -> usize {
        self.best.len() / MASKS
    }

    /// The precomputed argmax for `state` among `available`; `None` iff
    /// `available` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range (callers validate against
    /// [`FrozenSnapshot::states`] first).
    #[inline]
    pub fn decide(&self, state: usize, available: ModeSet) -> Option<CoherenceMode> {
        if available.is_empty() {
            return None;
        }
        Some(CoherenceMode::from_index(
            self.best[state * MASKS + available.bits() as usize] as usize,
        ))
    }
}

impl fmt::Debug for FrozenTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenTable")
            .field("states", &self.states())
            .finish_non_exhaustive()
    }
}

/// 64-bit FNV-1a of the snapshot text — a cheap stable fingerprint for
/// telling table versions apart in server stats and logs.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// An immutable, read-optimized decision store: every agent table of one
/// persisted artifact collapsed to [`FrozenTable`]s, keyed through the
/// router's slot map.
///
/// Construction does all the work; after [`parse`](Self::parse) the
/// structure is never written again, so it is freely shareable across
/// threads (`Arc<FrozenSnapshot>`) with no synchronisation on reads.
#[derive(Clone)]
pub struct FrozenSnapshot {
    scope: AgentScope,
    states: usize,
    tables: ScopeMap<FrozenTable>,
    fingerprint: u64,
}

impl FrozenSnapshot {
    /// Parses a persisted decision artifact with `states` rows per table.
    ///
    /// Accepts both on-disk forms:
    ///
    /// * a namespaced router-tables document (`# cohmeleon router tables
    ///   v1 scope=<scope>` followed by `## agent <key>` sections), as
    ///   produced by `PolicyRouter::export_tables`;
    /// * a bare Q-table TSV (`# cohmeleon q-table v1`), as produced by a
    ///   single global agent — loaded as a global-scope snapshot with one
    ///   table.
    ///
    /// Leading blank lines and `#` comments **before** the header are
    /// skipped, so snapshot files may carry provenance comments.
    ///
    /// # Errors
    ///
    /// Returns a message for non-comment content before the header, a
    /// missing header or scope, an unparsable/duplicated/unreachable
    /// section key, a malformed table body, or a state index ≥ `states`.
    pub fn parse(text: &str, states: usize) -> Result<FrozenSnapshot, String> {
        let (scope, sections) = match parse_tables(text)? {
            Tables::Routed { scope, sections } => (scope, sections),
            // A bare q-table: one global agent's table.
            Tables::Bare(body) => (AgentScope::Global, vec![(ScopeKey::Global, body)]),
        };
        let tables = sections
            .into_iter()
            .map(|(key, body)| {
                let table = QTable::from_tsv_with_states(&body, states)
                    .map_err(|e| format!("agent {key}: {e}"))?;
                Ok((key, FrozenTable::from_table(&table)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FrozenSnapshot {
            scope,
            states,
            tables: ScopeMap::new(tables),
            fingerprint: fnv1a(text),
        })
    }

    /// The routing scope the tables were exported from.
    pub fn scope(&self) -> AgentScope {
        self.scope
    }

    /// Number of states per table; query state indices must be below this.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of agent tables materialised.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The materialised table keys, in [`ScopeKey`] order.
    pub fn keys(&self) -> impl Iterator<Item = ScopeKey> + '_ {
        self.tables.keys()
    }

    /// FNV-1a fingerprint of the source text (stable version identity for
    /// server stats).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Resolves one decision exactly as a frozen live router would:
    /// the owning table's precomputed argmax, or the lowest-index
    /// available mode where no table exists for the key (the fresh
    /// zero-table agent's behaviour). `kind` is the instance's registered
    /// accelerator kind, `None` if unregistered (per-kind routing then
    /// falls back to the global catch-all).
    ///
    /// Returns `None` iff `available` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `state >= self.states()` — the serving layer validates
    /// query state indices before dispatch.
    #[inline]
    pub fn decide(
        &self,
        instance: AccelInstanceId,
        kind: Option<AccelKindId>,
        state: usize,
        available: ModeSet,
    ) -> Option<CoherenceMode> {
        if available.is_empty() {
            return None;
        }
        assert!(
            state < self.states,
            "state {state} out of range (snapshot covers {})",
            self.states
        );
        match self.tables.get(self.scope.key(instance, kind)) {
            Some(table) => table.decide(state, available),
            // Zero-table fallback: every Q reads 0.0, argmax is the
            // lowest-index available mode.
            None => available.iter().next(),
        }
    }
}

impl fmt::Debug for FrozenSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenSnapshot")
            .field("scope", &self.scope)
            .field("states", &self.states)
            .field("tables", &self.keys().collect::<Vec<_>>())
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish()
    }
}

/// A [`Policy`] that answers every decision from a [`FrozenSnapshot`] —
/// the in-engine reference for served decisions.
///
/// The decide phase senses exactly like [`LearnedPolicy`]
/// (`State::from_snapshot`, then [`StateSpace::encode_sensed`]) and looks
/// the result up in the shared snapshot; `observe` is a no-op (the tables
/// are frozen by construction). A `RemotePolicy` that senses the same way
/// and ships `(instance, kind, state, mask)` to a server holding the same
/// snapshot is bit-identical to this policy — which is the property the
/// serving integration tests pin.
///
/// [`LearnedPolicy`]: crate::agent::LearnedPolicy
pub struct FrozenPolicy {
    snapshot: Arc<FrozenSnapshot>,
    space: Box<dyn StateSpace>,
    topology: Topology,
}

impl FrozenPolicy {
    /// Wraps `snapshot` with the state space the tables were trained
    /// under.
    ///
    /// # Panics
    ///
    /// Panics if `space.cardinality() != snapshot.states()` — a snapshot
    /// consulted through the wrong discretization would silently serve
    /// garbage.
    pub fn new(snapshot: Arc<FrozenSnapshot>, space: impl StateSpace + 'static) -> FrozenPolicy {
        assert_eq!(
            space.cardinality(),
            snapshot.states(),
            "state space cardinality must match the snapshot's state count"
        );
        FrozenPolicy {
            snapshot,
            space: Box::new(space),
            topology: Topology::default(),
        }
    }

    /// Convenience constructor for paper-default (Table-3, 243-state)
    /// snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not cover 243 states.
    pub fn table3(snapshot: Arc<FrozenSnapshot>) -> FrozenPolicy {
        FrozenPolicy::new(snapshot, crate::space::Table3Space)
    }

    /// The shared snapshot decisions are answered from.
    pub fn snapshot(&self) -> &Arc<FrozenSnapshot> {
        &self.snapshot
    }

    /// The registered kind of `instance`, if any (from
    /// [`Policy::bind_topology`]).
    pub fn kind_of(&self, instance: AccelInstanceId) -> Option<AccelKindId> {
        self.topology.kind_of(instance)
    }
}

impl fmt::Debug for FrozenPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenPolicy")
            .field("snapshot", &self.snapshot)
            .field("space", &self.space.label())
            .finish_non_exhaustive()
    }
}

impl Policy for FrozenPolicy {
    fn name(&self) -> String {
        "frozen".to_owned()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        assert!(
            !available.is_empty(),
            "policy invoked with an empty set of available coherence modes"
        );
        let state = State::from_snapshot(snapshot);
        let state_index = self.space.encode_sensed(snapshot, &state);
        let kind = self.kind_of(accel);
        let mode = self
            .snapshot
            .decide(accel, kind, state_index, available)
            .expect("available is non-empty");
        Decision {
            mode,
            state,
            state_index,
        }
    }

    fn complexity(&self) -> PolicyComplexity {
        // Sense + table lookup, no learning machinery: charged like the
        // manual heuristic. Must match `RemotePolicy` so engine overhead
        // accounting is identical between local and remote dispatch.
        PolicyComplexity::Heuristic
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        self.topology.bind(topology);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentBuilder;
    use crate::explore::Softmax;
    use crate::snapshot::{ActiveAccel, ArchParams};
    use crate::PartitionId;

    fn arch() -> ArchParams {
        ArchParams::new(32 * 1024, 256 * 1024, 2)
    }

    fn idle(footprint: u64) -> SystemSnapshot {
        SystemSnapshot::new(arch(), vec![], footprint, vec![PartitionId(0)])
    }

    fn busy(n: usize, footprint: u64) -> SystemSnapshot {
        let active = (0..n)
            .map(|i| ActiveAccel {
                instance: AccelInstanceId(i as u16),
                mode: CoherenceMode::FullCoh,
                footprint_bytes: 128 * 1024,
                partitions: vec![PartitionId(0)],
            })
            .collect();
        SystemSnapshot::new(arch(), active, footprint, vec![PartitionId(0)])
    }

    /// A deterministic synthetic table: distinct values per entry so
    /// argmaxes differ across states and masks.
    fn synthetic_table(states: usize, salt: u64) -> QTable {
        let mut t = QTable::with_states(states);
        for s in 0..states {
            for a in 0..CoherenceMode::COUNT {
                let v = ((s as u64 * 31 + a as u64 * 7 + salt) % 13) as f64 - 6.0;
                t.set_index(s, a, v);
            }
        }
        t
    }

    #[test]
    fn frozen_table_matches_best_index_everywhere() {
        let table = synthetic_table(27, 3);
        let frozen = FrozenTable::from_table(&table);
        assert_eq!(frozen.states(), 27);
        for state in 0..27 {
            for mask in 1u8..16 {
                let set = ModeSet::from_bits(mask);
                assert_eq!(
                    frozen.decide(state, set),
                    table.best_index(state, set),
                    "state {state} mask {mask:#06b}"
                );
            }
        }
        assert_eq!(frozen.decide(0, ModeSet::EMPTY), None);
    }

    #[test]
    fn parses_bare_qtable_as_global_snapshot() {
        let table = synthetic_table(243, 1);
        let snap = FrozenSnapshot::parse(&table.to_tsv(), 243).unwrap();
        assert_eq!(snap.scope(), AgentScope::Global);
        assert_eq!(snap.states(), 243);
        assert_eq!(snap.num_tables(), 1);
        for state in [0usize, 7, 242] {
            for mask in 1u8..16 {
                let set = ModeSet::from_bits(mask);
                assert_eq!(
                    snap.decide(AccelInstanceId(0), None, state, set),
                    table.best_index(state, set)
                );
            }
        }
    }

    #[test]
    fn provenance_comments_before_the_header_are_skipped() {
        let table = synthetic_table(243, 2);
        let text = format!(
            "# snapshot v1 grid=suite scenario=soc1 policy=cohmeleon seed=1 hash=abc\n\n{}",
            table.to_tsv()
        );
        let snap = FrozenSnapshot::parse(&text, 243).unwrap();
        assert_eq!(snap.num_tables(), 1);
        // Different text, different fingerprint.
        assert_ne!(
            snap.fingerprint(),
            FrozenSnapshot::parse(&table.to_tsv(), 243).unwrap().fingerprint()
        );
        // The same holds for a router-tables document.
        let text = format!(
            "# snapshot v1 grid=scoped scenario=soc1 policy=ql seed=1 hash=abc\n\n\
             # cohmeleon router tables v1 scope=per-kind\n## agent kind1\n{}",
            table.to_tsv()
        );
        let snap = FrozenSnapshot::parse(&text, 243).unwrap();
        assert_eq!(snap.scope(), AgentScope::PerKind);
        assert_eq!(
            snap.keys().collect::<Vec<_>>(),
            [ScopeKey::Kind(AccelKindId(1))]
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        // Non-comment content before the header.
        assert!(FrozenSnapshot::parse("hello\n# cohmeleon q-table v1\n", 243).is_err());
        // No header at all.
        assert!(FrozenSnapshot::parse("# just a comment\n", 243).is_err());
        // Router doc without a scope.
        assert!(FrozenSnapshot::parse("# cohmeleon router tables v1\n", 243).is_err());
        // Bad scope.
        assert!(
            FrozenSnapshot::parse("# cohmeleon router tables v1 scope=per-socket\n", 243).is_err()
        );
        // Content between header and first section.
        assert!(FrozenSnapshot::parse(
            "# cohmeleon router tables v1 scope=global\nstray\n",
            243
        )
        .is_err());
        // Duplicate key.
        assert!(FrozenSnapshot::parse(
            "# cohmeleon router tables v1 scope=per-kind\n## agent kind0\n## agent kind0\n",
            243
        )
        .is_err());
        // Unreachable key under the scope.
        assert!(FrozenSnapshot::parse(
            "# cohmeleon router tables v1 scope=per-kind\n## agent acc3\n",
            243
        )
        .is_err());
        // State index out of range for the declared cardinality.
        let table = synthetic_table(243, 0);
        assert!(FrozenSnapshot::parse(&table.to_tsv(), 27).is_err());
    }

    /// The headline identity: a frozen snapshot parsed from a live
    /// router's export decides bit-identically to that router, on every
    /// scope, including catch-all fallbacks. Softmax agents are pure
    /// argmax once frozen, so the live side is deterministic.
    #[test]
    fn snapshot_matches_live_router_on_every_scope() {
        let topology = [
            (AccelInstanceId(0), AccelKindId(0)),
            (AccelInstanceId(1), AccelKindId(0)),
            (AccelInstanceId(2), AccelKindId(1)),
            (AccelInstanceId(3), AccelKindId(2)),
        ];
        let snaps = [
            idle(1024),
            idle(1 << 20),
            busy(1, 4096),
            busy(3, 300 * 1024),
            busy(5, 64 * 1024),
        ];
        let sets = [
            ModeSet::all(),
            ModeSet::only(CoherenceMode::FullCoh),
            ModeSet::from_modes([CoherenceMode::NonCohDma, CoherenceMode::CohDma]),
            ModeSet::from_modes([CoherenceMode::LlcCohDma, CoherenceMode::FullCoh]),
        ];
        for scope in AgentScope::ALL {
            let mut router = AgentBuilder::paper(3, 11)
                .exploration(Softmax::default_schedule(3))
                .scope(scope)
                .build_routed();
            router.bind_topology(&topology);
            // Plant distinct per-agent tables through the namespaced
            // import, then freeze: live decisions are now pure argmax.
            let mut doc = format!("# cohmeleon router tables v1 scope={scope}\n");
            for (i, key) in router.agent_keys().collect::<Vec<_>>().into_iter().enumerate() {
                doc.push_str(&format!("## agent {key}\n"));
                doc.push_str(&synthetic_table(243, i as u64 + 1).to_tsv());
            }
            router.import_tables(&doc).unwrap();
            router.freeze();

            let frozen =
                Arc::new(FrozenSnapshot::parse(&router.export_tables(), 243).unwrap());
            assert_eq!(frozen.scope(), scope);
            let mut policy = FrozenPolicy::table3(Arc::clone(&frozen));
            policy.bind_topology(&topology);

            // Instance 9 is unregistered: per-kind falls back to the
            // global catch-all, per-instance to the zero-table default.
            for instance in [0u16, 1, 2, 3, 9] {
                for snap in &snaps {
                    for set in sets {
                        let live = router.decide(snap, set, AccelInstanceId(instance));
                        let cold = policy.decide(snap, set, AccelInstanceId(instance));
                        assert_eq!(live, cold, "scope {scope} instance {instance}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cardinality must match")]
    fn mismatched_space_is_rejected() {
        let table = synthetic_table(243, 1);
        let snap = Arc::new(FrozenSnapshot::parse(&table.to_tsv(), 243).unwrap());
        let _ = FrozenPolicy::new(snap, crate::space::CoarseSpace);
    }

    #[test]
    fn unregistered_keys_fall_back_to_lowest_available() {
        let doc = "# cohmeleon router tables v1 scope=per-instance\n";
        let snap = FrozenSnapshot::parse(doc, 243).unwrap();
        assert_eq!(snap.num_tables(), 0);
        let set = ModeSet::from_modes([CoherenceMode::LlcCohDma, CoherenceMode::FullCoh]);
        assert_eq!(
            snap.decide(AccelInstanceId(5), None, 0, set),
            Some(CoherenceMode::LlcCohDma)
        );
        assert_eq!(snap.decide(AccelInstanceId(5), None, 0, ModeSet::EMPTY), None);
    }
}
