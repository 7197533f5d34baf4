//! Frozen decision tables: the serving-side counterpart of the
//! [`router`](crate::router) module.
//!
//! A trained policy's persisted artifact is a Q-table TSV or a namespaced
//! router-tables document: one Q-table per agent, and no exploration or
//! reward state. [`FrozenSnapshot`] parses it once into one [`QTable`] per
//! agent key and is never written again, so reader threads share it
//! behind an `Arc` with no interior mutability.
//!
//! Semantics are pinned to the live stack:
//!
//! * A decision is the owning table's [`QTable::best_index`] (strict `>`,
//!   ties to the lowest mode index). Frozen [`Softmax`] and [`Ucb1`]
//!   agents decide the same way. The paper's frozen [`EpsilonGreedy`]
//!   agent does not: it breaks exact and near ties at random, so on an
//!   untrained all-zero row it picks like the Random policy where a
//!   snapshot picks the lowest available mode. It is also charged
//!   [`Learned`](PolicyComplexity::Learned) decision overhead where
//!   [`FrozenPolicy`] is charged [`Heuristic`](PolicyComplexity::Heuristic).
//!   This module's tests pin both differences.
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
//!
//! [`Softmax`]: crate::explore::Softmax
//! [`Ucb1`]: crate::explore::Ucb1
//! [`EpsilonGreedy`]: crate::explore::EpsilonGreedy

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

/// An immutable decision store: every agent table of one persisted
/// artifact, keyed through the router's slot map.
///
/// Construction does all the work; after [`parse`](Self::parse) the
/// structure is never written again, so it is freely shareable across
/// threads (`Arc<FrozenSnapshot>`) with no synchronisation on reads.
#[derive(Clone)]
pub struct FrozenSnapshot {
    scope: AgentScope,
    states: usize,
    tables: ScopeMap<QTable>,
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
                Ok((key, table))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FrozenSnapshot {
            scope,
            states,
            tables: ScopeMap::new(tables),
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

    /// Resolves one decision: the owning table's [`QTable::best_index`],
    /// or the lowest-index available mode where no table exists for the
    /// key (the fresh zero-table agent's argmax). `kind` is the instance's
    /// registered accelerator kind, `None` if unregistered (per-kind
    /// routing then falls back to the global catch-all).
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
            Some(table) => table.best_index(state, available),
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
    space: StateSpace,
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
    pub fn new(snapshot: Arc<FrozenSnapshot>, space: StateSpace) -> FrozenPolicy {
        assert_eq!(
            space.cardinality(),
            snapshot.states(),
            "state space cardinality must match the snapshot's state count"
        );
        FrozenPolicy {
            snapshot,
            space,
            topology: Topology::default(),
        }
    }
}

impl fmt::Debug for FrozenPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenPolicy")
            .field("snapshot", &self.snapshot)
            .field("space", &self.space)
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
        let kind = self.topology.kind_of(accel);
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
    use crate::agent::{CohmeleonPolicy, LearnedPolicy};
    use crate::explore::{EpsilonGreedy, Exploration, Softmax};
    use crate::reward::RewardWeights;
    use crate::router::PolicyRouter;
    use crate::snapshot::{ActiveAccel, ArchParams};
    use crate::update::BlendUpdate;
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

    /// A deterministic synthetic table: the four values of every row are
    /// distinct (no row has a tie), and argmaxes differ across states and
    /// masks.
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
        assert!(
            FrozenSnapshot::parse("# cohmeleon router tables v1 scope=global\nstray\n", 243)
                .is_err()
        );
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
    /// scope. The synthetic tables have no tied row, so frozen Softmax
    /// agents and the paper's frozen ε-greedy agents are both pure argmax
    /// on them. The overhead class still differs: the live agents are
    /// charged `Learned`, the snapshot `Heuristic`.
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
        // Instance 9 is unregistered: per-kind falls back to the global
        // catch-all, per-instance to the zero-table default. Those agents
        // hold no synthetic table, so every row of theirs ties, and only
        // the Softmax agents decide them like the snapshot (the ε-greedy
        // side is pinned by the next test).
        let cases = [
            (
                Exploration::Softmax(Softmax::default_schedule(3)),
                &[0u16, 1, 2, 3, 9][..],
            ),
            (
                Exploration::EpsilonGreedy(EpsilonGreedy::paper(3)),
                &[0u16, 1, 2, 3][..],
            ),
        ];
        for (explore, instances) in cases {
            for scope in AgentScope::ALL {
                let explore = explore.clone();
                let mut router = PolicyRouter::new(scope, 11, move |_, seed| {
                    Box::new(LearnedPolicy::with_components(
                        "agent",
                        StateSpace::Table3,
                        explore.clone(),
                        BlendUpdate::paper(3),
                        RewardWeights::paper_default(),
                        3,
                        seed,
                    ))
                });
                router.bind_topology(&topology);
                // Plant distinct per-agent tables through the namespaced
                // import, then freeze: live decisions are now pure argmax.
                let mut doc = format!("# cohmeleon router tables v1 scope={scope}\n");
                for (i, key) in router
                    .agent_keys()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .enumerate()
                {
                    doc.push_str(&format!("## agent {key}\n"));
                    doc.push_str(&synthetic_table(243, i as u64 + 1).to_tsv());
                }
                router.import_tables(&doc).unwrap();
                router.freeze();

                let frozen = Arc::new(FrozenSnapshot::parse(&router.export_tables(), 243).unwrap());
                assert_eq!(frozen.scope(), scope);
                let mut policy = FrozenPolicy::new(Arc::clone(&frozen), StateSpace::Table3);
                policy.bind_topology(&topology);
                assert_eq!(router.complexity(), PolicyComplexity::Learned);
                assert_eq!(policy.complexity(), PolicyComplexity::Heuristic);

                for &instance in instances {
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
    }

    /// Where the two frozen semantics part: on an untrained all-zero row
    /// the paper's frozen ε-greedy agent breaks the four-way tie at
    /// random, while a snapshot of the same agent always answers the
    /// lowest-index mode.
    #[test]
    fn untrained_agent_ties_at_random_but_its_snapshot_does_not() {
        let mut agent = CohmeleonPolicy::new(RewardWeights::paper_default(), 3, 5);
        agent.freeze();
        let snap = busy(2, 64 * 1024);
        let accel = AccelInstanceId(0);
        let picks: Vec<CoherenceMode> = (0..32)
            .map(|_| agent.decide(&snap, ModeSet::all(), accel).mode)
            .collect();
        assert!(
            picks.iter().any(|&mode| mode != picks[0]),
            "frozen ε-greedy should break all-zero ties at random: {picks:?}"
        );

        let text = agent.export_table().unwrap();
        let frozen = Arc::new(FrozenSnapshot::parse(&text, 243).unwrap());
        let mut policy = FrozenPolicy::new(frozen, StateSpace::Table3);
        for _ in 0..32 {
            assert_eq!(
                policy.decide(&snap, ModeSet::all(), accel).mode,
                CoherenceMode::NonCohDma
            );
        }
    }

    #[test]
    #[should_panic(expected = "cardinality must match")]
    fn mismatched_space_is_rejected() {
        let table = synthetic_table(243, 1);
        let snap = Arc::new(FrozenSnapshot::parse(&table.to_tsv(), 243).unwrap());
        let _ = FrozenPolicy::new(snap, StateSpace::Coarse);
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
        assert_eq!(
            snap.decide(AccelInstanceId(5), None, 0, ModeSet::EMPTY),
            None
        );
    }
}
