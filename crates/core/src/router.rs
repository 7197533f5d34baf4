//! Agent orchestration: routing decisions through scoped agents.
//!
//! Cohmeleon's paper trains one global Q-agent for the whole SoC, but the
//! best coherence strategy differs per accelerator (Alsop et al., *A Case
//! for Fine-grain Coherence Specialization in Heterogeneous Systems*).
//! This module breaks the one-agent assumption behind a single seam: a
//! [`PolicyRouter`] owns one or more sub-agents keyed by an
//! [`AgentScope`]:
//!
//! * [`AgentScope::Global`] — one agent for everything (the paper's
//!   configuration; routing through it is bit-identical to using the
//!   agent directly, which the golden structural-hash tests pin).
//! * [`AgentScope::PerKind`] — one agent per accelerator *kind*
//!   (FFT, GEMM, …): instances of a kind share a model.
//! * [`AgentScope::PerInstance`] — one agent per accelerator tile.
//!
//! The router is itself a [`Policy`]: the embedding engine keeps calling
//! `decide`/`observe` per invocation, and the router forwards each call to
//! the sub-agent owning that invocation's [`ScopeKey`]. The instance →
//! kind mapping comes from the engine through [`Policy::bind_topology`]
//! (the SoC elaboration knows it; the policy layer should not).
//!
//! Sub-agents come from a *factory* — any `Fn(ScopeKey, u64) -> Box<dyn
//! Policy>` — so fixed policies can be routed exactly like learning
//! agents ([`FixedHeterogeneousPolicy`](crate::policy::FixedHeterogeneousPolicy)
//! is rebuilt on this router). The factory must be **pure**: the router
//! probes it once at construction (for the complexity class and default
//! label) and re-invokes it per key, and deterministic sweeps rely on the
//! same `(key, seed)` always producing the same agent. Every sub-agent
//! receives the router's base seed unchanged, so a `PerKind` router with
//! identical sub-agent seeds diverges from a `Global` agent only through
//! state partitioning — each sub-agent sees (and learns from) exactly the
//! subsequence of invocations its key owns.
//!
//! For checkpointing, the router aggregates its sub-agents' Q-table TSVs
//! into one namespaced document ([`PolicyRouter::export_tables`] /
//! [`PolicyRouter::import_tables`]), one `## agent <key>` section per
//! learning sub-agent.
//!
//! Scope routing exists only here. The instance → kind [`Topology`], the
//! dispatch rule [`AgentScope::key`] with its reachability rule
//! [`AgentScope::reaches`], the dense key → slot map and the tables parser
//! serve the live router and the frozen serving path
//! ([`FrozenSnapshot`](crate::frozen::FrozenSnapshot),
//! [`FrozenPolicy`](crate::frozen::FrozenPolicy) and the serve crate's
//! remote policy) alike.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::modes::ModeSet;
use crate::policy::{Decision, Policy, PolicyComplexity};
use crate::reward::InvocationMeasurement;
use crate::snapshot::SystemSnapshot;
use crate::value::QTABLE_HEADER;
use crate::{parse_canonical, AccelInstanceId, AccelKindId};

/// How decisions are partitioned across agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AgentScope {
    /// One agent drives every invocation (the paper's configuration).
    Global,
    /// One agent per accelerator kind; instances of a kind share it.
    PerKind,
    /// One agent per accelerator instance (tile).
    PerInstance,
}

impl AgentScope {
    /// All scopes, coarsest first.
    pub const ALL: [AgentScope; 3] = [
        AgentScope::Global,
        AgentScope::PerKind,
        AgentScope::PerInstance,
    ];

    /// The stable string form (`"global"`, `"per-kind"`,
    /// `"per-instance"`). Like policy names, these labels are persisted
    /// sweep coordinates (they appear inside `LearnerSpec` labels) — never
    /// rename one.
    pub fn label(self) -> &'static str {
        match self {
            AgentScope::Global => "global",
            AgentScope::PerKind => "per-kind",
            AgentScope::PerInstance => "per-instance",
        }
    }

    /// The key owning `instance`'s invocations: the one dispatch rule,
    /// shared by live routing ([`PolicyRouter`]) and frozen serving
    /// ([`FrozenSnapshot`](crate::frozen::FrozenSnapshot)). `kind` is the
    /// instance's registered kind; under `PerKind` an unregistered
    /// instance (`None`) routes to the [`ScopeKey::Global`] catch-all.
    #[inline]
    pub fn key(self, instance: AccelInstanceId, kind: Option<AccelKindId>) -> ScopeKey {
        match self {
            AgentScope::Global => ScopeKey::Global,
            AgentScope::PerKind => kind.map_or(ScopeKey::Global, ScopeKey::Kind),
            AgentScope::PerInstance => ScopeKey::Instance(instance),
        }
    }

    /// Whether [`key`](Self::key) can ever yield `key` under this scope.
    pub fn reaches(self, key: ScopeKey) -> bool {
        match self {
            AgentScope::Global => key == ScopeKey::Global,
            // Global is PerKind's catch-all for unregistered instances.
            AgentScope::PerKind => !matches!(key, ScopeKey::Instance(_)),
            AgentScope::PerInstance => matches!(key, ScopeKey::Instance(_)),
        }
    }
}

impl fmt::Display for AgentScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An [`AgentScope`] string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAgentScopeError(String);

impl fmt::Display for ParseAgentScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid agent scope: {}", self.0)
    }
}

impl std::error::Error for ParseAgentScopeError {}

impl FromStr for AgentScope {
    type Err = ParseAgentScopeError;

    fn from_str(s: &str) -> Result<AgentScope, ParseAgentScopeError> {
        match s {
            "global" => Ok(AgentScope::Global),
            "per-kind" => Ok(AgentScope::PerKind),
            "per-instance" => Ok(AgentScope::PerInstance),
            other => Err(ParseAgentScopeError(other.to_owned())),
        }
    }
}

/// The identity of one sub-agent within a router: which slice of the
/// invocation stream it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScopeKey {
    /// The catch-all agent (sole agent under [`AgentScope::Global`]; the
    /// fallback for instances whose kind was never registered under
    /// [`AgentScope::PerKind`]).
    Global,
    /// The agent owning one accelerator kind.
    Kind(AccelKindId),
    /// The agent owning one accelerator instance.
    Instance(AccelInstanceId),
}

impl fmt::Display for ScopeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeKey::Global => f.write_str("global"),
            ScopeKey::Kind(k) => write!(f, "{k}"),
            ScopeKey::Instance(i) => write!(f, "{i}"),
        }
    }
}

impl FromStr for ScopeKey {
    type Err = String;

    fn from_str(s: &str) -> Result<ScopeKey, String> {
        if s == "global" {
            return Ok(ScopeKey::Global);
        }
        let key = if let Some(rest) = s.strip_prefix("kind") {
            parse_canonical(rest).map(|n| ScopeKey::Kind(AccelKindId(n)))
        } else if let Some(rest) = s.strip_prefix("acc") {
            parse_canonical(rest).map(|n| ScopeKey::Instance(AccelInstanceId(n)))
        } else {
            None
        };
        key.ok_or_else(|| format!("invalid scope key `{s}`"))
    }
}

/// The instance → kind table a policy learns through
/// [`Policy::bind_topology`]. Instance ids are small per-SoC ordinals, so
/// the table is dense (index = instance id, `None` = unregistered) and a
/// lookup is one array load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    kind_of: Vec<Option<AccelKindId>>,
}

impl Topology {
    /// Records that `instance` is of `kind`. Idempotent.
    pub fn register(&mut self, instance: AccelInstanceId, kind: AccelKindId) {
        let i = instance.0 as usize;
        if i >= self.kind_of.len() {
            self.kind_of.resize(i + 1, None);
        }
        self.kind_of[i] = Some(kind);
    }

    /// Records every pair of a [`Policy::bind_topology`] call.
    pub fn bind(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        for &(instance, kind) in topology {
            self.register(instance, kind);
        }
    }

    /// The registered kind of `instance`, `None` if unregistered.
    #[inline]
    pub fn kind_of(&self, instance: AccelInstanceId) -> Option<AccelKindId> {
        self.kind_of.get(instance.0 as usize).copied().flatten()
    }

    /// The registered pairs, sorted by instance id.
    pub fn pairs(&self) -> impl Iterator<Item = (AccelInstanceId, AccelKindId)> + '_ {
        self.kind_of
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| kind.map(|k| (AccelInstanceId(i as u16), k)))
    }
}

/// Slot sentinel: no entry for that key.
const NO_SLOT: u32 = u32::MAX;

/// Entries keyed by [`ScopeKey`], kept in key order, plus the dense
/// key → slot tables that make a lookup O(1) indexed loads: the one slot
/// map behind live ([`PolicyRouter`]) and frozen
/// ([`FrozenSnapshot`](crate::frozen::FrozenSnapshot)) dispatch. The
/// tables are rebuilt when a new key is inserted (registration and import
/// time), never on lookup.
#[derive(Clone)]
pub(crate) struct ScopeMap<T> {
    entries: Vec<(ScopeKey, T)>,
    global: u32,
    kind: Vec<u32>,
    instance: Vec<u32>,
}

impl<T> ScopeMap<T> {
    /// A map over `entries`, which must have distinct keys.
    pub(crate) fn new(mut entries: Vec<(ScopeKey, T)>) -> ScopeMap<T> {
        entries.sort_by_key(|(key, _)| *key);
        let mut map = ScopeMap {
            entries,
            global: NO_SLOT,
            kind: Vec::new(),
            instance: Vec::new(),
        };
        map.index_slots();
        map
    }

    fn index_slots(&mut self) {
        self.global = NO_SLOT;
        self.kind.clear();
        self.instance.clear();
        for (slot, (key, _)) in self.entries.iter().enumerate() {
            let (table, i) = match *key {
                ScopeKey::Global => {
                    self.global = slot as u32;
                    continue;
                }
                ScopeKey::Kind(k) => (&mut self.kind, k.0 as usize),
                ScopeKey::Instance(a) => (&mut self.instance, a.0 as usize),
            };
            if i >= table.len() {
                table.resize(i + 1, NO_SLOT);
            }
            table[i] = slot as u32;
        }
    }

    /// The slot of `key`'s entry, if it has one.
    #[inline]
    pub(crate) fn slot(&self, key: ScopeKey) -> Option<usize> {
        let slot = match key {
            ScopeKey::Global => self.global,
            ScopeKey::Kind(k) => self.kind.get(k.0 as usize).copied().unwrap_or(NO_SLOT),
            ScopeKey::Instance(a) => self.instance.get(a.0 as usize).copied().unwrap_or(NO_SLOT),
        };
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// `key`'s entry, if it has one.
    #[inline]
    pub(crate) fn get(&self, key: ScopeKey) -> Option<&T> {
        self.slot(key).map(|slot| &self.entries[slot].1)
    }

    /// The entry at `slot` (from [`slot`](Self::slot) or
    /// [`insert`](Self::insert)).
    #[inline]
    pub(crate) fn at_mut(&mut self, slot: usize) -> &mut T {
        &mut self.entries[slot].1
    }

    /// Installs `value` under `key`, replacing any existing entry; returns
    /// its slot.
    pub(crate) fn insert(&mut self, key: ScopeKey, value: T) -> usize {
        match self.entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(slot) => {
                self.entries[slot].1 = value;
                slot
            }
            Err(slot) => {
                self.entries.insert(slot, (key, value));
                self.index_slots();
                slot
            }
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries, in [`ScopeKey`] order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ScopeKey, &T)> + '_ {
        self.entries.iter().map(|(key, value)| (*key, value))
    }

    /// The keys, in [`ScopeKey`] order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = ScopeKey> + '_ {
        self.entries.iter().map(|(key, _)| *key)
    }

    /// Mutable access to every value.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.entries.iter_mut().map(|(_, value)| value)
    }
}

/// The first line of a router-tables document, before ` scope=<scope>`.
const TABLES_HEADER: &str = "# cohmeleon router tables v1";

/// A persisted decision artifact, as split by [`parse_tables`].
pub(crate) enum Tables {
    /// A bare Q-table: one global agent's TSV rows (header excluded).
    Bare(String),
    /// A router-tables document: the exporting router's scope and one
    /// `(key, body)` per `## agent` section, in document order.
    Routed {
        scope: AgentScope,
        sections: Vec<(ScopeKey, String)>,
    },
}

/// The one parser for [`PolicyRouter::export_tables`] documents (and the
/// bare Q-table form a single global agent exports).
///
/// Leading blank lines and `#` comments before the header are skipped, so
/// snapshot files may carry provenance comments. A router-tables header
/// must name its `scope=`; the section keys must be distinct and
/// [reachable](AgentScope::reaches) under that scope, and nothing but
/// blank lines may precede the first section.
///
/// # Errors
///
/// Returns a message for non-comment content before the header, a missing
/// header or scope, content before the first section, or an unparsable,
/// duplicated or unreachable section key. Section bodies are returned
/// unparsed.
pub(crate) fn parse_tables(text: &str) -> Result<Tables, String> {
    let mut lines = text.lines();
    let header = loop {
        let Some(line) = lines.next() else {
            return Err("no q-table or router-tables header found".to_owned());
        };
        let trimmed = line.trim();
        if trimmed.starts_with(TABLES_HEADER) || trimmed.starts_with(QTABLE_HEADER) {
            break trimmed;
        }
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            return Err(format!("content before the tables header: `{line}`"));
        }
    };
    let Some(rest) = header.strip_prefix(TABLES_HEADER) else {
        return Ok(Tables::Bare(lines.map(|l| format!("{l}\n")).collect()));
    };
    let Some(scope) = rest.trim().strip_prefix("scope=") else {
        return Err(format!("router-tables header without scope: `{header}`"));
    };
    let scope: AgentScope = scope.trim().parse().map_err(|e| format!("{e}"))?;
    let mut sections: Vec<(ScopeKey, String)> = Vec::new();
    for line in lines {
        if let Some(key) = line.strip_prefix("## agent ") {
            let key: ScopeKey = key.trim().parse()?;
            // Sections *replace* agent state: a duplicate would make the
            // last one silently win, and an unreachable key would install
            // a "ghost" agent no decision ever consults.
            if sections.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate section for agent {key}"));
            }
            if !scope.reaches(key) {
                return Err(format!(
                    "section for agent {key} is unreachable under {scope} routing"
                ));
            }
            sections.push((key, String::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push_str(line);
            body.push('\n');
        } else if !line.trim().is_empty() {
            return Err(format!("content before the first agent section: `{line}`"));
        }
    }
    Ok(Tables::Routed { scope, sections })
}

/// Builds one sub-agent for a [`ScopeKey`] with the given seed. Must be a
/// pure function of its arguments (see the module docs).
pub type AgentFactory = Arc<dyn Fn(ScopeKey, u64) -> Box<dyn Policy> + Send + Sync>;

/// Routes `decide`/`observe` to one of several sub-agents selected by the
/// invocation's accelerator instance or kind.
///
/// See the [module docs](self) for the orchestration model. Lifecycle
/// calls ([`Policy::begin_iteration`], [`Policy::freeze`]) broadcast to
/// every sub-agent, and the router remembers them so agents created later
/// (an instance first invoked mid-training) join at the current schedule
/// position.
pub struct PolicyRouter {
    label: String,
    scope: AgentScope,
    seed: u64,
    factory: AgentFactory,
    topology: Topology,
    /// Sub-agents in [`ScopeKey`] order (the order `export_tables`
    /// serialises in).
    agents: ScopeMap<Box<dyn Policy>>,
    complexity: PolicyComplexity,
    current_iteration: Option<usize>,
    frozen: bool,
}

impl PolicyRouter {
    /// Creates a router over `factory`-built agents.
    ///
    /// The factory is probed once with [`ScopeKey::Global`] to capture the
    /// agents' [`PolicyComplexity`] and a default display label
    /// (`"<scope>(<agent name>)"`); under [`AgentScope::Global`] the probe
    /// *is* the single agent, so construction cost is identical to
    /// building the agent directly.
    pub fn new(
        scope: AgentScope,
        seed: u64,
        factory: impl Fn(ScopeKey, u64) -> Box<dyn Policy> + Send + Sync + 'static,
    ) -> PolicyRouter {
        let factory: AgentFactory = Arc::new(factory);
        let probe = factory(ScopeKey::Global, seed);
        let complexity = probe.complexity();
        let label = format!("{scope}({})", probe.name());
        let mut agents = Vec::new();
        if scope == AgentScope::Global {
            agents.push((ScopeKey::Global, probe));
        }
        PolicyRouter {
            label,
            scope,
            seed,
            factory,
            topology: Topology::default(),
            agents: ScopeMap::new(agents),
            complexity,
            current_iteration: None,
            frozen: false,
        }
    }

    /// Overrides the display label (see the stability contract on
    /// [`Policy::name`] — labels are persisted sweep coordinates).
    pub fn with_label(mut self, label: impl Into<String>) -> PolicyRouter {
        self.label = label.into();
        self
    }

    /// The routing scope.
    pub fn scope(&self) -> AgentScope {
        self.scope
    }

    /// The base seed handed to every sub-agent.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers one instance → kind association (the engine calls this
    /// for the whole SoC through [`Policy::bind_topology`]). Under
    /// `PerKind`/`PerInstance` the owning agent is created eagerly, so a
    /// bound router exports a section per agent even before the first
    /// invocation. Idempotent.
    pub fn register(&mut self, instance: AccelInstanceId, kind: AccelKindId) {
        self.topology.register(instance, kind);
        self.ensure_agent(self.scope.key(instance, Some(kind)));
    }

    /// The instance → kind pairs registered so far (construction +
    /// every [`bind_topology`](Policy::bind_topology)), sorted by
    /// instance id — everything needed to rebuild an equivalent router.
    pub fn topology(&self) -> Vec<(AccelInstanceId, AccelKindId)> {
        self.topology.pairs().collect()
    }

    /// Number of sub-agents currently materialised.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// The materialised sub-agent keys, in [`ScopeKey`] order.
    pub fn agent_keys(&self) -> impl Iterator<Item = ScopeKey> + '_ {
        self.agents.keys()
    }

    /// Read access to one sub-agent.
    pub fn agent(&self, key: ScopeKey) -> Option<&dyn Policy> {
        self.agents
            .get(key)
            .map(|agent| agent.as_ref() as &dyn Policy)
    }

    /// The key owning an instance's invocations under this scope.
    /// An instance with no registered kind routes to [`ScopeKey::Global`]
    /// under `PerKind` (the catch-all agent).
    #[inline]
    pub fn key_for(&self, instance: AccelInstanceId) -> ScopeKey {
        self.scope.key(instance, self.topology.kind_of(instance))
    }

    /// A fresh agent for `key`, caught up to the broadcast lifecycle state
    /// (current iteration, frozen).
    fn fresh_agent(&self, key: ScopeKey) -> Box<dyn Policy> {
        let mut agent = (self.factory)(key, self.seed);
        if let Some(iteration) = self.current_iteration {
            agent.begin_iteration(iteration);
        }
        if self.frozen {
            agent.freeze();
        }
        agent
    }

    /// The slot of `key`'s agent, creating the agent if it is missing. In
    /// steady state (every agent exists) this is the O(1) slot lookup.
    #[inline]
    fn ensure_agent(&mut self, key: ScopeKey) -> usize {
        match self.agents.slot(key) {
            Some(slot) => slot,
            None => {
                let agent = self.fresh_agent(key);
                self.agents.insert(key, agent)
            }
        }
    }

    /// The agent owning `accel`'s invocations, created on first use.
    #[inline]
    fn agent_for(&mut self, accel: AccelInstanceId) -> &mut Box<dyn Policy> {
        let slot = self.ensure_agent(self.key_for(accel));
        self.agents.at_mut(slot)
    }

    /// Serialises every learning sub-agent's value table into one
    /// namespaced document:
    ///
    /// ```text
    /// # cohmeleon router tables v1 scope=per-kind
    /// ## agent kind0
    /// # cohmeleon q-table v1
    /// 0\t0.5\t0\t0\t0
    /// ## agent kind1
    /// ...
    /// ```
    ///
    /// Sub-agents without a table (fixed policies report
    /// [`Policy::export_table`] `None`) are skipped. Section order follows
    /// [`ScopeKey`] order, so identical router states serialise to
    /// identical bytes.
    pub fn export_tables(&self) -> String {
        let mut out = format!("{TABLES_HEADER} scope={}\n", self.scope);
        for (key, agent) in self.agents.iter() {
            if let Some(tsv) = agent.export_table() {
                out.push_str(&format!("## agent {key}\n"));
                out.push_str(&tsv);
            }
        }
        out
    }

    /// Restores sub-agent tables from [`export_tables`](Self::export_tables)
    /// text, which may be preceded by provenance comments (a `sweep
    /// freeze` snapshot file imports as is). Each section *replaces* its
    /// key's agent (fresh from the factory, lifecycle caught up, table
    /// restored); agents without a section are untouched. The import is
    /// atomic: on any error the router's state is exactly what it was
    /// before the call.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing header or scope, a scope mismatch,
    /// an unparsable, duplicated or unreachable section key, or a section
    /// body the owning agent rejects.
    pub fn import_tables(&mut self, text: &str) -> Result<(), String> {
        let Tables::Routed { scope, sections } = parse_tables(text)? else {
            return Err("expected a router-tables document, got a bare q-table".to_owned());
        };
        if scope != self.scope {
            return Err(format!(
                "scope mismatch: tables were exported from a {scope} router, this one is {}",
                self.scope
            ));
        }
        // Build every replacement agent before touching the live map: an
        // error anywhere leaves the router exactly as it was, never in a
        // mixed old/new state. A section replaces its agent wholesale —
        // table restored, transient state (reward history, RNG position,
        // visit counts) fresh, as after a process restart.
        let mut replacements: Vec<(ScopeKey, Box<dyn Policy>)> = Vec::new();
        for (key, body) in sections {
            let mut agent = self.fresh_agent(key);
            agent
                .import_table(&body)
                .map_err(|e| format!("agent {key}: {e}"))?;
            replacements.push((key, agent));
        }
        for (key, agent) in replacements {
            self.agents.insert(key, agent);
        }
        Ok(())
    }
}

impl fmt::Debug for PolicyRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRouter")
            .field("label", &self.label)
            .field("scope", &self.scope)
            .field("seed", &self.seed)
            .field("agents", &self.agent_keys().collect::<Vec<_>>())
            .field("frozen", &self.frozen)
            .finish_non_exhaustive()
    }
}

impl Policy for PolicyRouter {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        self.agent_for(accel).decide(snapshot, available, accel)
    }

    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        self.agent_for(accel).observe(accel, decision, measurement);
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.current_iteration = Some(iteration);
        for agent in self.agents.values_mut() {
            agent.begin_iteration(iteration);
        }
    }

    fn freeze(&mut self) {
        self.frozen = true;
        for agent in self.agents.values_mut() {
            agent.freeze();
        }
    }

    fn complexity(&self) -> PolicyComplexity {
        self.complexity
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        for &(instance, kind) in topology {
            self.register(instance, kind);
        }
    }

    fn export_table(&self) -> Option<String> {
        Some(self.export_tables())
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        self.import_tables(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::CoherenceMode;
    use crate::policy::FixedPolicy;
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

    #[test]
    fn scope_labels_round_trip() {
        for scope in AgentScope::ALL {
            assert_eq!(scope.label().parse::<AgentScope>().unwrap(), scope);
        }
        assert!("per-socket".parse::<AgentScope>().is_err());
    }

    #[test]
    fn scope_keys_round_trip() {
        for key in [
            ScopeKey::Global,
            ScopeKey::Kind(AccelKindId(3)),
            ScopeKey::Instance(AccelInstanceId(11)),
        ] {
            assert_eq!(key.to_string().parse::<ScopeKey>().unwrap(), key);
        }
        assert!("tile7".parse::<ScopeKey>().is_err());
        assert!("kindx".parse::<ScopeKey>().is_err());
    }

    #[test]
    fn global_router_has_one_agent_from_construction() {
        let router = PolicyRouter::new(AgentScope::Global, 0, |_, _| {
            Box::new(FixedPolicy::new(CoherenceMode::CohDma))
        });
        assert_eq!(router.num_agents(), 1);
        assert_eq!(router.name(), "global(fixed-coh-dma)");
        assert_eq!(router.complexity(), PolicyComplexity::Simple);
    }

    #[test]
    fn per_kind_routing_follows_the_bound_topology() {
        let mut router = PolicyRouter::new(AgentScope::PerKind, 0, |key, _| {
            let mode = match key {
                ScopeKey::Kind(AccelKindId(0)) => CoherenceMode::NonCohDma,
                ScopeKey::Kind(_) => CoherenceMode::FullCoh,
                _ => CoherenceMode::LlcCohDma,
            };
            Box::new(FixedPolicy::new(mode))
        });
        router.bind_topology(&[
            (AccelInstanceId(0), AccelKindId(0)),
            (AccelInstanceId(1), AccelKindId(0)),
            (AccelInstanceId(2), AccelKindId(1)),
        ]);
        assert_eq!(router.num_agents(), 2);
        let d = |r: &mut PolicyRouter, i: u16| {
            r.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(i))
                .mode
        };
        assert_eq!(d(&mut router, 0), CoherenceMode::NonCohDma);
        assert_eq!(d(&mut router, 1), CoherenceMode::NonCohDma);
        assert_eq!(d(&mut router, 2), CoherenceMode::FullCoh);
        // Unregistered instances fall back to the catch-all agent.
        assert_eq!(d(&mut router, 9), CoherenceMode::LlcCohDma);
        assert_eq!(router.num_agents(), 3);
    }

    #[test]
    fn per_instance_creates_one_agent_per_tile() {
        let mut router = PolicyRouter::new(AgentScope::PerInstance, 0, |_, _| {
            Box::new(FixedPolicy::new(CoherenceMode::CohDma))
        });
        for i in 0..4 {
            router.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(i));
        }
        assert_eq!(router.num_agents(), 4);
        let keys: Vec<ScopeKey> = router.agent_keys().collect();
        assert_eq!(keys[0], ScopeKey::Instance(AccelInstanceId(0)));
    }

    #[test]
    fn import_rejects_foreign_documents() {
        let mut router = PolicyRouter::new(AgentScope::PerKind, 0, |_, _| {
            Box::new(FixedPolicy::new(CoherenceMode::CohDma))
        });
        assert!(router.import_tables("# cohmeleon q-table v1\n").is_err());
        assert!(router
            .import_tables("# cohmeleon router tables v1 scope=per-instance\n")
            .is_err());
        assert!(router
            .import_tables("# cohmeleon router tables v1 scope=per-kind\nstray line\n")
            .is_err());
        assert!(router
            .import_tables("# cohmeleon router tables v1 scope=per-kind\n## agent bogus9\n")
            .is_err());
        // A per-kind router can never route to an instance-keyed agent:
        // installing it would silently succeed while never being used.
        assert!(router
            .import_tables("# cohmeleon router tables v1 scope=per-kind\n## agent acc3\n")
            .is_err());
        // A header must name the scope it was exported under.
        assert!(router
            .import_tables("# cohmeleon router tables v1\n")
            .is_err());
        // Provenance comments before the header (a `sweep freeze` file)
        // are skipped, not foreign.
        assert!(router
            .import_tables(
                "# snapshot v1 grid=scoped seed=1\n\n# cohmeleon router tables v1 scope=per-kind\n"
            )
            .is_ok());
    }
}
