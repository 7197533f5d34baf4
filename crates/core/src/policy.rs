//! Coherence-selection policies: the paper's baselines and Cohmeleon itself.
//!
//! A [`Policy`] is consulted once per accelerator invocation ("decide") and
//! informed of the measured outcome once the invocation completes
//! ("evaluate"). The available implementations mirror Section 4.3:
//!
//! * [`RandomPolicy`] — uniformly random mode per invocation.
//! * [`FixedPolicy`] — one mode for every invocation (the four *fixed
//!   homogeneous* design-time baselines).
//! * [`FixedHeterogeneousPolicy`] — a design-time mode per accelerator
//!   *kind*, chosen by offline profiling (the paper's stand-in for prior
//!   design-time work such as Bhardwaj et al.).
//! * [`ManualPolicy`] — Algorithm 1, the hand-tuned runtime heuristic.
//! * [`CohmeleonPolicy`] — the Q-learning approach (the contribution),
//!   now the paper-default composition of the generic
//!   [`LearnedPolicy`] agent stack.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::manual::{algorithm1_restricted, ManualThresholds};
use crate::modes::{CoherenceMode, ModeSet};
use crate::reward::InvocationMeasurement;
use crate::router::{AgentScope, PolicyRouter, ScopeKey};
use crate::snapshot::SystemSnapshot;
use crate::state::State;
use crate::{AccelInstanceId, AccelKindId};

pub use crate::agent::{CohmeleonPolicy, LearnedPolicy};

/// The outcome of a policy's "decide" phase for one invocation.
///
/// Besides the selected mode it carries the discretized [`State`] the
/// decision was made in, which learning policies need back at
/// [`Policy::observe`] time (multiple invocations may be in flight
/// concurrently, each with its own decision context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The coherence mode to actuate.
    pub mode: CoherenceMode,
    /// The Table-3 state the system was sensed to be in when deciding
    /// (recorded per invocation for diagnostics and figures).
    pub state: State,
    /// The deciding policy's own state encoding — for a
    /// [`LearnedPolicy`] this is the index its
    /// [`StateSpace`](crate::space::StateSpace) produced, which
    /// [`Policy::observe`] needs back to credit the right Q-table
    /// entry. For everything else it equals `state.index()`.
    pub state_index: usize,
}

impl Decision {
    /// A decision whose policy uses the paper's Table-3 encoding (the
    /// `state_index` is `state.index()`).
    pub fn new(mode: CoherenceMode, state: State) -> Decision {
        Decision {
            mode,
            state,
            state_index: state.index(),
        }
    }
}

/// How much software work a policy's decide phase performs — the embedding
/// system charges a corresponding runtime overhead (measured in Section 6,
/// "Cohmeleon Overhead").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyComplexity {
    /// Constant-time decisions (fixed, random): negligible bookkeeping.
    Simple,
    /// Reads the status structures and runs a small decision tree
    /// (the manual algorithm).
    Heuristic,
    /// Full sense + Q-table lookup + reward computation and update
    /// (Cohmeleon).
    Learned,
}

/// A runtime coherence-mode selection policy.
///
/// Implementations must be deterministic given their construction seed, so
/// that whole-system simulations are reproducible.
pub trait Policy: Send {
    /// A short display name (matching the paper's figure legends where
    /// applicable, e.g. `"cohmeleon"`, `"manual"`, `"fixed-non-coh-dma"`).
    ///
    /// **Stability contract.** Names are not just display strings: the
    /// experiment layer records them in every persisted cell record, and
    /// resumable sweeps and fleet queens *verify* a record's stored name
    /// against the rebuilt grid's policy labels before trusting it (a
    /// mismatch means the checkpoint belongs to a different sweep).
    /// Renaming a policy therefore invalidates existing checkpoints and
    /// JSONL artifacts — keep names stable across versions; the concrete
    /// suite names are pinned by `policy_names_are_stable` in this
    /// module's tests.
    fn name(&self) -> String;

    /// Chooses a coherence mode for an invocation of `accel` given the
    /// sensed `snapshot`, restricted to `available` modes.
    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision;

    /// Reports the measured outcome of a completed invocation previously
    /// decided by this policy. Default: ignore (non-learning policies).
    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        let _ = (accel, decision, measurement);
    }

    /// Marks the beginning of evaluation-application iteration `iteration`
    /// (for decay schedules). Default: no-op.
    fn begin_iteration(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// Permanently disables learning/exploration. Default: no-op.
    fn freeze(&mut self) {}

    /// The runtime cost class of this policy's decide phase.
    /// Default: [`PolicyComplexity::Simple`].
    fn complexity(&self) -> PolicyComplexity {
        PolicyComplexity::Simple
    }

    /// Informs the policy of the embedding system's accelerator topology
    /// (every `(instance, kind)` pair), before any invocation runs. The
    /// engine calls this once per application run; implementations must be
    /// idempotent. Default: ignore — only scope-aware policies (the
    /// [`PolicyRouter`]) care.
    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        let _ = topology;
    }

    /// Serialises the policy's learned state (Q-table TSV for a
    /// [`LearnedPolicy`], a namespaced multi-agent document for a
    /// [`PolicyRouter`]). `None` for policies
    /// with nothing to persist (the default).
    fn export_table(&self) -> Option<String> {
        None
    }

    /// Restores state previously produced by
    /// [`export_table`](Self::export_table).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed text, or for policies with no
    /// learned state (the default).
    fn import_table(&mut self, text: &str) -> Result<(), String> {
        let _ = text;
        Err("policy has no learned state to import".to_owned())
    }
}

fn guard_available(available: ModeSet) {
    assert!(
        !available.is_empty(),
        "policy invoked with an empty set of available coherence modes"
    );
}

/// Selects a uniformly random available mode for every invocation.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SmallRng,
}

impl RandomPolicy {
    /// Creates a random policy with its own RNG stream.
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> String {
        "rand".to_owned()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        _accel: AccelInstanceId,
    ) -> Decision {
        guard_available(available);
        let pick = self.rng.gen_range(0..available.len());
        Decision::new(
            available.iter().nth(pick).expect("index in range"),
            State::from_snapshot(snapshot),
        )
    }
}

/// Always selects the same mode (falling back to the lowest-index available
/// mode if the fixed one is unsupported for a given accelerator).
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy {
    mode: CoherenceMode,
}

impl FixedPolicy {
    /// Creates a fixed-homogeneous policy for `mode`.
    pub fn new(mode: CoherenceMode) -> FixedPolicy {
        FixedPolicy { mode }
    }

    /// The four fixed-homogeneous baselines of the paper's figures.
    pub fn all_homogeneous() -> [FixedPolicy; 4] {
        CoherenceMode::ALL.map(FixedPolicy::new)
    }

    /// The mode this policy always chooses.
    pub fn mode(&self) -> CoherenceMode {
        self.mode
    }
}

impl Policy for FixedPolicy {
    fn name(&self) -> String {
        format!("fixed-{}", self.mode.short_name())
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        _accel: AccelInstanceId,
    ) -> Decision {
        guard_available(available);
        let mode = if available.contains(self.mode) {
            self.mode
        } else {
            available.iter().next().expect("non-empty")
        };
        Decision::new(mode, State::from_snapshot(snapshot))
    }
}

/// A design-time mode per accelerator kind, produced by profiling each
/// accelerator in isolation across workload sizes (the *fixed heterogeneous*
/// baseline).
///
/// Per-kind dispatch is not hand-rolled here: the policy is a thin facade
/// over a [`PolicyRouter`] in
/// [`AgentScope::PerKind`] whose
/// sub-agents are [`FixedPolicy`] instances (the profiled mode per kind,
/// `default` for the catch-all agent), so the kind → agent routing logic
/// exists exactly once in the codebase. Decisions are byte-identical to
/// the pre-router implementation: a kind's `FixedPolicy` applies the same
/// availability fallback the hand-rolled lookup did.
pub struct FixedHeterogeneousPolicy {
    /// Shared with the router's factory (which builds one `FixedPolicy`
    /// per kind from it); kept here for [`mode_for_kind`](Self::mode_for_kind)
    /// and for `Clone`. The instance → kind mapping lives in the router
    /// alone (construction pairs plus anything `bind_topology` added).
    assignment: Arc<HashMap<AccelKindId, CoherenceMode>>,
    default: CoherenceMode,
    router: PolicyRouter,
}

impl FixedHeterogeneousPolicy {
    /// Creates the policy from a per-kind mode `assignment` and the mapping
    /// from instances to kinds. Instances of unknown kinds use `default`.
    pub fn new(
        assignment: HashMap<AccelKindId, CoherenceMode>,
        kind_of: HashMap<AccelInstanceId, AccelKindId>,
        default: CoherenceMode,
    ) -> FixedHeterogeneousPolicy {
        let assignment = Arc::new(assignment);
        let factory_assignment = Arc::clone(&assignment);
        let mut router = PolicyRouter::new(AgentScope::PerKind, 0, move |key, _seed| {
            let mode = match key {
                ScopeKey::Kind(kind) => factory_assignment.get(&kind).copied().unwrap_or(default),
                _ => default,
            };
            Box::new(FixedPolicy::new(mode))
        })
        .with_label("fixed-hetero");
        for (instance, kind) in kind_of {
            router.register(instance, kind);
        }
        FixedHeterogeneousPolicy {
            assignment,
            default,
            router,
        }
    }

    /// The profiled mode for a kind, if one was assigned.
    pub fn mode_for_kind(&self, kind: AccelKindId) -> Option<CoherenceMode> {
        self.assignment.get(&kind).copied()
    }
}

impl Clone for FixedHeterogeneousPolicy {
    fn clone(&self) -> FixedHeterogeneousPolicy {
        // Rebuild from the router's *current* registrations (construction
        // pairs plus anything `bind_topology` added since), so a clone
        // routes every known instance exactly like the original; fixed
        // sub-agents hold no learned state, so a rebuild is equivalent.
        FixedHeterogeneousPolicy::new(
            (*self.assignment).clone(),
            self.router.topology().into_iter().collect(),
            self.default,
        )
    }
}

impl fmt::Debug for FixedHeterogeneousPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedHeterogeneousPolicy")
            .field("assignment", &self.assignment)
            .field("default", &self.default)
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}

impl Policy for FixedHeterogeneousPolicy {
    fn name(&self) -> String {
        self.router.name()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        guard_available(available);
        self.router.decide(snapshot, available, accel)
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        // The design-time assignment is authoritative: registering a
        // *new* instance routes it to its kind's profiled mode (or the
        // catch-all default agent), exactly like construction-time pairs.
        self.router.bind_topology(topology);
    }
}

/// Algorithm 1: the introspective, manually-tuned runtime heuristic.
#[derive(Debug, Clone, Copy)]
pub struct ManualPolicy {
    thresholds: ManualThresholds,
}

impl ManualPolicy {
    /// Creates the manual policy with explicit thresholds.
    pub fn new(thresholds: ManualThresholds) -> ManualPolicy {
        ManualPolicy { thresholds }
    }

    /// The thresholds in use.
    pub fn thresholds(&self) -> ManualThresholds {
        self.thresholds
    }
}

impl Policy for ManualPolicy {
    fn name(&self) -> String {
        "manual".to_owned()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        _accel: AccelInstanceId,
    ) -> Decision {
        guard_available(available);
        Decision::new(
            algorithm1_restricted(snapshot, &self.thresholds, available),
            State::from_snapshot(snapshot),
        )
    }

    fn complexity(&self) -> PolicyComplexity {
        PolicyComplexity::Heuristic
    }
}

/// Restricts an inner policy to a subset of coherence modes — the tool for
/// ablating hardware support (e.g. an ESP without the paper's coherent-DMA
/// protocol extension). If the intersection of the restriction and the
/// tile's available modes is empty, the tile's own availability wins.
#[derive(Debug, Clone)]
pub struct RestrictedPolicy<P> {
    inner: P,
    allowed: ModeSet,
}

impl<P: Policy> RestrictedPolicy<P> {
    /// Wraps `inner`, constraining its choices to `allowed`.
    pub fn new(inner: P, allowed: ModeSet) -> RestrictedPolicy<P> {
        assert!(
            !allowed.is_empty(),
            "restriction must allow at least one mode"
        );
        RestrictedPolicy { inner, allowed }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Policy> Policy for RestrictedPolicy<P> {
    fn name(&self) -> String {
        format!("{}[{}]", self.inner.name(), self.allowed)
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        let constrained = available.intersect(self.allowed);
        let effective = if constrained.is_empty() {
            available
        } else {
            constrained
        };
        self.inner.decide(snapshot, effective, accel)
    }

    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        self.inner.observe(accel, decision, measurement);
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.inner.begin_iteration(iteration);
    }

    fn freeze(&mut self) {
        self.inner.freeze();
    }

    fn complexity(&self) -> PolicyComplexity {
        self.inner.complexity()
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        self.inner.bind_topology(topology);
    }

    fn export_table(&self) -> Option<String> {
        self.inner.export_table()
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        self.inner.import_table(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardWeights;
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

    fn measurement(total: u64) -> InvocationMeasurement {
        InvocationMeasurement {
            total_cycles: total,
            accel_active_cycles: total / 2,
            accel_comm_cycles: total / 4,
            offchip_accesses: 100.0,
            footprint_bytes: 4096,
        }
    }

    #[test]
    fn policy_names_match_figure_legends() {
        assert_eq!(RandomPolicy::new(0).name(), "rand");
        assert_eq!(
            FixedPolicy::new(CoherenceMode::NonCohDma).name(),
            "fixed-non-coh-dma"
        );
        assert_eq!(
            FixedPolicy::new(CoherenceMode::FullCoh).name(),
            "fixed-full-coh"
        );
        let manual = ManualPolicy::new(ManualThresholds {
            extra_small_bytes: 4096,
            l2_bytes: 32 * 1024,
            llc_bytes: 512 * 1024,
        });
        assert_eq!(manual.name(), "manual");
        let coh = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, 0);
        assert_eq!(coh.name(), "cohmeleon");
    }

    #[test]
    fn fixed_policy_always_returns_its_mode() {
        let mut p = FixedPolicy::new(CoherenceMode::CohDma);
        for fp in [1024u64, 1 << 20] {
            let d = p.decide(&snapshot(fp), ModeSet::all(), AccelInstanceId(0));
            assert_eq!(d.mode, CoherenceMode::CohDma);
        }
    }

    #[test]
    fn fixed_policy_falls_back_when_unavailable() {
        let mut p = FixedPolicy::new(CoherenceMode::FullCoh);
        let available = ModeSet::all().without(CoherenceMode::FullCoh);
        let d = p.decide(&snapshot(1024), available, AccelInstanceId(0));
        assert!(available.contains(d.mode));
    }

    #[test]
    fn all_homogeneous_covers_the_four_modes() {
        let modes: Vec<_> = FixedPolicy::all_homogeneous()
            .iter()
            .map(|p| p.mode())
            .collect();
        assert_eq!(modes, CoherenceMode::ALL.to_vec());
    }

    #[test]
    fn random_policy_stays_within_available_and_varies() {
        let mut p = RandomPolicy::new(3);
        let available = ModeSet::all().without(CoherenceMode::FullCoh);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let d = p.decide(&snapshot(1024), available, AccelInstanceId(0));
            assert!(available.contains(d.mode));
            seen[d.mode.index()] = true;
        }
        assert!(!seen[CoherenceMode::FullCoh.index()]);
        assert_eq!(seen.iter().filter(|&&s| s).count(), 3);
    }

    #[test]
    fn heterogeneous_policy_uses_kind_assignment() {
        let mut assignment = HashMap::new();
        assignment.insert(AccelKindId(0), CoherenceMode::NonCohDma);
        assignment.insert(AccelKindId(1), CoherenceMode::FullCoh);
        let mut kind_of = HashMap::new();
        kind_of.insert(AccelInstanceId(10), AccelKindId(0));
        kind_of.insert(AccelInstanceId(11), AccelKindId(1));
        let mut p = FixedHeterogeneousPolicy::new(assignment, kind_of, CoherenceMode::LlcCohDma);
        let d0 = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(10));
        assert_eq!(d0.mode, CoherenceMode::NonCohDma);
        let d1 = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(11));
        assert_eq!(d1.mode, CoherenceMode::FullCoh);
        // Unknown instance falls back to the default.
        let d2 = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(99));
        assert_eq!(d2.mode, CoherenceMode::LlcCohDma);
        assert_eq!(
            p.mode_for_kind(AccelKindId(1)),
            Some(CoherenceMode::FullCoh)
        );
    }

    #[test]
    fn heterogeneous_clone_preserves_bound_topology() {
        let mut assignment = HashMap::new();
        assignment.insert(AccelKindId(0), CoherenceMode::FullCoh);
        let mut p =
            FixedHeterogeneousPolicy::new(assignment, HashMap::new(), CoherenceMode::NonCohDma);
        // An instance registered after construction (what the engine's
        // topology binding does) must survive a clone: both route it to
        // its kind's profiled mode, not the catch-all default.
        p.bind_topology(&[(AccelInstanceId(3), AccelKindId(0))]);
        let mut q = p.clone();
        let original = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(3));
        let cloned = q.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(3));
        assert_eq!(original.mode, CoherenceMode::FullCoh);
        assert_eq!(cloned.mode, original.mode);
    }

    #[test]
    fn manual_policy_delegates_to_algorithm1() {
        let mut p = ManualPolicy::new(ManualThresholds {
            extra_small_bytes: 4096,
            l2_bytes: 32 * 1024,
            llc_bytes: 512 * 1024,
        });
        let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.mode, CoherenceMode::FullCoh);
        let d = p.decide(&snapshot(1 << 20), ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.mode, CoherenceMode::NonCohDma);
    }

    #[test]
    fn cohmeleon_learns_from_observations() {
        let mut p = CohmeleonPolicy::new(RewardWeights::paper_default(), 20, 42);
        // Teach it that CohDma is fast and everything else is slow.
        for i in 0..20 {
            p.begin_iteration(i);
            for _ in 0..30 {
                let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
                let total = if d.mode == CoherenceMode::CohDma {
                    1_000
                } else {
                    50_000
                };
                p.observe(AccelInstanceId(0), &d, &measurement(total));
            }
        }
        p.freeze();
        let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.mode, CoherenceMode::CohDma);
    }

    #[test]
    fn frozen_cohmeleon_stops_updating() {
        let mut p = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, 42);
        p.freeze();
        let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
        let before = p.table().clone();
        p.observe(AccelInstanceId(0), &d, &measurement(123));
        assert_eq!(&before, p.table());
    }

    #[test]
    fn decision_state_matches_snapshot_sensing() {
        let mut p = RandomPolicy::new(0);
        let snap = snapshot(300 * 1024);
        let d = p.decide(&snap, ModeSet::all(), AccelInstanceId(0));
        assert_eq!(d.state, State::from_snapshot(&snap));
    }

    #[test]
    fn restricted_policy_constrains_choices() {
        let esp_modes = ModeSet::all().without(CoherenceMode::CohDma);
        let mut p = RestrictedPolicy::new(RandomPolicy::new(3), esp_modes);
        assert!(p.name().contains("rand"));
        for _ in 0..100 {
            let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
            assert_ne!(d.mode, CoherenceMode::CohDma);
        }
        // When the restriction contradicts tile availability, the tile wins.
        let only_coh = ModeSet::only(CoherenceMode::CohDma);
        let d = p.decide(&snapshot(1024), only_coh, AccelInstanceId(0));
        assert_eq!(d.mode, CoherenceMode::CohDma);
    }

    #[test]
    fn restricted_policy_forwards_complexity() {
        let coh = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, 0);
        let p = RestrictedPolicy::new(coh, ModeSet::all());
        assert_eq!(p.complexity(), PolicyComplexity::Learned);
    }

    #[test]
    fn policy_names_are_stable() {
        // These strings are persisted cell-record coordinates: resumable
        // sweeps and fleet queens in `cohmeleon-exp` verify stored
        // records against them, so changing one silently orphans every
        // existing checkpoint and JSONL artifact. See `Policy::name`.
        assert_eq!(
            FixedPolicy::new(CoherenceMode::NonCohDma).name(),
            "fixed-non-coh-dma"
        );
        assert_eq!(
            FixedPolicy::new(CoherenceMode::LlcCohDma).name(),
            "fixed-llc-coh-dma"
        );
        assert_eq!(
            FixedPolicy::new(CoherenceMode::CohDma).name(),
            "fixed-coh-dma"
        );
        assert_eq!(
            FixedPolicy::new(CoherenceMode::FullCoh).name(),
            "fixed-full-coh"
        );
        assert_eq!(RandomPolicy::new(0).name(), "rand");
        let cohmeleon = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, 0);
        assert_eq!(cohmeleon.name(), "cohmeleon");
        // The router rebuild must not move the heterogeneous baseline's
        // name (it appears in every persisted paper-suite record).
        let hetero =
            FixedHeterogeneousPolicy::new(HashMap::new(), HashMap::new(), CoherenceMode::NonCohDma);
        assert_eq!(hetero.name(), "fixed-hetero");
        // A router's default label composes scope and sub-agent name;
        // scoped LearnerSpec labels (the `ql[...]` grid coordinates) are
        // pinned in `cohmeleon-exp`.
        let routed = PolicyRouter::new(AgentScope::PerKind, 0, |_, seed| {
            Box::new(CohmeleonPolicy::new(
                RewardWeights::paper_default(),
                10,
                seed,
            ))
        });
        assert_eq!(routed.name(), "per-kind(cohmeleon)");
    }

    #[test]
    fn policies_are_boxable_trait_objects() {
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(RandomPolicy::new(0)),
            Box::new(FixedPolicy::new(CoherenceMode::NonCohDma)),
            Box::new(CohmeleonPolicy::new(RewardWeights::paper_default(), 10, 0)),
        ];
        for mut p in policies {
            let d = p.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
            assert!(ModeSet::all().contains(d.mode));
        }
    }
}
