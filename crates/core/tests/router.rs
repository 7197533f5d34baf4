//! Scoped-agent orchestration: the `PolicyRouter` against the properties
//! the refactor promises.
//!
//! * A `Global` router is a transparent wrapper: decision streams are
//!   bit-identical to the bare agent (the engine-level golden pin lives
//!   in `tests/learning.rs`).
//! * A `PerKind`/`PerInstance` router with identical sub-agent seeds
//!   diverges from `Global` *only through state partitioning*: each
//!   sub-agent's stream equals a fresh global agent fed exactly its key's
//!   invocation subsequence.
//! * Namespaced table export/import round-trips for every scope.

use cohmeleon_core::policy::{CohmeleonPolicy, Policy};
use cohmeleon_core::reward::{InvocationMeasurement, RewardWeights};
use cohmeleon_core::router::{AgentScope, PolicyRouter, ScopeKey};
use cohmeleon_core::snapshot::{ArchParams, SystemSnapshot};
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, ModeSet, PartitionId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// A deterministic synthetic invocation: which instance runs, with what
/// footprint, and how long it "took" (the measurement fed back).
#[derive(Debug, Clone, Copy)]
struct Invocation {
    instance: u16,
    footprint: u64,
    total_cycles: u64,
}

const TOPOLOGY: [(u16, u16); 5] = [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)];

fn topology() -> Vec<(AccelInstanceId, AccelKindId)> {
    TOPOLOGY
        .iter()
        .map(|&(i, k)| (AccelInstanceId(i), AccelKindId(k)))
        .collect()
}

fn paper_agent(iterations: usize, seed: u64) -> CohmeleonPolicy {
    CohmeleonPolicy::new(RewardWeights::paper_default(), iterations, seed)
}

/// Drives `policy` through `sequence` (3 training iterations split evenly,
/// then frozen evaluation) and returns every decided mode in order.
fn drive(
    policy: &mut dyn Policy,
    sequence: &[Invocation],
    iterations: usize,
) -> Vec<CoherenceMode> {
    policy.bind_topology(&topology());
    let mut modes = Vec::with_capacity(sequence.len() * (iterations + 1));
    for i in 0..iterations {
        policy.begin_iteration(i);
        for inv in sequence {
            let d = policy.decide(
                &snapshot(inv.footprint),
                ModeSet::all(),
                AccelInstanceId(inv.instance),
            );
            modes.push(d.mode);
            policy.observe(
                AccelInstanceId(inv.instance),
                &d,
                &measurement(inv.total_cycles),
            );
        }
    }
    policy.freeze();
    for inv in sequence {
        let d = policy.decide(
            &snapshot(inv.footprint),
            ModeSet::all(),
            AccelInstanceId(inv.instance),
        );
        modes.push(d.mode);
    }
    modes
}

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 24;

/// Up to `max - 1` invocations over the five instances, with the
/// router seed.
fn arb_sequence(rng: &mut SmallRng, max: usize) -> (Vec<Invocation>, u64) {
    let sequence = (0..rng.gen_range(1..max))
        .map(|_| Invocation {
            instance: rng.gen_range(0..5),
            footprint: rng.gen_range(1..(1 << 22)),
            total_cycles: rng.gen_range(1_000..100_000),
        })
        .collect();
    (sequence, rng.gen_range(0..1_000))
}

/// A `Global` router is invisible: identical decision stream to the
/// bare agent it wraps, invocation for invocation.
#[test]
fn global_router_is_bit_identical_to_the_bare_agent() {
    for case in 0..CASES {
        let (sequence, seed) = arb_sequence(&mut SmallRng::seed_from_u64(case), 40);
        let mut bare = paper_agent(3, seed);
        let mut routed = PolicyRouter::new(AgentScope::Global, seed, move |_, s| {
            Box::new(paper_agent(3, s))
        });
        let expected = drive(&mut bare, &sequence, 3);
        let actual = drive(&mut routed, &sequence, 3);
        assert_eq!(expected, actual, "case {case}");
    }
}

/// Checks that `routed_modes`, the stream of a router over `sequence`,
/// agrees for every key with a fresh global agent fed exactly that
/// key's invocation subsequence. `key_of` maps an instance to its key.
fn assert_partitioned(
    case: u64,
    sequence: &[Invocation],
    seed: u64,
    routed_modes: &[CoherenceMode],
    keys: std::ops::Range<u16>,
    key_of: impl Fn(u16) -> u16,
) {
    for key in keys {
        // The positions this key's decisions occupy in the full stream
        // (3 training passes + 1 frozen evaluation pass).
        let mut positions = Vec::new();
        for pass in 0..4 {
            for (j, inv) in sequence.iter().enumerate() {
                if key_of(inv.instance) == key {
                    positions.push(pass * sequence.len() + j);
                }
            }
        }
        let subsequence: Vec<Invocation> = sequence
            .iter()
            .copied()
            .filter(|inv| key_of(inv.instance) == key)
            .collect();
        if subsequence.is_empty() {
            continue;
        }
        let solo_modes = drive(&mut paper_agent(3, seed), &subsequence, 3);
        assert_eq!(solo_modes.len(), positions.len(), "case {case}: key {key}");
        for (solo_mode, pos) in solo_modes.iter().zip(&positions) {
            assert_eq!(
                *solo_mode, routed_modes[*pos],
                "case {case}: key {key} position {pos}"
            );
        }
    }
}

/// `PerKind` with identical sub-agent seeds diverges from `Global`
/// only through state partitioning: for every kind, a fresh global
/// agent fed exactly that kind's invocation subsequence reproduces
/// the router's decisions for those invocations.
#[test]
fn per_kind_partitions_the_stream_and_nothing_else() {
    for case in 0..CASES {
        let (sequence, seed) = arb_sequence(&mut SmallRng::seed_from_u64(case), 40);
        let mut routed = PolicyRouter::new(AgentScope::PerKind, seed, move |_, s| {
            Box::new(paper_agent(3, s))
        });
        let routed_modes = drive(&mut routed, &sequence, 3);
        let kind_of = |instance: u16| TOPOLOGY.iter().find(|&&(i, _)| i == instance).unwrap().1;
        assert_partitioned(case, &sequence, seed, &routed_modes, 0..3, kind_of);
    }
}

/// The same partitioning property at instance granularity.
#[test]
fn per_instance_partitions_the_stream_and_nothing_else() {
    for case in 0..CASES {
        let (sequence, seed) = arb_sequence(&mut SmallRng::seed_from_u64(case), 30);
        let mut routed = PolicyRouter::new(AgentScope::PerInstance, seed, move |_, s| {
            Box::new(paper_agent(3, s))
        });
        let routed_modes = drive(&mut routed, &sequence, 3);
        assert_partitioned(case, &sequence, seed, &routed_modes, 0..5, |i| i);
    }
}

/// Trains a router a little so its tables are non-trivial.
fn trained_router(scope: AgentScope, seed: u64) -> PolicyRouter {
    let mut router = PolicyRouter::new(scope, seed, move |_, s| Box::new(paper_agent(4, s)));
    let sequence: Vec<Invocation> = (0..24)
        .map(|i| Invocation {
            instance: (i % 5) as u16,
            footprint: 1 << (10 + (i % 12)),
            total_cycles: 1_000 + 4_000 * (i % 7) as u64,
        })
        .collect();
    drive(&mut router, &sequence, 4);
    router
}

#[test]
fn namespaced_export_import_round_trips_per_scope() {
    for scope in AgentScope::ALL {
        let router = trained_router(scope, 11);
        let exported = router.export_tables();
        assert!(
            exported.starts_with(&format!("# cohmeleon router tables v1 scope={scope}")),
            "{scope}: {exported}"
        );
        // A fresh, untrained router of the same shape imports the
        // document and re-exports it byte-identically.
        let mut restored = PolicyRouter::new(scope, 11, move |_, s| Box::new(paper_agent(4, s)));
        restored.bind_topology(&topology());
        restored
            .import_tables(&exported)
            .unwrap_or_else(|e| panic!("{scope}: {e}"));
        assert_eq!(restored.export_tables(), exported, "{scope}");

        // And the restored tables drive identical frozen decisions.
        let mut original = trained_router(scope, 11);
        original.freeze();
        restored.freeze();
        for i in 0..5u16 {
            for fp in [1u64 << 10, 1 << 16, 1 << 22] {
                let a = original.decide(&snapshot(fp), ModeSet::all(), AccelInstanceId(i));
                let b = restored.decide(&snapshot(fp), ModeSet::all(), AccelInstanceId(i));
                assert_eq!(a.mode, b.mode, "{scope} acc{i} fp={fp}");
            }
        }
    }
}

#[test]
fn import_replaces_warm_state_instead_of_overlaying() {
    // A router that has meanwhile learned something else must come out
    // of an import holding exactly the imported tables — the TSV only
    // carries populated rows, so this fails if import merely overlays.
    let source = trained_router(AgentScope::PerKind, 11);
    let exported = source.export_tables();
    let mut warm = trained_router(AgentScope::PerKind, 99); // different training
    assert_ne!(
        warm.export_tables(),
        exported,
        "training with another seed differs"
    );
    warm.import_tables(&exported).unwrap();
    assert_eq!(warm.export_tables(), exported);
}

#[test]
fn failed_imports_leave_warm_state_untouched() {
    // Agent level: a corrupt TSV must not wipe a trained table.
    let mut agent = paper_agent(4, 11);
    let snap = snapshot(1024);
    for _ in 0..20 {
        let d = agent.decide(&snap, ModeSet::all(), AccelInstanceId(0));
        agent.observe(AccelInstanceId(0), &d, &measurement(5_000));
    }
    let before = agent.export_table().unwrap();
    assert!(before.lines().count() > 1, "agent learned something");
    let err = agent.import_table("# cohmeleon q-table v1\n0\tnot-a-number\t0\t0\t0\n");
    assert!(err.is_err());
    assert_eq!(
        agent.export_table().unwrap(),
        before,
        "failed import mutated the table"
    );

    // Router level: a document whose *second* section is corrupt must
    // not leave the first section applied (mixed old/new state).
    let mut warm = trained_router(AgentScope::PerKind, 11);
    let before = warm.export_tables();
    let corrupt = "# cohmeleon router tables v1 scope=per-kind\n\
                   ## agent kind0\n# cohmeleon q-table v1\n0\t0.5\t0\t0\t0\n\
                   ## agent kind1\n# cohmeleon q-table v1\n0\tbad\t0\t0\t0\n";
    assert!(warm.import_tables(corrupt).is_err());
    assert_eq!(
        warm.export_tables(),
        before,
        "failed import mutated the router"
    );
}

#[test]
fn import_rejects_duplicate_agent_sections() {
    let source = trained_router(AgentScope::PerKind, 11);
    let exported = source.export_tables();
    let first_section = exported.find("## agent ").unwrap();
    let second_section =
        exported[first_section + 1..].find("## agent ").unwrap() + first_section + 1;
    // Duplicate the first agent's section at the end of the document.
    let duplicated = format!("{exported}{}", &exported[first_section..second_section]);
    let mut fresh = PolicyRouter::new(AgentScope::PerKind, 11, |_, s| Box::new(paper_agent(4, s)));
    let err = fresh.import_tables(&duplicated).unwrap_err();
    assert!(err.contains("duplicate"), "{err}");
}

#[test]
fn export_names_one_section_per_agent() {
    let router = trained_router(AgentScope::PerKind, 3);
    let exported = router.export_tables();
    for key in ["## agent kind0", "## agent kind1", "## agent kind2"] {
        assert!(exported.contains(key), "missing `{key}` in:\n{exported}");
    }
    let router = trained_router(AgentScope::PerInstance, 3);
    let exported = router.export_tables();
    assert_eq!(exported.matches("## agent acc").count(), 5);

    let router = trained_router(AgentScope::Global, 3);
    let exported = router.export_tables();
    assert_eq!(exported.matches("## agent ").count(), 1);
    assert!(exported.contains("## agent global"));
}

#[test]
fn router_table_roundtrips_through_the_policy_trait() {
    // The router's aggregate document flows through the same
    // export_table/import_table seam as a bare agent's TSV, so
    // checkpointing code need not know which it holds.
    let router = trained_router(AgentScope::PerKind, 7);
    let boxed: Box<dyn Policy> = Box::new(trained_router(AgentScope::PerKind, 7));
    let exported = boxed.export_table().expect("router exports");
    assert_eq!(exported, router.export_tables());

    let mut fresh: Box<dyn Policy> =
        Box::new(PolicyRouter::new(AgentScope::PerKind, 7, move |_, s| {
            Box::new(paper_agent(4, s))
        }));
    fresh.import_table(&exported).expect("import");
    assert_eq!(fresh.export_table().unwrap(), exported);
}

#[test]
fn builder_scope_builds_routers() {
    let router = |scope| PolicyRouter::new(scope, 2, |_, s| Box::new(paper_agent(5, s)));
    let mut per_instance = router(AgentScope::PerInstance);
    assert_eq!(per_instance.scope(), AgentScope::PerInstance);
    // Per-instance agents appear as the topology binds, one per tile.
    assert_eq!(per_instance.num_agents(), 0);
    per_instance.bind_topology(&topology());
    assert_eq!(per_instance.num_agents(), 5);
    assert_eq!(
        per_instance.agent_keys().next(),
        Some(ScopeKey::Instance(AccelInstanceId(0)))
    );
    // A Global router wraps exactly one agent from the start.
    let global = router(AgentScope::Global);
    assert_eq!(global.scope(), AgentScope::Global);
    assert_eq!(global.num_agents(), 1);
}

#[test]
fn late_agents_join_at_the_current_schedule_position() {
    // An instance first invoked at iteration 2 gets an agent whose decay
    // schedules sit at iteration 2 — identical to an agent that idled
    // through iterations 0 and 1.
    let seed = 17;
    let mut router = PolicyRouter::new(AgentScope::PerInstance, seed, move |_, s| {
        Box::new(paper_agent(6, s))
    });
    router.begin_iteration(0);
    router.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(0));
    router.begin_iteration(1);
    router.begin_iteration(2);
    let late = router.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(1));

    let mut reference = paper_agent(6, seed);
    reference.begin_iteration(0);
    reference.begin_iteration(1);
    reference.begin_iteration(2);
    let expected = reference.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(1));
    assert_eq!(late.mode, expected.mode);

    // Agents created after freeze() are frozen on arrival.
    router.freeze();
    let d = router.decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(4));
    let mut frozen_ref = paper_agent(6, seed);
    frozen_ref.freeze();
    assert_eq!(
        d.mode,
        frozen_ref
            .decide(&snapshot(1024), ModeSet::all(), AccelInstanceId(4))
            .mode
    );
}
