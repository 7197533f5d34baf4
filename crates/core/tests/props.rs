//! Property tests for the Cohmeleon core: state encoding, reward bounds,
//! Q-table dynamics, policy behaviour and the tables parser.

use std::sync::OnceLock;

use cohmeleon_core::manual::{algorithm1_restricted, ManualThresholds};
use cohmeleon_core::policy::{CohmeleonPolicy, Policy};
use cohmeleon_core::qlearn::LearningSchedule;
use cohmeleon_core::reward::{InvocationMeasurement, RewardHistory, RewardWeights};
use cohmeleon_core::router::{AgentScope, PolicyRouter};
use cohmeleon_core::snapshot::{ActiveAccel, ArchParams, SystemSnapshot};
use cohmeleon_core::update::BlendUpdate;
use cohmeleon_core::{
    AccelInstanceId, AccelKindId, CoherenceMode, FrozenSnapshot, ModeSet, PartitionId, QTable,
    State,
};
use proptest::prelude::*;

fn arb_mode() -> impl Strategy<Value = CoherenceMode> {
    (0usize..4).prop_map(CoherenceMode::from_index)
}

fn arb_snapshot() -> impl Strategy<Value = SystemSnapshot> {
    let active = proptest::collection::vec(
        (0u16..32, arb_mode(), 1u64..(8 << 20), 0u16..4),
        0..12,
    );
    (active, 1u64..(16 << 20), 0u16..4).prop_map(|(active, target, tp)| {
        let arch = ArchParams::new(32 * 1024, 256 * 1024, 4);
        let active = active
            .into_iter()
            .enumerate()
            .map(|(i, (_, mode, footprint, p))| ActiveAccel {
                instance: AccelInstanceId(i as u16),
                mode,
                footprint_bytes: footprint,
                partitions: vec![PartitionId(p)],
            })
            .collect();
        SystemSnapshot::new(arch, active, target, vec![PartitionId(tp)])
    })
}

fn arb_measurement() -> impl Strategy<Value = InvocationMeasurement> {
    (1u64..1 << 40, 0u64..1 << 38, 0u64..1 << 36, 0.0f64..1e9, 1u64..1 << 30).prop_map(
        |(total, active, comm, mem, fp)| InvocationMeasurement {
            total_cycles: total,
            accel_active_cycles: active.min(total),
            accel_comm_cycles: comm.min(active.min(total)),
            offchip_accesses: mem,
            footprint_bytes: fp,
        },
    )
}

/// A fresh per-kind router of paper agents.
fn per_kind_router() -> PolicyRouter {
    PolicyRouter::new(AgentScope::PerKind, 5, |_, seed| {
        Box::new(CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(2),
            seed,
        ))
    })
}

/// A trained per-kind router's exported tables (sections `global`,
/// `kind0`, `kind1`): the valid document the parser properties truncate
/// and mutate.
fn per_kind_document() -> &'static str {
    static DOCUMENT: OnceLock<String> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let mut router = per_kind_router();
        router.bind_topology(&[
            (AccelInstanceId(0), AccelKindId(0)),
            (AccelInstanceId(1), AccelKindId(1)),
            (AccelInstanceId(2), AccelKindId(1)),
        ]);
        let arch = ArchParams::new(32 * 1024, 256 * 1024, 2);
        // Instance 3 is unregistered: it trains the global catch-all.
        for i in 0..32u16 {
            let accel = AccelInstanceId(i % 4);
            let footprint = 1024 << (i % 10);
            let snapshot = SystemSnapshot::new(arch, vec![], footprint, vec![PartitionId(0)]);
            let d = router.decide(&snapshot, ModeSet::all(), accel);
            let measurement = InvocationMeasurement {
                total_cycles: 10_000 + 977 * u64::from(i),
                accel_active_cycles: 5_000,
                accel_comm_cycles: 2_500,
                offchip_accesses: 100.0,
                footprint_bytes: footprint,
            };
            router.observe(accel, &d, &measurement);
        }
        router.export_tables()
    })
}

/// Feeds `text` to both tables parsers and reports which accepted it.
/// Either may reject it; neither may panic.
fn parse_both(text: &str) -> (bool, bool) {
    let frozen = FrozenSnapshot::parse(text, State::COUNT).is_ok();
    let mut router = per_kind_router();
    (frozen, router.import_tables(text).is_ok())
}

#[test]
fn tables_parsers_survive_every_truncation() {
    let document = per_kind_document();
    assert!(document.contains("## agent global\n"), "{document}");
    assert!(document.contains("## agent kind1\n"), "{document}");
    assert_eq!(parse_both(document), (true, true));
    let bytes = document.as_bytes();
    for end in 0..bytes.len() {
        parse_both(&String::from_utf8_lossy(&bytes[..end]));
    }
}

proptest! {
    /// Every snapshot discretizes to a valid state, and the state index is
    /// a bijection on its range.
    #[test]
    fn snapshot_discretization_is_total(snapshot in arb_snapshot()) {
        let state = State::from_snapshot(&snapshot);
        let idx = state.index();
        prop_assert!(idx < State::COUNT);
        prop_assert_eq!(State::from_index(idx), state);
    }

    /// Reward components are always within [0, 1] for any measurement
    /// sequence, and so is the combined reward for any valid weighting.
    #[test]
    fn rewards_are_bounded(
        measurements in proptest::collection::vec(arb_measurement(), 1..40),
        (x, y, z) in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
    ) {
        prop_assume!(x + y + z > 0.0);
        let weights = RewardWeights::new(x, y, z).expect("validated above");
        let mut history = RewardHistory::new();
        for m in &measurements {
            let c = history.record(AccelInstanceId(0), m);
            for v in [c.r_exec, c.r_comm, c.r_mem] {
                prop_assert!((0.0..=1.0).contains(&v), "component {v}");
            }
            let r = weights.combine(c);
            prop_assert!((0.0..=1.0).contains(&r), "reward {r}");
        }
    }

    /// Q-values remain within the reward bounds under arbitrary blend
    /// updates.
    #[test]
    fn q_updates_stay_bounded(updates in proptest::collection::vec((0usize..243, 0usize..4, 0.0f64..1.0), 1..300)) {
        let mut table = QTable::new();
        let rule = BlendUpdate::paper(10);
        for (s, a, r) in updates {
            rule.apply(&mut table, s, a, r);
        }
        for (_, _, q) in table.iter() {
            prop_assert!((0.0..=1.0).contains(&q));
        }
    }

    /// ε-greedy selection always returns an available mode.
    #[test]
    fn choices_respect_availability(
        mask in 1u8..16,
        snapshots in proptest::collection::vec(arb_snapshot(), 1..50),
        seed in any::<u64>(),
    ) {
        let available = ModeSet::from_bits(mask);
        prop_assume!(!available.is_empty());
        let mut policy = CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(10),
            seed,
        );
        for snapshot in &snapshots {
            let d = policy.decide(snapshot, available, AccelInstanceId(0));
            prop_assert!(available.contains(d.mode));
        }
    }

    /// Algorithm 1 always returns an available mode and is deterministic.
    #[test]
    fn manual_is_total_and_deterministic(snapshot in arb_snapshot(), mask in 1u8..16) {
        let available = ModeSet::from_bits(mask);
        prop_assume!(!available.is_empty());
        let thresholds = ManualThresholds::for_arch(&snapshot.arch);
        let a = algorithm1_restricted(&snapshot, &thresholds, available);
        let b = algorithm1_restricted(&snapshot, &thresholds, available);
        prop_assert_eq!(a, b);
        prop_assert!(available.contains(a));
    }

    /// The full Cohmeleon policy round trip (decide + observe) never
    /// produces an unavailable mode or an out-of-range Q value.
    #[test]
    fn cohmeleon_roundtrip_is_sane(
        snapshots in proptest::collection::vec(arb_snapshot(), 1..30),
        measurements in proptest::collection::vec(arb_measurement(), 1..30),
    ) {
        let mut policy = CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(5),
            9,
        );
        for (snapshot, m) in snapshots.iter().zip(&measurements) {
            let d = policy.decide(snapshot, ModeSet::all(), AccelInstanceId(1));
            prop_assert!(ModeSet::all().contains(d.mode));
            policy.observe(AccelInstanceId(1), &d, m);
        }
        for (_, _, q) in policy.table().iter() {
            prop_assert!((0.0..=1.0).contains(&q));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, bare or after a valid document's header and first
    /// section line, never panic either tables parser.
    #[test]
    fn tables_parsers_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let tail = String::from_utf8_lossy(&bytes);
        parse_both(&tail);
        let head: String = per_kind_document().lines().take(2).map(|l| format!("{l}\n")).collect();
        parse_both(&format!("{head}{tail}"));
    }

    /// Single-byte mutations of a valid document never panic either
    /// tables parser.
    #[test]
    fn tables_parsers_survive_single_byte_mutations(at in any::<u64>(), byte in any::<u8>()) {
        let mut bytes = per_kind_document().as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = byte;
        parse_both(&String::from_utf8_lossy(&bytes));
    }
}
