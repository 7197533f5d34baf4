//! Property tests for the Cohmeleon core: state encoding, reward bounds,
//! Q-table dynamics, policy behaviour and the tables parser.

use std::sync::OnceLock;

use cohmeleon_core::manual::{algorithm1_restricted, ManualThresholds};
use cohmeleon_core::policy::{CohmeleonPolicy, Policy};
use cohmeleon_core::reward::{InvocationMeasurement, RewardHistory, RewardWeights};
use cohmeleon_core::router::{AgentScope, PolicyRouter};
use cohmeleon_core::snapshot::{ActiveAccel, ArchParams, SystemSnapshot};
use cohmeleon_core::update::BlendUpdate;
use cohmeleon_core::{
    AccelInstanceId, AccelKindId, CoherenceMode, FrozenSnapshot, ModeSet, PartitionId, QTable,
    State,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 64;
/// Cases per tables-parser property.
const PARSER_CASES: u64 = 512;

fn arb_snapshot(rng: &mut SmallRng) -> SystemSnapshot {
    let arch = ArchParams::new(32 * 1024, 256 * 1024, 4);
    let active = (0..rng.gen_range(0..12))
        .map(|i| ActiveAccel {
            instance: AccelInstanceId(i),
            mode: CoherenceMode::from_index(rng.gen_range(0..4)),
            footprint_bytes: rng.gen_range(1..(8 << 20)),
            partitions: vec![PartitionId(rng.gen_range(0..4))],
        })
        .collect();
    let target = rng.gen_range(1..(16 << 20));
    SystemSnapshot::new(arch, active, target, vec![PartitionId(rng.gen_range(0..4))])
}

fn arb_snapshots(rng: &mut SmallRng, max: usize) -> Vec<SystemSnapshot> {
    (0..rng.gen_range(1..max))
        .map(|_| arb_snapshot(rng))
        .collect()
}

fn arb_measurements(rng: &mut SmallRng, max: usize) -> Vec<InvocationMeasurement> {
    (0..rng.gen_range(1..max))
        .map(|_| {
            let total = rng.gen_range(1..1 << 40);
            let active = rng.gen_range(0..1u64 << 38).min(total);
            InvocationMeasurement {
                total_cycles: total,
                accel_active_cycles: active,
                accel_comm_cycles: rng.gen_range(0..1u64 << 36).min(active),
                offchip_accesses: rng.gen_range(0.0..1e9),
                footprint_bytes: rng.gen_range(1..1 << 30),
            }
        })
        .collect()
}

/// A non-empty availability mask: 1..16 leaves at least one of the four
/// mode bits set.
fn arb_available(rng: &mut SmallRng) -> ModeSet {
    ModeSet::from_bits(rng.gen_range(1..16))
}

/// A fresh per-kind router of paper agents.
fn per_kind_router() -> PolicyRouter {
    PolicyRouter::new(AgentScope::PerKind, 5, |_, seed| {
        Box::new(CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            2,
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

/// Every snapshot discretizes to a valid state, and the state index is
/// a bijection on its range.
#[test]
fn snapshot_discretization_is_total() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let state = State::from_snapshot(&arb_snapshot(&mut rng));
        let idx = state.index();
        assert!(idx < State::COUNT, "case {case}: index {idx}");
        assert_eq!(State::from_index(idx), state, "case {case}");
    }
}

/// Reward components are always within [0, 1] for any measurement
/// sequence, and so is the combined reward for any valid weighting.
#[test]
fn rewards_are_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let measurements = arb_measurements(&mut rng, 40);
        // A weighting in [0, 10)³; no seed in 0..CASES draws the all-zero
        // one, so every draw is valid and `RewardWeights::new` must take it.
        let [x, y, z] = std::array::from_fn(|_| rng.gen_range(0.0..10.0));
        let weights = RewardWeights::new(x, y, z)
            .unwrap_or_else(|e| panic!("case {case}: ({x}, {y}, {z}) rejected: {e:?}"));
        let mut history = RewardHistory::new();
        for m in &measurements {
            let c = history.record(AccelInstanceId(0), m);
            for v in [c.r_exec, c.r_comm, c.r_mem] {
                assert!((0.0..=1.0).contains(&v), "case {case}: component {v}");
            }
            let r = weights.combine(c);
            assert!((0.0..=1.0).contains(&r), "case {case}: reward {r}");
        }
    }
}

/// Q-values remain within the reward bounds under arbitrary blend
/// updates.
#[test]
fn q_updates_stay_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut table = QTable::new();
        let rule = BlendUpdate::paper(10);
        for _ in 0..rng.gen_range(1..300usize) {
            let (s, a) = (rng.gen_range(0..243), rng.gen_range(0..4));
            rule.apply(&mut table, s, a, rng.gen_range(0.0..1.0));
        }
        for (s, a, q) in table.iter() {
            assert!((0.0..=1.0).contains(&q), "case {case}: Q({s}, {a}) = {q}");
        }
    }
}

/// ε-greedy selection always returns an available mode.
#[test]
fn choices_respect_availability() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let available = arb_available(&mut rng);
        let snapshots = arb_snapshots(&mut rng, 50);
        let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, rng.gen());
        for snapshot in &snapshots {
            let d = policy.decide(snapshot, available, AccelInstanceId(0));
            assert!(available.contains(d.mode), "case {case}: {:?}", d.mode);
        }
    }
}

/// Algorithm 1 always returns an available mode and is deterministic.
#[test]
fn manual_is_total_and_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let snapshot = arb_snapshot(&mut rng);
        let available = arb_available(&mut rng);
        let thresholds = ManualThresholds::for_arch(&snapshot.arch);
        let a = algorithm1_restricted(&snapshot, &thresholds, available);
        let b = algorithm1_restricted(&snapshot, &thresholds, available);
        assert_eq!(a, b, "case {case}");
        assert!(available.contains(a), "case {case}: {a:?}");
    }
}

/// The full Cohmeleon policy round trip (decide + observe) never
/// produces an unavailable mode or an out-of-range Q value.
#[test]
fn cohmeleon_roundtrip_is_sane() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let snapshots = arb_snapshots(&mut rng, 30);
        let measurements = arb_measurements(&mut rng, 30);
        let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 5, 9);
        for (snapshot, m) in snapshots.iter().zip(&measurements) {
            let d = policy.decide(snapshot, ModeSet::all(), AccelInstanceId(1));
            assert!(ModeSet::all().contains(d.mode), "case {case}");
            policy.observe(AccelInstanceId(1), &d, m);
        }
        for (s, a, q) in policy.table().iter() {
            assert!((0.0..=1.0).contains(&q), "case {case}: Q({s}, {a}) = {q}");
        }
    }
}

/// Arbitrary bytes, bare or after a valid document's header and first
/// section line, never panic either tables parser.
#[test]
fn tables_parsers_survive_arbitrary_bytes() {
    let head: String = per_kind_document()
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .collect();
    for case in 0..PARSER_CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut bytes = vec![0u8; rng.gen_range(0..512)];
        rng.fill_bytes(&mut bytes);
        let tail = String::from_utf8_lossy(&bytes);
        parse_both(&tail);
        parse_both(&format!("{head}{tail}"));
    }
}

/// Single-byte mutations of a valid document never panic either
/// tables parser.
#[test]
fn tables_parsers_survive_single_byte_mutations() {
    for case in 0..PARSER_CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut bytes = per_kind_document().as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen_range(0..=u8::MAX);
        parse_both(&String::from_utf8_lossy(&bytes));
    }
}
