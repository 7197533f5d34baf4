//! Integration tests of the composable agent stack: the frozen contract
//! across every exploration strategy, and determinism of dyn-composed
//! agents.

use cohmeleon_core::agent::{AgentBuilder, LearnedPolicy};
use cohmeleon_core::explore::{EpsilonGreedy, ExplorationStrategy, Softmax, Ucb1};
use cohmeleon_core::reward::{InvocationMeasurement, RewardWeights};
use cohmeleon_core::snapshot::{ActiveAccel, ArchParams, SystemSnapshot};
use cohmeleon_core::space::{ExtendedSpace, StateSpace};
use cohmeleon_core::update::{BlendUpdate, UpdateRule};
use cohmeleon_core::{AccelInstanceId, CoherenceMode, ModeSet, PartitionId, Policy};

fn snapshot(footprint: u64, active: usize) -> SystemSnapshot {
    let arch = ArchParams::new(32 * 1024, 256 * 1024, 2);
    let actives = (0..active)
        .map(|i| ActiveAccel {
            instance: AccelInstanceId(100 + i as u16),
            mode: CoherenceMode::ALL[i % 4],
            footprint_bytes: 64 * 1024,
            partitions: vec![PartitionId((i % 2) as u16)],
        })
        .collect();
    SystemSnapshot::new(arch, actives, footprint, vec![PartitionId(0)])
}

fn measurement(total: u64, offchip: f64) -> InvocationMeasurement {
    InvocationMeasurement {
        total_cycles: total,
        accel_active_cycles: total / 2,
        accel_comm_cycles: total / 5,
        offchip_accesses: offchip,
        footprint_bytes: 8192,
    }
}

/// Drives a policy through a deterministic pseudo-random decide/observe
/// stream and returns every decision it made.
fn drive<P: Policy>(policy: &mut P, iterations: usize) -> Vec<CoherenceMode> {
    let mut decisions = Vec::new();
    let mut rng = 0x1234_5678_u64;
    for i in 0..iterations {
        policy.begin_iteration(i);
        for _ in 0..40 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let footprint = 1024 << (rng % 12);
            let active = ((rng >> 16) % 5) as usize;
            let snap = snapshot(footprint, active);
            let d = policy.decide(&snap, ModeSet::all(), AccelInstanceId(0));
            decisions.push(d.mode);
            let total = 10_000 + (rng >> 24) % 100_000;
            let offchip = ((rng >> 32) % 1000) as f64;
            policy.observe(AccelInstanceId(0), &d, &measurement(total, offchip));
        }
    }
    policy.freeze();
    decisions
}

/// Frozen agents are pure-greedy for every exploration strategy: identical
/// repeated decisions, no Q-table writes, regardless of the strategy's
/// training-time behaviour.
#[test]
fn frozen_agents_are_greedy_for_every_strategy() {
    fn check<E: ExplorationStrategy + 'static>(explore: E) {
        let label = explore.label();
        let mut agent = AgentBuilder::paper(4, 3).exploration(explore).build();
        drive(&mut agent, 4); // trains, then freezes
        let tsv_before = agent.table().to_tsv();
        let snap = snapshot(4096, 1);
        let first = agent.decide(&snap, ModeSet::all(), AccelInstanceId(0)).mode;
        for _ in 0..50 {
            let d = agent.decide(&snap, ModeSet::all(), AccelInstanceId(0));
            assert_eq!(d.mode, first, "{label}: frozen decisions must not vary");
            agent.observe(AccelInstanceId(0), &d, &measurement(5_000, 10.0));
        }
        assert_eq!(
            agent.table().to_tsv(),
            tsv_before,
            "{label}: frozen agents must not write"
        );
    }
    check(EpsilonGreedy::paper(4));
    check(Softmax::default_schedule(4));
    check(Ucb1::default());
}

/// The whole stack is deterministic under a fixed seed, for dyn-composed
/// agents too.
#[test]
fn dyn_composed_agents_are_deterministic() {
    let make = || {
        LearnedPolicy::with_components(
            "dyn",
            Box::new(ExtendedSpace) as Box<dyn StateSpace>,
            Box::new(Softmax::default_schedule(5)) as Box<dyn ExplorationStrategy>,
            Box::new(BlendUpdate::paper(5)) as Box<dyn UpdateRule>,
            RewardWeights::paper_default(),
            5,
            777,
        )
    };
    let (mut a, mut b) = (make(), make());
    assert_eq!(drive(&mut a, 5), drive(&mut b, 5));
    assert_eq!(a.table().to_tsv(), b.table().to_tsv());
}
