//! Learning-behaviour integration tests: the RL module interacting with
//! the full simulated system.

use cohmeleon_repro::core::policy::CohmeleonPolicy;
use cohmeleon_repro::core::reward::RewardWeights;
use cohmeleon_repro::core::router::{AgentScope, PolicyRouter};
use cohmeleon_repro::core::{CoherenceMode, State};
use cohmeleon_repro::exp::LearnerSpec;
use cohmeleon_repro::soc::config::soc1;
use cohmeleon_repro::soc::Soc;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_repro::workloads::runner::run_protocol;

#[test]
fn training_populates_the_q_table() {
    let config = soc1();
    // The coverage preset is tuned to visit a diverse state set (wide
    // thread range, all four size classes) — the quick suite populates
    // only 8–14 entries, which says nothing about training breadth.
    let params = GeneratorParams::coverage();
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 3, 7);
    run_protocol(&config, &train, &test, &mut policy, 3, 7);
    let populated = policy.table().populated_entries();
    assert!(
        populated >= 40,
        "coverage training should visit a materially wider (state, action) set; got {populated}"
    );
    assert!(populated <= 972);
}

/// The agent-stack redesign must not move paper results by a single bit:
/// `LearnedPolicy` assembled from all default components reproduces the
/// pre-redesign `CohmeleonPolicy`'s exact structural hash *and* Q-table
/// TSV on the quick suite, built directly, through the paper
/// `LearnerSpec` and through a `Global` router. The constants were
/// captured from the hardwired pre-redesign implementation.
#[test]
fn golden_default_agent_matches_pre_redesign_cohmeleon() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let run = |mut policy: Box<dyn cohmeleon_repro::core::Policy>| {
        let result = run_protocol(&config, &train, &test, policy.as_mut(), 3, 7);
        (result, policy)
    };

    let expected_tsv = "# cohmeleon q-table v1
0	0.3138954143769578	0.2641793208286613	0.06983184272923733	0.5808085349576808
4	0.24740959526471465	0.8355965387997721	0	0.25
85	0	0.35463244977502595	0	0
";

    // The paper-default alias, constructed the classic way.
    let direct = CohmeleonPolicy::new(RewardWeights::paper_default(), 3, 7);
    let (result, direct) = run(Box::new(direct));
    assert_eq!(
        result.structural_hash(),
        0x49cb7da5f2419441,
        "modeled behaviour changed for the default agent (regenerate goldens          only for *intentional* model changes)"
    );
    assert_eq!(direct.export_table().as_deref(), Some(expected_tsv));

    // The same composition named as the paper `LearnerSpec`: identical
    // hash and table.
    let (result_spec, spec_policy) = run(LearnerSpec::paper().build(3, 7));
    assert_eq!(result_spec.structural_hash(), 0x49cb7da5f2419441);
    assert_eq!(spec_policy.name(), "cohmeleon");
    assert_eq!(spec_policy.export_table().as_deref(), Some(expected_tsv));

    // The agent-orchestration refactor must be invisible in the paper's
    // configuration: routing the same agent through a `Global`-scoped
    // `PolicyRouter` (what a scoped `LearnerSpec` builds) reproduces the
    // identical hash — the router forwards every decide/observe bit for
    // bit.
    let routed = PolicyRouter::new(AgentScope::Global, 7, |_, seed| {
        Box::new(CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            3,
            seed,
        ))
    });
    let (result_routed, _) = run(Box::new(routed));
    assert_eq!(
        result_routed.structural_hash(),
        0x49cb7da5f2419441,
        "Global-scoped routing changed modeled behaviour"
    );
}

#[test]
fn per_kind_router_trains_one_agent_per_kind() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let mut router = PolicyRouter::new(AgentScope::PerKind, 7, |_, seed| {
        Box::new(CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            2,
            seed,
        ))
    });
    let result = run_protocol(&config, &train, &test, &mut router, 2, 7);
    assert!(result.total_duration() > 0);
    // The engine bound the SoC topology: one sub-agent per accelerator
    // kind exists (not one per instance, not a single global one).
    let kinds: std::collections::HashSet<_> = config.accels.iter().map(|t| t.spec.kind).collect();
    assert_eq!(router.num_agents(), kinds.len());
    let tables = router.export_tables();
    assert_eq!(
        tables.matches("## agent kind").count(),
        kinds.len(),
        "every per-kind agent serialises its own section:\n{tables}"
    );
}

#[test]
fn frozen_model_is_exploitation_only() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 2, 7);
    run_protocol(&config, &train, &test, &mut policy, 2, 7);
    assert_eq!(policy.epsilon(), 0.0);
    // A frozen model re-evaluated twice behaves identically (no learning
    // drift between runs) on states with distinct Q maxima.
    let before = policy.table().clone();
    let mut soc = Soc::new(config.clone());
    cohmeleon_repro::soc::run_app(&mut soc, &test, &mut policy, 99);
    assert_eq!(&before, policy.table(), "frozen table must not change");
}

#[test]
fn q_values_stay_within_reward_bounds() {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 4, 7);
    run_protocol(&config, &train, &test, &mut policy, 4, 7);
    for (state, action, q) in policy.table().iter() {
        assert!(
            (0.0..=1.0).contains(&q),
            "Q({state}, {action}) = {q} outside [0, 1]"
        );
    }
}

#[test]
fn learned_small_footprint_states_avoid_non_coherent() {
    // After training, states with an L2-sized footprint and an idle system
    // should prefer a cache-based mode: non-coherent DMA pays flushes and
    // full off-chip traffic there (Figure 2's Small column).
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::default(), 1);
    let test = generate_app(&config, &GeneratorParams::default(), 2);
    let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 8, 7);
    run_protocol(&config, &train, &test, &mut policy, 8, 7);

    // The all-idle, small-footprint state (everything at its minimum).
    let idle_small = State::from_index(0);
    let q_non_coh = policy.table().get(idle_small, CoherenceMode::NonCohDma);
    let best_cached = CoherenceMode::ALL[1..]
        .iter()
        .map(|m| policy.table().get(idle_small, *m))
        .fold(f64::MIN, f64::max);
    assert!(
        best_cached >= q_non_coh,
        "cached modes ({best_cached}) should score at least as well as non-coherent ({q_non_coh}) for idle small states"
    );
}
