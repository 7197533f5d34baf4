//! The experiment protocol shared by the figure harnesses.
//!
//! The paper's protocol (Section 5, "Experimental Setup"): Cohmeleon learns
//! online while running a randomly-configured instance of the evaluation
//! application; once the model has converged, updates are disabled and the
//! frozen model is evaluated on a *different* instance. Baseline policies
//! skip training. Results are reported per phase, normalized to the fixed
//! non-coherent-DMA policy.

use cohmeleon_core::policy::PolicyComplexity;
use cohmeleon_core::Policy;
use cohmeleon_sim::stats::geometric_mean;
use cohmeleon_soc::{run_app_with_options, AppResult, AppSpec, EngineOptions, Soc, SocConfig};

/// Per-policy outcome of one experiment: every phase normalized against
/// the baseline's same phase, and their geometric means.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Per-phase (execution time, off-chip accesses) normalized to the
    /// baseline's same phase.
    pub normalized_phases: Vec<(f64, f64)>,
    /// Geometric mean of normalized execution time.
    pub geo_time: f64,
    /// Geometric mean of normalized off-chip accesses.
    pub geo_mem: f64,
}

impl PolicyOutcome {
    /// Normalizes a run phase by phase against a baseline run. Each pair
    /// is one phase's `(duration, offchip)`. A zero baseline count
    /// normalizes against 1 to stay finite.
    pub fn from_phases(
        pairs: impl IntoIterator<Item = (u64, u64)>,
        baseline_pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> PolicyOutcome {
        let normalized_phases: Vec<(f64, f64)> = pairs
            .into_iter()
            .zip(baseline_pairs)
            .map(|((duration, offchip), (base_duration, base_offchip))| {
                (
                    duration as f64 / base_duration.max(1) as f64,
                    offchip as f64 / base_offchip.max(1) as f64,
                )
            })
            .collect();
        let geo_time = geometric_mean(normalized_phases.iter().map(|p| p.0)).unwrap_or(1.0);
        let geo_mem = geometric_mean(normalized_phases.iter().map(|p| p.1)).unwrap_or(1.0);
        PolicyOutcome {
            normalized_phases,
            geo_time,
            geo_mem,
        }
    }
}

/// Trains `policy` for `train_iterations` iterations of `train_app` (each
/// on a fresh SoC), freezes it, then evaluates it on `test_app`.
///
/// Policies that do not learn ([`PolicyComplexity::Simple`] /
/// [`PolicyComplexity::Heuristic`]) skip the training loop.
///
/// This is the single-cell primitive of the experiment layer: a sweep over
/// configs × workloads × policies × seeds should go through the
/// `Experiment` builder in `cohmeleon-exp`, which runs one `run_protocol`
/// (or [`evaluate_policy`]) call per grid cell.
pub fn run_protocol(
    config: &SocConfig,
    train_app: &AppSpec,
    test_app: &AppSpec,
    policy: &mut dyn Policy,
    train_iterations: usize,
    seed: u64,
) -> AppResult {
    run_protocol_with_options(
        config,
        train_app,
        test_app,
        policy,
        train_iterations,
        seed,
        EngineOptions::default(),
    )
}

/// [`run_protocol`] with explicit [`EngineOptions`] (used by the
/// attribution ablation, where the oracle arm flips the engine's
/// off-chip-attribution mode).
pub fn run_protocol_with_options(
    config: &SocConfig,
    train_app: &AppSpec,
    test_app: &AppSpec,
    policy: &mut dyn Policy,
    train_iterations: usize,
    seed: u64,
    options: EngineOptions,
) -> AppResult {
    if policy.complexity() == PolicyComplexity::Learned {
        for i in 0..train_iterations {
            policy.begin_iteration(i);
            let mut soc = Soc::new(config.clone());
            run_app_with_options(
                &mut soc,
                train_app,
                policy,
                seed.wrapping_add(i as u64 * 7919),
                options,
            );
        }
        policy.freeze();
    }
    evaluate_policy_with_options(config, test_app, policy, seed ^ 0x5eed_7e57, options)
}

/// Runs `app` once on a fresh SoC under `policy` (no training).
pub fn evaluate_policy(
    config: &SocConfig,
    app: &AppSpec,
    policy: &mut dyn Policy,
    seed: u64,
) -> AppResult {
    evaluate_policy_with_options(config, app, policy, seed, EngineOptions::default())
}

/// [`evaluate_policy`] with explicit [`EngineOptions`].
pub fn evaluate_policy_with_options(
    config: &SocConfig,
    app: &AppSpec,
    policy: &mut dyn Policy,
    seed: u64,
    options: EngineOptions,
) -> AppResult {
    let mut soc = Soc::new(config.clone());
    run_app_with_options(&mut soc, app, policy, seed, options)
}

/// Normalizes a test result against the baseline run
/// ([`PolicyOutcome::from_phases`] over their phases).
pub fn summarize(result: AppResult, baseline: &AppResult) -> PolicyOutcome {
    PolicyOutcome::from_phases(
        result.phases.iter().map(|p| (p.duration, p.offchip)),
        baseline.phases.iter().map(|p| (p.duration, p.offchip)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_app, GeneratorParams};
    use cohmeleon_core::policy::{CohmeleonPolicy, FixedPolicy};
    use cohmeleon_core::reward::RewardWeights;
    use cohmeleon_core::CoherenceMode;
    use cohmeleon_soc::config::soc1;

    #[test]
    fn protocol_trains_and_freezes_cohmeleon() {
        let config = soc1();
        let train = generate_app(&config, &GeneratorParams::quick(), 1);
        let test = generate_app(&config, &GeneratorParams::quick(), 2);
        let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 2, 42);
        let result = run_protocol(&config, &train, &test, &mut policy, 2, 9);
        assert!(policy.epsilon() == 0.0, "frozen after protocol");
        assert!(result.total_duration() > 0);
        assert!(
            policy.table().populated_entries() > 0,
            "training updated the table"
        );
    }

    #[test]
    fn fixed_policies_skip_training() {
        let config = soc1();
        let train = generate_app(&config, &GeneratorParams::quick(), 1);
        let test = generate_app(&config, &GeneratorParams::quick(), 2);
        let mut policy = FixedPolicy::new(CoherenceMode::CohDma);
        // With 1000 "iterations" this would take forever if not skipped.
        let result = run_protocol(&config, &train, &test, &mut policy, 1000, 9);
        assert!(result.total_duration() > 0);
    }

    #[test]
    fn normalization_against_self_is_unity() {
        let config = soc1();
        let app = generate_app(&config, &GeneratorParams::quick(), 3);
        let mut policy = FixedPolicy::new(CoherenceMode::NonCohDma);
        let result = evaluate_policy(&config, &app, &mut policy, 4);
        let outcome = summarize(result.clone(), &result);
        for &(t, m) in &outcome.normalized_phases {
            assert!((t - 1.0).abs() < 1e-12);
            assert!(m <= 1.0 + 1e-12);
        }
        assert!((outcome.geo_time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn different_policies_produce_different_results() {
        let config = soc1();
        let app = generate_app(&config, &GeneratorParams::quick(), 3);
        let mut a = FixedPolicy::new(CoherenceMode::NonCohDma);
        let mut b = FixedPolicy::new(CoherenceMode::CohDma);
        let ra = evaluate_policy(&config, &app, &mut a, 4);
        let rb = evaluate_policy(&config, &app, &mut b, 4);
        assert_ne!(ra.total_duration(), rb.total_duration());
    }
}
