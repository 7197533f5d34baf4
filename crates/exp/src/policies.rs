//! The eight-policy suite of the paper's figures.
//!
//! Moved here from `cohmeleon-bench` so the experiment grid can build
//! policies from [`PolicyKind`] values; the bench crate re-exports this
//! module under its old path.

use cohmeleon_core::manual::ManualThresholds;
use cohmeleon_core::policy::{FixedPolicy, ManualPolicy, RandomPolicy};
use cohmeleon_core::{CoherenceMode, Policy};
use cohmeleon_soc::{profile_heterogeneous, SocConfig};

use crate::learner::LearnerSpec;

/// Which policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `fixed-non-coh-dma`.
    FixedNonCoh,
    /// `fixed-llc-coh-dma`.
    FixedLlcCoh,
    /// `fixed-coh-dma`.
    FixedCohDma,
    /// `fixed-full-coh`.
    FixedFullCoh,
    /// `rand`.
    Random,
    /// `fixed-hetero` (requires a profiling sweep on the target SoC).
    FixedHetero,
    /// `manual` (Algorithm 1).
    Manual,
    /// `cohmeleon`.
    Cohmeleon,
}

impl PolicyKind {
    /// All eight, in the paper's legend order.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::FixedNonCoh,
        PolicyKind::FixedLlcCoh,
        PolicyKind::FixedCohDma,
        PolicyKind::FixedFullCoh,
        PolicyKind::Random,
        PolicyKind::FixedHetero,
        PolicyKind::Manual,
        PolicyKind::Cohmeleon,
    ];

    /// The five *fixed* policies the headline numbers compare against.
    pub const FIXED: [PolicyKind; 5] = [
        PolicyKind::FixedNonCoh,
        PolicyKind::FixedLlcCoh,
        PolicyKind::FixedCohDma,
        PolicyKind::FixedFullCoh,
        PolicyKind::FixedHetero,
    ];

    /// The paper-legend display name — identical to the
    /// [`Policy::name`] of the policy [`build_policy`] instantiates.
    ///
    /// Like policy names, these labels are persisted cell-record
    /// coordinates: checkpointed sweeps and the fleet queen verify stored
    /// records against them, so they must stay stable across versions
    /// (see the stability contract on [`Policy::name`]).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::FixedNonCoh => "fixed-non-coh-dma",
            PolicyKind::FixedLlcCoh => "fixed-llc-coh-dma",
            PolicyKind::FixedCohDma => "fixed-coh-dma",
            PolicyKind::FixedFullCoh => "fixed-full-coh",
            PolicyKind::Random => "rand",
            PolicyKind::FixedHetero => "fixed-hetero",
            PolicyKind::Manual => "manual",
            PolicyKind::Cohmeleon => "cohmeleon",
        }
    }
}

/// Instantiates one policy for `config`.
///
/// `train_iterations` parameterises Cohmeleon's decay schedule;
/// `FixedHetero` runs its profiling sweep here (design time).
pub fn build_policy(
    kind: PolicyKind,
    config: &SocConfig,
    train_iterations: usize,
    seed: u64,
) -> Box<dyn Policy> {
    match kind {
        PolicyKind::FixedNonCoh => Box::new(FixedPolicy::new(CoherenceMode::NonCohDma)),
        PolicyKind::FixedLlcCoh => Box::new(FixedPolicy::new(CoherenceMode::LlcCohDma)),
        PolicyKind::FixedCohDma => Box::new(FixedPolicy::new(CoherenceMode::CohDma)),
        PolicyKind::FixedFullCoh => Box::new(FixedPolicy::new(CoherenceMode::FullCoh)),
        PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
        PolicyKind::FixedHetero => Box::new(profile_heterogeneous(
            config,
            &cohmeleon_soc::profiling::DEFAULT_SWEEP_BYTES,
            seed,
        )),
        PolicyKind::Manual => Box::new(ManualPolicy::new(ManualThresholds::for_arch(
            &config.arch_params(),
        ))),
        PolicyKind::Cohmeleon => LearnerSpec::paper().build(train_iterations, seed),
    }
}

/// Builds the full eight-policy suite.
pub fn policy_suite(
    config: &SocConfig,
    train_iterations: usize,
    seed: u64,
) -> Vec<(PolicyKind, Box<dyn Policy>)> {
    PolicyKind::ALL
        .into_iter()
        .map(|k| (k, build_policy(k, config, train_iterations, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohmeleon_soc::config::soc1;

    #[test]
    fn suite_has_eight_distinctly_named_policies() {
        let config = soc1();
        let suite = policy_suite(&config, 2, 3);
        assert_eq!(suite.len(), 8);
        let mut names: Vec<String> = suite.iter().map(|(_, p)| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn fixed_subset_is_five() {
        assert_eq!(PolicyKind::FIXED.len(), 5);
    }

    #[test]
    fn labels_match_policy_names() {
        let config = soc1();
        for kind in PolicyKind::ALL {
            let policy = build_policy(kind, &config, 2, 3);
            assert_eq!(policy.name(), kind.label(), "{kind:?}");
        }
    }
}
