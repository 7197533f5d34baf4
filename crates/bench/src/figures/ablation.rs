//! Ablation studies of three of the paper's design choices (indexed in
//! the [`figures`](crate::figures) module table):
//!
//! 1. **Coherent-DMA support** — the paper extended ESP's protocol with
//!    coherent DMA ("we extended the protocol to support coherent-DMA by
//!    issuing recalls from the LLC"). How much does Cohmeleon lose on an
//!    unmodified ESP that offers only the other three modes?
//! 2. **Attribution accuracy** — the paper approximates per-accelerator
//!    off-chip accesses proportionally to footprint to stay
//!    accelerator-agnostic. Does an oracle (exact per-invocation counts,
//!    available only in simulation) learn a better policy?
//! 3. **Exploration** — ε₀ = 0.5 versus purely greedy training (ε₀ = 0).

use cohmeleon_core::policy::{CohmeleonPolicy, RestrictedPolicy};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::{
    BlendUpdate, CoherenceMode, EpsilonGreedy, Exploration, LearnedPolicy, ModeSet, StateSpace,
};
use cohmeleon_exp::{CellRecord, Experiment, PolicySpec};
use cohmeleon_soc::config::soc0;
use cohmeleon_soc::{Attribution, EngineOptions};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::scale::Scale;
use crate::table;

/// One ablation arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Arm label.
    pub label: String,
    /// Geometric-mean normalized execution time vs. the full system.
    pub norm_time: f64,
    /// Geometric-mean normalized off-chip accesses vs. the full system.
    pub norm_mem: f64,
}

/// The ablation results (first arm is the full system ≡ 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// All arms.
    pub arms: Vec<Arm>,
}

/// The three ablations on SoC0 as one grid of four custom policy arms:
/// the full system plus three ablated variants. The oracle arm overrides
/// the engine's attribution mode through its [`PolicySpec`] — every arm
/// otherwise runs the exact train/test protocol of the grid.
pub fn experiment(scale: Scale) -> Experiment {
    let config = soc0();
    let iterations = scale.pick(20, 2);
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 6001);
    let test_app = generate_app(&config, &gen_params, 6002);
    let weights = RewardWeights::paper_default();

    fn full_system(
        _: &cohmeleon_soc::SocConfig,
        iters: usize,
        seed: u64,
    ) -> Box<dyn cohmeleon_core::Policy> {
        Box::new(CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            iters,
            seed,
        ))
    }
    Experiment::train_test(config, train_app, test_app)
        .policy(PolicySpec::custom(
            "full system (4 modes, approx attribution, ε₀=0.5)",
            full_system,
        ))
        .policy(PolicySpec::custom(
            "no coherent-DMA support",
            move |_, iters, seed| {
                let inner = CohmeleonPolicy::new(weights, iters, seed);
                Box::new(RestrictedPolicy::new(
                    inner,
                    ModeSet::all().without(CoherenceMode::CohDma),
                ))
            },
        ))
        .policy(
            PolicySpec::custom("oracle off-chip attribution", full_system).with_options(
                EngineOptions {
                    attribution: Attribution::GroundTruth,
                },
            ),
        )
        .policy(PolicySpec::custom(
            "greedy training (ε₀=0)",
            move |_, iters, seed| {
                Box::new(LearnedPolicy::with_components(
                    "cohmeleon",
                    StateSpace::Table3,
                    Exploration::EpsilonGreedy(EpsilonGreedy::new(0.0, iters)),
                    BlendUpdate::paper(iters),
                    weights,
                    iters,
                    seed,
                ))
            },
        ))
        .seed(7)
        .train_iterations(iterations)
}

/// Renders the table from the grid's records, every arm normalized
/// against the full-system cell.
pub fn from_records(records: &[CellRecord]) -> Data {
    let arms = records
        .iter()
        .zip(super::arm_ratios(records))
        .map(|(r, (norm_time, norm_mem))| Arm {
            label: r.policy.clone(),
            norm_time,
            norm_mem,
        })
        .collect();
    Data { arms }
}

/// Prints the ablation table.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .arms
        .iter()
        .map(|a| {
            vec![
                a.label.clone(),
                table::ratio(a.norm_time),
                table::ratio(a.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["configuration", "norm-time", "norm-mem"], &rows)
    );
    println!("(normalized to the full system; >1.00 means the ablated system is worse)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ablation_produces_all_arms() {
        let data = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(data.arms.len(), 4);
        assert_eq!(data.arms[0].norm_time, 1.0);
        for arm in &data.arms {
            assert!(arm.norm_time > 0.0);
            assert!(arm.norm_mem >= 0.0);
        }
    }
}
