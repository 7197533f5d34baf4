//! The randomly-configured evaluation application.
//!
//! The paper trains Cohmeleon on one randomly-configured instance of the
//! evaluation application and tests on a different instance; both contain
//! several hundred accelerator invocations and are "designed to be as
//! diverse as possible in terms of operating conditions" (Section 6,
//! "Training Time"). The generator varies, per phase: the number of
//! threads, workload size classes, chain lengths and loop counts.

use cohmeleon_core::AccelInstanceId;
use cohmeleon_soc::{AppSpec, PhaseSpec, SocConfig, ThreadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sizes::SizeClass;

/// Knobs of the application generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Number of phases.
    pub phases: usize,
    /// Thread-count range per phase (inclusive).
    pub threads: (usize, usize),
    /// Chain-length range per thread (inclusive; capped at the number of
    /// accelerators).
    pub chain_len: (usize, usize),
    /// Loop-count range per thread (inclusive).
    pub loops: (u32, u32),
    /// Size classes to draw from, with repetition acting as weighting.
    pub size_mix: Vec<SizeClass>,
    /// Fraction of threads that read back results, per mille.
    pub check_per_mille: u32,
}

impl Default for GeneratorParams {
    /// A diverse default: eight phases, 2–12 threads, chains of 1–3, 1–3
    /// loops (2–4), sizes weighted toward Small/Medium with Large and Extra-Large
    /// present — several hundred invocations per instance, as in the paper.
    fn default() -> GeneratorParams {
        GeneratorParams {
            phases: 8,
            threads: (2, 12),
            chain_len: (1, 3),
            loops: (2, 4),
            size_mix: vec![
                SizeClass::Small,
                SizeClass::Small,
                SizeClass::Medium,
                SizeClass::Medium,
                SizeClass::Medium,
                SizeClass::Large,
                SizeClass::ExtraLarge,
            ],
            check_per_mille: 500,
        }
    }
}

impl GeneratorParams {
    /// A reduced configuration for fast tests and smoke grids: two
    /// phases, few threads, Small/Medium sizes only.
    pub fn quick() -> GeneratorParams {
        GeneratorParams {
            phases: 2,
            threads: (2, 4),
            chain_len: (1, 2),
            loops: (1, 2),
            size_mix: vec![SizeClass::Small, SizeClass::Medium],
            check_per_mille: 250,
        }
    }

    /// A configuration tuned for *state-space coverage* rather than speed
    /// or realism: [`quick`](Self::quick) visits so few distinct Table-3
    /// states that training populates only 8–14 of the 972 Q-entries,
    /// which makes learning tests and demos unrepresentative.
    ///
    /// Coverage comes from spread, not volume: a wide thread-count range
    /// (1 thread ⇒ near-idle states, 14 ⇒ saturated "2+" buckets), an
    /// even mix over *all four* size classes (each footprint class of
    /// Table 3 appears both as the target's own class and as partition
    /// pressure), and short chains/loops so the extra diversity stays
    /// cheap enough for tests — on SoC1 it populates ~100 of the 972
    /// paper-space Q-entries where `quick` reaches 8–14, while staying
    /// well under [`default`](Self::default)'s cost.
    pub fn coverage() -> GeneratorParams {
        GeneratorParams {
            phases: 8,
            threads: (1, 14),
            chain_len: (1, 3),
            loops: (1, 2),
            size_mix: vec![
                SizeClass::Small,
                SizeClass::Medium,
                SizeClass::Large,
                SizeClass::ExtraLarge,
            ],
            check_per_mille: 500,
        }
    }
}

/// Generates one application instance for `config`. Different seeds yield
/// different instances (the paper's train/test split); the same seed always
/// yields the same instance.
pub fn generate_app(config: &SocConfig, params: &GeneratorParams, seed: u64) -> AppSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_accels = config.accels.len();
    let phases = (0..params.phases)
        .map(|p| {
            let n_threads = rng.gen_range(params.threads.0..=params.threads.1);
            let threads = (0..n_threads)
                .map(|_| generate_thread(config, params, n_accels, &mut rng))
                .collect();
            PhaseSpec {
                name: format!("phase-{p}"),
                threads,
            }
        })
        .collect();
    AppSpec {
        name: format!("eval-{}-seed{seed}", config.name),
        phases,
    }
}

fn generate_thread(
    config: &SocConfig,
    params: &GeneratorParams,
    n_accels: usize,
    rng: &mut SmallRng,
) -> ThreadSpec {
    let class = params.size_mix[rng.gen_range(0..params.size_mix.len())];
    let chain_len = rng
        .gen_range(params.chain_len.0..=params.chain_len.1)
        .clamp(1, n_accels);
    // Chains visit distinct accelerators (the output of one feeds the next).
    let mut pool: Vec<u16> = (0..n_accels as u16).collect();
    let mut chain = Vec::with_capacity(chain_len);
    for _ in 0..chain_len {
        let pick = rng.gen_range(0..pool.len());
        chain.push(AccelInstanceId(pool.swap_remove(pick)));
    }
    ThreadSpec {
        dataset_bytes: class.sample_bytes(config, rng),
        chain,
        loops: rng.gen_range(params.loops.0..=params.loops.1),
        check_output: rng.gen_range(0..1000) < params.check_per_mille,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohmeleon_soc::config::soc1;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = soc1();
        let a = generate_app(&cfg, &GeneratorParams::default(), 5);
        let b = generate_app(&cfg, &GeneratorParams::default(), 5);
        assert_eq!(a, b);
        let c = generate_app(&cfg, &GeneratorParams::default(), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_phase_and_thread_bounds() {
        let cfg = soc1();
        let params = GeneratorParams::default();
        let app = generate_app(&cfg, &params, 1);
        assert_eq!(app.phases.len(), params.phases);
        for phase in &app.phases {
            assert!(phase.threads.len() >= params.threads.0);
            assert!(phase.threads.len() <= params.threads.1);
            for t in &phase.threads {
                assert!(!t.chain.is_empty() && t.chain.len() <= params.chain_len.1);
                assert!(t.loops >= params.loops.0 && t.loops <= params.loops.1);
            }
        }
    }

    #[test]
    fn chains_reference_valid_distinct_accelerators() {
        let cfg = soc1();
        let app = generate_app(&cfg, &GeneratorParams::default(), 2);
        for phase in &app.phases {
            for t in &phase.threads {
                let mut seen = std::collections::HashSet::new();
                for a in &t.chain {
                    assert!((a.0 as usize) < cfg.accels.len());
                    assert!(seen.insert(a.0), "duplicate accelerator in chain");
                }
            }
        }
    }

    #[test]
    fn default_params_produce_hundreds_of_invocations() {
        let cfg = soc1();
        let app = generate_app(&cfg, &GeneratorParams::default(), 3);
        let invocations: usize = app
            .phases
            .iter()
            .flat_map(|p| p.threads.iter())
            .map(|t| t.chain.len() * t.loops as usize)
            .sum();
        assert!(
            invocations >= 50,
            "expected a substantial instance, got {invocations}"
        );
    }

    #[test]
    fn quick_params_stay_small() {
        let cfg = soc1();
        let app = generate_app(&cfg, &GeneratorParams::quick(), 3);
        let invocations: usize = app
            .phases
            .iter()
            .flat_map(|p| p.threads.iter())
            .map(|t| t.chain.len() * t.loops as usize)
            .sum();
        assert!(invocations <= 40);
        for phase in &app.phases {
            for t in &phase.threads {
                assert!(t.dataset_bytes <= cfg.llc_slice_bytes + cfg.line_bytes);
            }
        }
    }
}
