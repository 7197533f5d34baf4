//! The four named phases of Figure 5, on SoC0: "6 Threads: Large",
//! "3 Threads: Variable", "10 Threads: Small" and "4 Threads: Medium".

use cohmeleon_core::AccelInstanceId;
use cohmeleon_soc::{AppSpec, PhaseSpec, SocConfig, ThreadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sizes::SizeClass;

/// Builds the Figure 5 evaluation application for `config` (the paper runs
/// it on SoC0). Each phase pins the thread count and workload class of its
/// title; the "Variable" phase mixes classes. Chains and loop counts are
/// sampled deterministically from `seed`.
pub fn figure5_app(config: &SocConfig, seed: u64) -> AppSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let phases = vec![
        fixed_phase(config, "6 Threads: Large", 6, SizeClass::Large, &mut rng),
        variable_phase(config, "3 Threads: Variable", 3, &mut rng),
        fixed_phase(config, "10 Threads: Small", 10, SizeClass::Small, &mut rng),
        fixed_phase(config, "4 Threads: Medium", 4, SizeClass::Medium, &mut rng),
    ];
    AppSpec {
        name: format!("figure5-{}", config.name),
        phases,
    }
}

fn fixed_phase(
    config: &SocConfig,
    name: &str,
    threads: usize,
    class: SizeClass,
    rng: &mut SmallRng,
) -> PhaseSpec {
    PhaseSpec {
        name: name.to_owned(),
        threads: (0..threads)
            .map(|i| thread(config, class, i, rng))
            .collect(),
    }
}

fn variable_phase(config: &SocConfig, name: &str, threads: usize, rng: &mut SmallRng) -> PhaseSpec {
    let classes = [SizeClass::Small, SizeClass::Medium, SizeClass::ExtraLarge];
    PhaseSpec {
        name: name.to_owned(),
        threads: (0..threads)
            .map(|i| thread(config, classes[i % classes.len()], i, rng))
            .collect(),
    }
}

fn thread(config: &SocConfig, class: SizeClass, index: usize, rng: &mut SmallRng) -> ThreadSpec {
    let n = config.accels.len();
    let chain_len = rng.gen_range(1..=2usize).min(n);
    let first = (index * 3) % n;
    let mut chain = vec![AccelInstanceId(first as u16)];
    if chain_len == 2 {
        chain.push(AccelInstanceId(((first + 1) % n) as u16));
    }
    ThreadSpec {
        dataset_bytes: class.sample_bytes(config, rng),
        chain,
        loops: rng.gen_range(2..=3),
        check_output: index.is_multiple_of(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohmeleon_soc::config::soc0;

    #[test]
    fn four_phases_with_paper_thread_counts() {
        let app = figure5_app(&soc0(), 1);
        assert_eq!(app.phases.len(), 4);
        let counts: Vec<usize> = app.phases.iter().map(|p| p.threads.len()).collect();
        assert_eq!(counts, vec![6, 3, 10, 4]);
        let names: Vec<&str> = app.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "6 Threads: Large",
                "3 Threads: Variable",
                "10 Threads: Small",
                "4 Threads: Medium"
            ]
        );
    }

    #[test]
    fn phase_sizes_match_their_class() {
        let cfg = soc0();
        let app = figure5_app(&cfg, 1);
        for t in &app.phases[2].threads {
            assert!(
                t.dataset_bytes <= cfg.l2_bytes + cfg.line_bytes,
                "Small phase"
            );
        }
        for t in &app.phases[0].threads {
            assert!(t.dataset_bytes > cfg.llc_slice_bytes, "Large phase");
            assert!(t.dataset_bytes <= cfg.llc_total_bytes() + cfg.line_bytes);
        }
        // Variable phase mixes at least two classes.
        let classes: std::collections::HashSet<&str> = app.phases[1]
            .threads
            .iter()
            .map(|t| SizeClass::classify(t.dataset_bytes, &cfg).label())
            .collect();
        assert!(classes.len() >= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = soc0();
        assert_eq!(figure5_app(&cfg, 9), figure5_app(&cfg, 9));
        assert_ne!(figure5_app(&cfg, 9), figure5_app(&cfg, 10));
    }
}
