//! Offline profiling for the *fixed heterogeneous* baseline.
//!
//! The paper chooses each accelerator's design-time mode "based on profiling
//! the accelerator's performance in each mode while sweeping the footprint
//! of the workload on different invocations" (Section 4.3). This module
//! performs that sweep on a fresh instance of the target SoC: each
//! accelerator kind runs alone, once per (mode, footprint) combination, and
//! the mode with the lowest mean normalized execution time wins.

use std::collections::HashMap;

use cohmeleon_core::policy::{FixedHeterogeneousPolicy, FixedPolicy};
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode};

use crate::config::SocConfig;
use crate::engine::{run_app, AppSpec, PhaseSpec, ThreadSpec};
use crate::machine::Soc;

/// The default footprint sweep: one workload per size class of the paper
/// (Small ≈ 16 KiB, Medium ≈ 256 KiB, Large ≈ 1 MiB).
pub const DEFAULT_SWEEP_BYTES: [u64; 3] = [16 * 1024, 256 * 1024, 1024 * 1024];

/// Profiles every accelerator kind of `config` in isolation and returns the
/// per-kind design-time assignment.
///
/// For each kind, the first instance of that kind is invoked once per
/// footprint in `sweep` under each supported mode, on a fresh SoC per run
/// (profiling runs do not interfere with each other). Execution times are
/// normalized per byte and averaged; the lowest-mean mode is assigned.
pub fn profile_heterogeneous(
    config: &SocConfig,
    sweep: &[u64],
    seed: u64,
) -> FixedHeterogeneousPolicy {
    // Dense topology tables indexed by the raw instance/kind ids — one
    // pass over the config, no per-call map churn, and a deterministic
    // kind-id profiling order (each kind's sweep runs on a fresh SoC, so
    // order cannot change any assignment).
    let topology = config.dense_topology();

    let mut assignment: Vec<Option<CoherenceMode>> = vec![None; topology.first_instance.len()];
    for (k, &instance) in topology.first_instance.iter().enumerate() {
        let Some(instance) = instance else {
            continue;
        };
        let kind = AccelKindId(k as u16);
        let available = config.accels[instance.0 as usize].available_modes();
        let mut best: Option<(CoherenceMode, f64)> = None;
        for mode in available.iter() {
            let mut norm_sum = 0.0;
            for (i, &bytes) in sweep.iter().enumerate() {
                let app = AppSpec {
                    name: format!("profile-{kind}-{mode}-{bytes}"),
                    phases: vec![PhaseSpec {
                        name: "sweep".into(),
                        threads: vec![ThreadSpec {
                            dataset_bytes: bytes,
                            chain: vec![instance],
                            loops: 1,
                            check_output: false,
                        }],
                    }],
                };
                let mut soc = Soc::new(config.clone());
                let mut policy = FixedPolicy::new(mode);
                let result = run_app(&mut soc, &app, &mut policy, seed ^ i as u64);
                let rec = &result.phases[0].invocations[0];
                norm_sum += rec.measurement.total_cycles as f64 / bytes as f64;
            }
            let mean = norm_sum / sweep.len() as f64;
            if best.is_none_or(|(_, b)| mean < b) {
                best = Some((mode, mean));
            }
        }
        assignment[k] = Some(best.expect("at least one mode available").0);
    }

    // The policy's public constructor takes maps; build them once from the
    // dense tables (construction cost, not sense-path cost).
    let assignment: HashMap<AccelKindId, CoherenceMode> = assignment
        .iter()
        .enumerate()
        .filter_map(|(k, m)| m.map(|mode| (AccelKindId(k as u16), mode)))
        .collect();
    let kind_of: HashMap<AccelInstanceId, AccelKindId> = topology.pairs().into_iter().collect();
    FixedHeterogeneousPolicy::new(assignment, kind_of, CoherenceMode::NonCohDma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::motivation_isolation_soc;

    #[test]
    fn profiling_assigns_a_mode_to_every_kind() {
        let config = motivation_isolation_soc();
        // A two-point sweep keeps the test fast.
        let policy = profile_heterogeneous(&config, &[16 * 1024, 128 * 1024], 3);
        for tile in &config.accels {
            assert!(
                policy.mode_for_kind(tile.spec.kind).is_some(),
                "kind {} unassigned",
                tile.spec.kind
            );
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let config = crate::config::soc1();
        let a = profile_heterogeneous(&config, &[16 * 1024], 3);
        let b = profile_heterogeneous(&config, &[16 * 1024], 3);
        for tile in &config.accels {
            assert_eq!(
                a.mode_for_kind(tile.spec.kind),
                b.mode_for_kind(tile.spec.kind)
            );
        }
    }
}
