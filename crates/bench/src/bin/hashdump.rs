//! `hashdump` — prints the structural hash of a deterministic run matrix.
//!
//! Used to verify that hot-path refactors keep the simulation bit-identical:
//! run it on two checkouts and diff the output. Covers every coherence mode
//! path, the manual heuristic, and the learned policy across three SoCs.

use cohmeleon_exp::policies::{build_policy, PolicyKind};
use cohmeleon_soc::config::{motivation_isolation_soc, soc1, soc2};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::run_protocol;

fn main() {
    let socs = [
        ("soc1", soc1()),
        ("soc2", soc2()),
        ("motivation-isolation", motivation_isolation_soc()),
    ];
    let kinds = [
        PolicyKind::FixedNonCoh,
        PolicyKind::FixedLlcCoh,
        PolicyKind::FixedCohDma,
        PolicyKind::FixedFullCoh,
        PolicyKind::Manual,
        PolicyKind::Cohmeleon,
    ];
    for (name, config) in socs {
        for kind in kinds {
            for seed in [5u64, 7] {
                let train = generate_app(&config, &GeneratorParams::quick(), seed);
                let test = generate_app(&config, &GeneratorParams::quick(), seed + 1);
                let mut policy = build_policy(kind, &config, 2, seed);
                let result = run_protocol(&config, &train, &test, policy.as_mut(), 2, seed);
                println!(
                    "{name} {kind:?} seed={seed} hash={:#018x}",
                    result.structural_hash()
                );
            }
        }
    }
}
