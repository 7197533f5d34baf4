//! Tracing must not perturb what it measures: the traced grid (every
//! policy behind the forwarding wrapper, a span per cell) gives every
//! cell the same structural hash and the same `sim.*`, `cache.*` and
//! `mem.*` counts as the untraced grid, on both executors.

use cohmeleon_exp::{PolicyKind, Scenario};
use cohmeleon_perfbench::sim::{SimJob, SimKind};
use cohmeleon_perfbench::trace::Tracer;
use cohmeleon_soc::config::{soc0_streaming, soc1};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn scenarios() -> Vec<Scenario> {
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    [soc1(), soc0_streaming()]
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            let train = generate_app(&config, &params, 11 + i as u64);
            let test = generate_app(&config, &params, 12 + i as u64);
            Scenario::new(config, train, test).seed_offset(i as u64)
        })
        .collect()
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::FixedNonCoh,
    PolicyKind::FixedFullCoh,
    PolicyKind::Manual,
    PolicyKind::Cohmeleon,
];

fn assert_unperturbed(kind: SimKind) {
    let job = SimJob::new(kind, scenarios(), &POLICIES, 3, 1);
    let untraced = job.run(None);
    let tracer = Tracer::default();
    let traced = job.run(Some((&tracer, 1)));

    assert_eq!(untraced.cells.len(), 2 * POLICIES.len());
    assert_eq!(
        traced.hashes(),
        untraced.hashes(),
        "tracing changed a structural hash"
    );
    for (t, u) in traced.cells.iter().zip(&untraced.cells) {
        assert_eq!(t.counts, u.counts, "tracing changed a sim/cache/mem count");
    }
    assert_eq!(traced.counts(), untraced.counts());
    assert!(
        untraced.counts().tag.scans > 0,
        "the grid exercised the cache layer"
    );

    // The wrapper saw every policy call (training runs decide too, and
    // `AppResult` counts only the evaluation run), and only the traced
    // run was timed.
    let policy = traced.policy();
    assert!(policy.decide_calls > traced.counts().invocations);
    assert!(policy.observe_calls > 0 && policy.other_calls > 0);
    assert_eq!(untraced.policy().decide_calls, 0);
    // One span per cell plus one for the grid.
    assert_eq!(tracer.len(), traced.cells.len() + 1);
}

#[test]
fn serial_tracing_keeps_hashes_and_counts() {
    assert_unperturbed(SimKind::IrregularDma);
}

#[test]
fn work_stealing_tracing_keeps_hashes_and_counts() {
    assert_unperturbed(SimKind::Fig9Paper);
}
