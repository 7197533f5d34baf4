//! Scoped learner cells through the sweep lifecycle: a grid whose policy
//! axis carries `PerKind`/`PerInstance` routers and reweighted agents must
//! survive a kill+resume at any prefix byte-identical to a clean Serial
//! run — the acceptance bar for making scope and reward weights grid
//! axes. (The CI `scoped` smoke runs the same kind of grid through `sweep
//! shard`'s worker processes.)

use std::path::PathBuf;

use cohmeleon_exp::{
    canonical_jsonl, AgentScope, Experiment, LearnerSpec, Serial, SweepGrid, WeightPreset,
    WorkStealing,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

/// A small but fully scoped grid: every scope × two weight presets, one
/// seed, trained (the scoped agents must survive the train/freeze/test
/// protocol, not just evaluation).
fn grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let train = generate_app(&config, &params, 1);
    let test = generate_app(&config, &params, 2);
    Experiment::train_test(config, train, test)
        .learners(LearnerSpec::scope_weight_grid(
            &AgentScope::ALL,
            &[WeightPreset::Paper, WeightPreset::Balanced],
        ))
        .seed(5)
        .train_iterations(1)
        .build()
        .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cohmeleon-scoped-{name}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn scoped_cells_are_deterministic_across_executors() {
    let grid = grid();
    let serial = grid.collect_records(&Serial);
    let steal = grid.collect_records(&WorkStealing::new());
    assert_eq!(canonical_jsonl(&serial), canonical_jsonl(&steal));
    // Distinct scope/weight cells really are distinct models: the paper
    // cell and the per-instance reweighted cell must not collapse to one
    // behaviour.
    assert_eq!(serial.len(), 6);
    let hashes: std::collections::HashSet<u64> = serial.iter().map(|r| r.structural_hash).collect();
    assert!(
        hashes.len() > 1,
        "every scoped cell produced the same hash — scope/weights had no effect"
    );
}

#[test]
fn scoped_cells_survive_kill_and_resume_bit_identically() {
    let grid = grid();
    let clean = grid.collect_records(&Serial);
    let clean_text = canonical_jsonl(&clean);
    let lines: Vec<&str> = clean_text.lines().collect();
    assert_eq!(lines.len(), grid.num_cells());

    let path = tmp("resume");
    for k in 0..=lines.len() {
        let prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, &prefix).unwrap();
        let outcome = grid.run_resumable(&path, &Serial).unwrap();
        assert!(outcome.complete);
        assert_eq!(
            (outcome.reused, outcome.ran),
            (k, lines.len() - k),
            "prefix {k}"
        );
        assert_eq!(outcome.records, clean, "prefix {k}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            clean_text,
            "prefix {k}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
