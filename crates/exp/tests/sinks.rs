//! Grid-level persistence: a sweep's records must round-trip losslessly
//! through their JSONL form and agree with the in-memory results.

use cohmeleon_exp::{
    canonical_jsonl, normalize_records, read_jsonl, CellRecord, Experiment, ExplorationKind,
    LearnerSpec, PolicyKind, Serial, StateSpace, UpdateKind, WorkStealing,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::summarize;

fn quick_grid() -> cohmeleon_exp::SweepGrid {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .learners([
            LearnerSpec {
                state_space: StateSpace::Coarse,
                exploration: ExplorationKind::Softmax,
                ..LearnerSpec::paper()
            },
            LearnerSpec {
                state_space: StateSpace::Extended,
                exploration: ExplorationKind::Ucb1,
                update: UpdateKind::Discounted,
                ..LearnerSpec::paper()
            },
        ])
        .seeds([4, 5])
        .train_iterations(1)
        .build()
        .unwrap()
}

#[test]
fn canonical_jsonl_round_trips_every_cell() {
    let grid = quick_grid();
    let text = canonical_jsonl(&grid.collect_records(&Serial));
    let records = read_jsonl(&text).unwrap();
    assert_eq!(records.len(), grid.num_cells());

    // The parsed records must agree, field for field, with a collected run
    // of the same grid.
    let results = grid.collect(&Serial);
    for record in &records {
        let cell = results.cell(
            record.scenario_index,
            record.policy_index,
            record.seed_index,
        );
        let expected = CellRecord::from_cell(cell);
        assert_eq!(record, &expected);
        assert_eq!(record.structural_hash, cell.result.structural_hash());
    }
}

#[test]
fn learner_axis_cells_are_deterministic() {
    // Two independent runs of a learner-spec cell must agree bit for bit —
    // the agent redesign keeps all randomness in the per-cell seed.
    let results_a = quick_grid().collect(&Serial);
    let results_b = quick_grid().collect(&WorkStealing::new());
    for (a, b) in results_a.iter().zip(results_b.iter()) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            a.result.structural_hash(),
            b.result.structural_hash(),
            "{}",
            a.policy
        );
    }
}

#[test]
fn normalized_records_match_the_live_results_bit_for_bit() {
    // Figures render from records, whether collected in-process or read
    // back from a checkpoint, so the record normalization must equal
    // `summarize` on the live results to the last bit, for any baseline.
    let grid = quick_grid();
    let results = grid.collect(&Serial);
    let records: Vec<CellRecord> = results.iter().map(CellRecord::from_cell).collect();
    let bits = |pairs: &[(f64, f64)]| -> Vec<(u64, u64)> {
        pairs
            .iter()
            .map(|(t, m)| (t.to_bits(), m.to_bits()))
            .collect()
    };
    for baseline in [0, 1] {
        let outcomes = normalize_records(&records, baseline);
        assert_eq!(outcomes.len(), records.len());
        for (record, got) in records.iter().zip(&outcomes) {
            let cell = results.cell(
                record.scenario_index,
                record.policy_index,
                record.seed_index,
            );
            let base = results.cell(record.scenario_index, baseline, record.seed_index);
            let want = summarize(cell.result.clone(), &base.result);
            let at = format!(
                "{} seed {} vs policy {baseline}",
                record.policy, record.seed
            );
            assert_eq!(
                bits(&got.normalized_phases),
                bits(&want.normalized_phases),
                "{at}"
            );
            assert_eq!(got.geo_time.to_bits(), want.geo_time.to_bits(), "{at}");
            assert_eq!(got.geo_mem.to_bits(), want.geo_mem.to_bits(), "{at}");
        }
    }
}
