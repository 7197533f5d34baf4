//! Grid-level persistence: a sweep streamed through the disk sinks must
//! round-trip losslessly and agree with the in-memory results.

use cohmeleon_exp::{
    read_jsonl, CellRecord, Experiment, ExplorationKind, JsonlSink, LearnerSpec, PolicyKind,
    Serial, StateSpaceKind, UpdateKind, WorkStealing,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn quick_grid() -> cohmeleon_exp::SweepGrid {
    let config = soc1();
    let train = generate_app(&config, &GeneratorParams::quick(), 1);
    let test = generate_app(&config, &GeneratorParams::quick(), 2);
    Experiment::train_test(config, train, test)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .learners([
            LearnerSpec {
                state_space: StateSpaceKind::Coarse,
                exploration: ExplorationKind::Softmax,
                ..LearnerSpec::paper()
            },
            LearnerSpec {
                state_space: StateSpaceKind::Extended,
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
fn jsonl_sink_round_trips_every_cell() {
    let grid = quick_grid();
    let mut sink = JsonlSink::new(Vec::new());
    grid.execute(&Serial, &mut sink);
    assert_eq!(sink.written(), grid.num_cells());
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let records = read_jsonl(&text).unwrap();
    assert_eq!(records.len(), grid.num_cells());

    // The parsed records must agree, field for field, with a collected run
    // of the same grid.
    let results = grid.collect(&Serial);
    for record in &records {
        let cell = results.cell(record.scenario_index, record.policy_index, record.seed_index);
        let expected = CellRecord::from_cell(cell);
        assert_eq!(record, &expected);
        assert_eq!(record.structural_hash, cell.result.structural_hash());
    }
}

#[test]
fn jsonl_sink_is_executor_independent_up_to_order() {
    let grid = quick_grid();
    let run = |executor: &dyn Fn(&mut JsonlSink<Vec<u8>>)| {
        let mut sink = JsonlSink::new(Vec::new());
        executor(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut records = read_jsonl(&text).unwrap();
        records.sort_by_key(|r| (r.scenario_index, r.policy_index, r.seed_index));
        records
    };
    let serial = run(&|sink| quick_grid().execute(&Serial, sink));
    let parallel = run(&|sink| quick_grid().execute(&WorkStealing::new(), sink));
    assert_eq!(serial, parallel);
    let _ = grid;
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
