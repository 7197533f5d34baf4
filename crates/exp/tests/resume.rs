//! Resume correctness: a run interrupted after *any* prefix of its JSONL
//! — including one whose final line was torn mid-write — must, once
//! resumed, reproduce the uninterrupted Serial run's record stream bit
//! for bit.

use std::path::PathBuf;

use cohmeleon_exp::{
    canonical_jsonl, CellRecord, Checkpoint, Experiment, PolicyKind, Serial, SweepGrid,
    WorkStealing,
};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .seeds([1, 2, 3])
        .build()
        .unwrap()
}

/// The uninterrupted Serial run's records, in dense order.
fn clean_records(grid: &SweepGrid) -> Vec<CellRecord> {
    grid.collect_records(&Serial)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cohmeleon-resume-{name}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn any_prefix_resumed_reproduces_the_serial_run_bit_identically() {
    let grid = grid();
    let clean = clean_records(&grid);
    let clean_text = canonical_jsonl(&clean);
    let lines: Vec<&str> = clean_text.lines().collect();
    assert_eq!(lines.len(), grid.num_cells());

    let path = tmp("prefix");
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

#[test]
fn truncated_mid_line_tails_are_dropped_and_rerun() {
    let grid = grid();
    let clean = clean_records(&grid);
    let clean_text = canonical_jsonl(&clean);
    let lines: Vec<&str> = clean_text.lines().collect();

    let path = tmp("torn");
    for k in 0..lines.len() {
        // k complete lines plus the front half of line k+1, as a kill
        // mid-write leaves behind.
        let mut text: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
        text.push_str(&lines[k][..lines[k].len() / 2]);
        std::fs::write(&path, &text).unwrap();
        let outcome = grid.run_resumable(&path, &Serial).unwrap();
        assert!(outcome.dropped_tail, "torn after {k}");
        assert_eq!(
            (outcome.reused, outcome.ran),
            (k, lines.len() - k),
            "torn after {k}"
        );
        assert_eq!(outcome.records, clean, "torn after {k}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            clean_text,
            "torn after {k}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn capped_runs_accumulate_into_the_clean_stream() {
    let grid = grid();
    let clean = clean_records(&grid);
    let clean_text = canonical_jsonl(&clean);

    let path = tmp("capped");
    let _ = std::fs::remove_file(&path);
    // Two cells at a time: 6 cells → three capped runs, the last of which
    // completes and canonicalises.
    let mut completed = false;
    for step in 0..3 {
        let outcome = grid.run_resumable_capped(&path, &Serial, 2).unwrap();
        assert_eq!(outcome.reused, step * 2);
        assert_eq!(outcome.ran, 2);
        completed = outcome.complete;
    }
    assert!(completed);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean_text);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn work_stealing_resume_finalises_to_the_serial_byte_stream() {
    let grid = grid();
    let clean_text = canonical_jsonl(&clean_records(&grid));

    let path = tmp("steal");
    let _ = std::fs::remove_file(&path);
    let outcome = grid.run_resumable(&path, &WorkStealing::new()).unwrap();
    assert!(outcome.complete);
    // Whatever completion order the pool produced, the finalised file is
    // canonical — byte-identical to Serial.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), clean_text);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn foreign_checkpoints_are_rejected_not_resumed() {
    let grid = grid();
    let mut record = clean_records(&grid)[0].clone();
    record.seed = 999; // a cell this grid could never have produced

    let path = tmp("foreign");
    std::fs::write(&path, format!("{}\n", record.to_json())).unwrap();
    let err = grid.run_resumable(&path, &Serial).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("seed"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn conflicting_duplicate_records_are_rejected() {
    let grid = grid();
    let clean = clean_records(&grid);
    let mut altered = clean[0].clone();
    altered.total_cycles += 1;

    let path = tmp("conflict");
    std::fs::write(
        &path,
        format!("{}\n{}\n", clean[0].to_json(), altered.to_json()),
    )
    .unwrap();
    let err = grid.run_resumable(&path, &Serial).unwrap_err();
    assert!(err.to_string().contains("twice"), "{err}");

    // Byte-identical duplicates, by contrast, collapse harmlessly.
    std::fs::write(
        &path,
        format!("{}\n{}\n", clean[0].to_json(), clean[0].to_json()),
    )
    .unwrap();
    let outcome = grid.run_resumable(&path, &Serial).unwrap();
    assert_eq!(outcome.reused, 1);
    assert_eq!(outcome.records, clean);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn ingest_keeps_one_record_per_cell_and_rejects_conflicts() {
    // The exactly-once rule of both a resume and the fleet queen: seeded
    // from the file on disk, then fed records as a worker streams them.
    let grid = grid();
    let clean = clean_records(&grid);
    let path = tmp("ingest");
    std::fs::write(
        &path,
        format!("{}\n{}\n", clean[0].to_json(), clean[1].to_json()),
    )
    .unwrap();
    let mut checkpoint = Checkpoint::load(&path, &grid).unwrap();
    assert_eq!((checkpoint.len(), checkpoint.duplicates()), (2, 0));

    assert_eq!(checkpoint.ingest(clean[2].clone(), &grid), Ok(true));
    assert_eq!(checkpoint.ingest(clean[2].clone(), &grid), Ok(false));
    assert_eq!(checkpoint.duplicates(), 1);

    let mut conflicting = clean[0].clone();
    conflicting.total_cycles += 1;
    let err = checkpoint.ingest(conflicting, &grid).unwrap_err();
    assert!(err.contains("twice"), "{err}");

    let mut foreign = clean[3].clone();
    foreign.seed = 999;
    let err = checkpoint.ingest(foreign, &grid).unwrap_err();
    assert!(err.contains("seed"), "{err}");

    assert_eq!(checkpoint.duplicates(), 1);
    assert_eq!(checkpoint.into_records(), clean[..3]);
    std::fs::remove_file(&path).unwrap();
}
