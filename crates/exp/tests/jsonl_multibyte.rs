//! Regression: the JSONL record parser quotes an excerpt of the line it
//! rejects, and that excerpt must be cut on a char boundary. The lines come
//! from outside the process — a checkpoint on disk, a fleet peer's `RECORD`
//! — so a multi-byte character may sit at any byte offset. Every parser
//! entry point must answer `Err` (or, for a checkpoint's final line, drop
//! it as a torn tail) and never panic.

use cohmeleon_exp::{read_jsonl, scan_jsonl_tail, CellRecord};

/// Two bytes in UTF-8, so some offset puts it across the excerpt's cut.
const WIDE: char = 'é';

fn record() -> CellRecord {
    CellRecord {
        scenario_index: 0,
        policy_index: 1,
        seed_index: 0,
        scenario: "soc1".into(),
        policy: "ql[coarse/softmax/blend]".into(),
        seed: 17,
        total_cycles: 4022452,
        total_offchip: 11099,
        invocations: 27,
        structural_hash: 0x49cb7da5f2419441,
        phases: vec![("phase-0".into(), 2000, 500)],
    }
}

/// For every byte offset 0..=40: a malformed line with `WIDE` at that
/// offset, and a valid record line whose first key is corrupted with
/// `WIDE` inserted at that offset.
fn bad_lines() -> Vec<String> {
    let corrupted = record()
        .to_json()
        .replacen("\"scenario_index\"", "\"scenario_idx\"", 1);
    assert!(CellRecord::from_json(&corrupted).is_err());
    let mut lines = Vec::new();
    for at in 0..=40 {
        lines.push(format!("{}{WIDE}{}", "x".repeat(at), "y".repeat(40)));
        let mut line = corrupted.clone();
        line.insert(at, WIDE);
        lines.push(line);
    }
    lines
}

#[test]
fn record_parser_rejects_multibyte_lines_without_panicking() {
    let good = record().to_json();
    for bad in bad_lines() {
        assert!(CellRecord::from_json(&bad).is_err(), "{bad}");
        assert!(read_jsonl(&bad).is_err(), "{bad}");
        let err = read_jsonl(&format!("{good}\n{bad}\n{good}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}

#[test]
fn tail_scan_drops_a_final_multibyte_line_and_rejects_any_other() {
    let good = record().to_json();
    for bad in bad_lines() {
        for text in [format!("{good}\n{bad}"), format!("{good}\n{bad}\n")] {
            let run = scan_jsonl_tail(&text).unwrap_or_else(|e| panic!("{bad}: {e}"));
            assert_eq!(run.records, vec![record()], "{bad}");
            assert_eq!(run.valid_len, good.len() as u64 + 1, "{bad}");
            assert!(run.dropped_tail, "{bad}");
        }
        let err = scan_jsonl_tail(&format!("{good}\n{bad}\n{good}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
