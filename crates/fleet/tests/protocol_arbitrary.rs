//! The fleet wire parsers on arbitrary input. Every line a queen or a
//! worker reads comes from a peer over TCP, and a `RECORD` line goes on
//! from `ToQueen::parse` through `CellRecord::from_json` and
//! `Checkpoint::ingest` before the queen persists it. So on arbitrary
//! bytes, on every truncation and on every single-character substitution
//! of a valid line, the parsers must:
//!
//! * never panic (`ToQueen::parse`, `ToWorker::parse`, and the queen's
//!   record path behind an accepted `RECORD`);
//! * round-trip every message they accept: `to_line` and parse again give
//!   the same message.

use std::io;

use cohmeleon_exp::{CellRecord, Checkpoint, Experiment, PolicyKind, SweepGrid};
use cohmeleon_fleet::{LineReader, ToQueen, ToWorker};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

/// Two policies × two seeds of cheap cells.
fn grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .seeds([1, 2])
        .build()
        .unwrap()
}

/// A record `grid` accepts: cell (0, 1, 1).
fn record() -> CellRecord {
    CellRecord {
        scenario_index: 0,
        policy_index: 1,
        seed_index: 1,
        scenario: "SoC1".into(),
        policy: "manual".into(),
        seed: 2,
        total_cycles: 4022452,
        total_offchip: 11099,
        invocations: 27,
        structural_hash: 0x49cb7da5f2419441,
        phases: vec![("phase-0".into(), 4022452, 11099)],
    }
}

/// Every verb in both directions, as `to_line` writes it.
fn valid_lines() -> Vec<String> {
    let to_queen = [
        ToQueen::Hello {
            name: "host-3".into(),
        },
        ToQueen::Lease,
        ToQueen::Record {
            lease: 7,
            json: record().to_json(),
        },
        ToQueen::Done { lease: 7 },
        ToQueen::Heartbeat { lease: u64::MAX },
    ];
    let to_worker = [
        ToWorker::Hello {
            grid: "suite".into(),
            fast: true,
            cells: 42,
            ttl_ms: 10_000,
        },
        ToWorker::Lease {
            id: 3,
            start: 12,
            len: 4,
        },
        ToWorker::Complete,
    ];
    to_queen
        .iter()
        .map(ToQueen::to_line)
        .chain(to_worker.iter().map(ToWorker::to_line))
        .collect()
}

/// The characters substituted at every position: the field separator,
/// digit and sign edges, JSON structure, a two-byte character and NUL.
const SUBSTITUTES: [char; 16] = [
    ' ', '0', '9', '-', '+', 'x', '/', '{', '}', '"', '\\', ',', '\t', '\r', 'é', '\0',
];

/// The queen's side of one line, as `serve_worker` takes it in: parse,
/// then for a `RECORD`, decode the payload and ingest it.
struct Queen {
    grid: SweepGrid,
    checkpoint: Checkpoint,
}

impl Queen {
    fn new() -> Queen {
        let grid = grid();
        let absent = std::env::temp_dir().join(format!(
            "cohmeleon-protocol-arbitrary-{}-absent.jsonl",
            std::process::id()
        ));
        let checkpoint = Checkpoint::load(&absent, &grid).unwrap();
        Queen { grid, checkpoint }
    }

    /// Checks both parsers on one line (which holds no `\n`).
    fn check(&mut self, line: &str) {
        if let Ok(message) = ToQueen::parse(line) {
            let again = ToQueen::parse(&message.to_line());
            assert_eq!(again.as_ref(), Ok(&message), "round trip of {line:?}");
            if let ToQueen::Record { json, .. } = message {
                if let Ok(record) = CellRecord::from_json(&json) {
                    let _ = self.checkpoint.ingest(record, &self.grid);
                }
            }
        }
        if let Ok(message) = ToWorker::parse(line) {
            let again = ToWorker::parse(&message.to_line());
            assert_eq!(again.as_ref(), Ok(&message), "round trip of {line:?}");
        }
    }

    /// Frames `bytes` into lines as a connection handler does and checks
    /// every line; a non-UTF-8 line is refused by the reader and skipped.
    fn check_stream(&mut self, bytes: &[u8]) {
        let mut reader = LineReader::new(bytes);
        loop {
            match reader.read_line() {
                Ok(Some(line)) => self.check(&line),
                Ok(None) => break,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            }
        }
    }
}

#[test]
fn valid_lines_round_trip_byte_for_byte() {
    let mut queen = Queen::new();
    for line in valid_lines() {
        let to_queen = ToQueen::parse(&line).map(|m| m.to_line());
        let to_worker = ToWorker::parse(&line).map(|m| m.to_line());
        assert!(
            to_queen.as_ref() == Ok(&line) || to_worker.as_ref() == Ok(&line),
            "{line:?}"
        );
        queen.check(&line);
    }
    assert_eq!(queen.checkpoint.len(), 1, "the valid RECORD is ingested");
}

#[test]
fn every_truncation_is_handled() {
    let mut queen = Queen::new();
    for line in valid_lines() {
        for (end, _) in line.char_indices() {
            queen.check(&line[..end]);
        }
    }
}

#[test]
fn every_single_character_substitution_is_handled() {
    let mut queen = Queen::new();
    for line in valid_lines() {
        let chars: Vec<char> = line.chars().collect();
        for at in 0..chars.len() {
            for sub in SUBSTITUTES {
                let mut mutant = chars.clone();
                mutant[at] = sub;
                queen.check(&mutant.iter().collect::<String>());
            }
        }
    }
}

/// Marsaglia's xorshift64: a seeded, dependency-free stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn seeded_arbitrary_bytes_are_handled() {
    let valid: Vec<Vec<u8>> = valid_lines().into_iter().map(String::into_bytes).collect();
    let mut queen = Queen::new();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2_000 {
        // A stream of a few lines, each raw noise or a valid line with
        // one to four byte edits (which may break its UTF-8).
        let mut stream = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let line: Vec<u8> = if rng.below(4) == 0 {
                (0..rng.below(120)).map(|_| rng.next() as u8).collect()
            } else {
                let mut line = valid[rng.below(valid.len())].clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(line.len() + 1);
                    let byte = rng.next() as u8;
                    match rng.below(3) {
                        0 if at < line.len() => line[at] = byte,
                        1 if at < line.len() => {
                            line.remove(at);
                        }
                        _ => line.insert(at, byte),
                    }
                }
                line
            };
            stream.extend_from_slice(&line);
            stream.push(b'\n');
        }
        queen.check_stream(&stream);
    }
}
