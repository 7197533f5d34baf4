//! The JSONL record parsers on arbitrary input. Records are every grid
//! figure's input and arrive from outside the process (a checkpoint on
//! disk, a fleet peer's `RECORD` line), so on every input derived from a
//! valid record line — each truncation, each single-character
//! substitution, and seeded random mutants and noise — the parsers must:
//!
//! * never panic (`CellRecord::from_json`, `read_jsonl`,
//!   `scan_jsonl_tail`);
//! * round-trip every record they accept: `to_json` and parse again give
//!   the same record;
//! * keep a good record ahead of a bad tail: `scan_jsonl_tail` on
//!   `good\n<input>` returns the good record first.

use cohmeleon_exp::{read_jsonl, scan_jsonl_tail, CellRecord};

fn record() -> CellRecord {
    CellRecord {
        scenario_index: 3,
        policy_index: 1,
        seed_index: 0,
        scenario: "SoC2".into(),
        policy: "ql[coarse/softmax/blend]".into(),
        seed: 10,
        total_cycles: 4022452,
        total_offchip: 11099,
        invocations: 27,
        structural_hash: 0x49cb7da5f2419441,
        phases: vec![
            ("phase-0".into(), 2000, 500),
            ("phase-1".into(), 2022452, 10599),
        ],
    }
}

/// The characters substituted at every position: JSON structure, digit
/// and escape edges, a two-byte character and NUL.
const SUBSTITUTES: [char; 14] = [
    '"', '\\', '{', '}', '[', ']', ',', ':', '0', '9', '-', 'u', 'é', '\0',
];

/// Checks the three properties on one input line (which holds no `\n`).
fn check(line: &str) {
    if let Ok(parsed) = CellRecord::from_json(line) {
        let again = CellRecord::from_json(&parsed.to_json());
        assert_eq!(again.as_ref(), Ok(&parsed), "round trip of {line:?}");
    }
    let _ = read_jsonl(line);
    let _ = scan_jsonl_tail(line);
    let good = record();
    for text in [
        format!("{}\n{line}", good.to_json()),
        format!("{}\n{line}\n", good.to_json()),
    ] {
        let run = scan_jsonl_tail(&text).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(run.records.first(), Some(&good), "{line:?}");
        let _ = read_jsonl(&text);
    }
}

#[test]
fn every_truncation_is_handled() {
    let line = record().to_json();
    for (end, _) in line.char_indices() {
        check(&line[..end]);
    }
    check(&line);
}

#[test]
fn every_single_character_substitution_is_handled() {
    let chars: Vec<char> = record().to_json().chars().collect();
    for at in 0..chars.len() {
        for sub in SUBSTITUTES {
            let mut mutant = chars.clone();
            mutant[at] = sub;
            check(&mutant.iter().collect::<String>());
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
fn seeded_random_lines_are_handled() {
    let valid: Vec<char> = record().to_json().chars().collect();
    let alphabet: Vec<char> = SUBSTITUTES
        .iter()
        .copied()
        .chain("abcdefnrstxyz012345678 _.\t\r\u{1}\u{7f}€😀".chars())
        .collect();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..10_000 {
        let line: Vec<char> = if rng.below(4) == 0 {
            // Noise: a random line over the alphabet.
            (0..rng.below(200))
                .map(|_| alphabet[rng.below(alphabet.len())])
                .collect()
        } else {
            // A valid line with one to four random edits.
            let mut line = valid.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(line.len() + 1);
                let c = alphabet[rng.below(alphabet.len())];
                match rng.below(3) {
                    0 if at < line.len() => line[at] = c,
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    _ => line.insert(at, c),
                }
            }
            line
        };
        check(&line.iter().collect::<String>());
    }
}
