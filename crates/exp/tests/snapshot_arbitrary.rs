//! `SnapshotMeta::parse` on arbitrary input. `sweep serve` runs it on
//! whatever file it is given, so on arbitrary bytes, on every truncation
//! and on every single-character substitution of a valid snapshot text,
//! it must:
//!
//! * never panic;
//! * round-trip every provenance line it accepts: `to_comment` and parse
//!   again give the same value.

use cohmeleon_exp::SnapshotMeta;

fn meta() -> SnapshotMeta {
    SnapshotMeta {
        grid: "scoped".into(),
        scenario: "SoC1".into(),
        policy: "ql[table3/eps-greedy/blend/per-kind/paper]".into(),
        seed: 5,
        structural_hash: 0x49cb_7da5_f241_9441,
    }
}

/// A snapshot file as `write_snapshot` lays it out.
fn text() -> String {
    format!(
        "{}\n# cohmeleon q-table v1\n0\t1\t0\t0\t0\n",
        meta().to_comment()
    )
}

/// The characters substituted at every position: the field and line
/// separators, the key/value and comment marks, digit and hex edges, a
/// two-byte character and NUL.
const SUBSTITUTES: [char; 14] = [
    ' ', '\n', '\t', '=', '#', '0', '9', 'f', 'g', '-', '+', 'v', 'é', '\0',
];

/// Checks the two properties on one snapshot text.
fn check(text: &str) {
    if let Ok(Some(parsed)) = SnapshotMeta::parse(text) {
        let again = SnapshotMeta::parse(&parsed.to_comment());
        assert_eq!(again, Ok(Some(parsed)), "round trip of {text:?}");
    }
}

#[test]
fn valid_provenance_round_trips_byte_for_byte() {
    let line = meta().to_comment();
    assert_eq!(SnapshotMeta::parse(&text()), Ok(Some(meta())));
    assert_eq!(
        SnapshotMeta::parse(&line).unwrap().unwrap().to_comment(),
        line
    );
}

#[test]
fn every_truncation_is_handled() {
    let text = text();
    for (end, _) in text.char_indices() {
        check(&text[..end]);
    }
}

#[test]
fn every_single_character_substitution_is_handled() {
    let chars: Vec<char> = text().chars().collect();
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
fn seeded_arbitrary_bytes_are_handled() {
    let valid = text().into_bytes();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..10_000 {
        let bytes: Vec<u8> = match rng.below(3) {
            // Raw noise.
            0 => (0..rng.below(200)).map(|_| rng.next() as u8).collect(),
            // Noise behind the provenance tag, so parsing gets past it.
            1 => b"# snapshot v1 "
                .iter()
                .copied()
                .chain((0..rng.below(200)).map(|_| rng.next() as u8))
                .collect(),
            // A valid file with one to four byte edits.
            _ => {
                let mut bytes = valid.clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len() + 1);
                    let byte = rng.next() as u8;
                    match rng.below(3) {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        _ => bytes.insert(at, byte),
                    }
                }
                bytes
            }
        };
        check(&String::from_utf8_lossy(&bytes));
    }
}
