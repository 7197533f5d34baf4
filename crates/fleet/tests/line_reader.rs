//! Framing properties of the fleet `LineReader`: however a message is
//! split across reads, the lines that come out are identical.
//!
//! The chaos transport's whole fault model rests on this — split writes
//! tear lines at arbitrary byte offsets, stalls inject `WouldBlock`
//! mid-line, and a reset can leave a torn tail — so the reader's
//! contract ("a line is a line whatever the packetization; an
//! unterminated tail at EOF is dropped") is pinned here exhaustively for
//! two-part splits and probabilistically for arbitrary ones.

use std::io::{self, Read};

use cohmeleon_fleet::LineReader;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A reader that yields pre-scripted results one at a time, then EOF.
struct Scripted(Vec<io::Result<Vec<u8>>>);

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Ok(0);
        }
        match self.0.remove(0) {
            Ok(bytes) => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            Err(e) => Err(e),
        }
    }
}

/// A realistic wire burst: several complete fleet lines, then a torn
/// RECORD a dying worker never finished.
const MESSAGE: &[u8] = b"HELLO fleet/1 worker-7\nLEASE\nRECORD 3 {\"scenario\":\"soc1\",\"seed\":9}\nHEARTBEAT 3\nDONE 3\nRECORD 4 {\"to";

/// The lines every split of [`MESSAGE`] must produce — the torn
/// `RECORD 4` tail is never one of them.
fn expected_lines() -> Vec<String> {
    vec![
        "HELLO fleet/1 worker-7".to_string(),
        "LEASE".to_string(),
        "RECORD 3 {\"scenario\":\"soc1\",\"seed\":9}".to_string(),
        "HEARTBEAT 3".to_string(),
        "DONE 3".to_string(),
    ]
}

/// Drains a reader to EOF, retrying through any `WouldBlock`.
fn collect_lines<R: Read>(reader: &mut LineReader<R>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        match reader.read_line() {
            Ok(Some(line)) => lines.push(line),
            Ok(None) => return lines,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
}

#[test]
fn every_two_part_split_yields_identical_lines() {
    let expected = expected_lines();
    for cut in 0..=MESSAGE.len() {
        let mut chunks = Vec::new();
        if cut > 0 {
            chunks.push(Ok(MESSAGE[..cut].to_vec()));
        }
        if cut < MESSAGE.len() {
            chunks.push(Ok(MESSAGE[cut..].to_vec()));
        }
        let mut reader = LineReader::new(Scripted(chunks));
        assert_eq!(
            collect_lines(&mut reader),
            expected,
            "split at byte {cut} changed the framing"
        );
    }
}

#[test]
fn every_uniform_chunk_size_yields_identical_lines() {
    let expected = expected_lines();
    for size in 1..=MESSAGE.len() {
        let chunks = MESSAGE
            .chunks(size)
            .map(|c| Ok(c.to_vec()))
            .collect::<Vec<_>>();
        let mut reader = LineReader::new(Scripted(chunks));
        assert_eq!(
            collect_lines(&mut reader),
            expected,
            "chunk size {size} changed the framing"
        );
    }
}

/// Arbitrary multi-way splits with `WouldBlock` timeouts scattered
/// between (and inside) lines — exactly what a chaos split-write plus
/// a read stall produces — still frame identically. Case `n` draws its
/// cuts and stalls from `SmallRng::seed_from_u64(n)`.
#[test]
fn random_splits_with_timeouts_yield_identical_lines() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..MESSAGE.len()))
            .collect();
        let stall_mask: u16 = rng.gen_range(0..=u16::MAX);
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks: Vec<io::Result<Vec<u8>>> = Vec::new();
        let mut start = 0;
        for (i, &cut) in cuts
            .iter()
            .chain(std::iter::once(&MESSAGE.len()))
            .enumerate()
        {
            if stall_mask & (1 << (i as u32 % 16)) != 0 {
                chunks.push(Err(io::Error::new(io::ErrorKind::WouldBlock, "stall")));
            }
            if cut > start {
                chunks.push(Ok(MESSAGE[start..cut].to_vec()));
            }
            start = cut;
        }
        let mut reader = LineReader::new(Scripted(chunks));
        assert_eq!(
            collect_lines(&mut reader),
            expected_lines(),
            "case {case}: cuts {cuts:?}, stalls {stall_mask:#06x}"
        );
    }
}
