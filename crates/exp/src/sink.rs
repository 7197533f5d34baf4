//! The persistable cell record and its JSONL form.
//!
//! A [`CellRecord`] is the flat summary of one completed cell, and one
//! JSON line per record is the durable form of a grid run: the
//! [`CheckpointWriter`](crate::CheckpointWriter) appends it to disk as
//! each cell completes, a fleet worker streams it to its queen, and
//! figures render from records ([`read_jsonl`], normalized by
//! [`normalize_records`]) instead of re-simulating. The JSON is
//! hand-rolled: the record is flat, and the workspace's offline `serde`
//! stand-in is a no-op marker, not a serializer.
//!
//! A record's `(scenario_index, policy_index, seed_index)` triple
//! ([`CellRecord::coord`]) is its durable identity, and
//! [`Checkpoint`](crate::Checkpoint) loads partial streams back
//! (tolerating a kill-torn final line) — see the
//! [`checkpoint`](crate::checkpoint) module. `read_jsonl` here stays
//! strict (any malformed line is an error): use it for complete files;
//! use the tolerant [`scan_jsonl_tail`](crate::scan_jsonl_tail) for
//! files a crash may have truncated.

use std::collections::HashMap;

use cohmeleon_workloads::runner::PolicyOutcome;

use crate::grid::CellResult;

/// A flat, persistable summary of one grid cell: coordinates, labels, the
/// effective seed, whole-run totals, the structural hash, and the
/// per-phase `(name, duration, offchip)` rows the figures normalize on.
///
/// This is the schema of every checkpoint line; it captures everything
/// the figure harnesses aggregate (per-invocation records stay in memory
/// only).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Scenario index on the grid's scenario axis.
    pub scenario_index: usize,
    /// Policy index on the grid's policy axis.
    pub policy_index: usize,
    /// Seed index on the grid's seed axis.
    pub seed_index: usize,
    /// The scenario's display label.
    pub scenario: String,
    /// The policy's display label.
    pub policy: String,
    /// The effective cell seed (grid seed + scenario offset).
    pub seed: u64,
    /// Total duration over all phases, in cycles.
    pub total_cycles: u64,
    /// Total off-chip accesses over all phases.
    pub total_offchip: u64,
    /// Number of completed invocations.
    pub invocations: u64,
    /// The result's structural hash (for cross-run identity checks).
    pub structural_hash: u64,
    /// Per-phase `(name, duration, offchip)`.
    pub phases: Vec<(String, u64, u64)>,
}

impl CellRecord {
    /// Summarises one completed cell.
    pub fn from_cell(result: &CellResult) -> CellRecord {
        CellRecord {
            scenario_index: result.cell.scenario,
            policy_index: result.cell.policy,
            seed_index: result.cell.seed,
            scenario: result.scenario.clone(),
            policy: result.policy.clone(),
            seed: result.seed,
            total_cycles: result.result.total_duration(),
            total_offchip: result.result.total_offchip(),
            invocations: result.result.invocations().count() as u64,
            structural_hash: result.result.structural_hash(),
            phases: result
                .result
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.duration, p.offchip))
                .collect(),
        }
    }

    /// Serialises the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"scenario_index\":{}", self.scenario_index));
        out.push_str(&format!(",\"policy_index\":{}", self.policy_index));
        out.push_str(&format!(",\"seed_index\":{}", self.seed_index));
        out.push_str(&format!(",\"scenario\":{}", json_string(&self.scenario)));
        out.push_str(&format!(",\"policy\":{}", json_string(&self.policy)));
        out.push_str(&format!(",\"seed\":{}", self.seed));
        out.push_str(&format!(",\"total_cycles\":{}", self.total_cycles));
        out.push_str(&format!(",\"total_offchip\":{}", self.total_offchip));
        out.push_str(&format!(",\"invocations\":{}", self.invocations));
        out.push_str(&format!(",\"structural_hash\":{}", self.structural_hash));
        out.push_str(",\"phases\":[");
        for (i, (name, duration, offchip)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"duration\":{duration},\"offchip\":{offchip}}}",
                json_string(name)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a record previously produced by [`to_json`](Self::to_json).
    ///
    /// This is a schema-specific reader (exact field order, flat layout),
    /// not a general JSON parser — enough for round-tripping
    /// [`to_json`](Self::to_json)'s own output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(line: &str) -> Result<CellRecord, String> {
        let mut p = JsonCursor::new(line.trim());
        p.expect('{')?;
        let scenario_index = p.field_usize("scenario_index", false)?;
        let policy_index = p.field_usize("policy_index", true)?;
        let seed_index = p.field_usize("seed_index", true)?;
        let scenario = p.field_string("scenario", true)?;
        let policy = p.field_string("policy", true)?;
        let seed = p.field_u64("seed", true)?;
        let total_cycles = p.field_u64("total_cycles", true)?;
        let total_offchip = p.field_u64("total_offchip", true)?;
        let invocations = p.field_u64("invocations", true)?;
        let structural_hash = p.field_u64("structural_hash", true)?;
        p.expect(',')?;
        p.key("phases")?;
        p.expect('[')?;
        let mut phases = Vec::new();
        while !p.peek_is(']') {
            if !phases.is_empty() {
                p.expect(',')?;
            }
            p.expect('{')?;
            let name = p.field_string("name", false)?;
            let duration = p.field_u64("duration", true)?;
            let offchip = p.field_u64("offchip", true)?;
            p.expect('}')?;
            phases.push((name, duration, offchip));
        }
        p.expect(']')?;
        p.expect('}')?;
        Ok(CellRecord {
            scenario_index,
            policy_index,
            seed_index,
            scenario,
            policy,
            seed,
            total_cycles,
            total_offchip,
            invocations,
            structural_hash,
            phases,
        })
    }
}

/// Normalizes every record against the record of policy index
/// `baseline_policy` with the same scenario and seed — the paper's
/// convention of per-phase ratios against fixed non-coherent DMA, and the
/// one normalization every figure renders from. Outcomes come back in
/// the order of `records`.
///
/// # Panics
///
/// Panics if some scenario and seed of `records` has no baseline record.
pub fn normalize_records(records: &[CellRecord], baseline_policy: usize) -> Vec<PolicyOutcome> {
    let baselines: HashMap<(usize, usize), &CellRecord> = records
        .iter()
        .filter(|r| r.policy_index == baseline_policy)
        .map(|r| ((r.scenario_index, r.seed_index), r))
        .collect();
    records
        .iter()
        .map(|r| {
            let base = baselines
                .get(&(r.scenario_index, r.seed_index))
                .unwrap_or_else(|| {
                    panic!(
                        "no policy-{baseline_policy} record for `{}`, seed {}",
                        r.scenario, r.seed
                    )
                });
            PolicyOutcome::from_phases(
                r.phases.iter().map(|p| (p.1, p.2)),
                base.phases.iter().map(|p| (p.1, p.2)),
            )
        })
        .collect()
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal cursor over [`CellRecord::to_json`] output.
struct JsonCursor<'a> {
    rest: &'a str,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> JsonCursor<'a> {
        JsonCursor { rest: text }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if let Some(stripped) = self.rest.strip_prefix(c) {
            self.rest = stripped;
            Ok(())
        } else {
            Err(format!("expected `{c}` at `{}`", truncated(self.rest)))
        }
    }

    fn peek_is(&self, c: char) -> bool {
        self.rest.starts_with(c)
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        let want = format!("\"{name}\":");
        if let Some(stripped) = self.rest.strip_prefix(&want) {
            self.rest = stripped;
            Ok(())
        } else {
            Err(format!(
                "expected key `{name}` at `{}`",
                truncated(self.rest)
            ))
        }
    }

    fn field_u64(&mut self, name: &str, comma: bool) -> Result<u64, String> {
        if comma {
            self.expect(',')?;
        }
        self.key(name)?;
        let digits: usize = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return Err(format!("expected number for `{name}`"));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse().map_err(|_| format!("bad number for `{name}`"))
    }

    fn field_usize(&mut self, name: &str, comma: bool) -> Result<usize, String> {
        self.field_u64(name, comma).map(|v| v as usize)
    }

    fn field_string(&mut self, name: &str, comma: bool) -> Result<String, String> {
        if comma {
            self.expect(',')?;
        }
        self.key(name)?;
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| format!("unterminated string for `{name}`"))?;
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars
                        .next()
                        .ok_or_else(|| format!("dangling escape in `{name}`"))?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars
                                    .next()
                                    .ok_or_else(|| format!("short \\u escape in `{name}`"))?;
                                code = code * 16
                                    + h.to_digit(16)
                                        .ok_or_else(|| format!("bad \\u escape in `{name}`"))?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint in `{name}`"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{other}` in `{name}`")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// The first 24 characters of `s`, for error messages. Cut on a char
/// boundary: the input is untrusted bytes (a corrupted checkpoint, a
/// peer's `RECORD` line) and may put a multi-byte character anywhere.
fn truncated(s: &str) -> &str {
    s.char_indices().nth(24).map_or(s, |(end, _)| &s[..end])
}

/// Parses every line of a JSONL text of [`CellRecord::to_json`] lines,
/// such as a finished checkpoint or [`canonical_jsonl`](crate::canonical_jsonl) output.
///
/// # Errors
///
/// Returns the first malformed line's number and parse error.
pub fn read_jsonl(text: &str) -> Result<Vec<CellRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| CellRecord::from_json(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        CellRecord {
            scenario_index: 0,
            policy_index: 2,
            seed_index: 1,
            scenario: "soc1".into(),
            policy: "ql[coarse/softmax/blend]".into(),
            seed: 17,
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

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = record();
        let parsed = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_escapes_awkward_strings() {
        let mut r = record();
        r.policy = "we\"ird\\pol\nicy\t\u{1}".into();
        let parsed = CellRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.policy, r.policy);
    }

    #[test]
    fn read_jsonl_reports_the_bad_line() {
        let good = record().to_json();
        let text = format!("{good}\nnot json\n");
        let err = read_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert_eq!(read_jsonl(&good).unwrap().len(), 1);
    }
}
