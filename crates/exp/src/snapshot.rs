//! Snapshot provenance: which sweep cell produced a frozen table file.
//!
//! A serving snapshot is just the router-tables document a trained policy
//! exports — but once it lives in a file and gets hot-swapped into
//! long-running servers, "which training run is this?" becomes the first
//! operational question. [`SnapshotMeta`] answers it with one comment
//! line stamped above the tables (the frozen parser skips leading `#`
//! lines, so the file stays directly loadable), carrying the grid name,
//! cell coordinates and the producing run's
//! [`structural_hash`](cohmeleon_soc::AppResult::structural_hash) — enough
//! to re-run the exact cell and verify it reproduces the same tables.
//! Fields are separated by whitespace, so the three label values are
//! percent-encoded: `%` and whitespace become `%XX` per UTF-8 byte, and
//! every other character stands for itself.

use std::fmt;
use std::io;
use std::path::Path;

/// Provenance of one frozen-snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The named grid (e.g. `"suite"`) the cell came from.
    pub grid: String,
    /// The scenario label of the producing cell.
    pub scenario: String,
    /// The policy label of the producing cell.
    pub policy: String,
    /// The effective cell seed.
    pub seed: u64,
    /// The producing run's structural hash (hex) — re-running the cell
    /// must reproduce it.
    pub structural_hash: u64,
}

/// The comment prefix a provenance line starts with.
const SNAPSHOT_TAG: &str = "# snapshot v1";

impl SnapshotMeta {
    /// Renders the provenance comment line (no trailing newline). The
    /// grid, scenario and policy values are percent-encoded; a label
    /// without `%` or whitespace is written as it is.
    pub fn to_comment(&self) -> String {
        format!(
            "{SNAPSHOT_TAG} grid={} scenario={} policy={} seed={} hash={:016x}",
            encode(&self.grid),
            encode(&self.scenario),
            encode(&self.policy),
            self.seed,
            self.structural_hash
        )
    }

    /// Finds and parses the provenance line of a snapshot file's text.
    /// `None` if the file carries no provenance (hand-written snapshots
    /// are legitimate); an error if a provenance line is present but
    /// malformed.
    ///
    /// # Errors
    ///
    /// A message naming the offending line and field.
    pub fn parse(text: &str) -> Result<Option<SnapshotMeta>, String> {
        let Some(line) = text.lines().find(|l| l.starts_with(SNAPSHOT_TAG)) else {
            return Ok(None);
        };
        let mut grid = None;
        let mut scenario = None;
        let mut policy = None;
        let mut seed = None;
        let mut hash = None;
        for field in line[SNAPSHOT_TAG.len()..].split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad snapshot field `{field}` in `{line}`"))?;
            let label = || decode(value).ok_or_else(|| format!("bad escape in `{field}`"));
            match key {
                "grid" => grid = Some(label()?),
                "scenario" => scenario = Some(label()?),
                "policy" => policy = Some(label()?),
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("non-numeric seed in `{line}`"))?,
                    )
                }
                "hash" => {
                    hash = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| format!("non-hex hash in `{line}`"))?,
                    )
                }
                other => return Err(format!("unknown snapshot field `{other}` in `{line}`")),
            }
        }
        let missing = |what: &str| format!("snapshot line missing `{what}`: `{line}`");
        Ok(Some(SnapshotMeta {
            grid: grid.ok_or_else(|| missing("grid"))?,
            scenario: scenario.ok_or_else(|| missing("scenario"))?,
            policy: policy.ok_or_else(|| missing("policy"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            structural_hash: hash.ok_or_else(|| missing("hash"))?,
        }))
    }
}

/// Percent-encodes `%` and whitespace in a label, byte by byte.
fn encode(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c == '%' || c.is_whitespace() {
            for byte in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push_str(&format!("%{byte:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The inverse of [`encode`]: `None` on a `%` not followed by two hex
/// digits, or on escapes that do not decode to UTF-8.
fn decode(value: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(value.len());
    let mut rest = value.as_bytes();
    while let Some((&byte, tail)) = rest.split_first() {
        rest = tail;
        if byte != b'%' {
            bytes.push(byte);
            continue;
        }
        let [hi, lo, tail @ ..] = rest else {
            return None;
        };
        let digit = |b: u8| char::from(b).to_digit(16);
        bytes.push((digit(*hi)? * 16 + digit(*lo)?) as u8);
        rest = tail;
    }
    String::from_utf8(bytes).ok()
}

impl fmt::Display for SnapshotMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{} seed {} (hash {:016x})",
            self.grid, self.scenario, self.policy, self.seed, self.structural_hash
        )
    }
}

/// Writes a snapshot file: the provenance comment followed by the
/// exported tables document. The result parses with
/// [`FrozenSnapshot::parse`](cohmeleon_core::FrozenSnapshot::parse) and
/// with [`SnapshotMeta::parse`].
///
/// # Errors
///
/// Filesystem errors from the write.
pub fn write_snapshot(path: &Path, meta: &SnapshotMeta, tables: &str) -> io::Result<()> {
    std::fs::write(path, format!("{}\n{tables}", meta.to_comment()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            grid: "suite".into(),
            scenario: "soc1".into(),
            policy: "cohmeleon".into(),
            seed: 3,
            structural_hash: 0xdead_beef_0123_4567,
        }
    }

    #[test]
    fn comment_round_trips() {
        let m = meta();
        let text = format!(
            "{}\n# cohmeleon q-table v1\n0\t0\t0\t0\t0\n",
            m.to_comment()
        );
        assert_eq!(SnapshotMeta::parse(&text).unwrap().unwrap(), m);
    }

    #[test]
    fn labels_with_whitespace_and_percent_round_trip() {
        for policy in [
            "full system (4 modes, approx attribution, ε₀=0.5)",
            "100%\tcoherent %41",
        ] {
            let m = SnapshotMeta {
                policy: policy.into(),
                ..meta()
            };
            let line = m.to_comment();
            assert_eq!(line.split_whitespace().count(), 8, "{line}");
            assert_eq!(SnapshotMeta::parse(&line), Ok(Some(m)), "{line}");
        }
        assert!(meta().to_comment().contains(" policy=cohmeleon "));
    }

    #[test]
    fn malformed_escapes_are_errors() {
        for policy in ["%", "a%4", "%zz", "%+1", "%FF", "%E2%82"] {
            let line = format!("# snapshot v1 grid=g scenario=s policy={policy} seed=1 hash=0");
            assert!(SnapshotMeta::parse(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn absent_provenance_is_none() {
        assert_eq!(
            SnapshotMeta::parse("# cohmeleon q-table v1\n0\t0\t0\t0\t0\n").unwrap(),
            None
        );
    }

    #[test]
    fn malformed_provenance_is_an_error() {
        assert!(SnapshotMeta::parse("# snapshot v1 grid=suite seed=x\n").is_err());
        assert!(SnapshotMeta::parse("# snapshot v1 grid=suite\n").is_err()); // missing fields
        assert!(SnapshotMeta::parse("# snapshot v1 mystery=1\n").is_err());
    }

    #[test]
    fn written_file_parses_as_frozen_snapshot() {
        let tables = "# cohmeleon q-table v1\n0\t1\t0\t0\t0\n1\t0\t2\t0\t0\n";
        let dir =
            std::env::temp_dir().join(format!("cohmeleon-exp-snapshot-{}.tsv", std::process::id()));
        write_snapshot(&dir, &meta(), tables).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        let snap = cohmeleon_core::FrozenSnapshot::parse(&text, 2).unwrap();
        assert_eq!(snap.states(), 2);
        assert_eq!(SnapshotMeta::parse(&text).unwrap().unwrap(), meta());
        let _ = std::fs::remove_file(&dir);
    }
}
