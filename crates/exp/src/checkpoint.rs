//! Checkpointed, resumable sweep runs.
//!
//! A long grid sweep should survive being killed: every completed cell is
//! already on disk as one [`CellRecord`] JSONL line, so restarting only
//! needs to *skip* the cells whose coordinates are present and run the
//! rest. This module is that layer, and the one path by which any cell,
//! run in-process or on a fleet worker, reaches disk:
//!
//! * [`scan_jsonl_tail`] — a corruption-tolerant loader: a partial run's
//!   file may end in a torn line (the process died mid-write); the scan
//!   accepts every complete line and drops at most the final, incomplete
//!   one. A malformed line *before* the tail is real corruption and is
//!   reported as an error instead.
//! * [`Checkpoint`] — the loaded state of a partial run, validated against
//!   the grid it resumes (coordinates in range, labels and seeds
//!   matching), deduplicated by cell coordinate (identical duplicates
//!   collapse; conflicting ones are an error). [`Checkpoint::ingest`] is
//!   that exactly-once rule, applied to every line [`Checkpoint::load`]
//!   reads and to every `RECORD` the fleet queen receives.
//! * [`SweepGrid::run_resumable`] — the one-call driver: load the
//!   checkpoint, run only the missing cells, append each fresh record
//!   with an fsync (one durable line per completed cell), and — once the
//!   grid is complete — atomically rewrite the file in canonical dense
//!   order, so the final artifact is **bit-identical** to an
//!   uninterrupted [`Serial`](crate::Serial) run no matter how many times
//!   the sweep was interrupted or which executor ran it.
//! * [`CheckpointWriter`] and [`finalize_canonical`] — the write half and
//!   the only JSONL writers, public so the fleet queen in
//!   `cohmeleon-fleet` (which receives records over TCP) speaks the
//!   identical on-disk discipline and lands on the identical canonical
//!   bytes.
//! * [`Checkpoint::reuse_from`] — grown-grid reuse: seed a new grid's
//!   checkpoint from an *old* grid's file by [`ContentKey`] (labels +
//!   effective seed, which survive index shifts), so adding a seed or a
//!   policy recomputes only the new cells.
//!
//! The write discipline is: the file is opened in *append* mode and each
//! record is written as a single `write_all` of `line + "\n"` followed by
//! `File::sync_data`. Cells cost seconds of simulation; an fsync per cell
//! is noise, and it means a kill at any instant loses at most the line
//! being written — exactly the case [`scan_jsonl_tail`] tolerates. Append
//! mode also means two processes accidentally resuming the same file
//! interleave whole lines rather than bytes; the duplicated cells they
//! produce are byte-identical and collapse on the next load. (Racing
//! resumes waste work and are not a supported workflow — a fleet queen,
//! the one writer its workers report to, is — but they degrade to
//! duplicates, not corruption.)

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::executor::Executor;
use crate::grid::{CellId, SweepGrid};
use crate::sink::CellRecord;

/// A cell's stable coordinate on its grid:
/// `(scenario_index, policy_index, seed_index)`.
///
/// [`Checkpoint::ingest`] keys on this triple; lexicographic
/// order over it equals the grid's dense
/// [`cell_index`](SweepGrid::cell_index) order, which is what makes the
/// canonical record stream well-defined without the grid in hand.
pub type CellCoord = (usize, usize, usize);

/// A cell's *content-stable* coordinate: `(scenario label, policy label,
/// effective seed)`.
///
/// Unlike [`CellCoord`], this key survives the grid being *grown*: adding
/// a seed, a policy, or a scenario shifts dense indices around, but a
/// cell's labels and effective seed — which are what determine its result
/// — do not move. [`Checkpoint::reuse_from`] keys on this to carry
/// completed cells from an old grid's file into a grown grid's
/// checkpoint. The key is only meaningful within one experiment family
/// (same workloads and generator parameters behind the labels); reusing a
/// file from an unrelated experiment that happens to share labels is the
/// caller's bug, exactly as it is for resuming one.
pub type ContentKey = (String, String, u64);

impl CellRecord {
    /// This record's [`CellCoord`].
    pub fn coord(&self) -> CellCoord {
        (self.scenario_index, self.policy_index, self.seed_index)
    }

    /// This record's [`ContentKey`]: `(scenario, policy, seed)` by label
    /// and effective value rather than by axis index.
    pub fn content_key(&self) -> ContentKey {
        (self.scenario.clone(), self.policy.clone(), self.seed)
    }
}

/// The result of tolerantly scanning a partial run's JSONL text.
#[derive(Debug, Clone)]
pub struct ScannedRun {
    /// Every record parsed from a complete line, in file order (not
    /// deduplicated — [`Checkpoint::load`] does that).
    pub records: Vec<CellRecord>,
    /// Byte length of the file prefix made of complete, parseable lines.
    /// Resuming truncates the file to this length before appending.
    pub valid_len: u64,
    /// Whether a torn tail line (truncated mid-write) was dropped.
    pub dropped_tail: bool,
}

/// Scans a partial run's JSONL, tolerating a torn final line.
///
/// Rules: a newline-terminated line that parses is a record; an empty
/// line is skipped; the *final* line is dropped (and reported via
/// [`ScannedRun::dropped_tail`]) if it fails to parse **or** lacks its
/// trailing newline — both are what a mid-write kill leaves behind. A
/// malformed line anywhere else is corruption, not interruption, and is
/// returned as an error naming the line.
///
/// # Errors
///
/// Returns `"line N: ..."` for a malformed non-tail line.
pub fn scan_jsonl_tail(text: &str) -> Result<ScannedRun, String> {
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut dropped_tail = false;
    let mut pos = 0usize;
    let mut line_no = 0usize;
    while pos < text.len() {
        line_no += 1;
        let (end, terminated) = match text[pos..].find('\n') {
            Some(i) => (pos + i + 1, true),
            None => (text.len(), false),
        };
        let line = text[pos..end].trim_end_matches('\n');
        let is_tail = end == text.len();
        if line.trim().is_empty() {
            if terminated {
                valid_len = end as u64;
            }
            pos = end;
            continue;
        }
        match CellRecord::from_json(line) {
            Ok(record) if terminated => {
                records.push(record);
                valid_len = end as u64;
            }
            Ok(_) => {
                // Parseable but unterminated: the newline of the
                // line+newline write never hit the disk. Re-running the
                // cell reproduces the identical line, so drop it rather
                // than special-case an append that must splice a newline.
                dropped_tail = true;
            }
            Err(e) if is_tail => {
                dropped_tail = true;
                let _ = e;
            }
            Err(e) => return Err(format!("line {line_no}: {e}")),
        }
        pos = end;
    }
    Ok(ScannedRun {
        records,
        valid_len,
        dropped_tail,
    })
}

/// Serialises records as the canonical JSONL stream: one
/// [`CellRecord::to_json`] line per record, sorted by [`CellCoord`] —
/// byte-identical to the finished checkpoint of the records' grid,
/// whatever order the records were produced in.
pub fn canonical_jsonl(records: &[CellRecord]) -> String {
    let mut sorted: Vec<&CellRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.coord());
    let mut out = String::new();
    for record in sorted {
        out.push_str(&record.to_json());
        out.push('\n');
    }
    out
}

/// Sorts records in place into canonical (dense cell-coordinate) order.
pub fn sort_canonical(records: &mut [CellRecord]) {
    records.sort_by_key(|r| r.coord());
}

/// The loaded, validated state of a partial run on disk.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    records: Vec<CellRecord>,
    by_coord: HashMap<CellCoord, usize>,
    valid_len: u64,
    dropped_tail: bool,
    duplicates: usize,
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Checks that `record` could have been produced by a cell of `grid`:
/// coordinates in range, scenario/policy labels matching the grid's axes,
/// and the effective seed matching [`SweepGrid::cell_seed`]. This is what
/// stops a checkpoint from silently resuming *someone else's* sweep, or a
/// fleet queen from persisting a worker's record of another grid.
fn validate_record(record: &CellRecord, grid: &SweepGrid) -> Result<(), String> {
    let (s, p, k) = record.coord();
    if s >= grid.scenarios().len() || p >= grid.policies().len() || k >= grid.seeds().len() {
        return Err(format!(
            "cell ({s}, {p}, {k}) is outside the {}x{}x{} grid",
            grid.scenarios().len(),
            grid.policies().len(),
            grid.seeds().len()
        ));
    }
    let scenario = &grid.scenarios()[s].label;
    if record.scenario != *scenario {
        return Err(format!(
            "cell ({s}, {p}, {k}) names scenario `{}` but the grid has `{scenario}`",
            record.scenario
        ));
    }
    let policy = grid.policies()[p].policy_label();
    if record.policy != policy {
        return Err(format!(
            "cell ({s}, {p}, {k}) names policy `{}` but the grid has `{policy}`",
            record.policy
        ));
    }
    let cell = CellId {
        scenario: s,
        policy: p,
        seed: k,
    };
    let seed = grid.cell_seed(cell);
    if record.seed != seed {
        return Err(format!(
            "cell ({s}, {p}, {k}) ran under seed {} but the grid derives {seed}",
            record.seed
        ));
    }
    Ok(())
}

impl Checkpoint {
    /// Loads the partial run at `path` and validates it against `grid`.
    ///
    /// A missing file is an empty checkpoint (a fresh run). Every record
    /// passes [`ingest`](Self::ingest): identical duplicates collapse
    /// (overlapping resumed runs produce them legitimately); duplicates
    /// that *disagree* are an error, as is any record that does not match
    /// the grid (see the module docs).
    ///
    /// # Errors
    ///
    /// I/O errors reading the file; `InvalidData` for mid-file
    /// corruption, grid mismatches, or conflicting duplicates.
    pub fn load(path: impl AsRef<Path>, grid: &SweepGrid) -> io::Result<Checkpoint> {
        let text = match std::fs::read_to_string(path.as_ref()) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let scanned = scan_jsonl_tail(&text).map_err(invalid_data)?;
        let mut checkpoint = Checkpoint {
            records: Vec::with_capacity(scanned.records.len()),
            by_coord: HashMap::with_capacity(scanned.records.len()),
            valid_len: scanned.valid_len,
            dropped_tail: scanned.dropped_tail,
            duplicates: 0,
        };
        for record in scanned.records {
            checkpoint.ingest(record, grid).map_err(invalid_data)?;
        }
        Ok(checkpoint)
    }

    /// Keeps one record per [`CellCoord`] — the exactly-once rule for
    /// every record read from disk and every record a fleet worker
    /// streams back. The record is first validated against `grid`. A
    /// fresh cell is kept and returns `Ok(true)`; an identical duplicate
    /// is counted in [`duplicates`](Self::duplicates) and returns
    /// `Ok(false)`.
    ///
    /// # Errors
    ///
    /// A record whose coordinates, labels or seed do not match `grid`, or
    /// one that disagrees with the record already kept for its cell —
    /// cells are pure functions of their coordinates, so disagreement
    /// means another grid's results or a broken determinism invariant.
    pub fn ingest(&mut self, record: CellRecord, grid: &SweepGrid) -> Result<bool, String> {
        validate_record(&record, grid)?;
        match self.by_coord.entry(record.coord()) {
            Entry::Occupied(existing) => {
                if self.records[*existing.get()] != record {
                    return Err(format!(
                        "cell {:?} appears twice with different results",
                        record.coord()
                    ));
                }
                self.duplicates += 1;
                Ok(false)
            }
            Entry::Vacant(slot) => {
                slot.insert(self.records.len());
                self.records.push(record);
                Ok(true)
            }
        }
    }

    /// The deduplicated records, in ingest order.
    pub fn records(&self) -> &[CellRecord] {
        &self.records
    }

    /// The deduplicated records, in ingest order, without a copy.
    pub fn into_records(self) -> Vec<CellRecord> {
        self.records
    }

    /// Number of distinct cells already on disk.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no cell has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a torn tail line was dropped during loading.
    pub fn dropped_tail(&self) -> bool {
        self.dropped_tail
    }

    /// Byte length of the on-disk prefix made of complete lines — what
    /// [`CheckpointWriter::open`] truncates to before appending, so a
    /// torn tail never leaks into the stream.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// How many identical duplicate records were collapsed.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Whether `coord` already has a record.
    pub fn contains(&self, coord: CellCoord) -> bool {
        self.by_coord.contains_key(&coord)
    }

    /// Dense indices of `grid` cells **not** in this checkpoint, in dense
    /// order — the work a resumed run still owes.
    pub fn pending(&self, grid: &SweepGrid) -> Vec<usize> {
        grid.cells()
            .enumerate()
            .filter(|(_, cell)| !self.contains((cell.scenario, cell.policy, cell.seed)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Seeds the checkpoint at `path` (for a run of `grid`) with every
    /// cell of the *old* run at `old_path` whose [`ContentKey`] matches a
    /// cell of `grid` — so a **grown** grid (one more seed, policy, or
    /// scenario) reuses every overlapping result instead of recomputing
    /// the world.
    ///
    /// Matching is by content, not position: a reused record's three
    /// index fields are rewritten to the cell's coordinates on the *new*
    /// grid before it is appended, so the seeded checkpoint is
    /// indistinguishable from one the new grid produced itself, and the
    /// eventual finished file is byte-identical to a from-scratch run.
    /// Old records with no matching cell (a policy that was dropped, say)
    /// are counted in [`ReuseReport::unmatched`] and skipped; cells
    /// already present in the checkpoint at `path` are left alone and
    /// counted in [`ReuseReport::already`].
    ///
    /// The old file is loaded with the same tolerance as a resume: a torn
    /// tail is dropped, identical duplicate lines collapse. Call this
    /// *before* [`SweepGrid::run_resumable`]; the run then only owes the
    /// genuinely new cells.
    ///
    /// # Errors
    ///
    /// I/O errors reading or appending; `InvalidData` for mid-file
    /// corruption in the old file, for old records that disagree with the
    /// new grid's derived seed under their labels, or for conflicting
    /// duplicates in either file.
    pub fn reuse_from(
        path: impl AsRef<Path>,
        old_path: impl AsRef<Path>,
        grid: &SweepGrid,
    ) -> io::Result<ReuseReport> {
        let path = path.as_ref();
        let old_text = std::fs::read_to_string(old_path.as_ref())?;
        let scanned = scan_jsonl_tail(&old_text).map_err(invalid_data)?;

        // Index the old run by content key. The old grid is not in hand
        // (and need not be): labels + effective seed are the identity.
        let mut by_key: HashMap<ContentKey, CellRecord> = HashMap::new();
        for record in scanned.records {
            match by_key.entry(record.content_key()) {
                Entry::Occupied(existing) => {
                    // Identity excludes the index fields, which racing
                    // attempts could not have disagreed on anyway — but
                    // compare the full record so silent payload
                    // divergence is an error, not a coin flip.
                    if *existing.get() != record {
                        return Err(invalid_data(format!(
                            "old run has conflicting records for ({}, {}, seed {})",
                            record.scenario, record.policy, record.seed
                        )));
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(record);
                }
            }
        }

        let checkpoint = Checkpoint::load(path, grid)?;
        let mut writer = CheckpointWriter::open(path, checkpoint.valid_len)?;
        let mut report = ReuseReport::default();
        let mut matched: std::collections::HashSet<ContentKey> = std::collections::HashSet::new();
        for cell in grid.cells() {
            let coord = (cell.scenario, cell.policy, cell.seed);
            let key: ContentKey = (
                grid.scenarios()[cell.scenario].label.clone(),
                grid.policies()[cell.policy].policy_label().to_string(),
                grid.cell_seed(cell),
            );
            let Some(old) = by_key.get(&key) else {
                continue;
            };
            matched.insert(key);
            if checkpoint.contains(coord) {
                report.already += 1;
                continue;
            }
            // Remap the dense coordinates to where this cell lives on
            // the grown grid; everything content-bearing is untouched.
            let mut record = old.clone();
            record.scenario_index = cell.scenario;
            record.policy_index = cell.policy;
            record.seed_index = cell.seed;
            validate_record(&record, grid).map_err(invalid_data)?;
            writer.append(&record)?;
            report.reused += 1;
        }
        report.unmatched = by_key.len() - matched.len();
        Ok(report)
    }
}

/// What [`Checkpoint::reuse_from`] carried over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseReport {
    /// Old cells appended into the new checkpoint (remapped coords).
    pub reused: usize,
    /// Old cells with no matching cell on the new grid, skipped.
    pub unmatched: usize,
    /// New-grid cells already present in the checkpoint, left alone.
    pub already: usize,
}

/// What a resumable run did, and the complete record set if it finished.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// All records, in canonical dense order. Complete exactly when
    /// [`complete`](Self::complete) is true (a capped run returns only
    /// what exists so far).
    pub records: Vec<CellRecord>,
    /// Cells found on disk and skipped.
    pub reused: usize,
    /// Cells simulated by this run.
    pub ran: usize,
    /// Whether a torn tail line was dropped (and its cell re-run).
    pub dropped_tail: bool,
    /// Whether every grid cell now has a record. Only a complete run
    /// rewrites the file into canonical order; an interrupted (capped)
    /// run leaves it append-ordered for the next resume.
    pub complete: bool,
}

/// The durable append handle of a partial run: one fsynced JSONL line
/// per record, opened on a clean line boundary.
///
/// This is the write half of the checkpoint discipline
/// ([`SweepGrid::run_resumable`] and the fleet queen both speak it): open
/// in append mode truncated to the checkpoint's
/// [`valid_len`](Checkpoint::valid_len) (cutting off any torn tail), then
/// append each record as a single `write_all` of `line + "\n"` followed
/// by `File::sync_data` — a kill at any instant loses at most the line in
/// flight, which the next [`Checkpoint::load`] tolerates.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Opens `path` for durable appends, truncated to `valid_len` (from
    /// the [`Checkpoint`] just loaded) so writing resumes on a line
    /// boundary. Creates the file if missing (`valid_len` 0).
    ///
    /// # Errors
    ///
    /// The underlying open/truncate I/O error.
    pub fn open(path: impl AsRef<Path>, valid_len: u64) -> io::Result<CheckpointWriter> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        // Cut off the torn tail (if any) so appends start on a line
        // boundary (append mode repositions to the new EOF by itself).
        file.set_len(valid_len)?;
        Ok(CheckpointWriter { file })
    }

    /// Appends one record as a durable line: a single `write_all`
    /// followed by `sync_data`.
    ///
    /// # Errors
    ///
    /// The underlying write/fsync I/O error; the line may be torn on
    /// disk, which the next load drops and re-runs.
    pub fn append(&mut self, record: &CellRecord) -> io::Result<()> {
        let line = format!("{}\n", record.to_json());
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Atomically replaces `path` with the canonical serialisation of
/// `records`: write a sibling `<path>.tmp`, fsync it, then rename over
/// `path` — a kill during finalisation leaves either the old
/// (append-ordered, still resumable) file or the new canonical one,
/// never a mix.
///
/// # Errors
///
/// The underlying write/fsync/rename I/O error.
pub fn finalize_canonical(path: &Path, records: &[CellRecord]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(canonical_jsonl(records).as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

impl SweepGrid {
    /// Runs this grid resumably against the checkpoint file at `path`.
    ///
    /// Loads the checkpoint (a missing file means a fresh run), skips
    /// every cell already recorded, runs the rest under `executor`
    /// appending one fsynced line per completed cell, and finally
    /// rewrites the file atomically in canonical dense order — so the
    /// finished artifact is byte-identical to an uninterrupted
    /// [`Serial`](crate::Serial) run regardless of interruptions,
    /// executor, or how the work was split across resumes.
    ///
    /// ```
    /// use cohmeleon_exp::{Experiment, PolicyKind, Serial};
    /// use cohmeleon_soc::config::soc1;
    /// use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
    ///
    /// let dir = std::env::temp_dir()
    ///     .join(format!("cohmeleon-resume-doctest-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("run.jsonl");
    /// let _ = std::fs::remove_file(&path);
    ///
    /// let config = soc1();
    /// let params = GeneratorParams { phases: 1, ..GeneratorParams::quick() };
    /// let app = generate_app(&config, &params, 1);
    /// let grid = Experiment::evaluate(config, app)
    ///     .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    ///
    /// // The first run simulates both cells and checkpoints them.
    /// let first = grid.run_resumable(&path, &Serial).unwrap();
    /// assert_eq!((first.reused, first.ran), (0, 2));
    ///
    /// // A re-run finds every cell on disk and simulates nothing.
    /// let again = grid.run_resumable(&path, &Serial).unwrap();
    /// assert_eq!((again.reused, again.ran), (2, 0));
    /// assert_eq!(again.records, first.records);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Checkpoint I/O or validation errors (see [`Checkpoint::load`]).
    pub fn run_resumable<E: Executor + ?Sized>(
        &self,
        path: impl AsRef<Path>,
        executor: &E,
    ) -> io::Result<ResumeOutcome> {
        self.run_resumable_capped(path, executor, usize::MAX)
    }

    /// [`run_resumable`](Self::run_resumable), but simulating at most
    /// `max_cells` missing cells before returning — the deterministic
    /// stand-in for "the sweep got killed part-way" that tests and the CI
    /// resume smoke rely on. A capped run never canonicalises the file;
    /// resume it (capped or not) to make progress and finalise.
    ///
    /// # Errors
    ///
    /// As for [`run_resumable`](Self::run_resumable).
    pub fn run_resumable_capped<E: Executor + ?Sized>(
        &self,
        path: impl AsRef<Path>,
        executor: &E,
        max_cells: usize,
    ) -> io::Result<ResumeOutcome> {
        let path = path.as_ref();
        let checkpoint = Checkpoint::load(path, self)?;
        let pending = checkpoint.pending(self);
        let todo = &pending[..pending.len().min(max_cells)];
        let complete = todo.len() == pending.len();
        let reused = checkpoint.len();
        let dropped_tail = checkpoint.dropped_tail();

        // Append mode: every record line lands atomically at EOF, so even
        // two processes resuming the same checkpoint interleave whole
        // lines, never bytes — their duplicated cells then collapse on
        // the next load instead of corrupting the file.
        let mut writer = CheckpointWriter::open(path, checkpoint.valid_len())?;
        let mut records = checkpoint.into_records();
        executor.run(
            todo.len(),
            &|i| self.run_cell(self.cell_at(todo[i])),
            &mut |_, result| {
                let record = CellRecord::from_cell(&result);
                // Write errors panic: a sweep that silently loses results
                // is worse than one that stops.
                writer.append(&record).expect("append checkpoint record");
                records.push(record);
            },
        );
        drop(writer);
        let ran = records.len() - reused;

        sort_canonical(&mut records);
        if complete {
            finalize_canonical(path, &records)?;
        }
        Ok(ResumeOutcome {
            records,
            reused,
            ran,
            dropped_tail,
            complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(coord: CellCoord) -> CellRecord {
        CellRecord {
            scenario_index: coord.0,
            policy_index: coord.1,
            seed_index: coord.2,
            scenario: "soc1".into(),
            policy: format!("p{}", coord.1),
            seed: 7,
            total_cycles: 100 + coord.2 as u64,
            total_offchip: 3,
            invocations: 2,
            structural_hash: 0xabc,
            phases: vec![("phase-0".into(), 100, 3)],
        }
    }

    #[test]
    fn scan_accepts_complete_lines_and_drops_torn_tail() {
        let a = record((0, 0, 0)).to_json();
        let b = record((0, 1, 0)).to_json();
        let full = format!("{a}\n{b}\n");
        let scanned = scan_jsonl_tail(&full).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, full.len() as u64);
        assert!(!scanned.dropped_tail);

        // Torn mid-line tail: only the complete prefix survives.
        let torn = format!("{a}\n{}", &b[..b.len() / 2]);
        let scanned = scan_jsonl_tail(&torn).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.valid_len, (a.len() + 1) as u64);
        assert!(scanned.dropped_tail);

        // A parseable but unterminated tail is also treated as torn.
        let unterminated = format!("{a}\n{b}");
        let scanned = scan_jsonl_tail(&unterminated).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.dropped_tail);
    }

    #[test]
    fn scan_rejects_mid_file_corruption() {
        let a = record((0, 0, 0)).to_json();
        let b = record((0, 1, 0)).to_json();
        let corrupt = format!("{a}\nnot json\n{b}\n");
        let err = scan_jsonl_tail(&corrupt).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn canonical_jsonl_sorts_by_coordinate() {
        let records = vec![record((0, 1, 1)), record((0, 0, 0)), record((0, 1, 0))];
        let text = canonical_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(CellRecord::from_json(lines[0]).unwrap().coord(), (0, 0, 0));
        assert_eq!(CellRecord::from_json(lines[2]).unwrap().coord(), (0, 1, 1));
    }
}
