//! The queen: owns one grid and one checkpoint file, leases work out,
//! and persists every record a worker streams back.
//!
//! The queen is the *only* writer. Each `RECORD` line goes through
//! [`Checkpoint::ingest`] on the loaded checkpoint — the exactly-once
//! rule a local resume applies to the file: the record is validated
//! against the grid, identical duplicates from speculative twins
//! collapse, and conflicting results abort the run (they mean the
//! determinism invariant broke, which no amount of retrying fixes). A
//! fresh record is then appended durably through the same
//! [`CheckpointWriter`] discipline a local resumable run uses. A killed
//! queen therefore resumes exactly like a killed local sweep: reload the
//! checkpoint, lease out what is missing.
//!
//! [`run_local`] is the one-machine form: the queen on a loopback port
//! plus worker processes it spawns and reaps itself — how `sweep shard`
//! spreads a sweep over processes.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cohmeleon_chaos::{AcceptWaker, FaultPlan, FaultyTransport, Role};
use cohmeleon_exp::checkpoint::sort_canonical;
use cohmeleon_exp::{
    finalize_canonical, CellId, CellRecord, Checkpoint, CheckpointWriter, SweepGrid,
};

use crate::lease::{Grant, LeaseTable};
use crate::protocol::{LineReader, ToQueen, ToWorker};

/// Tuning knobs for [`run_queen`].
#[derive(Debug, Clone)]
pub struct QueenOptions {
    /// The registry name workers rebuild the grid from.
    pub grid_name: String,
    /// Whether workers should rebuild at the reduced `COHMELEON_FAST`
    /// scale (the queen's own scale — both sides must agree).
    pub fast: bool,
    /// Cells per lease. `None` picks `ceil(pending / 8)` clamped to
    /// `1..=64`: small enough that a handful of workers all get work,
    /// large enough that the protocol is not one round-trip per cell.
    pub chunk: Option<usize>,
    /// Lease deadline: a lease silent past this is eligible for
    /// speculative re-dispatch to another worker.
    pub ttl: Duration,
    /// Stop after persisting this many fresh cells — the deterministic
    /// stand-in for "the queen got killed part-way" (the networked
    /// sibling of `run_resumable_capped`). Workers asking for work after
    /// the cap are told `DONE` so they exit cleanly.
    pub max_cells: usize,
    /// Emit a status line (progress, per-worker throughput, lease ages,
    /// speculation count) to stderr this often while the run is live.
    /// `None` keeps the queen silent until the final report.
    pub status_every: Option<Duration>,
    /// Seeded network fault injection: when set, every accepted worker
    /// connection is wrapped in a [`FaultyTransport`] playing
    /// [`Role::Queen`]. `None` is the plain direct path.
    pub chaos: Option<FaultPlan>,
}

impl QueenOptions {
    /// Defaults: auto chunk, 10 s lease deadline, no cap, no periodic
    /// status.
    pub fn new(grid_name: impl Into<String>, fast: bool) -> QueenOptions {
        QueenOptions {
            grid_name: grid_name.into(),
            fast,
            chunk: None,
            ttl: Duration::from_secs(10),
            max_cells: usize::MAX,
            status_every: None,
            chaos: None,
        }
    }
}

/// What a queen run did.
#[derive(Debug, Clone)]
pub struct QueenReport {
    /// All persisted records, in canonical dense order (complete exactly
    /// when [`complete`](Self::complete) is true).
    pub records: Vec<CellRecord>,
    /// Cells found in the checkpoint and not re-dispatched.
    pub reused: usize,
    /// Fresh cells persisted this run.
    pub ran: usize,
    /// Duplicate completions reconciled (speculative twins finishing the
    /// same cell).
    pub duplicates: usize,
    /// Speculative (twin) leases granted.
    pub speculative: usize,
    /// Distinct worker names that joined.
    pub workers: usize,
    /// Whether every grid cell now has a record; only then was the file
    /// canonicalised.
    pub complete: bool,
}

/// Everything the connection handlers share, under one lock. Cells cost
/// seconds of simulation each; a mutex around bookkeeping is noise.
struct Shared {
    table: LeaseTable,
    /// Every record persisted so far, loaded and fresh alike.
    checkpoint: Checkpoint,
    writer: CheckpointWriter,
    ran: usize,
    capped: bool,
    complete: bool,
    error: Option<String>,
    workers: HashSet<String>,
    /// Records delivered per worker name (fresh and duplicate alike —
    /// this measures worker throughput, not checkpoint novelty).
    delivered: HashMap<String, usize>,
    /// Connection handlers still running.
    handlers: usize,
    /// Worker processes [`run_local`] spawned that have not exited yet.
    children: usize,
}

impl Shared {
    fn finished(&self) -> bool {
        self.complete || self.capped || self.error.is_some()
    }

    /// Whether the accept loop may end: the run is finished and no
    /// handler or local worker process is left that could still talk to
    /// the queen.
    fn drained(&self) -> bool {
        self.finished() && self.handlers == 0 && self.children == 0
    }
}

/// One running queen: the shared state, the condvar its threads wait on,
/// and what the connection handlers need to answer workers.
struct Queen<'a> {
    grid: &'a SweepGrid,
    options: &'a QueenOptions,
    shared: Mutex<Shared>,
    /// Signalled when cells return to the pool and when the run
    /// finishes: the events a parked `LEASE` and the status thread wait
    /// for.
    changed: Condvar,
    /// Unblocks the accept loop once the run is finished and the last
    /// handler and local worker process left.
    waker: AcceptWaker,
}

/// Runs the queen to completion (or to `max_cells`, or to error) and
/// returns what happened.
///
/// The caller binds the listener (so tests can bind `127.0.0.1:0` and
/// read the ephemeral port back). The checkpoint at `path` is loaded
/// first — a killed queen restarted on the same path resumes, leasing
/// out only the missing cells — and on completion the file is atomically
/// rewritten in canonical order, byte-identical to a clean local
/// [`Serial`](cohmeleon_exp::Serial) run.
///
/// # Errors
///
/// Checkpoint I/O or validation errors; `InvalidData` if a worker
/// streamed a record conflicting with the grid or with a previously
/// completed cell.
pub fn run_queen(
    grid: &SweepGrid,
    listener: TcpListener,
    path: impl AsRef<Path>,
    options: &QueenOptions,
) -> io::Result<QueenReport> {
    run(grid, listener, path.as_ref(), options, || Ok(Vec::new()))
}

/// Runs a queen on a loopback port with `workers` (at least one) local
/// worker processes and returns its report: one machine's multi-process
/// sweep. `worker(addr)` builds the command of one worker that connects
/// to the queen at `addr`, such as `sweep worker --connect ADDR` of the
/// current binary.
///
/// Like [`run_queen`], the run resumes the checkpoint at `path` and
/// finalises it byte-identical to a clean [`Serial`](cohmeleon_exp::Serial)
/// run. Workers are spawned only if cells are left to run. A worker
/// process that exits unsuccessfully before the run finishes fails the
/// run, and so does the last one leaving cells unrun; either way the
/// call returns only after every worker process has been reaped.
///
/// # Errors
///
/// Everything [`run_queen`] returns; a worker process that could not be
/// spawned; `InvalidData` naming the exit status of a worker process that
/// failed.
pub fn run_local(
    grid: &SweepGrid,
    path: impl AsRef<Path>,
    options: &QueenOptions,
    workers: usize,
    worker: impl Fn(&str) -> Command,
) -> io::Result<QueenReport> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    run(grid, listener, path.as_ref(), options, || {
        let mut children = Vec::new();
        for _ in 0..workers.max(1) {
            match worker(&addr).spawn() {
                Ok(child) => children.push(child),
                Err(e) => {
                    for mut child in children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    return Err(e);
                }
            }
        }
        Ok(children)
    })
}

/// The queen proper; `spawn` starts [`run_local`]'s worker processes once
/// there is work for them.
fn run(
    grid: &SweepGrid,
    listener: TcpListener,
    path: &Path,
    options: &QueenOptions,
    spawn: impl FnOnce() -> io::Result<Vec<Child>>,
) -> io::Result<QueenReport> {
    let checkpoint = Checkpoint::load(path, grid)?;
    let pending = checkpoint.pending(grid);
    let reused = checkpoint.len();
    if pending.is_empty() {
        let mut records = checkpoint.into_records();
        sort_canonical(&mut records);
        finalize_canonical(path, &records)?;
        return Ok(QueenReport {
            records,
            reused,
            ran: 0,
            duplicates: 0,
            speculative: 0,
            workers: 0,
            complete: true,
        });
    }

    let chunk = options
        .chunk
        .unwrap_or_else(|| pending.len().div_ceil(8).clamp(1, 64));
    let writer = CheckpointWriter::open(path, checkpoint.valid_len())?;
    // `duplicates` reports what this run reconciled, not what `load`
    // collapsed in the file.
    let loaded_duplicates = checkpoint.duplicates();
    let waker = AcceptWaker::new(&listener)?;
    let children = spawn()?;
    let queen = Queen {
        grid,
        options,
        shared: Mutex::new(Shared {
            table: LeaseTable::new(pending.iter().copied(), chunk, options.ttl),
            checkpoint,
            writer,
            ran: 0,
            capped: false,
            complete: false,
            error: None,
            workers: HashSet::new(),
            delivered: HashMap::new(),
            handlers: 0,
            children: children.len(),
        }),
        changed: Condvar::new(),
        waker,
    };

    std::thread::scope(|scope| {
        let queen = &queen;
        if let Some(every) = options.status_every {
            scope.spawn(move || queen.report_status(every));
        }
        for child in children {
            scope.spawn(move || queen.watch(child));
        }
        for accepted in listener.incoming() {
            let mut s = queen.lock();
            if s.drained() {
                break;
            }
            match accepted {
                Ok(stream) => {
                    s.handlers += 1;
                    drop(s);
                    scope.spawn(move || {
                        serve_worker(stream, queen);
                        queen.leave();
                    });
                }
                Err(e) => {
                    s.error = Some(format!("accept failed: {e}"));
                    queen.changed.notify_all();
                    break;
                }
            }
        }
    });

    let shared = queen.shared.into_inner().expect("queen state");
    if let Some(message) = shared.error {
        return Err(io::Error::new(io::ErrorKind::InvalidData, message));
    }
    drop(shared.writer);
    let duplicates = shared.checkpoint.duplicates() - loaded_duplicates;
    let mut records = shared.checkpoint.into_records();
    sort_canonical(&mut records);
    if shared.complete {
        finalize_canonical(path, &records)?;
    }
    Ok(QueenReport {
        records,
        reused,
        ran: shared.ran,
        duplicates,
        speculative: shared.table.speculative(),
        workers: shared.workers.len(),
        complete: shared.complete,
    })
}

impl Queen<'_> {
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("queen state")
    }

    /// Prints a status line every `every` until the run finishes.
    fn report_status(&self, every: Duration) {
        let started = Instant::now();
        let mut s = self.lock();
        loop {
            let (guard, wait) = self
                .changed
                .wait_timeout_while(s, every, |s| !s.finished())
                .expect("queen state");
            s = guard;
            if !wait.timed_out() {
                return;
            }
            let mut delivered: Vec<(String, usize)> = s
                .delivered
                .iter()
                .map(|(name, &cells)| (name.clone(), cells))
                .collect();
            delivered.sort();
            eprintln!(
                "{}",
                status_line(
                    s.checkpoint.len(),
                    self.grid.num_cells(),
                    started.elapsed(),
                    &delivered,
                    &s.table.lease_stats(Instant::now()),
                    s.table.speculative(),
                )
            );
        }
    }

    /// Answers a `LEASE`: a lease when one can be granted, `DONE` once the
    /// run is over. Otherwise the request parks until cells return to the
    /// pool, the run finishes, or the earliest lease deadline passes and a
    /// speculative twin can be granted. `None` means the run failed and the
    /// connection should close.
    fn lease(&self, worker: &str) -> Option<ToWorker> {
        let mut s = self.lock();
        loop {
            if s.error.is_some() {
                return None;
            }
            if s.complete || s.capped {
                return Some(ToWorker::Complete);
            }
            let now = Instant::now();
            match s.table.grant(worker, now) {
                Grant::Lease { id, start, len } => return Some(ToWorker::Lease { id, start, len }),
                Grant::Complete => return Some(ToWorker::Complete),
                Grant::Wait => {
                    s = match s.table.next_deadline() {
                        Some(deadline) => {
                            let wait = deadline.saturating_duration_since(now);
                            self.changed.wait_timeout(s, wait).expect("queen state").0
                        }
                        None => self.changed.wait(s).expect("queen state"),
                    };
                }
            }
        }
    }

    /// Counts a finished connection handler out. The last one out of a
    /// finished run wakes the accept loop, which then returns.
    fn leave(&self) {
        let mut s = self.lock();
        s.handlers -= 1;
        if s.drained() {
            drop(s);
            self.waker.wake();
        }
    }

    /// Reaps one local worker process. If it failed, or was the last one
    /// and left cells unrun, the run fails: nobody is left to finish it.
    fn watch(&self, mut child: Child) {
        let status = child.wait();
        let mut s = self.lock();
        s.children -= 1;
        if !s.finished() {
            s.error = match status {
                Ok(status) if status.success() && s.children > 0 => None,
                Ok(status) if status.success() => {
                    Some("every worker process exited before the run finished".into())
                }
                Ok(status) => Some(format!("worker process failed: {status}")),
                Err(e) => Some(format!("cannot wait on a worker process: {e}")),
            };
            self.changed.notify_all();
        }
        if s.drained() {
            drop(s);
            self.waker.wake();
        }
    }
}

/// One worker connection, handled on its own thread until the worker
/// leaves, violates the protocol, or the run finishes.
///
/// All failure modes converge on the same safe exit: release this
/// connection's leases (returning uncovered cells to the pool) and close
/// the socket. The reads poll with a short timeout so the handler can
/// notice the run finishing even under a silent peer; once finished it
/// lingers one lease-TTL to answer a final `LEASE` with `DONE` (letting
/// well-behaved workers exit cleanly) before giving up on the
/// connection.
fn serve_worker(stream: TcpStream, queen: &Queen) {
    let (grid, options) = (queen.grid, queen.options);
    let _ = stream.set_nodelay(true);
    let Ok(stream) = FaultyTransport::from_plan(stream, options.chaos.as_ref(), Role::Queen) else {
        return;
    };
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    let mut granted: Vec<u64> = Vec::new();
    let mut worker_name = String::new();
    let grace = options.ttl;
    let mut finish_seen: Option<Instant> = None;

    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if queen.lock().finished() {
                    let since = *finish_seen.get_or_insert_with(Instant::now);
                    if since.elapsed() >= grace {
                        break;
                    }
                }
                continue;
            }
            Err(_) => break,
        };
        let Ok(message) = ToQueen::parse(&line) else {
            break;
        };
        if worker_name.is_empty() {
            let ToQueen::Hello { name } = message else {
                break;
            };
            let hello = ToWorker::Hello {
                grid: options.grid_name.clone(),
                fast: options.fast,
                cells: grid.num_cells(),
                ttl_ms: options.ttl.as_millis() as u64,
            };
            worker_name = name.clone();
            queen.lock().workers.insert(name);
            if write_line(&mut writer, &hello).is_err() {
                break;
            }
            continue;
        }
        match message {
            ToQueen::Hello { .. } => break,
            ToQueen::Lease => {
                let Some(reply) = queen.lease(&worker_name) else {
                    break;
                };
                if let ToWorker::Lease { id, .. } = reply {
                    granted.push(id);
                }
                if write_line(&mut writer, &reply).is_err() {
                    break;
                }
            }
            ToQueen::Record { lease, json } => {
                let Ok(record) = CellRecord::from_json(&json) else {
                    break;
                };
                let mut s = queen.lock();
                if s.error.is_some() {
                    break;
                }
                if s.complete || s.capped {
                    // The run is over (or the queen is "dead" past its
                    // cap): late speculative results are dropped, the
                    // checkpoint stays frozen.
                    continue;
                }
                let (scenario, policy, seed) = record.coord();
                let state = &mut *s;
                let fresh = match state.checkpoint.ingest(record, grid) {
                    Ok(fresh) => fresh,
                    Err(message) => {
                        state.error = Some(message);
                        break;
                    }
                };
                *state.delivered.entry(worker_name.clone()).or_default() += 1;
                let dense = grid.cell_index(CellId {
                    scenario,
                    policy,
                    seed,
                });
                if !fresh {
                    state.table.complete_cell(dense, lease, Instant::now());
                    continue;
                }
                // Field borrows split: the fresh record lives in the
                // checkpoint while the writer appends it.
                let record = state.checkpoint.records().last().expect("fresh record");
                if let Err(e) = state.writer.append(record) {
                    state.error = Some(format!("checkpoint append failed: {e}"));
                    break;
                }
                state.table.complete_cell(dense, lease, Instant::now());
                state.ran += 1;
                if state.table.is_complete() {
                    state.complete = true;
                } else if state.ran >= options.max_cells {
                    state.capped = true;
                }
                if state.finished() {
                    queen.changed.notify_all();
                }
            }
            ToQueen::Done { lease } => {
                queen.lock().table.release(lease);
                queen.changed.notify_all();
            }
            ToQueen::Heartbeat { lease } => {
                queen.lock().table.heartbeat(lease, Instant::now());
            }
        }
    }

    // Whatever ended the connection: this worker's unfinished claims go
    // back to the pool (unless a speculative twin still covers them).
    let mut s = queen.lock();
    for id in granted {
        s.table.release(id);
    }
    queen.changed.notify_all();
}

fn write_line(writer: &mut FaultyTransport, message: &ToWorker) -> io::Result<()> {
    writer.write_all(format!("{}\n", message.to_line()).as_bytes())
}

/// Formats one periodic queen status line: overall progress, per-worker
/// delivery throughput, live lease ages, and the speculation count. Pure
/// so the format is unit-testable; the status thread feeds it live state.
fn status_line(
    done: usize,
    total: usize,
    elapsed: Duration,
    delivered: &[(String, usize)],
    leases: &[crate::lease::LeaseStat],
    speculative: usize,
) -> String {
    let secs = elapsed.as_secs_f64();
    let mut line = format!("queen: {done}/{total} cells in {secs:.0}s");
    if !delivered.is_empty() {
        let workers: Vec<String> = delivered
            .iter()
            .map(|(name, cells)| {
                let rate = if secs > 0.0 {
                    *cells as f64 / secs
                } else {
                    0.0
                };
                format!("{name} {cells} ({rate:.1}/s)")
            })
            .collect();
        line.push_str(&format!(" | workers: {}", workers.join(", ")));
    }
    if !leases.is_empty() {
        let views: Vec<String> = leases
            .iter()
            .map(|l| {
                format!(
                    "{}#{} {} left, {:.1}s{}",
                    l.worker,
                    l.id,
                    l.outstanding,
                    l.age.as_secs_f64(),
                    if l.expired { " EXPIRED" } else { "" }
                )
            })
            .collect();
        line.push_str(&format!(" | leases: {}", views.join("; ")));
    }
    if speculative > 0 {
        line.push_str(&format!(" | {speculative} speculative"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_reports_workers_leases_and_speculation() {
        use crate::lease::LeaseStat;

        let delivered = vec![("alpha".to_string(), 8), ("beta".to_string(), 4)];
        let leases = vec![
            LeaseStat {
                id: 3,
                worker: "alpha".into(),
                start: 12,
                len: 6,
                outstanding: 4,
                age: Duration::from_millis(200),
                expired: false,
            },
            LeaseStat {
                id: 5,
                worker: "beta".into(),
                start: 18,
                len: 6,
                outstanding: 2,
                age: Duration::from_millis(9800),
                expired: true,
            },
        ];
        let line = status_line(12, 40, Duration::from_secs(6), &delivered, &leases, 1);
        assert_eq!(
            line,
            "queen: 12/40 cells in 6s | workers: alpha 8 (1.3/s), beta 4 (0.7/s) \
             | leases: alpha#3 4 left, 0.2s; beta#5 2 left, 9.8s EXPIRED | 1 speculative"
        );
    }

    #[test]
    fn status_line_is_minimal_with_no_workers() {
        let line = status_line(0, 40, Duration::from_secs(0), &[], &[], 0);
        assert_eq!(line, "queen: 0/40 cells in 0s");
    }
}
