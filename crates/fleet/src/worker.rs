//! The worker: connect, rebuild the grid, run leased cells, stream
//! records back.
//!
//! A worker carries **no state the fleet depends on**: everything it
//! knows arrives in the queen's `HELLO` (grid name, scale, expected cell
//! count, lease TTL) and everything it produces goes back as `RECORD`
//! lines the moment each cell completes — so killing a worker at any
//! instant loses at most the cell in flight, and the queen's speculative
//! re-lease covers the hole. A background ticker sends `HEARTBEAT` for
//! the lease being worked at a third of the TTL, so a slow cell (one can
//! take minutes at full scale) is not mistaken for a dead worker.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cohmeleon_chaos::{connect_with_retry, sanitize_name, FaultPlan, FaultyTransport, Role};
use cohmeleon_exp::{CellRecord, SweepGrid};

use crate::protocol::{LineReader, ToQueen, ToWorker};

/// Tuning knobs for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Self-reported label (sanitized onto one wire token).
    pub name: String,
    /// Keep retrying the initial connect for this long — workers are
    /// typically launched alongside (or before) the queen.
    pub connect_retry: Duration,
    /// Fault injection for tests and the CI smoke: after streaming this
    /// many `RECORD`s total, drop the connection without `DONE` and
    /// return with [`WorkerReport::aborted`] set — simulating a worker
    /// killed mid-lease.
    pub fail_after: Option<usize>,
    /// Seeded network fault injection: when set, the queen connection is
    /// wrapped in a [`FaultyTransport`] playing [`Role::Worker`]. `None`
    /// is the plain direct path.
    pub chaos: Option<FaultPlan>,
}

impl WorkerOptions {
    /// Defaults: 10 s connect window, no fault injection.
    pub fn new(name: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            name: name.into(),
            connect_retry: Duration::from_secs(10),
            fail_after: None,
            chaos: None,
        }
    }
}

/// What a worker session did.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The grid name the queen assigned.
    pub grid: String,
    /// Cells simulated and streamed back.
    pub cells: usize,
    /// Leases fully completed (`DONE` sent).
    pub leases: usize,
    /// Whether the session ended via `fail_after` fault injection.
    pub aborted: bool,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Connects to a queen at `addr` and works leases until the queen says
/// `DONE`.
///
/// `resolve` rebuilds the grid from the queen's `HELLO`: it receives the
/// grid's registry name and the fast flag and must return the *same*
/// grid the queen owns — the cell count is cross-checked, and every
/// record the worker streams is re-validated queen-side against labels
/// and derived seeds, so a mismatched rebuild is caught, not merged.
///
/// # Errors
///
/// Connect failures (after the retry window), I/O errors, `InvalidData`
/// for protocol violations (a lease reaching past the grid among them), a
/// failed `resolve`, or a cell-count mismatch. The queen closing the
/// connection early (killed, or capped without a final `DONE`) is
/// `UnexpectedEof`.
pub fn run_worker<F>(addr: &str, resolve: F, options: &WorkerOptions) -> io::Result<WorkerReport>
where
    F: Fn(&str, bool) -> Result<SweepGrid, String>,
{
    let stream = connect_with_retry(addr, options.connect_retry)?;
    stream.set_nodelay(true)?;
    let stream = FaultyTransport::from_plan(stream, options.chaos.as_ref(), Role::Worker)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = LineReader::new(stream);

    // Handshake: introduce ourselves, learn the grid.
    let name = sanitize_name(&options.name);
    send(&writer, &ToQueen::Hello { name })?;
    let (grid_name, fast, cells, ttl_ms) = match read_reply(&mut reader)? {
        ToWorker::Hello {
            grid,
            fast,
            cells,
            ttl_ms,
        } => (grid, fast, cells, ttl_ms),
        other => {
            return Err(invalid(format!(
                "expected HELLO, got `{}`",
                other.to_line()
            )))
        }
    };
    let grid = resolve(&grid_name, fast).map_err(invalid)?;
    if grid.num_cells() != cells {
        return Err(invalid(format!(
            "grid `{grid_name}` rebuilt with {} cells but the queen has {cells}",
            grid.num_cells()
        )));
    }

    // Heartbeat ticker: whatever lease is current gets a HEARTBEAT at a
    // third of the TTL, so a long-running cell does not look dead.
    // Dropping `stop` ends the ticker's wait at once, so a finished
    // worker never waits out a period (seconds) on exit.
    let current_lease = Arc::new(AtomicU64::new(0));
    let (stop, stopped) = mpsc::channel::<()>();
    let ticker = {
        let writer = Arc::clone(&writer);
        let current_lease = Arc::clone(&current_lease);
        let period = Duration::from_millis((ttl_ms / 3).max(50));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                let lease = current_lease.load(Ordering::Acquire);
                if lease != 0 {
                    // A failed send means the connection is gone; the
                    // main loop is about to find out on its own.
                    let _ = send(&writer, &ToQueen::Heartbeat { lease });
                }
            }
        })
    };

    let mut report = WorkerReport {
        grid: grid_name,
        cells: 0,
        leases: 0,
        aborted: false,
    };
    let outcome = work_loop(
        &grid,
        &writer,
        &mut reader,
        &current_lease,
        options,
        &mut report,
    );
    current_lease.store(0, Ordering::Release);
    drop(stop);
    let _ = ticker.join();
    outcome.map(|()| report)
}

/// The lease-work-stream cycle, separated out so the caller can stop the
/// heartbeat ticker on *any* exit path.
fn work_loop(
    grid: &SweepGrid,
    writer: &Mutex<FaultyTransport>,
    reader: &mut LineReader<FaultyTransport>,
    current_lease: &AtomicU64,
    options: &WorkerOptions,
    report: &mut WorkerReport,
) -> io::Result<()> {
    loop {
        send(writer, &ToQueen::Lease)?;
        match read_reply(reader)? {
            ToWorker::Lease { id, start, len } => {
                let end = start
                    .checked_add(len)
                    .filter(|&end| end <= grid.num_cells())
                    .ok_or_else(|| {
                        invalid(format!(
                            "lease of cells {start}+{len} is outside the {}-cell grid",
                            grid.num_cells()
                        ))
                    })?;
                current_lease.store(id, Ordering::Release);
                for dense in start..end {
                    let result = grid.run_cell(grid.cell_at(dense));
                    let record = CellRecord::from_cell(&result);
                    send(
                        writer,
                        &ToQueen::Record {
                            lease: id,
                            json: record.to_json(),
                        },
                    )?;
                    report.cells += 1;
                    if options.fail_after == Some(report.cells) {
                        // Fault injection: vanish mid-lease, no DONE.
                        report.aborted = true;
                        return Ok(());
                    }
                }
                send(writer, &ToQueen::Done { lease: id })?;
                current_lease.store(0, Ordering::Release);
                report.leases += 1;
            }
            ToWorker::Complete => return Ok(()),
            ToWorker::Hello { .. } => return Err(invalid("unexpected mid-session HELLO".into())),
        }
    }
}

/// Sends one line under the shared write lock, so heartbeats from the
/// ticker thread never interleave bytes with the main loop's messages.
fn send(writer: &Mutex<FaultyTransport>, message: &ToQueen) -> io::Result<()> {
    let mut stream = writer.lock().expect("worker write side");
    stream.write_all(format!("{}\n", message.to_line()).as_bytes())
}

fn read_reply(reader: &mut LineReader<FaultyTransport>) -> io::Result<ToWorker> {
    match reader.read_line()? {
        Some(line) => ToWorker::parse(&line).map_err(invalid),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "queen closed the connection",
        )),
    }
}
